//! The Slate daemon (paper §IV-A2, §IV-B).
//!
//! The daemon is the server half of Slate's client–server architecture: it
//! funnels every client's operations into one device context, which is what
//! makes cross-process co-running possible at all. Per client it keeps a
//! *session*, served by its own thread, holding the hash table that maps
//! the client's opaque pointers to device allocations.
//!
//! Kernel launches run the full Slate pipeline, functionally: the source
//! injector (with its per-user compilation cache), first-run profiling and
//! classification, the workload-aware arbiter (Table I policy +
//! SM-demand partitioning), and the dispatch kernel with persistent
//! workers — including *live resizing* of a running kernel when a
//! complementary client arrives or departs.
//!
//! # The arbitration core
//!
//! Every scheduling decision — co-run selection, SM partitioning, dynamic
//! resizing, admission shedding, starvation promotion, watchdog eviction,
//! session reaping — is made by the shared, deterministic
//! [`ArbiterCore`](crate::arbiter::ArbiterCore). The daemon is a thin
//! driver: wire requests and a 1 ms heartbeat become
//! [`Event`](crate::arbiter::Event)s stamped with a monotonic logical
//! clock, and the returned [`Command`]s are
//! carried out against dispatch handles, the memory pool, and client
//! replies. With [`DaemonOptions::record_arbiter`] set, every fed batch is
//! recorded; the resulting [`EventLog`] replays to the byte-identical
//! command sequence (see [`crate::arbiter::replay`]) — the simulated
//! [`SlateRuntime`](crate::runtime::SlateRuntime) drives the very same
//! core, so both frontends make identical decisions for identical event
//! streams.
//!
//! # Multi-device placement
//!
//! With [`DaemonOptions::devices`] set, the daemon schedules over a fleet:
//! one arbitration core per device behind the deterministic
//! [`PlacementLayer`]. New sessions are
//! routed by [`DaemonOptions::placement`] and stick to their device; with
//! [`DaemonOptions::rebalance`] set, a sustained load imbalance migrates a
//! resident kernel — an ordinary eviction on the source device followed by
//! a resumed dispatch on the target at the carried `slateIdx` progress, so
//! no user block executes twice. [`DaemonMetrics::placement`] counts
//! routed sessions, rebalances and completed migrations; a recorded
//! multi-device run yields a [`PlacementLog`] that splits into ordinary
//! per-device [`EventLog`]s.
//!
//! # Fault tolerance
//!
//! Because every client shares one device context, the daemon contains
//! failures instead of letting them spread to co-runners:
//!
//! * **session reaping** — a client that vanishes without `Disconnect`
//!   (its channel sender drops) is detected by its session thread, which
//!   frees the session's allocations, releases any arbiter residency and
//!   Hyper-Q lanes, and lets the surviving co-runner regrow to the full
//!   device — exactly the `Disconnect` path;
//! * a **kernel watchdog** — launches carry an optional deadline (or
//!   inherit [`DaemonOptions::default_deadline_ms`]); the heartbeat
//!   evicts over-deadline kernels through the paper's own retreat flag and
//!   the client receives [`SlateError::Timeout`] while co-runners keep
//!   running;
//! * **graceful shutdown** — [`SlateDaemon::shutdown`] refuses new
//!   connections with [`SlateError::ShuttingDown`] and drains in-flight
//!   sessions under a deadline; during the drain the arbiter stops
//!   co-scheduling and serializes remaining kernels solo, with a bounded
//!   condvar wait so nothing can wedge waiting for a grant;
//! * deterministic **fault injection** — a [`FaultPlan`]
//!   (`slate_gpu_sim::fault`) passed through [`DaemonOptions`] makes
//!   kernels hang, launches fault, memcpys stall, or channels drop at
//!   scripted points, so all of the above is testable and replayable;
//! * **poison tolerance** — all daemon-shared state lives behind
//!   [`crate::sync::Mutex`], which recovers a lock some thread panicked
//!   under instead of cascading the panic;
//!   [`DaemonMetrics::lock_recoveries`] counts the recoveries.
//!
//! # Overload protection
//!
//! * **admission control** — [`DaemonOptions::admission`] bounds
//!   concurrent sessions, pending launches (per session and daemon-wide)
//!   and memory pressure; over-limit requests are shed with
//!   [`SlateError::Overloaded`] carrying a `retry_after_ms` hint computed
//!   from the queued work, and deadline-carrying launches are rejected up
//!   front when the estimated queue wait already exceeds their deadline;
//! * **backpressure** — per-session and global launch gauges implement
//!   a drop-newest shed policy; [`SlateDaemon::metrics`] exposes the
//!   backlog;
//! * **starvation-free arbitration** — with
//!   [`DaemonOptions::starvation_bound_ms`] set, a kernel waiting past the
//!   bound refuses co-running and is dispatched pinned-solo as soon as the
//!   device frees ([`DaemonMetrics::starvation_promotions`] counts these);
//!   waiters are served longest-wait-first with arrival order as the
//!   deterministic tie-break.

use crate::admission::{AdmissionLimits, DaemonMetrics, FleetAdmissionConfig};
use crate::arbiter::{ArbiterConfig, Command, Event as ArbEvent, EventLog};
use crate::backend::LeaseTable;
use crate::channel::{LaunchCmd, Request, Response, SlatePtr};
use crate::classify::WorkloadClass;
use crate::dispatch::{DispatchHandle, Dispatcher};
use crate::durability::{recover_dir, Durability, DurabilityOptions, DurableMeta, WalRecord};
use crate::error::SlateError;
use crate::injector::InjectionCache;
use crate::placement::replay::{PlacementBatch, PlacementLog};
use crate::placement::{
    HealthConfig, HealthState, PlacementConfig, PlacementLayer, PlacementPolicy, RebalanceConfig,
    RoutedCommand,
};
use crate::profile::ProfileTable;
use crate::sync::{Condvar, Mutex};
use crate::transform::TransformedKernel;
use crate::workers::WorkerGrid;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use serde::{Deserialize, Serialize};
use slate_gpu_sim::buffer::{DeviceMemoryPool, DevicePtr, GpuBuffer};
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::fault::{FaultKind, FaultPlan, FaultSite, FaultToken};
use slate_gpu_sim::workqueue::HyperQ;
use slate_kernels::workload::SloClass;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Mutable state of the daemon's arbiter frontend, under one lock.
struct ArbInner {
    /// The device fleet's arbitration brain: one per-device
    /// [`ArbiterCore`](crate::arbiter::ArbiterCore) behind the
    /// deterministic routing of [`PlacementLayer`]. A single-device daemon
    /// is the degenerate N=1 layer and behaves exactly as before.
    layer: PlacementLayer,
    /// Routed commands of the batch being fed; reused at its high-water
    /// capacity, so a warmed in-memory feed allocates nothing.
    replies: Vec<RoutedCommand>,
    /// Dispatch grants awaiting pickup by their `execute_kernel` thread:
    /// lease → (device index, granted SM range). Ordered map so any
    /// iteration over pending grants is deterministic. (Dense-slot rule,
    /// `DESIGN.md` §17: an ordered map off the per-event hot path stays a
    /// map; only decision-path tables moved to interned `IdTable` slots,
    /// and any slot iteration that reaches output must sort by external
    /// id first.)
    grants: BTreeMap<u64, (usize, SmRange)>,
    /// Dispatch handles of waiting/resident leases — the shared
    /// backend-layer interpretation of `Resize`/`Evict` against dispatch
    /// handles (including the injected-hang token cancel on eviction), the
    /// same table [`crate::backend::DispatcherBackend`] executes with.
    /// Leases are fleet-unique, so one table serves every device.
    leases: LeaseTable,
}

/// The daemon's driver for the placement layer over the shared per-device
/// arbitration cores: one lock, no thread of its own. Whoever has events
/// — a session thread, a kernel's executing thread, the heartbeat —
/// takes the arbiter lock and, under it, stamps the batch with the
/// monotonic microsecond clock, feeds the layer, appends to the WAL,
/// carries out the routed commands (resize and evict act on dispatch
/// handles immediately; dispatch grants are parked for the waiting kernel
/// thread together with their device) and wakes grant waiters. The lock
/// order is the feed order is the WAL order (`DESIGN.md` §17).
struct ArbFrontend {
    /// Epoch of the logical clock ([`crate::arbiter::Tick`]s are
    /// microseconds since this instant, offset by `base_us`).
    epoch: Instant,
    /// Logical-clock offset: a recovered daemon resumes the crashed
    /// incarnation's clock instead of restarting at zero, so the WAL's
    /// tick stream stays monotonic across epochs.
    base_us: u64,
    inner: Mutex<ArbInner>,
    /// Signalled after every feed; `wait_grant` blocks on it.
    granted: Condvar,
    /// Raised by [`SlateDaemon::crash`] *under the arbiter lock*: every
    /// later feed becomes a no-op (`fed == false`), which is what keeps
    /// the WAL and the in-memory core in lockstep at the kill point.
    crashed: AtomicBool,
    /// Write-ahead log sink; every non-heartbeat fed batch is appended
    /// while the arbiter lock is held, so the log's batch order is the
    /// feed order.
    durability: Option<Arc<Durability>>,
}

/// Outcome of [`ArbFrontend::wait_grant`]: either a granted SM range, or
/// the daemon crashed while the kernel was queued.
enum GrantWait {
    /// Granted (device index, SM range).
    Granted(usize, SmRange),
    /// The daemon crashed. `ready_fed` tells whether this kernel's
    /// [`ArbEvent::KernelReady`] made it into the core (and the WAL)
    /// before the kill — adoption must feed a clearing `KernelFinished`
    /// exactly when it did.
    Crashed { ready_fed: bool },
}

impl ArbFrontend {
    fn new(layer: PlacementLayer, base_us: u64, durability: Option<Arc<Durability>>) -> Self {
        Self {
            epoch: Instant::now(),
            base_us,
            inner: Mutex::new(ArbInner {
                layer,
                replies: Vec::new(),
                grants: BTreeMap::new(),
                leases: LeaseTable::new(),
            }),
            granted: Condvar::new(),
            crashed: AtomicBool::new(false),
            durability,
        }
    }

    fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Feeds one batch under the (held) arbiter lock. Returns whether it
    /// was fed (`false` after a crash — the caller must treat the events
    /// as never having happened) and, when `session` is given, the retry
    /// hint if that session's request was shed. `meta` is appended to the
    /// WAL right after the batch, unless the batch was shed or unfed.
    fn feed_locked(
        &self,
        inner: &mut ArbInner,
        events: &[ArbEvent],
        session: Option<u64>,
        meta: Option<WalRecord>,
    ) -> (bool, Option<u64>) {
        if self.crashed() {
            // Crashed under this same lock: nothing fed after the kill
            // point may touch the core or the (frozen) WAL.
            return (false, None);
        }
        let now = self.base_us + self.epoch.elapsed().as_micros() as u64;
        let ArbInner {
            layer,
            replies,
            grants,
            leases,
        } = inner;
        layer.feed_into(now, events, replies);
        if let Some(d) = &self.durability {
            // Heartbeat filter (same rule as the in-memory recorder): an
            // all-tick batch that routed nothing changes no state and
            // would swamp the log.
            let heartbeat_only = events.iter().all(|e| matches!(e, ArbEvent::DeadlineTick));
            if !(heartbeat_only && replies.is_empty()) {
                let batch = PlacementBatch {
                    // The layer clamps time monotonic; record the clamped
                    // tick so replay feeds exactly what the core saw.
                    at: layer.now(),
                    events: events.to_vec(),
                    routed: replies.clone(),
                };
                d.append_batch(&batch, || layer.snapshot());
            }
        }
        let retry_after_ms = session.and_then(|s| shed_retry(replies, s));
        // The shed case returns Overloaded to the client: the session
        // never existed, so no durable record of it.
        if let (Some(meta), None, Some(d)) = (&meta, retry_after_ms, &self.durability) {
            d.append_meta(meta);
        }
        for r in replies.iter() {
            match &r.command {
                Command::Dispatch { lease, range } => {
                    grants.insert(*lease, (r.device, *range));
                }
                Command::Resize { .. } | Command::Evict { .. } => {
                    leases.apply(&r.command);
                }
                // Rejections are surfaced via the retry hint; promotion,
                // preemption and reaping are informational here (the
                // paired Resize/Dispatch in the same batch carry the
                // state changes).
                Command::PromoteStarved { .. }
                | Command::Preempt { .. }
                | Command::Reap { .. }
                | Command::RejectOverloaded { .. } => {}
            }
        }
        self.granted.notify_all();
        (true, retry_after_ms)
    }

    /// [`ArbFrontend::feed_locked`] under one acquisition of the lock.
    fn submit(
        &self,
        events: &[ArbEvent],
        session: Option<u64>,
        meta: Option<WalRecord>,
    ) -> (bool, Option<u64>) {
        self.feed_locked(&mut self.inner.lock(), events, session, meta)
    }

    /// Feeds one batch, ignoring the outcome. After a crash this is a
    /// no-op.
    fn feed(&self, events: &[ArbEvent]) {
        let _ = self.submit(events, None, None);
    }

    /// The heartbeat's scheduling pass: one [`ArbEvent::DeadlineTick`].
    fn tick(&self) {
        self.feed(&[ArbEvent::DeadlineTick]);
    }

    /// The device `lease` currently routes to (its session's device, or
    /// the migration target after a rebalance eviction landed).
    fn lease_device(&self, lease: u64) -> usize {
        let inner = self.inner.lock();
        inner
            .layer
            .device_of_lease(lease)
            .or_else(|| inner.layer.device_of_session(lease >> 16))
            .unwrap_or(0)
    }

    /// The in-flight migration target of `lease`, if a rebalance eviction
    /// is pending for it. Must be read *before* feeding the eviction's
    /// `KernelFinished` (which completes the migration and clears it).
    fn migration_target(&self, lease: u64) -> Option<usize> {
        self.inner.lock().layer.migration_target(lease)
    }

    /// The placement layer's health state for `device`.
    fn device_health(&self, device: usize) -> HealthState {
        self.inner.lock().layer.health_of(device)
    }

    /// Registers the kernel's dispatch handle, announces it ready, and
    /// blocks until its device's core grants it an SM range — all under
    /// one acquisition of the lock, so the grant's commands always find
    /// the handle. The wait is bounded (the 1 ms heartbeat re-runs
    /// scheduling anyway), so a lost wakeup during teardown cannot wedge
    /// the thread; a crash unblocks every waiter with
    /// [`GrantWait::Crashed`].
    fn wait_grant(
        &self,
        lease: u64,
        ready: ArbEvent,
        handle: DispatchHandle,
        token: Option<FaultToken>,
    ) -> GrantWait {
        let mut inner = self.inner.lock();
        inner.leases.register(lease, handle, token);
        let (ready_fed, _) = self.feed_locked(&mut inner, &[ready], None, None);
        if !ready_fed {
            inner.leases.release(lease);
            return GrantWait::Crashed { ready_fed: false };
        }
        loop {
            if let Some((device, range)) = inner.grants.remove(&lease) {
                return GrantWait::Granted(device, range);
            }
            if self.crashed() {
                inner.leases.release(lease);
                return GrantWait::Crashed { ready_fed: true };
            }
            let _ = self.granted.wait_for(&mut inner, Duration::from_millis(5));
        }
    }

    /// Reports the dispatch finished (drained, faulted or evicted) and
    /// drops its handle; the lease's core re-schedules (survivor regrow,
    /// next waiter dispatch) in the same feed. Returns whether the finish
    /// actually landed — `false` means the daemon crashed first and the
    /// launch must be parked for adoption instead.
    fn finish(&self, lease: u64, ok: bool) -> bool {
        let mut inner = self.inner.lock();
        inner.leases.release(lease);
        self.feed_locked(
            &mut inner,
            &[ArbEvent::KernelFinished { lease, ok }],
            None,
            None,
        )
        .0
    }
}

/// The retry hint if `routed` shed the request just fed for `session`.
/// Each daemon feed carries a single request event, so any rejection in
/// the answer belongs to it.
fn shed_retry(routed: &[RoutedCommand], session: u64) -> Option<u64> {
    routed.iter().find_map(|r| match &r.command {
        Command::RejectOverloaded {
            session: s,
            retry_after_ms,
            ..
        } if *s == session => Some(*retry_after_ms),
        _ => None,
    })
}

/// One launch that was in flight (queued, granted, or running) when the
/// daemon crashed. Captured into the [`CrashScene`] and re-executed —
/// from its carried `slateIdx` progress — by the recovered daemon's
/// adoption pass, so no user block runs twice and none is lost.
struct CrashInflight {
    session: u64,
    lease: u64,
    launch_id: u64,
    kernel: Arc<dyn slate_kernels::kernel::GpuKernel>,
    task_size: u32,
    pinned_solo: bool,
    deadline_ms: Option<u64>,
    /// Blocks already executed (absolute `slateIdx` progress); adoption
    /// resumes the dispatch from here.
    progress: u64,
    /// Whether this launch's `KernelReady` reached the core (and the WAL)
    /// before the kill. At most the head job of a lease can be ready.
    ready: bool,
}

/// Everything that survives a [`SlateDaemon::crash`] in memory: the device
/// memory pool (device memory outlives a daemon process restart) and the
/// launches that were in flight. Hand it to [`SlateDaemon::recover`]
/// together with the durability directory to resurrect the fleet.
pub struct CrashScene {
    pool: DeviceMemoryPool,
    inflight: Vec<CrashInflight>,
}

impl CrashScene {
    /// Number of launches that were in flight at the kill point.
    pub fn inflight_launches(&self) -> usize {
        self.inflight.len()
    }
}

/// An epoch-tagged resumption credential: everything a client needs to
/// reattach its session to a recovered daemon. Minted by
/// [`crate::api::SlateClient::resume_token`]; redeemed by
/// [`SlateDaemon::resume`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResumeToken {
    /// Recovery epoch of the incarnation the client was connected to.
    /// Resumption is only valid into a *later* epoch.
    pub epoch: u64,
    /// The session to re-adopt.
    pub session: u64,
}

/// Shared daemon state.
struct DaemonShared {
    /// The primary device (`devices[0]`): kernel profiling and the
    /// injected-source pipeline are calibrated against it.
    cfg: DeviceConfig,
    /// The full device fleet, in placement-layer index order.
    devices: Vec<DeviceConfig>,
    pool: Mutex<DeviceMemoryPool>,
    injector: Mutex<InjectionCache>,
    profiles: Mutex<ProfileTable>,
    /// Driver of the shared arbitration core.
    arb: ArbFrontend,
    launches: Mutex<u64>,
    /// Hardware work-queue allocator for the funnelled server context.
    hyperq: Mutex<HyperQ>,
    /// Scripted fault schedule (empty outside fault-injection tests).
    faults: Mutex<FaultPlan>,
    /// Deadline applied to launches that don't carry their own.
    default_deadline_ms: Option<u64>,
    /// Raised by [`SlateDaemon::shutdown`]; refuses new connections.
    shutting_down: AtomicBool,
    /// Live session count + condvar for the shutdown drain.
    active_sessions: Mutex<usize>,
    session_drained: Condvar,
    /// Write-ahead log + snapshot sink (None: the daemon is ephemeral).
    /// The same handle the arbiter frontend appends batches through.
    durability: Option<Arc<Durability>>,
    /// Perfetto trace destination for the shutdown hook (None: no trace).
    trace_path: Option<std::path::PathBuf>,
    /// Launches deposited by their executing threads when a crash cut
    /// them off; drained into the [`CrashScene`] after session threads
    /// joined.
    crash_inflight: Mutex<Vec<CrashInflight>>,
    /// Per-session adoption threads of a recovered daemon, joined by the
    /// session's resumed thread (or [`SlateDaemon::join`]) before any new
    /// request runs — adopted and fresh work never interleave on a lease.
    adoptions: Mutex<BTreeMap<u64, JoinHandle<()>>>,
    /// Errors adopted launches hit (watchdog timeouts etc.), surfaced at
    /// the resumed client's next synchronize.
    adoption_errors: Mutex<BTreeMap<u64, Vec<String>>>,
    /// Sessions already resumed in this incarnation; a token is good for
    /// one reattach.
    resumed: Mutex<BTreeSet<u64>>,
    /// Launch ids adopted from the crash scene, per session: replayed
    /// client launches dedupe against these (and against WAL-completed
    /// ids), which is what makes resubmission idempotent.
    adopted_ids: Mutex<BTreeMap<u64, BTreeSet<u64>>>,
}

/// Construction-time daemon configuration beyond device geometry.
pub struct DaemonOptions {
    /// Kernel profile table seeded from a previous run.
    pub profiles: ProfileTable,
    /// Deterministic fault schedule (for tests; empty injects nothing).
    pub fault_plan: FaultPlan,
    /// Watchdog deadline, in milliseconds, for launches that don't set
    /// their own. `None` leaves unmarked launches unwatched.
    pub default_deadline_ms: Option<u64>,
    /// Admission limits (sessions, pending launches, memory watermark).
    /// The default admits everything — admission control is opt-in.
    pub admission: AdmissionLimits,
    /// Arbiter aging bound, in milliseconds: a kernel waiting longer for
    /// the device is dispatched solo (policy table notwithstanding) and
    /// counted in [`DaemonMetrics::starvation_promotions`]. `None` disables
    /// aging.
    pub starvation_bound_ms: Option<u64>,
    /// SLO preemption bound, in milliseconds: a latency-critical arrival
    /// (declared via [`SlateDaemon::connect_with_slo`]) displaces a
    /// best-effort resident through the retreat/resize path within this
    /// logical-time bound. `None` (the default) disables preemption.
    pub preempt_bound_ms: Option<u64>,
    /// Record every arbitration event batch; [`SlateDaemon::arbiter_log`]
    /// returns the [`EventLog`], which replays to the identical command
    /// sequence, and [`SlateDaemon::placement_log`] the full multi-device
    /// [`PlacementLog`].
    pub record_arbiter: bool,
    /// The device fleet the daemon schedules over, one
    /// [`ArbiterCore`](crate::arbiter::ArbiterCore) each behind the
    /// placement layer. Empty (the default) means the single device passed
    /// to [`SlateDaemon::start_with_options`], preserving the one-GPU
    /// behaviour exactly.
    pub devices: Vec<DeviceConfig>,
    /// How new sessions are routed across [`DaemonOptions::devices`].
    /// Irrelevant (but harmless) on a single device.
    pub placement: PlacementPolicy,
    /// Cross-device rebalancing thresholds; `None` (the default) never
    /// migrates. A fired migration evicts the victim through the paper's
    /// retreat flag and resumes it on the target device at its carried
    /// `slateIdx` progress, so no user block runs twice.
    pub rebalance: Option<RebalanceConfig>,
    /// Per-device health state machine: quarantine window after repeated
    /// soft failures, seeded probation window before a recovered device
    /// is re-admitted as a routing target. The default windows are
    /// sensible for the simulator's logical-µs clock; tune them to the
    /// deployment's real failure cadence.
    pub health: HealthConfig,
    /// Fleet-level admission: per-device budgets multiplied by the
    /// *currently healthy* device count, so shedding tightens as the
    /// fleet degrades. The default admits everything.
    pub fleet: FleetAdmissionConfig,
    /// Crash consistency: with a [`DurabilityOptions`] set, every
    /// placement batch and session mutation is written ahead to a
    /// checksummed WAL under its directory, snapshotted every
    /// [`DurabilityOptions::snapshot_every`] batches, and
    /// [`SlateDaemon::recover`] can rebuild the daemon after a kill.
    /// `None` (the default) keeps the daemon fully in-memory.
    pub durability: Option<DurabilityOptions>,
    /// Write a Perfetto trace of the recorded run to this path when
    /// [`SlateDaemon::shutdown`] completes its drain (implies
    /// [`DaemonOptions::record_arbiter`]). Best-effort: a write failure
    /// never blocks the shutdown; call [`SlateDaemon::write_trace`]
    /// directly to observe the error. `None` (the default) emits
    /// nothing.
    pub trace_path: Option<std::path::PathBuf>,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        Self {
            profiles: ProfileTable::new(),
            fault_plan: FaultPlan::new(),
            default_deadline_ms: None,
            admission: AdmissionLimits::default(),
            starvation_bound_ms: None,
            preempt_bound_ms: None,
            record_arbiter: false,
            devices: Vec::new(),
            placement: PlacementPolicy::default(),
            rebalance: None,
            health: HealthConfig::default(),
            fleet: FleetAdmissionConfig::default(),
            durability: None,
            trace_path: None,
        }
    }
}

/// A running Slate daemon. Dropping the handle after every client
/// disconnected shuts the daemon down.
pub struct SlateDaemon {
    shared: Arc<DaemonShared>,
    next_session: Mutex<u64>,
    sessions: Mutex<Vec<JoinHandle<()>>>,
}

/// Client-side connection to the daemon — the transport `api::SlateClient`
/// wraps.
pub struct Connection {
    /// Session id assigned by the daemon.
    pub session: u64,
    /// Recovery epoch of the daemon incarnation that minted this
    /// connection (0 for a non-durable daemon). Carried into
    /// [`ResumeToken`]s so resumption is only honoured across a restart.
    pub epoch: u64,
    /// Smallest launch id a client of this connection may assign: 0 for a
    /// fresh session; one past the highest id the WAL has seen for a
    /// resumed one, so a client built fresh over a resumed connection
    /// never collides with (and gets silently deduplicated against) its
    /// predecessor's ids.
    pub launch_floor: u64,
    /// Command pipe, client-to-daemon.
    pub tx: Sender<Request>,
    /// Response pipe, daemon-to-client.
    pub rx: Receiver<Response>,
}

impl SlateDaemon {
    /// Starts a daemon managing a functional device of `cfg` geometry with
    /// `mem_capacity` bytes of device memory.
    pub fn start(cfg: DeviceConfig, mem_capacity: u64) -> Arc<Self> {
        Self::start_with_options(cfg, mem_capacity, DaemonOptions::default())
    }

    /// Starts a daemon seeded with a profile table from a previous run
    /// (the paper's daemon "records kernel profiles obtained from its
    /// previous runs").
    pub fn start_with_profiles(
        cfg: DeviceConfig,
        mem_capacity: u64,
        profiles: ProfileTable,
    ) -> Arc<Self> {
        Self::start_with_options(
            cfg,
            mem_capacity,
            DaemonOptions {
                profiles,
                ..DaemonOptions::default()
            },
        )
    }

    /// Starts a daemon with full [`DaemonOptions`] — profile seeding, a
    /// fault-injection plan, and the default watchdog deadline.
    pub fn start_with_options(
        cfg: DeviceConfig,
        mem_capacity: u64,
        options: DaemonOptions,
    ) -> Arc<Self> {
        let devices = if options.devices.is_empty() {
            vec![cfg]
        } else {
            options.devices.clone()
        };
        let mut layer = PlacementLayer::new(
            devices.clone(),
            PlacementConfig {
                policy: options.placement.clone(),
                arbiter: ArbiterConfig {
                    enable_corun: true,
                    enable_resize: true,
                    starvation_bound_us: options.starvation_bound_ms.map(|ms| ms * 1000),
                    preempt_bound_us: options.preempt_bound_ms.map(|ms| ms * 1000),
                    limits: options.admission,
                },
                rebalance: options.rebalance.clone(),
                health: options.health.clone(),
                fleet: options.fleet,
            },
        );
        // The genesis anchor (snapshot 0 of segment 0) captures the
        // pristine fleet, so the full WAL replays from a fresh layer.
        let durability = options.durability.map(|opts| {
            Durability::start(opts, 0, 0, &layer.snapshot(), DurableMeta::default())
                .expect("initialize durability directory")
        });
        if options.record_arbiter || options.trace_path.is_some() {
            layer.start_recording();
        }
        let shared = Arc::new(DaemonShared {
            cfg: devices[0].clone(),
            devices,
            pool: Mutex::new(DeviceMemoryPool::new(mem_capacity)),
            injector: Mutex::new(InjectionCache::new()),
            profiles: Mutex::new(options.profiles),
            arb: ArbFrontend::new(layer, 0, durability.clone()),
            launches: Mutex::new(0),
            hyperq: Mutex::new(HyperQ::with_default_connections()),
            faults: Mutex::new(options.fault_plan),
            default_deadline_ms: options.default_deadline_ms,
            shutting_down: AtomicBool::new(false),
            active_sessions: Mutex::new(0),
            session_drained: Condvar::new(),
            durability,
            trace_path: options.trace_path,
            crash_inflight: Mutex::new(Vec::new()),
            adoptions: Mutex::new(BTreeMap::new()),
            adoption_errors: Mutex::new(BTreeMap::new()),
            resumed: Mutex::new(BTreeSet::new()),
            adopted_ids: Mutex::new(BTreeMap::new()),
        });
        spawn_heartbeat(Arc::downgrade(&shared));
        Arc::new(Self {
            shared,
            next_session: Mutex::new(0),
            sessions: Mutex::new(Vec::new()),
        })
    }

    /// Snapshot of the kernel profile table (persist it with
    /// [`ProfileTable::save`] and reload through
    /// [`SlateDaemon::start_with_profiles`]).
    pub fn profiles(&self) -> ProfileTable {
        self.shared.profiles.lock().clone()
    }

    /// Accepts a new client; spawns its session thread (one per process,
    /// kept alive until the process disconnects — §IV-A2). Refused with
    /// [`SlateError::ShuttingDown`] once [`SlateDaemon::shutdown`] ran,
    /// and shed with [`SlateError::Overloaded`] at the
    /// [`AdmissionLimits::max_sessions`] bound.
    pub fn connect(self: &Arc<Self>, user: &str) -> Result<Connection, SlateError> {
        self.connect_with_slo(user, SloClass::BestEffort)
    }

    /// [`SlateDaemon::connect`] with a declared SLO class. A
    /// latency-critical session's arrivals displace best-effort residents
    /// (when [`DaemonOptions::preempt_bound_ms`] is set); the class is
    /// durable — it survives crash/recovery with the session record — and
    /// follows the session's work across migrations.
    pub fn connect_with_slo(
        self: &Arc<Self>,
        user: &str,
        slo: SloClass,
    ) -> Result<Connection, SlateError> {
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return Err(SlateError::ShuttingDown);
        }
        let session = {
            let mut n = self.next_session.lock();
            *n += 1;
            *n
        };
        {
            // The durable session record rides in the submission itself:
            // it is appended right after the admission batch, under the
            // same hold of the arbiter lock, so a crash can separate
            // neither from the other (and a shed admission records
            // nothing).
            let meta = self
                .shared
                .durability
                .as_ref()
                .map(|_| WalRecord::SessionMeta {
                    session,
                    user: user.to_string(),
                    slo,
                });
            // Best-effort sessions (the default) emit no declaration, so
            // pre-SLO event streams are unchanged.
            let mut events = Vec::with_capacity(2);
            if slo != SloClass::BestEffort {
                events.push(ArbEvent::SloArrival {
                    session,
                    class: slo,
                });
            }
            events.push(ArbEvent::SessionOpened { session });
            let (fed, retry) = self.shared.arb.submit(&events, Some(session), meta);
            if !fed {
                return Err(SlateError::ShuttingDown);
            }
            if let Some(retry) = retry {
                return Err(SlateError::Overloaded {
                    retry_after_ms: retry,
                });
            }
        }
        let (tx_req, rx_req) = unbounded::<Request>();
        let (tx_resp, rx_resp) = unbounded::<Response>();
        let shared = self.shared.clone();
        let user = user.to_string();
        *self.shared.active_sessions.lock() += 1;
        let handle = std::thread::Builder::new()
            .name(format!("slate-session-{session}"))
            .spawn(move || {
                let st = SessionState::fresh(session);
                session_loop(shared.clone(), session, user, rx_req, tx_resp, st);
                let mut active = shared.active_sessions.lock();
                *active -= 1;
                shared.session_drained.notify_all();
            })
            .expect("spawn session thread");
        self.sessions.lock().push(handle);
        Ok(Connection {
            session,
            epoch: self.epoch(),
            launch_floor: 0,
            tx: tx_req,
            rx: rx_resp,
        })
    }

    /// The daemon's recovery epoch: 0 at first start, incremented by every
    /// [`SlateDaemon::recover`]. Non-durable daemons are always epoch 0.
    pub fn epoch(&self) -> u64 {
        self.shared.durability.as_ref().map_or(0, |d| d.epoch())
    }

    /// WAL append failures swallowed so far (durable daemons only; the
    /// daemon keeps serving on a sick disk, trading durability for
    /// availability, but the count is observable).
    pub fn wal_io_errors(&self) -> u64 {
        self.shared.durability.as_ref().map_or(0, |d| d.io_errors())
    }

    /// Begins a graceful shutdown: new connections are refused with
    /// [`SlateError::ShuttingDown`], the arbiter stops co-scheduling and
    /// serializes the remaining kernels solo, and the call blocks until
    /// every in-flight session has drained or `drain_deadline` elapsed.
    /// Returns `true` when fully drained; `false` if sessions remain (the
    /// drain keeps progressing in the background either way).
    pub fn shutdown(&self, drain_deadline: Duration) -> bool {
        self.shared.shutting_down.store(true, Ordering::Release);
        self.shared.arb.feed(&[ArbEvent::DrainBegan]);
        let deadline = Instant::now() + drain_deadline;
        let drained = {
            let mut active = self.shared.active_sessions.lock();
            loop {
                if *active == 0 {
                    break true;
                }
                if self
                    .shared
                    .session_drained
                    .wait_until(&mut active, deadline)
                    .timed_out()
                {
                    break *active == 0;
                }
            }
        };
        // Best-effort shutdown trace: everything decision-relevant is in
        // the recording by now (the drain only waits on session threads),
        // and a full disk must not turn a clean drain into a hang.
        if let Some(path) = self.shared.trace_path.clone() {
            let _ = self.write_trace(&path);
        }
        drained
    }

    /// Exports the recorded run as a Perfetto trace to `path` — the
    /// explicit form of the [`DaemonOptions::trace_path`] shutdown hook.
    /// The recording is snapshotted, not consumed: [`SlateDaemon::
    /// arbiter_log`] / [`SlateDaemon::placement_log`] still work
    /// afterwards, and the daemon keeps recording. Errors when the
    /// daemon was started without recording enabled.
    pub fn write_trace(&self, path: &std::path::Path) -> Result<(), String> {
        let log = self
            .shared
            .arb
            .inner
            .lock()
            .layer
            .log_snapshot()
            .ok_or_else(|| {
                "daemon was not recording (set record_arbiter or trace_path)".to_string()
            })?;
        crate::trace::export::export_placement_log_to_file(&log, path)
    }

    /// Whether [`SlateDaemon::shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::Acquire)
    }

    /// Injection-cache statistics: (hits, misses).
    pub fn injection_stats(&self) -> (u64, u64) {
        self.shared.injector.lock().stats()
    }

    /// Declares `device` hard-down (operator action or an external health
    /// probe). The placement layer marks it [`HealthState::Failed`],
    /// evacuates every live lease to a healthy device, and excludes it
    /// from routing until [`SlateDaemon::recover_device`].
    pub fn fail_device(&self, device: usize) {
        self.shared.arb.feed(&[ArbEvent::DeviceDown {
            device: device as u64,
            hard: true,
        }]);
    }

    /// Declares `device` serviceable again. The device enters a seeded
    /// probation window (it must stay quiet before taking traffic); a
    /// flap during probation sends it back to quarantine.
    pub fn recover_device(&self, device: usize) {
        self.shared.arb.feed(&[ArbEvent::DeviceUp {
            device: device as u64,
        }]);
    }

    /// The placement layer's health verdict for `device`.
    pub fn device_health(&self, device: usize) -> HealthState {
        self.shared.arb.device_health(device)
    }

    /// Takes device 0's recorded arbitration [`EventLog`] (present only
    /// when the daemon was started with
    /// [`DaemonOptions::record_arbiter`]). On a single-device daemon this
    /// is the complete record, exactly as before; multi-device runs use
    /// [`SlateDaemon::placement_log`] (whose
    /// [`split`](crate::placement::replay::split) recovers every
    /// per-device log, this one included).
    pub fn arbiter_log(&self) -> Option<EventLog> {
        self.shared
            .arb
            .inner
            .lock()
            .layer
            .take_core_logs()
            .into_iter()
            .next()
            .flatten()
    }

    /// Takes the recorded multi-device [`PlacementLog`] (present only when
    /// the daemon was started with [`DaemonOptions::record_arbiter`]). It
    /// [`verify`](crate::placement::replay::verify)s against a fresh
    /// replay and [`split`](crate::placement::replay::split)s into
    /// ordinary per-device [`EventLog`]s.
    pub fn placement_log(&self) -> Option<PlacementLog> {
        self.shared.arb.inner.lock().layer.take_log()
    }

    /// One snapshot of everything the daemon reports: queue backlog,
    /// admission counters, and the fault-tolerance counters. Every
    /// arbitration-layer counter is read under one acquisition of the
    /// arbiter lock, so they describe the same instant between two feeds.
    /// The single stable observability surface.
    pub fn metrics(&self) -> DaemonMetrics {
        let sh = &self.shared;
        let lock_recoveries = sh.pool.recoveries()
            + sh.injector.recoveries()
            + sh.profiles.recoveries()
            + sh.launches.recoveries()
            + sh.hyperq.recoveries()
            + sh.faults.recoveries()
            + sh.active_sessions.recoveries()
            + sh.arb.inner.recoveries()
            + self.next_session.recoveries()
            + self.sessions.recoveries();
        // The other locks are read first and released: a launch-site
        // fault fires (and feeds) with the fault-plan lock held.
        let launches_served = *sh.launches.lock();
        let live_allocations = sh.pool.lock().live_allocations();
        let hyperq_lanes = sh.hyperq.lock().lanes();
        let faults_fired = sh.faults.lock().fired();
        let inner = sh.arb.inner.lock();
        let layer = &inner.layer;
        DaemonMetrics {
            queue: layer.queue_stats(),
            admission: layer.admission_stats(),
            launches_served,
            live_allocations,
            hyperq_lanes,
            arbiter_residents: layer.residents(),
            watchdog_evictions: layer.evictions(),
            reaped_sessions: layer.reaped(),
            starvation_promotions: layer.promotions(),
            slo_preemptions: layer.preemptions(),
            faults_fired,
            placement: layer.stats(),
            lock_recoveries,
        }
    }

    /// Waits for all session threads to finish (after clients disconnect),
    /// and for any still-running adoption pass of a recovered daemon.
    pub fn join(&self) {
        let handles: Vec<_> = std::mem::take(&mut *self.sessions.lock());
        for h in handles {
            let _ = h.join();
        }
        let adoptions: Vec<_> = std::mem::take(&mut *self.shared.adoptions.lock())
            .into_values()
            .collect();
        for h in adoptions {
            let _ = h.join();
        }
    }

    /// Kills the daemon at an arbitrary instant, as a `SIGKILL` would:
    /// no drain, no goodbye to clients, no final WAL flush beyond what
    /// already hit the disk. Under the arbiter lock the crash flag is
    /// raised and the WAL frozen — the kill point is one well-defined
    /// cut through the event stream. Session threads are then joined
    /// (each exits at its next request boundary; running kernels are
    /// evicted through the retreat flag and deposit their carried
    /// progress), and everything that survives a process death in the
    /// real deployment — device memory, in-flight work — is returned as
    /// the [`CrashScene`] for [`SlateDaemon::recover`].
    pub fn crash(&self) -> CrashScene {
        {
            let inner = self.shared.arb.inner.lock();
            self.shared.arb.crashed.store(true, Ordering::SeqCst);
            self.shared.shutting_down.store(true, Ordering::Release);
            if let Some(d) = &self.shared.durability {
                d.freeze();
            }
            // Evict every in-flight dispatch: workers observe the retreat
            // flag at their next block boundary and the run() calls return
            // with carried progress.
            for lease in inner.leases.leases() {
                inner.leases.apply(&Command::Evict { lease });
            }
            self.shared.arb.granted.notify_all();
        }
        self.join();
        let inflight = std::mem::take(&mut *self.shared.crash_inflight.lock());
        let pool = std::mem::replace(&mut *self.shared.pool.lock(), DeviceMemoryPool::new(0));
        CrashScene { pool, inflight }
    }

    /// Resurrects a crashed daemon from its durability directory plus the
    /// in-memory [`CrashScene`]. State is rebuilt from the newest readable
    /// snapshot and the WAL suffix (torn tails are truncated, corruption
    /// reported — never panicked on); the epoch is bumped, a fresh WAL
    /// segment with a new anchor snapshot is opened, and every in-flight
    /// launch from the scene is re-adopted at its carried progress on a
    /// per-session adoption thread. Crashed clients reattach with
    /// [`SlateDaemon::resume`].
    ///
    /// Of `options`, the scheduling fields (`devices`, `placement`,
    /// `admission`, ...) are ignored — the fleet and its configuration
    /// come from the recovered snapshot; `profiles`, `fault_plan`,
    /// `default_deadline_ms`, `record_arbiter` and `durability` apply.
    /// `options.durability` must point at the crashed daemon's directory.
    pub fn recover(scene: CrashScene, options: DaemonOptions) -> Result<Arc<Self>, SlateError> {
        let dur_opts = options.durability.ok_or_else(|| {
            SlateError::Other("recover requires DaemonOptions::durability".into())
        })?;
        let rec = recover_dir(&dur_opts.dir)
            .map_err(|e| SlateError::Other(format!("recovery failed: {e}")))?;
        let mut layer = rec.layer;
        let epoch = rec.epoch + 1;
        // Resume the logical clock past the crashed incarnation's last
        // tick so the stitched WAL stays monotonic.
        let base_us = layer.now() + 1;
        let anchor = layer.snapshot();
        let devices = anchor.devices();
        let durability = Durability::start(
            dur_opts,
            rec.last_segment + 1,
            epoch,
            &anchor,
            rec.meta.clone(),
        )
        .map_err(|e| SlateError::Other(format!("reopen durability: {e}")))?;
        durability.append_meta(&WalRecord::Epoch { epoch });
        if options.record_arbiter || options.trace_path.is_some() {
            layer.start_recording();
        }
        let shared = Arc::new(DaemonShared {
            cfg: devices[0].clone(),
            devices,
            pool: Mutex::new(scene.pool),
            injector: Mutex::new(InjectionCache::new()),
            profiles: Mutex::new(options.profiles),
            arb: ArbFrontend::new(layer, base_us, Some(durability.clone())),
            launches: Mutex::new(0),
            hyperq: Mutex::new(HyperQ::with_default_connections()),
            faults: Mutex::new(options.fault_plan),
            default_deadline_ms: options.default_deadline_ms,
            shutting_down: AtomicBool::new(false),
            active_sessions: Mutex::new(0),
            session_drained: Condvar::new(),
            durability: Some(durability),
            trace_path: options.trace_path,
            crash_inflight: Mutex::new(Vec::new()),
            adoptions: Mutex::new(BTreeMap::new()),
            adoption_errors: Mutex::new(BTreeMap::new()),
            resumed: Mutex::new(BTreeSet::new()),
            adopted_ids: Mutex::new(BTreeMap::new()),
        });
        spawn_heartbeat(Arc::downgrade(&shared));
        let daemon = Arc::new(Self {
            shared,
            next_session: Mutex::new(rec.meta.next_session.max(1) - 1),
            sessions: Mutex::new(Vec::new()),
        });
        daemon.adopt(scene.inflight);
        Ok(daemon)
    }

    /// Spawns one adoption thread per crashed session, re-executing its
    /// in-flight launches in their original order from their carried
    /// progress.
    fn adopt(self: &Arc<Self>, inflight: Vec<CrashInflight>) {
        let mut by_session: BTreeMap<u64, Vec<CrashInflight>> = BTreeMap::new();
        for job in inflight {
            self.shared
                .adopted_ids
                .lock()
                .entry(job.session)
                .or_default()
                .insert(job.launch_id);
            by_session.entry(job.session).or_default().push(job);
        }
        for (session, jobs) in by_session {
            let shared = self.shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("slate-adopt-{session}"))
                .spawn(move || adopt_session(&shared, session, jobs))
                .expect("spawn adoption thread");
            self.shared.adoptions.lock().insert(session, handle);
        }
    }

    /// Reattaches a crashed client's session. The token must come from an
    /// earlier epoch of this durability lineage, name a session the WAL
    /// says is still open, and not have been redeemed already — otherwise
    /// [`SlateError::ResumeRejected`]. The returned [`Connection`] serves
    /// the same session id: the pointer map is restored from durable
    /// metadata, the pointer watermark never regresses, and launch ids the
    /// WAL has seen (completed or adopted) are deduplicated server-side,
    /// so the client may blindly resubmit everything unacknowledged.
    pub fn resume(self: &Arc<Self>, token: ResumeToken) -> Result<Connection, SlateError> {
        let Some(durability) = &self.shared.durability else {
            return Err(SlateError::ResumeRejected(
                "daemon is not durable".to_string(),
            ));
        };
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return Err(SlateError::ShuttingDown);
        }
        let epoch = durability.epoch();
        if token.epoch >= epoch {
            return Err(SlateError::ResumeRejected(format!(
                "token epoch {} is not from an earlier incarnation (current epoch {epoch})",
                token.epoch
            )));
        }
        let meta = durability.meta();
        let Some(smeta) = meta.sessions.get(&token.session) else {
            return Err(SlateError::ResumeRejected(format!(
                "session {} is unknown to the log",
                token.session
            )));
        };
        if !smeta.open {
            return Err(SlateError::ResumeRejected(format!(
                "session {} was closed before the crash",
                token.session
            )));
        }
        if !self.shared.resumed.lock().insert(token.session) {
            return Err(SlateError::ResumeRejected(format!(
                "session {} was already resumed",
                token.session
            )));
        }
        let session = token.session;
        let launch_floor = smeta
            .admitted
            .keys()
            .chain(smeta.done.keys())
            .max()
            .map_or(0, |m| m + 1);
        let st = SessionState::restore(session, smeta, &self.shared);
        let user = smeta.user.clone();
        let (tx_req, rx_req) = unbounded::<Request>();
        let (tx_resp, rx_resp) = unbounded::<Response>();
        let shared = self.shared.clone();
        *self.shared.active_sessions.lock() += 1;
        let handle = std::thread::Builder::new()
            .name(format!("slate-session-{session}"))
            .spawn(move || {
                session_loop(shared.clone(), session, user, rx_req, tx_resp, st);
                let mut active = shared.active_sessions.lock();
                *active -= 1;
                shared.session_drained.notify_all();
            })
            .expect("spawn session thread");
        self.sessions.lock().push(handle);
        Ok(Connection {
            session,
            epoch,
            launch_floor,
            tx: tx_req,
            rx: rx_resp,
        })
    }
}

/// Re-executes one crashed session's in-flight launches, in order, from
/// their carried progress. Grouped by lease: if the lease's head launch
/// had announced `KernelReady` before the kill, the recovered core still
/// holds that residency/waiter entry — a clearing `KernelFinished` is fed
/// exactly once before the re-runs, mirroring the eviction the crash
/// implied.
fn adopt_session(shared: &Arc<DaemonShared>, session: u64, jobs: Vec<CrashInflight>) {
    let mut order: Vec<u64> = Vec::new();
    let mut by_lease: BTreeMap<u64, Vec<CrashInflight>> = BTreeMap::new();
    for job in jobs {
        if !by_lease.contains_key(&job.lease) {
            order.push(job.lease);
        }
        by_lease.entry(job.lease).or_default().push(job);
    }
    for lease in order {
        let jobs = by_lease.remove(&lease).unwrap_or_default();
        if jobs.first().is_some_and(|j| j.ready) {
            shared
                .arb
                .feed(&[ArbEvent::KernelFinished { lease, ok: false }]);
        }
        for job in jobs {
            let out = execute_kernel(
                shared,
                job.lease,
                job.launch_id,
                job.kernel,
                job.task_size,
                job.pinned_solo,
                job.deadline_ms,
                job.progress,
            );
            if let Err(e) = out {
                shared
                    .adoption_errors
                    .lock()
                    .entry(session)
                    .or_default()
                    .push(e);
            }
        }
    }
}

/// Spawns the arbiter heartbeat: a daemon-lifetime thread that feeds
/// [`ArbEvent::DeadlineTick`] every millisecond, which is what fires
/// watchdog evictions and starvation promotions. Holds only a weak
/// reference, so it exits once the daemon (and its sessions) are gone.
fn spawn_heartbeat(shared: Weak<DaemonShared>) {
    std::thread::Builder::new()
        .name("slate-heartbeat".to_string())
        .spawn(move || loop {
            std::thread::sleep(Duration::from_millis(1));
            match shared.upgrade() {
                Some(sh) => {
                    // Fire-and-forget: a dropped tick (full ring) is
                    // made up by the next one a millisecond later.
                    sh.arb.tick();
                }
                None => break,
            }
        })
        .expect("spawn heartbeat thread");
}

/// Per-session state: the pointer-mapping hash table of §IV-A1, plus the
/// crash-resumption bookkeeping (launch-id dedupe, resumed flag).
struct SessionState {
    ptr_map: HashMap<SlatePtr, DevicePtr>,
    next_ptr: u64,
    /// Launch ids whose work is already done (per the WAL) or adopted
    /// from the crash scene: a resumed client's blind resubmission of
    /// these is acknowledged without re-execution.
    dedupe: BTreeSet<u64>,
    /// Whether this session reattached after a crash; its thread joins
    /// the session's adoption pass before serving anything.
    resumed: bool,
}

impl SessionState {
    fn fresh(session: u64) -> Self {
        Self {
            ptr_map: HashMap::new(),
            next_ptr: session << 32,
            dedupe: BTreeSet::new(),
            resumed: false,
        }
    }

    /// Rebuilds the state of a crashed session from its durable metadata:
    /// the pointer map is restored entry for entry (device memory
    /// survived in the [`CrashScene`] pool), the pointer watermark never
    /// regresses below any pointer ever handed out, and the dedupe set is
    /// completed-ids ∪ adopted-ids.
    fn restore(
        session: u64,
        meta: &crate::durability::SessionMeta,
        shared: &Arc<DaemonShared>,
    ) -> Self {
        let ptr_map = meta
            .allocs
            .iter()
            .map(|(&p, a)| (SlatePtr(p), DevicePtr(a.device_ptr)))
            .collect();
        let mut dedupe: BTreeSet<u64> = meta.done.keys().copied().collect();
        if let Some(adopted) = shared.adopted_ids.lock().get(&session) {
            dedupe.extend(adopted.iter().copied());
        }
        Self {
            ptr_map,
            next_ptr: meta.next_ptr.max((session << 32) + 1) - 1,
            dedupe,
            resumed: true,
        }
    }
}

/// A launch job forwarded to a stream worker thread. Admission already
/// happened at request time ([`ArbEvent::LaunchRequested`]); the lane's
/// `execute_kernel` completes it by feeding
/// [`ArbEvent::KernelFinished`].
struct StreamJob {
    launch_id: u64,
    kernel: Arc<dyn slate_kernels::kernel::GpuKernel>,
    task_size: u32,
    pinned_solo: bool,
    deadline_ms: Option<u64>,
}

/// A message for a stream lane's in-order queue: either a kernel launch or
/// a sync barrier carrying the channel to acknowledge on.
enum LaneMsg {
    Job(StreamJob),
    Barrier(Sender<()>),
}

/// One non-default CUDA stream of a session: its own in-order queue served
/// by a dedicated thread (the paper's per-(process, stream) queues).
/// Launches and barriers share a single FIFO, so a barrier acknowledges
/// only after every launch enqueued before it has executed.
struct StreamLane {
    tx: Sender<LaneMsg>,
    handle: JoinHandle<()>,
}

fn spawn_stream_lane(
    shared: Arc<DaemonShared>,
    lease: u64,
    errors: Arc<Mutex<Vec<String>>>,
) -> StreamLane {
    let (tx, rx) = unbounded::<LaneMsg>();
    let handle = std::thread::spawn(move || {
        while let Ok(msg) = rx.recv() {
            match msg {
                LaneMsg::Job(job) => {
                    let out = execute_kernel(
                        &shared,
                        lease,
                        job.launch_id,
                        job.kernel,
                        job.task_size,
                        job.pinned_solo,
                        job.deadline_ms,
                        0,
                    );
                    if let Err(e) = out {
                        errors.lock().push(e);
                    }
                }
                LaneMsg::Barrier(ack) => {
                    let _ = ack.send(());
                }
            }
        }
    });
    StreamLane { tx, handle }
}

fn session_loop(
    shared: Arc<DaemonShared>,
    session: u64,
    user: String,
    rx: Receiver<Request>,
    tx: Sender<Response>,
    mut st: SessionState,
) {
    let mut lanes: HashMap<u32, StreamLane> = HashMap::new();
    let stream_errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let shutdown_lanes = |lanes: &mut HashMap<u32, StreamLane>| {
        for (_, lane) in lanes.drain() {
            drop(lane.tx);
            let _ = lane.handle.join();
        }
    };
    if st.resumed {
        // Adopted launches finish before any new request runs, so adopted
        // and replayed work never interleave on a lease; their errors
        // surface at the client's next synchronize like any stream error.
        let handle = shared.adoptions.lock().remove(&session);
        if let Some(h) = handle {
            let _ = h.join();
        }
        let errs = shared
            .adoption_errors
            .lock()
            .remove(&session)
            .unwrap_or_default();
        stream_errors.lock().extend(errs);
    }
    // Whether the client said goodbye; anything else is a reap.
    let mut clean_exit = false;
    // Whether the daemon crashed under us: exit silently, preserving all
    // state for recovery (no frees, no close event, no farewell).
    let mut crashed_exit = false;
    loop {
        // Bounded recv so a crash can't leave this thread parked forever
        // on a quiet client.
        let req = match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(req) => req,
            Err(RecvTimeoutError::Timeout) => {
                if shared.arb.crashed() {
                    crashed_exit = true;
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if shared.arb.crashed() {
            // The kill point precedes this request: it never happened.
            crashed_exit = true;
            break;
        }
        // Injected channel drop: sever both pipes mid-request, as if the
        // client process died. The reap path below cleans up.
        if let Some(FaultKind::ChannelDrop) = shared.faults.lock().fire(FaultSite::Request, None) {
            break;
        }
        let resp = match req {
            Request::Malloc(bytes) => {
                let (used, capacity) = {
                    let pool = shared.pool.lock();
                    (pool.used(), pool.capacity())
                };
                let (_, retry) = shared.arb.submit(
                    &[ArbEvent::MallocRequested {
                        session,
                        used,
                        capacity,
                        bytes,
                    }],
                    Some(session),
                    None,
                );
                match retry {
                    Some(retry) => Response::Err(
                        SlateError::Overloaded {
                            retry_after_ms: retry,
                        }
                        .to_wire(),
                    ),
                    None => match shared.pool.lock().alloc(bytes) {
                        Ok(dev) => {
                            st.next_ptr += 1;
                            let p = SlatePtr(st.next_ptr);
                            st.ptr_map.insert(p, dev);
                            if let Some(d) = &shared.durability {
                                d.append_meta(&WalRecord::Alloc {
                                    session,
                                    slate_ptr: p.0,
                                    device_ptr: dev.0,
                                    bytes,
                                });
                            }
                            Response::Ptr(p)
                        }
                        Err(_) => {
                            Response::Err(SlateError::OutOfMemory { requested: bytes }.to_wire())
                        }
                    },
                }
            }
            Request::Free(p) => match st.ptr_map.remove(&p) {
                Some(dev) => {
                    // Log the free *before* releasing the backing store: a
                    // crash in between leaks pool bytes (harmless), while
                    // the opposite order would resurrect a dangling
                    // pointer into a resumed session's map.
                    if let Some(d) = &shared.durability {
                        d.append_meta(&WalRecord::Free {
                            session,
                            slate_ptr: p.0,
                        });
                    }
                    match shared.pool.lock().free(dev) {
                        Ok(()) => Response::Ok,
                        Err(e) => Response::Err(SlateError::Other(e).to_wire()),
                    }
                }
                None => Response::Err(SlateError::InvalidPointer { ptr: p.0 }.to_wire()),
            },
            Request::MemcpyH2D { ptr, offset, data } => {
                stall_if_injected(&shared);
                match resolve(&shared, &st, ptr) {
                    Ok(buf) => {
                        buf.copy_from_host(offset, &data);
                        Response::Ok
                    }
                    Err(e) => Response::Err(e),
                }
            }
            Request::MemcpyD2H { ptr, offset, len } => {
                stall_if_injected(&shared);
                match resolve(&shared, &st, ptr) {
                    Ok(buf) => {
                        let mut out = vec![0u8; len];
                        buf.copy_to_host(offset, &mut out);
                        Response::Data(out.into())
                    }
                    Err(e) => Response::Err(e),
                }
            }
            Request::Launch(cmd) => {
                let stream = cmd.stream;
                let deadline_ms = cmd.deadline_ms;
                let launch_id = cmd.launch_id;
                if st.dedupe.contains(&launch_id) {
                    // A resumed client's blind resubmission of work that
                    // already completed (per the WAL) or was adopted from
                    // the crash scene: idempotent, nothing to do.
                    continue;
                }
                match prepare_launch(&shared, &user, &st, cmd) {
                    Ok((kernel, task_size, pinned_solo)) => {
                        // Admission: bounded pending-launch queues (per
                        // session and global) plus an up-front deadline
                        // feasibility check against the estimated queue
                        // wait. Shed launches reply Overloaded, surfaced
                        // at the client's next synchronize.
                        let est_ms = shared
                            .profiles
                            .lock()
                            .estimate_solo_ms(kernel.name(), kernel.grid().total_blocks());
                        let lease = (session << 16) | stream as u64;
                        let (fed, retry) = shared.arb.submit(
                            &[ArbEvent::LaunchRequested {
                                session,
                                lease,
                                est_ms,
                                deadline_ms,
                            }],
                            Some(session),
                            None,
                        );
                        if !fed {
                            // Crashed before admission: the launch never
                            // happened; the resumed client will resubmit.
                            crashed_exit = true;
                            break;
                        }
                        if let Some(retry) = retry {
                            Response::Err(
                                SlateError::Overloaded {
                                    retry_after_ms: retry,
                                }
                                .to_wire(),
                            )
                        } else {
                            if let Some(d) = &shared.durability {
                                d.append_meta(&WalRecord::LaunchAdmitted {
                                    session,
                                    launch_id,
                                    lease,
                                });
                            }
                            if stream == 0 {
                                // Default stream: in-order on the session
                                // thread.
                                let out = execute_kernel(
                                    &shared,
                                    lease,
                                    launch_id,
                                    kernel,
                                    task_size,
                                    pinned_solo,
                                    deadline_ms,
                                    0,
                                );
                                match out {
                                    Ok(()) => continue,
                                    Err(e) => Response::Err(e),
                                }
                            } else {
                                let lane = lanes.entry(stream).or_insert_with(|| {
                                    spawn_stream_lane(shared.clone(), lease, stream_errors.clone())
                                });
                                let _ = lane.tx.send(LaneMsg::Job(StreamJob {
                                    launch_id,
                                    kernel,
                                    task_size,
                                    pinned_solo,
                                    deadline_ms,
                                }));
                                continue; // asynchronous: no reply
                            }
                        }
                    }
                    Err(e) => Response::Err(e),
                }
            }
            Request::Sync => {
                // Fence every stream lane, then surface collected errors.
                for lane in lanes.values() {
                    let (ack_tx, ack_rx) = unbounded::<()>();
                    if lane.tx.send(LaneMsg::Barrier(ack_tx)).is_ok() {
                        let _ = ack_rx.recv();
                    }
                }
                let errs: Vec<String> = std::mem::take(&mut *stream_errors.lock());
                for e in errs {
                    let _ = tx.send(Response::Err(e));
                }
                Response::Ok
            }
            Request::Disconnect => {
                shutdown_lanes(&mut lanes);
                // Free everything the client leaked (process teardown).
                let mut pool = shared.pool.lock();
                for (_, dev) in st.ptr_map.drain() {
                    let _ = pool.free(dev);
                }
                let _ = tx.send(Response::Ok);
                clean_exit = true;
                break;
            }
        };
        if tx.send(resp).is_err() {
            // The client's receiver is gone: reap below.
            break;
        }
    }
    // Lanes are joined on every exit path: on a crash their queued jobs
    // drain through `execute_kernel`, which deposits each one into the
    // crash scene (in order) instead of running it.
    shutdown_lanes(&mut lanes);
    if crashed_exit || shared.arb.crashed() {
        // Crashed: the session is *not* over — its memory, its arbiter
        // residency (as recorded in the WAL) and its in-flight launches
        // all carry over to the recovered daemon. Touch nothing.
        return;
    }
    // Either a clean Disconnect (cleanup already ran, the drains below are
    // no-ops) or the client vanished — process died, dropped its sender, or
    // an injected ChannelDrop severed the pipe. Reap the session exactly
    // like a Disconnect: drain stream lanes, reclaim device memory, release
    // any arbiter residency (the surviving co-runner regrows to the full
    // device) and the session's Hyper-Q lanes. Lanes are joined first, so
    // no launch of this session is in flight when the core sees the close.
    {
        let mut pool = shared.pool.lock();
        for (_, dev) in st.ptr_map.drain() {
            let _ = pool.free(dev);
        }
    }
    shared.arb.feed(&[if clean_exit {
        ArbEvent::SessionClosed { session }
    } else {
        ArbEvent::SessionSevered { session }
    }]);
    if let Some(d) = &shared.durability {
        d.append_meta(&WalRecord::SessionClosed { session });
    }
    shared
        .hyperq
        .lock()
        .retire_lanes(|_, stream| stream >> 16 == session as u32);
}

/// Applies an injected memcpy stall, if the plan has one armed.
fn stall_if_injected(shared: &DaemonShared) {
    if let Some(FaultKind::MemcpyStall { millis }) =
        shared.faults.lock().fire(FaultSite::Memcpy, None)
    {
        std::thread::sleep(Duration::from_millis(millis));
    }
}

fn resolve(
    shared: &DaemonShared,
    st: &SessionState,
    ptr: SlatePtr,
) -> Result<Arc<GpuBuffer>, String> {
    let dev = st
        .ptr_map
        .get(&ptr)
        .ok_or_else(|| SlateError::InvalidPointer { ptr: ptr.0 }.to_wire())?;
    shared.pool.lock().buffer(*dev)
}

/// Resolves pointers, runs the injection pipeline, and builds the kernel —
/// everything that needs the session's state.
fn prepare_launch(
    shared: &Arc<DaemonShared>,
    user: &str,
    st: &SessionState,
    cmd: LaunchCmd,
) -> Result<(Arc<dyn slate_kernels::kernel::GpuKernel>, u32, bool), String> {
    // Resolve the client's pointers through the session hash table.
    let buffers = cmd
        .ptrs
        .iter()
        .map(|&p| resolve(shared, st, p))
        .collect::<Result<Vec<_>, _>>()?;
    let kernel = (cmd.factory)(buffers);

    // Source injection through the per-user cache (the NVRTC stage).
    if let Some(src) = &cmd.source {
        shared
            .injector
            .lock()
            .get_or_inject(user, src, cmd.task_size);
    }
    Ok((kernel, cmd.task_size, cmd.pinned_solo))
}

/// A kernel whose every block parks on a [`FaultToken`] until the watchdog
/// cancels it — the functional model of a kernel that never terminates.
struct HungKernel {
    inner: Arc<dyn slate_kernels::kernel::GpuKernel>,
    token: FaultToken,
}

impl slate_kernels::kernel::GpuKernel for HungKernel {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn grid(&self) -> slate_kernels::grid::GridDim {
        self.inner.grid()
    }
    fn perf(&self) -> slate_gpu_sim::perf::KernelPerf {
        self.inner.perf()
    }
    fn run_block(&self, _block: slate_kernels::grid::BlockCoord) {
        // Block until evicted; the worker then observes the retreat flag
        // at its next task boundary and exits.
        self.token.block_until_cancelled();
    }
}

/// Profiles, transforms and dispatches a prepared kernel under the shared
/// arbitration core. `lease` identifies the (session, stream) queue.
/// `deadline_ms` (or the daemon default) arms the core's watchdog at
/// dispatch; past it the kernel is evicted and `SlateError::Timeout`
/// returned. Every admitted launch — including one that dies to an
/// injected fault before dispatch — feeds a final
/// [`ArbEvent::KernelFinished`], which is what balances the admission
/// gauges.
///
/// `start_from` is the absolute `slateIdx` progress to resume at: 0 for a
/// fresh launch, the carried progress for a crash-adopted one. If the
/// daemon crashes at any point of this call the launch is deposited into
/// the crash scene at its current progress and `Ok` returned — the
/// recovered daemon's adoption pass owns it from there, and the WAL-level
/// `LaunchDone` record is written *before* the completion is fed to the
/// core, so a kill between the two re-drains zero blocks rather than
/// re-executing any.
#[allow(clippy::too_many_arguments)]
fn execute_kernel(
    shared: &Arc<DaemonShared>,
    lease: u64,
    launch_id: u64,
    kernel: Arc<dyn slate_kernels::kernel::GpuKernel>,
    task_size: u32,
    pinned_solo: bool,
    deadline_ms: Option<u64>,
    start_from: u64,
) -> Result<(), String> {
    let session = lease >> 16;
    // The untransformed kernel, as deposited for adoption on a crash.
    let original = kernel.clone();
    let deposit = |progress: u64, ready: bool| {
        shared.crash_inflight.lock().push(CrashInflight {
            session,
            lease,
            launch_id,
            kernel: original.clone(),
            task_size,
            pinned_solo,
            deadline_ms,
            progress,
            ready,
        });
    };
    // All sessions share the daemon's single device context; each
    // (session, stream) lane gets a Hyper-Q connection on it.
    const SERVER_CONTEXT: u64 = 0;
    shared
        .hyperq
        .lock()
        .assign(SERVER_CONTEXT, (lease & 0xffff_ffff) as u32);

    // Launch-site fault injection: an armed LaunchFault rejects the launch
    // outright; an armed KernelHang swaps in a kernel that parks every
    // block on a token only the watchdog's eviction cancels.
    let mut hang_token = None;
    match shared
        .faults
        .lock()
        .fire(FaultSite::Launch, Some(kernel.name()))
    {
        Some(FaultKind::LaunchFault) => {
            shared
                .arb
                .feed(&[ArbEvent::KernelFinished { lease, ok: false }]);
            return Err(SlateError::KernelFault(format!(
                "injected device fault in '{}'",
                kernel.name()
            ))
            .to_wire());
        }
        Some(FaultKind::KernelHang) => hang_token = Some(FaultToken::new()),
        _ => {}
    }
    let kernel: Arc<dyn slate_kernels::kernel::GpuKernel> = match &hang_token {
        Some(token) => Arc::new(HungKernel {
            inner: kernel,
            token: token.clone(),
        }),
        None => kernel,
    };

    // The kernel, its profile and its task size are the client's: what no
    // device of the fleet can launch (the lease may migrate to any) is
    // refused here, as a typed error on a session that keeps serving —
    // not by a panic in first-run profiling, which simulates the launch,
    // and before `KernelReady` asks the arbiter for SMs the workers could
    // never use.
    let perf = kernel.perf();
    let grid_blocks = kernel.grid().total_blocks();
    let profiled = || -> Result<(WorkloadClass, u32), String> {
        if task_size == 0 {
            return Err("task size must be at least 1".into());
        }
        perf.validate()?;
        if shared
            .devices
            .iter()
            .any(|d| WorkerGrid::of(d, &perf).is_none())
        {
            return Err("not one block fits an SM (occupancy 0)".into());
        }
        // First-run profiling and classification.
        let mut table = shared.profiles.lock();
        let p = table.try_get_or_profile(&shared.cfg, &perf, grid_blocks.max(10_000))?;
        Ok((p.class, p.sm_demand))
    };
    let (class, demand) = match profiled() {
        Ok(profile) => profile,
        Err(why) => {
            shared
                .arb
                .feed(&[ArbEvent::KernelFinished { lease, ok: false }]);
            return Err(SlateError::Launch(format!("kernel '{}': {why}", perf.name)).to_wire());
        }
    };

    // Transform, then wait for the lease's device core to grant an SM
    // range. A rebalance migration evicts the run and loops back here:
    // the lease's route now points at the target device, and the dispatch
    // resumes from the carried absolute `slateIdx` progress, so no user
    // block executes twice.
    let transformed = TransformedKernel::new(kernel);
    let started = Instant::now();
    let mut carried: u64 = start_from;
    let (out, ran_on) = loop {
        let device = &shared.devices[shared.arb.lease_device(lease)];
        let grid = WorkerGrid::of(device, &perf).expect("launchable: validated above");
        let dispatcher = Dispatcher::on_grid(
            grid,
            transformed.clone(),
            task_size,
            SmRange::all(device.num_sms),
            carried,
        );
        let handle = dispatcher.handle();
        let ready = ArbEvent::KernelReady {
            session: lease >> 16,
            lease,
            class,
            sm_demand: demand,
            pinned_solo,
            // The core arms the watchdog at dispatch (not while queued:
            // waiting behind a long co-runner is not the kernel's fault).
            deadline_ms: deadline_ms.or(shared.default_deadline_ms),
        };
        let (granted_on, range) =
            match shared
                .arb
                .wait_grant(lease, ready, handle.clone(), hang_token.clone())
            {
                GrantWait::Granted(device, range) => (device, range),
                GrantWait::Crashed { ready_fed } => {
                    deposit(carried, ready_fed);
                    return Ok(());
                }
            };
        if range != SmRange::all(shared.devices[granted_on].num_sms) {
            // Bind the first worker launch onto the granted partition (the
            // raced retreat at worst costs one immediate relaunch).
            handle.resize(range);
        }
        let out = dispatcher.run();
        if shared.arb.crashed() {
            // The eviction that ended this run was the crash's blanket
            // eviction, not a scheduling decision: park at the carried
            // progress.
            deposit(out.blocks, true);
            return Ok(());
        }
        // A migration target must be read before KernelFinished lands:
        // that feed completes the migration and flips the lease's route.
        let migrated = out.evicted && shared.arb.migration_target(lease).is_some();
        if !out.evicted {
            // Durable point of no return: once `LaunchDone` is on disk the
            // launch will never re-execute, even if the completion feed
            // below loses the race against a crash.
            if let Some(d) = &shared.durability {
                d.append_meta(&WalRecord::LaunchDone { session, launch_id });
            }
        }
        let fed = shared.arb.finish(lease, !out.evicted);
        if !fed {
            // Crash landed between the run and its completion feed: the
            // adoption re-run resumes at full progress and drains zero
            // blocks, closing the launch in the recovered core.
            deposit(out.blocks, true);
            return Ok(());
        }
        if migrated {
            carried = out.blocks;
            continue;
        }
        break (out, granted_on);
    };
    *shared.launches.lock() += 1;
    if out.evicted {
        // An eviction with no migration target means the run is over. If
        // the device it ran on dropped out of service (and the fleet had
        // nowhere to evacuate it), report the lost device rather than a
        // watchdog timeout so clients retry against a healed fleet.
        if shared.arb.device_health(ran_on).out_of_service() {
            return Err(SlateError::DeviceLost {
                device: ran_on as u64,
            }
            .to_wire());
        }
        return Err(SlateError::Timeout {
            elapsed_ms: started.elapsed().as_millis() as u64,
        }
        .to_wire());
    }
    debug_assert!(out.blocks == grid_blocks);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SlateClient;
    use slate_gpu_sim::perf::KernelPerf;
    use slate_kernels::grid::{BlockCoord, GridDim};
    use slate_kernels::kernel::GpuKernel;

    /// out[i] = in[i] * 2 over a 1-D grid of 128-wide blocks.
    struct Double {
        n: usize,
        input: Arc<GpuBuffer>,
        out: Arc<GpuBuffer>,
    }
    impl GpuKernel for Double {
        fn name(&self) -> &str {
            "double"
        }
        fn grid(&self) -> GridDim {
            GridDim::d1((self.n as u32).div_ceil(128).max(1))
        }
        fn perf(&self) -> KernelPerf {
            KernelPerf::synthetic("double", 500.0, 1024.0)
        }
        fn run_block(&self, b: BlockCoord) {
            let lo = b.x as usize * 128;
            for i in lo..(lo + 128).min(self.n) {
                self.out.store_f32(i, self.input.load_f32(i) * 2.0);
            }
        }
    }

    #[test]
    fn end_to_end_malloc_copy_launch_sync_readback() {
        let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 24);
        let client = SlateClient::new(daemon.connect("tester").unwrap());
        let n = 1000usize;
        let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let in_ptr = client.malloc((n * 4) as u64).unwrap();
        let out_ptr = client.malloc((n * 4) as u64).unwrap();
        let bytes: Vec<u8> = input.iter().flat_map(|f| f.to_le_bytes()).collect();
        client.memcpy_h2d(in_ptr, 0, bytes.into()).unwrap();
        client
            .launch_with(
                vec![in_ptr, out_ptr],
                10,
                None,
                move |bufs| -> Arc<dyn GpuKernel> {
                    Arc::new(Double {
                        n,
                        input: bufs[0].clone(),
                        out: bufs[1].clone(),
                    })
                },
            )
            .unwrap();
        client.synchronize().unwrap();
        let back = client.memcpy_d2h(out_ptr, 0, n * 4).unwrap();
        for i in 0..n {
            let v = f32::from_le_bytes(back[i * 4..i * 4 + 4].try_into().unwrap());
            assert_eq!(v, i as f32 * 2.0, "element {i}");
        }
        client.free(in_ptr).unwrap();
        client.free(out_ptr).unwrap();
        assert_eq!(daemon.metrics().live_allocations, 0);
        assert_eq!(daemon.metrics().launches_served, 1);
        client.disconnect().unwrap();
        daemon.join();
    }

    #[test]
    fn streams_execute_concurrently_and_sync_fences_all() {
        let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 24);
        let client = SlateClient::new(daemon.connect("streamer").unwrap());
        let n = 4_000usize;
        // Four streams, each doubling its own buffer; plus the default
        // stream touching a fifth buffer.
        let mut ptrs = Vec::new();
        for s in 0..5u32 {
            let p = client.malloc((n * 4) as u64).unwrap();
            let init: Vec<f32> = (0..n).map(|i| (i + s as usize) as f32).collect();
            client.upload_f32(p, &init).unwrap();
            ptrs.push(p);
        }
        for (s, &p) in ptrs.iter().enumerate() {
            let launch = move |bufs: Vec<Arc<GpuBuffer>>| -> Arc<dyn GpuKernel> {
                Arc::new(Double {
                    n,
                    input: bufs[0].clone(),
                    out: bufs[0].clone(),
                })
            };
            if s == 0 {
                client.launch_with(vec![p], 10, None, launch).unwrap();
            } else {
                client
                    .launch_on_stream(s as u32, vec![p], 10, launch)
                    .unwrap();
            }
        }
        client.synchronize().unwrap();
        for (s, &p) in ptrs.iter().enumerate() {
            let out = client.download_f32(p, n).unwrap();
            for i in (0..n).step_by(397) {
                assert_eq!(out[i], 2.0 * (i + s) as f32, "stream {s} element {i}");
            }
        }
        assert_eq!(daemon.metrics().launches_served, 5);
        client.disconnect().unwrap();
        daemon.join();
    }

    #[test]
    fn same_stream_launches_are_ordered() {
        // Two doublings on one stream: must observe x4, proving in-order
        // execution within a stream.
        let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 22);
        let client = SlateClient::new(daemon.connect("ordered").unwrap());
        let n = 2_000usize;
        let p = client.malloc((n * 4) as u64).unwrap();
        client.upload_f32(p, &vec![1.0f32; n]).unwrap();
        for _ in 0..2 {
            client
                .launch_on_stream(3, vec![p], 10, move |bufs| -> Arc<dyn GpuKernel> {
                    Arc::new(Double {
                        n,
                        input: bufs[0].clone(),
                        out: bufs[0].clone(),
                    })
                })
                .unwrap();
        }
        client.synchronize().unwrap();
        let out = client.download_f32(p, n).unwrap();
        assert!(out.iter().step_by(101).all(|&v| v == 4.0));
        client.disconnect().unwrap();
        daemon.join();
    }

    #[test]
    fn stream_launch_error_surfaces_at_sync() {
        let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
        let client = SlateClient::new(daemon.connect("oops").unwrap());
        let good = client.malloc(1024).unwrap();
        // Bad pointer on a non-zero stream: prepare fails synchronously in
        // the session, so the error is queued ahead of the sync Ok.
        client
            .launch_on_stream(
                7,
                vec![SlatePtr(0xbad)],
                10,
                move |bufs| -> Arc<dyn GpuKernel> {
                    Arc::new(Double {
                        n: 16,
                        input: bufs[0].clone(),
                        out: bufs[0].clone(),
                    })
                },
            )
            .unwrap();
        assert!(client.synchronize().is_err());
        // Session remains healthy.
        client.upload_f32(good, &[9.0]).unwrap();
        assert_eq!(client.download_f32(good, 1).unwrap(), vec![9.0]);
        client.disconnect().unwrap();
        daemon.join();
    }

    #[test]
    fn invalid_pointer_is_rejected() {
        let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
        let client = SlateClient::new(daemon.connect("tester").unwrap());
        assert!(client.memcpy_d2h(SlatePtr(0xdead), 0, 4).is_err());
        assert!(client.free(SlatePtr(0xdead)).is_err());
        client.disconnect().unwrap();
        daemon.join();
    }

    #[test]
    fn sessions_are_isolated() {
        let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
        let a = SlateClient::new(daemon.connect("alice").unwrap());
        let b = SlateClient::new(daemon.connect("bob").unwrap());
        let pa = a.malloc(64).unwrap();
        // Bob cannot touch Alice's allocation handle.
        assert!(b.memcpy_d2h(pa, 0, 4).is_err());
        a.disconnect().unwrap();
        b.disconnect().unwrap();
        daemon.join();
    }

    #[test]
    fn dropped_client_reclaims_allocations() {
        // No Disconnect: the client's process "dies"; the session thread
        // must still reclaim its device memory.
        let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
        {
            let client = SlateClient::new(daemon.connect("vanishing").unwrap());
            let _a = client.malloc(256).unwrap();
            let _b = client.malloc(256).unwrap();
            assert_eq!(daemon.metrics().live_allocations, 2);
            drop(client); // Connection dropped, no Disconnect request
        }
        daemon.join();
        assert_eq!(daemon.metrics().live_allocations, 0);
    }

    #[test]
    fn profile_table_survives_daemon_restarts() {
        let dir = std::env::temp_dir().join("slate-daemon-profiles");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profiles.json");
        let n = 2_000usize;
        let run_once = |profiles| {
            let daemon = SlateDaemon::start_with_profiles(DeviceConfig::tiny(4), 1 << 22, profiles);
            let client = SlateClient::new(daemon.connect("persist").unwrap());
            let input = client.malloc((n * 4) as u64).unwrap();
            let out = client.malloc((n * 4) as u64).unwrap();
            client
                .launch_with(vec![input, out], 10, None, move |bufs| {
                    Arc::new(Double {
                        n,
                        input: bufs[0].clone(),
                        out: bufs[1].clone(),
                    }) as Arc<dyn GpuKernel>
                })
                .unwrap();
            client.synchronize().unwrap();
            client.disconnect().unwrap();
            daemon.join();
            daemon.profiles()
        };
        let table = run_once(crate::profile::ProfileTable::new());
        assert_eq!(table.len(), 1);
        table.save(&path).unwrap();
        // Second daemon run: seeded table, kernel is already profiled.
        let reloaded = crate::profile::ProfileTable::load(&path).unwrap();
        assert!(reloaded.get("double").is_some());
        let table2 = run_once(reloaded);
        assert_eq!(table2.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disconnect_frees_leaked_allocations() {
        let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
        let client = SlateClient::new(daemon.connect("leaky").unwrap());
        let _p1 = client.malloc(512).unwrap();
        let _p2 = client.malloc(512).unwrap();
        assert_eq!(daemon.metrics().live_allocations, 2);
        client.disconnect().unwrap();
        daemon.join();
        assert_eq!(daemon.metrics().live_allocations, 0);
    }

    fn double_factory(n: usize) -> impl FnOnce(Vec<Arc<GpuBuffer>>) -> Arc<dyn GpuKernel> {
        move |bufs| {
            Arc::new(Double {
                n,
                input: bufs[0].clone(),
                out: bufs[0].clone(),
            }) as Arc<dyn GpuKernel>
        }
    }

    #[test]
    fn watchdog_evicts_hung_kernel_and_surfaces_timeout() {
        let daemon = SlateDaemon::start_with_options(
            DeviceConfig::tiny(4),
            1 << 22,
            crate::daemon::DaemonOptions {
                fault_plan: slate_gpu_sim::fault::FaultPlan::new().hang_kernel("double", 1),
                ..Default::default()
            },
        );
        let client = SlateClient::new(daemon.connect("hangs").unwrap());
        let n = 2_000usize;
        let p = client.malloc((n * 4) as u64).unwrap();
        client.upload_f32(p, &vec![1.0f32; n]).unwrap();
        client
            .launch_with_deadline(vec![p], 10, 50, double_factory(n))
            .unwrap();
        let err = client.synchronize().unwrap_err();
        assert!(
            matches!(err, SlateError::Timeout { elapsed_ms } if elapsed_ms >= 40),
            "expected watchdog timeout, got {err}"
        );
        assert_eq!(daemon.metrics().watchdog_evictions, 1);
        assert_eq!(daemon.metrics().arbiter_residents, 0, "SM range reclaimed");
        // The session stays healthy: the hang rule fired, a relaunch runs.
        client
            .launch_with_deadline(vec![p], 10, 5_000, double_factory(n))
            .unwrap();
        client.synchronize().unwrap();
        assert_eq!(client.download_f32(p, 1).unwrap(), vec![2.0]);
        client.disconnect().unwrap();
        daemon.join();
    }

    #[test]
    fn injected_launch_fault_is_structured() {
        let daemon = SlateDaemon::start_with_options(
            DeviceConfig::tiny(2),
            1 << 20,
            crate::daemon::DaemonOptions {
                fault_plan: slate_gpu_sim::fault::FaultPlan::new().fault_launch("double", 1),
                ..Default::default()
            },
        );
        let client = SlateClient::new(daemon.connect("faulty").unwrap());
        let p = client.malloc(1024).unwrap();
        client
            .launch_with(vec![p], 10, None, double_factory(16))
            .unwrap();
        let err = client.synchronize().unwrap_err();
        assert!(matches!(err, SlateError::KernelFault(_)), "{err}");
        assert_eq!(daemon.metrics().faults_fired, 1);
        client.disconnect().unwrap();
        daemon.join();
    }

    #[test]
    fn sync_reports_first_error_and_counts_the_rest() {
        let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
        let client = SlateClient::new(daemon.connect("multi-oops").unwrap());
        // Two bad launches; prepare fails in request order on the session
        // thread, so the replies are ordered too.
        for bad in [0xbad1u64, 0xbad2] {
            client
                .launch_on_stream(5, vec![SlatePtr(bad)], 10, double_factory(16))
                .unwrap();
        }
        let err = client.synchronize().unwrap_err();
        assert_eq!(
            err,
            SlateError::InvalidPointer { ptr: 0xbad1 },
            "first error wins"
        );
        assert_eq!(client.last_sync_failures(), 2);
        // A clean sync resets the count.
        client.synchronize().unwrap();
        assert_eq!(client.last_sync_failures(), 0);
        client.disconnect().unwrap();
        daemon.join();
    }

    #[test]
    fn injected_channel_drop_reaps_the_session() {
        let daemon = SlateDaemon::start_with_options(
            DeviceConfig::tiny(2),
            1 << 20,
            crate::daemon::DaemonOptions {
                fault_plan: slate_gpu_sim::fault::FaultPlan::new().drop_channel(2),
                ..Default::default()
            },
        );
        let client = SlateClient::new(daemon.connect("doomed").unwrap());
        let _p = client.malloc(256).unwrap();
        assert_eq!(daemon.metrics().live_allocations, 1);
        // Second request hits the injected drop: the daemon severs the
        // channel as if the process died.
        let err = client.malloc(256).unwrap_err();
        assert_eq!(err, SlateError::Disconnected);
        daemon.join();
        assert_eq!(daemon.metrics().live_allocations, 0, "allocations reaped");
        assert_eq!(daemon.metrics().reaped_sessions, 1);
    }

    #[test]
    fn dropped_client_counts_as_reaped() {
        let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
        drop(SlateClient::new(daemon.connect("ghost").unwrap()));
        daemon.join();
        assert_eq!(daemon.metrics().reaped_sessions, 1);
        // A clean disconnect is not a reap.
        let c = SlateClient::new(daemon.connect("polite").unwrap());
        c.disconnect().unwrap();
        daemon.join();
        assert_eq!(daemon.metrics().reaped_sessions, 1);
    }

    #[test]
    fn injected_memcpy_stall_delays_the_copy() {
        let daemon = SlateDaemon::start_with_options(
            DeviceConfig::tiny(2),
            1 << 20,
            crate::daemon::DaemonOptions {
                fault_plan: slate_gpu_sim::fault::FaultPlan::new().stall_memcpy(1, 40),
                ..Default::default()
            },
        );
        let client = SlateClient::new(daemon.connect("stalled").unwrap());
        let p = client.malloc(64).unwrap();
        let t0 = Instant::now();
        client.upload_f32(p, &[1.0, 2.0]).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "stall was injected: {:?}",
            t0.elapsed()
        );
        // Copies still land correctly after the stall.
        assert_eq!(client.download_f32(p, 2).unwrap(), vec![1.0, 2.0]);
        client.disconnect().unwrap();
        daemon.join();
    }

    #[test]
    fn shutdown_refuses_new_connections_and_drains() {
        let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
        let client = SlateClient::new(daemon.connect("last-tenant").unwrap());
        assert!(!daemon.is_shutting_down());
        let d2 = daemon.clone();
        let drainer = std::thread::spawn(move || d2.shutdown(Duration::from_secs(5)));
        // Existing sessions keep being served during the drain.
        while !daemon.is_shutting_down() {
            std::thread::yield_now();
        }
        let p = client.malloc(64).unwrap();
        client.upload_f32(p, &[3.0]).unwrap();
        match daemon.connect("too-late") {
            Err(SlateError::ShuttingDown) => {}
            Err(e) => panic!("expected ShuttingDown, got {e}"),
            Ok(_) => panic!("connect must be refused during shutdown"),
        }
        client.disconnect().unwrap();
        assert!(drainer.join().unwrap(), "drain completed");
        daemon.join();
        assert_eq!(daemon.metrics().live_allocations, 0);
    }

    #[test]
    fn shutdown_drain_deadline_expires_with_sessions_left() {
        let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
        let client = SlateClient::new(daemon.connect("lingerer").unwrap());
        // The client never disconnects within the deadline.
        assert!(!daemon.shutdown(Duration::from_millis(30)));
        // The drain keeps progressing afterwards.
        client.disconnect().unwrap();
        daemon.join();
    }

    #[test]
    fn nothing_fed_after_a_crash_reaches_the_core_or_the_wal() {
        let dir = std::env::temp_dir().join(format!("slate-daemon-unfed-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let daemon = SlateDaemon::start_with_options(
            DeviceConfig::tiny(2),
            1 << 20,
            DaemonOptions {
                record_arbiter: true,
                durability: Some(DurabilityOptions {
                    dir: dir.clone(),
                    snapshot_every: 8,
                    keep_all: true,
                }),
                ..Default::default()
            },
        );
        let client = SlateClient::new(daemon.connect("doomed").unwrap());
        client.malloc(64).unwrap();
        let _scene = daemon.crash();
        let arb = &daemon.shared.arb;
        // (recorded batches, every WAL/snapshot file's bytes)
        let state = || {
            let inner = arb.inner.lock();
            let batches = inner.layer.log_snapshot().expect("recording").batches.len();
            let files: BTreeMap<_, _> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .map(|f| (f.clone(), std::fs::read(f).unwrap()))
                .collect();
            (batches, files)
        };
        let before = state();
        assert!(before.0 >= 2, "the session and its malloc were fed");
        arb.feed(&[ArbEvent::DrainBegan]);
        arb.tick();
        let unfed = arb.submit(
            &[ArbEvent::SessionOpened { session: 99 }],
            Some(99),
            Some(WalRecord::SessionClosed { session: 99 }),
        );
        assert_eq!(unfed, (false, None));
        assert_eq!(state(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_device_daemon_routes_sessions_and_records_placement() {
        let daemon = SlateDaemon::start_with_options(
            DeviceConfig::tiny(4),
            1 << 22,
            DaemonOptions {
                devices: vec![DeviceConfig::tiny(4), DeviceConfig::tiny(4)],
                record_arbiter: true,
                ..Default::default()
            },
        );
        let n = 2_000usize;
        let clients: Vec<_> = (0..2)
            .map(|i| SlateClient::new(daemon.connect(&format!("tenant-{i}")).unwrap()))
            .collect();
        for client in &clients {
            let p = client.malloc((n * 4) as u64).unwrap();
            client.upload_f32(p, &vec![1.0f32; n]).unwrap();
            client
                .launch_with(vec![p], 10, None, double_factory(n))
                .unwrap();
            client.synchronize().unwrap();
            assert_eq!(client.download_f32(p, 1).unwrap(), vec![2.0]);
        }
        let stats = daemon.metrics().placement;
        assert_eq!(stats.devices, 2);
        assert_eq!(stats.sessions_routed, 2, "both sessions were routed");
        for client in clients {
            client.disconnect().unwrap();
        }
        daemon.join();
        // The recorded placement log verifies and splits into per-device
        // logs; round-robin put one session (and its dispatch) on each.
        let log = daemon.placement_log().expect("recording was enabled");
        crate::placement::replay::verify(&log).expect("placement log replays identically");
        let cores = crate::placement::replay::split(&log).expect("log splits per device");
        assert_eq!(cores.len(), 2);
        for (d, core_log) in cores.iter().enumerate() {
            assert!(
                core_log.batches.iter().any(|b| b
                    .commands
                    .iter()
                    .any(|c| matches!(c, Command::Dispatch { .. }))),
                "device {d} dispatched its session's kernel"
            );
            crate::arbiter::replay::verify(core_log)
                .unwrap_or_else(|e| panic!("per-device log {d} replays: {e}"));
        }
    }

    /// `Double` with a per-block stall, slow enough for the heartbeat-fed
    /// rebalancer to migrate it mid-run.
    struct SlowDouble {
        n: usize,
        buf: Arc<GpuBuffer>,
    }
    impl GpuKernel for SlowDouble {
        fn name(&self) -> &str {
            "slow-double"
        }
        fn grid(&self) -> GridDim {
            GridDim::d1((self.n as u32).div_ceil(64).max(1))
        }
        fn perf(&self) -> KernelPerf {
            KernelPerf::synthetic("slow-double", 500.0, 1024.0)
        }
        fn run_block(&self, b: BlockCoord) {
            std::thread::sleep(Duration::from_micros(500));
            let lo = b.x as usize * 64;
            for i in lo..(lo + 64).min(self.n) {
                self.buf.store_f32(i, self.buf.load_f32(i) * 2.0);
            }
        }
    }

    #[test]
    fn multi_device_rebalance_migrates_a_running_kernel_exactly_once() {
        // Both sessions pinned to device 0; device 1 idle. The weighted
        // imbalance crosses the threshold as soon as both kernels are
        // pending, the heartbeat fires a migration, and the victim resumes
        // on device 1 from its carried progress. Every element must read
        // exactly 2.0 afterwards: a re-executed block would leave 4.0.
        let daemon = SlateDaemon::start_with_options(
            DeviceConfig::tiny(4),
            1 << 24,
            DaemonOptions {
                devices: vec![DeviceConfig::tiny(4), DeviceConfig::tiny(4)],
                placement: PlacementPolicy::Affinity {
                    pins: [(1u64, 0usize), (2, 0)].into_iter().collect(),
                },
                rebalance: Some(RebalanceConfig {
                    high_ms: 15,
                    low_ms: 5,
                    cooldown_us: 0,
                    seed: 9,
                }),
                ..Default::default()
            },
        );
        let n = 4_096usize;
        let clients: Vec<_> = (0..2)
            .map(|i| SlateClient::new(daemon.connect(&format!("pinned-{i}")).unwrap()))
            .collect();
        let ptrs: Vec<_> = clients
            .iter()
            .map(|c| {
                let p = c.malloc((n * 4) as u64).unwrap();
                c.upload_f32(p, &vec![1.0f32; n]).unwrap();
                c.launch_with(vec![p], 4, None, move |bufs| {
                    Arc::new(SlowDouble {
                        n,
                        buf: bufs[0].clone(),
                    }) as Arc<dyn GpuKernel>
                })
                .unwrap();
                p
            })
            .collect();
        for (client, &p) in clients.iter().zip(&ptrs) {
            client.synchronize().unwrap();
            let out = client.download_f32(p, n).unwrap();
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, 2.0, "element {i}: every block exactly once");
            }
        }
        let stats = daemon.metrics().placement;
        assert_eq!(stats.rebalances, 1, "the imbalance fired one migration");
        assert_eq!(stats.migrations_completed, 1);
        for client in clients {
            client.disconnect().unwrap();
        }
        daemon.join();
    }

    #[test]
    fn multi_device_daemon_evacuates_a_failed_device_mid_run() {
        // One session pinned to device 0, running a kernel slow enough to
        // still be on-device when the operator fails its domain. The
        // evacuation must move the running lease to device 1 and resume it
        // from carried progress: every element reads exactly 2.0 afterwards
        // (a lost block would leave 1.0, a re-run block 4.0).
        let daemon = SlateDaemon::start_with_options(
            DeviceConfig::tiny(4),
            1 << 24,
            DaemonOptions {
                devices: vec![DeviceConfig::tiny(4), DeviceConfig::tiny(4)],
                placement: PlacementPolicy::Affinity {
                    pins: [(1u64, 0usize)].into_iter().collect(),
                },
                ..Default::default()
            },
        );
        let n = 16_384usize;
        let client = SlateClient::new(daemon.connect("doomed-domain").unwrap());
        let p = client.malloc((n * 4) as u64).unwrap();
        client.upload_f32(p, &vec![1.0f32; n]).unwrap();
        client
            .launch_with(vec![p], 4, None, move |bufs| {
                Arc::new(SlowDouble {
                    n,
                    buf: bufs[0].clone(),
                }) as Arc<dyn GpuKernel>
            })
            .unwrap();
        // Let the kernel get granted and run some blocks on device 0
        // (the full grid needs tens of milliseconds), then pull the
        // device out from under it.
        std::thread::sleep(Duration::from_millis(10));
        daemon.fail_device(0);
        assert_eq!(daemon.device_health(0), HealthState::Failed);
        client.synchronize().unwrap();
        let out = client.download_f32(p, n).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 2.0, "element {i}: evacuated exactly once, not lost");
        }
        let stats = daemon.metrics().placement;
        assert!(stats.evacuations >= 1, "the failure evacuated its leases");
        assert!(stats.migrations_completed >= 1);
        assert_eq!(stats.devices_out, 1);
        // Recovery is gated: the returning device sits out probation
        // before it can take traffic again.
        daemon.recover_device(0);
        assert!(
            matches!(daemon.device_health(0), HealthState::Probation { .. }),
            "a recovered device is on probation, not immediately healthy"
        );
        client.disconnect().unwrap();
        daemon.join();
    }

    #[test]
    fn recorded_daemon_run_replays_identically() {
        let daemon = SlateDaemon::start_with_options(
            DeviceConfig::tiny(4),
            1 << 22,
            DaemonOptions {
                record_arbiter: true,
                ..Default::default()
            },
        );
        let client = SlateClient::new(daemon.connect("recorded").unwrap());
        let n = 2_000usize;
        let p = client.malloc((n * 4) as u64).unwrap();
        client.upload_f32(p, &vec![1.0f32; n]).unwrap();
        for _ in 0..2 {
            client
                .launch_with(vec![p], 10, None, double_factory(n))
                .unwrap();
        }
        client.synchronize().unwrap();
        client.disconnect().unwrap();
        daemon.join();
        assert_eq!(daemon.metrics().lock_recoveries, 0, "healthy run");
        let log = daemon.arbiter_log().expect("recording was enabled");
        assert!(
            log.batches.iter().any(|b| b
                .commands
                .iter()
                .any(|c| matches!(c, Command::Dispatch { .. }))),
            "the log must contain real dispatches"
        );
        crate::arbiter::replay::verify(&log).expect("daemon log replays identically");
    }
}
