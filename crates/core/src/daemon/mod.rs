//! The Slate daemon (paper §IV-A2, §IV-B).
//!
//! The daemon is the server half of Slate's client–server architecture: it
//! funnels every client's operations into one device context, which is what
//! makes cross-process co-running possible at all. Per client it keeps a
//! *session*, served by its own thread (parked and reused between
//! sessions), holding the hash table that maps the client's opaque
//! pointers to device allocations.
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
//! clock, and the returned [`Command`](crate::arbiter::Command)s are
//! carried out against dispatch handles, the memory pool, and client
//! replies. With [`DaemonOptions::record_arbiter`] set, every fed batch is
//! recorded; the resulting [`PlacementLog`] replays to the byte-identical
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
//! routed by [`DaemonOptions::placement`] and stick to their device. A
//! lease changes device only when its device leaves service: evacuation
//! moves each of its kernels by an ordinary eviction on the source device
//! followed by a resumed dispatch on the target at the carried `slateIdx`
//! progress, so no user block executes twice. [`DaemonMetrics::placement`]
//! counts routed sessions, evacuations and landed moves; a recorded
//! multi-device run yields a [`PlacementLog`] that splits into ordinary
//! per-device [`EventLog`](crate::arbiter::EventLog)s.
//!
//! # Fault tolerance
//!
//! Because every client shares one device context, the daemon contains
//! failures instead of letting them spread to co-runners:
//!
//! * **session reaping** — a client that vanishes without `Disconnect`
//!   (its channel sender drops) is detected by its session thread, which
//!   frees the session's allocations, releases any arbiter residency and
//!   lets the surviving co-runner regrow to the full device — exactly the
//!   `Disconnect` path;
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
//!   `crate::sync::Mutex`, which recovers a lock some thread panicked
//!   under instead of cascading the panic;
//!   [`DaemonMetrics::lock_recoveries`] counts the recoveries.
//!
//! # Overload protection
//!
//! * **admission control** — [`DaemonOptions::admission`] bounds
//!   concurrent sessions, pending launches (per session and per device)
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

mod arb;
mod exec;
mod recovery;
mod session;

pub use recovery::{CrashScene, ResumeToken};

use crate::admission::{AdmissionLimits, DaemonMetrics};
use crate::arbiter::{ArbiterConfig, Event as ArbEvent};
use crate::channel::{Request, Response};
use crate::durability::{Durability, DurabilityOptions, DurableMeta, WalIssue, WalRecord};
use crate::error::SlateError;
use crate::injector::InjectionCache;
use crate::placement::replay::PlacementLog;
use crate::placement::{HealthState, PlacementConfig, PlacementLayer, PlacementPolicy};
use crate::profile::ProfileTable;
use crate::sync::{Condvar, Mutex};
use arb::ArbFrontend;
use crossbeam::channel::{Receiver, Sender};
use slate_gpu_sim::buffer::DeviceMemoryPool;
use slate_gpu_sim::device::DeviceConfig;
use slate_gpu_sim::fault::FaultPlan;
use slate_kernels::workload::SloClass;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Shared daemon state.
struct DaemonShared {
    /// The device fleet, in placement-layer index order. Kernel profiling
    /// and the injected-source pipeline are calibrated against the
    /// primary device, `devices[0]`.
    devices: Vec<DeviceConfig>,
    pool: Mutex<DeviceMemoryPool>,
    injector: Mutex<InjectionCache>,
    profiles: Mutex<ProfileTable>,
    /// Driver of the shared arbitration core, and holder of the
    /// write-ahead log + snapshot sink of a durable daemon.
    arb: ArbFrontend,
    /// Launches drained to completion: a statistic that publishes no
    /// other data, so every access is `Relaxed`.
    launches: AtomicU64,
    /// Scripted fault schedule (empty outside fault-injection tests).
    faults: Mutex<FaultPlan>,
    /// Deadline applied to launches that don't carry their own.
    default_deadline_ms: Option<u64>,
    /// Raised by [`SlateDaemon::shutdown`]; refuses new connections.
    shutting_down: AtomicBool,
    /// Live session count + condvar for the shutdown drain.
    active_sessions: Mutex<usize>,
    session_drained: Condvar,
    /// Launches parked by their executing threads when a crash cut them
    /// off; drained into the [`CrashScene`] after session threads joined.
    crash_inflight: Mutex<Vec<exec::Launch>>,
    /// A recovered daemon's per-session adoption state, by session id.
    recovery: Mutex<BTreeMap<u64, recovery::Recovered>>,
}

impl DaemonShared {
    /// Appends a session-metadata record to the WAL of a durable daemon.
    fn wal(&self, record: WalRecord) {
        if let Some(d) = &self.arb.durability {
            d.append_meta(&record);
        }
    }
}

/// Construction-time daemon configuration beyond device geometry. The
/// default is one device, in memory, admitting everything, watching
/// nothing. The per-device health windows (quarantine, probation) are
/// constants of `crate::placement::health`, not options.
#[derive(Default)]
pub struct DaemonOptions {
    /// Kernel profile table seeded from a previous run (the paper's daemon
    /// "records kernel profiles obtained from its previous runs").
    pub profiles: ProfileTable,
    /// Deterministic fault schedule (for tests; empty injects nothing).
    pub fault_plan: FaultPlan,
    /// Watchdog deadline, in milliseconds, for launches that don't set
    /// their own. `None` leaves unmarked launches unwatched.
    pub default_deadline_ms: Option<u64>,
    /// Admission limits (sessions, pending launches, memory watermark).
    /// The default admits everything — admission control is opt-in. On a
    /// fleet every device's core enforces them on its own sessions.
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
    /// Record every arbitration event batch; [`SlateDaemon::placement_log`]
    /// returns the [`PlacementLog`], which replays to the identical routed
    /// command sequence and [`split`](crate::placement::replay::split)s
    /// into per-device [`EventLog`](crate::arbiter::EventLog)s. Export it
    /// as a Perfetto trace with `std::fs::write(path, trace_log(&log)?.to_json())`
    /// ([`trace_log`](crate::trace::export::trace_log)).
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
    /// Crash consistency: with a [`DurabilityOptions`] set, every
    /// placement batch and session mutation is written ahead to a
    /// checksummed WAL under its directory, snapshotted every
    /// [`DurabilityOptions::snapshot_every`] batches, and
    /// [`SlateDaemon::recover`] can rebuild the daemon after a kill.
    /// `None` (the default) keeps the daemon fully in-memory.
    pub durability: Option<DurabilityOptions>,
}

/// A running Slate daemon. Dropping the handle after every client
/// disconnected shuts the daemon down.
pub struct SlateDaemon {
    shared: Arc<DaemonShared>,
    next_session: Mutex<u64>,
    /// Session threads between sessions.
    pool: Arc<session::SessionPool>,
    /// What recovery found wrong with the log this incarnation was
    /// rebuilt from ([`SlateDaemon::recovery_issues`]).
    recovery_issues: Vec<(u64, WalIssue)>,
}

impl Drop for SlateDaemon {
    /// Parked session threads leave at once; the heartbeat follows when
    /// the last session lets go of the shared state.
    fn drop(&mut self) {
        self.pool.close();
    }
}

/// Client-side connection to the daemon — the transport `api::SlateClient`
/// wraps.
pub struct Connection {
    /// Session id assigned by the daemon.
    pub(crate) session: u64,
    /// Recovery epoch of the daemon incarnation that minted this
    /// connection (0 for a non-durable daemon). Carried into
    /// [`ResumeToken`]s so resumption is only honoured across a restart.
    pub(crate) epoch: u64,
    /// Smallest launch id a client of this connection may assign: 0 for a
    /// fresh session; one past the highest id the WAL has seen for a
    /// resumed one, so a client built fresh over a resumed connection
    /// never collides with (and gets silently deduplicated against) its
    /// predecessor's ids.
    pub(crate) launch_floor: u64,
    /// Command pipe, client-to-daemon.
    pub(crate) tx: Sender<Request>,
    /// Response pipe, daemon-to-client.
    pub(crate) rx: Receiver<Response>,
    /// The completion watermark, in memory the client shares with its
    /// session: how many of this connection's launches ran to completion
    /// (or, resubmitted, were acknowledged as already done). The session
    /// and its stream lanes bump it with `Release` once a launch's
    /// `LaunchDone` is logged and its `KernelFinished` fed; a failed,
    /// shed, evicted, parked or adopted launch never does. The client
    /// reads it with `Acquire` and skips the `Sync` round trip when it
    /// covers every launch sent since the last fence (DESIGN.md §17).
    pub(crate) done: Arc<AtomicU64>,
    /// A resumed session: its first fence is always sent, since errors of
    /// the launches the recovered daemon adopted surface only there.
    pub(crate) resumed: bool,
}

impl SlateDaemon {
    /// Starts a daemon managing a functional device of `cfg` geometry with
    /// `mem_capacity` bytes of device memory.
    pub fn start(cfg: DeviceConfig, mem_capacity: u64) -> Arc<Self> {
        Self::start_with_options(cfg, mem_capacity, DaemonOptions::default())
    }

    /// Starts a daemon with full [`DaemonOptions`] — profile seeding, a
    /// fault-injection plan, and the default watchdog deadline.
    pub fn start_with_options(
        cfg: DeviceConfig,
        mem_capacity: u64,
        mut options: DaemonOptions,
    ) -> Arc<Self> {
        let devices = if options.devices.is_empty() {
            vec![cfg]
        } else {
            options.devices.clone()
        };
        let layer = PlacementLayer::new(
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
            },
        );
        // The genesis anchor (snapshot 0 of segment 0) captures the
        // pristine fleet, so the full WAL replays from a fresh layer.
        let durability = options.durability.take().map(|opts| {
            Durability::start(opts, 0, 0, &layer.snapshot(), DurableMeta::default())
                .expect("initialize durability directory")
        });
        let pool = DeviceMemoryPool::new(mem_capacity);
        Self::boot(devices, layer, 0, durability, pool, options, Vec::new())
    }

    /// Brings up a daemon incarnation over `layer` — pristine at a first
    /// start, rebuilt from the log by [`SlateDaemon::recover`] — with its
    /// logical clock at `base_us`. `options` contributes what both share:
    /// profiles, fault plan, default deadline and recording.
    fn boot(
        devices: Vec<DeviceConfig>,
        mut layer: PlacementLayer,
        base_us: u64,
        durability: Option<Arc<Durability>>,
        pool: DeviceMemoryPool,
        options: DaemonOptions,
        recovery_issues: Vec<(u64, WalIssue)>,
    ) -> Arc<Self> {
        if options.record_arbiter {
            layer.start_recording();
        }
        let shared = Arc::new(DaemonShared {
            devices,
            pool: Mutex::new(pool),
            injector: Mutex::new(InjectionCache::new()),
            profiles: Mutex::new(options.profiles),
            arb: ArbFrontend::new(layer, base_us, durability),
            launches: AtomicU64::new(0),
            faults: Mutex::new(options.fault_plan),
            default_deadline_ms: options.default_deadline_ms,
            shutting_down: AtomicBool::new(false),
            active_sessions: Mutex::new(0),
            session_drained: Condvar::new(),
            crash_inflight: Mutex::new(Vec::new()),
            recovery: Mutex::new(BTreeMap::new()),
        });
        spawn_heartbeat(Arc::downgrade(&shared));
        Arc::new(Self {
            shared,
            next_session: Mutex::new(0),
            pool: Arc::default(),
            recovery_issues,
        })
    }

    /// Snapshot of the kernel profile table (persist it with
    /// [`ProfileTable::save`] and seed a later daemon through
    /// [`DaemonOptions::profiles`]).
    #[cfg(test)]
    pub(crate) fn profiles(&self) -> ProfileTable {
        self.shared.profiles.lock().clone()
    }

    /// Accepts a new client and puts its session on a thread (one per
    /// process until the process disconnects — §IV-A2). Refused with
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
    /// follows the session's work across evacuations.
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
            // it is appended behind the admission batch in the same
            // `write`, under the same hold of the arbiter lock, so a crash
            // keeps the batch whole or neither (and a shed admission
            // records nothing).
            let meta = self
                .shared
                .arb
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
            if !self.shared.arb.submit(&events, session, meta)? {
                return Err(SlateError::ShuttingDown);
            }
        }
        let st = session::SessionState::fresh(session);
        Ok(self.spawn_session(session, user.to_string(), st, None))
    }

    /// The daemon's recovery epoch: 0 at first start, incremented by every
    /// [`SlateDaemon::recover`]. Non-durable daemons are always epoch 0.
    pub fn epoch(&self) -> u64 {
        self.shared.arb.durability.as_ref().map_or(0, |d| d.epoch())
    }

    /// WAL append failures swallowed so far, plus torn tails
    /// [`SlateDaemon::recover`] could not cut (durable daemons only; the
    /// daemon keeps serving on a sick disk, trading durability for
    /// availability, but the count is observable).
    pub fn wal_io_errors(&self) -> u64 {
        self.shared
            .arb
            .durability
            .as_ref()
            .map_or(0, |d| d.io_errors())
    }

    /// The damage [`SlateDaemon::recover`] found in the log it rebuilt
    /// this incarnation from, by segment: a torn tail (truncated before
    /// serving resumed, when it ended the log; a cut that failed counts in
    /// [`SlateDaemon::wal_io_errors`]) or corruption (left on
    /// disk; replay stopped at its offset, so records after it may be
    /// lost). Empty for a fresh daemon and after a clean recovery.
    #[doc(hidden)]
    pub fn recovery_issues(&self) -> &[(u64, WalIssue)] {
        &self.recovery_issues
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
        let mut active = self.shared.active_sessions.lock();
        loop {
            if *active == 0 {
                return true;
            }
            if self
                .shared
                .session_drained
                .wait_until(&mut active, deadline)
                .timed_out()
            {
                return *active == 0;
            }
        }
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
    #[doc(hidden)]
    pub fn fail_device(&self, device: usize) {
        self.shared.arb.feed(&[ArbEvent::DeviceDown {
            device: device as u64,
            hard: true,
        }]);
    }

    /// Declares `device` serviceable again. The device enters a seeded
    /// probation window (it must stay quiet before taking traffic); a
    /// flap during probation sends it back to quarantine.
    #[doc(hidden)]
    pub fn recover_device(&self, device: usize) {
        self.shared.arb.feed(&[ArbEvent::DeviceUp {
            device: device as u64,
        }]);
    }

    /// The placement layer's health verdict for `device`.
    #[doc(hidden)]
    pub fn device_health(&self, device: usize) -> HealthState {
        self.shared.arb.device_health(device)
    }

    /// Takes the recorded multi-device [`PlacementLog`] (present only when
    /// the daemon was started with [`DaemonOptions::record_arbiter`]). It
    /// [`verify`](crate::placement::replay::verify)s against a fresh
    /// replay and [`split`](crate::placement::replay::split)s into
    /// ordinary per-device [`EventLog`](crate::arbiter::EventLog)s.
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
            + sh.faults.recoveries()
            + sh.active_sessions.recoveries()
            + sh.arb.inner.recoveries()
            + self.next_session.recoveries()
            + self.pool.lock_recoveries();
        // The other locks are read first and released: none is ever
        // taken under the arbiter lock.
        let launches_served = sh.launches.load(Ordering::Relaxed);
        let live_allocations = sh.pool.lock().live_allocations();
        let faults_fired = sh.faults.lock().fired();
        let inner = sh.arb.inner.lock();
        let layer = &inner.layer;
        let core = layer.core_stats();
        DaemonMetrics {
            queue: core.queue,
            admission: core.admission,
            launches_served,
            live_allocations,
            arbiter_residents: layer.residents(),
            watchdog_evictions: core.evictions,
            reaped_sessions: core.reaped,
            starvation_promotions: core.promotions,
            slo_preemptions: core.preemptions,
            faults_fired,
            placement: layer.stats(),
            lock_recoveries,
        }
    }

    /// Waits for every session to end (after clients disconnect) — torn
    /// down, counted out and its thread parked again — and for any
    /// still-running adoption pass of a recovered daemon.
    pub fn join(&self) {
        {
            let mut active = self.shared.active_sessions.lock();
            while *active > 0 {
                self.shared.session_drained.wait(&mut active);
            }
        }
        let adoptions: Vec<_> = self
            .shared
            .recovery
            .lock()
            .values_mut()
            .filter_map(|r| r.thread.take())
            .collect();
        for h in adoptions {
            let _ = h.join();
        }
    }
}

/// Spawns the arbiter heartbeat: a daemon-lifetime thread that feeds
/// [`ArbEvent::DeadlineTick`] every millisecond, which is what fires
/// watchdog evictions and starvation promotions, and then, on a durable
/// daemon, syncs the slot the last checkpoint wrote
/// ([`Durability::sync_checkpoint`]) holding neither the arbiter lock nor
/// the log's, so no client waits behind that `fdatasync`. Holds only a
/// weak reference, so it exits once the daemon (and its sessions) are
/// gone.
fn spawn_heartbeat(shared: Weak<DaemonShared>) {
    std::thread::Builder::new()
        .name("slate-heartbeat".to_string())
        .spawn(move || loop {
            std::thread::sleep(Duration::from_millis(1));
            let Some(sh) = shared.upgrade() else {
                break;
            };
            // Like any submitter the tick waits for the arbiter lock;
            // nothing is dropped, a late one just runs scheduling late.
            sh.arb.feed(&[ArbEvent::DeadlineTick]);
            if let Some(d) = &sh.arb.durability {
                d.sync_checkpoint();
            }
        })
        .expect("spawn heartbeat thread");
}

#[cfg(test)]
mod tests;
