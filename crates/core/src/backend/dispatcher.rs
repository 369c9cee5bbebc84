//! [`DispatcherBackend`]: arbiter command execution over real
//! persistent-worker threads, via the dispatch kernel of
//! [`crate::dispatch`].
//!
//! A dispatched lease is a [`Dispatcher`] running on its own thread;
//! resizes and evictions act on its [`DispatchHandle`] exactly as the live
//! [`SlateDaemon`](crate::daemon::SlateDaemon)'s arbiter frontend does.
//! The daemon does not execute through this backend — its kernels run on
//! session and lane threads (`daemon/exec.rs`) — but the two share the
//! [`LeaseTable`] that maps arbiter `Resize`/`Evict` commands onto
//! dispatch handles (including the injected-hang token cancel on
//! eviction).
//!
//! Device health runs on the wall clock: an injected loss, stall or flap
//! ([`Backend::inject_device_fault`]) expires as real time passes. This
//! backend never schedules a fault itself; a seeded schedule is fired by
//! [`ChaosBackend`](super::ChaosBackend).

use super::{Backend, Completion, DeviceFault, DeviceHealth, WorkSpec};
use crate::arbiter::Command;
use crate::dispatch::{DispatchHandle, Dispatcher};
use crate::workers::LanePool;
use crossbeam::channel::{unbounded, Receiver, Sender};
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::fault::FaultToken;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The execution-side state of in-flight dispatches: the handles the
/// arbiter's `Resize`/`Evict` commands act on, plus the injected-hang
/// token to cancel on eviction so cooperatively hung workers actually come
/// back. Shared between the daemon's arbiter frontend and
/// [`DispatcherBackend`] — one interpretation of execution commands
/// against dispatch handles.
///
/// Ordered map by rule: any structure on the command/replay path must
/// iterate deterministically, even if today's accesses are keyed lookups.
/// (Dense-slot rule, `DESIGN.md` §17: decision-path tables inside the
/// arbitration core use interned `IdTable` slots instead — but there,
/// any slot iteration whose order can reach output sorts by external id
/// first. This table is keyed-lookup-only and off the per-event hot
/// path, so the ordered map stays.)
#[derive(Debug, Default)]
pub struct LeaseTable {
    entries: BTreeMap<u64, LeaseEntry>,
}

#[derive(Debug)]
struct LeaseEntry {
    handle: DispatchHandle,
    token: Option<FaultToken>,
}

impl LeaseTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the dispatch handle (and optional hang token) of `lease`.
    pub fn register(&mut self, lease: u64, handle: DispatchHandle, token: Option<FaultToken>) {
        self.entries.insert(lease, LeaseEntry { handle, token });
    }

    /// Drops `lease`'s entry; returns whether it was present.
    pub fn release(&mut self, lease: u64) -> bool {
        self.entries.remove(&lease).is_some()
    }

    /// The registered leases, in ascending order. Crash handling walks
    /// this to evict every in-flight dispatch before the scene capture.
    pub fn leases(&self) -> Vec<u64> {
        self.entries.keys().copied().collect()
    }

    /// Absolute `slateIdx` progress of `lease`, if registered.
    pub fn progress(&self, lease: u64) -> Option<u64> {
        self.entries.get(&lease).map(|e| e.handle.progress())
    }

    /// Carries out an execution command against the registered handle:
    /// `Resize` adjusts the SM range mid-flight, `Evict` stops the
    /// dispatch and cancels any hang token. Returns whether a handle was
    /// found and acted on; every other command is a no-op.
    pub fn apply(&self, cmd: &Command) -> bool {
        match cmd {
            Command::Resize { lease, range } => match self.entries.get(lease) {
                Some(e) => {
                    e.handle.resize(*range);
                    true
                }
                None => false,
            },
            Command::Evict { lease } => match self.entries.get(lease) {
                Some(e) => {
                    e.handle.evict();
                    if let Some(t) = &e.token {
                        t.cancel();
                    }
                    true
                }
                None => false,
            },
            _ => false,
        }
    }
}

/// Per-lease job state.
struct Job {
    /// Staged work, consumed by the dispatch.
    spec: Option<WorkSpec>,
    /// Carried progress of the staging (reported before any pull happens).
    start: u64,
    /// The last commanded SM range, once dispatched.
    range: Option<SmRange>,
    /// The dispatch thread, while running or unjoined.
    thread: Option<JoinHandle<()>>,
    /// Final `(progress, ok)` once the completion was polled.
    finished: Option<(u64, bool)>,
}

/// The persistent-worker execution backend.
pub struct DispatcherBackend {
    device: DeviceConfig,
    jobs: BTreeMap<u64, Job>,
    leases: LeaseTable,
    tx: Sender<Completion>,
    rx: Receiver<Completion>,
    /// Whether the device is lost (hard, or flapping until `down_until`).
    lost: bool,
    /// Flap recovery deadline; `None` while hard-lost.
    down_until: Option<Instant>,
    /// Degraded-probe deadline (the dispatcher runs on wall clock, so a
    /// stall is a wall-clock window during which `health()` reports
    /// [`DeviceHealth::Degraded`]).
    degraded_until: Option<Instant>,
    /// Leases evicted by a device loss: their worker completions are
    /// rewritten as lost when they surface through [`Backend::poll`].
    lost_leases: BTreeSet<u64>,
    /// The worker lanes dispatches are hosted on.
    pool: Arc<LanePool>,
}

impl DispatcherBackend {
    /// A backend executing on `device` with real worker threads.
    pub fn new(device: DeviceConfig) -> Self {
        let (tx, rx) = unbounded();
        Self {
            device,
            jobs: BTreeMap::new(),
            leases: LeaseTable::new(),
            tx,
            rx,
            lost: false,
            down_until: None,
            degraded_until: None,
            lost_leases: BTreeSet::new(),
            pool: LanePool::global(),
        }
    }

    /// Hosts dispatches on `pool` instead of the process-wide one, so a
    /// test can fix the lane count whatever the machine's.
    #[doc(hidden)]
    pub fn with_pool(mut self, pool: Arc<LanePool>) -> Self {
        self.pool = pool;
        self
    }

    /// Health as of this instant: flap outages and degraded windows expire
    /// on the wall clock without a state-mutating tick.
    fn current_health(&self) -> DeviceHealth {
        if self.lost && self.down_until.is_none_or(|t| Instant::now() < t) {
            return DeviceHealth::Lost;
        }
        if self.degraded_until.is_some_and(|t| Instant::now() < t) {
            return DeviceHealth::Degraded;
        }
        DeviceHealth::Healthy
    }

    /// Folds an expired flap outage back into the healthy state.
    fn settle(&mut self) {
        if self.lost && self.down_until.is_some_and(|t| Instant::now() >= t) {
            self.lost = false;
            self.down_until = None;
        }
    }

    /// Evicts every in-flight dispatch as a device casualty; their worker
    /// completions surface as lost through [`Backend::poll`].
    fn lose_in_flight(&mut self) {
        let in_flight: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.thread.is_some() && j.finished.is_none())
            .map(|(&lease, _)| lease)
            .collect();
        for lease in in_flight {
            self.lost_leases.insert(lease);
            self.leases.apply(&Command::Evict { lease });
        }
    }

    /// Notes a completion that arrived on the channel.
    fn note(&mut self, c: Completion) {
        if let Some(job) = self.jobs.get_mut(&c.lease) {
            job.finished = Some((c.progress, c.ok));
            if let Some(t) = job.thread.take() {
                let _ = t.join();
            }
        }
        self.leases.release(c.lease);
    }
}

impl Backend for DispatcherBackend {
    fn name(&self) -> &'static str {
        "dispatcher"
    }

    fn device(&self) -> &DeviceConfig {
        &self.device
    }

    fn stage(&mut self, lease: u64, spec: WorkSpec) {
        debug_assert!(
            self.jobs
                .get(&lease)
                .is_none_or(|j| j.finished.is_some() || j.thread.is_none()),
            "staging over an in-flight lease"
        );
        let start = spec.start;
        self.jobs.insert(
            lease,
            Job {
                spec: Some(spec),
                start,
                range: None,
                thread: None,
                finished: None,
            },
        );
    }

    fn apply(&mut self, cmd: &Command) {
        match cmd {
            Command::Dispatch { lease, range } => {
                self.settle();
                let lost = self.current_health() == DeviceHealth::Lost;
                let Some(job) = self.jobs.get_mut(lease) else {
                    return;
                };
                let Some(spec) = job.spec.take() else {
                    return; // duplicate dispatch: already running or done
                };
                if lost {
                    // Dispatch into a dead device: lost on arrival, at
                    // whatever progress the staging carried.
                    let _ = self.tx.send(Completion::device_lost(*lease, spec.start));
                    return;
                }
                // Build the dispatcher directly on the commanded range: no
                // initial-resize race, the first worker launch is confined.
                let d = Dispatcher::resume(
                    self.device.clone(),
                    spec.kernel,
                    spec.task_size,
                    *range,
                    spec.start,
                )
                .with_pool(self.pool.clone());
                self.leases.register(*lease, d.handle(), None);
                job.range = Some(*range);
                let tx = self.tx.clone();
                let lease = *lease;
                job.thread = Some(std::thread::spawn(move || {
                    let out = d.run();
                    let _ = tx.send(Completion {
                        lease,
                        progress: out.blocks,
                        ok: !out.evicted,
                        lost: false,
                    });
                }));
            }
            Command::Resize { lease, range } => {
                if self.leases.apply(cmd) {
                    if let Some(job) = self.jobs.get_mut(lease) {
                        job.range = Some(*range);
                    }
                }
            }
            Command::Evict { lease } => {
                if !self.leases.apply(cmd) {
                    // No in-flight handle: evicting a staged-but-parked
                    // lease still consumes the staging and reports the
                    // eviction at its carried progress, exactly as the
                    // simulation backend does — mass evacuation must be
                    // able to move waiters, not just residents.
                    if let Some(job) = self.jobs.get_mut(lease) {
                        if job.spec.take().is_some() {
                            let _ = self.tx.send(Completion::evicted(*lease, job.start));
                        }
                    }
                }
            }
            Command::PromoteStarved { .. }
            | Command::Preempt { .. }
            | Command::Reap { .. }
            | Command::RejectOverloaded { .. } => {}
        }
    }

    fn poll(&mut self) -> Option<Completion> {
        self.settle();
        match self.rx.try_recv() {
            Ok(mut c) => {
                if self.lost_leases.remove(&c.lease) {
                    // The eviction was a device casualty, not a
                    // scheduling decision.
                    c.lost = true;
                    c.ok = false;
                }
                self.note(c);
                Some(c)
            }
            Err(_) => None,
        }
    }

    fn advance(&mut self, millis: u64) {
        std::thread::sleep(std::time::Duration::from_millis(millis));
    }

    fn progress(&self, lease: u64) -> u64 {
        let Some(job) = self.jobs.get(&lease) else {
            return 0;
        };
        if let Some((p, _)) = job.finished {
            return p;
        }
        self.leases.progress(lease).unwrap_or(job.start)
    }

    fn held_range(&self, lease: u64) -> Option<SmRange> {
        let job = self.jobs.get(&lease)?;
        if job.finished.is_some() {
            return None;
        }
        job.range
    }

    fn is_functional(&self) -> bool {
        true
    }

    fn health(&self) -> DeviceHealth {
        self.current_health()
    }

    fn inject_device_fault(&mut self, fault: DeviceFault) {
        match fault {
            DeviceFault::Loss => {
                self.lose_in_flight();
                self.lost = true;
                self.down_until = None;
            }
            DeviceFault::Degraded { millis } => {
                if self.current_health() != DeviceHealth::Lost {
                    self.degraded_until = Some(Instant::now() + Duration::from_millis(millis));
                }
            }
            DeviceFault::Flap { down_ms } => {
                self.lose_in_flight();
                self.lost = true;
                self.down_until = Some(Instant::now() + Duration::from_millis(down_ms.max(1)));
            }
            DeviceFault::Restore => {
                self.lost = false;
                self.down_until = None;
                self.degraded_until = None;
            }
        }
    }
}
