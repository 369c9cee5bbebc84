//! The daemon's arbitration frontend: one lock around the placement layer,
//! fed by whoever has events (`DESIGN.md` §17).

use crate::arbiter::replay::is_recorded;
use crate::arbiter::{Command, Event as ArbEvent};
use crate::dispatch::DispatchHandle;
use crate::durability::{Durability, WalRecord};
use crate::error::SlateError;
use crate::placement::replay::PlacementBatch;
use crate::placement::{HealthState, PlacementLayer, RoutedCommand};
use crate::sync::{Condvar, Mutex};
use slate_gpu_sim::device::SmRange;
use slate_gpu_sim::fault::FaultToken;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mutable state of the daemon's arbiter frontend, under one lock.
pub(super) struct ArbInner {
    /// The device fleet's arbitration brain: one per-device
    /// [`ArbiterCore`](crate::arbiter::ArbiterCore) behind the
    /// deterministic routing of [`PlacementLayer`]. A single-device daemon
    /// is the degenerate N=1 layer and behaves exactly as before.
    pub(super) layer: PlacementLayer,
    /// The batch being fed. `routed` is the reply buffer of every feed;
    /// a durable daemon also fills in `at` and `events` and lends the
    /// whole to the WAL. Reused at its high-water capacity, so a warmed
    /// feed allocates nothing, durable or not.
    batch: PlacementBatch,
    /// Dispatch grants awaiting pickup by their `exec::execute` thread:
    /// lease → (device index, granted SM range). Ordered map so any
    /// iteration over pending grants is deterministic (`DESIGN.md` §17:
    /// iteration whose order can reach output sorts by external id).
    grants: BTreeMap<u64, (usize, SmRange)>,
    /// Dispatch handles of waiting/resident leases: where a routed
    /// `Resize`/`Evict` reaches the `Dispatcher` that `exec::execute` runs
    /// on its own thread (including the injected-hang token cancel on
    /// eviction). Leases are fleet-unique, so one table serves every
    /// device.
    leases: LeaseTable,
    /// Threads blocked in [`ArbFrontend::wait_grant`]'s wait: a feed wakes
    /// grant waiters only if there are any.
    grant_waiters: usize,
}

/// The execution-side state of in-flight dispatches: the handles the
/// arbiter's `Resize`/`Evict` commands act on, plus the injected-hang
/// token to cancel on eviction so cooperatively hung workers actually come
/// back.
///
/// Ordered map by rule: any structure on the command/replay path must
/// iterate deterministically, even if today's accesses are keyed lookups
/// (`DESIGN.md` §17: iteration whose order can reach output sorts by
/// external id).
#[derive(Default)]
struct LeaseTable {
    entries: BTreeMap<u64, LeaseEntry>,
}

struct LeaseEntry {
    handle: DispatchHandle,
    token: Option<FaultToken>,
}

impl LeaseTable {
    /// Registers the dispatch handle (and optional hang token) of `lease`.
    fn register(&mut self, lease: u64, handle: DispatchHandle, token: Option<FaultToken>) {
        self.entries.insert(lease, LeaseEntry { handle, token });
    }

    /// Drops `lease`'s entry.
    fn release(&mut self, lease: u64) {
        self.entries.remove(&lease);
    }

    /// The registered leases, in ascending order. Crash handling walks
    /// this to evict every in-flight dispatch before the scene capture.
    fn leases(&self) -> Vec<u64> {
        self.entries.keys().copied().collect()
    }

    /// Carries out an execution command against the registered handle:
    /// `Resize` adjusts the SM range mid-flight, `Evict` stops the
    /// dispatch and cancels any hang token. Every other command, and one
    /// naming no registered lease, is a no-op.
    fn apply(&self, cmd: &Command) {
        match cmd {
            Command::Resize { lease, range } => {
                if let Some(e) = self.entries.get(lease) {
                    e.handle.resize(*range);
                }
            }
            Command::Evict { lease } => {
                if let Some(e) = self.entries.get(lease) {
                    e.handle.evict();
                    if let Some(t) = &e.token {
                        t.cancel();
                    }
                }
            }
            _ => {}
        }
    }
}

/// The daemon's driver for the placement layer over the shared per-device
/// arbitration cores: one lock, no thread of its own. Whoever has events
/// — a session thread, a kernel's executing thread, the heartbeat —
/// takes the arbiter lock and, under it, stamps the batch with the
/// monotonic microsecond clock, feeds the layer, appends to the WAL,
/// carries out the routed commands (resize and evict act on dispatch
/// handles immediately; dispatch grants are parked for the waiting kernel
/// thread together with their device) and wakes grant waiters, if any.
/// The lock order is the feed order is the WAL order (`DESIGN.md` §17).
pub(super) struct ArbFrontend {
    /// Epoch of the logical clock ([`crate::arbiter::Tick`]s are
    /// microseconds since this instant, offset by `base_us`).
    epoch: Instant,
    /// Logical-clock offset: a recovered daemon resumes the crashed
    /// incarnation's clock instead of restarting at zero, so the WAL's
    /// tick stream stays monotonic across epochs.
    base_us: u64,
    pub(super) inner: Mutex<ArbInner>,
    /// Signalled after every feed that finds a grant waiter, and by
    /// [`ArbFrontend::kill`]; `wait_grant` blocks on it.
    granted: Condvar,
    /// Raised by [`ArbFrontend::kill`] *under the arbiter lock*: every
    /// later feed becomes a no-op (`fed == false`), which is what keeps
    /// the WAL and the in-memory core in lockstep at the kill point.
    crashed: AtomicBool,
    /// Write-ahead log sink; every non-heartbeat fed batch is appended
    /// while the arbiter lock is held, so the log's batch order is the
    /// feed order.
    pub(super) durability: Option<Arc<Durability>>,
}

/// Outcome of [`ArbFrontend::wait_grant`]: either a granted SM range, or
/// the daemon crashed while the kernel was queued.
pub(super) enum GrantWait {
    /// Granted (device index, SM range).
    Granted(usize, SmRange),
    /// The daemon crashed. `ready_fed` tells whether this kernel's
    /// [`ArbEvent::KernelReady`] made it into the core (and the WAL)
    /// before the kill — adoption must feed a clearing `KernelFinished`
    /// exactly when it did.
    Crashed { ready_fed: bool },
}

impl ArbFrontend {
    pub(super) fn new(
        layer: PlacementLayer,
        base_us: u64,
        durability: Option<Arc<Durability>>,
    ) -> Self {
        Self {
            epoch: Instant::now(),
            base_us,
            inner: Mutex::new(ArbInner {
                layer,
                batch: PlacementBatch {
                    at: 0,
                    events: Vec::new(),
                    routed: Vec::new(),
                },
                grants: BTreeMap::new(),
                leases: LeaseTable::default(),
                grant_waiters: 0,
            }),
            granted: Condvar::new(),
            crashed: AtomicBool::new(false),
            durability,
        }
    }

    pub(super) fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// The kill point of [`SlateDaemon::crash`](super::SlateDaemon::crash),
    /// under one hold of the arbiter lock: raise the crash flag, freeze the
    /// WAL, evict every in-flight dispatch.
    pub(super) fn kill(&self) {
        let inner = self.inner.lock();
        self.crashed.store(true, Ordering::SeqCst);
        if let Some(d) = &self.durability {
            d.freeze();
        }
        for lease in inner.leases.leases() {
            inner.leases.apply(&Command::Evict { lease });
        }
        self.granted.notify_all();
    }

    /// Feeds one batch under the (held) arbiter lock. Returns whether it
    /// was fed (`false` after a crash — the caller must treat the events
    /// as never having happened) and, when `session` is given, the retry
    /// hint if that session's request was shed. `meta` is appended to the
    /// WAL right behind the batch, in the same `write`, unless the batch
    /// was shed or unfed.
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
            batch,
            grants,
            leases,
            grant_waiters,
        } = inner;
        layer.feed_into(now, events, &mut batch.routed);
        let retry_after_ms = session.and_then(|s| shed_retry(&batch.routed, s));
        if let Some(d) = &self.durability {
            // The in-memory recorders' rule: a heartbeat that routed
            // nothing is not logged. No such batch carries a `meta`.
            if is_recorded(events, &batch.routed) {
                // A shed request returns Overloaded to the client: it
                // never happened, so no durable record of it.
                let meta = meta.as_ref().filter(|_| retry_after_ms.is_none());
                // The layer clamps time monotonic; record the clamped
                // tick so replay feeds exactly what the core saw.
                batch.at = layer.now();
                batch.events.clear();
                batch.events.extend_from_slice(events);
                d.append_batch_meta(batch, meta, || layer.snapshot());
            }
        }
        for r in batch.routed.iter() {
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
        // A waiter counts itself under this lock before it waits, so none
        // can be between its check and its wait here.
        if *grant_waiters > 0 {
            self.granted.notify_all();
        }
        (true, retry_after_ms)
    }

    /// Feeds `session`'s request under one acquisition of the lock: whether
    /// it was fed, or [`SlateError::Overloaded`] if it was shed.
    pub(super) fn submit(
        &self,
        events: &[ArbEvent],
        session: u64,
        meta: Option<WalRecord>,
    ) -> Result<bool, SlateError> {
        match self.feed_locked(&mut self.inner.lock(), events, Some(session), meta) {
            (fed, None) => Ok(fed),
            (_, Some(retry_after_ms)) => Err(SlateError::Overloaded { retry_after_ms }),
        }
    }

    /// Feeds one batch, ignoring the outcome. After a crash this is a
    /// no-op.
    pub(super) fn feed(&self, events: &[ArbEvent]) {
        let _ = self.feed_locked(&mut self.inner.lock(), events, None, None);
    }

    /// The device `lease` currently routes to (its session's device, or
    /// the migration target after an evacuation's eviction landed).
    pub(super) fn lease_device(&self, lease: u64) -> usize {
        let inner = self.inner.lock();
        inner
            .layer
            .device_of_lease(lease)
            .or_else(|| inner.layer.device_of_session(lease >> 16))
            .unwrap_or(0)
    }

    /// The in-flight migration target of `lease`, if an evacuation's
    /// eviction is pending for it. Must be read *before* feeding the
    /// eviction's `KernelFinished` (which completes the migration and
    /// clears it).
    pub(super) fn migration_target(&self, lease: u64) -> Option<usize> {
        self.inner.lock().layer.migration_target(lease)
    }

    /// The placement layer's health state for `device`.
    pub(super) fn device_health(&self, device: usize) -> HealthState {
        self.inner.lock().layer.health_of(device)
    }

    /// Registers the kernel's dispatch handle, announces it ready, and
    /// blocks until its device's core grants it an SM range — all under
    /// one acquisition of the lock, so the grant's commands always find
    /// the handle. The wait is bounded (the 1 ms heartbeat re-runs
    /// scheduling anyway), so a lost wakeup during teardown cannot wedge
    /// the thread; a crash unblocks every waiter with
    /// [`GrantWait::Crashed`].
    pub(super) fn wait_grant(
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
            inner.grant_waiters += 1;
            let _ = self.granted.wait_for(&mut inner, Duration::from_millis(5));
            inner.grant_waiters -= 1;
        }
    }

    /// Threads inside [`ArbFrontend::wait_grant`]'s wait right now.
    #[cfg(test)]
    pub(super) fn grant_waiters(&self) -> usize {
        self.inner.lock().grant_waiters
    }

    /// Reports the dispatch finished (drained, faulted or evicted) and
    /// drops its handle; the lease's core re-schedules (survivor regrow,
    /// next waiter dispatch) in the same feed. Returns whether the finish
    /// actually landed — `false` means the daemon crashed first and the
    /// launch must be parked for adoption instead.
    pub(super) fn finish(&self, lease: u64, ok: bool) -> bool {
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
