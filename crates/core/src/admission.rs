//! Admission-control configuration and observability types.
//!
//! The daemon serves kernels from many independent host processes (paper
//! §III); without limits a burst of clients grows unbounded pending-launch
//! queues and wedges the scheduler. [`AdmissionLimits`] configures the
//! bounds — concurrent sessions, pending launches (per session and
//! globally, through `LaunchGauge`s), and
//! device-memory pressure. The *enforcement* lives in the shared
//! arbitration core ([`crate::arbiter::ArbiterCore`]): over-limit requests
//! are answered with
//! [`Command::RejectOverloaded`](crate::arbiter::Command::RejectOverloaded),
//! which the daemon translates to
//! [`SlateError::Overloaded`](crate::error::SlateError::Overloaded) on the
//! wire. On a multi-device daemon every device's core enforces the same
//! limits on its own sessions and launches: there is no fleet-wide bound.
//!
//! This module keeps the configuration and the stable observability
//! surface: [`AdmissionStats`] and the aggregate [`DaemonMetrics`]
//! snapshot future observability work builds on.

use crate::placement::PlacementStats;
use crate::queue::QueueStats;
use serde::{Deserialize, Serialize};

/// Configurable admission limits. The default is fully permissive —
/// admission control is opt-in and the daemon behaves exactly as before
/// unless a bound is set.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AdmissionLimits {
    /// Maximum concurrently connected sessions (per device on a fleet);
    /// further `connect`s are shed with
    /// [`SlateError::Overloaded`](crate::error::SlateError).
    pub max_sessions: Option<usize>,
    /// Maximum pending (admitted, uncompleted) launches per session.
    pub max_pending_per_session: Option<u64>,
    /// Maximum pending launches across all sessions.
    pub max_pending_global: Option<u64>,
    /// Memory-pressure watermark as a fraction of pool capacity in
    /// `(0, 1]`: an allocation that would push usage past
    /// `watermark * capacity` is shed (distinct from a hard
    /// [`SlateError::OutOfMemory`](crate::error::SlateError), which means
    /// the pool itself refused).
    pub mem_watermark: Option<f64>,
}

/// Point-in-time snapshot of the admission counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Sessions currently connected.
    pub active_sessions: usize,
    /// Sessions admitted since the daemon started.
    pub sessions_admitted: u64,
    /// Sessions shed at the `max_sessions` bound.
    pub(crate) sessions_rejected: u64,
    /// Admitted launches that finished successfully.
    pub launches_completed: u64,
    /// Admitted launches that finished with an error (fault, eviction).
    pub launches_failed: u64,
    /// Deadline-carrying launches rejected up front because the estimated
    /// queue wait already exceeded their deadline.
    pub deadline_rejections: u64,
    /// Allocations shed at the memory watermark.
    pub mallocs_shed: u64,
    /// Estimated milliseconds of profiled work currently pending.
    pub pending_est_ms: u64,
}

/// One read of an arbitration core's counters: its launch-queue gauge,
/// its admission counters and its scheduling counts. Summed across cores
/// it is the fleet's: every count adds up, and `queue.capacity` stays the
/// per-core bound (the cores share one configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// The core's global launch-queue snapshot.
    pub queue: QueueStats,
    /// The core's admission counters.
    pub admission: AdmissionStats,
    /// Kernels evicted for blowing their deadline.
    pub evictions: u64,
    /// Starved waiters promoted to solo dispatch.
    pub promotions: u64,
    /// Best-effort residents displaced by latency-critical arrivals.
    pub preemptions: u64,
    /// Severed sessions cleaned up.
    pub reaped: u64,
}

impl std::iter::Sum for CoreStats {
    fn sum<I: Iterator<Item = Self>>(cores: I) -> Self {
        cores.fold(Self::default(), |mut sum, core| {
            let CoreStats {
                queue,
                admission,
                evictions,
                promotions,
                preemptions,
                reaped,
            } = core;
            let QueueStats {
                depth,
                high_water,
                capacity,
                admitted,
                shed,
            } = queue;
            sum.queue.depth += depth;
            sum.queue.high_water += high_water;
            sum.queue.capacity = capacity;
            sum.queue.admitted += admitted;
            sum.queue.shed += shed;
            let AdmissionStats {
                active_sessions,
                sessions_admitted,
                sessions_rejected,
                launches_completed,
                launches_failed,
                deadline_rejections,
                mallocs_shed,
                pending_est_ms,
            } = admission;
            let a = &mut sum.admission;
            a.active_sessions += active_sessions;
            a.sessions_admitted += sessions_admitted;
            a.sessions_rejected += sessions_rejected;
            a.launches_completed += launches_completed;
            a.launches_failed += launches_failed;
            a.deadline_rejections += deadline_rejections;
            a.mallocs_shed += mallocs_shed;
            a.pending_est_ms += pending_est_ms;
            sum.evictions += evictions;
            sum.promotions += promotions;
            sum.preemptions += preemptions;
            sum.reaped += reaped;
            sum
        })
    }
}

/// One stable snapshot of everything the daemon can report about itself:
/// queue backlog, admission counters, and the fault-tolerance counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaemonMetrics {
    /// Daemon-wide launch-queue snapshot (the global launch gauge).
    pub queue: QueueStats,
    /// Admission counters.
    pub admission: AdmissionStats,
    /// Kernel launches fully served since start.
    pub launches_served: u64,
    /// Live device allocations across all sessions.
    pub live_allocations: usize,
    /// Hardware work-queue lanes registered on the funnelled context.
    pub hyperq_lanes: usize,
    /// Kernels currently resident on the device.
    pub arbiter_residents: usize,
    /// Kernels evicted by the watchdog.
    pub watchdog_evictions: u64,
    /// Sessions torn down because the client vanished.
    pub reaped_sessions: u64,
    /// Starved waiters the arbiter promoted to solo dispatch.
    pub starvation_promotions: u64,
    /// Best-effort residents displaced by latency-critical arrivals
    /// (0 unless `DaemonOptions::preempt_bound_ms` is set).
    pub slo_preemptions: u64,
    /// Fault-plan rules that have fired (0 outside injection tests).
    pub(crate) faults_fired: usize,
    /// Placement counters: fleet size, routed sessions, rebalances fired
    /// and migrations completed. On a single-device daemon `devices` is 1
    /// and the migration counters stay 0.
    pub placement: PlacementStats,
    /// Poisoned-mutex recoveries across the daemon's shared state: each
    /// count is a lock some thread panicked under that a later locker
    /// recovered instead of cascading the panic.
    pub lock_recoveries: u64,
}
