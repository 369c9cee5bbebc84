//! Admission-control configuration and observability types.
//!
//! The daemon serves kernels from many independent host processes (paper
//! §III); without limits a burst of clients grows unbounded pending-launch
//! queues and wedges the scheduler. [`AdmissionLimits`] configures the
//! bounds — concurrent sessions, pending launches (per session and
//! globally, through [`LaunchGauge`](crate::queue::LaunchGauge)s), and
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
    pub sessions_rejected: u64,
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
    pub faults_fired: usize,
    /// Placement counters: fleet size, routed sessions, rebalances fired
    /// and migrations completed. On a single-device daemon `devices` is 1
    /// and the migration counters stay 0.
    pub placement: PlacementStats,
    /// Poisoned-mutex recoveries across the daemon's shared state: each
    /// count is a lock some thread panicked under that a later locker
    /// recovered instead of cascading the panic.
    pub lock_recoveries: u64,
}
