//! The execution backend seam: who carries out arbiter commands.
//!
//! PR 3 made every scheduling *decision* frontend-agnostic behind
//! [`ArbiterCore`](crate::arbiter::ArbiterCore) — events in, commands out.
//! This module does the same for the *execution* side: a [`Backend`] owns
//! the interpretation of [`Command::Dispatch`], [`Command::Resize`] and
//! [`Command::Evict`] against an actual device, plus the feedback half of
//! the loop (completion events, `slateIdx` progress, held SM ranges).
//!
//! `Backend` is the simulated-time execution seam. [`SimBackend`] runs
//! slices on the fluid-rate simulation engine (`slate-gpu-sim`); it is the
//! substrate behind [`SlateRuntime`](crate::runtime::SlateRuntime) and,
//! one per device, behind [`MultiSim`](crate::placement::MultiSim). A
//! test-only decorator, [`ChaosBackend`], perturbs the command stream of
//! any inner backend from a seeded
//! [`FaultPlan`](slate_gpu_sim::fault::FaultPlan), proving the execution
//! contract survives duplicated, detoured and delayed commands and whole
//! device outages.
//!
//! The live [`SlateDaemon`](crate::daemon::SlateDaemon) does not execute
//! through this seam: it runs each kernel's
//! [`Dispatcher`](crate::dispatch::Dispatcher) inline on the session or
//! lane thread that waited for the grant (`daemon/exec.rs`), and its
//! real-thread guarantees are pinned through the client API by
//! `crates/core/tests/daemon_conformance.rs`.
//!
//! The contract itself is pinned by [`testkit`]: every implementation must
//! pass the same scripted conformance scenarios (progress is carried
//! exactly across arbitrary resize/evict/relaunch churn, retreat preserves
//! progress, SM confinement holds, completions arrive exactly once), and
//! the differential runner replays one recorded
//! [`EventLog`](crate::arbiter::EventLog) through two backends and asserts
//! their observable transcripts agree.

pub mod chaos;
pub mod sim;
pub mod testkit;

pub use chaos::ChaosBackend;
pub use sim::SimBackend;

use crate::arbiter::Command;
use crate::transform::TransformedKernel;
use slate_gpu_sim::device::{DeviceConfig, SmRange};

/// One unit of execution handed to a backend: a transformed kernel plus
/// how to run it. Staged under a lease id, then started by a
/// [`Command::Dispatch`] for that lease.
#[derive(Clone)]
pub struct WorkSpec {
    /// The transformed user kernel (`K*`): flat queue length `slateMax`,
    /// simulated cost from the wrapped kernel's perf profile.
    pub kernel: TransformedKernel,
    /// Blocks pulled per queue transaction (`SLATE_ITERS`).
    pub task_size: u32,
    /// Carried `slateIdx` progress to resume from (0 for a fresh launch).
    /// The relaunch path after an eviction re-stages the same kernel with
    /// the evicted completion's progress here.
    pub start: u64,
}

impl WorkSpec {
    /// A fresh launch of `kernel` (no carried progress).
    pub fn new(kernel: TransformedKernel, task_size: u32) -> Self {
        Self::resuming(kernel, task_size, 0)
    }

    /// A launch resuming from `start` blocks of carried progress.
    pub fn resuming(kernel: TransformedKernel, task_size: u32, start: u64) -> Self {
        assert!(
            start <= kernel.slate_max(),
            "carried progress {start} beyond slateMax {}",
            kernel.slate_max()
        );
        Self {
            kernel,
            task_size,
            start,
        }
    }

    /// `slateMax` of the staged kernel: the absolute progress a successful
    /// completion reports.
    pub fn total(&self) -> u64 {
        self.kernel.slate_max()
    }
}

/// A staged lease finished executing (drained or was evicted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The lease that finished.
    pub lease: u64,
    /// Absolute `slateIdx` progress at exit, including any carried
    /// [`WorkSpec::start`]. Equals the kernel's `slateMax` iff `ok`.
    pub progress: u64,
    /// `true` for a drain (all blocks executed), `false` for an eviction
    /// (progress is partial; re-stage with [`WorkSpec::resuming`]).
    pub ok: bool,
    /// `true` when the lease ended because its *device* went down, not
    /// because of a scheduling decision. Progress is still the absolute
    /// `slateIdx` at the loss (blocks already executed are durable — the
    /// queue-based transform means none re-run on resume). Lost
    /// completions always carry `ok: false`.
    pub lost: bool,
}

impl Completion {
    /// A clean drain at full progress.
    pub fn drained(lease: u64, progress: u64) -> Self {
        Self {
            lease,
            progress,
            ok: true,
            lost: false,
        }
    }

    /// A scheduled eviction at partial progress.
    pub fn evicted(lease: u64, progress: u64) -> Self {
        Self {
            lease,
            progress,
            ok: false,
            lost: false,
        }
    }

    /// A device-loss casualty at partial progress.
    pub fn device_lost(lease: u64, progress: u64) -> Self {
        Self {
            lease,
            progress,
            ok: false,
            lost: true,
        }
    }
}

/// Instantaneous device health, as reported by [`Backend::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceHealth {
    /// Executing normally.
    #[default]
    Healthy,
    /// Up, but stalled or slowed — work survives but lags.
    Degraded,
    /// Off the bus: in-flight leases surface as lost completions and new
    /// dispatches fail immediately.
    Lost,
}

/// A device-scoped fault injected through
/// [`Backend::inject_device_fault`] (tests and chaos harnesses only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFault {
    /// Hard loss: down until an explicit [`DeviceFault::Restore`].
    Loss,
    /// Stall for `millis` of backend time, then recover on its own.
    Degraded {
        /// Stall budget in milliseconds.
        millis: u64,
    },
    /// Down for `down_ms` of backend time, then back up on its own.
    Flap {
        /// Outage length in milliseconds.
        down_ms: u64,
    },
    /// Bring a lost device back up (staged work must be re-staged; the
    /// device comes back empty).
    Restore,
}

/// Executes arbiter commands against a device and reports what happened.
///
/// Lifecycle per lease: [`Backend::stage`] parks a [`WorkSpec`]; a
/// [`Command::Dispatch`] starts it on the commanded SM range;
/// [`Command::Resize`] retreats and relaunches it on the adjusted range
/// with progress carried over; [`Command::Evict`] stops it with partial
/// progress. Exactly one [`Completion`] is eventually observable through
/// [`Backend::poll`] per dispatched staging. Commands naming an unknown,
/// undispatched-as-required, or already-finished lease are no-ops — the
/// arbiter may legitimately race commands against completions.
pub trait Backend {
    /// Short implementation name (diagnostics).
    fn name(&self) -> &'static str;

    /// The device this backend executes on.
    fn device(&self) -> &DeviceConfig;

    /// Parks `spec` under `lease`, ready for a [`Command::Dispatch`].
    /// Re-staging a finished lease replaces it (the relaunch-after-evict
    /// path); staging over an in-flight lease is a contract violation.
    fn stage(&mut self, lease: u64, spec: WorkSpec);

    /// Carries out one arbiter command. Commands other than
    /// `Dispatch`/`Resize`/`Evict` are no-ops at the execution layer.
    fn apply(&mut self, cmd: &Command);

    /// Returns the next already-available completion, if any. Strictly
    /// non-blocking: never waits for in-flight work (use
    /// [`Backend::advance`] or [`Backend::drive_until`] for that).
    fn poll(&mut self) -> Option<Completion>;

    /// Lets `millis` of simulated backend time pass.
    fn advance(&mut self, millis: u64);

    /// Absolute `slateIdx` progress of `lease` (0 if unknown).
    fn progress(&self, lease: u64) -> u64;

    /// The SM range `lease` currently holds, or `None` if it is not
    /// resident (unknown, not yet dispatched, or finished).
    fn held_range(&self, lease: u64) -> Option<SmRange>;

    /// Non-blocking health probe for the device this backend drives.
    fn health(&self) -> DeviceHealth;

    /// Injects a device-scoped fault (test/chaos harnesses). Every backend
    /// models its device's failure domain; a seeded schedule of faults is
    /// fired by [`ChaosBackend`], not by the backend itself.
    fn inject_device_fault(&mut self, fault: DeviceFault);

    /// Polls and advances until any completion shows up, for at most
    /// `timeout_ms` backend milliseconds.
    fn wait_completion(&mut self, timeout_ms: u64) -> Option<Completion> {
        for _ in 0..=timeout_ms {
            if let Some(c) = self.poll() {
                return Some(c);
            }
            self.advance(1);
        }
        None
    }

    /// Polls and advances until a completion for `lease` shows up (or
    /// `timeout_ms` backend milliseconds elapse), returning every
    /// completion observed on the way, in arrival order. If `lease`
    /// completed, its completion is last in the returned vector.
    fn drive_until(&mut self, lease: u64, timeout_ms: u64) -> Vec<Completion> {
        let mut seen = Vec::new();
        for _ in 0..=timeout_ms {
            while let Some(c) = self.poll() {
                let hit = c.lease == lease;
                seen.push(c);
                if hit {
                    return seen;
                }
            }
            self.advance(1);
        }
        seen
    }
}
