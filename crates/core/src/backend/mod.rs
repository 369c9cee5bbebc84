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
//! one per device, behind
//! [`SlateRuntime::run_placed`](crate::runtime::SlateRuntime::run_placed)'s
//! fleet. A decorator kept with the tests, `ChaosBackend`
//! (`crates/core/tests/support/chaos.rs`), perturbs the command stream of
//! any inner backend from a seeded
//! [`FaultPlan`](slate_gpu_sim::fault::FaultPlan), proving the execution
//! contract survives duplicated, detoured and delayed commands.
//!
//! The live [`SlateDaemon`](crate::daemon::SlateDaemon) does not execute
//! through this seam: it runs each kernel's
//! [`Dispatcher`](crate::dispatch::Dispatcher) inline on the session or
//! lane thread that waited for the grant (`daemon/exec.rs`), and its
//! real-thread guarantees are pinned through the client API by
//! `crates/core/tests/daemon_conformance.rs`. Its device failures are
//! placement events (`DeviceDown`/`DeviceUp`), so no backend models a
//! device outage.
//!
//! The contract itself is pinned by the conformance testkit
//! (`crates/core/tests/support/testkit.rs`): every implementation must
//! pass the same scripted conformance scenarios (progress is carried
//! exactly across arbitrary resize/evict/relaunch churn, retreat preserves
//! progress, SM confinement holds, completions arrive exactly once), and
//! the differential runner replays one recorded
//! [`EventLog`](crate::arbiter::EventLog) through two backends and asserts
//! their observable transcripts agree.

#[cfg(test)]
#[path = "../../tests/support/churn.rs"]
pub(crate) mod churn;
pub(crate) mod sim;

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
    #[doc(hidden)]
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
    pub(crate) fn total(&self) -> u64 {
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
}

impl Completion {
    /// A clean drain at full progress.
    pub(crate) fn drained(lease: u64, progress: u64) -> Self {
        Self {
            lease,
            progress,
            ok: true,
        }
    }

    /// A scheduled eviction at partial progress.
    pub(crate) fn evicted(lease: u64, progress: u64) -> Self {
        Self {
            lease,
            progress,
            ok: false,
        }
    }
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

    /// Polls and advances until any completion shows up, for at most
    /// `timeout_ms` backend milliseconds. It polls after the last
    /// millisecond too, so a completion landing at the bound is returned.
    fn wait_completion(&mut self, timeout_ms: u64) -> Option<Completion> {
        for _ in 0..timeout_ms {
            if let Some(c) = self.poll() {
                return Some(c);
            }
            self.advance(1);
        }
        self.poll()
    }

    /// Polls and advances until a completion for `lease` shows up (or
    /// `timeout_ms` backend milliseconds elapse), returning every
    /// completion observed on the way, in arrival order, up to and
    /// including the bound's last millisecond. If `lease` completed, its
    /// completion is last in the returned vector.
    fn drive_until(&mut self, lease: u64, timeout_ms: u64) -> Vec<Completion> {
        let mut seen = Vec::new();
        for waited in 0..=timeout_ms {
            while let Some(c) = self.poll() {
                let hit = c.lease == lease;
                seen.push(c);
                if hit {
                    return seen;
                }
            }
            if waited < timeout_ms {
                self.advance(1);
            }
        }
        seen
    }
}
