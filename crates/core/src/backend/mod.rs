//! The simulated execution side: who carries out arbiter commands.
//!
//! Every scheduling *decision* is frontend-agnostic behind
//! [`ArbiterCore`](crate::arbiter::ArbiterCore) — events in, commands out.
//! [`SimBackend`] is the execution side of that loop in simulated time: it
//! carries out the arbiter's `Dispatch`, `Resize` and `Evict` commands on
//! the fluid-rate simulation engine (`slate-gpu-sim`) and reports each
//! staging's [`Completion`]. It is the
//! substrate behind [`SlateRuntime`](crate::runtime::SlateRuntime) and,
//! one per device, behind
//! [`SlateRuntime::run_placed`](crate::runtime::SlateRuntime::run_placed)'s
//! fleet.
//!
//! The live [`SlateDaemon`](crate::daemon::SlateDaemon) does not execute
//! through this path: it runs each kernel's
//! [`Dispatcher`](crate::dispatch::Dispatcher) inline on the session or
//! lane thread that waited for the grant (`daemon/exec.rs`), and its
//! real-thread guarantees are pinned through the client API by
//! `crates/core/tests/daemon_conformance.rs`. Its device failures are
//! placement events (`DeviceDown`/`DeviceUp`), so no backend models a
//! device outage.
//!
//! The execution contract (progress carried exactly across resize, evict
//! and relaunch; retreat preserves progress; SM confinement; one
//! completion per staging; commands for unknown or finished leases are
//! no-ops) is pinned by `backend::sim`'s unit tests.

#[cfg(test)]
#[path = "../../tests/support/churn.rs"]
pub(crate) mod churn;
pub(crate) mod sim;

pub use sim::SimBackend;

use crate::transform::TransformedKernel;

/// One unit of execution handed to a backend: a transformed kernel plus
/// how to run it. Staged under a lease id, then started by a
/// [`Command::Dispatch`](crate::arbiter::Command::Dispatch) for that lease.
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
    pub(crate) fn resuming(kernel: TransformedKernel, task_size: u32, start: u64) -> Self {
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
    /// (progress is partial; re-stage with `WorkSpec::resuming`).
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

/// Nothing implements this trait; [`SimBackend`] is the one execution
/// backend. It exists only so that `slatebench`'s
/// `use slate_core::backend::Backend` still compiles; the next change to
/// `slatebench` deletes that import and this trait together.
pub trait Backend {}
