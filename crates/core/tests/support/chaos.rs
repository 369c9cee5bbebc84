//! [`ChaosBackend`]: a test-only decorator perturbing the command stream
//! of any inner backend from a seeded [`FaultPlan`].
//!
//! The conformance properties (each block exactly once, progress carried
//! over retreat, exactly one completion per staging) must hold not just on
//! the happy path but under the arbiter racing commands against
//! completions. This decorator manufactures those races deterministically:
//! each armed [`FaultKind`] at [`FaultSite::Command`] is reinterpreted as
//! a *semantics-preserving* perturbation of the command about to be
//! applied —
//!
//! | armed kind | perturbation |
//! |---|---|
//! | [`FaultKind::MemcpyStall`] | delay: advance the backend `millis` ms first |
//! | [`FaultKind::LaunchFault`] | duplicate: apply the command twice |
//! | [`FaultKind::KernelHang`] | detour: resizes go via a different range first |
//! | [`FaultKind::ChannelDrop`] | nothing (a dropped perturbation) |
//!
//! Every perturbation ends with the real command applied, so a conforming
//! inner backend must absorb the churn: duplicates hit the no-op
//! contract, detours are extra retreat/relaunch cycles, delays shift
//! completions across command boundaries.

use slate_core::arbiter::Command;
use slate_core::backend::{Backend, Completion, WorkSpec};
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::fault::{FaultKind, FaultPlan, FaultSite};

/// A backend decorator injecting seeded command-stream chaos.
pub struct ChaosBackend<B> {
    inner: B,
    plan: FaultPlan,
}

impl<B: Backend> ChaosBackend<B> {
    /// Wraps `inner`, perturbing commands per `plan`'s
    /// [`FaultSite::Command`] rules (see [`FaultPlan::command_chaos`]).
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        Self { inner, plan }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// How many perturbations have fired so far.
    pub fn faults_fired(&self) -> usize {
        self.plan.fired()
    }

    /// A valid SM range different from `range` whenever the device allows
    /// one (deterministic, so chaos runs replay).
    fn detour(range: SmRange, num_sms: u32) -> SmRange {
        if range.len() > 1 {
            SmRange::new(range.lo, range.hi - 1)
        } else if range.hi + 1 < num_sms {
            SmRange::new(range.lo, range.hi + 1)
        } else if range.lo > 0 {
            SmRange::new(range.lo - 1, range.hi)
        } else {
            range // single-SM device: the detour degenerates to a duplicate
        }
    }
}

impl<B: Backend> Backend for ChaosBackend<B> {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn device(&self) -> &DeviceConfig {
        self.inner.device()
    }

    fn stage(&mut self, lease: u64, spec: WorkSpec) {
        self.inner.stage(lease, spec);
    }

    fn apply(&mut self, cmd: &Command) {
        match self.plan.fire(FaultSite::Command, None) {
            Some(FaultKind::MemcpyStall { millis }) => self.inner.advance(millis),
            Some(FaultKind::LaunchFault) => self.inner.apply(cmd),
            Some(FaultKind::KernelHang) => {
                if let Command::Resize { lease, range } = cmd {
                    let via = Self::detour(*range, self.inner.device().num_sms);
                    self.inner.apply(&Command::Resize {
                        lease: *lease,
                        range: via,
                    });
                }
            }
            Some(FaultKind::ChannelDrop) | None => {}
        }
        self.inner.apply(cmd);
    }

    fn poll(&mut self) -> Option<Completion> {
        self.inner.poll()
    }

    fn advance(&mut self, millis: u64) {
        self.inner.advance(millis);
    }

    fn progress(&self, lease: u64) -> u64 {
        self.inner.progress(lease)
    }

    fn held_range(&self, lease: u64) -> Option<SmRange> {
        self.inner.held_range(lease)
    }

    fn wait_completion(&mut self, timeout_ms: u64) -> Option<Completion> {
        self.inner.wait_completion(timeout_ms)
    }

    fn drive_until(&mut self, lease: u64, timeout_ms: u64) -> Vec<Completion> {
        self.inner.drive_until(lease, timeout_ms)
    }
}
