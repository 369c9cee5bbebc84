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
//!
//! [`FaultSite::Device`] rules (see
//! [`FaultPlan::device_chaos`](slate_gpu_sim::fault::FaultPlan::device_chaos))
//! go further: on a scheduled dispatch the *whole device* is lost, flapped
//! or stalled through [`Backend::inject_device_fault`], and the decorator
//! then recovers the outage inline — every lost lease is re-staged at the
//! progress its lost completion carried and re-dispatched on the range it
//! held. Exactly-once must survive a full device failure domain, not just
//! command churn. This decorator is the one place a device-fault schedule
//! fires; the backends only model what an injected fault does.

use slate_core::arbiter::Command;
use slate_core::backend::{Backend, Completion, DeviceFault, DeviceHealth, WorkSpec};
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::fault::{FaultKind, FaultPlan, FaultSite};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A backend decorator injecting seeded command-stream chaos.
pub struct ChaosBackend<B> {
    inner: B,
    plan: FaultPlan,
    /// Last staged spec per lease, for device-loss re-staging.
    staged: BTreeMap<u64, WorkSpec>,
    /// Non-lost completions drained during an inline device recovery,
    /// replayed through [`Backend::poll`] in arrival order.
    buffered: VecDeque<Completion>,
}

impl<B: Backend> ChaosBackend<B> {
    /// Wraps `inner`, perturbing commands per `plan`'s
    /// [`FaultSite::Command`] rules (see [`FaultPlan::command_chaos`])
    /// and injecting device outages per its [`FaultSite::Device`] rules
    /// (see [`FaultPlan::device_chaos`]), recovering each outage inline —
    /// lost leases are re-staged at their lost progress and re-dispatched
    /// — so a conforming inner backend still executes every block exactly
    /// once.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            staged: BTreeMap::new(),
            buffered: VecDeque::new(),
        }
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

    /// Takes the whole device down (`flap_ms: Some` = transient outage,
    /// `None` = hard loss + explicit restore), then recovers every lost
    /// lease inline: drain its lost completion, re-stage it at the lost
    /// progress, re-dispatch it on the range it held. Clean completions
    /// drained on the way are buffered for [`Backend::poll`]. The
    /// perturbation stays semantics-preserving: blocks executed before the
    /// outage are carried, none re-run, every staging still completes.
    fn device_outage(&mut self, flap_ms: Option<u64>) {
        // Capture in-flight geometry before the loss clears it.
        let in_flight: Vec<(u64, SmRange)> = self
            .staged
            .keys()
            .filter_map(|&lease| self.inner.held_range(lease).map(|r| (lease, r)))
            .collect();
        self.inner.inject_device_fault(match flap_ms {
            Some(down_ms) => DeviceFault::Flap { down_ms },
            None => DeviceFault::Loss,
        });
        // Drain one terminal completion per in-flight lease: lost ones are
        // casualties to recover, clean ones raced the outage and won.
        let mut awaiting: BTreeSet<u64> = in_flight.iter().map(|&(l, _)| l).collect();
        let mut casualties: Vec<Completion> = Vec::new();
        let mut spins = 0u32;
        while !awaiting.is_empty() && spins < 5_000 {
            match self.inner.poll() {
                Some(c) if c.lost => {
                    awaiting.remove(&c.lease);
                    casualties.push(c);
                }
                Some(c) => {
                    awaiting.remove(&c.lease);
                    self.buffered.push_back(c);
                }
                None => {
                    self.inner.advance(1);
                    spins += 1;
                }
            }
        }
        debug_assert!(awaiting.is_empty(), "outage drain timed out");
        // Bring the device back: wait out a flap, restore a hard loss.
        match flap_ms {
            Some(down_ms) => self.inner.advance(down_ms + 1),
            None => {
                self.inner.inject_device_fault(DeviceFault::Restore);
            }
        }
        debug_assert_eq!(self.inner.health(), DeviceHealth::Healthy);
        // Resume each casualty where it died, on the range it held.
        for c in casualties {
            let Some(spec) = self.staged.get(&c.lease) else {
                continue;
            };
            let resumed = WorkSpec::resuming(spec.kernel.clone(), spec.task_size, c.progress);
            self.inner.stage(c.lease, resumed);
            let range = in_flight
                .iter()
                .find(|&&(l, _)| l == c.lease)
                .map(|&(_, r)| r)
                .expect("casualty was in flight");
            self.inner.apply(&Command::Dispatch {
                lease: c.lease,
                range,
            });
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
        self.staged.insert(lease, spec.clone());
        self.inner.stage(lease, spec);
    }

    fn apply(&mut self, cmd: &Command) {
        // Device-scoped chaos: each dispatch is one occurrence of the
        // device fault site, and the scheduled outage lands before the
        // work does.
        if matches!(cmd, Command::Dispatch { .. }) {
            match self.plan.fire(FaultSite::Device, None) {
                Some(FaultKind::DeviceLoss) => self.device_outage(None),
                Some(FaultKind::DeviceFlap { down_ms }) => self.device_outage(Some(down_ms)),
                Some(FaultKind::DeviceStall { millis }) => {
                    self.inner
                        .inject_device_fault(DeviceFault::Degraded { millis });
                }
                _ => {}
            }
        }
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
            // Device kinds never arm at the Command site; armed here by a
            // hand-built plan, they are dropped perturbations.
            Some(FaultKind::ChannelDrop)
            | Some(FaultKind::DeviceLoss)
            | Some(FaultKind::DeviceStall { .. })
            | Some(FaultKind::DeviceFlap { .. })
            | None => {}
        }
        self.inner.apply(cmd);
    }

    fn poll(&mut self) -> Option<Completion> {
        self.buffered.pop_front().or_else(|| self.inner.poll())
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

    fn health(&self) -> DeviceHealth {
        self.inner.health()
    }

    fn inject_device_fault(&mut self, fault: DeviceFault) {
        self.inner.inject_device_fault(fault);
    }

    fn wait_completion(&mut self, timeout_ms: u64) -> Option<Completion> {
        if let Some(c) = self.buffered.pop_front() {
            return Some(c);
        }
        self.inner.wait_completion(timeout_ms)
    }

    fn drive_until(&mut self, lease: u64, timeout_ms: u64) -> Vec<Completion> {
        let mut seen = Vec::new();
        while let Some(c) = self.buffered.pop_front() {
            let hit = c.lease == lease;
            seen.push(c);
            if hit {
                return seen;
            }
        }
        seen.extend(self.inner.drive_until(lease, timeout_ms));
        seen
    }
}
