//! [`SimBackend`]: arbiter command execution over the fluid-rate
//! simulation engine.
//!
//! This is the execution substrate of the simulated
//! [`SlateRuntime`](crate::runtime::SlateRuntime): a dispatched lease is a
//! slice on the engine, a resize is the retreat/relaunch of §IV-C
//! (tear the slice down mid-flight, relaunch the remaining blocks on the
//! adjusted range), an eviction is a retreat with no relaunch. The runtime
//! drives the same engine through this type's inherent slice operations
//! ([`SimBackend::launch_slice`], [`SimBackend::resize_slice`]), so the
//! standalone trait path and the full scheduler exercise one
//! implementation of the retreat mechanics.
//!
//! Device health is modelled in simulated time: an injected loss, stall
//! or flap ([`Backend::inject_device_fault`]) plays out as the engine
//! advances. This backend never schedules a fault itself; a seeded
//! schedule is fired by [`ChaosBackend`](super::ChaosBackend).

use super::{Backend, Completion, DeviceFault, DeviceHealth, WorkSpec};
use crate::arbiter::Command;
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::engine::{Engine, Event, SliceId, SliceSpec};
use slate_gpu_sim::metrics::SliceReport;
use slate_gpu_sim::perf::{ExecMode, KernelPerf};
use std::collections::{BTreeMap, VecDeque};

/// How to relaunch the remaining blocks after a retreat.
#[derive(Debug, Clone)]
pub struct RelaunchPlan {
    /// Perf profile of the relaunched slice; moves into it.
    pub perf: KernelPerf,
    /// Execution mode of the relaunched slice.
    pub mode: ExecMode,
    /// Real blocks per batched launch: the relaunch batch count is
    /// `(remaining / blocks_per_batch).max(1)`. Use `u64::MAX` for an
    /// unbatched relaunch (batch 1).
    pub blocks_per_batch: u64,
}

/// What a [`SimBackend::resize_slice`] retreat found.
#[derive(Debug)]
pub enum ResizeOutcome {
    /// The slice had already completed — nothing to relaunch. The resize
    /// raced with the drain; callers fold this into their completion path.
    Completed(SliceReport),
    /// The remaining blocks were relaunched on the new range.
    Relaunched(SliceReport, SliceId),
}

/// Per-lease execution state.
struct SimLease {
    perf: KernelPerf,
    total: u64,
    task_size: u32,
    start: u64,
    /// Blocks completed by already-removed slices of this staging.
    executed: u64,
    /// The in-flight slice and the range it runs on.
    slice: Option<(SliceId, SmRange)>,
    finished: bool,
}

/// The simulation-engine execution backend.
pub struct SimBackend {
    engine: Engine,
    leases: BTreeMap<u64, SimLease>,
    done: VecDeque<Completion>,
    /// Current device health (the failure-domain model).
    health: DeviceHealth,
    /// Remaining outage, in ms of simulated time, for a flapping device.
    /// Zero while hard-lost: only [`DeviceFault::Restore`] recovers that.
    down_remaining_ms: u64,
    /// Remaining stall budget, in ms, consumed before engine time passes
    /// while degraded.
    stall_remaining_ms: u64,
}

impl SimBackend {
    /// A backend over a fresh engine for `cfg`.
    pub fn new(cfg: DeviceConfig) -> Self {
        Self {
            engine: Engine::new(cfg),
            leases: BTreeMap::new(),
            done: VecDeque::new(),
            health: DeviceHealth::Healthy,
            down_remaining_ms: 0,
            stall_remaining_ms: 0,
        }
    }

    /// Loses every in-flight lease to the device at its current progress.
    fn lose_in_flight(&mut self) {
        let casualties: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.slice.is_some())
            .map(|(&lease, _)| lease)
            .collect();
        for lease in casualties {
            let l = self.leases.get_mut(&lease).expect("present");
            let (sid, _) = l.slice.take().expect("in flight");
            let rep = self.engine.remove_slice(sid);
            let l = self.leases.get_mut(&lease).expect("present");
            l.executed += rep.blocks_done;
            l.finished = true;
            self.done
                .push_back(Completion::device_lost(lease, l.start + l.executed));
        }
    }

    /// The underlying engine (timers, transfers, inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the underlying engine. The simulated runtime
    /// drives its own transfer/timer bookkeeping through this while
    /// routing slice execution through the shared slice operations.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Starts a slice on the engine (a kernel launch).
    pub fn launch_slice(&mut self, spec: SliceSpec) -> Result<SliceId, String> {
        self.engine.add_slice(spec)
    }

    /// The dispatch-kernel retreat/relaunch (§IV-C): tears `slice` down
    /// mid-flight and, unless it turned out to be complete, relaunches the
    /// remaining blocks on `to` with `slateIdx` progress carried over.
    pub fn resize_slice(
        &mut self,
        slice: SliceId,
        to: SmRange,
        plan: RelaunchPlan,
    ) -> ResizeOutcome {
        let rep = self.engine.remove_slice(slice);
        let remaining = rep.blocks_total.saturating_sub(rep.blocks_done);
        if remaining == 0 {
            return ResizeOutcome::Completed(rep);
        }
        let batch = (remaining / plan.blocks_per_batch).max(1) as u32;
        let id = self
            .engine
            .add_slice(SliceSpec {
                perf: plan.perf,
                sm_range: to,
                blocks: remaining,
                mode: plan.mode,
                extra_lead_s: 0.0,
                batch,
                tag: rep.tag,
            })
            .expect("relaunch must be valid");
        ResizeOutcome::Relaunched(rep, id)
    }

    /// Handles a `SliceDrained` engine event for a trait-managed lease.
    fn finish_drained(&mut self, sid: SliceId) {
        let Some((&lease, _)) = self
            .leases
            .iter()
            .find(|(_, l)| l.slice.map(|(id, _)| id) == Some(sid))
        else {
            return;
        };
        let rep = self.engine.remove_slice(sid);
        let l = self.leases.get_mut(&lease).expect("lease just found");
        l.executed += rep.blocks_done;
        l.slice = None;
        l.finished = true;
        let progress = l.start + l.executed;
        debug_assert_eq!(progress, l.total, "drained lease must cover the grid");
        self.done.push_back(Completion::drained(lease, progress));
    }
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn device(&self) -> &DeviceConfig {
        self.engine.device()
    }

    fn stage(&mut self, lease: u64, spec: WorkSpec) {
        debug_assert!(
            self.leases
                .get(&lease)
                .is_none_or(|l| l.finished || l.slice.is_none()),
            "staging over an in-flight lease"
        );
        let perf = spec.kernel.inner().perf();
        self.leases.insert(
            lease,
            SimLease {
                perf,
                total: spec.total(),
                task_size: spec.task_size,
                start: spec.start,
                executed: 0,
                slice: None,
                finished: false,
            },
        );
    }

    fn apply(&mut self, cmd: &Command) {
        match cmd {
            Command::Dispatch { lease, range } => {
                let Some(l) = self.leases.get(lease) else {
                    return;
                };
                if l.finished || l.slice.is_some() {
                    return; // duplicate dispatch: already running or done
                }
                if self.health == DeviceHealth::Lost {
                    // Dispatch into a dead device: the work is lost on
                    // arrival, at whatever progress it carried.
                    let l = self.leases.get_mut(lease).expect("present");
                    l.finished = true;
                    self.done
                        .push_back(Completion::device_lost(*lease, l.start + l.executed));
                    return;
                }
                let blocks = l.total - l.start;
                if blocks == 0 {
                    let l = self.leases.get_mut(lease).expect("present");
                    l.finished = true;
                    self.done.push_back(Completion::drained(*lease, l.total));
                    return;
                }
                let spec = SliceSpec {
                    perf: l.perf.clone(),
                    sm_range: *range,
                    blocks,
                    mode: ExecMode::SlateWorkers {
                        task_size: l.task_size,
                    },
                    extra_lead_s: 0.0,
                    batch: 1,
                    tag: *lease,
                };
                let id = self.launch_slice(spec).expect("dispatch must be valid");
                let l = self.leases.get_mut(lease).expect("present");
                l.slice = Some((id, *range));
            }
            Command::Resize { lease, range } => {
                let Some(l) = self.leases.get(lease) else {
                    return;
                };
                let Some((sid, cur)) = l.slice else {
                    return; // not resident (never dispatched or drained)
                };
                if cur == *range {
                    return;
                }
                let plan = RelaunchPlan {
                    perf: l.perf.clone(),
                    mode: ExecMode::SlateWorkers {
                        task_size: l.task_size,
                    },
                    blocks_per_batch: u64::MAX,
                };
                let outcome = self.resize_slice(sid, *range, plan);
                let l = self.leases.get_mut(lease).expect("present");
                match outcome {
                    ResizeOutcome::Completed(rep) => {
                        l.executed += rep.blocks_done;
                        l.slice = None;
                        l.finished = true;
                        let progress = l.start + l.executed;
                        self.done.push_back(Completion::drained(*lease, progress));
                    }
                    ResizeOutcome::Relaunched(rep, id) => {
                        l.executed += rep.blocks_done;
                        l.slice = Some((id, *range));
                    }
                }
            }
            Command::Evict { lease } => {
                let Some(l) = self.leases.get(lease) else {
                    return;
                };
                if l.finished {
                    return;
                }
                if let Some((sid, _)) = l.slice {
                    let rep = self.engine.remove_slice(sid);
                    let l = self.leases.get_mut(lease).expect("present");
                    l.executed += rep.blocks_done;
                    l.slice = None;
                }
                let l = self.leases.get_mut(lease).expect("present");
                l.finished = true;
                self.done
                    .push_back(Completion::evicted(*lease, l.start + l.executed));
            }
            // Scheduling-internal commands have no execution-side effect.
            Command::PromoteStarved { .. }
            | Command::Preempt { .. }
            | Command::Reap { .. }
            | Command::RejectOverloaded { .. } => {}
        }
    }

    fn poll(&mut self) -> Option<Completion> {
        self.done.pop_front()
    }

    fn advance(&mut self, mut millis: u64) {
        if millis == 0 {
            return;
        }
        // An outage window (flap) passes before any device time: nothing
        // runs while down, and the device comes back once it drains.
        if self.health == DeviceHealth::Lost {
            if self.down_remaining_ms == 0 {
                return; // hard loss: time passes, the device stays dead
            }
            let waited = millis.min(self.down_remaining_ms);
            self.down_remaining_ms -= waited;
            millis -= waited;
            if self.down_remaining_ms == 0 {
                self.health = DeviceHealth::Healthy;
            }
            if millis == 0 {
                return;
            }
        }
        // A degraded device consumes its stall budget before engine time
        // passes — work survives but makes no progress meanwhile.
        if self.health == DeviceHealth::Degraded {
            let stalled = millis.min(self.stall_remaining_ms);
            self.stall_remaining_ms -= stalled;
            millis -= stalled;
            if self.stall_remaining_ms == 0 {
                self.health = DeviceHealth::Healthy;
            }
            if millis == 0 {
                return;
            }
        }
        let tid = self
            .engine
            .set_timer(self.engine.now() + millis as f64 / 1e3);
        loop {
            match self.engine.step() {
                Some((_, Event::Timer(t))) if t == tid => break,
                Some((_, Event::SliceDrained(sid))) => self.finish_drained(sid),
                Some(_) => {}
                None => break,
            }
        }
    }

    fn progress(&self, lease: u64) -> u64 {
        let Some(l) = self.leases.get(&lease) else {
            return 0;
        };
        let in_flight = l
            .slice
            .map(|(id, _)| self.engine.slice_report(id).blocks_done)
            .unwrap_or(0);
        l.start + l.executed + in_flight
    }

    fn held_range(&self, lease: u64) -> Option<SmRange> {
        self.leases
            .get(&lease)
            .and_then(|l| l.slice.map(|(_, r)| r))
    }

    fn health(&self) -> DeviceHealth {
        self.health
    }

    fn inject_device_fault(&mut self, fault: DeviceFault) {
        match fault {
            DeviceFault::Loss => {
                self.lose_in_flight();
                self.health = DeviceHealth::Lost;
                self.down_remaining_ms = 0;
            }
            DeviceFault::Degraded { millis } => {
                if self.health != DeviceHealth::Lost {
                    self.health = DeviceHealth::Degraded;
                    self.stall_remaining_ms += millis;
                }
            }
            DeviceFault::Flap { down_ms } => {
                self.lose_in_flight();
                self.health = DeviceHealth::Lost;
                self.down_remaining_ms = down_ms.max(1);
            }
            DeviceFault::Restore => {
                self.health = DeviceHealth::Healthy;
                self.down_remaining_ms = 0;
                self.stall_remaining_ms = 0;
            }
        }
    }

    fn drive_until(&mut self, lease: u64, timeout_ms: u64) -> Vec<Completion> {
        // Step the engine straight to the next drain instead of advancing
        // in 1 ms timer hops — simulated time is free, so the bound is a
        // simulated-seconds deadline rather than an iteration count.
        let mut seen = Vec::new();
        let deadline = self.engine.now() + timeout_ms as f64 / 1e3;
        loop {
            while let Some(c) = self.done.pop_front() {
                let hit = c.lease == lease;
                seen.push(c);
                if hit {
                    return seen;
                }
            }
            if self.engine.now() > deadline {
                return seen;
            }
            match self.engine.step() {
                Some((_, Event::SliceDrained(sid))) => self.finish_drained(sid),
                Some(_) => {}
                None => return seen, // idle: nothing will ever complete
            }
        }
    }
}
