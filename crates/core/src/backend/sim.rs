//! [`SimBackend`]: arbiter command execution over the fluid-rate
//! simulation engine.
//!
//! This is the execution substrate of the simulated
//! [`SlateRuntime`](crate::runtime::SlateRuntime): a dispatched lease is a
//! slice on the engine, a resize is the retreat/relaunch of §IV-C
//! (tear the slice down mid-flight, relaunch the remaining blocks on the
//! adjusted range), an eviction is a retreat with no relaunch. The runtime
//! drives the same engine through this type's slice operations
//! ([`SimBackend::launch_slice`], [`SimBackend::resize_slice`]), so the
//! lease-level API and the full scheduler exercise one implementation of
//! the retreat mechanics.

use super::{Completion, WorkSpec};
use crate::arbiter::Command;
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::engine::{Engine, Event, SliceId, SliceSpec};
use slate_gpu_sim::metrics::SliceReport;
use slate_gpu_sim::perf::{ExecMode, KernelPerf};
use std::collections::{BTreeMap, VecDeque};

/// How to relaunch the remaining blocks after a retreat.
#[derive(Debug, Clone)]
pub(crate) struct RelaunchPlan {
    /// Perf profile of the relaunched slice; moves into it.
    pub(crate) perf: KernelPerf,
    /// Execution mode of the relaunched slice.
    pub(crate) mode: ExecMode,
    /// Real blocks per batched launch: the relaunch batch count is
    /// `(remaining / blocks_per_batch).max(1)`. Use `u64::MAX` for an
    /// unbatched relaunch (batch 1).
    pub(crate) blocks_per_batch: u64,
}

/// What a [`SimBackend::resize_slice`] retreat found.
#[derive(Debug)]
pub(crate) enum ResizeOutcome {
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

/// Executes arbiter commands on the simulation engine and reports what
/// happened.
///
/// Lifecycle per lease: [`SimBackend::stage`] parks a [`WorkSpec`]; a
/// [`Command::Dispatch`] starts it on the commanded SM range;
/// [`Command::Resize`] retreats and relaunches it on the adjusted range
/// with progress carried over; [`Command::Evict`] stops it with partial
/// progress. Exactly one [`Completion`] per dispatched staging eventually
/// comes out of [`SimBackend::wait_completion`]. Commands naming an
/// unknown, not-yet-dispatched (for `Resize`) or finished lease are
/// no-ops: a driver applies routed commands as they come, and the arbiter
/// may race a command against a completion.
pub struct SimBackend {
    engine: Engine,
    leases: BTreeMap<u64, SimLease>,
    done: VecDeque<Completion>,
}

impl SimBackend {
    /// A backend over a fresh engine for `cfg`.
    pub fn new(cfg: DeviceConfig) -> Self {
        Self {
            engine: Engine::new(cfg),
            leases: BTreeMap::new(),
            done: VecDeque::new(),
        }
    }

    /// The underlying engine (timers, transfers, inspection).
    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the underlying engine. The simulated runtime
    /// drives its own transfer/timer bookkeeping through this while
    /// routing slice execution through the shared slice operations.
    pub(crate) fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Starts a slice on the engine (a kernel launch).
    pub(crate) fn launch_slice(&mut self, spec: SliceSpec) -> Result<SliceId, String> {
        self.engine.add_slice(spec)
    }

    /// The dispatch-kernel retreat/relaunch (§IV-C): tears `slice` down
    /// mid-flight and, unless it turned out to be complete, relaunches the
    /// remaining blocks on `to` with `slateIdx` progress carried over.
    pub(crate) fn resize_slice(
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

    /// Handles a `SliceDrained` engine event for a staged lease.
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

/// The lease-level API: what a simulated driver calls.
impl SimBackend {
    /// Parks `spec` under `lease`, ready for a [`Command::Dispatch`].
    /// Re-staging a finished lease replaces it (the relaunch-after-evict
    /// path); staging over an in-flight lease is a contract violation.
    pub fn stage(&mut self, lease: u64, spec: WorkSpec) {
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

    /// Carries out one arbiter command. Commands other than
    /// `Dispatch`/`Resize`/`Evict` are no-ops at the execution layer.
    pub fn apply(&mut self, cmd: &Command) {
        match cmd {
            Command::Dispatch { lease, range } => {
                let Some(l) = self.leases.get(lease) else {
                    return;
                };
                if l.finished || l.slice.is_some() {
                    return; // duplicate dispatch: already running or done
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

    /// Returns the next already-available completion, if any. Never lets
    /// simulated time pass.
    pub(crate) fn poll(&mut self) -> Option<Completion> {
        self.done.pop_front()
    }

    /// Lets `millis` of simulated time pass.
    pub(crate) fn advance(&mut self, millis: u64) {
        if millis == 0 {
            return;
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

    /// Polls and advances 1 ms at a time until a completion shows up, for
    /// at most `timeout_ms` simulated milliseconds. It polls after the
    /// last millisecond too, so a completion landing at the bound is
    /// returned, and one landing later is not.
    pub fn wait_completion(&mut self, timeout_ms: u64) -> Option<Completion> {
        for _ in 0..timeout_ms {
            if let Some(c) = self.poll() {
                return Some(c);
            }
            self.advance(1);
        }
        self.poll()
    }
}

/// The execution contract the arbiter relies on, checked through reported
/// progress (a simulated backend runs no block bodies). The daemon's
/// real-thread executor is held to the same properties by output buffers,
/// through the client API, in `crates/core/tests/daemon_conformance.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::churn::churn;
    use crate::transform::TransformedKernel;
    use std::sync::Arc;

    /// Generous wait bound in simulated milliseconds (free; only reached
    /// on a hang, i.e. a failing test).
    const WAIT_MS: u64 = 120_000;

    fn device() -> DeviceConfig {
        DeviceConfig::tiny(4)
    }

    fn all() -> SmRange {
        SmRange::all(device().num_sms)
    }

    fn kernel(blocks: u32, delay_us: u64) -> TransformedKernel {
        TransformedKernel::new(Arc::new(churn(blocks, delay_us)))
    }

    /// A fresh backend with `lease` staged from `spec` and dispatched on
    /// `range`.
    fn dispatched(lease: u64, spec: WorkSpec, range: SmRange) -> SimBackend {
        let mut b = SimBackend::new(device());
        b.stage(lease, spec);
        b.apply(&Command::Dispatch { lease, range });
        b
    }

    /// Absolute `slateIdx` progress of `lease`, its in-flight slice
    /// included (0 if unknown).
    fn progress(b: &SimBackend, lease: u64) -> u64 {
        let Some(l) = b.leases.get(&lease) else {
            return 0;
        };
        let in_flight = l
            .slice
            .map_or(0, |(id, _)| b.engine.slice_report(id).blocks_done);
        l.start + l.executed + in_flight
    }

    /// The SM range `lease` runs on, or `None` if it is not resident.
    fn held(b: &SimBackend, lease: u64) -> Option<SmRange> {
        b.leases.get(&lease).and_then(|l| l.slice.map(|(_, r)| r))
    }

    fn xorshift(s: &mut u64) -> u64 {
        let mut x = *s;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *s = x;
        x
    }

    fn random_range(s: &mut u64, num_sms: u32) -> SmRange {
        let lo = (xorshift(s) % num_sms as u64) as u32;
        let hi = lo + (xorshift(s) % (num_sms - lo) as u64) as u32;
        SmRange::new(lo, hi)
    }

    #[test]
    fn an_undisturbed_run_drains_once_at_slate_max() {
        let mut b = dispatched(7, WorkSpec::new(kernel(400, 0), 10), all());
        let c = b.wait_completion(WAIT_MS).expect("run completes");
        assert_eq!(c, Completion::drained(7, 400));
        assert_eq!(progress(&b, 7), 400);
        assert_eq!(b.poll(), None, "exactly one completion");
    }

    /// Across seeded random mid-flight resizes, the drain reports exactly
    /// `slateMax` blocks, exactly once, and a resident lease holds the
    /// range it was last commanded.
    #[test]
    fn resize_churn_reports_every_block_exactly_once() {
        let n = device().num_sms;
        for seed in [3, 0x5EED, 0xBEEF] {
            let mut b = dispatched(1, WorkSpec::new(kernel(6_000, 10), 5), all());
            let mut rng = seed | 1;
            let mut first = None;
            for _ in 0..8 {
                b.advance(1);
                first = b.poll();
                if first.is_some() {
                    break;
                }
                let range = random_range(&mut rng, n);
                b.apply(&Command::Resize { lease: 1, range });
                // `None` means the lease drained during the resize.
                if let Some(r) = held(&b, 1) {
                    assert_eq!(r, range, "seed {seed:#x}: confined to the commanded range");
                }
            }
            let c = first
                .or_else(|| b.wait_completion(WAIT_MS))
                .expect("churned run completes");
            assert_eq!(c, Completion::drained(1, 6_000), "seed {seed:#x}");
            assert_eq!(progress(&b, 1), 6_000);
            assert_eq!(b.poll(), None, "seed {seed:#x}: duplicate completion");
        }
    }

    #[test]
    fn a_retreat_preserves_progress() {
        let n = device().num_sms;
        let mut b = dispatched(4, WorkSpec::new(kernel(8_000, 15), 1), all());
        b.advance(2);
        let p1 = progress(&b, 4);
        b.apply(&Command::Resize {
            lease: 4,
            range: SmRange::new(0, (n - 1) / 2),
        });
        let p2 = progress(&b, 4);
        assert!(p2 >= p1, "retreat must not lose progress: {p1} -> {p2}");
        b.advance(1);
        let p3 = progress(&b, 4);
        assert!(p3 >= p2, "progress must stay monotonic: {p2} -> {p3}");
        let c = b.wait_completion(WAIT_MS).expect("run completes");
        assert_eq!(c, Completion::drained(4, 8_000));
    }

    /// An eviction reports partial progress; re-staging from it drains
    /// exactly the remaining blocks.
    #[test]
    fn a_relaunch_after_evict_drains_the_rest() {
        let n = device().num_sms;
        let k = kernel(12_000, 20);
        let mut b = dispatched(9, WorkSpec::new(k.clone(), 1), all());
        b.advance(2);
        b.apply(&Command::Evict { lease: 9 });
        let c = b.wait_completion(WAIT_MS).expect("eviction completes");
        assert!(!c.ok, "evicted, not drained: {c:?}");
        assert!(0 < c.progress && c.progress < 12_000, "{c:?}");
        assert_eq!(b.poll(), None, "exactly one completion");

        b.stage(9, WorkSpec::resuming(k, 1, c.progress));
        b.apply(&Command::Dispatch {
            lease: 9,
            range: SmRange::new(0, (n - 1) / 2),
        });
        let c = b.wait_completion(WAIT_MS).expect("relaunch completes");
        assert_eq!(c, Completion::drained(9, 12_000));
        assert_eq!(progress(&b, 9), 12_000);
    }

    /// The arbiter's SLO preemption sequence — an informational `Preempt`,
    /// the retreat `Resize`, and the latency-critical `Dispatch` on the
    /// vacated SMs — leaves the retreated best-effort lease relaunching
    /// from its carried `slateIdx` exactly once beside the arrival.
    #[test]
    fn a_preempted_lease_resumes_beside_the_arrival() {
        let n = device().num_sms;
        let mut b = dispatched(5, WorkSpec::new(kernel(9_000, 15), 1), all());
        b.advance(2);
        let p1 = progress(&b, 5);
        b.apply(&Command::Preempt { lease: 5 });
        assert_eq!(held(&b, 5), Some(all()), "preempt marker is informational");
        let split = (n - 1) / 2;
        b.apply(&Command::Resize {
            lease: 5,
            range: SmRange::new(0, split),
        });
        assert!(progress(&b, 5) >= p1, "retreat must not lose progress");
        b.stage(6, WorkSpec::new(kernel(600, 5), 1));
        b.apply(&Command::Dispatch {
            lease: 6,
            range: SmRange::new(split + 1, n - 1),
        });
        let arrival = b.wait_completion(WAIT_MS).expect("arrival completes");
        assert_eq!(arrival, Completion::drained(6, 600), "arrival drains first");
        let c = b.wait_completion(WAIT_MS).expect("retreated run completes");
        assert_eq!(
            c,
            Completion::drained(5, 9_000),
            "no blocks lost or re-done"
        );
        assert_eq!(b.poll(), None);
    }

    #[test]
    fn a_drain_is_reported_once() {
        let mut b = dispatched(2, WorkSpec::new(kernel(400, 0), 10), all());
        let c = b.wait_completion(WAIT_MS).expect("run completes");
        assert_eq!(c, Completion::drained(2, 400));
        assert_eq!(b.wait_completion(5), None, "no second completion");
    }

    #[test]
    fn a_resident_lease_holds_exactly_the_commanded_range() {
        let n = device().num_sms;
        let first = SmRange::new(0, 0);
        let mut b = dispatched(3, WorkSpec::new(kernel(3_000, 10), 5), first);
        assert_eq!(
            held(&b, 3),
            Some(first),
            "dispatch binds the commanded range"
        );
        b.advance(1);
        let second = SmRange::new(1, n - 1);
        b.apply(&Command::Resize {
            lease: 3,
            range: second,
        });
        assert_eq!(
            held(&b, 3),
            Some(second),
            "resize rebinds the commanded range"
        );
        let c = b.wait_completion(WAIT_MS).expect("run completes");
        assert_eq!(c, Completion::drained(3, 3_000));
        assert_eq!(held(&b, 3), None, "finished lease holds no range");
    }

    /// `placement::multi::run` applies routed commands as they come, so a
    /// command for an unknown or finished lease must change nothing.
    #[test]
    fn commands_for_unknown_or_finished_leases_change_nothing() {
        let mut b = dispatched(2, WorkSpec::new(kernel(400, 0), 10), all());
        assert!(b.wait_completion(WAIT_MS).is_some_and(|c| c.ok));
        for lease in [2, 99] {
            for cmd in [
                Command::Dispatch {
                    lease,
                    range: all(),
                },
                Command::Resize {
                    lease,
                    range: SmRange::new(0, 0),
                },
                Command::Evict { lease },
            ] {
                b.apply(&cmd);
                assert_eq!(b.poll(), None, "{cmd:?} reported a completion");
                assert_eq!(held(&b, lease), None, "{cmd:?} made the lease resident");
            }
            b.advance(2);
            assert_eq!(b.poll(), None, "lease {lease} completed again");
        }
        assert_eq!(progress(&b, 2), 400);
        assert_eq!(progress(&b, 99), 0);
    }

    /// A wait lets at most its bound of simulated time pass: a lease that
    /// drains in the bound's last millisecond is returned, and a bound one
    /// millisecond short leaves it undrained rather than drained and
    /// unreported.
    #[test]
    fn a_wait_returns_a_drain_at_its_bound_and_not_before() {
        let fresh = || dispatched(1, WorkSpec::new(kernel(2_000, 10), 5), all());
        // The drain lands in the `at`-th millisecond.
        let mut b = fresh();
        let mut at = 0;
        while b.poll().is_none() {
            b.advance(1);
            at += 1;
        }
        assert!(at >= 2, "the lease needs more than a millisecond: {at}");

        let c = fresh().wait_completion(at).expect("drains at the bound");
        assert_eq!(c, Completion::drained(1, 2_000));

        let mut b = fresh();
        assert_eq!(b.wait_completion(at - 1), None);
        assert_eq!(b.poll(), None, "the wait let time pass its bound");
        assert!(b.wait_completion(1).is_some_and(|c| c.ok));
    }
}
