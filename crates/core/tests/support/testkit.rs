//! The backend conformance testkit: scripted scenarios every [`Backend`]
//! implementation must pass, plus the differential runner that replays a
//! recorded [`EventLog`] through a backend so two replays can be
//! compared ([`assert_chaos_keeps_transcript`] compares a bare
//! [`SimBackend`] with the same backend under command chaos).
//!
//! The scenarios pin the execution contract the arbiter relies on:
//!
//! * **undisturbed run** — a dispatch with no interference drains, reports
//!   exactly one `ok` completion at `slateMax`;
//! * **resize churn, exactly once** — across seeded random mid-flight
//!   resizes, the drain reports exactly `slateMax` blocks and exactly one
//!   completion arrives;
//! * **retreat preserves progress** — `slateIdx` progress is monotonic
//!   across a retreat/relaunch, nothing is lost or re-done;
//! * **relaunch after evict** — an eviction reports partial progress;
//!   re-staging from that progress drains exactly the remaining blocks;
//! * **drain reported exactly once** — no duplicate completions, and
//!   commands on a finished lease are no-ops;
//! * **SM confinement** — the backend holds exactly the commanded range
//!   while resident.
//!
//! Every property is checked through reported progress: a simulated
//! backend runs no block bodies. The daemon's real-thread executor is
//! held to the same properties by output buffers, through the client API,
//! in `crates/core/tests/daemon_conformance.rs`.

use super::chaos::ChaosBackend;
use super::churn::churn;
use slate_core::arbiter::{Command, Event as ArbEvent, EventLog};
use slate_core::backend::{Backend, Completion, SimBackend, WorkSpec};
use slate_core::transform::TransformedKernel;
use slate_gpu_sim::device::SmRange;
use slate_gpu_sim::fault::FaultPlan;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Generous drive bound in simulated milliseconds (free; only reached on
/// a hang, i.e. a failing test).
const DRIVE_MS: u64 = 120_000;

/// A transformed conformance kernel over a flat grid of `blocks`.
pub fn churn_kernel(blocks: u32, delay_us: u64) -> TransformedKernel {
    TransformedKernel::new(Arc::new(churn(blocks, delay_us)))
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

/// Scenario: an undisturbed dispatch drains and reports exactly one `ok`
/// completion at `slateMax`.
pub fn undisturbed_run(b: &mut dyn Backend) {
    let n = b.device().num_sms;
    let total: u32 = 400;
    let k = churn_kernel(total, 0);
    b.stage(7, WorkSpec::new(k, 10));
    b.apply(&Command::Dispatch {
        lease: 7,
        range: SmRange::all(n),
    });
    let cs = b.drive_until(7, DRIVE_MS);
    assert_eq!(cs.len(), 1, "exactly one completion: {cs:?}");
    let c = cs[0];
    assert_eq!(c.lease, 7);
    assert!(c.ok);
    assert_eq!(c.progress, u64::from(total));
    assert_eq!(b.progress(7), u64::from(total));
}

/// Scenario: across seeded random mid-flight resizes, the drain reports
/// exactly `slateMax` blocks and exactly one completion arrives.
pub fn resize_churn_exactly_once(b: &mut dyn Backend, seed: u64) {
    let n = b.device().num_sms;
    assert!(n >= 2, "conformance runs need a multi-SM device");
    let total: u32 = 6_000;
    let k = churn_kernel(total, 10);
    b.stage(1, WorkSpec::new(k, 5));
    b.apply(&Command::Dispatch {
        lease: 1,
        range: SmRange::all(n),
    });
    let mut rng = seed | 1;
    let mut completions: Vec<Completion> = Vec::new();
    for _ in 0..8 {
        b.advance(1);
        while let Some(c) = b.poll() {
            completions.push(c);
        }
        if !completions.is_empty() {
            break;
        }
        let range = random_range(&mut rng, n);
        b.apply(&Command::Resize { lease: 1, range });
        // A `None` here means the lease drained during the churn.
        if let Some(r) = b.held_range(1) {
            assert_eq!(r, range, "resident lease confined to the commanded range");
        }
    }
    if completions.is_empty() {
        completions = b.drive_until(1, DRIVE_MS);
    }
    assert_eq!(
        completions.len(),
        1,
        "exactly one completion: {completions:?}"
    );
    let c = completions[0];
    assert_eq!(c.lease, 1);
    assert!(c.ok, "churned run still drains");
    assert_eq!(c.progress, u64::from(total), "no blocks lost or re-done");
    assert_eq!(b.progress(1), u64::from(total));
    assert_eq!(b.poll(), None, "no duplicate completion");
}

/// Scenario: `slateIdx` progress is monotonic across a retreat/relaunch.
pub fn retreat_preserves_progress(b: &mut dyn Backend) {
    let n = b.device().num_sms;
    let total: u32 = 8_000;
    let k = churn_kernel(total, 15);
    b.stage(4, WorkSpec::new(k, 1));
    b.apply(&Command::Dispatch {
        lease: 4,
        range: SmRange::all(n),
    });
    b.advance(2);
    let p1 = b.progress(4);
    b.apply(&Command::Resize {
        lease: 4,
        range: SmRange::new(0, (n - 1) / 2),
    });
    let p2 = b.progress(4);
    assert!(p2 >= p1, "retreat must not lose progress: {p1} -> {p2}");
    b.advance(1);
    let p3 = b.progress(4);
    assert!(p3 >= p2, "progress must stay monotonic: {p2} -> {p3}");
    let cs = b.drive_until(4, DRIVE_MS);
    let c = *cs.last().expect("run completes");
    assert!(c.ok);
    assert_eq!(c.progress, u64::from(total));
}

/// Scenario: an eviction reports partial progress; re-staging from that
/// progress drains exactly the remaining blocks.
pub fn relaunch_after_evict(b: &mut dyn Backend) {
    let n = b.device().num_sms;
    let total: u32 = 12_000;
    let k = churn_kernel(total, 20);
    b.stage(9, WorkSpec::new(k.clone(), 1));
    b.apply(&Command::Dispatch {
        lease: 9,
        range: SmRange::all(n),
    });
    b.advance(2);
    b.apply(&Command::Evict { lease: 9 });
    let cs = b.drive_until(9, DRIVE_MS);
    assert_eq!(cs.len(), 1, "exactly one completion: {cs:?}");
    let c = cs[0];
    assert!(c.progress <= u64::from(total));
    if c.ok {
        // The eviction raced with a drain that had already finished (only
        // reachable under injected chaos delays); the staging is complete.
        assert_eq!(c.progress, u64::from(total));
    } else {
        assert!(
            c.progress < u64::from(total),
            "evicted completion carries partial progress"
        );
        // Relaunch from the carried progress on a different range.
        b.stage(9, WorkSpec::resuming(k, 1, c.progress));
        b.apply(&Command::Dispatch {
            lease: 9,
            range: SmRange::new(0, (n - 1) / 2),
        });
        let cs = b.drive_until(9, DRIVE_MS);
        assert_eq!(cs.len(), 1, "exactly one completion: {cs:?}");
        let c2 = cs[0];
        assert!(c2.ok, "relaunch drains");
        assert_eq!(c2.progress, u64::from(total));
    }
    assert_eq!(b.progress(9), u64::from(total));
}

/// Scenario: the arbiter's SLO preemption sequence — an informational
/// [`Command::Preempt`], the retreat [`Command::Resize`], and the
/// latency-critical [`Command::Dispatch`] on the vacated SMs — leaves the
/// retreated best-effort lease relaunching from its carried `slateIdx`
/// exactly once while the arrival runs beside it.
pub fn preempt_then_resume(b: &mut dyn Backend) {
    let n = b.device().num_sms;
    assert!(n >= 2, "conformance runs need a multi-SM device");
    let total: u32 = 9_000;
    let be = churn_kernel(total, 15);
    b.stage(5, WorkSpec::new(be, 1));
    b.apply(&Command::Dispatch {
        lease: 5,
        range: SmRange::all(n),
    });
    b.advance(2);
    let p1 = b.progress(5);
    // The informational preempt marker must not disturb the lease...
    b.apply(&Command::Preempt { lease: 5 });
    assert!(b.progress(5) >= p1, "preempt marker is informational");
    // ...the paired retreat carries its progress onto the shrunk range...
    let split = (n - 1) / 2;
    b.apply(&Command::Resize {
        lease: 5,
        range: SmRange::new(0, split),
    });
    assert!(b.progress(5) >= p1, "retreat must not lose progress");
    // ...and the latency-critical arrival dispatches on the vacated SMs.
    let lc_total: u32 = 600;
    let lc = churn_kernel(lc_total, 5);
    b.stage(6, WorkSpec::new(lc, 1));
    b.apply(&Command::Dispatch {
        lease: 6,
        range: SmRange::new(split + 1, n - 1),
    });
    let cs = b.drive_until(6, DRIVE_MS);
    let c = *cs.last().expect("arrival completes");
    assert!(c.ok, "the arrival drains on the vacated SMs");
    assert_eq!(c.progress, u64::from(lc_total));
    let cs = b.drive_until(5, DRIVE_MS);
    let c = *cs.last().expect("retreated run completes");
    assert!(c.ok, "the retreated lease still drains");
    assert_eq!(c.progress, u64::from(total), "no blocks lost or re-done");
}

/// Scenario: exactly one completion per staging, and commands naming a
/// finished lease are no-ops.
pub fn drain_reported_exactly_once(b: &mut dyn Backend) {
    let n = b.device().num_sms;
    let total: u32 = 400;
    let k = churn_kernel(total, 0);
    b.stage(2, WorkSpec::new(k, 10));
    b.apply(&Command::Dispatch {
        lease: 2,
        range: SmRange::all(n),
    });
    let cs = b.drive_until(2, DRIVE_MS);
    assert_eq!(cs.len(), 1, "exactly one completion: {cs:?}");
    assert!(cs[0].ok);
    assert_eq!(b.poll(), None);
    // Post-completion commands must change nothing.
    b.apply(&Command::Resize {
        lease: 2,
        range: SmRange::new(0, 0),
    });
    b.apply(&Command::Evict { lease: 2 });
    b.advance(2);
    assert_eq!(
        b.poll(),
        None,
        "finished lease emits no further completions"
    );
    assert_eq!(b.progress(2), u64::from(total));
}

/// Scenario: the backend holds exactly the commanded SM range while the
/// lease is resident, through dispatch and resize.
pub fn sm_confinement(b: &mut dyn Backend) {
    let n = b.device().num_sms;
    assert!(n >= 2, "conformance runs need a multi-SM device");
    let total: u32 = 3_000;
    let k = churn_kernel(total, 10);
    let first = SmRange::new(0, 0);
    b.stage(3, WorkSpec::new(k, 5));
    b.apply(&Command::Dispatch {
        lease: 3,
        range: first,
    });
    assert_eq!(
        b.held_range(3),
        Some(first),
        "dispatch binds the commanded range"
    );
    b.advance(1);
    let second = SmRange::new(1, n - 1);
    b.apply(&Command::Resize {
        lease: 3,
        range: second,
    });
    // A `None` here means the lease drained during the resize.
    if let Some(r) = b.held_range(3) {
        assert_eq!(r, second, "resize rebinds the commanded range");
    }
    let cs = b.drive_until(3, DRIVE_MS);
    let c = *cs.last().expect("run completes");
    assert!(c.ok);
    assert_eq!(c.progress, u64::from(total));
    assert_eq!(b.held_range(3), None, "finished lease holds no range");
}

/// Runs the full conformance suite, building a fresh backend per scenario
/// through `make`. Panics on the first violated property.
pub fn run_conformance(make: &mut dyn FnMut() -> Box<dyn Backend>) {
    undisturbed_run(make().as_mut());
    for seed in [3, 0x5EED, 0xBEEF] {
        resize_churn_exactly_once(make().as_mut(), seed);
    }
    retreat_preserves_progress(make().as_mut());
    relaunch_after_evict(make().as_mut());
    preempt_then_resume(make().as_mut());
    drain_reported_exactly_once(make().as_mut());
    sm_confinement(make().as_mut());
}

/// The observable transcript of a replay: for every lease, the final
/// `(progress, ok)` of each staging, in per-lease completion order.
/// Keyed per lease (not globally ordered) because completion *arrival*
/// order across unrelated leases is timing-dependent, while the per-lease
/// sequence is part of the execution contract.
pub type Transcript = BTreeMap<u64, Vec<(u64, bool)>>;

/// Replays the command stream of a recorded [`EventLog`] against `b` and
/// returns its observable transcript — the differential runner's half.
///
/// Dispatches in the log are fed deterministic conformance kernels (the same
/// per-(lease, nth-staging) grid for every backend, so two replays of the
/// same log are comparable); `Resize`/`Evict` commands are applied as
/// recorded. Before feeding a batch whose *events* contain a
/// `KernelFinished` for an in-flight lease, the backend is driven until
/// that lease's completion is observed, mirroring the causality of the
/// recording.
pub fn replay_transcript(log: &EventLog, b: &mut dyn Backend) -> Transcript {
    let mut transcript: Transcript = BTreeMap::new();
    let mut stagings: HashMap<u64, u64> = HashMap::new();
    let mut in_flight: HashSet<u64> = HashSet::new();

    fn note(t: &mut Transcript, in_flight: &mut HashSet<u64>, c: Completion) {
        in_flight.remove(&c.lease);
        t.entry(c.lease).or_default().push((c.progress, c.ok));
    }

    for batch in &log.batches {
        for ev in &batch.events {
            if let ArbEvent::KernelFinished { lease, .. } = ev {
                if in_flight.contains(lease) {
                    for c in b.drive_until(*lease, DRIVE_MS) {
                        note(&mut transcript, &mut in_flight, c);
                    }
                }
            }
        }
        for cmd in &batch.commands {
            if let Command::Dispatch { lease, .. } = cmd {
                if !in_flight.contains(lease) {
                    let nth = stagings.entry(*lease).or_insert(0);
                    let blocks = (60 + ((*lease * 37 + *nth * 17) % 5) * 12) as u32;
                    *nth += 1;
                    let k = churn_kernel(blocks, 0);
                    b.stage(*lease, WorkSpec::new(k, 7));
                    in_flight.insert(*lease);
                }
            }
            b.apply(cmd);
        }
    }
    // Drain stragglers (leases whose final drain fell past the last
    // recorded batch), in deterministic lease order.
    let mut rest: Vec<u64> = in_flight.iter().copied().collect();
    rest.sort_unstable();
    for lease in rest {
        if in_flight.contains(&lease) {
            for c in b.drive_until(lease, DRIVE_MS) {
                note(&mut transcript, &mut in_flight, c);
            }
        }
    }
    assert!(
        in_flight.is_empty(),
        "replay left leases unfinished: {in_flight:?}"
    );
    transcript
}

/// The differential check: replays `log` through a bare [`SimBackend`] and
/// through the same backend under three seeded command-chaos plans, and
/// asserts every chaos transcript equals the bare one (duplicated, detoured
/// and delayed commands must not change what any staging reports) and that
/// each plan fired. Returns the bare transcript.
pub fn assert_chaos_keeps_transcript(log: &EventLog) -> Transcript {
    let bare = replay_transcript(log, &mut SimBackend::new(log.device.clone()));
    assert!(!bare.is_empty(), "the log must contain dispatches");
    for seed in [0xA11CE, 0xB0B, 42] {
        let mut chaos = ChaosBackend::new(
            SimBackend::new(log.device.clone()),
            FaultPlan::command_chaos(seed, 12),
        );
        let t = replay_transcript(log, &mut chaos);
        assert_eq!(
            t, bare,
            "seed {seed:#x}: command chaos changed the transcript"
        );
        assert!(
            chaos.faults_fired() > 0,
            "seed {seed:#x}: no perturbation fired"
        );
    }
    bare
}
