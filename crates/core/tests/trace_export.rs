//! Trace export and autotuner invariants (DESIGN.md §19).
//!
//! The golden fixtures double as trace fixtures: the committed SLO and
//! placement logs must export to schema-valid Perfetto JSON — the same
//! conversion CI runs before uploading the `trace-<sha>` artifact —
//! without regenerating a byte of the fixtures themselves. On top of
//! that: export is deterministic (fresh recording ⇒ same bytes as its
//! JSON-roundtripped log), every lease slice is well-nested per track
//! and no counter track repeats a value (proptest over generated
//! arbitration scripts, the slices enforced by the same validator CI
//! uses), and the tuner is exact — identical report bytes regardless of
//! thread count, with the recorded baseline never beaten by itself.

use proptest::prelude::*;
use slate_core::arbiter::replay::{self, replay_under, EventLog};
use slate_core::arbiter::{ArbiterConfig, ArbiterCore, Event};
use slate_core::placement::replay::PlacementLog;
use slate_core::runtime::{SlateOptions, SlateRuntime};
use slate_core::trace::{trace_log, tune, validate, ArgValue, Trace, TraceSchema};
use slate_core::WorkloadClass;
use slate_gpu_sim::device::DeviceConfig;
use slate_kernels::workload::{llm_trace, LlmTraceCfg, SloClass};
use std::collections::BTreeMap;

const SLO_LOG_JSON: &str = include_str!("data/slo_log.json");
const PLACEMENT_LOG_JSON: &str = include_str!("data/placement_log.json");
const FAILURE_LOG_JSON: &str = include_str!("data/placement_failure_log.json");
const SCHEMA_JSON: &str = include_str!("data/trace_schema.json");

fn ci_schema() -> TraceSchema {
    TraceSchema::from_json(SCHEMA_JSON).expect("checked-in schema parses")
}

#[test]
fn golden_slo_trace_is_schema_valid() {
    let log: EventLog = serde_json::from_str(SLO_LOG_JSON).expect("fixture parses");
    let trace = trace_log(&log).expect("golden log replays and exports");
    let stats = validate::validate(&trace.to_json(), &ci_schema())
        .expect("golden SLO trace satisfies the CI schema");
    assert!(stats.slices > 0);
    // 180 samples when every touched counter was sampled; 159 repeated
    // their track's previous value.
    assert_eq!(stats.counters, 21, "counter samples");
}

#[test]
fn golden_placement_trace_is_schema_valid() {
    let log: PlacementLog = serde_json::from_str(PLACEMENT_LOG_JSON).expect("fixture parses");
    let trace = trace_log(&log).expect("golden placement log replays and exports");
    let stats = validate::validate(&trace.to_json(), &ci_schema())
        .expect("golden placement trace satisfies the CI schema");
    assert!(stats.processes >= 2, "placement fixture spans devices");
    // The CI schema's floor is 10.
    assert_eq!(stats.counters, 11, "counter samples");
    assert!(
        trace.events.iter().all(|e| !matches!(e.ph, 's' | 'f')),
        "no lease of the placement fixture changes device"
    );
}

/// The failure fixture's evacuation is the one move between devices, and
/// the trace draws it as one flow pair: it leaves device 0's process when
/// the eviction lands (@30) and arrives on device 1's at the re-staged
/// dispatch (@40).
#[test]
fn golden_failure_trace_draws_the_evacuation_as_one_flow() {
    let log: PlacementLog = serde_json::from_str(FAILURE_LOG_JSON).expect("fixture parses");
    let trace = trace_log(&log).expect("golden failure log replays and exports");
    let json = trace.to_json();
    validate::validate(&json, &ci_schema()).expect("golden failure trace satisfies the CI schema");
    let flows: Vec<(char, &str, u32)> = trace
        .events
        .iter()
        .filter(|e| matches!(e.ph, 's' | 'f'))
        .map(|e| (e.ph, e.name.as_str(), e.pid))
        .collect();
    assert_eq!(
        flows,
        [('s', "migration l10", 0), ('f', "migration l10", 1)]
    );
    for (ph, ts, pid) in [('s', 30, 0), ('f', 40, 1)] {
        let event = format!(
            r#""name":"migration l10","cat":"migration","ph":"{ph}","ts":{ts},"pid":{pid},"#
        );
        assert!(json.contains(&event), "missing {event}");
    }
}

/// A fresh recording and its serialize→deserialize roundtrip must export
/// byte-identical traces: the trace is a pure function of the log, with
/// no dependence on in-memory identity, map order, or wall-clock.
#[test]
fn fresh_recording_and_roundtripped_log_export_identically() {
    let slate = SlateRuntime::with_options(
        DeviceConfig::titan_xp(),
        SlateOptions {
            preempt_bound_s: Some(0.02),
            ..SlateOptions::default()
        },
    );
    let mut cfg = LlmTraceCfg::paper(0xACE);
    cfg.scale = 30;
    cfg.decode_sessions = 4;
    cfg.decode_launches = 2;
    let (_, log) = slate.run_recorded(&llm_trace(&cfg));

    let fresh = trace_log(&log).expect("fresh log exports").to_json();
    let json = serde_json::to_string(&log).expect("log serializes");
    let reloaded: EventLog = serde_json::from_str(&json).expect("log reloads");
    let replayed = trace_log(&reloaded)
        .expect("roundtripped log exports")
        .to_json();
    assert_eq!(fresh, replayed, "trace must be a pure function of the log");
    // And twice over the same log, trivially.
    assert_eq!(fresh, trace_log(&log).expect("re-export").to_json());
    validate::validate(&fresh, &TraceSchema::default()).expect("fresh trace validates");
}

/// A tampered log (commands edited after recording) must refuse to
/// export rather than render a picture the scheduler never produced.
#[test]
fn diverged_log_refuses_to_export() {
    let log: EventLog = serde_json::from_str(SLO_LOG_JSON).expect("fixture parses");
    let mut tampered = log.clone();
    for b in tampered.batches.iter_mut().rev() {
        if !b.commands.is_empty() {
            b.commands.pop();
            break;
        }
    }
    let err = trace_log(&tampered).expect_err("tampered log must not export");
    assert!(err.contains("diverged"), "unexpected error: {err}");
}

#[test]
fn replay_under_recorded_config_reproduces_the_log() {
    let log: EventLog = serde_json::from_str(SLO_LOG_JSON).expect("fixture parses");
    let counter = replay_under(&log, log.config.clone());
    let exact = replay::replay(&log);
    assert_eq!(counter, exact, "replay_under(recorded config) == replay");
}

#[test]
fn tuner_is_deterministic_and_baseline_is_never_beaten_by_itself() {
    let log: EventLog = serde_json::from_str(SLO_LOG_JSON).expect("fixture parses");
    let grid = tune::default_grid(&log.config);
    assert!(grid.len() >= 8, "smoke grid must have >= 8 variants");
    let serial = tune::tune(&log, &grid, false);
    let parallel = tune::tune(&log, &grid, true);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "tuner report bytes must not depend on thread scheduling"
    );
    assert_eq!(serial.to_markdown(), parallel.to_markdown());
    assert!(serial.best_not_worse_than_baseline());
    assert!(
        serial.rows.iter().any(|r| r.baseline),
        "baseline is in the grid"
    );
}

#[test]
fn placement_tuner_is_deterministic() {
    let log: PlacementLog = serde_json::from_str(PLACEMENT_LOG_JSON).expect("fixture parses");
    let grid = tune::default_grid(&log.config);
    assert!(grid.len() >= 8);
    let serial = tune::tune(&log, &grid, false);
    let parallel = tune::tune(&log, &grid, true);
    assert_eq!(serial.to_json(), parallel.to_json());
    assert!(serial.best_not_worse_than_baseline());
}

/// The first pair of consecutive equal samples on one `(pid, name)`
/// counter track, as `(pid, name, value)`.
fn repeated_counter_sample(trace: &Trace) -> Option<(u32, String, u64)> {
    let mut last: BTreeMap<(u32, &str), u64> = BTreeMap::new();
    for e in trace.events.iter().filter(|e| e.ph == 'C') {
        let value = match e.args.as_slice() {
            [("value", ArgValue::U64(v))] => *v,
            other => panic!("counter {} carries {other:?}", e.name),
        };
        if last.insert((e.pid, &e.name), value) == Some(value) {
            return Some((e.pid, e.name.to_string(), value));
        }
    }
    None
}

/// Seeded xorshift64, the workspace's PRNG idiom.
fn xorshift64(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Generates a semi-coherent arbitration script from a seed: sessions
/// open and declare SLOs, kernels become ready (several in flight per
/// session, exercising the exporter's lane packing), and finishes retire
/// outstanding leases in varying order.
fn scripted_log(seed: u64, ops: usize) -> EventLog {
    let mut core = ArbiterCore::new(
        DeviceConfig::titan_xp(),
        ArbiterConfig {
            starvation_bound_us: Some(50_000),
            preempt_bound_us: Some(20_000),
            ..ArbiterConfig::default()
        },
    );
    core.start_recording();
    let mut s = seed | 1;
    let mut now = 0u64;
    let mut next_lease = 1u64;
    let mut outstanding: Vec<u64> = Vec::new();
    let classes = [
        WorkloadClass::LC,
        WorkloadClass::MC,
        WorkloadClass::HC,
        WorkloadClass::MM,
        WorkloadClass::HM,
    ];
    for session in 0..4u64 {
        let mut batch = Vec::new();
        if session % 2 == 0 {
            batch.push(Event::SloArrival {
                session,
                class: SloClass::LatencyCritical,
            });
        }
        batch.push(Event::SessionOpened { session });
        core.feed(now, &batch);
        now += 1;
    }
    for _ in 0..ops {
        now += 1 + xorshift64(&mut s) % 5_000;
        let event = match xorshift64(&mut s) % 4 {
            0 | 1 => {
                let lease = next_lease;
                next_lease += 1;
                outstanding.push(lease);
                Event::KernelReady {
                    session: xorshift64(&mut s) % 4,
                    lease,
                    class: classes[(xorshift64(&mut s) % 5) as usize],
                    sm_demand: 1 + (xorshift64(&mut s) % 30) as u32,
                    pinned_solo: false,
                    deadline_ms: None,
                }
            }
            2 if !outstanding.is_empty() => {
                let i = (xorshift64(&mut s) as usize) % outstanding.len();
                let lease = outstanding.swap_remove(i);
                Event::KernelFinished { lease, ok: true }
            }
            _ => Event::DeadlineTick,
        };
        core.feed(now, &[event]);
    }
    // Retire what's left so most episodes close inside the log.
    for lease in outstanding {
        now += 1_000;
        core.feed(now, &[Event::KernelFinished { lease, ok: true }]);
    }
    core.take_log().expect("recording was enabled")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every exported trace — across seeds and script lengths — passes
    /// the structural validator: monotonic timestamps, and every lease
    /// slice well-nested on its track (begin ≤ end, no overlap; the
    /// validator rejects any slice starting before its track's previous
    /// slice ended). And no counter track holds two consecutive equal
    /// samples: the exporter writes a sample only when the value moves.
    #[test]
    fn exported_lease_slices_are_well_nested(seed in any::<u64>(), ops in 10usize..80) {
        let log = scripted_log(seed, ops);
        let trace = trace_log(&log).expect("scripted log exports");
        let json = trace.to_json();
        let stats = validate::validate(&json, &TraceSchema::default())
            .expect("exported trace validates");
        prop_assert!(stats.slices > 0, "script produced no lease slices");
        prop_assert!(stats.counters > 0, "script produced no counter samples");
        prop_assert_eq!(repeated_counter_sample(&trace), None);
        // Determinism across exports, for every generated script.
        prop_assert_eq!(json, trace_log(&log).expect("re-export").to_json());
    }
}
