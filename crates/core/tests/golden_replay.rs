//! Golden replay of the arbitration core.
//!
//! A checked-in JSON recording of an arbitration run (`tests/data/`) must
//! replay through `slate_core::arbiter::replay` to the byte-identical
//! command transcript, release after release — any diff here is a
//! behavioral change to the scheduler and must be deliberate. A fresh
//! simulated run of the same workload must also reproduce the checked-in
//! log exactly, proving the whole frontend-plus-core stack deterministic,
//! not just the core.
//!
//! After an *intended* arbiter change, regenerate the fixtures with
//! `cargo test -p slate-core --test golden_replay -- --ignored`.

mod support;

use slate_core::arbiter::replay::{ReplayBatch, Replayable, StreamVerifier};
use slate_core::arbiter::{replay, Command, Event, EventLog};
use slate_core::placement::replay::PlacementLog;
use slate_core::runtime::{SlateOptions, SlateRuntime};
use slate_gpu_sim::device::DeviceConfig;
use slate_kernels::workload::{llm_trace, Benchmark, LlmTraceCfg};
use support::testkit;

const LOG_JSON: &str = include_str!("data/arbiter_log.json");
const GOLDEN_TRANSCRIPT: &str = include_str!("data/arbiter_transcript.txt");
const SLO_LOG_JSON: &str = include_str!("data/slo_log.json");
const SLO_GOLDEN_TRANSCRIPT: &str = include_str!("data/slo_transcript.txt");

/// The fixed workload behind the fixtures: a complementary pair (BS-RG
/// co-runs, partitions, and resizes) plus a solo-policy third process, so
/// the log exercises dispatch, co-run join, in-place continuation, and
/// survivor regrow.
fn record_fixture_run() -> EventLog {
    let slate = SlateRuntime::new(DeviceConfig::titan_xp());
    let apps = [
        Benchmark::BS.app().scaled_down(30),
        Benchmark::RG.app().scaled_down(30),
        Benchmark::MM.app().scaled_down(30),
    ];
    let (_, log) = slate.run_recorded(&apps);
    log
}

/// The fixed workload behind the mixed-SLO fixtures: a small scaled LLM
/// serving trace — best-effort prefill under bursts of latency-critical
/// decode — run with preemption enabled, so the log pins the
/// `SloArrival` → `Preempt`/`Resize`/`Dispatch` decision sequence.
fn record_slo_fixture_run() -> EventLog {
    let slate = SlateRuntime::with_options(
        DeviceConfig::titan_xp(),
        SlateOptions {
            preempt_bound_s: Some(0.02),
            ..SlateOptions::default()
        },
    );
    let mut cfg = LlmTraceCfg::paper(0x510);
    cfg.scale = 30;
    cfg.decode_sessions = 6;
    cfg.decode_launches = 2;
    let (_, log) = slate.run_recorded(&llm_trace(&cfg));
    log
}

#[test]
fn checked_in_log_replays_to_the_golden_transcript() {
    let log: EventLog = serde_json::from_str(LOG_JSON).expect("fixture parses");
    replay::verify(&log).expect("checked-in log replays to its own commands");
    let transcript = replay::transcript(&replay::replay(&log));
    assert_eq!(
        transcript, GOLDEN_TRANSCRIPT,
        "replay transcript diverged from the golden fixture"
    );
}

#[test]
fn fixture_log_contains_the_interesting_decisions() {
    // Guards against the fixture silently degenerating into a trivial log.
    let log: EventLog = serde_json::from_str(LOG_JSON).expect("fixture parses");
    let commands = || log.batches.iter().flat_map(|b| b.commands.iter());
    assert!(commands().any(|c| matches!(c, Command::Dispatch { .. })));
    assert!(
        commands().any(|c| matches!(c, Command::Resize { .. })),
        "the fixture workload must exercise dynamic resizing"
    );
}

#[test]
fn live_sim_run_reproduces_the_checked_in_log() {
    // The simulated frontend is deterministic end to end: running the
    // fixture workload again yields the very same event log — same
    // batches, same timestamps, same commands.
    let log: EventLog = serde_json::from_str(LOG_JSON).expect("fixture parses");
    let fresh = record_fixture_run();
    assert_eq!(
        replay::transcript(&replay::replay(&fresh)),
        GOLDEN_TRANSCRIPT,
        "a fresh run diverged from the golden transcript"
    );
    assert_eq!(fresh, log, "a fresh run diverged from the checked-in log");
}

#[test]
fn checked_in_log_drives_both_backends_to_identical_transcripts() {
    // The recorded command stream is not just replayable through the
    // arbiter — executed through the `Backend` seam, the simulation
    // engine bare and under seeded command chaos (duplicated, detoured
    // and delayed commands) must produce the same observable transcript
    // (per-lease staging completions). This pins the execution contract
    // against the checked-in fixture.
    let log: EventLog = serde_json::from_str(LOG_JSON).expect("fixture parses");
    let a = testkit::assert_chaos_keeps_transcript(&log);
    // Every staging the fixture dispatched ran to a clean drain (the
    // fixture contains no evictions), at full progress per staging.
    for (lease, stagings) in &a {
        assert!(!stagings.is_empty(), "lease {lease} never completed");
        for (progress, ok) in stagings {
            assert!(ok, "lease {lease} staging did not drain cleanly");
            assert!(*progress > 0);
        }
    }
}

#[test]
fn log_survives_a_json_roundtrip() {
    let log: EventLog = serde_json::from_str(LOG_JSON).expect("fixture parses");
    let json = serde_json::to_string_pretty(&log).expect("log serializes");
    let back: EventLog = serde_json::from_str(&json).expect("roundtrip parses");
    assert_eq!(back, log);
}

// ---- mixed-SLO fixture ----

#[test]
fn checked_in_slo_log_replays_to_the_golden_transcript() {
    let log: EventLog = serde_json::from_str(SLO_LOG_JSON).expect("fixture parses");
    replay::verify(&log).expect("checked-in slo log replays to its own commands");
    let transcript = replay::transcript(&replay::replay(&log));
    assert_eq!(
        transcript, SLO_GOLDEN_TRANSCRIPT,
        "slo replay transcript diverged from the golden fixture"
    );
}

#[test]
fn slo_fixture_log_contains_the_interesting_decisions() {
    // Guards against the fixture silently degenerating: it must declare
    // SLO classes and actually preempt for them.
    let log: EventLog = serde_json::from_str(SLO_LOG_JSON).expect("fixture parses");
    assert!(
        log.config.preempt_bound_us.is_some(),
        "the fixture must run with preemption enabled"
    );
    assert!(log
        .batches
        .iter()
        .flat_map(|b| b.events.iter())
        .any(|e| matches!(e, Event::SloArrival { .. })));
    let commands = || log.batches.iter().flat_map(|b| b.commands.iter());
    assert!(
        commands().any(|c| matches!(c, Command::Preempt { .. })),
        "the fixture workload must exercise priority preemption"
    );
    assert!(commands().any(|c| matches!(c, Command::Resize { .. })));
}

#[test]
fn live_sim_run_reproduces_the_checked_in_slo_log() {
    let log: EventLog = serde_json::from_str(SLO_LOG_JSON).expect("fixture parses");
    let fresh = record_slo_fixture_run();
    assert_eq!(
        replay::transcript(&replay::replay(&fresh)),
        SLO_GOLDEN_TRANSCRIPT,
        "a fresh mixed-SLO run diverged from the golden transcript"
    );
    assert_eq!(
        fresh, log,
        "a fresh mixed-SLO run diverged from the checked-in log"
    );
}

#[test]
fn checked_in_slo_log_drives_both_backends_to_identical_transcripts() {
    // The preemption command stream — retreat, resize, relaunch — executes
    // identically through the simulation engine bare and under command
    // chaos.
    let log: EventLog = serde_json::from_str(SLO_LOG_JSON).expect("fixture parses");
    testkit::assert_chaos_keeps_transcript(&log);
}

#[test]
fn slo_log_survives_a_json_roundtrip() {
    let log: EventLog = serde_json::from_str(SLO_LOG_JSON).expect("fixture parses");
    let json = serde_json::to_string_pretty(&log).expect("log serializes");
    let back: EventLog = serde_json::from_str(&json).expect("roundtrip parses");
    assert_eq!(back, log);
}

/// Streams `log` through the one generic verifier, then checks that the
/// same log with the last reply of its last non-empty batch dropped is
/// refused at exactly that batch.
fn streams_and_pinpoints_tampering<L: Replayable + Clone>(
    log: &L,
    drop_last_reply: impl Fn(&mut L, usize),
) {
    let mut v = StreamVerifier::for_log(log);
    for b in log.batches() {
        v.push(b).expect("checked-in batch verifies");
    }
    assert_eq!(v.batches(), log.batches().len());

    let at = log
        .batches()
        .iter()
        .rposition(|b| !b.replies().is_empty())
        .expect("fixture has replies");
    let mut tampered = log.clone();
    drop_last_reply(&mut tampered, at);
    let mut v = StreamVerifier::for_log(&tampered);
    let first_bad = tampered.batches().iter().position(|b| v.push(b).is_err());
    assert_eq!(first_bad, Some(at));
    let err = replay::verify(&tampered).expect_err("tampered log must not verify");
    assert!(err.starts_with(&format!("batch {at} ")), "{err}");
}

#[test]
fn one_stream_verifier_serves_both_log_types() {
    for json in [LOG_JSON, SLO_LOG_JSON] {
        let log: EventLog = serde_json::from_str(json).expect("fixture parses");
        streams_and_pinpoints_tampering(&log, |l, at| {
            l.batches[at].commands.pop();
        });
    }
    for json in [
        include_str!("data/placement_log.json"),
        include_str!("data/placement_failure_log.json"),
    ] {
        let log: PlacementLog = serde_json::from_str(json).expect("fixture parses");
        streams_and_pinpoints_tampering(&log, |l, at| {
            l.batches[at].routed.pop();
        });
    }
}

#[test]
#[ignore = "regenerates tests/data fixtures; run after an intended arbiter change"]
fn regenerate_golden_fixtures() {
    let log = record_fixture_run();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");
    std::fs::create_dir_all(dir).expect("fixture dir");
    let json = serde_json::to_string_pretty(&log).expect("log serializes");
    std::fs::write(format!("{dir}/arbiter_log.json"), json).expect("write log");
    let transcript = replay::transcript(&replay::replay(&log));
    std::fs::write(format!("{dir}/arbiter_transcript.txt"), transcript).expect("write transcript");
}

#[test]
#[ignore = "regenerates tests/data fixtures; run after an intended arbiter change"]
fn regenerate_slo_fixtures() {
    let log = record_slo_fixture_run();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");
    std::fs::create_dir_all(dir).expect("fixture dir");
    let json = serde_json::to_string_pretty(&log).expect("log serializes");
    std::fs::write(format!("{dir}/slo_log.json"), json).expect("write log");
    let transcript = replay::transcript(&replay::replay(&log));
    std::fs::write(format!("{dir}/slo_transcript.txt"), transcript).expect("write transcript");
}
