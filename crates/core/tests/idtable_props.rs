//! Property tests for the dense-id interner (`IdTable`) plus a
//! golden-fixture cross-check.
//!
//! The interner sits under every decision-path structure (see
//! `DESIGN.md` §17), so its contract is load-bearing for replay
//! determinism: interning must be a pure function of the operation
//! history (double-run transcript equality), a slot must stay pinned to
//! its id for exactly the live interval (stability), and the dense arena
//! must stay bounded by peak concurrent liveness, not by how many ids
//! ever existed. The properties drive arbitrary intern/release schedules
//! against a `BTreeMap` model; the fixture test replays the checked-in
//! golden arbiter and placement logs — whose cores run on interned ids —
//! and cross-checks an `IdTable` fed from the same event stream against
//! the model.

use proptest::prelude::*;
use slate_core::arbiter::replay::{ReplayBatch, Replayable};
use slate_core::arbiter::{replay, Event, EventLog, IdTable};
use slate_core::placement::replay::PlacementLog;
use std::collections::BTreeMap;

/// One schedule step. Ids are drawn from a small space so release hits
/// live ids often and re-intern after release is common.
#[derive(Debug, Clone, Copy)]
enum Op {
    Intern(u64),
    Release(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..32).prop_map(Op::Intern),
        (0u64..32).prop_map(Op::Release),
        any::<u64>().prop_map(Op::Intern),
    ]
}

/// Applies `ops`, checking every step against a `BTreeMap` model, and
/// returns the full `(slot, fresh)` transcript for determinism checks.
fn run_checked(ops: &[Op]) -> Vec<(u32, bool)> {
    let mut t = IdTable::new();
    let mut model: BTreeMap<u64, u32> = BTreeMap::new();
    let mut peak = 0usize;
    let mut transcript = Vec::new();
    for &op in ops {
        match op {
            Op::Intern(id) => {
                let (slot, fresh) = t.intern(id);
                assert_eq!(
                    fresh,
                    !model.contains_key(&id),
                    "fresh iff the id was not live"
                );
                if let Some(&prev) = model.get(&id) {
                    assert_eq!(slot, prev, "re-intern of a live id keeps its slot");
                }
                model.insert(id, slot);
                peak = peak.max(model.len());
                transcript.push((slot, fresh));
            }
            Op::Release(id) => {
                assert_eq!(
                    t.release(id),
                    model.remove(&id),
                    "release returns the live slot, or None when dead"
                );
            }
        }
        // Invariants that must hold after every step.
        assert_eq!(t.iter().count(), model.len());
        assert!(
            t.slot_count() <= peak,
            "arena bounded by peak liveness: {} slots for peak {peak}",
            t.slot_count()
        );
        for (&id, &slot) in &model {
            assert_eq!(t.get(id), Some(slot), "live id {id} resolves");
            assert_eq!(t.ext(slot), id, "slot {slot} resolves back");
        }
    }
    // iter() lists exactly the live pairs (slot order, but the *set*
    // matches the model).
    let mut live: Vec<(u64, u32)> = t.iter().map(|(s, e)| (e, s)).collect();
    live.sort_unstable();
    let expect: Vec<(u64, u32)> = model.into_iter().collect();
    assert_eq!(live, expect);
    transcript
}

proptest! {
    /// Intern/release/re-intern matches the map model at every step, and
    /// the dense arena never outgrows peak concurrent liveness.
    #[test]
    fn schedule_matches_model(ops in prop::collection::vec(arb_op(), 0..200)) {
        run_checked(&ops);
    }

    /// Slot assignment is a pure function of the operation history: two
    /// fresh tables fed the same schedule produce identical `(slot,
    /// fresh)` transcripts. This is what lets a recorded run replay
    /// against a freshly built core.
    #[test]
    fn double_run_transcripts_are_equal(ops in prop::collection::vec(arb_op(), 0..200)) {
        prop_assert_eq!(run_checked(&ops), run_checked(&ops));
    }

    /// A slot handed out for an id is stable until that id is released,
    /// no matter what other ids come and go around it.
    #[test]
    fn live_slot_is_stable_under_churn(
        pinned in any::<u64>(),
        ops in prop::collection::vec(arb_op(), 0..200),
    ) {
        let mut t = IdTable::new();
        let (slot, fresh) = t.intern(pinned);
        prop_assert!(fresh);
        for op in ops {
            match op {
                Op::Intern(id) => {
                    let (s, f) = t.intern(id);
                    if id == pinned {
                        prop_assert_eq!((s, f), (slot, false));
                    } else {
                        prop_assert!(s != slot, "a live slot is never re-issued");
                    }
                }
                Op::Release(id) if id != pinned => {
                    t.release(id);
                }
                Op::Release(_) => {}
            }
            prop_assert_eq!(t.get(pinned), Some(slot));
        }
    }
}

/// Cross-check against a checked-in golden log of either type: the
/// recorded run verifies byte-identically through the interned core(s)
/// (streaming, the one generic verifier), and an `IdTable` driven by the
/// log's own session open/close stream agrees with a map model at every
/// batch.
fn log_drives_the_interner_consistently<L: Replayable>(log: &L) {
    let mut v = replay::StreamVerifier::for_log(log);
    let mut t = IdTable::new();
    let mut model: BTreeMap<u64, u32> = BTreeMap::new();
    for b in log.batches() {
        v.push(b).expect("golden batch verifies byte-identically");
        for e in b.events() {
            match *e {
                Event::SessionOpened { session } => {
                    let (slot, fresh) = t.intern(session);
                    assert_eq!(fresh, !model.contains_key(&session));
                    model.insert(session, slot);
                }
                Event::SessionClosed { session } | Event::SessionSevered { session } => {
                    assert_eq!(t.release(session), model.remove(&session));
                }
                _ => {}
            }
        }
        assert_eq!(t.iter().count(), model.len());
    }
    assert!(v.batches() > 0, "fixture is non-trivial");
}

#[test]
fn golden_log_drives_the_interner_consistently() {
    let log: EventLog =
        serde_json::from_str(include_str!("data/arbiter_log.json")).expect("golden log parses");
    log_drives_the_interner_consistently(&log);
    let log: PlacementLog =
        serde_json::from_str(include_str!("data/placement_log.json")).expect("golden log parses");
    log_drives_the_interner_consistently(&log);
}
