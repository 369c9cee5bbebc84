//! Concurrent kernel selection (paper §III-B, Fig. 4).
//!
//! When kernel `J_k` is active and others wait, Slate examines the waiting
//! queue in order for a kernel whose workload class is complementary to the
//! active one under the heuristic policy (Table I); if none is found, `J_k`
//! runs solo on the whole device. The complementarity criterion is ANTT:
//! co-running wins when `max(T'_k, T'_{k+1}) < T_k + T_{k+1}`.

use crate::classify::WorkloadClass;
use crate::policy::should_corun;
use std::cmp::Reverse;

/// Margin used when deriving a policy from measurements: a co-run must beat
/// consecutive execution by at least this fraction to be worth the
/// scheduling risk (break-even pairs default to solo).
pub const PROFIT_MARGIN: f64 = 0.02;

/// The policy-derivation criterion: concurrent execution
/// (`max(T'_k, T'_{k+1})`) must clearly beat consecutive execution
/// (`T_k + T_{k+1}`), by [`PROFIT_MARGIN`].
pub fn corun_clearly_profitable(t_a: f64, t_b: f64, t_a_corun: f64, t_b_corun: f64) -> bool {
    t_a_corun.max(t_b_corun) < (t_a + t_b) * (1.0 - PROFIT_MARGIN)
}

/// A waiting kernel as seen by the wait-aware selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartnerCandidate {
    /// The candidate's workload class.
    pub class: WorkloadClass,
    /// How long the candidate has waited in the queue, in seconds.
    pub waited_s: f64,
    /// Stable arrival order (lower = arrived earlier). This is the
    /// deterministic tie-break when wait times compare equal.
    pub order: u64,
}

/// Deterministic, wait-aware partner choice: among candidates complementary
/// to `active` (Table I symmetric closure), pick the one that has waited
/// longest; break exact wait-time ties by stable arrival order. Returns the
/// index into `candidates`.
///
/// The arbiter's co-run join (`arbiter/decide.rs`) calls this only while
/// no waiter has starved past the aging bound: starvation refuses the
/// pairing there, and the starved waiter is dispatched solo once the
/// device frees.
pub fn select_partner(active: WorkloadClass, candidates: &[PartnerCandidate]) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| should_corun(active, c.class))
        .max_by(|(_, a), (_, b)| {
            a.waited_s
                .total_cmp(&b.waited_s)
                .then_with(|| Reverse(a.order).cmp(&Reverse(b.order)))
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::WorkloadClass::*;

    #[test]
    fn antt_criterion_matches_paper_definition() {
        // Solo 10s each; corun stretches both to 12s: 12 < 20 -> profitable.
        assert!(corun_clearly_profitable(10.0, 10.0, 12.0, 12.0));
        // Corun doubles both: 20 == 20 -> not profitable (strict).
        assert!(!corun_clearly_profitable(10.0, 10.0, 20.0, 20.0));
        // Asymmetric: the slower co-runner decides.
        assert!(!corun_clearly_profitable(10.0, 10.0, 21.0, 5.0));
        assert!(corun_clearly_profitable(10.0, 10.0, 19.0, 5.0));
    }

    #[test]
    fn margin_criterion_rejects_break_even() {
        // 19.9 < 20 beats consecutive execution, but not by the margin.
        assert!(!corun_clearly_profitable(10.0, 10.0, 19.9, 19.9));
        assert!(corun_clearly_profitable(10.0, 10.0, 15.0, 15.0));
    }

    #[test]
    fn finds_first_complementary_in_queue_order() {
        // Equal waits, active M_M: M_M no, H_M no, L_C yes.
        let waiting = [cand(MM, 1.0, 0), cand(HM, 1.0, 1), cand(LC, 1.0, 2)];
        assert_eq!(select_partner(MM, &waiting), Some(2));
    }

    fn cand(class: WorkloadClass, waited_s: f64, order: u64) -> PartnerCandidate {
        PartnerCandidate {
            class,
            waited_s,
            order,
        }
    }

    #[test]
    fn select_partner_prefers_longest_wait() {
        let cands = [cand(LC, 0.5, 0), cand(MM, 9.0, 1), cand(LC, 2.0, 2)];
        // Active MM: MM candidate is not complementary despite its wait.
        assert_eq!(select_partner(MM, &cands), Some(2));
    }

    #[test]
    fn equal_scores_tie_break_deterministically_by_arrival_order() {
        // Regression: the cursor scan returned whichever complementary
        // candidate the rotating cursor landed on. With identical waits the
        // earliest arrival must win, every time.
        let cands = [cand(LC, 1.0, 7), cand(LC, 1.0, 3), cand(LC, 1.0, 5)];
        for _ in 0..16 {
            assert_eq!(select_partner(MM, &cands), Some(1));
        }
        // Reordering the slice cannot change which *kernel* wins.
        let swapped = [cands[2], cands[0], cands[1]];
        assert_eq!(select_partner(MM, &swapped), Some(2));
        assert_eq!(swapped[2].order, 3);
    }

    #[test]
    fn select_partner_none_when_nothing_complementary() {
        assert_eq!(
            select_partner(MM, &[cand(MM, 4.0, 0), cand(HM, 2.0, 1)]),
            None
        );
        assert_eq!(select_partner(MM, &[]), None);
    }
}
