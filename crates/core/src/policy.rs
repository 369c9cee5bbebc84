//! The heuristic scheduling policy (paper Table I).
//!
//! An empirically derived matrix over workload-class pairs: "corun" when
//! the two classes are complementary (their concurrent execution yields a
//! better average normalized turnaround time than running consecutively),
//! "solo" otherwise. The matrix is reproduced verbatim from the paper,
//! including its asymmetric entries; [`should_corun`] takes the
//! conservative symmetric closure (co-run only if both directions say so),
//! which is the decision Slate needs for a pair.

use crate::classify::WorkloadClass;
use serde::{Deserialize, Serialize};

/// A policy verdict for a kernel pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Run the kernels concurrently on disjoint SM partitions.
    Corun,
    /// Run the kernels consecutively, each solo on the whole device.
    Solo,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Corun => "corun",
            Verdict::Solo => "solo",
        })
    }
}

use Verdict::{Corun, Solo};

/// Table I verbatim: rows indexed by the running kernel's class, columns by
/// the candidate's class, both in [`WorkloadClass::ALL`] order
/// (L_C, M_C, H_C, M_M, H_M).
pub const TABLE: [[Verdict; 5]; 5] = [
    // running \ candidate:  L_C    M_C    H_C    M_M    H_M
    /* L_C */
    [Corun, Corun, Solo, Corun, Corun],
    /* M_C */ [Corun, Corun, Solo, Solo, Corun],
    /* H_C */ [Solo, Solo, Solo, Solo, Corun],
    /* M_M */ [Corun, Solo, Corun, Solo, Solo],
    /* H_M */ [Corun, Corun, Solo, Solo, Solo],
];

fn idx(c: WorkloadClass) -> usize {
    WorkloadClass::ALL
        .iter()
        .position(|&x| x == c)
        .expect("class in ALL")
}

/// Raw table lookup: verdict for `candidate` joining `running`.
pub fn lookup(running: WorkloadClass, candidate: WorkloadClass) -> Verdict {
    TABLE[idx(running)][idx(candidate)]
}

/// The pair decision Slate uses: co-run only when the table agrees in both
/// directions (symmetric closure of the published matrix).
pub fn should_corun(a: WorkloadClass, b: WorkloadClass) -> bool {
    lookup(a, b) == Corun && lookup(b, a) == Corun
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::WorkloadClass::*;

    #[test]
    fn table_matches_paper_row_by_row() {
        // Spot-check every row against the published Table I.
        assert_eq!(lookup(LC, LC), Corun);
        assert_eq!(lookup(LC, HC), Solo);
        assert_eq!(lookup(LC, HM), Corun);
        assert_eq!(lookup(MC, MM), Solo);
        assert_eq!(lookup(MC, HM), Corun);
        assert_eq!(lookup(HC, HC), Solo);
        assert_eq!(lookup(HC, HM), Corun);
        assert_eq!(lookup(MM, LC), Corun);
        assert_eq!(lookup(MM, HC), Corun); // asymmetric vs (HC, MM) = Solo
        assert_eq!(lookup(MM, MM), Solo);
        assert_eq!(lookup(HM, LC), Corun);
        assert_eq!(lookup(HM, HM), Solo);
    }

    #[test]
    fn symmetric_closure_resolves_asymmetries_to_solo() {
        assert_eq!(lookup(MM, HC), Corun);
        assert_eq!(lookup(HC, MM), Solo);
        assert!(!should_corun(MM, HC));
        assert!(!should_corun(HC, MM));
    }

    /// The decisions the paper reports for its benchmark set: RG (L_C)
    /// coruns with everything; all other pairs run solo.
    #[test]
    fn paper_benchmark_decisions() {
        // BS, GS, MM are M_M; RG is L_C; TR is H_M.
        for &other in &[MM, HM, LC] {
            assert!(should_corun(LC, other), "RG pairs corun with {other:?}");
        }
        assert!(!should_corun(MM, MM), "BS-GS/BS-MM/GS-MM run solo");
        assert!(!should_corun(MM, HM), "TR pairs with M_M run solo");
        assert!(!should_corun(HM, HM), "TR-TR runs solo");
    }

    #[test]
    fn should_corun_is_symmetric() {
        for &a in &WorkloadClass::ALL {
            for &b in &WorkloadClass::ALL {
                assert_eq!(should_corun(a, b), should_corun(b, a), "{a:?} {b:?}");
            }
        }
    }
}
