//! `slate-bench compare A.json B.json`: per workload, one row per
//! end-to-end metric with both medians, the ratio and its base, the
//! metric's bound and direction, and a verdict.

use crate::catalog::{Better, E2e, E2E};
use crate::report::{Metric, Report, WorkloadReport};
use crate::stats;

/// What a row concludes about B against A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// B is within the bound of A.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// Within a run, the middle half of the epochs' values is wider than the
    /// bound, and the two runs' middle halves overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The middle half of a metric's per-epoch values: first and third quartile
/// (nearest rank). With fewer than four values, their minimum and maximum.
fn range(m: &Metric) -> (f64, f64) {
    let mut v = m.segments.clone();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (m.value, m.value),
        1..=3 => (v[0], v[v.len() - 1]),
        _ => (stats::percentile(&v, 0.25), stats::percentile(&v, 0.75)),
    }
}

/// Verdict on metric `def` moving from `a` to `b`.
pub fn judge(def: &E2e, a: &Metric, b: &Metric) -> Verdict {
    // Signed so that positive is worse, as a share of A.
    let worse_by = match def.better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let spread = ((a_hi - a_lo) / a.value).max((b_hi - b_lo) / b.value);
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if spread > def.bound && overlap {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Worse
    } else if worse_by < -def.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn fail_share(w: &WorkloadReport) -> f64 {
    w.failed() as f64 / w.attempted().max(1) as f64
}

/// Compares two reports; `Ok(true)` when nothing got worse.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    if a.schema != b.schema {
        return Err(format!("schema differs: {} vs {}", a.schema, b.schema));
    }
    if a.seed != b.seed {
        return Err(format!("seed differs: {} vs {}", a.seed, b.seed));
    }
    if a.seconds != b.seconds || a.quick != b.quick {
        return Err(format!(
            "durations differ: {} s (quick {}) vs {} s (quick {})",
            a.seconds, a.quick, b.seconds, b.quick
        ));
    }
    println!(
        "A = {path_a}\nB = {path_b}\nseed {}  {} s per workload",
        a.seed, a.seconds
    );
    for (tag, r) in [("A", &a), ("B", &b)] {
        if r.hygiene.noisy {
            println!(
                "note: {tag} was flagged noisy (load average {} on {} CPUs)",
                r.hygiene.loadavg_1m_at_start, r.hygiene.nproc
            );
        }
    }
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>16} {:>6} {:<7} verdict",
        "workload", "metric", "A", "B", "B/A (base A)", "bound", "better"
    );
    let mut ok = true;
    let mut compared = 0;
    for wa in a.workloads.iter().filter(|w| !w.traced) {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name && !w.traced) else {
            println!("{:<14} only in A", wa.name);
            continue;
        };
        for def in &E2E {
            let (Some(ma), Some(mb)) = (wa.get(def.name), wb.get(def.name)) else {
                println!("{:<14} {:<18} missing in a report", wa.name, def.name);
                ok = false;
                continue;
            };
            let verdict = judge(def, ma, mb);
            ok &= verdict != Verdict::Worse;
            compared += 1;
            println!(
                "{:<14} {:<18} {:>14.4} {:>14.4} {:>16.4} {:>5.0}% {:<7} {}",
                wa.name,
                def.name,
                ma.value,
                mb.value,
                mb.value / ma.value,
                def.bound * 100.0,
                match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                },
                verdict.label()
            );
        }
        let (fa, fb) = (fail_share(wa), fail_share(wb));
        let failed_more = fb > fa;
        ok &= !failed_more && (wb.correct() || !wa.correct());
        println!(
            "{:<14} {:<18} {:>14.6} {:>14.6} {:>16} {:>6} {:<7} {}",
            wa.name,
            "fail_share",
            fa,
            fb,
            "",
            "0",
            "lower",
            if failed_more { "worse" } else { "same" }
        );
    }
    if compared == 0 {
        return Err("the reports share no untraced workload run".to_string());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, segments: &[f64]) -> Metric {
        Metric {
            name: "m".into(),
            unit: "us".into(),
            value,
            segments: segments.to_vec(),
            samples: 0,
        }
    }

    const LOWER: E2e = E2e {
        name: "m",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: E2e = E2e {
        name: "m",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let a = metric(100.0, &[99.0, 100.0, 101.0]);
        assert_eq!(
            judge(&LOWER, &a, &metric(105.0, &[104.0, 105.0, 106.0])),
            Verdict::Same
        );
        assert_eq!(
            judge(&LOWER, &a, &metric(120.0, &[119.0, 120.0, 121.0])),
            Verdict::Worse
        );
        assert_eq!(
            judge(&LOWER, &a, &metric(80.0, &[79.0, 80.0, 81.0])),
            Verdict::Better
        );
        assert_eq!(
            judge(&HIGHER, &a, &metric(80.0, &[79.0, 80.0, 81.0])),
            Verdict::Worse
        );
        assert_eq!(
            judge(&HIGHER, &a, &metric(120.0, &[119.0, 120.0, 121.0])),
            Verdict::Better
        );
    }

    #[test]
    fn wide_overlapping_segments_are_unresolved() {
        let a = metric(100.0, &[80.0, 100.0, 130.0]);
        let b = metric(120.0, &[95.0, 120.0, 140.0]);
        assert_eq!(judge(&LOWER, &a, &b), Verdict::Unresolved);
        // Wide but disjoint: every segment of B reads worse than every
        // segment of A.
        let c = metric(200.0, &[170.0, 200.0, 230.0]);
        assert_eq!(judge(&LOWER, &a, &c), Verdict::Worse);
        // With four epochs or more only the middle half counts: one stray
        // epoch on each side neither widens a run nor makes two overlap.
        let d = metric(100.0, &[60.0, 99.0, 100.0, 101.0, 102.0, 190.0]);
        let e = metric(130.0, &[70.0, 129.0, 130.0, 131.0, 132.0, 250.0]);
        assert_eq!(judge(&LOWER, &d, &e), Verdict::Worse);
    }
}
