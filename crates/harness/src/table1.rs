//! Table I — empirical validation of the heuristic policy.
//!
//! The paper derives its corun/solo matrix from empirical results. This
//! experiment rebuilds that derivation on the simulator: for every pair of
//! workload classes it constructs synthetic representative kernels,
//! measures consecutive ANTT (`T_a + T_b`) against concurrent ANTT
//! (`max(T'_a, T'_b)`, with Slate's partition-and-resize behaviour), and
//! compares the measured verdict with the published matrix.
//!
//! Full agreement is not expected: the published table is asymmetric in two
//! cells (so no symmetric measurement can match both directions), and our
//! generous resize model makes co-running with a parallelism-capped L_C
//! kernel profitable even where the paper chose solo.

use crate::report::{f, Report, Table};
use slate_core::classify::WorkloadClass;
use slate_core::partition::partition;
use slate_core::policy::{lookup, Verdict};
use slate_core::select::corun_clearly_profitable;
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::engine::{Engine, Event, SliceId, SliceSpec};
use slate_gpu_sim::model;
use slate_gpu_sim::perf::{ExecMode, KernelPerf};

/// Synthetic representative kernel for a workload class.
pub fn class_kernel(class: WorkloadClass) -> KernelPerf {
    match class {
        // Low compute, low memory, parallelism-capped (the RG shape).
        WorkloadClass::LC => {
            let mut p = KernelPerf::synthetic("syn_LC", 2600.0, 0.0);
            p.threads_per_block = 128;
            p.regs_per_thread = 120;
            p.mem_request_bytes_per_block = 16_000.0;
            p.dram_bytes_inorder = 16_000.0;
            p.dram_bytes_scattered = 16_000.0;
            p.max_concurrent_blocks = Some(60);
            p.l2_footprint_bytes = 0.1e6;
            p
        }
        // Medium compute, low memory: scales with SMs, light traffic.
        WorkloadClass::MC => {
            let mut p = KernelPerf::synthetic("syn_MC", 8_000.0, 0.0);
            p.flops_per_block = 2_600.0 * 30.0; // ~430 GFLOP/s solo
            p.mem_request_bytes_per_block = 9_000.0; // ~50 GB/s solo
            p.dram_bytes_inorder = 9_000.0;
            p.dram_bytes_scattered = 9_000.0;
            p.l2_footprint_bytes = 0.1e6;
            p
        }
        // High compute: pipeline-saturating, negligible traffic.
        WorkloadClass::HC => {
            let mut p = KernelPerf::synthetic("syn_HC", 20_000.0, 0.0);
            p.flops_per_block = 40_000.0 * 30.0; // multi-TFLOP/s solo
            p.mem_request_bytes_per_block = 4_000.0;
            p.dram_bytes_inorder = 4_000.0;
            p.dram_bytes_scattered = 4_000.0;
            p.l2_footprint_bytes = 0.1e6;
            p
        }
        // Medium memory with cache-held locality (the GS/BS shape).
        WorkloadClass::MM => {
            let mut p = KernelPerf::synthetic("syn_MM", 1_200.0, 0.0);
            p.mem_request_bytes_per_block = 11_000.0; // ~400 GB/s solo
            p.dram_bytes_inorder = 9_000.0;
            p.dram_bytes_scattered = 11_500.0;
            p.l2_footprint_bytes = 2.0e6; // corun pressure evicts locality
            p
        }
        // High memory: DRAM-saturating streaming (the TR shape).
        WorkloadClass::HM => {
            let mut p = KernelPerf::synthetic("syn_HM", 350.0, 0.0);
            p.mem_request_bytes_per_block = 9_000.0;
            p.dram_bytes_inorder = 7_500.0;
            p.dram_bytes_scattered = 7_800.0;
            p.l2_footprint_bytes = 1.5e6;
            p
        }
    }
}

const MODE: ExecMode = ExecMode::SlateWorkers { task_size: 10 };

/// Blocks giving this kernel a ~0.2 s solo Slate run.
fn sized_blocks(cfg: &DeviceConfig, p: &KernelPerf) -> u64 {
    let r = model::steady_rate(cfg, p, cfg.num_sms, MODE);
    (r * 0.2) as u64
}

fn solo_time(cfg: &DeviceConfig, p: &KernelPerf, blocks: u64) -> f64 {
    let mut e = Engine::new(cfg.clone());
    let id = e
        .add_slice(SliceSpec {
            perf: p.clone(),
            sm_range: SmRange::all(cfg.num_sms),
            blocks,
            mode: MODE,
            extra_lead_s: 0.0,
            batch: 1,
            tag: 0,
        })
        .expect("solo launch");
    let (t, _) = e
        .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
        .expect("drains");
    let _ = e.remove_slice(id);
    t
}

/// Measures the concurrent completion times of a pair under Slate's
/// partition-and-resize discipline. Returns `(T'_a, T'_b)`.
pub fn corun_times(
    cfg: &DeviceConfig,
    pa: &KernelPerf,
    pb: &KernelPerf,
    blocks_a: u64,
    blocks_b: u64,
) -> (f64, f64) {
    let da = model::sm_demand(cfg, pa, MODE, 0.9);
    let db = model::sm_demand(cfg, pb, MODE, 0.9);
    let part = partition(cfg, da, db);
    let mut e = Engine::new(cfg.clone());
    let mk = |perf: &KernelPerf, blocks, range, tag| SliceSpec {
        perf: perf.clone(),
        sm_range: range,
        blocks,
        mode: MODE,
        extra_lead_s: 0.0,
        batch: 1,
        tag,
    };
    let ida = e.add_slice(mk(pa, blocks_a, part.a, 0)).unwrap();
    let idb = e.add_slice(mk(pb, blocks_b, part.b, 1)).unwrap();
    let (t_first, ev) = e
        .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
        .expect("first drain");
    let Event::SliceDrained(first) = ev else {
        unreachable!()
    };
    let survivor: SliceId = if first == ida { idb } else { ida };
    let _ = e.remove_slice(first);
    // The survivor grows to the whole device (dispatch-kernel relaunch).
    let remaining = e.blocks_remaining(survivor);
    let surv_rep = e.remove_slice(survivor);
    let surv_perf = if first == ida { pb } else { pa };
    let _ = surv_rep;
    let regrown = e
        .add_slice(mk(
            surv_perf,
            remaining.max(1),
            SmRange::all(cfg.num_sms),
            2,
        ))
        .unwrap();
    let (t_second, _) = e
        .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
        .expect("second drain");
    let _ = e.remove_slice(regrown);
    if first == ida {
        (t_first, t_second)
    } else {
        (t_second, t_first)
    }
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The class pair.
    pub pair: (WorkloadClass, WorkloadClass),
    /// Published verdicts (row->col, col->row).
    pub published: (Verdict, Verdict),
    /// Measured verdict (symmetric).
    pub measured: Verdict,
    /// Measured ANTT ratio `concurrent / consecutive` (<1 favours corun).
    pub antt_ratio: f64,
}

/// Runs the validation over all 15 unordered class pairs.
pub fn run(cfg: &DeviceConfig) -> (Vec<Cell>, Report) {
    let mut report = Report::new(
        "table1",
        "Heuristic policy table: published vs measured",
        "The corun/solo matrix is derived from empirical results: \
         complementary classes (low-intensity with memory- or compute-heavy) \
         co-run; same-bottleneck pairs (H_C x H_C, M_M x M_M, H_M x H_M) \
         run solo.",
    );
    let mut t = Table::new(
        "Policy validation (ANTT ratio < 1 favours corun)",
        &["Pair", "Published", "Measured", "ANTT ratio", "Agree"],
    );

    let classes = WorkloadClass::ALL;
    let mut cells = Vec::new();
    let mut agree = 0usize;
    for (i, &a) in classes.iter().enumerate() {
        for &b in &classes[i..] {
            let (pa, pb) = (class_kernel(a), class_kernel(b));
            let (na, nb) = (sized_blocks(cfg, &pa), sized_blocks(cfg, &pb));
            let ta = solo_time(cfg, &pa, na);
            let tb = solo_time(cfg, &pb, nb);
            let (ta2, tb2) = corun_times(cfg, &pa, &pb, na, nb);
            let profitable = corun_clearly_profitable(ta, tb, ta2, tb2);
            let measured = if profitable {
                Verdict::Corun
            } else {
                Verdict::Solo
            };
            let published = (lookup(a, b), lookup(b, a));
            let cell_agree = published.0 == measured || published.1 == measured;
            agree += usize::from(cell_agree);
            let ratio = ta2.max(tb2) / (ta + tb);
            t.row(&[
                format!("{}-{}", a.label(), b.label()),
                if published.0 == published.1 {
                    published.0.to_string()
                } else {
                    format!("{}/{}", published.0, published.1)
                },
                measured.to_string(),
                f(ratio, 3),
                if cell_agree { "yes" } else { "no" }.to_string(),
            ]);
            cells.push(Cell {
                pair: (a, b),
                published,
                measured,
                antt_ratio: ratio,
            });
        }
    }
    report.tables.push(t);
    report.note(format!("agreement: {agree}/15 unordered pairs"));

    let find = |a: WorkloadClass, b: WorkloadClass| {
        cells
            .iter()
            .find(|c| c.pair == (a, b) || c.pair == (b, a))
            .unwrap()
    };
    use WorkloadClass::*;
    report.note(
        "expected disagreements: L_C-H_C (our resize model makes hosting the \
         capped L_C kernel free) and the break-even M_C-M_C cell",
    );
    report.check(
        "measured agrees with the table on most cells (>= 11/15)",
        agree >= 11,
    );
    report.check(
        "L_C co-runs profitably with M_M and H_M (the RG mechanism)",
        find(LC, MM).measured == Verdict::Corun && find(LC, HM).measured == Verdict::Corun,
    );
    report.check(
        "same-bottleneck memory pairs measure solo (M_M-M_M, H_M-H_M)",
        find(MM, MM).measured == Verdict::Solo && find(HM, HM).measured == Verdict::Solo,
    );
    report.check(
        "H_C x H_C measures solo (no spare pipeline to share)",
        find(HC, HC).measured == Verdict::Solo,
    );
    (cells, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_validation_agrees() {
        let (cells, report) = run(&DeviceConfig::titan_xp());
        assert_eq!(cells.len(), 15);
        assert!(report.all_pass(), "{}", report.to_text());
    }

    #[test]
    fn class_kernels_classify_as_their_class() {
        use slate_core::profile::profile_kernel;
        let cfg = DeviceConfig::titan_xp();
        for class in WorkloadClass::ALL {
            let p = class_kernel(class);
            let blocks = sized_blocks(&cfg, &p);
            let prof = profile_kernel(&cfg, &p, blocks).unwrap();
            assert_eq!(
                prof.class, class,
                "{class:?}: measured {:.1} GFLOP/s {:.1} GB/s",
                prof.gflops, prof.bandwidth_gbs
            );
        }
    }
}
