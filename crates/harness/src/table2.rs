//! Table II — benchmark profiles.
//!
//! Each application runs solo under vanilla CUDA at the paper problem size;
//! nvprof-style counters give its GFLOP/s and global load+store bandwidth,
//! which must land near the paper's measurements and classify identically.

use crate::report::{f, Report, Table};
use slate_core::classify::classify_measured;
use slate_core::profile::profile_kernel;
use slate_gpu_sim::device::DeviceConfig;
use slate_kernels::workload::Benchmark;

/// Measured profile row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark.
    pub bench: Benchmark,
    /// Measured GFLOP/s (solo, CUDA).
    pub gflops: f64,
    /// Measured request bandwidth GB/s.
    pub gbs: f64,
}

/// Runs the Table II measurement.
pub fn run(cfg: &DeviceConfig) -> (Vec<Row>, Report) {
    let mut report = Report::new(
        "table2",
        "Benchmark profiles (solo CUDA)",
        "BS 161.3 GFLOP/s / 401.5 GB/s (Med/Med); GS 19.6 / 340.9 (Low/Med); \
         MM 1525 / 403.5 (High/Med); RG 4.2 / 71.6 (Low/Low); TR 0.0 / 568.6 (Low/High).",
    );
    let mut t = Table::new(
        "Benchmark profiles",
        &[
            "Benchmark",
            "Compute",
            "Memory",
            "GFLOP/s (paper)",
            "GFLOP/s (measured)",
            "GB/s (paper)",
            "GB/s (measured)",
            "Class",
        ],
    );
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let app = b.app();
        let p = profile_kernel(cfg, &app.perf, app.blocks_per_launch)
            .expect("built-in benchmark profiles are launchable");
        let (gf_ref, gb_ref) = b.paper_reference();
        let (ci, mi) = b.intensity();
        t.row(&[
            format!("{} ({})", b.full_name(), b.abbrev()),
            ci.to_string(),
            mi.to_string(),
            f(gf_ref, 1),
            f(p.gflops, 1),
            f(gb_ref, 1),
            f(p.bandwidth_gbs, 1),
            p.class.label().to_string(),
        ]);
        // Classification must reproduce exactly; figures within 15%.
        let class_ok = p.class == classify_measured(gf_ref, gb_ref);
        report.check(
            &format!("{} classifies as in the paper", b.abbrev()),
            class_ok,
        );
        let gb_ok = (p.bandwidth_gbs - gb_ref).abs() / gb_ref < 0.15;
        report.check(
            &format!("{} bandwidth within 15% of paper", b.abbrev()),
            gb_ok,
        );
        if gf_ref > 1.0 {
            report.check(
                &format!("{} GFLOP/s within 15% of paper", b.abbrev()),
                (p.gflops - gf_ref).abs() / gf_ref < 0.15,
            );
        }
        rows.push(Row {
            bench: b,
            gflops: p.gflops,
            gbs: p.bandwidth_gbs,
        });
    }
    report.tables.push(t);
    (rows, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_reproduces() {
        let (rows, report) = run(&DeviceConfig::titan_xp());
        assert_eq!(rows.len(), 5);
        assert!(report.all_pass(), "{}", report.to_text());
    }
}
