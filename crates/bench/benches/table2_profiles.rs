//! Table II bench — first-run kernel profiling cost.
//!
//! Slate profiles each kernel once and caches the result; this bench
//! measures how much that first run costs per benchmark (it must be cheap —
//! the paper counts it as offline). The Table II figures themselves are
//! regenerated and shape-checked in the setup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slate_core::profile::profile_kernel;
use slate_gpu_sim::device::DeviceConfig;
use slate_harness::table2;
use slate_kernels::workload::Benchmark;

fn bench(c: &mut Criterion) {
    let cfg = DeviceConfig::titan_xp();

    let (_, report) = table2::run(&cfg);
    println!("{}", report.to_text());
    assert!(report.all_pass(), "Table II regressed");

    let mut g = c.benchmark_group("table2_profile_kernel");
    g.sample_size(30);
    for b in Benchmark::ALL {
        let app = b.app();
        g.bench_with_input(BenchmarkId::from_parameter(b.abbrev()), &app, |bch, app| {
            bch.iter(|| profile_kernel(&cfg, &app.perf, app.blocks_per_launch).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
