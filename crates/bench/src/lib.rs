//! # slate-bench
//!
//! The scheduler's hot-path benchmark and its regression gate. The
//! `hotpaths` bench times the scheduler's own hot paths
//! ([`ArbiterCore::feed`](slate_core::arbiter::ArbiterCore) batch throughput,
//! [`partition`](slate_core::partition::partition), placement routing, and
//! a [`SimBackend`](slate_core::backend::SimBackend) drain) with its own
//! fixed-iteration harness and emits the machine-readable [`Report`] JSON
//! that CI's regression gate (`bench_gate`) compares against the committed
//! `BENCH_baseline.json`. The paper's sweeps are regenerated by
//! `slate-repro`; what a client sees end to end is measured by the
//! `slatebench/` package.
//!
//! Run with `cargo bench --workspace`; emit the report with
//! `cargo bench -p slate-bench --bench hotpaths -- --json out.json`
//! (or via the `SLATE_BENCH_JSON` environment variable).

use serde::{Deserialize, Serialize};

/// Version stamp of the report layout; the gate refuses to compare
/// mismatched schemas instead of silently misreading fields.
pub const REPORT_SCHEMA: u32 = 1;

/// One benchmark's measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchMeasurement {
    /// Stable bench name (the gate matches baseline to current by it).
    pub name: String,
    /// Whether the hard regression gate applies to this bench (soft
    /// warnings apply to every bench regardless).
    pub gated: bool,
    /// Timed iterations per run.
    pub iters: u64,
    /// Best-of-runs nanoseconds per iteration (minimum over the
    /// measurement runs — the least-noise estimate of the true cost).
    pub ns_per_iter: f64,
    /// Work items (events, calls, blocks) per iteration, so throughput
    /// can be derived as `items_per_iter / ns_per_iter` Gops.
    pub items_per_iter: u64,
}

/// The machine-readable report `hotpaths` emits and `bench_gate` compares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Layout version ([`REPORT_SCHEMA`]).
    pub schema: u32,
    /// The measurements, in execution order.
    pub benches: Vec<BenchMeasurement>,
}

impl Report {
    /// The measurement named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&BenchMeasurement> {
        self.benches.iter().find(|b| b.name == name)
    }
}
