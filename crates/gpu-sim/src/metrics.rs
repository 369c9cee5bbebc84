//! Performance counters and `nvprof`-style reports.
//!
//! [`SliceReport`] is what the engine hands back for every grid slice:
//! blocks completed, active/stall time, instructions, flops and bytes.
//! Derived metrics (IPC, GFLOP/s, achieved bandwidth, memory-throttle stall
//! percentage) match the counters the paper reports in Tables II–IV.
//! [`KernelMetrics`] aggregates many slices of one logical kernel execution
//! (e.g. across resize relaunches or repetition loops).

use crate::device::SmRange;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Accumulated counters of one grid slice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SliceReport {
    /// Kernel name (shared with the profile the slice ran).
    pub kernel: Arc<str>,
    /// Caller-assigned attribution tag.
    pub tag: u64,
    /// SM range the slice ran on.
    pub sm_range: SmRange,
    /// Blocks the slice was created with.
    pub blocks_total: u64,
    /// Blocks actually completed (≤ `blocks_total`; less if removed early).
    pub blocks_done: u64,
    /// Whether the slice drained completely.
    pub drained: bool,
    /// Seconds spent actively executing (excludes launch lead-in).
    pub active_s: f64,
    /// Seconds-equivalent spent stalled on memory throttling.
    pub stall_s: f64,
    /// Dynamic instructions executed (including injected ones).
    pub insts: f64,
    /// Single-precision flops executed.
    pub flops: f64,
    /// Global load+store request bytes (the nvprof gld+gst metric).
    pub request_bytes: f64,
    /// DRAM bytes actually moved.
    pub dram_bytes: f64,
    /// Task-queue atomic pulls performed (Slate mode only).
    pub queue_pulls: f64,
    /// SM cycles elapsed while active (`active_s * clock`).
    pub cycles: f64,
    /// Number of SMs in the range.
    pub sms: u32,
}

impl SliceReport {
    /// Instructions per cycle per SM — the nvprof `ipc` metric.
    pub fn ipc(&self) -> f64 {
        if self.cycles <= 0.0 || self.sms == 0 {
            0.0
        } else {
            self.insts / (self.cycles * self.sms as f64)
        }
    }

    /// Achieved compute rate in GFLOP/s.
    pub fn gflops(&self) -> f64 {
        if self.active_s <= 0.0 {
            0.0
        } else {
            self.flops / self.active_s / 1e9
        }
    }

    /// Achieved global load+store request bandwidth in GB/s.
    pub fn request_bw(&self) -> f64 {
        if self.active_s <= 0.0 {
            0.0
        } else {
            self.request_bytes / self.active_s / 1e9
        }
    }

    /// Achieved DRAM bandwidth in GB/s.
    pub fn dram_bw(&self) -> f64 {
        if self.active_s <= 0.0 {
            0.0
        } else {
            self.dram_bytes / self.active_s / 1e9
        }
    }

    /// Fraction of active time stalled on memory throttling, in `[0, 1]`.
    pub fn stall_fraction(&self) -> f64 {
        if self.active_s <= 0.0 {
            0.0
        } else {
            (self.stall_s / self.active_s).clamp(0.0, 1.0)
        }
    }
}

/// Aggregate of many slices belonging to one logical kernel execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelMetrics {
    /// Kernel name (taken from the first merged report).
    pub kernel: String,
    /// Total blocks completed.
    pub blocks_done: u64,
    /// Total active seconds (sums slice activity; overlapping slices of the
    /// same kernel double-count, which matches per-kernel nvprof semantics).
    pub active_s: f64,
    /// Total stall seconds.
    pub stall_s: f64,
    /// Total instructions.
    pub insts: f64,
    /// Total flops.
    pub flops: f64,
    /// Total request bytes.
    pub request_bytes: f64,
    /// Total DRAM bytes.
    pub dram_bytes: f64,
    /// Total queue pulls.
    pub queue_pulls: f64,
    /// SM-cycles (cycles x SMs) accumulated, for IPC.
    pub sm_cycles: f64,
    /// Number of slices merged.
    pub slices: u32,
}

impl KernelMetrics {
    /// Creates an empty aggregate for a kernel name.
    pub fn new(kernel: &str) -> Self {
        Self {
            kernel: kernel.to_string(),
            ..Default::default()
        }
    }

    /// Merges one slice report into the aggregate.
    pub fn merge(&mut self, rep: &SliceReport) {
        if self.kernel.is_empty() {
            self.kernel = rep.kernel.to_string();
        }
        self.blocks_done += rep.blocks_done;
        self.active_s += rep.active_s;
        self.stall_s += rep.stall_s;
        self.insts += rep.insts;
        self.flops += rep.flops;
        self.request_bytes += rep.request_bytes;
        self.dram_bytes += rep.dram_bytes;
        self.queue_pulls += rep.queue_pulls;
        self.sm_cycles += rep.cycles * rep.sms as f64;
        self.slices += 1;
    }

    /// Instructions per cycle per SM across all merged slices.
    pub fn ipc(&self) -> f64 {
        if self.sm_cycles <= 0.0 {
            0.0
        } else {
            self.insts / self.sm_cycles
        }
    }

    /// GFLOP/s over active time.
    pub fn gflops(&self) -> f64 {
        if self.active_s <= 0.0 {
            0.0
        } else {
            self.flops / self.active_s / 1e9
        }
    }

    /// Request bandwidth (GB/s) over active time.
    pub fn request_bw(&self) -> f64 {
        if self.active_s <= 0.0 {
            0.0
        } else {
            self.request_bytes / self.active_s / 1e9
        }
    }

    /// Stall fraction over active time.
    pub fn stall_fraction(&self) -> f64 {
        if self.active_s <= 0.0 {
            0.0
        } else {
            (self.stall_s / self.active_s).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SliceReport {
        SliceReport {
            kernel: "k".into(),
            tag: 0,
            sm_range: SmRange::new(0, 29),
            blocks_total: 100,
            blocks_done: 100,
            drained: true,
            active_s: 2.0,
            stall_s: 0.5,
            insts: 60e9,
            flops: 20e9,
            request_bytes: 800e9,
            dram_bytes: 600e9,
            queue_pulls: 10.0,
            cycles: 2.0 * 1.48e9,
            sms: 30,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.gflops() - 10.0).abs() < 1e-9);
        assert!((r.request_bw() - 400.0).abs() < 1e-9);
        assert!((r.dram_bw() - 300.0).abs() < 1e-9);
        assert!((r.stall_fraction() - 0.25).abs() < 1e-12);
        let ipc = r.insts / (r.cycles * 30.0);
        assert!((r.ipc() - ipc).abs() < 1e-12);
    }

    #[test]
    fn zero_time_reports_zero() {
        let mut r = report();
        r.active_s = 0.0;
        r.cycles = 0.0;
        assert_eq!(r.gflops(), 0.0);
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.stall_fraction(), 0.0);
    }

    #[test]
    fn aggregate_merges_two_slices() {
        let mut agg = KernelMetrics::new("k");
        agg.merge(&report());
        agg.merge(&report());
        assert_eq!(agg.slices, 2);
        assert_eq!(agg.blocks_done, 200);
        assert!(
            (agg.gflops() - 10.0).abs() < 1e-9,
            "rates unchanged by merging equal slices"
        );
        assert!((agg.ipc() - report().ipc()).abs() < 1e-12);
    }

    #[test]
    fn merge_fills_kernel_name() {
        let mut agg = KernelMetrics::default();
        agg.merge(&report());
        assert_eq!(agg.kernel, "k");
    }
}
