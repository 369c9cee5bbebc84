//! Per-kernel performance profiles consumed by the fluid-rate engine.
//!
//! A [`KernelPerf`] describes how much work one *user thread block* of a
//! kernel performs along each hardware dimension: compute cycles,
//! instructions, flops, memory request bytes (what `nvprof` reports as
//! global load/store throughput), and DRAM traffic. DRAM traffic is given
//! twice — for *in-order* block execution (Slate's queue order, which
//! preserves inter-block locality) and *scattered* execution (the hardware
//! scheduler's order) — because the difference between those two figures is
//! precisely the locality effect the paper measures for Gaussian (Table III).

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Block issue order, which determines inter-block data locality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockOrder {
    /// Blocks executed in grid order (Slate's task queue): consecutive
    /// blocks reuse cached data, DRAM traffic is `dram_bytes_inorder`.
    InOrder,
    /// Blocks executed in the hardware scheduler's scattered order:
    /// DRAM traffic is `dram_bytes_scattered`.
    Scattered,
}

/// How thread blocks of a grid slice are driven onto the SMs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExecMode {
    /// Hardware block scheduler: every thread block pays the dispatch/setup
    /// cost, blocks arrive in scattered order, no queue atomics.
    Hardware,
    /// Slate persistent workers: workers pay setup once per (re)launch, pull
    /// `task_size` user blocks per global atomic, execute them in order, and
    /// run the injected scheduling instructions.
    SlateWorkers {
        /// User blocks per task (`SLATE_ITERS`); the paper's default is 10.
        task_size: u32,
    },
}

impl ExecMode {
    /// The block issue order implied by the execution mode.
    pub fn order(&self) -> BlockOrder {
        match self {
            ExecMode::Hardware => BlockOrder::Scattered,
            ExecMode::SlateWorkers { .. } => BlockOrder::InOrder,
        }
    }
}

/// Performance profile of a kernel, per user thread block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelPerf {
    /// Kernel name (for metrics attribution). Shared, not copied: a
    /// profile is cloned into every slice of every launch.
    pub name: Arc<str>,
    /// Threads per block (inner block geometry, unchanged by Slate).
    pub threads_per_block: u32,
    /// Registers per thread (occupancy limit).
    pub regs_per_thread: u32,
    /// Static shared memory per block in bytes (occupancy limit).
    pub smem_per_block: u32,
    /// SM cycles to execute one block's instructions at full issue rate.
    /// Covers both arithmetic and issue-bound work.
    pub compute_cycles_per_block: f64,
    /// Dynamic instructions per block (for IPC reporting).
    pub insts_per_block: f64,
    /// Single-precision flops per block (for GFLOP/s reporting).
    pub flops_per_block: f64,
    /// Global load+store request bytes per block, as seen at L2
    /// (the `gld_throughput + gst_throughput` metric of Table II).
    pub mem_request_bytes_per_block: f64,
    /// DRAM bytes per block when blocks run in grid order.
    pub dram_bytes_inorder: f64,
    /// DRAM bytes per block when blocks run in scattered order.
    /// Must be `>= dram_bytes_inorder`.
    pub dram_bytes_scattered: f64,
    /// Bytes of L2 working set this kernel keeps live while running; used by
    /// the cache-interference model when kernels co-run.
    pub l2_footprint_bytes: f64,
    /// Extra instructions per block injected by Slate's transformation
    /// (Listing 1 gate + Listing 2 loop); ~3% of the kernel's own count for
    /// BlackScholes in the paper.
    pub inject_insts_per_block: f64,
    /// Extra cycles per block spent executing the injected instructions.
    pub inject_cycles_per_block: f64,
    /// Maximum thread blocks the kernel can usefully keep in flight
    /// (`None` = unlimited). Kernels whose grids are smaller than the device
    /// capacity, or that serialize internally, cannot exploit more SMs than
    /// this parallelism allows — the property that makes low-intensity
    /// kernels like QuasiRandomGenerator ideal co-run fillers.
    pub max_concurrent_blocks: Option<u64>,
}

impl KernelPerf {
    /// A convenient synthetic profile builder for tests: a kernel with the
    /// given compute cycles and memory bytes per block, neutral elsewhere.
    pub fn synthetic(name: &str, compute_cycles: f64, dram_bytes: f64) -> Self {
        Self {
            name: name.into(),
            threads_per_block: 256,
            regs_per_thread: 32,
            smem_per_block: 0,
            compute_cycles_per_block: compute_cycles,
            insts_per_block: compute_cycles * 2.0,
            flops_per_block: compute_cycles * 4.0,
            mem_request_bytes_per_block: dram_bytes,
            dram_bytes_inorder: dram_bytes,
            dram_bytes_scattered: dram_bytes,
            l2_footprint_bytes: 0.0,
            inject_insts_per_block: compute_cycles * 0.06,
            inject_cycles_per_block: compute_cycles * 0.03,
            max_concurrent_blocks: None,
        }
    }

    /// DRAM bytes per block for a given issue order, before cache
    /// interference adjustments.
    pub fn dram_bytes(&self, order: BlockOrder) -> f64 {
        match order {
            BlockOrder::InOrder => self.dram_bytes_inorder,
            BlockOrder::Scattered => self.dram_bytes_scattered,
        }
    }

    /// Arithmetic intensity in flops per DRAM byte (in-order figure).
    pub fn flops_per_byte(&self) -> f64 {
        if self.dram_bytes_inorder <= 0.0 {
            f64::INFINITY
        } else {
            self.flops_per_block / self.dram_bytes_inorder
        }
    }

    /// Validates internal consistency; returns a description of the first
    /// violated invariant, if any. The engine calls this on every launch,
    /// so a valid profile costs a few comparisons and builds nothing; the
    /// message is formatted only on rejection.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads_per_block == 0 || self.threads_per_block > 1024 {
            return Err(rejected(format_args!(
                "threads_per_block must be in 1..=1024, got {}",
                self.threads_per_block
            )));
        }
        if self.compute_cycles_per_block <= 0.0 {
            return Err(rejected(format_args!(
                "compute_cycles_per_block must be positive"
            )));
        }
        if self.dram_bytes_scattered + 1e-9 < self.dram_bytes_inorder {
            return Err(rejected(format_args!(
                "scattered DRAM bytes ({}) below in-order bytes ({})",
                self.dram_bytes_scattered, self.dram_bytes_inorder
            )));
        }
        if self.max_concurrent_blocks == Some(0) {
            return Err(rejected(format_args!(
                "max_concurrent_blocks must be at least 1 when set"
            )));
        }
        // Finite and non-negative, for all seven at once: `v + 0.0` turns
        // -0.0 into +0.0, and then its bits are below those of +inf exactly
        // when the sign bit is clear and the exponent is not all ones
        // (inf, NaN).
        let bits = |v: f64| (v + 0.0).to_bits();
        let worst = bits(self.insts_per_block)
            .max(bits(self.flops_per_block))
            .max(bits(self.mem_request_bytes_per_block))
            .max(bits(self.dram_bytes_inorder))
            .max(bits(self.l2_footprint_bytes))
            .max(bits(self.inject_insts_per_block))
            .max(bits(self.inject_cycles_per_block));
        if worst >= f64::INFINITY.to_bits() {
            return Err(self.bad_field());
        }
        Ok(())
    }

    /// The message for the first of the per-block figures `validate`
    /// found NaN, infinite or negative.
    #[cold]
    #[inline(never)]
    fn bad_field(&self) -> String {
        let (label, v) = [
            ("insts_per_block", self.insts_per_block),
            ("flops_per_block", self.flops_per_block),
            (
                "mem_request_bytes_per_block",
                self.mem_request_bytes_per_block,
            ),
            ("dram_bytes_inorder", self.dram_bytes_inorder),
            ("l2_footprint_bytes", self.l2_footprint_bytes),
            ("inject_insts_per_block", self.inject_insts_per_block),
            ("inject_cycles_per_block", self.inject_cycles_per_block),
        ]
        .into_iter()
        .find(|&(_, v)| !v.is_finite() || v < 0.0)
        .expect("a field failed the check");
        rejected(format_args!(
            "{label} must be finite and non-negative, got {v}"
        ))
    }
}

/// Formats a rejection of [`KernelPerf::validate`], off its passing path.
#[cold]
#[inline(never)]
fn rejected(msg: std::fmt::Arguments<'_>) -> String {
    msg.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_mode_order() {
        assert_eq!(ExecMode::Hardware.order(), BlockOrder::Scattered);
        assert_eq!(
            ExecMode::SlateWorkers { task_size: 10 }.order(),
            BlockOrder::InOrder
        );
    }

    #[test]
    fn synthetic_profile_valid() {
        let p = KernelPerf::synthetic("k", 1000.0, 4096.0);
        p.validate().unwrap();
        assert_eq!(p.dram_bytes(BlockOrder::InOrder), 4096.0);
        assert_eq!(p.dram_bytes(BlockOrder::Scattered), 4096.0);
    }

    #[test]
    fn validate_rejects_inverted_locality() {
        let mut p = KernelPerf::synthetic("k", 1000.0, 4096.0);
        p.dram_bytes_inorder = 8192.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_threads() {
        let mut p = KernelPerf::synthetic("k", 1000.0, 4096.0);
        p.threads_per_block = 0;
        assert!(p.validate().is_err());
        p.threads_per_block = 2048;
        assert!(p.validate().is_err());
    }

    /// The message `validate` rejects `p` with.
    fn rejection(p: &KernelPerf) -> String {
        p.validate().expect_err("profile must be rejected")
    }

    #[test]
    fn validate_names_the_thread_count_out_of_range() {
        let mut p = KernelPerf::synthetic("k", 1000.0, 4096.0);
        p.threads_per_block = 0;
        assert_eq!(
            rejection(&p),
            "threads_per_block must be in 1..=1024, got 0"
        );
        p.threads_per_block = 1025;
        assert_eq!(
            rejection(&p),
            "threads_per_block must be in 1..=1024, got 1025"
        );
        p.threads_per_block = 1024;
        p.validate().unwrap();
    }

    #[test]
    fn validate_rejects_non_positive_compute_cycles() {
        for cycles in [0.0, -1.0] {
            let mut p = KernelPerf::synthetic("k", 1000.0, 4096.0);
            p.compute_cycles_per_block = cycles;
            assert_eq!(rejection(&p), "compute_cycles_per_block must be positive");
        }
    }

    #[test]
    fn validate_names_inverted_locality_bytes() {
        let mut p = KernelPerf::synthetic("k", 1000.0, 4096.0);
        p.dram_bytes_inorder = 8192.0;
        assert_eq!(
            rejection(&p),
            "scattered DRAM bytes (4096) below in-order bytes (8192)"
        );
    }

    #[test]
    fn validate_rejects_a_zero_parallelism_cap() {
        let mut p = KernelPerf::synthetic("k", 1000.0, 4096.0);
        p.max_concurrent_blocks = Some(0);
        assert_eq!(
            rejection(&p),
            "max_concurrent_blocks must be at least 1 when set"
        );
        p.max_concurrent_blocks = Some(1);
        p.validate().unwrap();
    }

    #[test]
    fn validate_names_each_nan_negative_or_infinite_field() {
        type Field = fn(&mut KernelPerf) -> &mut f64;
        let fields: [(&str, Field); 7] = [
            ("insts_per_block", |p| &mut p.insts_per_block),
            ("flops_per_block", |p| &mut p.flops_per_block),
            ("mem_request_bytes_per_block", |p| {
                &mut p.mem_request_bytes_per_block
            }),
            ("dram_bytes_inorder", |p| &mut p.dram_bytes_inorder),
            ("l2_footprint_bytes", |p| &mut p.l2_footprint_bytes),
            ("inject_insts_per_block", |p| &mut p.inject_insts_per_block),
            ("inject_cycles_per_block", |p| {
                &mut p.inject_cycles_per_block
            }),
        ];
        for (label, field) in fields {
            for (v, shown) in [(f64::NAN, "NaN"), (-1.0, "-1"), (f64::INFINITY, "inf")] {
                let mut p = KernelPerf::synthetic("k", 1000.0, 4096.0);
                // Clears the locality check for an infinite in-order figure.
                p.dram_bytes_scattered = f64::INFINITY;
                *field(&mut p) = v;
                assert_eq!(
                    rejection(&p),
                    format!("{label} must be finite and non-negative, got {shown}")
                );
            }
            for v in [-0.0, 0.0, f64::MIN_POSITIVE / 2.0, 1e300] {
                let mut p = KernelPerf::synthetic("k", 1000.0, 4096.0);
                p.dram_bytes_scattered = f64::MAX;
                *field(&mut p) = v;
                p.validate().unwrap();
            }
        }
    }

    #[test]
    fn flops_per_byte_handles_zero_bytes() {
        let mut p = KernelPerf::synthetic("k", 1000.0, 0.0);
        p.dram_bytes_scattered = 0.0;
        p.dram_bytes_inorder = 0.0;
        assert!(p.flops_per_byte().is_infinite());
    }
}
