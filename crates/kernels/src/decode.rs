//! LLM decode (DC) — batched attention-weighted value gather, one token
//! step per launch.
//!
//! Decode generates one token at a time: each step streams the whole KV
//! cache once to produce a single output row per sequence, so the kernel
//! is short, its grid is small, and nearly every byte it touches is used
//! exactly once. Calibrated to classify High memory (`H_M`) — the
//! latency-critical half of the LLM serving workload family, arriving in
//! bursts (see `workload::llm_trace`) behind long prefill launches.

use crate::grid::{BlockCoord, GridDim};
use crate::kernel::GpuKernel;
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::perf::KernelPerf;
use std::sync::Arc;

/// Output columns computed per block.
pub const TILE: u32 = 16;

/// Paper-scale problem: KV-cache context length.
pub const PAPER_CTX: u32 = 2048;

/// Paper-scale problem: model (value) dimension.
pub const PAPER_DIM: u32 = 1024;

/// Paper-scale problem: sequences decoded per batched step.
pub const PAPER_BATCH: u32 = 32;

/// The decode kernel: for each sequence `s` in the batch,
/// `out[s][c] = sum_t w[s][t] * v[t][c]` — an attention-weighted gather
/// over the value cache (`ctx x dim`), one output row per sequence.
pub struct DecodeKernel {
    ctx: u32,
    dim: u32,
    batch: u32,
    w: Arc<GpuBuffer>,
    v: Arc<GpuBuffer>,
    out: Arc<GpuBuffer>,
}

impl DecodeKernel {
    /// Binds the kernel: `w` is `batch x ctx` attention weights, `v` is the
    /// `ctx x dim` value cache, `out` must hold `batch x dim`. `dim` must
    /// be a multiple of [`TILE`].
    pub fn new(
        ctx: u32,
        dim: u32,
        batch: u32,
        w: Arc<GpuBuffer>,
        v: Arc<GpuBuffer>,
        out: Arc<GpuBuffer>,
    ) -> Self {
        assert!(dim % TILE == 0, "dim must be a multiple of {TILE}");
        assert!(w.len_words() >= (batch * ctx) as usize);
        assert!(v.len_words() >= (ctx * dim) as usize);
        assert!(out.len_words() >= (batch * dim) as usize);
        Self {
            ctx,
            dim,
            batch,
            w,
            v,
            out,
        }
    }
}

impl GpuKernel for DecodeKernel {
    fn name(&self) -> &str {
        "Decode"
    }

    fn grid(&self) -> GridDim {
        GridDim::d2(self.dim / TILE, self.batch)
    }

    fn perf(&self) -> KernelPerf {
        paper_perf()
    }

    fn run_block(&self, block: BlockCoord) {
        let (ctx, dim) = (self.ctx as usize, self.dim as usize);
        let seq = block.y as usize;
        let col0 = block.x as usize * TILE as usize;
        // Stream the value cache once; every element is used exactly once
        // per sequence — the single-use traffic that makes decode H_M.
        // Each `t`'s TILE values are one contiguous run of the row.
        let mut acc = [0.0f32; TILE as usize];
        let mut row = [0.0f32; TILE as usize];
        for t in 0..ctx {
            let wv = self.w.load_f32(seq * ctx + t);
            self.v.read_f32_slice(t * dim + col0, &mut row);
            for (a, &v) in acc.iter_mut().zip(&row) {
                *a += wv * v;
            }
        }
        for (x, &a) in acc.iter().enumerate() {
            self.out.store_f32(seq * dim + col0 + x, a);
        }
    }
}

/// Calibrated profile: ≈535 GB/s of global requests against the 480 GB/s
/// DRAM cap (the excess is L2 hits on value rows shared across the batch)
/// at ≈250 GFLOP/s — High memory (`H_M`). Each block streams its TILE
/// value columns plus one weight row once: `ctx * (TILE*4 + 4)` request
/// bytes for `2 * TILE * ctx` flops.
pub fn paper_perf() -> KernelPerf {
    KernelPerf {
        name: "Decode".into(),
        threads_per_block: 256,
        regs_per_thread: 32,
        smem_per_block: 0,
        compute_cycles_per_block: 2_600.0,
        insts_per_block: 20_000.0,
        // TILE outputs x 2*ctx flops each.
        flops_per_block: 2.0 * TILE as f64 * PAPER_CTX as f64,
        mem_request_bytes_per_block: PAPER_CTX as f64 * (TILE as f64 * 4.0 + 4.0),
        dram_bytes_inorder: 110_000.0,
        dram_bytes_scattered: 125_000.0,
        l2_footprint_bytes: 2.0e6,
        inject_insts_per_block: 18.0,
        inject_cycles_per_block: 15.0,
        max_concurrent_blocks: None,
    }
}

/// Blocks per batched decode step at the paper problem size.
pub fn paper_blocks() -> u64 {
    (PAPER_DIM as u64 / TILE as u64) * PAPER_BATCH as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{run_parallel, run_reference};

    fn setup(ctx: u32, dim: u32, batch: u32) -> (DecodeKernel, Vec<f32>, Arc<GpuBuffer>) {
        let (c, d, b) = (ctx as usize, dim as usize, batch as usize);
        let w_host: Vec<f32> = (0..b * c).map(|i| ((i * 7) % 11) as f32 * 0.1).collect();
        let v_host: Vec<f32> = (0..c * d)
            .map(|i| ((i * 3) % 29) as f32 * 0.5 - 7.0)
            .collect();
        let w = Arc::new(GpuBuffer::new(b * c * 4));
        let v = Arc::new(GpuBuffer::new(c * d * 4));
        let out = Arc::new(GpuBuffer::new(b * d * 4));
        w.write_f32_slice(0, &w_host);
        v.write_f32_slice(0, &v_host);
        let mut expect = vec![0.0f32; b * d];
        for s in 0..b {
            for col in 0..d {
                let mut acc = 0.0f32;
                for t in 0..c {
                    acc += w_host[s * c + t] * v_host[t * d + col];
                }
                expect[s * d + col] = acc;
            }
        }
        (
            DecodeKernel::new(ctx, dim, batch, w, v, out.clone()),
            expect,
            out,
        )
    }

    #[test]
    fn gather_matches_reference() {
        let (kern, expect, out) = setup(40, 32, 3);
        run_reference(&kern);
        for (i, &e) in expect.iter().enumerate() {
            let got = out.load_f32(i);
            assert!(
                (got - e).abs() < 1e-2 * e.abs().max(1.0),
                "out[{i}] {got} vs {e}"
            );
        }
    }

    #[test]
    fn parallel_matches_reference() {
        let (kern, expect, out) = setup(64, 48, 5);
        run_parallel(&kern);
        for (i, &e) in expect.iter().enumerate() {
            let got = out.load_f32(i);
            assert!((got - e).abs() < 1e-2 * e.abs().max(1.0), "out[{i}]");
        }
    }

    #[test]
    fn grid_is_one_row_per_sequence() {
        let (kern, _, _) = setup(64, 48, 5);
        assert_eq!(kern.grid(), GridDim::d2(3, 5));
        assert_eq!(paper_blocks(), 64 * 32);
    }

    #[test]
    fn paper_profile_is_memory_bound() {
        let p = paper_perf();
        p.validate().unwrap();
        // Requests exceed DRAM traffic (L2 hits on shared value rows), and
        // the kernel moves more bytes than it computes flops.
        assert!(p.mem_request_bytes_per_block > p.dram_bytes_scattered);
        assert!(p.mem_request_bytes_per_block / p.flops_per_block > 2.0);
    }
}
