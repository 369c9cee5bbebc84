//! Transpose (TR) — tiled out-of-place matrix transpose, from the NVIDIA
//! CUDA samples.
//!
//! Pure data movement: reads a 32x32 tile through shared memory and writes
//! it transposed, performing zero floating-point work. Table II classifies
//! it Low compute / High memory (0 GFLOP/s, 568.6 GB/s of global requests —
//! above DRAM bandwidth thanks to L2 hits). As the most memory-hungry
//! kernel it pairs only with RG under the heuristic policy.

use crate::grid::{BlockCoord, GridDim};
use crate::kernel::GpuKernel;
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::perf::KernelPerf;
use std::sync::Arc;

/// Tile edge (the CUDA sample's `TILE_DIM`).
pub const TILE: u32 = 32;

/// Paper problem size: square matrix dimension.
pub const PAPER_DIM: u32 = 16_384;

/// The tiled transpose kernel: `out[j][i] = in[i][j]` for an
/// `rows x cols` input.
pub struct TransposeKernel {
    rows: u32,
    cols: u32,
    input: Arc<GpuBuffer>,
    output: Arc<GpuBuffer>,
}

impl TransposeKernel {
    /// Binds the kernel: `input` is `rows x cols` row-major, `output` must
    /// hold `cols x rows`.
    pub fn new(rows: u32, cols: u32, input: Arc<GpuBuffer>, output: Arc<GpuBuffer>) -> Self {
        assert!(input.len_words() >= (rows * cols) as usize);
        assert!(output.len_words() >= (rows * cols) as usize);
        Self {
            rows,
            cols,
            input,
            output,
        }
    }
}

impl GpuKernel for TransposeKernel {
    fn name(&self) -> &str {
        "Transpose"
    }

    fn grid(&self) -> GridDim {
        GridDim::d2(self.cols.div_ceil(TILE), self.rows.div_ceil(TILE))
    }

    fn perf(&self) -> KernelPerf {
        paper_perf()
    }

    fn run_block(&self, block: BlockCoord) {
        const T: usize = TILE as usize;
        let (rows, cols) = (self.rows as usize, self.cols as usize);
        let (r0, c0) = (block.y as usize * T, block.x as usize * T);
        // The tile clipped to the matrix: `h` rows of `w` columns.
        let (h, w) = (T.min(rows - r0), T.min(cols - c0));
        // Tile staging models the shared-memory transpose: read row-major,
        // write transposed — both sides coalesced in the original, and
        // both sides contiguous runs here.
        let mut tile = [[0.0f32; T]; T];
        for (tr, tile_row) in tile[..h].iter_mut().enumerate() {
            self.input
                .read_f32_slice((r0 + tr) * cols + c0, &mut tile_row[..w]);
        }
        let mut out_row = [0.0f32; T];
        for tc in 0..w {
            for (cell, tile_row) in out_row.iter_mut().zip(&tile[..h]) {
                *cell = tile_row[tc];
            }
            self.output
                .write_f32_slice((c0 + tc) * rows + r0, &out_row[..h]);
        }
    }
}

/// Calibrated profile reproducing Table II: ≈569 GB/s global request
/// bandwidth while DRAM saturates at its 480 GB/s cap (the request excess
/// is L2-hit traffic).
pub fn paper_perf() -> KernelPerf {
    KernelPerf {
        name: "Transpose".into(),
        threads_per_block: 256,
        regs_per_thread: 32,
        smem_per_block: TILE * (TILE + 1) * 4, // padded tile, bank-conflict free
        compute_cycles_per_block: 500.0,
        insts_per_block: 300.0,
        flops_per_block: 0.0,
        mem_request_bytes_per_block: (TILE * TILE * 4 * 2) as f64, // read + write
        dram_bytes_inorder: 6500.0,
        dram_bytes_scattered: 6920.0,
        l2_footprint_bytes: 0.3e6,
        inject_insts_per_block: 18.0,
        inject_cycles_per_block: 15.0,
        max_concurrent_blocks: None,
    }
}

/// Blocks per launch at the paper problem size (512 x 512 tiles).
pub fn paper_blocks() -> u64 {
    (PAPER_DIM as u64 / TILE as u64).pow(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{run_parallel, run_reference};

    fn setup(rows: u32, cols: u32) -> (TransposeKernel, Arc<GpuBuffer>, Arc<GpuBuffer>) {
        let n = (rows * cols) as usize;
        let input = Arc::new(GpuBuffer::new(n * 4));
        let output = Arc::new(GpuBuffer::new(n * 4));
        for i in 0..n {
            input.store_f32(i, i as f32);
        }
        (
            TransposeKernel::new(rows, cols, input.clone(), output.clone()),
            input,
            output,
        )
    }

    fn check(rows: u32, cols: u32, input: &GpuBuffer, output: &GpuBuffer) {
        for r in 0..rows as usize {
            for c in 0..cols as usize {
                assert_eq!(
                    output.load_f32(c * rows as usize + r),
                    input.load_f32(r * cols as usize + c),
                    "mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn transposes_square_matrix() {
        let (k, i, o) = setup(64, 64);
        run_reference(&k);
        check(64, 64, &i, &o);
    }

    #[test]
    fn transposes_rectangular_with_ragged_tiles() {
        let (k, i, o) = setup(70, 45); // not multiples of 32
        run_reference(&k);
        check(70, 45, &i, &o);
        assert_eq!(k.grid(), GridDim::d2(2, 3));
    }

    /// The transpose one word at a time: every cell its own bounds-checked
    /// load and store, every edge tested per cell. The oracle the run-wise
    /// `run_block` must equal bit for bit.
    struct PerWord(TransposeKernel);

    impl GpuKernel for PerWord {
        fn name(&self) -> &str {
            "Transpose (per word)"
        }
        fn grid(&self) -> GridDim {
            self.0.grid()
        }
        fn perf(&self) -> KernelPerf {
            paper_perf()
        }
        fn run_block(&self, block: BlockCoord) {
            let k = &self.0;
            let (rows, cols) = (k.rows as usize, k.cols as usize);
            let r0 = block.y as usize * TILE as usize;
            let c0 = block.x as usize * TILE as usize;
            let mut tile = [[0.0f32; TILE as usize]; TILE as usize];
            for (tr, tile_row) in tile.iter_mut().enumerate() {
                let r = r0 + tr;
                if r >= rows {
                    break;
                }
                for (tc, cell) in tile_row.iter_mut().enumerate() {
                    let c = c0 + tc;
                    if c >= cols {
                        break;
                    }
                    *cell = k.input.load_f32(r * cols + c);
                }
            }
            for (tr, tile_row) in tile.iter().enumerate() {
                let r = r0 + tr;
                if r >= rows {
                    break;
                }
                for (tc, &v) in tile_row.iter().enumerate() {
                    let c = c0 + tc;
                    if c >= cols {
                        break;
                    }
                    k.output.store_f32(c * rows + r, v);
                }
            }
        }
    }

    #[test]
    fn run_block_is_bit_identical_to_the_per_word_transpose() {
        for (rows, cols) in [(1, 1), (33, 31), (70, 45), (96, 64), (1024, 1024)] {
            let n = (rows * cols) as usize;
            // Seeded noise, every bit pattern a float can hold; both
            // outputs start from the same sentinel, so a cell either
            // kernel skips shows.
            let mut s = 0x9E37_79B9_7F4A_7C15u64 ^ n as u64;
            let input = Arc::new(GpuBuffer::new(n * 4));
            for i in 0..n {
                input.store_u32(i, crate::workload::xorshift64(&mut s) as u32);
            }
            let run = |per_word: bool| {
                let output = Arc::new(GpuBuffer::new(n * 4));
                (0..n).for_each(|i| output.store_u32(i, 0xDEAD_BEEF));
                let k = TransposeKernel::new(rows, cols, input.clone(), output.clone());
                if per_word {
                    run_reference(&PerWord(k));
                } else {
                    run_reference(&k);
                }
                (0..n).map(|i| output.load_u32(i)).collect::<Vec<_>>()
            };
            let (got, want) = (run(false), run(true));
            assert!(
                got == want,
                "{rows}x{cols} differs from the per-word transpose"
            );
        }
    }

    #[test]
    fn parallel_matches_reference() {
        let (k1, _, o1) = setup(128, 96);
        run_reference(&k1);
        let (k2, _, o2) = setup(128, 96);
        run_parallel(&k2);
        for i in 0..(128 * 96) as usize {
            assert_eq!(o1.load_f32(i), o2.load_f32(i));
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let (k, input, mid) = setup(96, 64);
        run_reference(&k);
        let back = Arc::new(GpuBuffer::new(96 * 64 * 4));
        let k2 = TransposeKernel::new(64, 96, mid, back.clone());
        run_reference(&k2);
        for i in 0..96 * 64 {
            assert_eq!(back.load_f32(i), input.load_f32(i));
        }
    }

    #[test]
    fn paper_profile_is_pure_memory() {
        let p = paper_perf();
        p.validate().unwrap();
        assert_eq!(p.flops_per_block, 0.0);
        // Requests exceed DRAM traffic (L2 hits).
        assert!(p.mem_request_bytes_per_block > p.dram_bytes_scattered);
        assert_eq!(paper_blocks(), 512 * 512);
    }
}
