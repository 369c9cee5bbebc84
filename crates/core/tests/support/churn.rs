//! The conformance kernel: a flat grid whose simulated cost per block
//! grows with its delay. Shared by `backend::sim`'s and the placement
//! driver's unit tests and by the golden replay, so it names no
//! `slate-core` item.

use slate_gpu_sim::perf::KernelPerf;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::GpuKernel;

/// A kernel for conformance runs: a flat grid whose simulated cost per
/// block grows with `delay_us`, so churn commands land mid-flight. Only
/// its timing matters; a simulated backend runs no block body.
pub(crate) struct ChurnKernel {
    grid: GridDim,
    delay_us: u64,
}

impl GpuKernel for ChurnKernel {
    fn name(&self) -> &str {
        "conformance-kernel"
    }
    fn grid(&self) -> GridDim {
        self.grid
    }
    fn perf(&self) -> KernelPerf {
        // ~1.5k cycles per microsecond of per-block delay.
        KernelPerf::synthetic(
            "conformance-kernel",
            100.0 + self.delay_us as f64 * 1500.0,
            8.0,
        )
    }
    fn run_block(&self, _: BlockCoord) {}
}

/// A conformance kernel over a flat grid of `blocks`.
pub(crate) fn churn(blocks: u32, delay_us: u64) -> ChurnKernel {
    ChurnKernel {
        grid: GridDim::d1(blocks),
        delay_us,
    }
}
