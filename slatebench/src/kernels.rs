//! The functional kernels the serve workloads launch. The add kernel and
//! its two performance shapes are those of `tests/daemon_integration.rs`:
//! one classifies H_M and one L_C, so Table I co-runs and resizes them.

use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::perf::KernelPerf;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::GpuKernel;
use std::sync::Arc;

/// Elements per block of [`AddKernel`].
pub const ADD_BLOCK: usize = 64;
/// Elements of the small add buffers: four blocks, so kernel work is
/// next to nothing and the control plane is all of a launch's latency.
pub const ADD_N: usize = 4 * ADD_BLOCK;

/// Adds `delta` to every element of its buffer.
pub struct AddKernel {
    n: usize,
    delta: f32,
    perf: KernelPerf,
    buf: Arc<GpuBuffer>,
}

impl AddKernel {
    /// Binds the kernel to `buf`, which must hold at least `n` words.
    pub fn new(n: usize, delta: f32, perf: KernelPerf, buf: Arc<GpuBuffer>) -> Self {
        assert!(buf.len_words() >= n);
        Self {
            n,
            delta,
            perf,
            buf,
        }
    }
}

impl GpuKernel for AddKernel {
    fn name(&self) -> &str {
        &self.perf.name
    }
    fn grid(&self) -> GridDim {
        GridDim::d1((self.n as u32).div_ceil(ADD_BLOCK as u32).max(1))
    }
    fn perf(&self) -> KernelPerf {
        self.perf.clone()
    }
    fn run_block(&self, b: BlockCoord) {
        let lo = b.x as usize * ADD_BLOCK;
        for i in lo..(lo + ADD_BLOCK).min(self.n) {
            self.buf.store_f32(i, self.buf.load_f32(i) + self.delta);
        }
    }
}

/// A compute-light profile that classifies L_C (corun filler).
pub fn lc_perf(name: &str) -> KernelPerf {
    let mut p = KernelPerf::synthetic(name, 2_000.0, 0.0);
    p.mem_request_bytes_per_block = 1_000.0;
    p.dram_bytes_inorder = 1_000.0;
    p.dram_bytes_scattered = 1_000.0;
    p.max_concurrent_blocks = Some(32);
    p
}

/// A memory-heavy profile that classifies H_M.
pub fn hm_perf(name: &str) -> KernelPerf {
    let mut p = KernelPerf::synthetic(name, 300.0, 0.0);
    p.mem_request_bytes_per_block = 40_000.0;
    p.dram_bytes_inorder = 33_000.0;
    p.dram_bytes_scattered = 34_000.0;
    p
}

/// The shape client `c` launches: client 0 is H_M, client 1 is L_C.
pub fn client_perf(c: usize) -> KernelPerf {
    if c.is_multiple_of(2) {
        hm_perf("hm_add")
    } else {
        lc_perf("lc_add")
    }
}

/// The increment client `c` adds per launch; distinct per client so a
/// launch applied to the wrong buffer shows.
pub fn client_delta(c: usize) -> f32 {
    1.0 + c as f32
}

/// Client `c`'s add kernel over `buf`.
pub fn add_kernel(c: usize, buf: Arc<GpuBuffer>) -> Arc<dyn GpuKernel> {
    Arc::new(AddKernel::new(ADD_N, client_delta(c), client_perf(c), buf))
}

/// Client 0's add kernel over a buffer of its own, for standalone
/// dispatch measurements.
pub fn standalone_add_kernel() -> Arc<dyn GpuKernel> {
    add_kernel(0, Arc::new(GpuBuffer::new(ADD_N * 4)))
}

/// CUDA text carried by `serve_durable` launches through the injection
/// pipeline (scanner, injector, per-user compilation cache).
pub const ADD_SOURCE: &str = r#"
__global__ void add_delta(float* buf, float delta, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int stride = gridDim.x * blockDim.x;
    for (; i < n; i += stride) buf[i] += delta;
}
"#;

/// Blocks per [`HitKernel`] launch.
pub const HIT_BLOCKS: u32 = 16;

/// Every block bumps its own slot by one, so after a crash and recovery a
/// slot reads exactly how many times its block ran: 1.0 is exactly-once.
pub struct HitKernel {
    /// First slot of this launch.
    pub base: usize,
    /// The hit buffer.
    pub hits: Arc<GpuBuffer>,
}

impl GpuKernel for HitKernel {
    fn name(&self) -> &str {
        "hit"
    }
    fn grid(&self) -> GridDim {
        GridDim::d1(HIT_BLOCKS)
    }
    fn perf(&self) -> KernelPerf {
        KernelPerf::synthetic("hit", 400.0, 900.0)
    }
    fn run_block(&self, b: BlockCoord) {
        let i = self.base + b.x as usize;
        self.hits.store_f32(i, self.hits.load_f32(i) + 1.0);
    }
}
