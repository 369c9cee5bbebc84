//! Kernel transformation `K(B, T) → K*(B*, T)` (paper §III-A, Fig. 3,
//! Listing 2).
//!
//! Slate flattens a 1-D or 2-D user grid into a 1-D queue of blocks without
//! touching the inner block geometry, and reconstructs the user-visible
//! `blockIdx` from the flat scheduling index. To stay cheap at runtime it
//! performs *one* div/mod per task and then increments the 2-D coordinate
//! with a rollover, instead of dividing per block — the optimisation the
//! paper credits for beating the transformation of Pai et al. \[16\].
//!
//! The transformation is semantics-preserving by construction: executing
//! every flat index exactly once, in any order and under any grouping,
//! touches exactly the user's block set. The property tests in this module
//! (and the crate's proptest suite) verify that.

use crate::queue::Task;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::GpuKernel;
use std::sync::Arc;

/// A user kernel wrapped with Slate's grid transformation.
#[derive(Clone)]
pub struct TransformedKernel {
    inner: Arc<dyn GpuKernel>,
    grid: GridDim,
}

impl TransformedKernel {
    /// Transforms a user kernel. The flat queue length is
    /// `grid.total_blocks()` (`slateMax`).
    pub fn new(inner: Arc<dyn GpuKernel>) -> Self {
        let grid = inner.grid();
        Self { inner, grid }
    }

    /// The user grid.
    #[doc(hidden)]
    pub fn grid(&self) -> GridDim {
        self.grid
    }

    /// `slateMax`: total flat blocks.
    pub fn slate_max(&self) -> u64 {
        self.grid.total_blocks()
    }

    /// The wrapped kernel.
    pub(crate) fn inner(&self) -> &Arc<dyn GpuKernel> {
        &self.inner
    }

    /// Executes one pulled task: the user blocks
    /// `[task.start, task.start + task.len)` in flat order, reconstructing
    /// each 2-D `blockIdx` incrementally as in Listing 2.
    pub fn run_task(&self, task: Task) {
        debug_assert!(task.start + task.len as u64 <= self.slate_max());
        let gx = self.grid.x as u64;
        // Listing 2: one div/mod for the task, then increment-with-rollover
        // per block. The listing seeds x at (start % gx) - 1 and
        // pre-increments; we fold the pre-increment into the loop head.
        let mut x = task.start % gx;
        let mut y = task.start / gx;
        for _ in 0..task.len {
            // ORIGINAL USER CODE with blockIdx/gridDim replaced:
            self.inner.run_block(BlockCoord {
                x: x as u32,
                y: y as u32,
            });
            x += 1;
            if x == gx {
                // roll over to the next Y index
                x = 0;
                y += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slate_gpu_sim::buffer::GpuBuffer;
    use slate_gpu_sim::perf::KernelPerf;

    /// Records how many times each block coordinate executes.
    struct Counter {
        grid: GridDim,
        hits: Arc<GpuBuffer>,
    }

    impl Counter {
        fn new(grid: GridDim) -> (Arc<Self>, Arc<GpuBuffer>) {
            let hits = Arc::new(GpuBuffer::new(grid.total_blocks() as usize * 4));
            (
                Arc::new(Self {
                    grid,
                    hits: hits.clone(),
                }),
                hits,
            )
        }
    }

    impl GpuKernel for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn grid(&self) -> GridDim {
            self.grid
        }
        fn perf(&self) -> KernelPerf {
            KernelPerf::synthetic("counter", 100.0, 4.0)
        }
        fn run_block(&self, b: BlockCoord) {
            assert!(
                b.x < self.grid.x && b.y < self.grid.y,
                "out-of-grid block {b:?}"
            );
            self.hits.fetch_add_u32(self.grid.flat_of(b) as usize, 1);
        }
    }

    #[test]
    fn one_task_covering_whole_grid() {
        let (k, hits) = Counter::new(GridDim::d2(7, 5));
        let t = TransformedKernel::new(k);
        t.run_task(Task { start: 0, len: 35 });
        for i in 0..35 {
            assert_eq!(hits.load_u32(i), 1, "block {i}");
        }
    }

    #[test]
    fn tasks_partition_into_exact_cover() {
        let grid = GridDim::d2(13, 9); // 117 blocks
        let (k, hits) = Counter::new(grid);
        let t = TransformedKernel::new(k);
        // Pull with task size 10 -> 12 tasks, last of length 7.
        let q = crate::queue::TaskQueue::new(t.slate_max(), 10);
        while let Some(task) = q.pull() {
            t.run_task(task);
        }
        for i in 0..117 {
            assert_eq!(hits.load_u32(i), 1, "block {i}");
        }
    }

    #[test]
    fn rollover_crosses_row_boundaries_mid_task() {
        let grid = GridDim::d2(4, 4);
        let (k, hits) = Counter::new(grid);
        let t = TransformedKernel::new(k);
        // Task [2, 9): spans rows 0, 1 and 2.
        t.run_task(Task { start: 2, len: 7 });
        for i in 0..16u64 {
            let expect = u32::from((2..9).contains(&i));
            assert_eq!(hits.load_u32(i as usize), expect, "block {i}");
        }
    }

    #[test]
    fn one_d_grid_passthrough() {
        let grid = GridDim::d1(23);
        let (k, hits) = Counter::new(grid);
        let t = TransformedKernel::new(k);
        t.run_task(Task { start: 20, len: 3 });
        assert_eq!(hits.load_u32(20), 1);
        assert_eq!(hits.load_u32(22), 1);
        assert_eq!(hits.load_u32(19), 0);
    }

    #[test]
    fn incremental_index_matches_div_mod() {
        // The rollover arithmetic must agree with coord_of everywhere.
        let grid = GridDim::d2(7, 11);
        struct Probe {
            grid: GridDim,
            seen: parking_lot::Mutex<Vec<BlockCoord>>,
        }
        impl GpuKernel for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn grid(&self) -> GridDim {
                self.grid
            }
            fn perf(&self) -> KernelPerf {
                KernelPerf::synthetic("probe", 1.0, 0.0)
            }
            fn run_block(&self, b: BlockCoord) {
                self.seen.lock().push(b);
            }
        }
        let p = Arc::new(Probe {
            grid,
            seen: parking_lot::Mutex::new(Vec::new()),
        });
        let t = TransformedKernel::new(p.clone());
        t.run_task(Task { start: 5, len: 30 });
        let seen = p.seen.lock();
        for (i, b) in seen.iter().enumerate() {
            assert_eq!(*b, grid.coord_of(5 + i as u64));
        }
    }
}
