//! Property tests for Slate's core mechanisms: the task queue never drops
//! or duplicates a block under any concurrency or retreat schedule; the
//! grid transformation is an exact cover matching the div/mod semantics for
//! every grid shape and task size; the dispatch kernel survives arbitrary
//! resize storms; the partitioner always produces a disjoint cover; and the
//! classification/policy layer is total and consistent.

use proptest::prelude::*;
use slate_core::classify::{classify, WorkloadClass};
use slate_core::dispatch::Dispatcher;
use slate_core::partition::partition;
use slate_core::policy::should_corun;
use slate_core::queue::TaskQueue;
use slate_core::transform::TransformedKernel;
use slate_core::workers::LanePool;
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::perf::KernelPerf;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::GpuKernel;
use slate_kernels::workload::Intensity;
use std::sync::{Arc, OnceLock};

/// Kernel that counts per-block executions.
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
        assert!(b.x < self.grid.x && b.y < self.grid.y);
        self.hits.fetch_add_u32(self.grid.flat_of(b) as usize, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential pulls tile [0, total) exactly once, any task size.
    #[test]
    fn queue_tiles_exactly(total in 0u64..50_000, task in 1u32..500) {
        let q = TaskQueue::new(total, task);
        let mut next = 0u64;
        while let Some(t) = q.pull() {
            prop_assert_eq!(t.start, next);
            prop_assert!(t.len >= 1);
            prop_assert!(t.len <= task);
            next += t.len as u64;
        }
        prop_assert_eq!(next, total);
        prop_assert!(q.drained());
        prop_assert_eq!(q.pull_count(), total.div_ceil(task.max(1) as u64));
    }

    /// Concurrent pulls from many threads partition the range with no gap
    /// and no overlap.
    #[test]
    fn queue_concurrent_partition(total in 1u64..30_000, task in 1u32..100,
                                  threads in 2usize..8) {
        let q = Arc::new(TaskQueue::new(total, task));
        let mut handles = Vec::new();
        for _ in 0..threads {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                while let Some(t) = q.pull() {
                    mine.push((t.start, t.len));
                }
                mine
            }));
        }
        let mut all: Vec<(u64, u32)> =
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        let mut next = 0u64;
        for (start, len) in all {
            prop_assert_eq!(start, next);
            next += len as u64;
        }
        prop_assert_eq!(next, total);
    }

    /// Resuming from any progress point covers exactly the remainder.
    #[test]
    fn queue_resume_covers_remainder(total in 1u64..20_000, task in 1u32..64,
                                     cut_frac in 0.0..1.0f64) {
        let cut = (total as f64 * cut_frac) as u64;
        let q = TaskQueue::with_progress(cut, total, task);
        let mut covered = 0u64;
        while let Some(t) = q.pull() {
            prop_assert!(t.start >= cut);
            covered += t.len as u64;
        }
        prop_assert_eq!(covered, total - cut);
    }

    /// The transformation executes every block of any 2-D grid exactly once
    /// for any task size, and the incremental index math agrees with the
    /// canonical div/mod mapping (checked inside Counter::run_block).
    #[test]
    fn transform_exact_cover(gx in 1u32..200, gy in 1u32..60, task in 1u32..64) {
        let grid = GridDim::d2(gx, gy);
        let (k, hits) = Counter::new(grid);
        let t = TransformedKernel::new(k);
        let q = TaskQueue::new(t.slate_max(), task);
        while let Some(task) = q.pull() {
            t.run_task(task);
        }
        for i in 0..grid.total_blocks() {
            prop_assert_eq!(hits.load_u32(i as usize), 1, "block {}", i);
        }
    }

    /// The remapped `blockIdx` the user body sees is a *bijection* onto
    /// the original 2-D grid: executing the flat queue yields every
    /// in-grid coordinate exactly once, and the reconstructed coordinate
    /// of flat index `i` round-trips through `flat_of`/`coord_of`. This is
    /// the semantics-preservation claim of the K(B,T) → K*(B*,T)
    /// transformation (paper §III-A), stated as a property.
    #[test]
    fn transform_blockidx_is_a_bijection(gx in 1u32..180, gy in 1u32..50, task in 1u32..48) {
        struct Probe {
            grid: GridDim,
            seen: std::sync::Mutex<Vec<BlockCoord>>,
        }
        impl GpuKernel for Probe {
            fn name(&self) -> &str { "probe" }
            fn grid(&self) -> GridDim { self.grid }
            fn perf(&self) -> KernelPerf { KernelPerf::synthetic("probe", 1.0, 0.0) }
            fn run_block(&self, b: BlockCoord) {
                self.seen.lock().unwrap().push(b);
            }
        }
        let grid = GridDim::d2(gx, gy);
        let p = Arc::new(Probe { grid, seen: std::sync::Mutex::new(Vec::new()) });
        let t = TransformedKernel::new(p.clone());
        // The user body sees the original gridDim, untouched.
        prop_assert_eq!(t.grid(), grid);
        let q = TaskQueue::new(t.slate_max(), task);
        while let Some(task) = q.pull() {
            t.run_task(task);
        }
        let seen = p.seen.lock().unwrap();
        // Surjective with the right cardinality: |seen| = |grid|, every
        // coordinate in-grid, and the flat images tile [0, total) exactly
        // — together, a bijection.
        prop_assert_eq!(seen.len() as u64, grid.total_blocks());
        let mut flats: Vec<u64> = Vec::with_capacity(seen.len());
        for b in seen.iter() {
            prop_assert!(b.x < grid.x && b.y < grid.y, "out-of-grid coord {:?}", b);
            let flat = grid.flat_of(*b);
            // coord_of inverts flat_of on every reconstructed coordinate.
            prop_assert_eq!(grid.coord_of(flat), *b);
            flats.push(flat);
        }
        flats.sort_unstable();
        for (i, f) in flats.iter().enumerate() {
            prop_assert_eq!(*f, i as u64, "flat image must tile the grid");
        }
    }

    /// The dispatch kernel completes every block exactly once under an
    /// arbitrary schedule of resizes to arbitrary ranges.
    #[test]
    fn dispatch_survives_resize_storm(gx in 10u32..150, gy in 1u32..20,
                                      task in 1u32..32,
                                      cuts in prop::collection::vec((0u32..4, 0u32..4), 0..6),
                                      helpers in 0usize..2) {
        // Workers hosted on lane 0 alone, or on four lanes: one pool of
        // each for the whole run, whatever this machine's CPU count.
        static POOLS: OnceLock<[Arc<LanePool>; 2]> = OnceLock::new();
        let pool = POOLS.get_or_init(|| [LanePool::with_lanes(1), LanePool::with_lanes(4)])[helpers]
            .clone();
        let device = DeviceConfig::tiny(4);
        let grid = GridDim::d2(gx, gy);
        let (k, hits) = Counter::new(grid);
        let d = Dispatcher::new(device, TransformedKernel::new(k), task, SmRange::all(4))
            .with_pool(pool);
        let h = d.handle();
        let storm = std::thread::spawn(move || {
            for (a, b) in cuts {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                h.resize(SmRange::new(lo, hi));
                std::thread::yield_now();
            }
        });
        let out = d.run();
        storm.join().unwrap();
        prop_assert_eq!(out.blocks, grid.total_blocks());
        for i in 0..grid.total_blocks() {
            prop_assert_eq!(hits.load_u32(i as usize), 1, "block {}", i);
        }
    }

    /// The partitioner always yields two disjoint, covering, non-empty
    /// ranges for any demands on any device size >= 2.
    #[test]
    fn partition_is_disjoint_cover(da in 0u32..100, db in 0u32..100, sms in 2u32..64) {
        let mut cfg = DeviceConfig::titan_xp();
        cfg.num_sms = sms;
        let p = partition(&cfg, da, db);
        prop_assert!(!p.a.overlaps(&p.b));
        prop_assert_eq!(p.a.len() + p.b.len(), sms);
        prop_assert_eq!(p.a.lo, 0);
        prop_assert_eq!(p.b.hi, sms - 1);
        prop_assert!(!p.a.is_empty() && !p.b.is_empty());
    }

    /// Classification is total, memory-prioritized, and policy decisions
    /// are symmetric under the closure.
    #[test]
    fn classify_and_policy_consistent(c in 0usize..3, m in 0usize..3) {
        let lv = [Intensity::Low, Intensity::Med, Intensity::High];
        let class = classify(lv[c], lv[m]);
        match lv[m] {
            Intensity::High => prop_assert_eq!(class, WorkloadClass::HM),
            Intensity::Med => prop_assert_eq!(class, WorkloadClass::MM),
            Intensity::Low => prop_assert!(matches!(
                class,
                WorkloadClass::LC | WorkloadClass::MC | WorkloadClass::HC
            )),
        }
        for &other in &WorkloadClass::ALL {
            prop_assert_eq!(should_corun(class, other), should_corun(other, class));
        }
    }
}
