//! The dispatch kernel (paper §IV-C, Listing 3) — dynamic kernel resizing.
//!
//! To resize a running kernel, Slate does not launch user kernels directly:
//! it launches a *dispatch kernel* that (1) clears the retreat flag,
//! (2) launches the user kernel's persistent workers onto the currently
//! designated SM range, (3) waits for them, and (4) if the task queue is
//! not yet drained — i.e. the workers retreated because the partition
//! changed — loops and relaunches onto the updated range. The scheduling
//! index `slateIdx` carries progress across relaunches.
//!
//! [`Dispatcher::run`] is that loop, executing the user kernel functionally
//! on the persistent worker lanes of [`crate::workers`] with the calling
//! thread as lane 0 — a relaunch creates no thread; [`DispatchHandle::resize`]
//! is the runtime-side signal that adjusts the SM range mid-flight.

use crate::queue::TaskQueue;
use crate::transform::TransformedKernel;
use crate::workers::{LanePool, WorkerGrid, WorkerRunStats};
use parking_lot::Mutex;
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shared state between the dispatch loop and the runtime.
#[derive(Debug)]
struct DispatchState {
    /// Shared with the lanes hosting the current worker launch.
    queue: Arc<TaskQueue>,
    range: Mutex<SmRange>,
    /// Bumped on every resize; lets the loop detect a resize that raced
    /// with a relaunch boundary.
    generation: AtomicU64,
    /// Raised by the watchdog: the dispatch loop must stop relaunching and
    /// return with the queue undrained.
    evicted: AtomicBool,
}

/// Handle the runtime uses to resize a dispatched kernel while it runs.
#[derive(Debug, Clone)]
pub struct DispatchHandle {
    state: Arc<DispatchState>,
}

impl DispatchHandle {
    /// Adjusts the designated SM range: signals retreat so the current
    /// worker set exits at the next task boundary, after which the dispatch
    /// loop relaunches onto `new_range`.
    pub fn resize(&self, new_range: SmRange) {
        *self.state.range.lock() = new_range;
        self.state.generation.fetch_add(1, Ordering::Release);
        self.state.queue.signal_retreat();
    }

    /// Evicts the kernel from the device: the retreat flag is raised like
    /// for a resize, but instead of relaunching the dispatch loop exits
    /// with whatever progress was made. This is the watchdog's remedy for
    /// a kernel that exceeded its deadline — the paper's own resize
    /// mechanism (§IV-C) repurposed as bounded preemption.
    pub(crate) fn evict(&self) {
        self.state.evicted.store(true, Ordering::Release);
        self.state.queue.signal_retreat();
    }

    /// Whether [`DispatchHandle::evict`] has been called.
    #[cfg(test)]
    pub(crate) fn is_evicted(&self) -> bool {
        self.state.evicted.load(Ordering::Acquire)
    }

    /// Current progress in blocks (the carried `slateIdx`).
    #[cfg(test)]
    pub(crate) fn progress(&self) -> u64 {
        self.state.queue.progress()
    }

    /// Whether the user kernel has completed all blocks.
    #[cfg(test)]
    pub(crate) fn done(&self) -> bool {
        self.state.queue.drained()
    }
}

/// Summary of a completed dispatch (the user kernel ran to completion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchOutcome {
    /// Worker launches performed (1 = never resized mid-run).
    pub launches: u32,
    /// Per-launch worker statistics.
    pub(crate) runs: Vec<WorkerRunStats>,
    /// Absolute `slateIdx` progress at exit: the grid size unless evicted.
    /// For a dispatch resumed from carried progress this includes the
    /// carried blocks.
    pub blocks: u64,
    /// Total queue pulls across all launches.
    pub queue_pulls: u64,
    /// The dispatch was evicted before the queue drained; `blocks` is
    /// partial and the kernel's results are incomplete.
    pub(crate) evicted: bool,
}

/// The dispatch kernel for one user kernel execution.
pub struct Dispatcher {
    kernel: TransformedKernel,
    /// Worker-grid shape on the target device: the same for every
    /// (re)launch of this dispatch.
    grid: WorkerGrid,
    pool: Arc<LanePool>,
    state: Arc<DispatchState>,
}

impl Dispatcher {
    /// Prepares a dispatch of `kernel` with the given task size, initially
    /// bound to `range`.
    ///
    /// # Panics
    /// If the kernel has occupancy 0 on `device` (it cannot launch);
    /// callers serving untrusted kernels check `WorkerGrid::of` first.
    pub fn new(
        device: DeviceConfig,
        kernel: TransformedKernel,
        task_size: u32,
        range: SmRange,
    ) -> Self {
        let grid = WorkerGrid::of(&device, &kernel.inner().perf())
            .expect("kernel cannot launch (occupancy 0)");
        Self::on_grid(grid, kernel, task_size, range, 0)
    }

    /// [`Dispatcher::new`] resuming from `start` blocks of carried progress
    /// — the relaunch path after an eviction.
    #[cfg(test)]
    fn resume(
        device: DeviceConfig,
        kernel: TransformedKernel,
        task_size: u32,
        range: SmRange,
        start: u64,
    ) -> Self {
        let grid = WorkerGrid::of(&device, &kernel.inner().perf()).expect("launchable");
        Self::on_grid(grid, kernel, task_size, range, start)
    }

    /// Prepares a dispatch on a known worker-grid shape that resumes from
    /// `start` blocks of carried progress — the relaunch path after an
    /// eviction. The task queue picks up at the carried `slateIdx`, so
    /// blocks `[0, start)` are treated as already executed and
    /// [`DispatchOutcome::blocks`] reports absolute progress including
    /// them.
    pub(crate) fn on_grid(
        grid: WorkerGrid,
        kernel: TransformedKernel,
        task_size: u32,
        range: SmRange,
        start: u64,
    ) -> Self {
        let state = Arc::new(DispatchState {
            queue: Arc::new(TaskQueue::with_progress(
                start,
                kernel.slate_max(),
                task_size,
            )),
            range: Mutex::new(range),
            generation: AtomicU64::new(0),
            evicted: AtomicBool::new(false),
        });
        Self {
            kernel,
            grid,
            pool: LanePool::global(),
            state,
        }
    }

    /// Hosts this dispatch's workers on `pool` instead of the process-wide
    /// one, so a test can fix the lane count whatever the machine's.
    #[doc(hidden)]
    pub fn with_pool(mut self, pool: Arc<LanePool>) -> Self {
        self.pool = pool;
        self
    }

    /// The resize handle to give to the runtime.
    pub fn handle(&self) -> DispatchHandle {
        DispatchHandle {
            state: self.state.clone(),
        }
    }

    /// Listing 3: launch workers, wait, relaunch onto the adjusted range
    /// until the job completes. Blocks the calling thread (the paper's
    /// dispatch kernel persists on-device through the user kernel's whole
    /// execution), which hosts workers itself as lane 0 of every launch.
    pub fn run(self) -> DispatchOutcome {
        let mut runs = Vec::new();
        loop {
            let gen_before = self.state.generation.load(Ordering::Acquire);
            let range = *self.state.range.lock();
            self.state.queue.clear_retreat();
            // A resize may have slipped between the generation read and the
            // clear; re-raise the retreat so this launch exits promptly and
            // picks up the new range on the next iteration. An eviction
            // must never be un-signalled by the clear either.
            if self.state.generation.load(Ordering::Acquire) != gen_before
                || self.state.evicted.load(Ordering::Acquire)
            {
                self.state.queue.signal_retreat();
            }
            let stats = self
                .pool
                .launch(&self.kernel, &self.state.queue, self.grid, range);
            runs.push(stats);
            // Evicted: do NOT start over — give the SMs back undrained.
            if self.state.evicted.load(Ordering::Acquire) {
                break;
            }
            // "if job is incomplete, start over"
            if self.state.queue.drained() {
                break;
            }
        }
        DispatchOutcome {
            launches: runs.len() as u32,
            blocks: self.state.queue.progress(),
            queue_pulls: self.state.queue.pull_count(),
            evicted: self.state.evicted.load(Ordering::Acquire),
            runs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slate_gpu_sim::buffer::GpuBuffer;
    use slate_gpu_sim::fault::FaultToken;
    use slate_gpu_sim::perf::KernelPerf;
    use slate_kernels::grid::{BlockCoord, GridDim};
    use slate_kernels::kernel::GpuKernel;

    struct Counter {
        grid: GridDim,
        hits: Arc<GpuBuffer>,
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
            self.hits.fetch_add_u32(self.grid.flat_of(b) as usize, 1);
        }
    }

    fn counter(grid: GridDim) -> (TransformedKernel, Arc<GpuBuffer>) {
        let hits = Arc::new(GpuBuffer::new(grid.total_blocks() as usize * 4));
        (
            TransformedKernel::new(Arc::new(Counter {
                grid,
                hits: hits.clone(),
            })),
            hits,
        )
    }

    fn assert_each_block_once(hits: &GpuBuffer, total: u64) {
        for i in 0..total {
            assert_eq!(hits.load_u32(i as usize), 1, "block {i}");
        }
    }

    /// The process-wide pool (lanes follow the machine), then private
    /// pools of one lane (no helper) and of four: every scenario below
    /// must hold whoever hosts the workers.
    fn pools() -> [Arc<LanePool>; 3] {
        [
            LanePool::global(),
            LanePool::with_lanes(1),
            LanePool::with_lanes(4),
        ]
    }

    #[test]
    fn undisturbed_dispatch_launches_once() {
        let mut outcomes = Vec::new();
        for pool in pools() {
            let device = DeviceConfig::tiny(4);
            let grid = GridDim::d2(40, 10);
            let (k, hits) = counter(grid);
            let d = Dispatcher::new(device, k, 10, SmRange::new(0, 2)).with_pool(pool);
            let out = d.run();
            assert_eq!(out.launches, 1);
            assert_eq!(out.blocks, 400);
            assert_each_block_once(&hits, 400);
            outcomes.push(out);
        }
        // Same workers live, gated and blocks run at any lane count.
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[1], outcomes[2]);
        assert_eq!(
            outcomes[0].runs[0].gated_workers * 3,
            outcomes[0].runs[0].live_workers
        );
    }

    #[test]
    fn resize_before_run_starts_on_the_new_range() {
        for pool in pools() {
            let device = DeviceConfig::tiny(4);
            let grid = GridDim::d1(5_000);
            let (k, hits) = counter(grid);
            let d = Dispatcher::new(device.clone(), k, 10, SmRange::all(4)).with_pool(pool);
            let h = d.handle();
            // Resize before running: the dispatch loop picks up the new range
            // immediately (the raced retreat at worst forces one relaunch).
            h.resize(SmRange::new(0, 1));
            let out = d.run();
            assert_eq!(out.blocks, 5_000);
            assert_each_block_once(&hits, 5_000);
            assert!(h.done());
            // The final launch ran on the shrunken range: half the dispatched
            // workers were gated off SMs 2 and 3.
            let last = out.runs.last().unwrap();
            assert!(last.gated_workers > 0, "gate must have fired: {last:?}");
        }
    }

    #[test]
    fn concurrent_resizes_never_lose_or_duplicate_blocks() {
        for pool in pools() {
            let device = DeviceConfig::tiny(4);
            let grid = GridDim::d2(200, 50); // 10k blocks
            let (k, hits) = counter(grid);
            let d = Dispatcher::new(device, k, 5, SmRange::all(4)).with_pool(pool);
            let h = d.handle();
            let resizer = std::thread::spawn(move || {
                let ranges = [
                    SmRange::new(0, 0),
                    SmRange::new(1, 3),
                    SmRange::new(2, 2),
                    SmRange::all(4),
                ];
                for r in ranges {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    h.resize(r);
                }
            });
            let out = d.run();
            resizer.join().unwrap();
            assert_eq!(out.blocks, 10_000);
            assert_each_block_once(&hits, 10_000);
        }
    }

    /// A kernel whose blocks take real wall time, so an eviction can land
    /// mid-flight deterministically.
    struct Slow {
        grid: GridDim,
    }

    impl GpuKernel for Slow {
        fn name(&self) -> &str {
            "slow"
        }
        fn grid(&self) -> GridDim {
            self.grid
        }
        fn perf(&self) -> KernelPerf {
            KernelPerf::synthetic("slow", 100.0, 4.0)
        }
        fn run_block(&self, _b: BlockCoord) {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    #[test]
    fn eviction_stops_the_relaunch_loop_with_partial_progress() {
        for pool in pools() {
            let device = DeviceConfig::tiny(2);
            let grid = GridDim::d1(100_000);
            let k = TransformedKernel::new(Arc::new(Slow { grid }));
            let d = Dispatcher::new(device, k, 1, SmRange::all(2)).with_pool(pool);
            let h = d.handle();
            let evictor = std::thread::spawn({
                let h = h.clone();
                move || {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    h.evict();
                }
            });
            let out = d.run();
            evictor.join().unwrap();
            assert!(out.evicted);
            assert!(h.is_evicted());
            assert!(!h.done(), "queue must not be drained after eviction");
            assert!(
                out.blocks < grid.total_blocks(),
                "eviction landed mid-flight: {} blocks",
                out.blocks
            );
            assert!(out.runs.last().unwrap().retreated);
        }
    }

    /// A counting kernel whose blocks take real wall time, so randomized
    /// churn (resizes and evictions) lands mid-flight.
    struct SlowCounter {
        grid: GridDim,
        hits: Arc<GpuBuffer>,
        delay_us: u64,
    }

    impl GpuKernel for SlowCounter {
        fn name(&self) -> &str {
            "slow-counter"
        }
        fn grid(&self) -> GridDim {
            self.grid
        }
        fn perf(&self) -> KernelPerf {
            KernelPerf::synthetic("slow-counter", 100.0, 4.0)
        }
        fn run_block(&self, b: BlockCoord) {
            self.hits.fetch_add_u32(self.grid.flat_of(b) as usize, 1);
            std::thread::sleep(std::time::Duration::from_micros(self.delay_us));
        }
    }

    fn xorshift(s: &mut u64) -> u64 {
        let mut x = *s;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *s = x;
        x
    }

    fn rand_range(s: &mut u64, num_sms: u32) -> SmRange {
        let lo = (xorshift(s) % num_sms as u64) as u32;
        let hi = lo + (xorshift(s) % (num_sms - lo) as u64) as u32;
        SmRange::new(lo, hi)
    }

    #[test]
    fn resume_picks_up_carried_progress() {
        for pool in pools() {
            // An evicted dispatch reports absolute partial progress; a fresh
            // dispatcher resumed from it covers exactly the remainder.
            let device = DeviceConfig::tiny(4);
            let grid = GridDim::d2(60, 20); // 1200 blocks
            let hits = Arc::new(GpuBuffer::new(grid.total_blocks() as usize * 4));
            let k = TransformedKernel::new(Arc::new(SlowCounter {
                grid,
                hits: hits.clone(),
                delay_us: 30,
            }));
            let d = Dispatcher::new(device.clone(), k.clone(), 1, SmRange::all(4))
                .with_pool(pool.clone());
            let h = d.handle();
            let evictor = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                h.evict();
            });
            let out = d.run();
            evictor.join().unwrap();
            assert!(out.evicted);
            assert!(out.blocks < grid.total_blocks(), "evicted mid-flight");
            // Relaunch from the carried slateIdx on a different range.
            let d2 =
                Dispatcher::resume(device, k, 1, SmRange::new(0, 1), out.blocks).with_pool(pool);
            let out2 = d2.run();
            assert!(!out2.evicted);
            assert_eq!(out2.blocks, grid.total_blocks(), "absolute progress");
            assert_each_block_once(&hits, grid.total_blocks());
        }
    }

    #[test]
    fn randomized_churn_of_resizes_evictions_and_relaunches_covers_each_block_once() {
        let pools = pools();
        for (i, seed) in [3u64, 0x5EED, 0xBEEF, 0xC0FFEE, 0xFACADE, 0xD15C0]
            .into_iter()
            .enumerate()
        {
            let pool = &pools[i % pools.len()];
            let device = DeviceConfig::tiny(4);
            let grid = GridDim::d2(97, 13); // 1261 blocks
            let hits = Arc::new(GpuBuffer::new(grid.total_blocks() as usize * 4));
            let k = TransformedKernel::new(Arc::new(SlowCounter {
                grid,
                hits: hits.clone(),
                delay_us: 15,
            }));
            let mut rng = seed | 1;
            let mut start = 0u64;
            let mut stagings = 0u32;
            loop {
                stagings += 1;
                assert!(stagings <= 50, "churn failed to converge (seed {seed})");
                let task = 1 + (xorshift(&mut rng) % 8) as u32;
                let d = Dispatcher::resume(
                    device.clone(),
                    k.clone(),
                    task,
                    rand_range(&mut rng, 4),
                    start,
                )
                .with_pool(pool.clone());
                let h = d.handle();
                // Pre-draw the whole churn schedule so the thread needs no rng.
                let resizes: Vec<SmRange> = (0..xorshift(&mut rng) % 4)
                    .map(|_| rand_range(&mut rng, 4))
                    .collect();
                let evict = xorshift(&mut rng).is_multiple_of(2);
                let churner = std::thread::spawn(move || {
                    for r in resizes {
                        std::thread::sleep(std::time::Duration::from_micros(300));
                        h.resize(r);
                    }
                    if evict {
                        std::thread::sleep(std::time::Duration::from_micros(400));
                        h.evict();
                    }
                });
                let out = d.run();
                churner.join().unwrap();
                assert!(out.blocks <= grid.total_blocks());
                if out.evicted {
                    // Relaunch the remainder from the absolute progress.
                    start = out.blocks;
                } else {
                    assert_eq!(out.blocks, grid.total_blocks(), "seed {seed}");
                    break;
                }
            }
            assert_each_block_once(&hits, grid.total_blocks());
        }
    }

    #[test]
    fn progress_is_monotonic_and_reaches_total() {
        let device = DeviceConfig::tiny(2);
        let (k, _) = counter(GridDim::d1(1_000));
        let d = Dispatcher::new(device, k, 10, SmRange::all(2));
        let h = d.handle();
        assert_eq!(h.progress(), 0);
        assert!(!h.done());
        let out = d.run();
        assert_eq!(h.progress(), 1_000);
        assert!(h.done());
        assert!(out.queue_pulls >= 100);
    }

    /// Parks every block on a token, like the daemon's injected hang, and
    /// counts the threads parked.
    struct Hung {
        grid: GridDim,
        token: FaultToken,
        parked: AtomicU64,
    }

    impl GpuKernel for Hung {
        fn name(&self) -> &str {
            "hung"
        }
        fn grid(&self) -> GridDim {
            self.grid
        }
        fn perf(&self) -> KernelPerf {
            KernelPerf::synthetic("hung", 100.0, 4.0)
        }
        fn run_block(&self, _b: BlockCoord) {
            self.parked.fetch_add(1, Ordering::SeqCst);
            self.token.block_until_cancelled();
        }
    }

    #[test]
    fn a_hung_co_runner_holding_every_helper_does_not_stall_other_dispatches() {
        let pool = LanePool::with_lanes(4);
        let device = DeviceConfig::tiny(4);
        let hung = Arc::new(Hung {
            grid: GridDim::d1(1_000),
            token: FaultToken::new(),
            parked: AtomicU64::new(0),
        });
        // Dispatch A: enough tasks to invite all three helpers; its lane 0
        // and every helper park inside a block.
        let a = Dispatcher::new(
            device.clone(),
            TransformedKernel::new(hung.clone()),
            1,
            SmRange::all(4),
        )
        .with_pool(pool.clone());
        let ha = a.handle();
        let runner = std::thread::spawn(move || a.run());
        let waited = std::time::Instant::now();
        while hung.parked.load(Ordering::SeqCst) < 4 {
            assert!(
                waited.elapsed() < std::time::Duration::from_secs(30),
                "helpers never joined dispatch A"
            );
            std::thread::yield_now();
        }
        // Dispatch B on the same pool finds no helper free and completes
        // on its own lane 0, every block exactly once.
        let grid = GridDim::d2(70, 30);
        let (k, hits) = counter(grid);
        let b = Dispatcher::new(device, k, 3, SmRange::all(4)).with_pool(pool);
        let out = b.run();
        assert_eq!((out.launches, out.blocks), (1, grid.total_blocks()));
        assert_each_block_once(&hits, grid.total_blocks());
        assert_eq!(hung.parked.load(Ordering::SeqCst), 4, "A is still parked");
        // Evicting A (retreat + token cancel, as the daemon's lease table
        // does) brings all four lanes back with partial progress.
        ha.evict();
        hung.token.cancel();
        let out = runner.join().unwrap();
        assert!(out.evicted);
        assert!(out.blocks >= 4 && out.blocks < 1_000, "{}", out.blocks);
        assert!(out.runs.last().unwrap().retreated);
    }
}
