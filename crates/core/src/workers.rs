//! Persistent workers with SM-range gating (paper §III-A3, Listing 1),
//! hosted on persistent worker lanes.
//!
//! Slate sizes the worker set to the maximum number of thread blocks the
//! *designated* SMs can hold resident, launches one grid of workers, and
//! gates each worker on its SM id: workers landing outside
//! `[sm_low, sm_high]` return immediately; survivors loop pulling tasks
//! from the queue until it drains or the retreat flag rises.
//!
//! This module is the functional counterpart: simulated workers carry an
//! SM id assigned round-robin the way the hardware distributes blocks, run
//! the same gate, and drive a real [`TaskQueue`] with real atomics. The
//! timing counterpart lives in the fluid engine
//! (`ExecMode::SlateWorkers`).
//!
//! *Counted, not run.* On hardware the workers pull in parallel and one
//! that finds the queue drained exits after its one `atomicAdd`. `slateIdx`
//! only grows, so once a pull fails every later worker would fail its
//! first pull too: a stripe ends at its first failed pull, and the live and
//! gated workers of a launch are counted from the grid
//! (`WorkerGrid::live`) rather than by visiting each. A launch costs
//! O(tasks), not O(resident workers), with the same blocks run in the same
//! order and the same [`WorkerRunStats`]; only the raw overshoot of
//! `slateIdx` past `slateMax` (which [`TaskQueue::progress`] clamps) is
//! smaller — one failed pull per stripe instead of one per live worker.
//!
//! # Lanes
//!
//! Logical workers are hosted by a [`LanePool`] of `N` *lanes*
//! (`N = available_parallelism()` for the process-wide pool). A launch
//! cuts its worker grid into `N` stripes — stripe `t` is the workers
//! `w ≡ t (mod N)`, run in order — and the thread that calls
//! [`LanePool::launch`] is always lane 0: it hosts stripe 0 itself and
//! then every stripe no helper has claimed. Lanes `1..N` are long-lived
//! parked helper threads, spawned once with the pool; nothing on the
//! launch path creates a thread or allocates per worker.
//!
//! *Wake rule.* A launch invites `min(N, ⌈remaining / task_size⌉) − 1`
//! helpers: one lane per pending task at most, none for a kernel whose
//! tasks lane 0 can take alone. A machine with one CPU is the pool with
//! zero helpers, not a special case.
//!
//! *Liveness.* A launch never waits for a helper that has not started: it
//! is over once lane 0 finds no stripe unclaimed (which withdraws the
//! unanswered invitations) and the helpers *inside* have left. So a
//! co-runner whose hung kernel parks every helper costs other launches
//! their parallelism, never their progress. Because a launch returns only
//! after every stripe has been hosted and vacated, all workers of launch
//! `k` have exited before the dispatch kernel starts launch `k + 1` — the
//! SM confinement between relaunches the resize protocol relies on.

use crate::queue::TaskQueue;
use crate::sync::{Condvar, Mutex};
use crate::transform::TransformedKernel;
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::occupancy;
use slate_gpu_sim::perf::KernelPerf;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Outcome of one persistent-worker launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerRunStats {
    /// Workers that passed the SM gate and executed tasks.
    pub live_workers: u64,
    /// Workers that landed on undesignated SMs and exited immediately.
    pub gated_workers: u64,
    /// Blocks executed during this launch.
    pub blocks_executed: u64,
    /// Whether the launch ended because of a retreat signal (vs drain).
    pub retreated: bool,
}

/// The shape of a kernel's worker grid on one device: what a launch needs
/// of the device and the kernel's occupancy, computed once per dispatch
/// instead of on every (re)launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerGrid {
    num_sms: u32,
    per_sm: u32,
}

impl WorkerGrid {
    /// The grid of a kernel with profile `perf` on `device`; `None` if not
    /// even one block fits an SM (occupancy 0 — the kernel cannot launch).
    pub fn of(device: &DeviceConfig, perf: &KernelPerf) -> Option<Self> {
        let per_sm = occupancy::blocks_per_sm(device, perf);
        (per_sm > 0).then_some(Self {
            num_sms: device.num_sms,
            per_sm,
        })
    }

    /// SMs of the device.
    pub fn num_sms(&self) -> u32 {
        self.num_sms
    }

    /// Worker blocks one launch dispatches: the hardware scheduler does
    /// not know about the partition, so every SM gets its resident share.
    pub fn total(&self) -> u64 {
        self.per_sm as u64 * self.num_sms as u64
    }

    /// Workers of one launch that pass the gate on `range`: round-robin
    /// gives every SM its `per_sm` share, so the designated SMs hold
    /// `per_sm × |range|` (paper: "*Slate* always sets the size of workers
    /// as the maximum number of thread blocks that the designated SMs can
    /// support"). The other `total() − live` workers gate out.
    pub(crate) fn live(&self, range: SmRange) -> u64 {
        self.per_sm as u64 * range.len() as u64
    }
}

/// Per-stripe (and, summed, per-launch) work done.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    blocks: u64,
    retreated: u64,
}

/// Who hosts what of one launch, under [`Launch::seats`].
#[derive(Default)]
struct Seats {
    /// Next unclaimed stripe; equal to `stripes` once none is left.
    next: u64,
    /// Helper threads inside [`Launch::host`].
    helpers_inside: usize,
    /// Sum over the stripes hosted so far.
    tally: Tally,
    /// First panic out of a kernel body, re-raised on lane 0.
    panic: Option<Box<dyn Any + Send>>,
}

/// One launch of a worker grid: everything a lane needs to host a stripe,
/// `Arc`-owned so helpers share it without borrowing from lane 0's stack.
struct Launch {
    kernel: TransformedKernel,
    queue: Arc<TaskQueue>,
    grid: WorkerGrid,
    range: SmRange,
    /// Stripes the grid is cut into: the lanes of the hosting pool.
    stripes: u64,
    seats: Mutex<Seats>,
    /// Signalled when the last helper inside leaves.
    vacated: Condvar,
}

impl Launch {
    /// Runs the workers of one stripe, in order: Listing 1's gate, then
    /// Listing 2's pull loop, until a pull fails (module docs: every later
    /// worker would exit on its first pull).
    fn run_stripe(&self, stripe: u64) -> Tally {
        let mut t = Tally::default();
        for w in (stripe..self.grid.total()).step_by(self.stripes as usize) {
            // Hardware distributes blocks round-robin over SMs; Listing 1:
            // the whole block quits on an undesignated SM.
            if !self.range.contains((w % self.grid.num_sms as u64) as u32) {
                continue;
            }
            // Listing 2: pull tasks until drained or retreating.
            loop {
                let Some(task) = self.queue.pull() else {
                    return t;
                };
                self.kernel.run_task(task);
                t.blocks += task.len as u64;
                if self.queue.retreating() {
                    t.retreated += 1;
                    break;
                }
            }
        }
        t
    }

    /// Hosts unclaimed stripes on the calling thread until none is left.
    /// A panicking kernel body is caught, closes the launch to further
    /// claims and is kept for lane 0 to re-raise — a helper thread must
    /// survive it, and lane 0 must still wait for the helpers inside.
    fn host(&self, helper: bool) {
        let mut seats = self.seats.lock();
        if helper {
            seats.helpers_inside += 1;
        }
        while seats.next < self.stripes {
            let stripe = seats.next;
            seats.next += 1;
            drop(seats);
            let ran = catch_unwind(AssertUnwindSafe(|| self.run_stripe(stripe)));
            seats = self.seats.lock();
            match ran {
                Ok(t) => {
                    seats.tally.blocks += t.blocks;
                    seats.tally.retreated += t.retreated;
                }
                Err(payload) => {
                    seats.next = self.stripes;
                    seats.panic.get_or_insert(payload);
                }
            }
        }
        if helper {
            seats.helpers_inside -= 1;
            if seats.helpers_inside == 0 {
                self.vacated.notify_all();
            }
        }
    }
}

/// Invitations to launches that want helpers, and the pool's shutdown flag.
struct Inbox {
    invites: VecDeque<Arc<Launch>>,
    shutdown: bool,
}

/// What the helper threads of a pool share with its launches.
struct Shared {
    inbox: Mutex<Inbox>,
    wake: Condvar,
}

/// A helper lane: parked until invited, hosts stripes of the inviting
/// launch, parks again.
fn helper_main(shared: &Shared) {
    let mut inbox = shared.inbox.lock();
    loop {
        if let Some(launch) = inbox.invites.pop_front() {
            drop(inbox);
            launch.host(true);
            drop(launch);
            inbox = shared.inbox.lock();
        } else if inbox.shutdown {
            return;
        } else {
            shared.wake.wait(&mut inbox);
        }
    }
}

static HELPERS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Helper threads spawned by every [`LanePool`] of this process so far.
/// Pools spawn at construction only, so the count does not move while
/// launches run — the launch path creates no thread.
pub fn helper_threads_spawned() -> u64 {
    HELPERS_SPAWNED.load(Ordering::Relaxed)
}

/// A set of lanes hosting persistent-worker launches (module docs).
pub struct LanePool {
    lanes: usize,
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl LanePool {
    /// The process-wide pool every [`Dispatcher`](crate::dispatch::Dispatcher)
    /// launches on, created on first use with one lane per available CPU.
    pub fn global() -> Arc<LanePool> {
        static GLOBAL: OnceLock<Arc<LanePool>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
                LanePool::with_lanes(lanes)
            })
            .clone()
    }

    /// A private pool of `lanes` lanes (`lanes − 1` helper threads), joined
    /// when the pool drops. For tests that must not depend on the CPU
    /// count of the machine; everything else uses [`LanePool::global`].
    #[doc(hidden)]
    pub fn with_lanes(lanes: usize) -> Arc<LanePool> {
        assert!(lanes >= 1, "a pool has at least lane 0");
        let shared = Arc::new(Shared {
            inbox: Mutex::new(Inbox {
                invites: VecDeque::with_capacity(4 * lanes),
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let helpers = (1..lanes)
            .map(|lane| {
                let shared = shared.clone();
                HELPERS_SPAWNED.fetch_add(1, Ordering::Relaxed);
                std::thread::Builder::new()
                    .name(format!("slate-lane-{lane}"))
                    .spawn(move || helper_main(&shared))
                    .expect("spawn worker-lane helper thread")
            })
            .collect();
        Arc::new(LanePool {
            lanes,
            shared,
            helpers,
        })
    }

    /// Launches one set of persistent workers bound to `range` and runs
    /// until the queue drains or retreats.
    ///
    /// The launch models the hardware flow: `grid.total()` worker blocks
    /// are dispatched round-robin over all SMs (the hardware scheduler
    /// does not know about the partition), and the injected Listing 1 gate
    /// kills the ones outside the range. The calling thread is lane 0.
    ///
    /// # Panics
    /// If `range` reaches beyond the device, or — re-raised here once all
    /// lanes have left — if the kernel body panicked.
    pub fn launch(
        &self,
        kernel: &TransformedKernel,
        queue: &Arc<TaskQueue>,
        grid: WorkerGrid,
        range: SmRange,
    ) -> WorkerRunStats {
        assert!(
            range.hi < grid.num_sms,
            "range {range:?} outside device with {} SMs",
            grid.num_sms
        );
        let launch = Arc::new(Launch {
            kernel: kernel.clone(),
            queue: queue.clone(),
            grid,
            range,
            stripes: self.lanes as u64,
            seats: Mutex::new(Seats::default()),
            vacated: Condvar::new(),
        });
        // Wake rule: a lane per pending task at most, lane 0 being one.
        let tasks = queue.remaining().div_ceil(queue.task_size() as u64);
        let invited = (self.lanes as u64).min(tasks).saturating_sub(1) as usize;
        if invited > 0 {
            let mut inbox = self.shared.inbox.lock();
            inbox
                .invites
                .extend(std::iter::repeat_with(|| launch.clone()).take(invited));
            drop(inbox);
            for _ in 0..invited {
                self.shared.wake.notify_one();
            }
        }
        launch.host(false);
        // No stripe is left unclaimed: withdraw what no helper answered,
        // then wait for the helpers that did.
        if invited > 0 {
            self.shared
                .inbox
                .lock()
                .invites
                .retain(|l| !Arc::ptr_eq(l, &launch));
        }
        let mut seats = launch.seats.lock();
        while seats.helpers_inside > 0 {
            launch.vacated.wait(&mut seats);
        }
        if let Some(payload) = seats.panic.take() {
            drop(seats);
            resume_unwind(payload);
        }
        let t = seats.tally;
        let live = grid.live(range);
        WorkerRunStats {
            live_workers: live,
            gated_workers: grid.total() - live,
            blocks_executed: t.blocks,
            retreated: t.retreated > 0 && !queue.drained(),
        }
    }
}

impl Drop for LanePool {
    fn drop(&mut self) {
        self.shared.inbox.lock().shutdown = true;
        self.shared.wake.notify_all();
        for h in self.helpers.drain(..) {
            // A helper catches kernel panics, so a join error would be a
            // bug in this module; `Drop` must not panic over it.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slate_gpu_sim::buffer::GpuBuffer;
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

    fn queue(k: &TransformedKernel, task_size: u32) -> Arc<TaskQueue> {
        Arc::new(TaskQueue::new(k.slate_max(), task_size))
    }

    fn worker_grid(device: &DeviceConfig, k: &TransformedKernel) -> WorkerGrid {
        WorkerGrid::of(device, &k.inner().perf()).unwrap()
    }

    /// One launch of `k`'s worker grid on `device`, on the process-wide pool.
    fn launch(
        device: &DeviceConfig,
        k: &TransformedKernel,
        q: &Arc<TaskQueue>,
        range: SmRange,
    ) -> WorkerRunStats {
        LanePool::global().launch(k, q, worker_grid(device, k), range)
    }

    #[test]
    fn drains_queue_and_executes_every_block_once() {
        let device = DeviceConfig::tiny(4);
        let grid = GridDim::d2(33, 7);
        let (k, hits) = counter(grid);
        let q = queue(&k, 5);
        let stats = launch(&device, &k, &q, SmRange::all(4));
        assert!(q.drained());
        assert!(!stats.retreated);
        assert_eq!(stats.blocks_executed, grid.total_blocks());
        assert_eq!(stats.gated_workers, 0);
        for i in 0..grid.total_blocks() {
            assert_eq!(hits.load_u32(i as usize), 1, "block {i}");
        }
    }

    #[test]
    fn gate_kills_workers_outside_the_range() {
        let device = DeviceConfig::tiny(4);
        let (k, _) = counter(GridDim::d1(100));
        let q = queue(&k, 10);
        // Only SMs 0..=1 designated: half the workers gate out.
        let stats = launch(&device, &k, &q, SmRange::new(0, 1));
        assert!(q.drained());
        assert_eq!(
            stats.live_workers + stats.gated_workers,
            worker_grid(&device, &k).total()
        );
        assert_eq!(stats.gated_workers, stats.live_workers, "half gated");
    }

    #[test]
    fn worker_count_follows_occupancy_and_range() {
        let device = DeviceConfig::titan_xp();
        let (k, _) = counter(GridDim::d1(10));
        // synthetic kernel: 256 threads, 32 regs -> 8 blocks/SM.
        let grid = worker_grid(&device, &k);
        assert_eq!(grid.live(SmRange::all(30)), 240);
        assert_eq!(grid.live(SmRange::new(0, 9)), 80);
        assert_eq!((grid.total(), grid.num_sms()), (240, 30));
        // A block that fits no SM has no grid.
        let mut fat = k.inner().perf();
        fat.threads_per_block = 4096;
        assert_eq!(WorkerGrid::of(&device, &fat), None);
    }

    #[test]
    fn pre_signalled_retreat_stops_after_one_task_each() {
        let device = DeviceConfig::tiny(2);
        let (k, _) = counter(GridDim::d1(10_000));
        let q = queue(&k, 10);
        q.signal_retreat();
        let stats = launch(&device, &k, &q, SmRange::all(2));
        assert!(stats.retreated);
        assert!(!q.drained());
        // Each live worker executed at most one task before seeing the flag.
        assert!(stats.blocks_executed <= stats.live_workers * 10);
        assert_eq!(stats.blocks_executed, q.progress());
    }

    #[test]
    fn progress_equals_blocks_executed_under_retreat() {
        // The carry-over invariant: whatever was pulled was executed, so a
        // relaunch from `progress()` misses nothing and repeats nothing.
        let device = DeviceConfig::tiny(4);
        let grid = GridDim::d2(50, 40); // 2000 blocks
        let (k, hits) = counter(grid);
        let q = queue(&k, 7);
        q.signal_retreat();
        let first = launch(&device, &k, &q, SmRange::all(4));
        assert_eq!(first.blocks_executed, q.progress());
        // Relaunch from the carried progress on a different range.
        let q2 = Arc::new(TaskQueue::with_progress(q.progress(), k.slate_max(), 7));
        let second = launch(&device, &k, &q2, SmRange::new(1, 2));
        assert!(q2.drained());
        assert_eq!(
            first.blocks_executed + second.blocks_executed,
            grid.total_blocks()
        );
        for i in 0..grid.total_blocks() {
            assert_eq!(hits.load_u32(i as usize), 1, "block {i} executed once");
        }
    }

    /// The scenarios above on a private pool: a drain on the full device,
    /// a drain behind the gate, and a pre-signalled retreat carried into a
    /// relaunch. Returns every launch's stats.
    fn scenarios(pool: &LanePool) -> Vec<WorkerRunStats> {
        let device = DeviceConfig::tiny(4);
        let grid = GridDim::d2(50, 40); // 2000 blocks
        let mut all = Vec::new();
        for range in [SmRange::all(4), SmRange::new(1, 2)] {
            let (k, hits) = counter(grid);
            let shape = worker_grid(&device, &k);
            let q = queue(&k, 7);
            all.push(pool.launch(&k, &q, shape, range));
            assert!(q.drained());
            for i in 0..grid.total_blocks() {
                assert_eq!(hits.load_u32(i as usize), 1, "block {i}");
            }
        }
        let (k, hits) = counter(grid);
        let shape = worker_grid(&device, &k);
        let q = queue(&k, 7);
        q.signal_retreat();
        let first = pool.launch(&k, &q, shape, SmRange::all(4));
        // One task per live worker, whichever lane hosted it.
        assert_eq!(first.blocks_executed, first.live_workers * 7);
        assert_eq!(first.blocks_executed, q.progress());
        let q2 = Arc::new(TaskQueue::with_progress(q.progress(), k.slate_max(), 7));
        let second = pool.launch(&k, &q2, shape, SmRange::new(0, 0));
        for i in 0..grid.total_blocks() {
            assert_eq!(hits.load_u32(i as usize), 1, "block {i} executed once");
        }
        all.extend([first, second]);
        all
    }

    #[test]
    fn stats_are_identical_at_one_and_four_lanes() {
        let before = helper_threads_spawned();
        let one = LanePool::with_lanes(1);
        let four = LanePool::with_lanes(4);
        // Other tests may build pools concurrently; these two account for
        // at least their own three helpers.
        assert!(helper_threads_spawned() >= before + 3);
        assert_eq!(scenarios(&one), scenarios(&four));
    }

    /// The per-worker launch, the reference a stripe's early exit must
    /// match: every worker of the grid is visited and counted at the gate,
    /// and every live one pulls until the queue fails it. The stripes run one
    /// after another on the calling thread; tasks leave the queue in index
    /// order whichever lane pulls them, so this yields the stats and the
    /// block set of any interleaving of the same stripes.
    fn oracle(
        k: &TransformedKernel,
        q: &TaskQueue,
        grid: WorkerGrid,
        range: SmRange,
        stripes: u64,
    ) -> WorkerRunStats {
        let (mut live, mut gated, mut blocks, mut retreated) = (0, 0, 0, 0);
        for stripe in 0..stripes {
            for w in (stripe..grid.total()).step_by(stripes as usize) {
                let sm = (w % grid.num_sms as u64) as u32;
                if !range.contains(sm) {
                    gated += 1;
                    continue;
                }
                live += 1;
                while let Some(task) = q.pull() {
                    k.run_task(task);
                    blocks += task.len as u64;
                    if q.retreating() {
                        retreated += 1;
                        break;
                    }
                }
            }
        }
        WorkerRunStats {
            live_workers: live,
            gated_workers: gated,
            blocks_executed: blocks,
            retreated: retreated > 0 && !q.drained(),
        }
    }

    /// Pulls of `q` that found it empty: each moved `slateIdx` by one task
    /// and handed out nothing.
    fn failed_pulls(q: &TaskQueue) -> u64 {
        q.raw_index() / q.task_size() as u64 - q.pull_count()
    }

    /// Runs a queue of `blocks` blocks of a counter kernel through `run`:
    /// its stats, every block's hit count and its failed pulls.
    fn counted(
        blocks: u64,
        task_size: u32,
        retreat: bool,
        run: impl FnOnce(&TransformedKernel, &Arc<TaskQueue>) -> WorkerRunStats,
    ) -> (WorkerRunStats, Vec<u32>, u64) {
        let (k, hits) = counter(GridDim::d1(blocks.max(1) as u32));
        let q = Arc::new(TaskQueue::new(blocks, task_size));
        if retreat {
            q.signal_retreat();
        }
        let stats = run(&k, &q);
        let hits = (0..blocks).map(|i| hits.load_u32(i as usize)).collect();
        (stats, hits, failed_pulls(&q))
    }

    #[test]
    fn launch_matches_the_per_worker_oracle() {
        let device = DeviceConfig::titan_xp();
        let grid = worker_grid(&device, &counter(GridDim::d1(1)).0);
        assert_eq!(grid.total(), 240);
        let ranges = [
            SmRange::all(30),
            SmRange::new(0, 14),
            SmRange::new(15, 29),
            SmRange::new(7, 7),
        ];
        for lanes in [1, 4] {
            let pool = LanePool::with_lanes(lanes);
            for range in ranges {
                for task_size in [1, 7, 10] {
                    for blocks in [0, 1, 4, 239, 240, 241, 2000] {
                        for retreat in [false, true] {
                            let case = format!(
                                "{lanes} lanes, {range:?}, task {task_size}, \
                                 {blocks} blocks, retreat {retreat}"
                            );
                            let (got, got_hits, got_failed) =
                                counted(blocks, task_size, retreat, |k, q| {
                                    pool.launch(k, q, grid, range)
                                });
                            let (want, want_hits, _) =
                                counted(blocks, task_size, retreat, |k, q| {
                                    oracle(k, q, grid, range, lanes as u64)
                                });
                            assert_eq!(got, want, "{case}");
                            assert_eq!(got_hits, want_hits, "{case}");
                            // The same outcome for at most one empty pull
                            // per stripe, where the oracle makes one per
                            // live worker.
                            assert!(got_failed <= lanes as u64, "{case}: {got_failed}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_drained_launch_overshoots_slate_idx_by_one_pull_per_stripe_at_most() {
        let device = DeviceConfig::titan_xp();
        for lanes in [1, 4] {
            let pool = LanePool::with_lanes(lanes);
            for range in [SmRange::all(30), SmRange::new(15, 29)] {
                let (k, _) = counter(GridDim::d1(2_000));
                let q = queue(&k, 10);
                pool.launch(&k, &q, worker_grid(&device, &k), range);
                assert!(q.drained());
                // 2 000 is a whole number of tasks: all of the overshoot is
                // failed pulls. The per-worker launch made one per live
                // worker (240 or 120 here).
                let overshoot = q.raw_index() - q.total();
                assert!(
                    overshoot <= lanes as u64 * 10,
                    "{lanes} lanes, {range:?}: slateIdx {overshoot} past slateMax"
                );
            }
        }
    }

    struct Faulty {
        grid: GridDim,
    }

    impl GpuKernel for Faulty {
        fn name(&self) -> &str {
            "faulty"
        }
        fn grid(&self) -> GridDim {
            self.grid
        }
        fn perf(&self) -> KernelPerf {
            KernelPerf::synthetic("faulty", 100.0, 4.0)
        }
        fn run_block(&self, b: BlockCoord) {
            assert!(b.x != 777, "block {} is broken", b.x);
        }
    }

    #[test]
    fn kernel_panic_surfaces_on_lane_0_and_the_helpers_survive_it() {
        let device = DeviceConfig::tiny(4);
        let pool = LanePool::with_lanes(4);
        let k = TransformedKernel::new(Arc::new(Faulty {
            grid: GridDim::d1(5_000),
        }));
        let shape = worker_grid(&device, &k);
        let q = queue(&k, 3);
        let raised = catch_unwind(AssertUnwindSafe(|| {
            pool.launch(&k, &q, shape, SmRange::all(4))
        }));
        let payload = raised.expect_err("the kernel's panic must reach the launcher");
        let msg = payload.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains("block 777 is broken"), "{msg}");
        // Whichever lane hit it left the launch (or lane 0 would still be
        // waiting), and the pool goes on hosting launches.
        assert_eq!(scenarios(&pool), scenarios(&LanePool::with_lanes(1)));
    }
}
