//! The device task queue (paper Listings 2 and 3) and the daemon's
//! launch-queue accounting.
//!
//! Slate flattens a user grid into `slateMax` blocks and drives execution
//! through a single scheduling index `slateIdx`: every persistent worker
//! pulls the next `SLATE_ITERS` blocks with one `atomicAdd` and executes
//! them in order. A `retreat` flag — raised when the SM partition must
//! change — makes workers finish their current task and exit; because
//! `slateIdx` counts *pulled* tasks and pulled tasks are always completed
//! before exit, the index is exactly the carry-over point for a relaunch.
//!
//! This is a faithful host-side implementation with the same atomics
//! (`fetch_add` on the index, acquire/release on the flag).
//!
//! Alongside the device-side [`TaskQueue`], this module hosts the
//! *host-side* launch-queue primitive the daemon's overload protection is
//! built on: a [`LaunchGauge`] bounds the number of in-flight launches in a
//! queue (per session or daemon-wide) with a drop-newest shed policy, and a
//! [`QueueStats`] snapshot reports depth, high-water mark and shed/admit
//! counters for observability.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A group of consecutive user blocks pulled from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// First flat block index of the task.
    pub start: u64,
    /// Number of blocks in the task (clamped at the queue end, so the last
    /// task may be shorter than `SLATE_ITERS`).
    pub len: u32,
}

/// The shared task queue of one kernel execution.
#[derive(Debug)]
pub struct TaskQueue {
    slate_idx: AtomicU64,
    slate_max: u64,
    task_size: u32,
    retreat: AtomicBool,
    pulls: AtomicU64,
}

impl TaskQueue {
    /// Creates a queue over `total` blocks with the given task size
    /// (`SLATE_ITERS`; the paper's default is 10).
    pub fn new(total: u64, task_size: u32) -> Self {
        Self::with_progress(0, total, task_size)
    }

    /// Creates a queue that resumes from block `start` — what the dispatch
    /// kernel does on a relaunch after a resize.
    pub fn with_progress(start: u64, total: u64, task_size: u32) -> Self {
        assert!(task_size >= 1, "task size must be at least 1");
        assert!(start <= total, "start {start} beyond total {total}");
        Self {
            slate_idx: AtomicU64::new(start),
            slate_max: total,
            task_size,
            retreat: AtomicBool::new(false),
            pulls: AtomicU64::new(0),
        }
    }

    /// Total blocks (`slateMax`).
    pub fn total(&self) -> u64 {
        self.slate_max
    }

    /// Task size (`SLATE_ITERS`).
    pub fn task_size(&self) -> u32 {
        self.task_size
    }

    /// Atomically pulls the next task. Returns `None` once the queue is
    /// exhausted. Never returns an empty task.
    pub fn pull(&self) -> Option<Task> {
        let start = self
            .slate_idx
            .fetch_add(self.task_size as u64, Ordering::AcqRel);
        if start >= self.slate_max {
            return None;
        }
        self.pulls.fetch_add(1, Ordering::Relaxed);
        let len = (self.slate_max - start).min(self.task_size as u64) as u32;
        Some(Task { start, len })
    }

    /// Raises the retreat flag: workers finish their current task and exit.
    pub fn signal_retreat(&self) {
        self.retreat.store(true, Ordering::Release);
    }

    /// Clears the retreat flag before a relaunch.
    pub fn clear_retreat(&self) {
        self.retreat.store(false, Ordering::Release);
    }

    /// Whether workers should retreat (checked after each task).
    pub fn retreating(&self) -> bool {
        self.retreat.load(Ordering::Acquire)
    }

    /// Progress: blocks pulled (and therefore completed, since workers
    /// always finish a pulled task). Clamped to `total` because the
    /// `fetch_add` race lets the raw index overshoot.
    pub fn progress(&self) -> u64 {
        self.slate_idx.load(Ordering::Acquire).min(self.slate_max)
    }

    /// `slateIdx` as the pulls left it, overshoot included: what a launch's
    /// failed pulls cost, which [`TaskQueue::progress`] clamps away.
    #[cfg(test)]
    pub(crate) fn raw_index(&self) -> u64 {
        self.slate_idx.load(Ordering::Acquire)
    }

    /// Blocks not yet pulled.
    pub fn remaining(&self) -> u64 {
        self.slate_max - self.progress()
    }

    /// Whether every block has been pulled.
    pub fn drained(&self) -> bool {
        self.remaining() == 0
    }

    /// Number of atomic task pulls performed (the overhead Slate's task
    /// grouping amortises, Table V).
    pub fn pull_count(&self) -> u64 {
        self.pulls.load(Ordering::Relaxed)
    }
}

/// Point-in-time snapshot of a bounded launch queue ([`LaunchGauge`]).
///
/// Daemon snapshots persist gauge state in this form and restore it after
/// a crash via [`LaunchGauge::from_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Launches currently admitted and not yet completed.
    pub depth: u64,
    /// Highest depth ever observed.
    pub high_water: u64,
    /// Depth bound; `None` means unbounded.
    pub capacity: Option<u64>,
    /// Launches admitted into the queue since creation.
    pub admitted: u64,
    /// Launches shed (refused at the bound) since creation — the
    /// drop-newest policy: the *arriving* launch is the one rejected.
    pub shed: u64,
}

/// A bounded in-flight launch counter with drop-newest shedding.
///
/// The daemon keeps one gauge per session and one daemon-wide: a launch is
/// admitted only if [`LaunchGauge::try_push`] succeeds on both, and popped
/// when its execution finishes (successfully or not). The gauge never
/// blocks — over-bound arrivals are shed immediately, which is what turns
/// an unbounded queue under overload into backpressure the client can see.
#[derive(Debug)]
pub struct LaunchGauge {
    capacity: Option<u64>,
    depth: AtomicU64,
    high_water: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
}

impl LaunchGauge {
    /// A gauge bounded at `capacity` in-flight launches (`None` =
    /// unbounded, counting only).
    pub fn new(capacity: Option<u64>) -> Self {
        Self {
            capacity,
            depth: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Rebuilds a gauge from a [`QueueStats`] snapshot — the inverse of
    /// [`LaunchGauge::stats`], used when a crashed daemon's accounting is
    /// restored from a durable snapshot.
    pub fn from_stats(stats: QueueStats) -> Self {
        Self {
            capacity: stats.capacity,
            depth: AtomicU64::new(stats.depth),
            high_water: AtomicU64::new(stats.high_water),
            admitted: AtomicU64::new(stats.admitted),
            shed: AtomicU64::new(stats.shed),
        }
    }

    /// Tries to admit one launch. Returns `false` (and counts a shed) if
    /// the queue is at capacity; the arriving launch is the one dropped.
    pub fn try_push(&self) -> bool {
        let prev = self.depth.fetch_add(1, Ordering::AcqRel);
        if let Some(cap) = self.capacity {
            if prev >= cap {
                self.depth.fetch_sub(1, Ordering::AcqRel);
                self.shed.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.high_water.fetch_max(prev + 1, Ordering::AcqRel);
        true
    }

    /// Records a shed that happened before the depth check (e.g. an
    /// up-front deadline-feasibility rejection).
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Releases one admitted launch.
    pub fn pop(&self) {
        let prev = self.depth.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "pop without matching push");
    }

    /// Rolls back a successful [`LaunchGauge::try_push`] whose launch was
    /// ultimately shed elsewhere (e.g. this gauge admitted but the global
    /// gauge refused): the admission is undone and recounted as a shed, so
    /// `admitted` still equals completions and `admitted + shed` still
    /// equals attempts.
    pub fn cancel(&self) {
        let prev = self.depth.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "cancel without matching push");
        self.admitted.fetch_sub(1, Ordering::Relaxed);
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Current number of admitted, uncompleted launches.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Acquire)
    }

    /// Snapshot of the gauge.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            depth: self.depth.load(Ordering::Acquire),
            high_water: self.high_water.load(Ordering::Acquire),
            capacity: self.capacity,
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_pulls_cover_exactly_once() {
        let q = TaskQueue::new(25, 10);
        let t1 = q.pull().unwrap();
        let t2 = q.pull().unwrap();
        let t3 = q.pull().unwrap();
        assert_eq!((t1.start, t1.len), (0, 10));
        assert_eq!((t2.start, t2.len), (10, 10));
        assert_eq!((t3.start, t3.len), (20, 5), "tail task clamped");
        assert!(q.pull().is_none());
        assert!(q.drained());
        assert_eq!(q.pull_count(), 3);
    }

    #[test]
    fn resume_from_progress() {
        let q = TaskQueue::with_progress(40, 100, 10);
        assert_eq!(q.progress(), 40);
        assert_eq!(q.remaining(), 60);
        let t = q.pull().unwrap();
        assert_eq!(t.start, 40);
    }

    #[test]
    fn retreat_flag_roundtrip() {
        let q = TaskQueue::new(10, 1);
        assert!(!q.retreating());
        q.signal_retreat();
        assert!(q.retreating());
        q.clear_retreat();
        assert!(!q.retreating());
    }

    #[test]
    fn progress_clamped_after_overshoot() {
        let q = TaskQueue::new(5, 10);
        assert!(q.pull().is_some());
        assert!(q.pull().is_none()); // overshoots the raw index
        assert_eq!(q.progress(), 5);
        assert!(q.drained());
    }

    #[test]
    fn concurrent_pulls_partition_the_range() {
        let q = Arc::new(TaskQueue::new(10_000, 7));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(t) = q.pull() {
                    seen.push(t);
                }
                seen
            }));
        }
        let mut all: Vec<Task> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_by_key(|t| t.start);
        // Tasks tile [0, 10000) exactly, no gaps, no overlaps.
        let mut next = 0u64;
        for t in &all {
            assert_eq!(t.start, next, "gap or overlap at {next}");
            next += t.len as u64;
        }
        assert_eq!(next, 10_000);
    }

    #[test]
    #[should_panic(expected = "task size")]
    fn rejects_zero_task_size() {
        TaskQueue::new(10, 0);
    }

    #[test]
    fn zero_block_queue_is_born_drained() {
        let q = TaskQueue::new(0, 10);
        assert!(q.drained());
        assert!(q.pull().is_none());
    }

    #[test]
    fn gauge_sheds_newest_at_capacity_and_tracks_high_water() {
        let g = LaunchGauge::new(Some(2));
        assert!(g.try_push());
        assert!(g.try_push());
        assert!(!g.try_push(), "third launch is shed, drop-newest");
        assert!(!g.try_push());
        let s = g.stats();
        assert_eq!(s.depth, 2);
        assert_eq!(s.high_water, 2);
        assert_eq!(s.admitted, 2);
        assert_eq!(s.shed, 2);
        assert_eq!(s.capacity, Some(2));
        g.pop();
        assert!(g.try_push(), "capacity freed by a pop");
        g.pop();
        g.pop();
        let s = g.stats();
        assert_eq!(s.depth, 0);
        assert_eq!(s.high_water, 2, "high-water mark persists");
        assert_eq!(s.admitted, 3);
    }

    #[test]
    fn gauge_cancel_rolls_back_an_admission() {
        let g = LaunchGauge::new(Some(4));
        assert!(g.try_push());
        assert!(g.try_push());
        g.cancel();
        let s = g.stats();
        assert_eq!(s.depth, 1);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(s.admitted + s.shed, 2, "attempts are conserved");
    }

    #[test]
    fn unbounded_gauge_only_counts() {
        let g = LaunchGauge::new(None);
        for _ in 0..100 {
            assert!(g.try_push());
        }
        assert_eq!(g.depth(), 100);
        assert_eq!(g.stats().shed, 0);
        g.record_shed();
        assert_eq!(g.stats().shed, 1, "explicit sheds are recorded");
    }

    #[test]
    fn gauge_is_consistent_under_concurrent_push_pop() {
        let g = Arc::new(LaunchGauge::new(Some(8)));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                let mut admitted = 0u64;
                for _ in 0..1_000 {
                    if g.try_push() {
                        admitted += 1;
                        g.pop();
                    }
                }
                admitted
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let s = g.stats();
        assert_eq!(s.depth, 0, "all pushes were popped");
        assert_eq!(s.admitted, total);
        assert_eq!(s.admitted + s.shed, 4_000);
        assert!(s.high_water <= 8, "bound never exceeded: {}", s.high_water);
    }
}
