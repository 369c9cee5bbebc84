//! Zero-allocation proof for the simulated launch loop.
//!
//! Every figure of the reproduction is millions of simulated launches,
//! and a launch is `add_slice → step (started) → step (drained) →
//! remove_slice`. On a warmed [`Engine`] that cycle must not touch the
//! allocator (`DESIGN.md` §3.1): rates are recomputed into buffers the
//! engine keeps, the kernel name is shared between profile, slice and
//! report, and the entity vectors stay at their high-water capacity.
//!
//! Same ledger as `crates/core/tests/feed_alloc.rs`: a thread-local
//! counting allocator, so the harness's other test threads stay out of it.

use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::engine::{Engine, Event, SliceId, SliceSpec};
use slate_gpu_sim::perf::{ExecMode, KernelPerf};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(p, l, n)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

fn launch(engine: &mut Engine, perf: &KernelPerf, range: SmRange, mode: ExecMode) -> SliceId {
    engine
        .add_slice(SliceSpec {
            perf: perf.clone(),
            sm_range: range,
            blocks: 50_000,
            mode,
            extra_lead_s: 0.0,
            batch: 1,
            tag: range.lo as u64,
        })
        .expect("valid launch")
}

/// Steps until `id` drains, then collects its report.
fn finish(engine: &mut Engine, id: SliceId) {
    let (mut started, mut steps) = (false, 0);
    loop {
        steps += 1;
        match engine.step().expect("a slice is running").1 {
            Event::SliceStarted(s) if s == id => started = true,
            Event::SliceDrained(s) if s == id => break,
            _ => {}
        }
    }
    assert!(started && steps >= 2);
    let report = engine.remove_slice(id);
    assert!(report.drained);
    assert_eq!(report.blocks_done, 50_000);
}

const SLATE: ExecMode = ExecMode::SlateWorkers { task_size: 10 };

#[test]
fn a_launch_on_a_warmed_engine_allocates_nothing() {
    let mut engine = Engine::new(DeviceConfig::titan_xp());
    let perf = KernelPerf::synthetic("stream", 2_000.0, 40_000.0);
    let cycle = |engine: &mut Engine| {
        for mode in [ExecMode::Hardware, SLATE] {
            let id = launch(engine, &perf, SmRange::all(30), mode);
            finish(engine, id);
        }
    };
    cycle(&mut engine);
    let n = allocs_during(|| {
        for _ in 0..64 {
            cycle(&mut engine);
        }
    });
    assert_eq!(
        n, 0,
        "a warmed add/step/step/remove cycle must not allocate"
    );
}

#[test]
fn co_resident_launches_allocate_nothing() {
    // Two slices on disjoint partitions, relaunched in turn as each
    // drains: every recomputation sees two demanders.
    let mut engine = Engine::new(DeviceConfig::titan_xp());
    let stream = KernelPerf::synthetic("stream", 100.0, 1_000_000.0);
    let compute = KernelPerf::synthetic("compute", 200_000.0, 0.0);
    let cycle = |engine: &mut Engine| {
        let a = launch(engine, &stream, SmRange::new(0, 19), SLATE);
        let b = launch(engine, &compute, SmRange::new(20, 29), SLATE);
        let (mut a_left, mut b_left) = (3, 3);
        let (mut a, mut b) = (Some(a), Some(b));
        while let Some((_, ev)) = engine.step() {
            let Event::SliceDrained(id) = ev else {
                continue;
            };
            assert!(engine.remove_slice(id).drained);
            if Some(id) == a {
                a_left -= 1;
                a = (a_left > 0).then(|| launch(engine, &stream, SmRange::new(0, 19), SLATE));
            } else {
                assert_eq!(Some(id), b);
                b_left -= 1;
                b = (b_left > 0).then(|| launch(engine, &compute, SmRange::new(20, 29), SLATE));
            }
        }
        assert_eq!((a_left, b_left), (0, 0));
    };
    cycle(&mut engine);
    let n = allocs_during(|| {
        for _ in 0..16 {
            cycle(&mut engine);
        }
    });
    assert_eq!(n, 0, "co-resident launches must not allocate");
}

#[test]
fn a_launch_beside_a_transfer_and_a_timer_allocates_nothing() {
    let mut engine = Engine::new(DeviceConfig::titan_xp());
    let perf = KernelPerf::synthetic("k", 10_000.0, 2_048.0);
    let cycle = |engine: &mut Engine| {
        // A transfer that outlasts the launch and a timer that fires
        // inside it: both are registered while the slice runs.
        let transfer = engine.add_transfer(1 << 30);
        let timer = engine.set_timer(engine.now() + 1e-4);
        let id = launch(engine, &perf, SmRange::all(30), ExecMode::Hardware);
        finish(engine, id);
        assert!(!engine.cancel_timer(timer), "the timer fired mid-launch");
        let (_, ev) = engine.step().expect("the transfer is in flight");
        assert_eq!(ev, Event::TransferDone(transfer));
        assert!(engine.idle());
    };
    cycle(&mut engine);
    let n = allocs_during(|| {
        for _ in 0..64 {
            cycle(&mut engine);
        }
    });
    assert_eq!(
        n, 0,
        "a launch beside a transfer and a timer must not allocate"
    );
}
