//! Cross-runtime integration: the three schedulers over shared workloads,
//! invariants that must hold regardless of calibration, and the ablation
//! switches.

use slate_baselines::{CudaRuntime, MpsRuntime, Runtime};
use slate_core::runtime::{SlateOptions, SlateRuntime};
use slate_gpu_sim::device::DeviceConfig;
use slate_gpu_sim::trace::{Trace, TraceKind};
use slate_kernels::workload::Benchmark;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

fn titan() -> DeviceConfig {
    DeviceConfig::titan_xp()
}

/// Counts this thread's allocations (the ledger of
/// `crates/core/tests/feed_alloc.rs`), for the launch-loop cases below.
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

const SCALE: u32 = 30;

#[test]
fn all_runtimes_complete_every_pairing() {
    let cuda = CudaRuntime::new(titan());
    let mps = MpsRuntime::new(titan());
    let slate = SlateRuntime::new(titan());
    for (a, b) in Benchmark::all_pairings() {
        let apps = [a.app().scaled_down(SCALE), b.app().scaled_down(SCALE)];
        for rt in [&cuda as &dyn Runtime, &mps, &slate] {
            let out = rt.run(&apps);
            assert_eq!(out.apps.len(), 2, "{} {a:?}-{b:?}", rt.label());
            for r in &out.apps {
                assert!(r.end_s > 0.0, "{} {:?} never finished", rt.label(), r.bench);
                assert!(
                    r.kernel_busy_s > 0.0,
                    "{} {:?} ran no kernels",
                    rt.label(),
                    r.bench
                );
                assert!(r.end_s <= out.makespan_s + 1e-9);
            }
        }
    }
}

#[test]
fn work_conservation_across_runtimes() {
    // Whatever the scheduler, the same workload executes the same blocks
    // and the same flops.
    let cuda = CudaRuntime::new(titan());
    let slate = SlateRuntime::new(titan());
    let apps = [
        Benchmark::BS.app().scaled_down(SCALE),
        Benchmark::RG.app().scaled_down(SCALE),
    ];
    let oc = cuda.run(&apps);
    let os = slate.run(&apps);
    for (rc, rs) in oc.apps.iter().zip(os.apps.iter()) {
        assert_eq!(
            rc.metrics.blocks_done, rs.metrics.blocks_done,
            "{:?}",
            rc.bench
        );
        let rel = (rc.metrics.flops - rs.metrics.flops).abs() / rc.metrics.flops.max(1.0);
        assert!(rel < 1e-6, "{:?}: flops differ by {rel}", rc.bench);
    }
}

#[test]
fn solo_times_are_loop_scaled() {
    // Doubling the repetition loop roughly doubles the kernel time.
    let cuda = CudaRuntime::new(titan());
    let small = Benchmark::TR.app().scaled_down(64);
    let large = Benchmark::TR.app().scaled_down(32);
    let ts = cuda.run(std::slice::from_ref(&small)).apps[0].kernel_busy_s;
    let tl = cuda.run(std::slice::from_ref(&large)).apps[0].kernel_busy_s;
    let ratio = tl / ts;
    assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
}

#[test]
fn corun_ablation_degrades_complementary_pairs() {
    // Disabling workload-aware co-running must hurt exactly the pairings
    // that profit from it.
    let full = SlateRuntime::new(titan());
    let no_corun = SlateRuntime::with_options(
        titan(),
        SlateOptions {
            enable_corun: false,
            ..SlateOptions::default()
        },
    );
    let apps = [
        Benchmark::BS.app().scaled_down(SCALE),
        Benchmark::RG.app().scaled_down(SCALE),
    ];
    let with = full.run(&apps);
    let without = no_corun.run(&apps);
    assert!(
        without.makespan_s > with.makespan_s * 1.15,
        "corun must buy >15% on BS-RG: {} vs {}",
        with.makespan_s,
        without.makespan_s
    );
    // A solo-policy pair is unaffected by the switch.
    let apps = [
        Benchmark::MM.app().scaled_down(SCALE),
        Benchmark::BS.app().scaled_down(SCALE),
    ];
    let with = full.run(&apps);
    let without = no_corun.run(&apps);
    assert!(
        (without.makespan_s - with.makespan_s).abs() / with.makespan_s < 0.01,
        "MM-BS runs solo either way"
    );
}

#[test]
fn resize_ablation_strands_the_survivor() {
    // Without dynamic resizing, the kernel that outlives its co-runner is
    // stuck on its partition and finishes later.
    let full = SlateRuntime::new(titan());
    let no_resize = SlateRuntime::with_options(
        titan(),
        SlateOptions {
            enable_resize: false,
            ..SlateOptions::default()
        },
    );
    // Give BS one long monolithic launch so the partner's departure lands
    // mid-kernel: without the dispatch kernel's grow-relaunch, BS is
    // stranded on its partition for the remainder of that launch.
    let mut bs = Benchmark::BS.app().scaled_down(20);
    bs.blocks_per_launch *= bs.launches as u64;
    bs.batch *= bs.launches;
    bs.launches = 1;
    let apps = [bs, Benchmark::RG.app().scaled_down(40)];
    let with = full.run(&apps);
    let without = no_resize.run(&apps);
    let bs_with = with.apps[0].app_time_s;
    let bs_without = without.apps[0].app_time_s;
    assert!(
        bs_without > bs_with * 1.05,
        "resize must speed the survivor: {bs_with} vs {bs_without}"
    );
}

#[test]
fn slate_never_slower_than_cuda_by_much_solo() {
    // Solo, Slate's worst case stays within ~10% of CUDA (kernel time).
    let cuda = CudaRuntime::new(titan());
    let slate = SlateRuntime::new(titan());
    for b in Benchmark::ALL {
        let app = b.app().scaled_down(SCALE);
        let tc = cuda.run(std::slice::from_ref(&app)).apps[0].kernel_busy_s;
        let ts = slate.run(std::slice::from_ref(&app)).apps[0].kernel_busy_s;
        assert!(ts < tc * 1.10, "{b:?}: slate kernel time {ts} vs cuda {tc}");
    }
}

#[test]
fn three_way_mix_schedules_sanely() {
    // Three processes: two M_M (solo alternation) plus one L_C (coruns
    // with whichever is resident).
    let slate = SlateRuntime::new(titan());
    let apps = [
        Benchmark::BS.app().scaled_down(SCALE),
        Benchmark::GS.app().scaled_down(15),
        Benchmark::RG.app().scaled_down(SCALE),
    ];
    let out = slate.run(&apps);
    assert_eq!(out.apps.len(), 3);
    for r in &out.apps {
        assert!(r.end_s > 0.0 && r.end_s <= out.makespan_s + 1e-9);
        assert!(r.metrics.blocks_done > 0);
    }
}

#[test]
fn slate_trace_shows_partition_resizes_and_no_overlap() {
    let slate = SlateRuntime::new(titan());
    let apps = [
        Benchmark::BS.app().scaled_down(SCALE),
        Benchmark::RG.app().scaled_down(SCALE),
    ];
    let (out, tr) = slate.run_traced(&apps);
    assert!(!tr.is_empty());
    // The corun pair must have triggered at least one dynamic resize.
    assert!(
        out.apps[0].resizes + out.apps[1].resizes >= 1,
        "BS-RG must resize at least once"
    );
    // The rendered occupancy must never show two kernels on one SM at once.
    let gantt = tr.gantt(30, 120);
    assert!(!gantt.contains('#'), "overlapping SM occupancy:\n{gantt}");
    // SM-seconds roughly track kernel busy time x SM share.
    for (i, r) in out.apps.iter().enumerate() {
        let sm_s = tr.sm_seconds(i as u64);
        assert!(sm_s > 0.0, "app {i} ({:?}) occupied no SMs", r.bench);
        assert!(
            sm_s <= r.kernel_busy_s * 30.0 * 1.001 + 1e-6,
            "app {i}: {sm_s} SM-seconds exceeds busy {} x 30",
            r.kernel_busy_s
        );
    }
}

#[test]
fn baseline_trace_serializes_full_device_launches() {
    let cuda = CudaRuntime::new(titan());
    let apps = [
        Benchmark::BS.app().scaled_down(SCALE),
        Benchmark::GS.app().scaled_down(15),
    ];
    let (_, tr) = cuda.run_traced(&apps);
    // Every occupancy interval spans the whole device, and no two kernel
    // intervals overlap in time (kernel-to-completion serialization).
    let mut intervals = tr.occupancy_intervals();
    intervals.sort_by(|a, b| a.2.total_cmp(&b.2));
    for w in intervals.windows(2) {
        assert!(
            w[1].2 >= w[0].3 - 1e-9,
            "CUDA launches must not overlap: {w:?}"
        );
    }
    for (_, range, _, _) in &intervals {
        assert_eq!(range.len(), 30, "baselines always use the full device");
    }
}

#[test]
fn antt_is_one_for_the_baseline_itself() {
    let cuda = CudaRuntime::new(titan());
    let app = Benchmark::GS.app().scaled_down(SCALE);
    let solo = cuda.solo_time(&app);
    let out = cuda.run(std::slice::from_ref(&app));
    let antt = out.antt(&[solo]);
    assert!((antt - 1.0).abs() < 1e-9, "antt {antt}");
}

/// A trace's lifecycle skeleton: one token per event, with each Slate
/// resize (`Stop`, `Resize`, `Launch` of the remainder) folded away so a
/// launch is one `launch`…`stop` pair however often it was resized.
fn skeleton(trace: &Trace) -> Vec<&'static str> {
    let mut out = Vec::new();
    for ev in trace.events() {
        match ev.kind {
            TraceKind::TransferStart { h2d: true, .. } => out.push("h2d"),
            TraceKind::TransferStart { h2d: false, .. } => out.push("d2h"),
            TraceKind::TransferEnd { .. } => out.push("end"),
            TraceKind::Launch { .. } => out.push("launch"),
            TraceKind::Stop { .. } => out.push("stop"),
            TraceKind::Resize { .. } => {
                assert_eq!(out.pop(), Some("stop"), "a resize follows its stop");
                out.push("resized");
            }
        }
    }
    // Fold `resized launch` back into the launch it continues.
    let mut folded: Vec<&'static str> = Vec::new();
    for tok in out {
        match (folded.last(), tok) {
            (Some(&"resized"), "launch") => {
                folded.pop();
            }
            _ => folded.push(tok),
        }
    }
    folded
}

#[test]
fn every_runtime_drives_the_same_app_lifecycle() {
    // One solo app under CUDA, MPS and Slate: the three traces share the
    // skeleton the one lifecycle driver produces — H2D, the launch loop,
    // D2H — and differ only in when and where the launches ran.
    let app = Benchmark::GS.app().scaled_down(SCALE);
    let mut expected = vec!["h2d", "end"];
    for _ in 0..app.launches {
        expected.extend(["launch", "stop"]);
    }
    expected.extend(["d2h", "end"]);
    let cuda = CudaRuntime::new(titan());
    let mps = MpsRuntime::new(titan());
    let slate = SlateRuntime::new(titan());
    for rt in [&cuda as &dyn Runtime, &mps, &slate] {
        let (out, trace) = rt.run_traced(std::slice::from_ref(&app));
        assert_eq!(skeleton(&trace), expected, "{}", rt.label());
        assert_eq!(out.records, trace.len() as u64, "{}", rt.label());
    }
    // A co-running pair resizes under Slate; per process the skeleton
    // still holds once the resizes are folded.
    let pair = [
        Benchmark::BS.app().scaled_down(SCALE),
        Benchmark::RG.app().scaled_down(SCALE),
    ];
    let (out, trace) = slate.run_traced(&pair);
    assert!(out.apps[0].resizes + out.apps[1].resizes > 0);
    let launches = skeleton(&trace).iter().filter(|t| **t == "launch").count();
    assert_eq!(launches as u32, pair[0].launches + pair[1].launches);
}

/// Allocations of one BS-RG run under `rt`, and its launch count.
fn bs_rg_allocs(rt: &dyn Runtime, scale: u32) -> (u64, u32) {
    let apps = [
        Benchmark::BS.app().scaled_down(scale),
        Benchmark::RG.app().scaled_down(scale),
    ];
    let launches = apps[0].launches + apps[1].launches;
    (allocs_during(|| drop(rt.run(&apps))), launches)
}

#[test]
fn baseline_runs_allocate_per_run_not_per_launch() {
    // Setting a run up allocates (engine, lifecycle, the outcome); the
    // launch loop must not, and an untraced run keeps no record, so a
    // tenth of the launches costs exactly as many allocations as all of
    // them. Debug builds add one: the scratch of the engine's check that
    // a skipped rate recompute would have changed nothing.
    let expected = if cfg!(debug_assertions) { 15 } else { 14 };
    let cuda = CudaRuntime::new(titan());
    let mps = MpsRuntime::new(titan());
    for rt in [&cuda as &dyn Runtime, &mps] {
        let (small, few) = bs_rg_allocs(rt, 10);
        let (full, all) = bs_rg_allocs(rt, 1);
        assert!(all >= 2_800 && few * 9 < all, "{few} vs {all} launches");
        assert_eq!(small, full, "{}: allocations follow launches", rt.label());
        assert_eq!(full, expected, "{}: allocations in a run", rt.label());
    }
}

#[test]
fn slate_runs_allocate_a_bounded_handful() {
    // Slate adds first-run profiling and the arbiter core: a couple of
    // hundred allocations a run, whatever the launch count.
    let slate = SlateRuntime::new(titan());
    for scale in [10, 1] {
        let (n, launches) = bs_rg_allocs(&slate, scale);
        assert!(n < 256, "{n} allocations for {launches} launches");
    }
}

const SIM_BITS: &str = include_str!("data/sim_bits.txt");
const LLM_RECORDED_LOG: &str = include_str!("data/llm_recorded_log.json");

/// Every simulated number of the paper sweep, unrounded: per pairing and
/// runtime one line of `f64::to_bits` in hex — makespan, record count,
/// then per app `end_s kernel_busy_s comm_s active_s stall_s dram_bytes`.
fn sim_bits() -> String {
    use std::fmt::Write;
    let cuda = CudaRuntime::new(titan());
    let mps = MpsRuntime::new(titan());
    let slate = SlateRuntime::new(titan());
    let mut out = String::new();
    for (a, b) in Benchmark::all_pairings() {
        let apps = [a.app(), b.app()];
        for rt in [&cuda as &dyn Runtime, &mps, &slate] {
            let run = rt.run(&apps);
            write!(
                out,
                "{}-{} {} {:016x} {}",
                a.abbrev(),
                b.abbrev(),
                rt.label(),
                run.makespan_s.to_bits(),
                run.records
            )
            .unwrap();
            for r in &run.apps {
                let m = &r.metrics;
                for v in [
                    r.end_s,
                    r.kernel_busy_s,
                    r.comm_s,
                    m.active_s,
                    m.stall_s,
                    m.dram_bytes,
                ] {
                    write!(out, " {:016x}", v.to_bits()).unwrap();
                }
            }
            out.push('\n');
        }
    }
    out
}

/// The recorded arbitration log of the paper-scale LLM serving trace
/// (seed 1, preemption on), as its `serde_json` string.
fn llm_recorded_log() -> String {
    use slate_kernels::workload::{llm_trace, LlmTraceCfg};
    let slate = SlateRuntime::with_options(
        titan(),
        SlateOptions {
            preempt_bound_s: Some(0.02),
            ..SlateOptions::default()
        },
    );
    let (_, log) = slate.run_recorded(&llm_trace(&LlmTraceCfg::paper(1)));
    let mut json = serde_json::to_string(&log).expect("log serializes");
    json.push('\n');
    json
}

#[test]
fn simulated_numbers_are_bit_identical_to_the_fixture() {
    // `EXPERIMENTS.md` rounds to a few digits; this does not. A simulator
    // speed-up must leave every line as it is — regenerate only for a
    // deliberate model change (`-- --ignored regenerate_sim_fixtures`).
    let got = sim_bits();
    assert_eq!(got.lines().count(), 15 * 3);
    for (g, want) in got.lines().zip(SIM_BITS.lines()) {
        assert_eq!(g, want);
    }
    assert_eq!(got, SIM_BITS);
    let pinned: slate_core::arbiter::EventLog =
        serde_json::from_str(LLM_RECORDED_LOG).expect("fixture parses");
    let events: usize = pinned.batches.iter().map(|b| b.events.len()).sum();
    assert_eq!((pinned.batches.len(), events), (1445, 2860));
    // Not `assert_eq!`: a mismatch would print two 338 KB strings.
    assert!(
        llm_recorded_log() == LLM_RECORDED_LOG,
        "the recorded serving log moved"
    );
}

#[test]
#[ignore = "regenerates tests/data fixtures; run after an intended simulator change"]
fn regenerate_sim_fixtures() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data");
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(format!("{dir}/sim_bits.txt"), sim_bits()).unwrap();
    std::fs::write(format!("{dir}/llm_recorded_log.json"), llm_recorded_log()).unwrap();
}
