//! Cross-runtime integration: the three schedulers over shared workloads,
//! invariants that must hold regardless of calibration, and the ablation
//! switches.

use slate_baselines::{CudaRuntime, MpsRuntime, Runtime};
use slate_core::runtime::{SlateOptions, SlateRuntime};
use slate_gpu_sim::device::DeviceConfig;
use slate_gpu_sim::trace::{Trace, TraceKind};
use slate_kernels::workload::Benchmark;

fn titan() -> DeviceConfig {
    DeviceConfig::titan_xp()
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
    let out = slate.run(&apps);
    let tr = &out.trace;
    assert!(!tr.is_empty());
    // The corun pair must have triggered at least one dynamic resize.
    assert!(
        tr.resizes(0) + tr.resizes(1) >= 1,
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
    let out = cuda.run(&apps);
    let tr = &out.trace;
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
        let out = rt.run(std::slice::from_ref(&app));
        assert_eq!(skeleton(&out.trace), expected, "{}", rt.label());
    }
    // A co-running pair resizes under Slate; per process the skeleton
    // still holds once the resizes are folded.
    let pair = [
        Benchmark::BS.app().scaled_down(SCALE),
        Benchmark::RG.app().scaled_down(SCALE),
    ];
    let out = slate.run(&pair);
    assert!(out.trace.resizes(0) + out.trace.resizes(1) > 0);
    let launches = skeleton(&out.trace)
        .iter()
        .filter(|t| **t == "launch")
        .count();
    assert_eq!(launches as u32, pair[0].launches + pair[1].launches);
}
