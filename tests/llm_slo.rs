//! SLO acceptance suite for the LLM serving family: bounded preemption of
//! best-effort work under latency-critical load, no starvation of
//! best-effort sessions, and SLO classes that survive a daemon crash
//! (WAL + snapshot recovery) and a cross-device migration.

use slate_core::api::SlateClient;
use slate_core::arbiter::{Command, Event};
use slate_core::daemon::{DaemonOptions, SlateDaemon};
use slate_core::{DurabilityOptions, PlacementConfig, PlacementLayer, WorkloadClass};
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::device::DeviceConfig;
use slate_gpu_sim::perf::KernelPerf;
use slate_harness::llm;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::GpuKernel;
use slate_kernels::workload::{Benchmark, SloClass};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scaled-down trace shared by the latency scenarios: bursts keep their
/// shape, the prefill loops shrink.
const SCALE: u32 = 10;

/// Arrival-jitter seed: fixed by default for reproducibility; the nightly
/// job sweeps a matrix via `SLATE_CHAOS_SEED` (decimal or `0x`-hex).
fn chaos_seed() -> u64 {
    match std::env::var("SLATE_CHAOS_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("SLATE_CHAOS_SEED is not a u64: {s:?}"))
        }
        Err(_) => 0xC0FFEE,
    }
}

#[test]
fn preemption_bounds_decode_tail_latency_under_load() {
    let cfg = DeviceConfig::titan_xp();
    let (results, report) = llm::run_seeded(&cfg, SCALE, chaos_seed());
    assert!(
        results.preemptions > 0,
        "the mixed trace must exercise the preemption path"
    );
    assert!(
        results.decode_on.p99_us < results.decode_off.p99_us,
        "p99 decode latency must be strictly below the no-preemption \
         baseline: {} vs {} µs",
        results.decode_on.p99_us,
        results.decode_off.p99_us
    );
    assert!(
        results.preempt.max_us <= results.preempt_bound_us,
        "a preemption took {} µs, past the {} µs bound",
        results.preempt.max_us,
        results.preempt_bound_us
    );
    assert!(
        report.all_pass(),
        "harness shape checks: {:?}",
        report.checks
    );
}

#[test]
fn best_effort_prefill_is_not_starved_by_critical_bursts() {
    let cfg = DeviceConfig::titan_xp();
    let (results, _) = llm::run_seeded(&cfg, SCALE, chaos_seed());
    // Every session — including the repeatedly-preempted best-effort
    // prefill loops — ran to completion.
    assert_eq!(
        results.completed_on, results.apps,
        "{} of {} sessions completed under preemption",
        results.completed_on, results.apps
    );
    // Preemption trades some prefill turnaround for decode latency, but a
    // starved prefill would blow ANTT up by orders of magnitude (its
    // denominator is a ~seconds solo time).
    assert!(
        results.antt_on.is_finite() && results.antt_on < 50.0,
        "preemption-run ANTT {} suggests starvation",
        results.antt_on
    );
}

// ---- SLO survives crash/recovery ----

/// Every block bumps its own hit slot once and dawdles, so the kernel
/// stays resident long enough to be preempted, and exactly-once execution
/// across the preemption's retreat + relaunch is observable as bytes.
struct HitKernel {
    blocks: u32,
    delay: Duration,
    perf: KernelPerf,
    hits: Arc<GpuBuffer>,
}

impl GpuKernel for HitKernel {
    fn name(&self) -> &str {
        &self.perf.name
    }
    fn grid(&self) -> GridDim {
        GridDim::d1(self.blocks)
    }
    fn perf(&self) -> KernelPerf {
        self.perf.clone()
    }
    fn run_block(&self, b: BlockCoord) {
        let i = b.x as usize;
        self.hits.store_f32(i, self.hits.load_f32(i) + 1.0);
        std::thread::sleep(self.delay);
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "slate-llm-slo-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn durable_slo_opts(dir: &Path) -> DaemonOptions {
    DaemonOptions {
        preempt_bound_ms: Some(50),
        durability: Some(DurabilityOptions {
            dir: dir.to_path_buf(),
            snapshot_every: 8,
            keep_all: true,
        }),
        ..Default::default()
    }
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The latency-critical class is declared exactly once, before the crash;
/// the only way the recovered daemon can preempt for the session is by
/// having restored the class from the WAL's `SessionMeta` + batch replay.
#[test]
fn slo_class_survives_crash_recovery() {
    let dir = tmpdir("crash");
    let daemon =
        SlateDaemon::start_with_options(DeviceConfig::tiny(8), 1 << 24, durable_slo_opts(&dir));
    let bulk = SlateClient::new(daemon.connect("bulk").unwrap());
    let decoder = SlateClient::new(
        daemon
            .connect_with_slo("decoder", SloClass::LatencyCritical)
            .unwrap(),
    );
    // Functional SIGKILL with nothing in flight: the class declaration is
    // already durable.
    let scene = daemon.crash();
    let recovered =
        SlateDaemon::recover(scene, durable_slo_opts(&dir)).expect("recover from WAL + snapshot");
    assert_eq!(recovered.epoch(), 1, "recovery bumps the epoch");
    assert_eq!(recovered.metrics().slo_preemptions, 0);
    bulk.install_reattach(&recovered);
    decoder.install_reattach(&recovered);

    // A long best-effort kernel occupies the device...
    let be_blocks = 256u32;
    let be_hits = bulk.malloc(u64::from(be_blocks) * 4).unwrap();
    bulk.upload_f32(be_hits, &vec![0.0f32; be_blocks as usize])
        .unwrap();
    bulk.launch_with(vec![be_hits], 4, None, move |bufs| {
        Arc::new(HitKernel {
            blocks: be_blocks,
            delay: Duration::from_millis(1),
            perf: KernelPerf::synthetic("be-prefill", 400.0, 900.0),
            hits: bufs[0].clone(),
        }) as Arc<dyn GpuKernel>
    })
    .unwrap();
    wait_for("best-effort kernel resident", || {
        recovered.metrics().arbiter_residents >= 1
    });

    // ...and the recovered daemon still preempts it for the
    // latency-critical session's arrival.
    let lc_blocks = 32u32;
    let lc_hits = decoder.malloc(u64::from(lc_blocks) * 4).unwrap();
    decoder
        .upload_f32(lc_hits, &vec![0.0f32; lc_blocks as usize])
        .unwrap();
    decoder
        .launch_with(vec![lc_hits], 4, None, move |bufs| {
            Arc::new(HitKernel {
                blocks: lc_blocks,
                delay: Duration::from_micros(100),
                perf: KernelPerf::synthetic("lc-decode", 300.0, 600.0),
                hits: bufs[0].clone(),
            }) as Arc<dyn GpuKernel>
        })
        .unwrap();
    wait_for("preemption on the recovered daemon", || {
        recovered.metrics().slo_preemptions >= 1
    });

    // Both kernels complete, and the preempted one's retreat + relaunch
    // kept exactly-once semantics: every hit slot reads 1.0.
    decoder.synchronize().unwrap();
    bulk.synchronize().unwrap();
    let be_out = bulk.download_f32(be_hits, be_blocks as usize).unwrap();
    for (i, &v) in be_out.iter().enumerate() {
        assert_eq!(v, 1.0, "preempted kernel block {i} executed {v} times");
    }
    let lc_out = decoder.download_f32(lc_hits, lc_blocks as usize).unwrap();
    assert!(lc_out.iter().all(|&v| v == 1.0));
    decoder.disconnect().unwrap();
    bulk.disconnect().unwrap();
    recovered.join();
    std::fs::remove_dir_all(&dir).ok();
}

// ---- SLO survives migration ----

fn ready(session: u64, lease: u64, demand: u32) -> Event {
    Event::KernelReady {
        session,
        lease,
        class: WorkloadClass::MM,
        sm_demand: demand,
        pinned_solo: false,
        deadline_ms: None,
    }
}

/// A latency-critical session is evacuated off a failed device; on the
/// surviving device — where the class was never declared — its re-staged
/// arrival must still preempt the best-effort resident, because the
/// placement layer re-declares the class ahead of the routed readiness.
#[test]
fn slo_class_survives_migration() {
    let mut config = PlacementConfig::default();
    config.arbiter.preempt_bound_us = Some(50_000);
    let mut layer = PlacementLayer::new(vec![DeviceConfig::tiny(8), DeviceConfig::tiny(8)], config);
    // Best-effort session 1 fills device 0.
    layer.feed(0, &[Event::SessionOpened { session: 1 }]);
    layer.feed(10, &[ready(1, 10, 8)]);
    // Latency-critical session 2 routes to the device with the most free
    // SMs — device 1 — and dispatches there.
    layer.feed(
        20,
        &[
            Event::SloArrival {
                session: 2,
                class: SloClass::LatencyCritical,
            },
            Event::SessionOpened { session: 2 },
        ],
    );
    layer.feed(30, &[ready(2, 20, 4)]);
    assert_eq!(layer.device_of_session(2), Some(1));

    // Device 1 drops off the bus: the layer synthesizes the evacuation
    // eviction; the eviction lands and the route flips to device 0.
    layer.feed(
        40,
        &[Event::DeviceDown {
            device: 1,
            hard: true,
        }],
    );
    layer.feed(
        50,
        &[Event::KernelFinished {
            lease: 20,
            ok: false,
        }],
    );

    // The re-staged readiness arrives on device 0, which has never seen
    // session 2's declaration. The layer re-declares it, so the core
    // preempts the best-effort resident instead of queueing behind it.
    let cmds = layer.feed(60, &[ready(2, 20, 4)]);
    assert_eq!(
        layer.device_of_lease(20),
        Some(0),
        "the lease's sticky route flipped to the evacuation target"
    );
    assert_eq!(
        layer.core(0).session_slo(2),
        SloClass::LatencyCritical,
        "the class must follow the session to the evacuation target"
    );
    assert!(
        cmds.iter()
            .any(|c| c.device == 0 && c.command == Command::Preempt { lease: 10 }),
        "the migrated arrival must preempt the best-effort resident: {cmds:?}"
    );
    assert!(
        cmds.iter()
            .any(|c| c.device == 0 && matches!(c.command, Command::Dispatch { lease: 20, .. })),
        "the migrated arrival must dispatch on the target: {cmds:?}"
    );
    assert_eq!(layer.core_stats().preemptions, 1);
}

/// The decode benchmark is latency-critical by construction and prefill is
/// best-effort: the trace generator owns the SLO wiring end to end.
#[test]
fn trace_generator_assigns_slo_classes() {
    let apps = slate_kernels::workload::llm_trace(&slate_kernels::workload::LlmTraceCfg::paper(1));
    assert!(apps
        .iter()
        .filter(|a| a.bench == Benchmark::PF)
        .all(|a| a.slo == SloClass::BestEffort));
    assert!(apps
        .iter()
        .filter(|a| a.bench == Benchmark::DC)
        .all(|a| a.slo == SloClass::LatencyCritical));
}
