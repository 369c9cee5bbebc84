//! Fixed-input probes of single layers, run by every traced pass: each
//! layer's public entry point called standalone with a timer around it.
//! A workload that exercises a layer reports its own figure for it (from
//! its spans and recorded log); for the layers a workload leaves idle, the
//! probe's figure is what the traced pass reports, so every per-layer
//! metric is a measurement on every workload.

use crate::kernels::{add_kernel, HitKernel, ADD_N, ADD_SOURCE, HIT_BLOCKS};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::sys;
use crate::workloads::serve_durable::{self, Lifecycles};
use crate::workloads::sim_paper;
use slate_core::api::SlateClient;
use slate_core::arbiter::Command;
use slate_core::backend::{Backend, SimBackend, WorkSpec};
use slate_core::daemon::{DaemonOptions, SlateDaemon};
use slate_core::dispatch::Dispatcher;
use slate_core::feed;
use slate_core::injector::InjectionCache;
use slate_core::queue::TaskQueue;
use slate_core::transform::TransformedKernel;
use slate_core::{DurabilityOptions, ProfileTable};
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::engine::{Engine, SliceSpec};
use slate_gpu_sim::perf::ExecMode;
use slate_kernels::kernel::GpuKernel;
use slate_kernels::transpose::TransposeKernel;
use slate_kernels::workload::Benchmark;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Named probe results: metric name → (unit, value).
pub type Values = BTreeMap<&'static str, (&'static str, f64)>;

fn per_iter_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Standalone micro-probes of `feed`, `queue`, `profile`, `injector`,
/// `dispatch`, `gpu-sim::engine` and `backend::sim`, plus the generator's
/// own clock. `kernel` is the kernel of the workload's latency op.
pub fn micro(kernel: Arc<dyn GpuKernel>, task_size: u32, out: &mut Values) {
    // feed: one push+pop pair on the daemon's ring size.
    let (mut tx, mut rx) = feed::ring::<u64>(128);
    let ns = per_iter_ns(1_000_000, || {
        let _ = tx.push(black_box(7));
        black_box(rx.pop());
    });
    out.insert("feed.push_pop_ns", ("ns", ns));

    // queue: slateIdx pulls until drained.
    let pulls = 1_000_000u64;
    let q = TaskQueue::new(pulls, 1);
    let t0 = Instant::now();
    while let Some(t) = q.pull() {
        black_box(t);
    }
    out.insert(
        "queue.pull_ns",
        ("ns", t0.elapsed().as_nanos() as f64 / pulls as f64),
    );

    // profile: warm lookup.
    let cfg = DeviceConfig::titan_xp();
    let perf = kernel.perf();
    let mut table = ProfileTable::new();
    table.get_or_profile(&cfg, &perf, 10_000);
    let ns = per_iter_ns(200_000, || {
        black_box(table.get_or_profile(&cfg, &perf, 10_000).class);
    });
    out.insert("profile.lookup_ns", ("ns", ns));

    // injector: misses on fresh users, then hits.
    let mut cache = InjectionCache::new();
    let users: Vec<String> = (0..200).map(|u| format!("probe-user-{u}")).collect();
    let t0 = Instant::now();
    for u in &users {
        black_box(cache.get_or_inject(u, ADD_SOURCE, 1).len());
    }
    out.insert(
        "injector.miss_us",
        (
            "us",
            t0.elapsed().as_nanos() as f64 / 1e3 / users.len() as f64,
        ),
    );
    let ns = per_iter_ns(200_000, || {
        black_box(cache.get_or_inject(&users[0], ADD_SOURCE, 1).len());
    });
    out.insert("injector.hit_ns", ("ns", ns));

    // dispatch: the latency op's kernel through a standalone dispatcher
    // (worker spawn, queue pulls, join), and the 1024x1024 transpose for
    // block throughput.
    let transformed = TransformedKernel::new(kernel);
    let mut run_us = Vec::new();
    let mut relaunches = 0u64;
    for _ in 0..300 {
        let d = Dispatcher::new(
            cfg.clone(),
            transformed.clone(),
            task_size,
            SmRange::all(cfg.num_sms),
        );
        let t0 = Instant::now();
        let outcome = d.run();
        run_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        relaunches += u64::from(outcome.launches.saturating_sub(1));
    }
    out.insert("dispatch.run_us", ("us", median(&run_us)));
    out.insert(
        "dispatch.relaunches_per_run",
        ("count", relaunches as f64 / run_us.len() as f64),
    );
    let dim = crate::workloads::serve_mixed::DIM;
    let (src, dst) = (
        Arc::new(GpuBuffer::new(dim * dim * 4)),
        Arc::new(GpuBuffer::new(dim * dim * 4)),
    );
    let transpose = TransformedKernel::new(Arc::new(TransposeKernel::new(
        dim as u32, dim as u32, src, dst,
    )));
    let mut blocks_per_s = Vec::new();
    for _ in 0..5 {
        let d = Dispatcher::new(cfg.clone(), transpose.clone(), 8, SmRange::all(cfg.num_sms));
        let t0 = Instant::now();
        let outcome = d.run();
        blocks_per_s.push(outcome.blocks as f64 / t0.elapsed().as_secs_f64());
    }
    out.insert("dispatch.blocks_per_s", ("1/s", median(&blocks_per_s)));

    // gpu-sim engine: two co-running slices (an H_M and an L_C benchmark
    // on a 20/10 SM split, as the runtime partitions them), stepped until
    // idle; repeated so the timer brackets many steps.
    let mut steps = 0u64;
    let reps = 2_000u64;
    let t0 = Instant::now();
    for _ in 0..reps {
        let mut engine = Engine::new(cfg.clone());
        for (bench, lo, hi) in [(Benchmark::GS, 0, 19), (Benchmark::RG, 20, 29)] {
            let app = bench.app();
            engine
                .add_slice(SliceSpec {
                    perf: app.perf.clone(),
                    sm_range: SmRange::new(lo, hi),
                    blocks: app.blocks_per_launch,
                    mode: ExecMode::SlateWorkers {
                        task_size: app.task_size,
                    },
                    extra_lead_s: 0.0,
                    batch: app.batch,
                    tag: lo as u64,
                })
                .expect("benchmark slice launches");
        }
        while let Some(ev) = engine.step() {
            black_box(ev);
            steps += 1;
        }
    }
    out.insert(
        "engine.step_ns",
        ("ns", t0.elapsed().as_nanos() as f64 / steps.max(1) as f64),
    );
    out.insert(
        "engine.steps_per_run",
        ("count", steps as f64 / reps as f64),
    );

    // backend::sim: stage -> apply(Dispatch) -> wait_completion.
    let blocks = 10_000u64;
    let nop = TransformedKernel::new(Arc::new(NopKernel(blocks as u32)));
    let small = DeviceConfig::tiny(4);
    let ns = per_iter_ns(300, || {
        let mut be = SimBackend::new(small.clone());
        be.stage(1, WorkSpec::new(nop.clone(), 10));
        be.apply(&Command::Dispatch {
            lease: 1,
            range: SmRange::all(4),
        });
        black_box(be.wait_completion(10_000));
    });
    out.insert("backend.sim_drain_ns_per_block", ("ns", ns / blocks as f64));

    // The generator's own clock: how late a 1 ms sleep wakes, for the
    // workloads that have no open-loop phase to report it from.
    let mut late: Vec<f64> = (0..300)
        .map(|_| {
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_millis(1));
            (t0.elapsed().as_secs_f64() - 1e-3).max(0.0) * 1e6
        })
        .collect();
    late.sort_by(f64::total_cmp);
    out.insert("bench.late_p99_us", ("us", percentile(&late, 0.99)));
}

/// A body-less kernel of `.0` blocks in a 1-D grid, for the timing-only
/// simulation backend.
struct NopKernel(u32);

impl GpuKernel for NopKernel {
    fn name(&self) -> &str {
        "nop"
    }
    fn grid(&self) -> slate_kernels::grid::GridDim {
        slate_kernels::grid::GridDim::d1(self.0)
    }
    fn perf(&self) -> slate_gpu_sim::perf::KernelPerf {
        slate_gpu_sim::perf::KernelPerf::synthetic("nop", 100.0, 0.0)
    }
    fn run_block(&self, _: slate_kernels::grid::BlockCoord) {}
}

/// Launches the api probe makes.
const API_PROBE_LAUNCHES: u64 = 300;

/// Client-call costs on a live `daemon`, from a connection of the probe's
/// own: short sessions for `connect`/`disconnect`, `malloc`+`free` pairs
/// for the plain request round trip (pipe send → session thread → reply,
/// no arbiter work beyond admission), add-kernel launches for the launch
/// send and the synchronize wait, and 4 MB copies each way.
pub fn api(daemon: &Arc<SlateDaemon>, out: &mut Values) -> Result<u64, String> {
    let e = |e: slate_core::SlateError| e.to_string();
    let us = |t0: Instant| t0.elapsed().as_nanos() as f64 / 1e3;

    let (mut connect, mut disconnect) = (Vec::new(), Vec::new());
    for _ in 0..64 {
        let t0 = Instant::now();
        let c = SlateClient::new(daemon.connect("probe").map_err(e)?);
        connect.push(us(t0));
        let t0 = Instant::now();
        c.disconnect().map_err(e)?;
        disconnect.push(us(t0));
    }
    out.insert("api.connect_us", ("us", median(&connect)));
    out.insert("api.disconnect_us", ("us", median(&disconnect)));

    let client = SlateClient::new(daemon.connect("probe").map_err(e)?);
    let mut rpc = Vec::new();
    for _ in 0..300 {
        let t0 = Instant::now();
        let p = client.malloc(4096).map_err(e)?;
        client.free(p).map_err(e)?;
        rpc.push(us(t0) / 2.0);
    }
    out.insert("api.rpc_us", ("us", median(&rpc)));

    let ptr = client.malloc((ADD_N * 4) as u64).map_err(e)?;
    let (mut send, mut wait) = (Vec::new(), Vec::new());
    for _ in 0..API_PROBE_LAUNCHES {
        let t0 = Instant::now();
        client
            .launch_with(vec![ptr], 1, None, |bufs| add_kernel(0, bufs[0].clone()))
            .map_err(e)?;
        send.push(us(t0));
        let t0 = Instant::now();
        client.synchronize().map_err(e)?;
        wait.push(us(t0));
    }
    client.free(ptr).map_err(e)?;
    out.insert("api.launch_send_us", ("us", median(&send)));
    out.insert("api.sync_wait_us", ("us", median(&wait)));

    let words = 1usize << 20;
    let mb = (words * 4) as f64 / (1 << 20) as f64;
    let big = client.malloc((words * 4) as u64).map_err(e)?;
    let data = vec![1.0f32; words];
    let (mut h2d, mut d2h) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        let t0 = Instant::now();
        client.upload_f32(big, &data).map_err(e)?;
        h2d.push(us(t0) / mb);
        let t0 = Instant::now();
        black_box(client.download_f32(big, words).map_err(e)?);
        d2h.push(us(t0) / mb);
    }
    client.free(big).map_err(e)?;
    client.disconnect().map_err(e)?;
    out.insert("api.h2d_us_per_mb", ("us", median(&h2d)));
    out.insert("api.d2h_us_per_mb", ("us", median(&d2h)));
    Ok(API_PROBE_LAUNCHES)
}

/// What an idle daemon costs: process CPU over one second with two idle
/// sessions connected (heartbeat, parked consumer, session polls), net of
/// the same second with no daemon, and the threads it keeps.
pub fn idle(out: &mut Values) -> Result<(), String> {
    let window = Duration::from_secs(1);
    let base_cpu = sys::idle_cpu_pct(window);
    let base_threads = sys::threads();
    let daemon = SlateDaemon::start(DeviceConfig::titan_xp(), 1 << 22);
    let clients: Vec<SlateClient> = (0..2)
        .map(|i| {
            daemon
                .connect(&format!("idle-{i}"))
                .map(SlateClient::new)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let with_cpu = sys::idle_cpu_pct(window);
    let with_threads = sys::threads();
    for c in clients {
        c.disconnect().map_err(|e| e.to_string())?;
    }
    daemon.join();
    out.insert("daemon.idle_cpu_pct", ("%", (with_cpu - base_cpu).max(0.0)));
    out.insert(
        "daemon.threads",
        ("count", with_threads.saturating_sub(base_threads) as f64),
    );
    Ok(())
}

/// Launches each live session of the recovery probe holds when the daemon
/// is killed.
const HELD_LAUNCHES: usize = 4;

/// Crash recovery, end to end: `reps` × { fresh directory with
/// `snapshot_every` huge and `keep_all`, exactly `lifecycles` session
/// lifecycles plus two live sessions holding replayable work, `crash()`,
/// then timed `recover()` + `resume` + `synchronize` of both }. Every
/// repetition is verified exactly-once through the hit buffers. Returns
/// the per-repetition seconds and the exactly-once verdict.
pub fn recover(scratch: &Path, lifecycles: u64, reps: usize) -> (Vec<f64>, Result<(), String>) {
    let mut times = Vec::new();
    for rep in 0..reps {
        match recover_once(scratch, lifecycles) {
            Ok(s) => times.push(s),
            Err(e) => return (times, Err(format!("repetition {rep}: {e}"))),
        }
    }
    (times, Ok(()))
}

fn recover_once(scratch: &Path, lifecycles: u64) -> Result<f64, String> {
    let e = |e: slate_core::SlateError| e.to_string();
    let dir = serve_durable::fresh_dir(scratch, "recover");
    let options = || DurabilityOptions {
        dir: dir.clone(),
        snapshot_every: u64::MAX,
        keep_all: true,
    };
    let daemon = serve_durable::start_daemon(options(), false);
    let mut churn = Lifecycles::new(0);
    for i in 0..lifecycles {
        let user = format!("user-{}", i % serve_durable::USER_POOL);
        churn.run_as(&daemon, &[user], &mut Spans::off())?;
    }
    let slots = HELD_LAUNCHES * HIT_BLOCKS as usize;
    let mut live = Vec::new();
    for i in 0..2 {
        let client = SlateClient::new(daemon.connect(&format!("live-{i}")).map_err(e)?);
        let hits = client.malloc((slots * 4) as u64).map_err(e)?;
        client.upload_f32(hits, &vec![0.0; slots]).map_err(e)?;
        for k in 0..HELD_LAUNCHES {
            let base = k * HIT_BLOCKS as usize;
            client
                .launch_replayable(vec![hits], 4, None, move |bufs| {
                    Arc::new(HitKernel {
                        base,
                        hits: bufs[0].clone(),
                    }) as Arc<dyn GpuKernel>
                })
                .map_err(e)?;
        }
        live.push((client, hits));
    }
    let scene = daemon.crash();
    drop(daemon);

    let t0 = Instant::now();
    let recovered = SlateDaemon::recover(
        scene,
        DaemonOptions {
            durability: Some(options()),
            ..DaemonOptions::default()
        },
    )
    .map_err(e)?;
    for (client, _) in &live {
        client.install_reattach(&recovered);
        client.synchronize().map_err(e)?;
    }
    let took_s = t0.elapsed().as_secs_f64();

    let mut verdict = Ok(());
    for (i, (client, hits)) in live.into_iter().enumerate() {
        let got = client.download_f32(hits, slots).map_err(e)?;
        if let Some(bad) = got.iter().position(|&v| v != 1.0) {
            verdict = Err(format!(
                "live session {i}: slot {bad} executed {} times",
                got[bad]
            ));
        }
        client.free(hits).map_err(e)?;
        client.disconnect().map_err(e)?;
    }
    recovered.join();
    if recovered.wal_io_errors() != 0 {
        verdict = Err(format!("{} WAL I/O errors", recovered.wal_io_errors()));
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    verdict.map(|()| took_s)
}

/// One sweep of the simulated-time stack, reduced to the per-layer
/// figures: host time per call of each entry point.
pub fn sim(items: &[sim_paper::Item], out: &mut Values) {
    let per_call_us = |name: &str| {
        let v: Vec<f64> = items
            .iter()
            .filter(|i| i.name == name)
            .map(|i| i.dur_s * 1e6)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let per_unit = |name: &str, scale: f64| {
        let (t, u) = items
            .iter()
            .filter(|i| i.name == name)
            .fold((0.0, 0u64), |(t, u), i| (t + i.dur_s, u + i.units));
        (u > 0).then(|| t * scale / u as f64)
    };
    let mut put = |name: &'static str, unit: &'static str, v: Option<f64>| {
        if let Some(v) = v {
            out.insert(name, (unit, v));
        }
    };
    put("runtime.run_us_per_app", "us", per_unit("runtime.run", 1e6));
    put(
        "runtime.recorded_run_us",
        "us",
        per_call_us("runtime.run_recorded"),
    );
    put(
        "baselines.mps_run_us",
        "us",
        per_call_us("baselines.mps_run"),
    );
    put(
        "baselines.cuda_run_us",
        "us",
        per_call_us("baselines.cuda_run"),
    );
    put("multi.run_us", "us", per_call_us("multi.run_placed"));
    put(
        "trace.export_us_per_batch",
        "us",
        per_unit("trace.export", 1e6),
    );
    put(
        "trace.replay_under_ns_per_event",
        "ns",
        per_unit("trace.replay_under", 1e9),
    );
    put(
        "kernels.llm_trace_us",
        "us",
        per_call_us("kernels.llm_trace"),
    );
}
