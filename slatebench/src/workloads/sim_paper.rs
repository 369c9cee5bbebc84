//! `sim_paper`: no daemon. One **sweep** is the paper's evaluation set on
//! the simulated-time stack: the 15 `Benchmark::all_pairings()` ×
//! {`SlateRuntime`, `MpsRuntime`, `CudaRuntime`} at scale 1, the seeded
//! LLM serving trace through `run_recorded` with preemption on and off,
//! one four-device `run_placed`, a Perfetto export of the recorded log and
//! one counterfactual `replay_under`. The op is one sweep. An epoch builds
//! the runtimes and baselines from nothing and runs a fixed number of
//! sweeps, each between two ticks of the yardstick; simulated statistics
//! are taken from the first sweep.
//!
//! The simulated-time stack (`gpu-sim::engine`, `runtime`,
//! `placement::multi`, `baselines`, `backend::sim`, `trace`) does all the
//! work here and none in the serve workloads (the live daemon executes
//! through `Dispatcher`, not the engine). The sweep also pins the paper's
//! results, so a simulator speed-up cannot silently change them.

use super::{common, cpu_us_per, latencies, report_end_to_end, run_epochs, throughput, RunCfg};
use crate::layers;
use crate::load::{self, Bench, Slice};
use crate::probes::{self, Values};
use crate::report::WorkloadReport;
use crate::traced::{self, Traced};
use slate_baselines::{CudaRuntime, MpsRuntime, Runtime};
use slate_core::arbiter::replay::{replay_under, verify as verify_event_log};
use slate_core::daemon::SlateDaemon;
use slate_core::placement::multi::JobOutcome;
use slate_core::placement::PlacementConfig;
use slate_core::trace::export::trace_event_log;
use slate_core::trace::metrics::{decode_latencies, preempt_latencies, LatencyStats};
use slate_core::{PlacementPolicy, SlateOptions, SlateRuntime};
use slate_gpu_sim::device::DeviceConfig;
use slate_kernels::workload::{llm_trace, AppSpec, Benchmark, LlmTraceCfg};
use std::hint::black_box;
use std::time::Instant;

/// Preemption bound of the LLM serving runs, logical microseconds (the
/// value the `llm` experiment of `slate-repro` uses).
pub const PREEMPT_BOUND_US: u64 = 20_000;
/// Devices of the placed run.
const PLACED_FLEET: usize = 4;

/// One of the 15 pairings: the two benchmarks, their app specs and their
/// CUDA solo times (the ANTT baseline).
struct Pairing {
    pair: (Benchmark, Benchmark),
    apps: [AppSpec; 2],
    solos: [f64; 2],
}

/// Everything a sweep needs that does not depend on the sweep index:
/// runtimes, solo baselines and the pairings' app specs.
pub struct SimEnv {
    cuda: CudaRuntime,
    mps: MpsRuntime,
    slate: SlateRuntime,
    slate_preempt: SlateRuntime,
    fleet: Vec<DeviceConfig>,
    pairings: Vec<Pairing>,
    placed_apps: Vec<AppSpec>,
}

/// Builds runtimes, solo baselines and app specs, and runs one warm-up
/// sweep (the workload's set-up).
pub fn setup() -> SimEnv {
    let cfg = DeviceConfig::titan_xp();
    let cuda = CudaRuntime::new(cfg.clone());
    let solo: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|b| cuda.solo_time(&b.app()))
        .collect();
    let solo_of = |b: Benchmark| {
        solo[Benchmark::ALL
            .iter()
            .position(|&x| x == b)
            .expect("paired benchmark is one of the five")]
    };
    let pairings = Benchmark::all_pairings()
        .into_iter()
        .map(|(a, b)| Pairing {
            pair: (a, b),
            apps: [a.app(), b.app()],
            solos: [solo_of(a), solo_of(b)],
        })
        .collect();
    let placed_apps = Benchmark::ALL
        .iter()
        .chain(Benchmark::ALL.iter())
        .map(|b| b.app())
        .collect();
    let env = SimEnv {
        mps: MpsRuntime::new(cfg.clone()),
        slate: SlateRuntime::new(cfg.clone()),
        slate_preempt: SlateRuntime::with_options(
            cfg.clone(),
            SlateOptions {
                preempt_bound_s: Some(PREEMPT_BOUND_US as f64 / 1e6),
                ..SlateOptions::default()
            },
        ),
        fleet: vec![cfg; PLACED_FLEET],
        cuda,
        pairings,
        placed_apps,
    };
    // Warm-up is a fixed count: one whole sweep.
    sweep(&env, 0, 0, &mut Vec::new());
    env
}

/// One timed call of a sweep.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    /// Which layer entry point was called.
    pub name: &'static str,
    /// Host seconds the call took.
    pub dur_s: f64,
    /// Units behind the call (apps run, batches exported, events
    /// replayed), for per-unit layer metrics.
    pub units: u64,
}

/// The simulated results of one sweep (host-time independent; identical
/// across runs of one seed, and the pairing part across all seeds).
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Per pairing: ANTT under CUDA, MPS, Slate.
    pub antt: Vec<[f64; 3]>,
    /// Mean Slate-over-MPS throughput gain across the pairings, percent.
    pub gain_vs_mps_pct: f64,
    /// p99 decode latency with preemption on, simulated microseconds.
    pub decode_p99_us: u64,
    /// p99 decode latency with preemption off, simulated microseconds.
    pub decode_p99_off_us: u64,
    /// Preemptions the enabled run performed.
    pub preemptions: u64,
    /// Slowest preemption, simulated microseconds.
    pub preempt_max_us: u64,
    /// Apps of the serving trace that completed with preemption on.
    pub llm_completed: usize,
    /// Apps in the serving trace.
    pub llm_apps: usize,
    /// Arbitration events in the recorded serving run.
    pub events_recorded: u64,
    /// Batches in the recorded serving run.
    pub batches_recorded: u64,
    /// Whether the recorded log replays to the identical commands.
    pub replay_verify_ok: bool,
    /// Whether the exported trace is a JSON object with trace events.
    pub export_ok: bool,
    /// Whether the placed run drained with every app completed.
    pub placed_ok: bool,
    /// Sessions the placed run routed.
    pub placed_routed: u64,
}

fn timed<T>(items: &mut Vec<Item>, name: &'static str, units: u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    items.push(Item {
        name,
        dur_s: t0.elapsed().as_secs_f64(),
        units,
    });
    out
}

/// Runs sweep `i` of a run seeded with `seed`, appending one [`Item`] per
/// simulation call.
pub fn sweep(env: &SimEnv, seed: u64, i: u64, items: &mut Vec<Item>) -> SimStats {
    let mut antt = Vec::with_capacity(env.pairings.len());
    for Pairing { apps, solos, .. } in &env.pairings {
        let c = timed(items, "baselines.cuda_run", 2, || env.cuda.run(apps));
        let m = timed(items, "baselines.mps_run", 2, || env.mps.run(apps));
        let s = timed(items, "runtime.run", 2, || env.slate.run(apps));
        antt.push([c.antt(solos), m.antt(solos), s.antt(solos)]);
    }
    let gain_vs_mps_pct =
        antt.iter().map(|a| a[1] / a[2] - 1.0).sum::<f64>() / antt.len() as f64 * 100.0;

    let trace_cfg = LlmTraceCfg::paper(seed.wrapping_add(i));
    let apps = timed(items, "kernels.llm_trace", 1, || llm_trace(&trace_cfg));
    let n = apps.len() as u64;
    let (out_on, log_on) = timed(items, "runtime.run_recorded", n, || {
        env.slate_preempt.run_recorded(&apps)
    });
    let (_, log_off) = timed(items, "runtime.run_recorded", n, || {
        env.slate.run_recorded(&apps)
    });
    let decode_on = LatencyStats::of(decode_latencies(&log_on.batches));
    let decode_off = LatencyStats::of(decode_latencies(&log_off.batches));
    let preempt = LatencyStats::of(preempt_latencies(&log_on.batches));

    let placed = timed(
        items,
        "multi.run_placed",
        env.placed_apps.len() as u64,
        || {
            env.slate.run_placed(
                &env.fleet,
                &env.placed_apps,
                PlacementConfig {
                    policy: PlacementPolicy::LeastLoaded,
                    ..PlacementConfig::default()
                },
            )
        },
    );

    let batches = log_on.batches.len() as u64;
    let events: u64 = log_on.batches.iter().map(|b| b.events.len() as u64).sum();
    let json = timed(items, "trace.export", batches, || {
        trace_event_log(&log_on).map(|t| t.to_json())
    });
    let mut variant = log_on.config.clone();
    variant.preempt_bound_us = None;
    let replayed = timed(items, "trace.replay_under", events, || {
        replay_under(&log_on, variant)
    });
    black_box(&replayed);

    SimStats {
        antt,
        gain_vs_mps_pct,
        decode_p99_us: decode_on.p99_us,
        decode_p99_off_us: decode_off.p99_us,
        preemptions: preempt.n as u64,
        preempt_max_us: preempt.max_us,
        llm_completed: out_on.apps.iter().filter(|a| a.end_s > 0.0).count(),
        llm_apps: apps.len(),
        events_recorded: events,
        batches_recorded: batches,
        replay_verify_ok: verify_event_log(&log_on).is_ok(),
        export_ok: json.is_ok_and(|j| {
            matches!(serde::parse(&j), Ok(serde::JsonValue::Obj(f))
                if f.iter().any(|(k, _)| k == "traceEvents"))
        }),
        placed_ok: placed.drained
            && placed
                .outcomes
                .iter()
                .all(|o| matches!(o, Some(JobOutcome::Completed { .. }))),
        placed_routed: placed.stats.sessions_routed,
    }
}

/// The shape checks of a sweep: `(description, held)`. These are the
/// harness's own fig. 7 and LLM-serving checks, restated on the figures a
/// sweep keeps.
pub fn shape_checks(env: &SimEnv, s: &SimStats) -> Vec<(String, bool)> {
    let gain = |i: usize| s.antt[i][1] / s.antt[i][2] - 1.0;
    let find = |a: Benchmark, b: Benchmark| {
        env.pairings
            .iter()
            .position(|p| p.pair == (a, b) || p.pair == (b, a))
            .expect("pairing exists")
    };
    let is_rg = |i: usize| {
        let p = env.pairings[i].pair;
        p.0 == Benchmark::RG || p.1 == Benchmark::RG
    };
    let n = s.antt.len();
    let avg_vs_mps = s.gain_vs_mps_pct / 100.0;
    let avg_vs_cuda = s.antt.iter().map(|a| a[0] / a[2] - 1.0).sum::<f64>() / n as f64;
    let avg_mps_vs_cuda = s.antt.iter().map(|a| a[0] / a[1] - 1.0).sum::<f64>() / n as f64;
    let mm_bs = find(Benchmark::MM, Benchmark::BS);
    vec![
        (
            "Slate beats CUDA on every pairing".into(),
            s.antt.iter().all(|a| a[0] / a[2] - 1.0 > 0.0),
        ),
        (
            "Slate beats or matches MPS on all pairings except possibly MM-BS".into(),
            (0..n).filter(|&i| i != mm_bs).all(|i| gain(i) > -0.005),
        ),
        (
            "average Slate gain over MPS is 8-30% (paper: 11%)".into(),
            (0.08..0.30).contains(&avg_vs_mps),
        ),
        (
            "average Slate gain over CUDA exceeds the gain over MPS (paper: 18% vs 11%)".into(),
            avg_vs_cuda > avg_vs_mps && (0.10..0.35).contains(&avg_vs_cuda),
        ),
        (
            "MPS is a few percent better than CUDA on average (paper: 6%)".into(),
            (0.02..0.12).contains(&avg_mps_vs_cuda),
        ),
        (
            "every RG pairing coruns with a clear gain over MPS".into(),
            (0..n).filter(|&i| is_rg(i)).all(|i| gain(i) > 0.05),
        ),
        (
            "GS-GS gains 15-35% from software scheduling alone (paper: 24%)".into(),
            (0.15..0.35).contains(&gain(find(Benchmark::GS, Benchmark::GS))),
        ),
        ("preemption fired under load".into(), s.preemptions > 0),
        (
            "p99 decode latency strictly below the no-preemption baseline".into(),
            s.decode_p99_us < s.decode_p99_off_us,
        ),
        (
            "every preemption landed within the bound".into(),
            s.preempt_max_us <= PREEMPT_BOUND_US,
        ),
        (
            "all sessions of the serving trace completed".into(),
            s.llm_completed == s.llm_apps,
        ),
        (
            "recorded log replays to the identical commands".into(),
            s.replay_verify_ok,
        ),
        ("exported trace is loadable JSON".into(), s.export_ok),
        (
            "placed run drained with every app completed".into(),
            s.placed_ok && s.placed_routed == env.placed_apps.len() as u64,
        ),
    ]
}

/// Sweeps of one epoch.
const SWEEPS_PER_EPOCH: u64 = 12;

/// The sweeps of a pass: every timed call, and each sweep's simulated
/// statistics.
#[derive(Default)]
pub struct SweepLog {
    /// Every timed call, in order.
    pub items: Vec<Item>,
    /// Simulated statistics of each sweep.
    pub stats: Vec<SimStats>,
}

/// `count` sweeps as one slice (reported under `name`); their calls and
/// statistics go into `log`.
fn sweep_slice(
    env: &SimEnv,
    bench: &mut Bench,
    log: &mut SweepLog,
    count: u64,
    name: &'static str,
    seed: u64,
) -> Slice {
    bench.closed(name, count, |_| {
        let i = log.stats.len() as u64;
        log.stats.push(sweep(env, seed, i, &mut log.items));
        Ok(CALLS_PER_SWEEP)
    })
}

/// Simulation calls in one sweep: 15 pairings under three runtimes, the
/// trace generation, two recorded runs, the placed run, the export and
/// the counterfactual replay.
pub const CALLS_PER_SWEEP: u64 = 15 * 3 + 6;

fn check_sweeps(env: &SimEnv, log: &SweepLog, report: &mut WorkloadReport) {
    let first = &log.stats[0];
    println!(
        "  simulated, sweep 0: Slate over MPS {:.2} % (paper: 11 %), decode p99 {} us \
         with preemption vs {} us without",
        first.gain_vs_mps_pct, first.decode_p99_us, first.decode_p99_off_us
    );
    let (mut failed, mut run) = (0u64, 0u64);
    for (i, s) in log.stats.iter().enumerate() {
        let mut checks = shape_checks(env, s);
        checks.push((
            "pairing results identical to sweep 0".into(),
            s.antt == first.antt,
        ));
        for (desc, held) in checks {
            run += 1;
            if !held {
                failed += 1;
                eprintln!("  sweep {i}: shape check failed: {desc}");
            }
        }
    }
    report.check(
        "sim_paper shape checks pass on every sweep",
        failed == 0,
        format!("{failed} of {run} failed"),
    );
}

/// One complete `sim_paper` run.
pub fn run(cfg: &RunCfg) -> WorkloadReport {
    if cfg.trace {
        return run_traced(cfg);
    }
    let mut report = WorkloadReport::default();
    let mut log = SweepLog::default();
    let sweeps = if cfg.quick { 3 } else { SWEEPS_PER_EPOCH };
    let mut last_env = None;
    let epochs = run_epochs(
        cfg,
        &mut report,
        |_| setup(),
        |env, bench, _| {
            vec![sweep_slice(
                env, bench, &mut log, sweeps, "sweeps", cfg.seed,
            )]
        },
        |env, _, _| last_env = Some(env),
    );
    if cfg.corrupt {
        // The contract test's hook: a pairing result that moved must fail
        // the run.
        if let Some(last) = log.stats.last_mut() {
            last.antt[0][2] *= 1.5;
        }
    }
    report_end_to_end(
        cfg,
        &mut report,
        &epochs,
        |e, norm| e.named("sweeps").flat_map(|s| latencies(s, norm)).collect(),
        |e, norm| throughput(e, "sweeps", norm),
        |e, norm| cpu_us_per(e, "sweeps", 1, norm),
    );
    println!(
        "  {} sweeps of {CALLS_PER_SWEEP} simulation calls in {} epochs",
        log.stats.len(),
        epochs.len()
    );
    check_sweeps(&last_env.expect("an epoch ran"), &log, &mut report);
    report
}

/// The traced pass. Every call of a sweep is timed in both passes, so the
/// two halves run the same code and `bench.trace_overhead_pct` reads the
/// noise floor; the api figures come from a probe daemon.
fn run_traced(cfg: &RunCfg) -> WorkloadReport {
    let mut report = WorkloadReport::default();
    let env = setup();
    let bench = &mut Bench::off();
    let mut ref_log = SweepLog::default();
    let reference = load::repeat_for(cfg.seconds / 4.0, |_| {
        sweep_slice(&env, bench, &mut ref_log, 1, "reference", cfg.seed)
    });
    let mut log = SweepLog::default();
    let min_sweeps = if cfg.quick { 1 } else { 5 };
    let mut traced_slices = load::repeat_for(cfg.seconds / 2.0, |_| {
        sweep_slice(&env, bench, &mut log, 1, "sweeps", cfg.seed)
    });
    while traced_slices.len() < min_sweeps {
        traced_slices.push(sweep_slice(&env, bench, &mut log, 1, "sweeps", cfg.seed));
    }
    if cfg.corrupt {
        if let Some(last) = log.stats.last_mut() {
            last.antt[0][2] *= 1.5;
        }
    }
    for s in reference.iter().chain(&traced_slices) {
        report.slice(s);
    }
    check_sweeps(&env, &log, &mut report);

    let mut own = Values::new();
    common::rss_value(&mut own);
    let first = &log.stats[0];
    own.insert("sim.gain_vs_mps_pct", ("%", first.gain_vs_mps_pct));
    own.insert("sim.decode_p99_us", ("sim_us", first.decode_p99_us as f64));
    own.insert(
        "runtime.events_per_run",
        ("count", first.events_recorded as f64),
    );
    own.insert(
        "placement.sessions_routed",
        ("count", first.placed_routed as f64),
    );
    own.insert("placement.migrations", ("count", 0.0));

    // The recorded serving run of sweep 0, as the log the layer replays
    // work on.
    let apps = llm_trace(&LlmTraceCfg::paper(cfg.seed));
    let (_, event_log) = env.slate_preempt.run_recorded(&apps);
    let placement_log = layers::placement_log_of(&event_log);

    let daemon = SlateDaemon::start(DeviceConfig::titan_xp(), 1 << 26);
    match probes::api(&daemon, &mut own) {
        Ok(_) => {
            let m = daemon.metrics();
            own.insert(
                "daemon.launches_served",
                ("count", m.launches_served as f64),
            );
            own.insert(
                "daemon.watchdog_evictions",
                ("count", m.watchdog_evictions as f64),
            );
            own.insert(
                "daemon.reaped_sessions",
                ("count", m.reaped_sessions as f64),
            );
            own.insert("injector.hit_share", ("ratio", 0.0));
        }
        Err(e) => report.check("api probe ran", false, e),
    }
    daemon.join();
    drop(daemon);

    traced::finish(
        "sim_paper",
        cfg,
        Traced {
            spans: Vec::new(),
            p50_ref_us: common::p50_us(&reference),
            p50_traced_us: common::p50_us(&traced_slices),
            log: placement_log,
            own,
            kernel: crate::kernels::standalone_add_kernel(),
            task_size: common::ADD_TASK_SIZE,
            launch_p50_us: None,
            durable: false,
            injects: false,
            recover_reps: 1,
            sim_items: Some(log.items),
        },
        &mut report,
    );
    report
}
