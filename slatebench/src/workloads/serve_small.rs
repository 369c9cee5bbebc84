//! `serve_small`: two long-lived sessions, one H_M and one L_C four-block
//! add kernel, on one in-memory Titan Xp. Kernel work is next to nothing,
//! so the control plane (`api`/`channel`, the daemon's session loop, the
//! `feed` ring, `placement`, `arbiter`, per-launch worker spawn in
//! `dispatch`/`workers`) is all of a launch's latency; `durability` and
//! `gpu-sim` do no work here.
//!
//! One op launches on both sessions and then synchronizes both, so the two
//! kernels are resident together and Table I co-runs and resizes them.
//! Each epoch runs slice `paced` (open loop, seeded Poisson arrivals, 250
//! ops/s = 500 launches/s) and slice `saturated` (closed loop, back to
//! back).

use super::common::{self, AddClient};
use super::{cpu_us_per, latencies, report_end_to_end, run_epochs, throughput, RunCfg};
use crate::gen::{poisson_schedule, Rng};
use crate::load::{self, Bench, Slice};
use crate::probes::Values;
use crate::report::WorkloadReport;
use crate::spans::Spans;
use crate::traced::{self, Traced};
use slate_core::daemon::{DaemonOptions, SlateDaemon};
use slate_gpu_sim::device::DeviceConfig;
use std::sync::Arc;
use std::time::Instant;

/// Ops run before timing starts: fills the profile table and pools the
/// feed cells. A count, never a time, so work moved into set-up shows in
/// `setup_s`.
const WARMUP_OPS: u64 = 200;
/// Open-loop arrival rate of slice `paced`, ops/s (two launches each).
const PACED_RATE_HZ: f64 = 250.0;
/// Ops of one `paced` slice (1.2 s at the rate above).
const PACED_OPS: u64 = 300;
/// Ops of one `saturated` slice.
const SATURATED_OPS: u64 = 2000;
/// Device memory of the daemon, bytes.
const MEM: u64 = 1 << 26;

struct Env {
    daemon: Arc<SlateDaemon>,
    clients: Vec<AddClient>,
}

fn setup(cfg: &RunCfg) -> Env {
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::titan_xp(),
        MEM,
        DaemonOptions {
            record_arbiter: cfg.trace,
            ..DaemonOptions::default()
        },
    );
    let mut clients: Vec<AddClient> = (0..common::CLIENTS)
        .map(|c| AddClient::connect(&daemon, c).expect("connect"))
        .collect();
    let mut off = Spans::off();
    for _ in 0..WARMUP_OPS {
        common::launch_all_sync_all(&mut clients, &mut off).expect("warm-up launch");
    }
    Env { daemon, clients }
}

/// `probe_launches`: launches the api probe made on this daemon.
fn teardown(env: Env, report: &mut WorkloadReport, corrupt: bool, probe_launches: u64) {
    let Env { daemon, clients } = env;
    let mut launched = probe_launches;
    for (i, cl) in clients.into_iter().enumerate() {
        launched += cl.launched;
        let verdict = cl.finish(corrupt && i == 0);
        report.check(
            &format!("client {i}: add buffer equals successful launches"),
            verdict.is_ok(),
            verdict.err().unwrap_or_default(),
        );
    }
    daemon.join();
    common::daemon_checks(&daemon, launched, report);
}

/// One `paced` slice (reported under `name`) on schedule stream `stream`
/// of the seed.
fn paced(
    env: &mut Env,
    bench: &mut Bench,
    cfg: &RunCfg,
    name: &'static str,
    stream: u64,
    spans: &mut Spans,
) -> Slice {
    let ops = if cfg.quick { PACED_OPS / 3 } else { PACED_OPS };
    let schedule = poisson_schedule(&mut Rng::new(cfg.seed, stream), PACED_RATE_HZ, ops as usize);
    bench.paced(name, &schedule, |_| {
        common::launch_all_sync_all(&mut env.clients, spans)
    })
}

/// One complete `serve_small` run.
pub fn run(cfg: &RunCfg) -> WorkloadReport {
    if cfg.trace {
        return run_traced(cfg);
    }
    let mut report = WorkloadReport::default();
    let mut off = Spans::off();
    let saturated_ops = if cfg.quick {
        SATURATED_OPS / 3
    } else {
        SATURATED_OPS
    };
    let epochs = run_epochs(
        cfg,
        &mut report,
        |_| setup(cfg),
        |env, bench, i| {
            let paced = paced(env, bench, cfg, "paced", 0x5a11_0000 + i, &mut off);
            let saturated = bench.closed("saturated", saturated_ops, |_| {
                common::launch_all_sync_all(&mut env.clients, &mut Spans::off())
            });
            vec![paced, saturated]
        },
        |env, report, corrupt| teardown(env, report, corrupt, 0),
    );
    report_end_to_end(
        cfg,
        &mut report,
        &epochs,
        |e, norm| e.named("paced").flat_map(|s| latencies(s, norm)).collect(),
        |e, norm| throughput(e, "saturated", norm),
        |e, norm| cpu_us_per(e, "paced", 1, norm),
    );
    report
}

/// The traced pass: untraced reference slices, then `paced` slices with
/// spans on, against one recording daemon.
fn run_traced(cfg: &RunCfg) -> WorkloadReport {
    let mut report = WorkloadReport::default();
    let mut env = setup(cfg);
    let bench = &mut Bench::off();

    let mut off = Spans::off();
    let reference = load::repeat_for(cfg.seconds / 4.0, |i| {
        paced(&mut env, bench, cfg, "reference", 0x5a21_0000 + i, &mut off)
    });
    let mut spans = Spans::on(Instant::now(), 0);
    let traced_slices = load::repeat_for(cfg.seconds / 2.0, |i| {
        paced(&mut env, bench, cfg, "paced", 0x5a31_0000 + i, &mut spans)
    });
    for s in reference.iter().chain(&traced_slices) {
        report.slice(s);
    }

    let mut own = Values::new();
    common::rss_value(&mut own);
    let probe_launches = common::api_probe(&env.daemon, &mut own, &mut report);
    let spans = vec![spans];
    let launch_p50_us = common::span_values(&spans, common::CLIENTS as f64, &mut own);
    common::lateness_value(&traced_slices, &mut own);
    common::daemon_values(&env.daemon, &mut own);
    let log = env.daemon.placement_log();
    teardown(env, &mut report, cfg.corrupt, probe_launches);

    let Some(log) = log else {
        report.check("daemon recorded a placement log", false, String::new());
        return report;
    };
    traced::finish(
        "serve_small",
        cfg,
        Traced {
            spans,
            p50_ref_us: common::p50_us(&reference),
            p50_traced_us: common::p50_us(&traced_slices),
            log,
            own,
            kernel: crate::kernels::standalone_add_kernel(),
            task_size: common::ADD_TASK_SIZE,
            launch_p50_us,
            durable: false,
            injects: false,
            recover_reps: 1,
            sim_items: None,
        },
        &mut report,
    );
    report
}
