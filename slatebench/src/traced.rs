//! The traced pass, after the workload itself has run: replays the
//! recorded log through each layer, runs the fixed probes, lays the
//! workload's own figures over the probes', reconciles the layers' sum
//! with the traced launch latency, and writes the Chrome trace.

use crate::catalog::LAYER;
use crate::layers::{self, LayerReplay};
use crate::probes::{self, Values};
use crate::report::WorkloadReport;
use crate::spans::{self, Spans};
use crate::stats::median;
use crate::workloads::sim_paper::{self, Item};
use crate::workloads::RunCfg;
use slate_core::placement::replay::PlacementLog;
use slate_kernels::kernel::GpuKernel;
use std::sync::Arc;

/// Lifecycles in the recovery measurement's fixed WAL.
pub const RECOVER_LIFECYCLES: u64 = 500;
/// Repetitions of the recovery measurement where it is the workload's own
/// (`serve_durable`); elsewhere it is probed once.
pub const RECOVER_REPS: usize = 5;

/// What a workload hands over once its traced phases are done.
pub struct Traced {
    /// Per-client span logs (empty for `sim_paper`).
    pub spans: Vec<Spans>,
    /// Op latency p50 of the untraced reference phase of this invocation.
    pub p50_ref_us: f64,
    /// Op latency p50 of the traced phase.
    pub p50_traced_us: f64,
    /// The recorded placement log of the traced phase.
    pub log: PlacementLog,
    /// The workload's own per-layer figures; they take precedence over
    /// the probes'.
    pub own: Values,
    /// Kernel and task size of the workload's latency op, for the
    /// standalone dispatch measurement.
    pub kernel: Arc<dyn GpuKernel>,
    /// See `kernel`.
    pub task_size: u32,
    /// Traced p50 of one launch as the client sees it (launch send through
    /// synchronize, per launch): what the layer rows are reconciled with.
    /// `None` where the workload launches nothing; the probe's is used.
    pub launch_p50_us: Option<f64>,
    /// Whether the workload's daemon writes a WAL (so the durability rows
    /// are on its launch path).
    pub durable: bool,
    /// Whether launches carry source through the injection cache.
    pub injects: bool,
    /// Repetitions of the recovery measurement.
    pub recover_reps: usize,
    /// The workload's own sweep items (`sim_paper`); otherwise one sweep
    /// is probed.
    pub sim_items: Option<Vec<Item>>,
}

fn replay_values(r: &LayerReplay, out: &mut Values) {
    let launches = r.launches.max(1) as f64;
    let share = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    out.insert(
        "feed.submissions_per_launch",
        ("count", r.batches as f64 / launches),
    );
    out.insert(
        "placement.feed_ns_per_event",
        ("ns", r.placement_feed_ns_per_event),
    );
    out.insert(
        "placement.events_per_launch",
        ("count", r.events as f64 / launches),
    );
    out.insert("placement.batches", ("count", r.batches as f64));
    out.insert(
        "placement.heartbeat_share",
        ("ratio", share(r.heartbeat_batches, r.batches)),
    );
    out.insert(
        "arbiter.feed_ns_per_event",
        ("ns", r.arbiter_feed_ns_per_event),
    );
    out.insert(
        "arbiter.commands_per_event",
        ("count", r.commands_per_event),
    );
    out.insert(
        "arbiter.corun_share",
        ("ratio", share(r.partial_dispatches, r.dispatches)),
    );
    out.insert("arbiter.resizes", ("count", r.resizes as f64));
    out.insert("arbiter.preemptions", ("count", r.preemptions as f64));
    out.insert("arbiter.sheds", ("count", r.sheds as f64));
    out.insert(
        "arbiter.replay_verify_ok",
        ("count", r.replay_verify_ok as u64 as f64),
    );
    out.insert(
        "durability.append_us_per_batch",
        ("us", r.append_us_per_batch),
    );
    out.insert("durability.append_meta_us", ("us", r.append_meta_us));
    out.insert(
        "durability.wal_bytes_per_launch",
        ("B", r.wal_bytes as f64 / launches),
    );
    out.insert("durability.snapshots", ("count", r.snapshots as f64));
    out.insert(
        "durability.recover_us_per_batch",
        ("us", r.recover_us_per_batch),
    );
    out.insert("durability.io_errors", ("count", r.io_errors as f64));
}

/// Completes a traced pass: every per-layer metric of the catalog ends up
/// in `report`, the reconciliation table is printed, the trace written.
pub fn finish(name: &str, cfg: &RunCfg, t: Traced, report: &mut WorkloadReport) {
    let mut v = Values::new();

    // 1. Probes with fixed inputs.
    probes::micro(t.kernel.clone(), t.task_size, &mut v);
    if let Err(e) = probes::idle(&mut v) {
        report.check("idle-daemon probe ran", false, e);
    }
    match &t.sim_items {
        Some(items) => probes::sim(items, &mut v),
        None => {
            let env = sim_paper::setup();
            let mut items = Vec::new();
            let stats = sim_paper::sweep(&env, cfg.seed, 0, &mut items);
            probes::sim(&items, &mut v);
            v.insert(
                "runtime.events_per_run",
                ("count", stats.events_recorded as f64),
            );
            v.insert("sim.gain_vs_mps_pct", ("%", stats.gain_vs_mps_pct));
            v.insert("sim.decode_p99_us", ("sim_us", stats.decode_p99_us as f64));
        }
    }
    let lifecycles = if cfg.quick { 40 } else { RECOVER_LIFECYCLES };
    let reps = if cfg.quick { 1 } else { t.recover_reps };
    let (times, verdict) = probes::recover(&cfg.scratch, lifecycles, reps);
    report.count("recover", 0.0, reps as u64, (reps - times.len()) as u64);
    report.check(
        "exactly-once hit buffers after each recover",
        verdict.is_ok(),
        verdict.err().unwrap_or_default(),
    );
    if !times.is_empty() {
        v.insert("durability.recover_ms", ("ms", median(&times) * 1e3));
    }

    // 2. The recorded log through each layer.
    let replay = layers::replay(&t.log, &cfg.scratch);
    replay_values(&replay, &mut v);
    report.check(
        "recorded log verifies against a fresh replay",
        replay.replay_verify_ok,
        format!("{} batches", replay.batches),
    );

    // 3. The workload's own figures win over the probes'.
    for (k, val) in &t.own {
        v.insert(k, *val);
    }

    // 4. Reconciliation: traced launch p50 = sum of layer rows + residual.
    let get = |v: &Values, k: &str| v.get(k).map_or(0.0, |x| x.1);
    let launch_us = t
        .launch_p50_us
        .unwrap_or_else(|| get(&v, "api.launch_send_us") + get(&v, "api.sync_wait_us"));
    let submissions = get(&v, "feed.submissions_per_launch");
    let durable = if t.durable { 1.0 } else { 0.0 };
    let injects = if t.injects { 1.0 } else { 0.0 };
    // (label, microseconds per launch)
    let rows = [
        (
            "api+channel  api.rpc_us x 1 round trip",
            get(&v, "api.rpc_us"),
        ),
        (
            "feed         feed.push_pop_ns x submissions",
            get(&v, "feed.push_pop_ns") * 1e-3 * submissions,
        ),
        (
            "placement+arbiter  feed_ns_per_event x events",
            get(&v, "placement.feed_ns_per_event") * 1e-3 * get(&v, "placement.events_per_launch"),
        ),
        (
            "durability   append_us_per_batch x submissions",
            get(&v, "durability.append_us_per_batch") * submissions * durable,
        ),
        (
            "durability   append_meta_us x 2 records",
            get(&v, "durability.append_meta_us") * 2.0 * durable,
        ),
        (
            "profile      lookup_ns x 1",
            get(&v, "profile.lookup_ns") * 1e-3,
        ),
        (
            "injector     hit_ns x 1",
            get(&v, "injector.hit_ns") * 1e-3 * injects,
        ),
        (
            "dispatch+workers+queue  dispatch.run_us x 1",
            get(&v, "dispatch.run_us"),
        ),
    ];
    let layer_sum: f64 = rows.iter().map(|r| r.1).sum();
    let residual = launch_us - layer_sum;
    v.insert("daemon.residual_us", ("us", residual));
    v.insert(
        "daemon.residual_share",
        (
            "ratio",
            if launch_us > 0.0 {
                residual / launch_us
            } else {
                0.0
            },
        ),
    );
    println!("  reconciliation: traced launch p50 = layer rows + daemon.residual_us");
    for (label, us) in rows {
        println!(
            "    {label:<52} {us:>10.3} us  {:>6.2} %",
            us / launch_us * 100.0
        );
    }
    println!(
        "    {:<52} {:>10.3} us  {:>6.2} %",
        "daemon.residual_us (thread hand-offs, wake-ups, spawn)",
        residual,
        residual / launch_us * 100.0
    );
    println!(
        "    {:<52} {:>10.3} us  100.00 %",
        "traced launch p50", launch_us
    );

    // 5. Validity of the run itself.
    v.insert(
        "bench.trace_overhead_pct",
        ("%", (t.p50_traced_us / t.p50_ref_us - 1.0) * 100.0),
    );
    v.insert("bench.loadavg_at_start", ("count", cfg.loadavg_at_start));
    if !t.spans.is_empty() {
        let self_us = spans::root_self_times(&t.spans);
        if !self_us.is_empty() {
            println!(
                "  root-span self time (op time not inside a client call): p50 {:.3} us",
                median(&self_us)
            );
        }
    }

    // 6. The Chrome trace.
    let path = cfg.scratch.join(format!("{name}.trace.json"));
    match std::fs::write(&path, spans::chrome_trace_json(name, &t.spans)) {
        Ok(()) => println!("  chrome trace: {}", path.display()),
        Err(e) => report.check("chrome trace written", false, e.to_string()),
    }

    // 7. Emit in catalog order; a name the catalog has and nothing
    //    measured is a defect of the benchmark.
    for &(metric, unit) in LAYER {
        match v.get(metric) {
            Some(&(u, value)) => {
                debug_assert_eq!(u, unit, "{metric}");
                report.scalar(metric, unit, value);
            }
            None => report.check(&format!("{metric} was measured"), false, String::new()),
        }
    }
}
