//! `serve_durable`: a four-device fleet with the WAL on. Each op is a pair
//! of whole session lifecycles run in lock-step — `connect` (user drawn
//! from a pool of 8) → `malloc` → `upload_f32` → 4 × `launch_with`
//! carrying CUDA source → `synchronize` → `download_f32` → `free` →
//! `disconnect`, every step on one session and then on the other — so two
//! sessions are always live together, in the same interleaving every run.
//!
//! It exists for the layers `serve_small` leaves idle: WAL append,
//! snapshot rotation and meta records on the serving path, and session
//! churn (placement routing, session-thread spawn, the injection cache,
//! `SessionMeta`). The kernels are `serve_small`'s, so the difference
//! between the two workloads isolates `durability` + `placement`.
//!
//! An epoch starts a fresh daemon on a fresh WAL directory and runs a
//! fixed number of ops: the daemon's durable state grows with every closed
//! session (each checkpoint serialises all of them), so only a fixed count
//! from a fresh start gives a figure that does not depend on run length.
//!
//! The traced pass adds phase `recover`: a fixed WAL of lifecycles plus two
//! live sessions holding replayable work, `crash()`, then timed
//! `recover()` + `resume` + `synchronize`, verified exactly-once through a
//! hit buffer — WAL scan and replay, beside the appends of the same layer.

use super::common;
use super::{cpu_us_per, latencies, report_end_to_end, run_epochs, throughput, RunCfg};
use crate::gen::Rng;
use crate::kernels::{add_kernel, client_delta, ADD_N, ADD_SOURCE};
use crate::load::{self, Bench, Slice};
use crate::probes::Values;
use crate::report::WorkloadReport;
use crate::spans::Spans;
use crate::traced::{self, Traced};
use slate_core::api::SlateClient;
use slate_core::daemon::{DaemonOptions, SlateDaemon};
use slate_core::{DurabilityOptions, PlacementPolicy};
use slate_gpu_sim::device::DeviceConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Users sessions connect as; the injection cache is keyed per user.
pub const USER_POOL: u64 = 8;
/// Launches per lifecycle.
pub const LAUNCHES_PER_SESSION: u64 = 4;
/// Devices in the fleet.
pub const FLEET: usize = 4;
/// Device memory of the daemon, bytes.
const MEM: u64 = 1 << 26;

/// The fleet both durable phases run on.
pub fn fleet() -> Vec<DeviceConfig> {
    (0..FLEET).map(|_| DeviceConfig::titan_xp()).collect()
}

/// Starts the durable fleet daemon over `durability`.
pub fn start_daemon(durability: DurabilityOptions, record: bool) -> Arc<SlateDaemon> {
    SlateDaemon::start_with_options(
        DeviceConfig::titan_xp(),
        MEM,
        DaemonOptions {
            devices: fleet(),
            placement: PlacementPolicy::LeastLoaded,
            durability: Some(durability),
            record_arbiter: record,
            ..DaemonOptions::default()
        },
    )
}

/// Ops (lifecycle pairs) of one `lifecycle` slice.
const LIFECYCLE_OPS: u64 = 250;

/// Runs session lifecycles in lock-step and counts them.
pub struct Lifecycles {
    /// Lifecycles completed and verified.
    pub sessions_ok: u64,
    /// Test hook: the next op overwrites one element of a buffer before
    /// reading it back, so its verification must fail.
    pub corrupt_next: bool,
    /// Draws the users of each op.
    rng: Rng,
}

impl Lifecycles {
    /// The lifecycle driver of a run seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            sessions_ok: 0,
            corrupt_next: false,
            rng: Rng::new(seed, 0xd07a),
        }
    }

    /// One op: a whole lifecycle for each of `users`, in lock-step (every
    /// step on each session in turn, so all the sessions are live
    /// together). Session `i` runs client `i`'s kernel shape. Returns the
    /// launches completed.
    pub fn run_as(
        &mut self,
        daemon: &Arc<SlateDaemon>,
        users: &[String],
        spans: &mut Spans,
    ) -> Result<u64, String> {
        let e = |e: slate_core::SlateError| e.to_string();
        let root = spans.begin_op();

        let mut clients = Vec::with_capacity(users.len());
        for user in users {
            let t = spans.begin();
            let client = SlateClient::new(daemon.connect(user).map_err(e)?);
            spans.set_session(client.session());
            spans.end(t, "api.connect");
            clients.push(client);
        }
        // Each step below runs on every session in turn.
        let mut each = |name: &'static str,
                        f: &mut dyn FnMut(usize, &SlateClient) -> Result<(), String>|
         -> Result<(), String> {
            for (c, client) in clients.iter().enumerate() {
                spans.set_session(client.session());
                let t = spans.begin();
                f(c, client)?;
                spans.end(t, name);
            }
            Ok(())
        };

        let mut ptrs = vec![None; users.len()];
        each("api.malloc", &mut |c, cl| {
            ptrs[c] = Some(cl.malloc((ADD_N * 4) as u64).map_err(e)?);
            Ok(())
        })?;
        let ptrs: Vec<_> = ptrs.into_iter().map(|p| p.expect("allocated")).collect();
        each("api.upload", &mut |c, cl| {
            cl.upload_f32(ptrs[c], &[0.0; ADD_N]).map_err(e)
        })?;
        for _ in 0..LAUNCHES_PER_SESSION {
            each("api.launch", &mut |c, cl| {
                cl.launch_with(
                    vec![ptrs[c]],
                    common::ADD_TASK_SIZE,
                    Some(ADD_SOURCE.to_string()),
                    move |bufs| add_kernel(c, bufs[0].clone()),
                )
                .map(|_| ())
                .map_err(e)
            })?;
        }
        each("api.synchronize", &mut |_, cl| cl.synchronize().map_err(e))?;
        if std::mem::take(&mut self.corrupt_next) {
            clients[0].upload_f32(ptrs[0], &[-1.0]).map_err(e)?;
        }
        let mut got = vec![Vec::new(); users.len()];
        each("api.download", &mut |c, cl| {
            got[c] = cl.download_f32(ptrs[c], ADD_N).map_err(e)?;
            Ok(())
        })?;
        each("api.free", &mut |c, cl| cl.free(ptrs[c]).map_err(e))?;
        for client in clients {
            spans.set_session(client.session());
            let t = spans.begin();
            client.disconnect().map_err(e)?;
            spans.end(t, "api.disconnect");
        }
        spans.end_op(root);

        for (c, got) in got.iter().enumerate() {
            let want = LAUNCHES_PER_SESSION as f32 * client_delta(c);
            if let Some(bad) = got.iter().position(|&v| v != want) {
                return Err(format!(
                    "mis-verified: session {c}: element {bad} is {}, want {want}",
                    got[bad]
                ));
            }
        }
        self.sessions_ok += users.len() as u64;
        Ok(LAUNCHES_PER_SESSION * users.len() as u64)
    }

    /// One op for [`common::CLIENTS`] seeded draws from the user pool.
    pub fn run(&mut self, daemon: &Arc<SlateDaemon>, spans: &mut Spans) -> Result<u64, String> {
        let users: Vec<String> = (0..common::CLIENTS)
            .map(|_| format!("user-{}", self.rng.below(USER_POOL)))
            .collect();
        self.run_as(daemon, &users, spans)
    }
}

struct Env {
    dir: PathBuf,
    daemon: Arc<SlateDaemon>,
    lifecycles: Lifecycles,
}

/// A fresh, empty WAL directory under the scratch directory.
pub fn fresh_dir(scratch: &Path, tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = scratch.join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `epoch` varies the seed, so each epoch draws its own users.
fn setup(cfg: &RunCfg, epoch: u64) -> Env {
    let dir = fresh_dir(&cfg.scratch, "serve_durable");
    let daemon = start_daemon(DurabilityOptions::new(&dir), cfg.trace);
    let mut lifecycles = Lifecycles::new(cfg.seed ^ epoch.wrapping_mul(0x9e37_79b9));
    // Warm-up is a fixed count: every user once per session slot, so the
    // profile table is filled and the injection cache holds every
    // (user, source) pair before timing starts.
    let mut off = Spans::off();
    for u in 0..USER_POOL {
        let users = vec![format!("user-{u}"); common::CLIENTS];
        lifecycles
            .run_as(&daemon, &users, &mut off)
            .expect("warm-up lifecycle");
    }
    Env {
        dir,
        daemon,
        lifecycles,
    }
}

/// `probe_launches`: launches the api probe made on this daemon, which
/// carried no source and belong to no lifecycle.
fn teardown(env: Env, report: &mut WorkloadReport, probe_launches: u64) {
    let Env {
        dir,
        daemon,
        lifecycles,
    } = env;
    daemon.join();
    let launches = lifecycles.sessions_ok * LAUNCHES_PER_SESSION;
    common::daemon_checks(&daemon, launches + probe_launches, report);
    let (hits, misses) = daemon.injection_stats();
    report.check(
        "injection cache misses once per (user, source)",
        misses == USER_POOL && hits + misses == launches,
        format!("hits {hits} misses {misses} launches {launches}"),
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(dir);
}

/// One `lifecycle` slice (reported under `name`): closed loop.
fn lifecycle_slice(
    env: &mut Env,
    bench: &mut Bench,
    cfg: &RunCfg,
    name: &'static str,
    spans: &mut Spans,
) -> Slice {
    let ops = if cfg.quick {
        LIFECYCLE_OPS / 5
    } else {
        LIFECYCLE_OPS
    };
    let Env {
        daemon, lifecycles, ..
    } = env;
    bench.closed(name, ops, |_| lifecycles.run(daemon, spans))
}

/// One complete `serve_durable` run.
pub fn run(cfg: &RunCfg) -> WorkloadReport {
    if cfg.trace {
        return run_traced(cfg);
    }
    let mut report = WorkloadReport::default();
    let mut off = Spans::off();
    let epochs = run_epochs(
        cfg,
        &mut report,
        |i| setup(cfg, i),
        |env, bench, i| {
            let mut slices = vec![lifecycle_slice(env, bench, cfg, "lifecycle", &mut off)];
            if cfg.corrupt && i == 0 {
                // The contract test's hook: a corrupted buffer must fail
                // its lifecycle's verification.
                env.lifecycles.corrupt_next = true;
                let outcome = env.lifecycles.run(&env.daemon, &mut off);
                slices.push(Slice {
                    attempted: 1,
                    failed: u64::from(outcome.is_err()),
                    ..Slice::named("corrupted")
                });
            }
            slices
        },
        |env, report, _| teardown(env, report, 0),
    );
    report_end_to_end(
        cfg,
        &mut report,
        &epochs,
        |e, norm| {
            e.named("lifecycle")
                .flat_map(|s| latencies(s, norm))
                .collect()
        },
        |e, norm| throughput(e, "lifecycle", norm),
        |e, norm| cpu_us_per(e, "lifecycle", LAUNCHES_PER_SESSION, norm),
    );
    report
}

/// The traced pass: untraced reference slices, `lifecycle` slices with
/// spans on against one recording daemon, then phase `recover`.
fn run_traced(cfg: &RunCfg) -> WorkloadReport {
    let mut report = WorkloadReport::default();
    let mut env = setup(cfg, 0);
    let bench = &mut Bench::off();

    let mut off = Spans::off();
    let reference = load::repeat_for(cfg.seconds / 4.0, |_| {
        lifecycle_slice(&mut env, bench, cfg, "reference", &mut off)
    });
    let mut spans = Spans::on(Instant::now(), 0);
    let traced_slices = load::repeat_for(cfg.seconds / 2.0, |_| {
        lifecycle_slice(&mut env, bench, cfg, "lifecycle", &mut spans)
    });
    for s in reference.iter().chain(&traced_slices) {
        report.slice(s);
    }

    let mut own = Values::new();
    common::rss_value(&mut own);
    let probe_launches = common::api_probe(&env.daemon, &mut own, &mut report);
    let spans = vec![spans];
    let launches_per_op = (LAUNCHES_PER_SESSION * common::CLIENTS as u64) as f64;
    let launch_p50_us = common::span_values(&spans, launches_per_op, &mut own);
    common::span_medians(
        &spans,
        &[
            ("api.connect", "api.connect_us"),
            ("api.disconnect", "api.disconnect_us"),
        ],
        1.0,
        &mut own,
    );
    common::daemon_values(&env.daemon, &mut own);
    let log = env.daemon.placement_log();
    teardown(env, &mut report, probe_launches);

    let Some(log) = log else {
        report.check("daemon recorded a placement log", false, String::new());
        return report;
    };
    traced::finish(
        "serve_durable",
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
            durable: true,
            injects: true,
            recover_reps: traced::RECOVER_REPS,
            sim_items: None,
        },
        &mut report,
    );
    report
}
