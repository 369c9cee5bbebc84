//! `serve_mixed`: one in-memory Titan Xp with `preempt_bound_ms: Some(20)`,
//! a best-effort session (BE) and a latency-critical one (LC). One op is a
//! cycle: BE uploads 4 MB and launches a 1024×1024 `TransposeKernel`;
//! while it runs, LC issues four small `DecodeKernel` launches, each
//! followed by its synchronize; then BE synchronizes, downloads 4 MB and
//! verifies sampled cells. Closed loop, one cycle after another.
//!
//! The data plane dominates here (`dispatch`/`workers`/`queue` block
//! execution, `channel` bulk memcpy), and the arbiter is used differently
//! from `serve_small`: preempt, retreat and regrow instead of corun. An
//! arbiter or WAL change should move nothing here; a worker-pool or memcpy
//! change should. LC latency under BE load is the live-daemon counterpart
//! of the simulated decode-latency experiment.

use super::common;
use super::{cpu_us_per, report_end_to_end, run_epochs, throughput, RunCfg};
use crate::gen::Rng;
use crate::load::{self, Bench, Slice};
use crate::probes::Values;
use crate::report::WorkloadReport;
use crate::spans::Spans;
use crate::stats;
use crate::traced::{self, Traced};
use slate_core::api::SlateClient;
use slate_core::daemon::{DaemonOptions, SlateDaemon};
use slate_core::SlatePtr;
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::device::DeviceConfig;
use slate_kernels::decode::DecodeKernel;
use slate_kernels::kernel::GpuKernel;
use slate_kernels::transpose::{TransposeKernel, TILE};
use slate_kernels::workload::SloClass;
use std::sync::Arc;
use std::time::Instant;

/// Matrix edge of the BE transpose: 1024×1024 floats = 4 MB each way.
pub const DIM: usize = 1024;
/// User blocks per BE transpose.
pub const BE_BLOCKS: u64 = ((DIM / TILE as usize) * (DIM / TILE as usize)) as u64;
/// Task size of the BE launches.
const BE_TASK_SIZE: u32 = 8;
/// Cells of each transposed matrix that are checked.
const SAMPLED_CELLS: u64 = 256;
/// LC decode launches issued while each BE transpose runs.
pub const LC_PER_CYCLE: u64 = 4;
/// LC decode shape: context, model dimension, batch.
const LC_SHAPE: (u32, u32, u32) = (64, 64, 4);
/// Cycles of one `mixed` slice.
const MIXED_OPS: u64 = 40;
/// Warm-up cycles before timing starts (a count, not a time).
const WARMUP_OPS: u64 = 2;
/// Device memory of the daemon, bytes.
const MEM: u64 = 1 << 26;

/// The run's seeded inputs, generated once: they are the benchmark's, not
/// part of the program's set-up.
pub struct Inputs {
    /// Two matrices, alternated, so a transpose that silently did not run
    /// leaves the previous op's (different) result behind.
    matrices: [Vec<f32>; 2],
    /// The cells of every transpose that are checked.
    cells: Vec<usize>,
    /// Decode weights and values.
    wv: Vec<f32>,
    vv: Vec<f32>,
    /// Host reference of the decode output, accumulated in the kernel's
    /// order so the comparison is exact.
    expect: Vec<f32>,
}

impl Inputs {
    /// The inputs of a run seeded with `seed`.
    pub fn new(seed: u64) -> Arc<Self> {
        let mut rng = Rng::new(seed, 0xbe);
        let matrix = |rng: &mut Rng| (0..DIM * DIM).map(|_| rng.unit() as f32).collect();
        let matrices = [matrix(&mut rng), matrix(&mut rng)];
        let cells = (0..SAMPLED_CELLS)
            .map(|_| rng.below((DIM * DIM) as u64) as usize)
            .collect();
        let (ctx, dim, batch) = (
            LC_SHAPE.0 as usize,
            LC_SHAPE.1 as usize,
            LC_SHAPE.2 as usize,
        );
        let mut rng = Rng::new(seed, 0x1c);
        let wv: Vec<f32> = (0..batch * ctx).map(|_| rng.unit() as f32).collect();
        let vv: Vec<f32> = (0..ctx * dim).map(|_| rng.unit() as f32).collect();
        let mut expect = vec![0.0f32; batch * dim];
        for s in 0..batch {
            for c in 0..dim {
                let mut acc = 0.0f32;
                for t in 0..ctx {
                    acc += wv[s * ctx + t] * vv[t * dim + c];
                }
                expect[s * dim + c] = acc;
            }
        }
        Arc::new(Self {
            matrices,
            cells,
            wv,
            vv,
            expect,
        })
    }
}

/// The running daemon, its two sessions and their device buffers.
pub struct Env {
    inputs: Arc<Inputs>,
    /// The daemon.
    pub daemon: Arc<SlateDaemon>,
    be: SlateClient,
    be_in: SlatePtr,
    be_out: SlatePtr,
    lc: SlateClient,
    lc_w: SlatePtr,
    lc_v: SlatePtr,
    lc_out: SlatePtr,
    /// Cycles completed and verified.
    pub cycles_ok: u64,
    /// Decode launches completed.
    pub decodes_ok: u64,
    /// Seconds spent inside `upload_f32` / `download_f32` of the BE copies.
    pub copy_s: f64,
    /// Latency of each decode (launch sent → synchronize Ok) since the last
    /// [`Env::take_lc_us`], microseconds.
    lc_us: Vec<f64>,
}

impl Env {
    /// One op: the cycle described in the module's head. Returns the user
    /// blocks the transpose executed.
    pub fn cycle(&mut self, spans: &mut Spans) -> Result<u64, String> {
        let e = |e: slate_core::SlateError| e.to_string();
        let src = &self.inputs.matrices[(self.cycles_ok % 2) as usize];
        let root = spans.begin_op();

        spans.set_session(self.be.session());
        let t = spans.begin();
        let t0 = Instant::now();
        self.be.upload_f32(self.be_in, src).map_err(e)?;
        self.copy_s += t0.elapsed().as_secs_f64();
        spans.end(t, "api.upload");

        let t = spans.begin();
        self.be
            .launch_with(vec![self.be_in, self.be_out], BE_TASK_SIZE, None, |bufs| {
                Arc::new(TransposeKernel::new(
                    DIM as u32,
                    DIM as u32,
                    bufs[0].clone(),
                    bufs[1].clone(),
                )) as Arc<dyn GpuKernel>
            })
            .map_err(e)?;
        spans.end(t, "be.launch");

        spans.set_session(self.lc.session());
        for _ in 0..LC_PER_CYCLE {
            let t0 = Instant::now();
            let t = spans.begin();
            self.lc
                .launch_with(vec![self.lc_w, self.lc_v, self.lc_out], 1, None, |bufs| {
                    Arc::new(DecodeKernel::new(
                        LC_SHAPE.0,
                        LC_SHAPE.1,
                        LC_SHAPE.2,
                        bufs[0].clone(),
                        bufs[1].clone(),
                        bufs[2].clone(),
                    )) as Arc<dyn GpuKernel>
                })
                .map_err(e)?;
            spans.end(t, "api.launch");
            let t = spans.begin();
            self.lc.synchronize().map_err(e)?;
            spans.end(t, "api.synchronize");
            self.lc_us.push(t0.elapsed().as_secs_f64() * 1e6);
            self.decodes_ok += 1;
        }

        spans.set_session(self.be.session());
        let t = spans.begin();
        self.be.synchronize().map_err(e)?;
        spans.end(t, "be.synchronize");

        let t = spans.begin();
        let t0 = Instant::now();
        let got = self.be.download_f32(self.be_out, DIM * DIM).map_err(e)?;
        self.copy_s += t0.elapsed().as_secs_f64();
        spans.end(t, "api.download");
        spans.end_op(root);

        for &cell in &self.inputs.cells {
            let (r, c) = (cell / DIM, cell % DIM);
            if got[c * DIM + r] != src[r * DIM + c] {
                return Err(format!("mis-verified: transposed cell ({r},{c}) differs"));
            }
        }
        self.cycles_ok += 1;
        Ok(BE_BLOCKS)
    }

    /// The decode latencies recorded since the last call.
    pub fn take_lc_us(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.lc_us)
    }
}

/// Starts the daemon, connects both sessions, uploads the decode operands
/// and runs the fixed warm-up.
pub fn setup(cfg: &RunCfg, inputs: &Arc<Inputs>) -> Env {
    let e = |e: slate_core::SlateError| e.to_string();
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::titan_xp(),
        MEM,
        DaemonOptions {
            preempt_bound_ms: Some(20),
            record_arbiter: cfg.trace,
            ..DaemonOptions::default()
        },
    );
    let connect = || -> Result<Env, String> {
        let be = SlateClient::new(daemon.connect("be-client").map_err(e)?);
        let bytes = (DIM * DIM * 4) as u64;
        let be_in = be.malloc(bytes).map_err(e)?;
        let be_out = be.malloc(bytes).map_err(e)?;
        let lc = SlateClient::new(
            daemon
                .connect_with_slo("lc-client", SloClass::LatencyCritical)
                .map_err(e)?,
        );
        let lc_w = lc.malloc((inputs.wv.len() * 4) as u64).map_err(e)?;
        let lc_v = lc.malloc((inputs.vv.len() * 4) as u64).map_err(e)?;
        let lc_out = lc.malloc((inputs.expect.len() * 4) as u64).map_err(e)?;
        lc.upload_f32(lc_w, &inputs.wv).map_err(e)?;
        lc.upload_f32(lc_v, &inputs.vv).map_err(e)?;
        Ok(Env {
            inputs: inputs.clone(),
            daemon: daemon.clone(),
            be,
            be_in,
            be_out,
            lc,
            lc_w,
            lc_v,
            lc_out,
            cycles_ok: 0,
            decodes_ok: 0,
            copy_s: 0.0,
            lc_us: Vec::new(),
        })
    };
    let mut env = connect().expect("connect BE and LC");
    let mut off = Spans::off();
    for _ in 0..WARMUP_OPS {
        env.cycle(&mut off).expect("warm-up cycle");
    }
    env.copy_s = 0.0;
    env.take_lc_us();
    env
}

/// The device results of both sessions, checked in full: the last
/// transpose on every cell (the per-op check only samples), the decode
/// output against the host reference. `corrupt` spoils the transpose first.
fn verify(env: &Env, corrupt: bool) -> Result<(), String> {
    let e = |e: slate_core::SlateError| e.to_string();
    if corrupt {
        env.be.upload_f32(env.be_out, &[-1.0]).map_err(e)?;
    }
    if env.cycles_ok > 0 {
        let src = &env.inputs.matrices[((env.cycles_ok - 1) % 2) as usize];
        let got = env.be.download_f32(env.be_out, DIM * DIM).map_err(e)?;
        let wrong = (0..DIM * DIM)
            .filter(|&i| got[(i % DIM) * DIM + i / DIM] != src[i])
            .count();
        if wrong != 0 {
            return Err(format!("{wrong} cells of the last transpose differ"));
        }
    }
    let got = env
        .lc
        .download_f32(env.lc_out, env.inputs.expect.len())
        .map_err(e)?;
    if env.decodes_ok > 0 && got != env.inputs.expect {
        return Err("decode output differs from the host reference".to_string());
    }
    Ok(())
}

/// Verifies both sessions' device results, frees their buffers, closes
/// them and runs the end-of-run daemon checks. `probe_launches`: launches
/// the api probe made on this daemon.
pub fn teardown(env: Env, report: &mut WorkloadReport, corrupt: bool, probe_launches: u64) {
    let e = |e: slate_core::SlateError| e.to_string();
    let launches = env.cycles_ok + env.decodes_ok + probe_launches;
    let verdict = verify(&env, corrupt);
    let Env {
        daemon,
        be,
        lc,
        be_in,
        be_out,
        lc_w,
        lc_v,
        lc_out,
        ..
    } = env;
    let close = || -> Result<(), String> {
        for p in [be_in, be_out] {
            be.free(p).map_err(e)?;
        }
        for p in [lc_w, lc_v, lc_out] {
            lc.free(p).map_err(e)?;
        }
        be.disconnect().map_err(e)?;
        lc.disconnect().map_err(e)
    };
    let closed = close();
    daemon.join();
    report.check(
        "last transpose matches on every cell, decode output equals the host reference",
        verdict.is_ok(),
        verdict.err().unwrap_or_default(),
    );
    report.check(
        "both sessions free their buffers and disconnect",
        closed.is_ok(),
        closed.err().unwrap_or_default(),
    );
    common::daemon_checks(&daemon, launches, report);
}

/// One `mixed` slice (reported under `name`): closed loop. The decode
/// latencies go into the slice's `aux_us`.
fn mixed_slice(
    env: &mut Env,
    bench: &mut Bench,
    cfg: &RunCfg,
    name: &'static str,
    spans: &mut Spans,
) -> Slice {
    let ops = if cfg.quick { MIXED_OPS / 4 } else { MIXED_OPS };
    env.take_lc_us();
    let mut s = bench.closed(name, ops, |_| env.cycle(spans));
    s.aux_us = env.take_lc_us();
    s
}

/// The decode latencies of `slices`, microseconds: at nominal host speed,
/// or raw.
fn lc_latencies<'a>(slices: impl Iterator<Item = &'a Slice>, norm: bool) -> Vec<f64> {
    slices
        .flat_map(|s| {
            let host = if norm { s.host } else { 1.0 };
            s.aux_us.iter().map(move |l| l / host)
        })
        .collect()
}

/// One complete `serve_mixed` run.
pub fn run(cfg: &RunCfg) -> WorkloadReport {
    if cfg.trace {
        return run_traced(cfg);
    }
    let mut report = WorkloadReport::default();
    let inputs = Inputs::new(cfg.seed);
    let mut off = Spans::off();
    let (mut copied_bytes, mut copy_s) = (0.0, 0.0);
    let epochs = run_epochs(
        cfg,
        &mut report,
        |_| setup(cfg, &inputs),
        |env, bench, _| {
            let before = env.cycles_ok;
            let slice = mixed_slice(env, bench, cfg, "mixed", &mut off);
            copied_bytes += (env.cycles_ok - before) as f64 * 2.0 * (DIM * DIM * 4) as f64;
            copy_s += env.copy_s;
            vec![slice]
        },
        |env, report, corrupt| teardown(env, report, corrupt, 0),
    );
    report_end_to_end(
        cfg,
        &mut report,
        &epochs,
        |e, norm| lc_latencies(e.named("mixed"), norm),
        |e, norm| throughput(e, "mixed", norm),
        |e, norm| cpu_us_per(e, "mixed", BE_BLOCKS, norm),
    );
    // Listed, outside the contract's result line: the whole BE cycle.
    let cycles: Vec<Vec<f64>> = epochs
        .iter()
        .map(|e| e.named("mixed").flat_map(Slice::lat_norm_us).collect())
        .collect();
    if let Ok(s) = stats::latency_quantile(&cycles, 0.5, true) {
        report.segmented("be_cycle_p50_us", "us", s);
    }
    if copy_s > 0.0 {
        println!(
            "  BE payload: {:.1} MB/s inside upload_f32/download_f32 (raw)",
            copied_bytes / copy_s / 1e6
        );
    }
    report
}

/// The traced pass: untraced reference slices, then `mixed` slices with
/// spans on, against one recording daemon.
fn run_traced(cfg: &RunCfg) -> WorkloadReport {
    let mut report = WorkloadReport::default();
    let inputs = Inputs::new(cfg.seed);
    let mut env = setup(cfg, &inputs);
    let bench = &mut Bench::off();

    let mut off = Spans::off();
    let reference = load::repeat_for(cfg.seconds / 4.0, |_| {
        mixed_slice(&mut env, bench, cfg, "reference", &mut off)
    });
    let mut spans = Spans::on(Instant::now(), 0);
    let traced_slices = load::repeat_for(cfg.seconds / 2.0, |_| {
        mixed_slice(&mut env, bench, cfg, "mixed", &mut spans)
    });
    for s in reference.iter().chain(&traced_slices) {
        report.slice(s);
    }

    let mut own = Values::new();
    common::rss_value(&mut own);
    let probe_launches = common::api_probe(&env.daemon, &mut own, &mut report);
    let spans = vec![spans];
    // The latency op is the LC session's decode (`api.launch` +
    // `api.synchronize` spans; the BE launch is `be.*`); its spans are what
    // the layer rows are reconciled with. The 4 MB copies are BE's.
    let launch_p50_us = common::span_values(&spans, LC_PER_CYCLE as f64, &mut own);
    let mb = (DIM * DIM * 4) as f64 / (1 << 20) as f64;
    common::span_medians(
        &spans,
        &[
            ("api.upload", "api.h2d_us_per_mb"),
            ("api.download", "api.d2h_us_per_mb"),
        ],
        1.0 / mb,
        &mut own,
    );
    common::daemon_values(&env.daemon, &mut own);
    let log = env.daemon.placement_log();
    let p50 = |slices: &[Slice]| {
        let lat = lc_latencies(slices.iter(), true);
        if lat.is_empty() {
            f64::NAN
        } else {
            stats::quantile(&lat, 0.5)
        }
    };
    let (p50_ref_us, p50_traced_us) = (p50(&reference), p50(&traced_slices));
    teardown(env, &mut report, cfg.corrupt, probe_launches);

    let Some(log) = log else {
        report.check("daemon recorded a placement log", false, String::new());
        return report;
    };
    let (ctx, dim, batch) = LC_SHAPE;
    let buf = |words: u32| Arc::new(GpuBuffer::new(words as usize * 4));
    let kernel = Arc::new(DecodeKernel::new(
        ctx,
        dim,
        batch,
        buf(batch * ctx),
        buf(ctx * dim),
        buf(batch * dim),
    ));
    traced::finish(
        "serve_mixed",
        cfg,
        Traced {
            spans,
            p50_ref_us,
            p50_traced_us,
            log,
            own,
            kernel,
            task_size: 1,
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
