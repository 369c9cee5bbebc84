//! The benchmark's workloads. Each module's `run` performs one complete
//! run and returns everything it measured.
//!
//! The untraced pass of every workload is a sequence of **epochs**. An
//! epoch sets the workload up from nothing (timed: `setup_s`), runs its
//! slices of a fixed number of ops, verifies the results and tears
//! everything down. Epochs repeat until `--seconds` are used up. Every
//! epoch does the same work, so a figure does not depend on how long the
//! run lasts, and each figure is reported as the median, over the calmer
//! half of the epochs, of its value at nominal host speed (see
//! [`crate::yardstick`] and [`calmer_half`]).

pub mod common;
pub mod serve_durable;
pub mod serve_mixed;
pub mod serve_small;
pub mod sim_paper;

use crate::load::{Bench, Slice};
use crate::report::WorkloadReport;
use crate::stats::{self, Segmented};
use crate::yardstick::NOMINAL_TICK_S;
use std::path::PathBuf;
use std::time::Instant;

/// Parameters of one workload run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Seeds every arrival schedule and input generator.
    pub seed: u64,
    /// Total measuring time; epochs repeat until it is used up.
    pub seconds: f64,
    /// Traced pass: spans on, daemon recording on, per-layer metrics.
    pub trace: bool,
    /// Shortened run for the contract test: percentile sample-count rule
    /// relaxed, smaller fixed WAL.
    pub quick: bool,
    /// Test hook: corrupt one buffer before verification, which must then
    /// fail the run.
    pub corrupt: bool,
    /// Directory for WAL directories and trace files, inside the checkout.
    pub scratch: PathBuf,
    /// One-minute load average when the run started.
    pub loadavg_at_start: f64,
}

/// Runs the workload called `name` (one of `catalog::WORKLOADS`).
pub fn run(name: &str, cfg: &RunCfg) -> WorkloadReport {
    let mut report = match name {
        "serve_small" => serve_small::run(cfg),
        "serve_durable" => serve_durable::run(cfg),
        "serve_mixed" => serve_mixed::run(cfg),
        "sim_paper" => sim_paper::run(cfg),
        other => panic!("workload {other} is not in the catalog"),
    };
    report.name = name.to_string();
    report.traced = cfg.trace;
    report
}

/// One epoch of an untraced pass.
pub struct Epoch {
    /// Set-up time at nominal host speed, seconds.
    pub setup_s: f64,
    /// Set-up time as the wall clock read it, seconds.
    pub setup_raw_s: f64,
    /// The epoch's slices, in order.
    pub slices: Vec<Slice>,
}

impl Epoch {
    /// The epoch's slices called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Slice> + 'a {
        self.slices.iter().filter(move |s| s.name == name)
    }
}

/// Runs epochs until `cfg.seconds` are used up: each is `setup` (timed),
/// `body` (the slices, run through the [`Bench`] so that yardstick ticks
/// are interleaved with them) and `teardown` (verification; `true` on the
/// epoch that `--corrupt` is to spoil, the first). Slices' op counts go
/// into `report`. Stops before an epoch that would overrun, so the run
/// lasts `cfg.seconds` at most — but always completes one.
pub fn run_epochs<E>(
    cfg: &RunCfg,
    report: &mut WorkloadReport,
    mut setup: impl FnMut(u64) -> E,
    mut body: impl FnMut(&mut E, &mut Bench, u64) -> Vec<Slice>,
    mut teardown: impl FnMut(E, &mut WorkloadReport, bool),
) -> Vec<Epoch> {
    let t0 = Instant::now();
    let mut bench = Bench::new();
    let mut epochs: Vec<Epoch> = Vec::new();
    loop {
        let i = epochs.len() as u64;
        let (mut env, setup_raw_s, host) = bench.timed(|| setup(i));
        let slices = body(&mut env, &mut bench, i);
        for s in &slices {
            report.slice(s);
        }
        teardown(env, report, cfg.corrupt && i == 0);
        epochs.push(Epoch {
            setup_s: setup_raw_s / host,
            setup_raw_s,
            slices,
        });
        let elapsed_s = t0.elapsed().as_secs_f64();
        if elapsed_s + elapsed_s / epochs.len() as f64 > cfg.seconds {
            break;
        }
    }
    let (lo, hi) = bench
        .hosts
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &h| {
            (lo.min(h), hi.max(h))
        });
    println!(
        "  host factor (mean yardstick tick of a slice over the nominal tick): \
         median {:.3}, {lo:.3} to {hi:.3} over {} slices and set-ups",
        stats::median(&bench.hosts),
        bench.hosts.len()
    );
    epochs
}

impl Epoch {
    /// Host factor over the whole epoch: the mean of every tick taken
    /// inside its slices over the nominal tick.
    pub fn host(&self) -> f64 {
        let n: u64 = self.slices.iter().map(|s| s.yard.0).sum();
        let tick_s: f64 = self.slices.iter().map(|s| s.yard.1.total_s()).sum();
        tick_s / n.max(1) as f64 / NOMINAL_TICK_S
    }
}

/// The calmer half of the epochs: those with the lower host factors (at
/// least three, or all of them). Normalising removes most of what the host
/// did to an epoch, not all of it — a workload is a little more or less
/// sensitive to the neighbours than the yardstick is — and what is left
/// grows with the size of the correction. So a figure is taken from the
/// epochs that needed the least correction.
pub fn calmer_half(epochs: &[Epoch]) -> Vec<&Epoch> {
    let mut by_host: Vec<&Epoch> = epochs.iter().collect();
    by_host.sort_by(|a, b| a.host().total_cmp(&b.host()));
    by_host.truncate(epochs.len().div_ceil(2).max(3));
    by_host
}

/// `f(epoch)` of every epoch (the segments), reduced to the median over
/// the calmer half.
pub fn over_epochs(epochs: &[Epoch], f: impl Fn(&Epoch) -> f64) -> Segmented {
    let calm: Vec<f64> = calmer_half(epochs).into_iter().map(&f).collect();
    Segmented {
        value: stats::median(&calm),
        segments: epochs.iter().map(&f).collect(),
        min_samples: 0,
    }
}

/// Seconds as measured, or at nominal host speed.
fn secs(raw_s: f64, host: f64, norm: bool) -> f64 {
    if norm {
        raw_s / host
    } else {
        raw_s
    }
}

/// A slice's latencies, microseconds: at nominal host speed, or raw.
pub fn latencies(s: &Slice, norm: bool) -> Vec<f64> {
    if norm {
        s.lat_norm_us()
    } else {
        s.lat_us.clone()
    }
}

/// Work per second over the slices of `name`: at nominal host speed, or
/// raw.
pub fn throughput(e: &Epoch, name: &str, norm: bool) -> f64 {
    let work: u64 = e.named(name).map(|s| s.work).sum();
    work as f64
        / e.named(name)
            .map(|s| secs(s.wall_s, s.host, norm))
            .sum::<f64>()
}

/// Process CPU microseconds per `unit` of work over the slices of `name`
/// (`unit` work units make one op): at nominal host speed, or raw.
pub fn cpu_us_per(e: &Epoch, name: &str, unit: u64, norm: bool) -> f64 {
    let work: u64 = e.named(name).map(|s| s.work).sum();
    let cpu_s: f64 = e.named(name).map(|s| secs(s.cpu_s, s.host, norm)).sum();
    cpu_s * 1e6 * unit as f64 / work as f64
}

/// Adds the end-to-end metrics every untraced pass ends with — `setup_s`,
/// the latency quantiles of `lat`'s samples, `throughput_per_s` and
/// `cpu_us_per_op` — at nominal host speed, then the same figures as the
/// clocks read them (`raw.*`: listed and kept in the report, outside the
/// contract's result line). The closures get an epoch and whether to
/// normalise.
pub fn report_end_to_end(
    cfg: &RunCfg,
    report: &mut WorkloadReport,
    epochs: &[Epoch],
    lat: impl Fn(&Epoch, bool) -> Vec<f64>,
    tput: impl Fn(&Epoch, bool) -> f64,
    cpu: impl Fn(&Epoch, bool) -> f64,
) {
    for (prefix, norm) in [("", true), ("raw.", false)] {
        let named = |name: &str| format!("{prefix}{name}");
        report.segmented(
            &named("setup_s"),
            "s",
            over_epochs(epochs, |e| if norm { e.setup_s } else { e.setup_raw_s }),
        );
        let all: Vec<Vec<f64>> = epochs.iter().map(|e| lat(e, norm)).collect();
        let calm: Vec<Vec<f64>> = calmer_half(epochs)
            .into_iter()
            .map(|e| lat(e, norm))
            .collect();
        // The median is an end-to-end metric of the contract. The higher
        // percentiles are listed and kept in the report wherever the
        // samples support them, but are outside the contract's result
        // line: on this sandbox a tail does not repeat within any bound
        // the contract allows (README, *Repeatability*).
        for (name, q, required) in [
            ("latency_p50_us", 0.5, true),
            ("latency_p90_us", 0.9, false),
            ("latency_p99_us", 0.99, false),
        ] {
            let reduced = stats::latency_quantile(&calm, q, cfg.quick).and_then(|calm| {
                let all = stats::latency_quantile(&all, q, true)?;
                Ok(Segmented {
                    value: calm.value,
                    segments: all.segments,
                    min_samples: calm.min_samples,
                })
            });
            match reduced {
                Ok(s) => report.segmented(&named(name), "us", s),
                Err(e) if required && norm => {
                    report.check(&format!("{name} has enough samples"), false, e)
                }
                Err(e) if norm => println!("  {name} not reported: {e}"),
                Err(_) => {}
            }
        }
        report.segmented(
            &named("throughput_per_s"),
            "1/s",
            over_epochs(epochs, |e| tput(e, norm)),
        );
        report.segmented(
            &named("cpu_us_per_op"),
            "us",
            over_epochs(epochs, |e| cpu(e, norm)),
        );
    }
    // What the yardstick read, per epoch: the mean tick's two parts.
    let part = |e: &Epoch, f: fn(&crate::yardstick::Tick) -> f64| {
        let n: u64 = e.slices.iter().map(|s| s.yard.0).sum();
        e.slices.iter().map(|s| f(&s.yard.1)).sum::<f64>() * 1e6 / n.max(1) as f64
    };
    report.segmented(
        "yard.map_us",
        "us",
        over_epochs(epochs, |e| part(e, |t| t.map_s)),
    );
    report.segmented(
        "yard.pages_us",
        "us",
        over_epochs(epochs, |e| part(e, |t| t.pages_s)),
    );
}
