//! `slate-bench`: client-observed daemon latency, throughput, recovery and
//! simulator speed, with a per-layer breakdown. See `README.md` beside
//! this package's `Cargo.toml`.
//!
//! ```text
//! slate-bench --workload NAME --seed N --seconds S --trace 0|1   one run
//! slate-bench [--seed N] [--seconds S] [--quick]                 all workloads, then the traced pass
//! slate-bench compare A.json B.json                              two reports side by side
//! slate-bench catalog                                            the names, units and bounds fixed here, as JSON
//! ```

mod catalog;
mod compare;
mod gen;
mod kernels;
mod layers;
mod load;
mod probes;
mod report;
mod spans;
mod stats;
mod sys;
mod traced;
mod workloads;
mod yardstick;

use catalog::{E2E, LAYER, WORKLOADS};
use report::{Hygiene, Report, WorkloadReport, SCHEMA};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::RunCfg;

/// Where WAL directories, trace files and reports go: inside the current
/// directory (the checkout), never the system's temporary directory.
const SCRATCH: &str = "target/slate-bench";

/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 28.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    corrupt: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        corrupt: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? != "0",
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--quick" => a.quick = true,
            "--corrupt" => a.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.quick {
        a.seconds = a.seconds.min(2.0);
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be a positive number".to_string());
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    Ok(a)
}

fn write_report(path: &Path, report: &Report) -> Result<(), String> {
    let text = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn print_hygiene(h: &Hygiene, args: &Args) {
    println!(
        "slate-bench: seed {} | {} s per workload{} | nproc {}, confined to {} | {} | load average {:.2}{}",
        args.seed,
        args.seconds,
        if args.quick {
            " (quick: not comparable)"
        } else {
            ""
        },
        h.nproc,
        match h.pinned_cpu {
            Some(cpu) => format!("CPU {cpu}"),
            None => "no CPU (refused: NOT COMPARABLE)".to_string(),
        },
        h.rustc,
        h.loadavg_1m_at_start,
        if h.noisy {
            " -- NOISY: exceeds nproc"
        } else {
            ""
        },
    );
    println!("  scratch: {} ({})", h.scratch_dir, h.disk_note);
}

/// The metrics of the contract line: every end-to-end metric for the
/// untraced pass, every per-layer metric for the traced one, in catalog
/// order. A metric the run failed to produce is simply absent (and the run
/// incorrect).
fn contract_view(w: &WorkloadReport) -> WorkloadReport {
    let names: Vec<&str> = if w.traced {
        LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        E2E.iter().map(|m| m.name).collect()
    };
    let mut view = w.clone();
    view.metrics = names.iter().filter_map(|n| w.get(n).cloned()).collect();
    if view.metrics.len() != names.len() {
        view.check(
            "every catalogued metric was produced",
            false,
            format!("{} of {}", view.metrics.len(), names.len()),
        );
    }
    view
}

/// One workload, in this process.
fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let scratch = PathBuf::from(SCRATCH);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{SCRATCH}: {e}"))?;
    let mut hygiene = Hygiene::capture(&scratch);
    // From here on the process — generator, daemon, workers, yardstick —
    // has one CPU: on this two-vCPU guest a hand-off between CPUs costs
    // 5 to 20 times one within a CPU and varies with the host's state, and
    // a launch makes about ten of them (README, *Conventions*).
    hygiene.pinned_cpu = sys::pin_to_one_cpu();
    print_hygiene(&hygiene, args);
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        corrupt: args.corrupt,
        scratch: scratch.clone(),
        loadavg_at_start: hygiene.loadavg_1m_at_start,
    };
    let w = workloads::run(name, &cfg);
    w.print();
    let view = contract_view(&w);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| scratch.join(format!("{name}.trace{}.json", u8::from(args.trace))));
    write_report(
        &path,
        &Report {
            schema: SCHEMA,
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
            hygiene,
            workloads: vec![w],
        },
    )?;
    println!("  report: {}", path.display());
    println!("{}", view.contract_line());
    Ok(if view.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload untraced, then every workload traced — each in a child
/// process of its own, so `process.rss_mb` (a high-water mark) is per
/// workload.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let scratch = PathBuf::from(SCRATCH);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{SCRATCH}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut combined: Option<Report> = None;
    let mut all_ok = true;
    for trace in [false, true] {
        for (name, _) in WORKLOADS {
            let part = scratch.join(format!("{name}.trace{}.json", u8::from(trace)));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if args.quick {
                cmd.arg("--quick");
            }
            if args.corrupt {
                cmd.arg("--corrupt");
            }
            let status = cmd.status().map_err(|e| format!("{name}: {e}"))?;
            all_ok &= status.success();
            let text = std::fs::read_to_string(&part).map_err(|e| format!("{name}: {e}"))?;
            let report: Report = serde_json::from_str(&text).map_err(|e| format!("{name}: {e}"))?;
            match &mut combined {
                Some(c) => c.workloads.extend(report.workloads),
                None => combined = Some(report),
            }
        }
    }
    let combined = combined.expect("at least one workload");
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| scratch.join("report.json"));
    write_report(&path, &combined)?;
    println!("combined report: {}", path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The catalog in the shape of `BENCHMARK.json`'s `workloads`,
/// `end_to_end` and `per_layer` (the latter without direction).
fn catalog_json() -> String {
    let quoted = |s: &str| {
        let mut out = String::new();
        serde::ser_str(&mut out, s);
        out
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("{{\"name\": {}, \"why\": {}}}", quoted(n), quoted(why)))
        .collect();
    let e2e: Vec<String> = E2E
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {:?}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(match m.better {
                    catalog::Better::Lower => "lower",
                    catalog::Better::Higher => "higher",
                }),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = LAYER
        .iter()
        .map(|(n, u)| format!("{{\"name\": {}, \"unit\": {}}}", quoted(n), quoted(u)))
        .collect();
    format!(
        "{{\"run_seconds\": {DEFAULT_SECONDS:?}, \"workloads\": [{}], \"end_to_end\": [{}], \"per_layer\": [{}]}}",
        workloads.join(", "),
        e2e.join(", "),
        layers.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("catalog") {
        println!("{}", catalog_json());
        Ok(ExitCode::SUCCESS)
    } else if argv.first().map(String::as_str) == Some("compare") {
        match argv.as_slice() {
            [_, a, b] => compare::run(a, b).map(|ok| {
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            _ => Err("usage: slate-bench compare A.json B.json".to_string()),
        }
    } else {
        parse_args(&argv).and_then(|args| match args.workload.clone() {
            Some(name) => run_one(&args, &name),
            None => run_all(&args),
        })
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("slate-bench: {e}");
        ExitCode::from(2)
    })
}
