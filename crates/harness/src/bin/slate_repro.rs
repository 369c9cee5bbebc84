//! `slate-repro` — regenerates every table and figure of the Slate paper's
//! evaluation on the simulated Titan Xp.
//!
//! ```text
//! slate-repro all                 # every experiment, full scale
//! slate-repro fig7 --scale 4      # one experiment, reduced repetitions
//! slate-repro all --md EXPERIMENTS.md
//! slate-repro trace slo_log.json -o trace.json   # log -> Perfetto trace
//! slate-repro tune slo_log.json --md tune.md     # offline config search
//! ```

use serde::Deserialize;
use slate_core::arbiter::replay::{EventLog, Replayable};
use slate_core::placement::replay::PlacementLog;
use slate_core::trace::tune::TuneConfig;
use slate_core::trace::{export, tune, validate, TraceSchema};
use slate_gpu_sim::device::DeviceConfig;
use slate_harness::report::Report;
use slate_harness::{
    ablation, fig1, fig5, fig6, fig7, llm, oracle, portability, table1, table2, table3, table4,
    table5,
};

const EXPERIMENTS: [&str; 13] = [
    "fig1",
    "table1",
    "table2",
    "table3",
    "table4",
    "fig5",
    "fig6",
    "fig7",
    "table5",
    "ablation",
    "portability",
    "oracle",
    "llm",
];

fn usage() -> ! {
    eprintln!(
        "usage: slate-repro <all|{}> [--scale N] [--md PATH] [--json PATH] [--summary PATH]\n\
         \x20      slate-repro trace <log.json> [-o PATH] [--schema PATH]\n\
         \x20      slate-repro tune <log.json> [--grid SPEC] [--json PATH] [--md PATH] \
         [--serial] [--assert-improves]",
        EXPERIMENTS.join("|")
    );
    std::process::exit(2);
}

/// A subcommand over a recorded log, whichever layer recorded it.
enum LogCmd {
    Trace {
        out: String,
        schema: TraceSchema,
    },
    Tune {
        grid_spec: Option<String>,
        json_path: Option<String>,
        md_path: Option<String>,
        parallel: bool,
        assert_improves: bool,
    },
}

/// Loads the log at `path` and runs `cmd` on it: single-device logs carry
/// a top-level `device`, placement logs a `devices` list.
fn with_log(path: &str, cmd: LogCmd) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let value =
        serde::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: not valid JSON: {e:?}")));
    let has = |key: &str| match &value {
        serde::JsonValue::Obj(fields) => fields.iter().any(|(k, _)| k == key),
        _ => fail(&format!("{path}: expected a JSON object")),
    };
    if has("devices") {
        let log = PlacementLog::deserialize_json(&value)
            .unwrap_or_else(|e| fail(&format!("{path}: not a placement log: {e:?}")));
        cmd.run(&log)
    } else if has("device") {
        let log = EventLog::deserialize_json(&value)
            .unwrap_or_else(|e| fail(&format!("{path}: not an arbiter log: {e:?}")));
        cmd.run(&log)
    } else {
        fail(&format!(
            "{path}: neither an arbiter log (`device`) nor a placement log (`devices`)"
        ))
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("slate-repro: {msg}");
    std::process::exit(1);
}

/// `slate-repro trace <log> [-o out] [--schema schema.json]`: convert a
/// recorded log to Perfetto JSON (re-deriving commands via replay),
/// validate the emitted bytes, write them out.
fn cmd_trace(args: &[String]) -> ! {
    let mut log_path: Option<&str> = None;
    let mut out = "trace.json".to_string();
    let mut schema = TraceSchema::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--out" => out = it.next().cloned().unwrap_or_else(|| usage()),
            "--schema" => {
                let p = it.next().unwrap_or_else(|| usage());
                let text =
                    std::fs::read_to_string(p).unwrap_or_else(|e| fail(&format!("read {p}: {e}")));
                schema = TraceSchema::from_json(&text).unwrap_or_else(|e| fail(&e));
            }
            other if log_path.is_none() && !other.starts_with('-') => log_path = Some(a),
            _ => usage(),
        }
    }
    let log_path = log_path.unwrap_or_else(|| usage());
    with_log(log_path, LogCmd::Trace { out, schema })
}

/// `slate-repro tune <log> [--grid SPEC] ...`: replay the log under a
/// config grid, rank variants on command-derived tail metrics, report.
fn cmd_tune(args: &[String]) -> ! {
    let mut log_path: Option<&str> = None;
    let mut grid_spec: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut md_path: Option<String> = None;
    let mut parallel = true;
    let mut assert_improves = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--grid" => {
                let spec = it.next().cloned().unwrap_or_else(|| usage());
                if spec != "default" {
                    grid_spec = Some(spec);
                }
            }
            "--json" => json_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--md" => md_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--serial" => parallel = false,
            "--assert-improves" => assert_improves = true,
            other if log_path.is_none() && !other.starts_with('-') => log_path = Some(a),
            _ => usage(),
        }
    }
    let log_path = log_path.unwrap_or_else(|| usage());
    let cmd = LogCmd::Tune {
        grid_spec,
        json_path,
        md_path,
        parallel,
        assert_improves,
    };
    with_log(log_path, cmd)
}

impl LogCmd {
    fn run<L>(self, log: &L) -> !
    where
        L: Replayable + Sync,
        L::Config: TuneConfig,
    {
        match self {
            LogCmd::Trace { out, schema } => {
                let json = export::trace_log(log)
                    .unwrap_or_else(|e| fail(&e))
                    .to_json();
                let stats = validate::validate(&json, &schema)
                    .unwrap_or_else(|e| fail(&format!("emitted trace failed validation: {e}")));
                std::fs::write(&out, &json).unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
                println!("trace: {stats}");
                println!("wrote {out} ({} bytes)", json.len());
            }
            LogCmd::Tune {
                grid_spec,
                json_path,
                md_path,
                parallel,
                assert_improves,
            } => {
                let grid = match &grid_spec {
                    Some(spec) => tune::parse_grid(spec, log.config()).unwrap_or_else(|e| fail(&e)),
                    None => tune::default_grid(log.config()),
                };
                println!(
                    "tune: {} batches, {} variants ({})",
                    log.batches().len(),
                    grid.len(),
                    if parallel { "parallel" } else { "serial" }
                );
                let report = tune::tune(log, &grid, parallel);
                print!("{}", report.to_markdown());
                println!(
                    "best: {} (baseline: {})",
                    report.best().name,
                    report.baseline().name
                );
                if let Some(path) = &json_path {
                    std::fs::write(path, report.to_json())
                        .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
                    println!("wrote {path}");
                }
                if let Some(path) = &md_path {
                    std::fs::write(path, report.to_markdown())
                        .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
                    println!("wrote {path}");
                }
                if assert_improves && !report.best_not_worse_than_baseline() {
                    fail("best variant scored worse than the recorded baseline");
                }
            }
        }
        std::process::exit(0);
    }
}

fn run_one(id: &str, cfg: &DeviceConfig, scale: u32) -> Report {
    match id {
        "fig1" => fig1::run(cfg, scale as u64).1,
        "table1" => table1::run(cfg).1,
        "table2" => table2::run(cfg).1,
        "table3" => table3::run(cfg, scale).1,
        "table4" => table4::run(cfg, scale).1,
        "fig5" => fig5::run(cfg).1,
        "fig6" => fig6::run(cfg, scale).1,
        "fig7" => fig7::run(cfg, scale).1,
        "table5" => table5::run(cfg, scale).1,
        "ablation" => ablation::run(cfg, scale.max(4)).1,
        "portability" => portability::run(scale.max(4)).1,
        "oracle" => oracle::run(cfg, scale.max(4)).1,
        "llm" => llm::run(cfg, scale).1,
        other => {
            eprintln!("unknown experiment: {other}");
            usage()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    match args[0].as_str() {
        "trace" => cmd_trace(&args[1..]),
        "tune" => cmd_tune(&args[1..]),
        _ => {}
    }
    let mut scale: u32 = 1;
    let mut md_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut summary_path: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if scale == 0 {
                    usage();
                }
            }
            "--md" => md_path = Some(it.next().unwrap_or_else(|| usage())),
            "--json" => json_path = Some(it.next().unwrap_or_else(|| usage())),
            "--summary" => summary_path = Some(it.next().unwrap_or_else(|| usage())),
            "all" => targets.extend(EXPERIMENTS.iter().map(|s| s.to_string())),
            other if EXPERIMENTS.contains(&other) => targets.push(other.to_string()),
            _ => usage(),
        }
    }
    if targets.is_empty() {
        usage();
    }

    let cfg = DeviceConfig::titan_xp();
    println!(
        "slate-repro: device = {}, {} SMs, scale = 1/{scale}\n",
        cfg.name, cfg.num_sms
    );

    let mut reports = Vec::new();
    let mut failed = 0usize;
    for id in &targets {
        let t0 = std::time::Instant::now();
        // The llm experiment carries the CI headline metric
        // (`p99_decode_under_load_us`); `--summary` captures it as a small
        // machine-readable artifact without the full report JSON.
        let report = if id == "llm" {
            let (results, report) = llm::run(&cfg, scale);
            if let Some(path) = &summary_path {
                std::fs::write(path, results.summary_json()).expect("write summary");
                println!("wrote {path}");
            }
            report
        } else {
            run_one(id, &cfg, scale)
        };
        println!("{}", report.to_text());
        println!("({} completed in {:.2?})\n", id, t0.elapsed());
        failed += report.checks.iter().filter(|c| !c.pass).count();
        reports.push(report);
    }

    if let Some(path) = &json_path {
        let json = serde_json::to_string_pretty(&reports).expect("reports serialize");
        std::fs::write(path, json).expect("write json");
        println!("wrote {path}");
    }
    if let Some(path) = md_path {
        let mut md = String::from(
            "# EXPERIMENTS — paper vs measured\n\n\
             Every table and figure of *Slate: Enabling Workload-Aware \
             Efficient Multiprocessing for Modern GPGPUs* (Allen, Feng, Ge — \
             IPDPS 2019), regenerated by `slate-repro` on the simulated \
             Titan Xp substrate. Absolute numbers come from the calibrated \
             simulator; the shape checks assert what must carry over: who \
             wins, by roughly what factor, and where the crossovers fall. \
             Known deviations from the paper are catalogued in DESIGN.md \
             §7 (our RG pairings gain more; the solo-alternate pairings \
             cluster at ±2% of MPS; Table III absolute bandwidths follow \
             Table II's calibration).\n\n",
        );
        for r in &reports {
            md.push_str(&r.to_markdown());
            md.push('\n');
        }
        std::fs::write(&path, md).expect("write markdown");
        println!("wrote {path}");
    }

    let total: usize = reports.iter().map(|r| r.checks.len()).sum();
    println!(
        "shape checks: {}/{} passed across {} experiments",
        total - failed,
        total,
        reports.len()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
