//! Holds `slate-bench` to `BENCHMARK.json` and to the result-line contract:
//! runs every workload with `--quick` (≈2 s of measuring) in both passes
//! and checks that every workload and metric named in `BENCHMARK.json` is
//! emitted exactly once with its unit, that op counts add up, and that the
//! correctness checks fire when a result is deliberately corrupted.

use serde::JsonValue;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_slate-bench");

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a JsonValue, name: &str) -> &'a JsonValue {
    match v {
        JsonValue::Obj(entries) => {
            let hits: Vec<_> = entries.iter().filter(|(k, _)| k == name).collect();
            assert_eq!(hits.len(), 1, "key {name} appears {} times", hits.len());
            &hits[0].1
        }
        other => panic!("expected an object with {name}, found {other:?}"),
    }
}

fn keys(v: &JsonValue) -> Vec<String> {
    match v {
        JsonValue::Obj(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn items(v: &JsonValue) -> &[JsonValue] {
    match v {
        JsonValue::Arr(items) => items,
        other => panic!("expected an array, found {other:?}"),
    }
}

fn text(v: &JsonValue) -> &str {
    match v {
        JsonValue::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn number(v: &JsonValue) -> f64 {
    match v {
        JsonValue::Num(raw) => raw.parse().expect("a number"),
        other => panic!("expected a number, found {other:?}"),
    }
}

/// `(name, unit)` of every entry of `BENCHMARK.json`'s `section`.
fn declared(bench: &JsonValue, section: &str) -> Vec<(String, String)> {
    items(field(bench, section))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn workload_names(bench: &JsonValue) -> Vec<String> {
    items(field(bench, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")).to_string())
        .collect()
}

struct Run {
    success: bool,
    last_line: String,
    report: PathBuf,
}

/// Runs one workload with `--quick` in a directory of its own.
fn run(workload: &str, trace: bool, corrupt: bool) -> Run {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "contract-{workload}-{}-{}",
        u8::from(trace),
        u8::from(corrupt)
    ));
    std::fs::create_dir_all(&dir).expect("create run directory");
    let report = dir.join("report.json");
    let mut cmd = Command::new(BIN);
    cmd.current_dir(&dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--quick")
        .arg("--out")
        .arg(&report);
    if corrupt {
        cmd.arg("--corrupt");
    }
    let out = cmd.output().expect("slate-bench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    Run {
        success: out.status.success(),
        last_line: stdout.lines().last().unwrap_or_default().to_string(),
        report,
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Checks one run's result line against the metrics `BENCHMARK.json`
/// declares for its pass, and its report's op counts.
fn check_run(workload: &str, trace: bool, want: &[(String, String)]) {
    let r = run(workload, trace, false);
    assert!(
        r.success,
        "{workload} trace={trace} exited non-zero: {}",
        r.last_line
    );
    let line = serde::parse(&r.last_line)
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {}", r.last_line));
    let mut top = keys(&line);
    top.sort();
    assert_eq!(
        top,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        field(&line, "correct"),
        &JsonValue::Bool(true),
        "{workload}"
    );
    assert!(number(field(&line, "attempted")) >= 1.0);
    assert_eq!(number(field(&line, "failed")), 0.0);

    let metrics = field(&line, "metrics");
    let got = keys(metrics);
    let want_names: Vec<String> = want.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(
        got, want_names,
        "{workload} trace={trace}: metric names, in order, each once"
    );
    for (name, unit) in want {
        assert!(valid_name(name), "{name}");
        let m = field(metrics, name);
        let mut mk = keys(m);
        mk.sort();
        assert_eq!(mk, ["unit", "value"], "{workload} {name}");
        assert_eq!(text(field(m, "unit")), unit, "{workload} {name}");
        let v = number(field(m, "value"));
        assert!(v.is_finite(), "{workload} {name} = {v}");
        if !trace {
            assert!(
                v > 0.0,
                "{workload} {name}: end-to-end metrics are never 0, got {v}"
            );
        }
    }

    let report = serde::parse(&std::fs::read_to_string(&r.report).expect("report written"))
        .expect("report parses");
    for w in items(field(&report, "workloads")) {
        assert_eq!(text(field(w, "name")), workload);
        for p in items(field(w, "phases")) {
            let n = |k: &str| number(field(p, k));
            assert_eq!(
                n("attempted"),
                n("ok") + n("failed"),
                "{workload} phase {}",
                text(field(p, "name"))
            );
        }
    }
    let hygiene = field(&report, "hygiene");
    for k in [
        "nproc",
        "rustc",
        "loadavg_1m_at_start",
        "noisy",
        "disk_note",
    ] {
        field(hygiene, k);
    }
    assert_eq!(number(field(&report, "seed")), 7.0);
}

#[test]
fn catalog_matches_benchmark_json() {
    let bench = benchmark_json();
    let out = Command::new(BIN)
        .arg("catalog")
        .output()
        .expect("catalog runs");
    assert!(out.status.success());
    let catalog = serde::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("catalog JSON");
    assert_eq!(field(&catalog, "workloads"), field(&bench, "workloads"));
    assert_eq!(field(&catalog, "end_to_end"), field(&bench, "end_to_end"));
    assert_eq!(
        number(field(&catalog, "run_seconds")),
        number(field(&bench, "run_seconds"))
    );
    assert_eq!(
        declared(&catalog, "per_layer"),
        declared(&bench, "per_layer"),
        "per-layer names and units"
    );
    let e2e = declared(&bench, "end_to_end");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for m in items(field(&bench, "end_to_end")) {
        assert!(number(field(m, "bound")) <= 0.25);
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric_once() {
    let bench = benchmark_json();
    let want = declared(&bench, "end_to_end");
    for w in workload_names(&bench) {
        check_run(&w, false, &want);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_once() {
    let bench = benchmark_json();
    let want = declared(&bench, "per_layer");
    for w in workload_names(&bench) {
        check_run(&w, true, &want);
        let trace = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "contract-{w}-1-0/target/slate-bench/{w}.trace.json"
        ));
        let json = std::fs::read_to_string(&trace).expect("chrome trace written");
        field(
            &serde::parse(&json).expect("chrome trace parses"),
            "traceEvents",
        );
    }
}

#[test]
fn corrupted_results_fail_the_run() {
    for w in workload_names(&benchmark_json()) {
        let r = run(&w, false, true);
        assert!(!r.success, "{w}: a corrupted result must exit non-zero");
        let line = serde::parse(&r.last_line).expect("result line still printed");
        assert_eq!(field(&line, "correct"), &JsonValue::Bool(false), "{w}");
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(BIN)
        .args(["--workload", "nope"])
        .output()
        .expect("slate-bench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
