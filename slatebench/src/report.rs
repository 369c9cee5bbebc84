//! What a run produces: named metrics with units, per-phase op counts,
//! correctness checks and run hygiene — as the full report `compare`
//! reads, and as the one-line result the benchmark contract asks for.

use crate::load::Slice;
use crate::stats::Segmented;
use crate::sys;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Report format version; `compare` refuses to mix versions.
pub const SCHEMA: u32 = 2;

/// One named measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit (`us`, `1/s`, `count`, ...).
    pub unit: String,
    /// The reported value: for an end-to-end metric the median over the
    /// calmer half of the epochs.
    pub value: f64,
    /// Every epoch's value, in time order; their min–max is the within-run
    /// spread. Empty for plain counts.
    pub segments: Vec<f64>,
    /// Samples behind the smallest epoch (0 when not applicable).
    pub samples: u64,
}

/// Op counts of one phase: every slice of one name, over all epochs.
/// `attempted == ok + failed` always.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseCount {
    /// Phase (slice) name.
    pub name: String,
    /// Measuring time, seconds, summed over the slices.
    pub dur_s: f64,
    /// Ops started.
    pub attempted: u64,
    /// Ops completed and verified.
    pub ok: u64,
    /// Ops failed, refused, shed or mis-verified.
    pub failed: u64,
}

/// One correctness check; a failed check fails the run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// The observed values.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// Whether this was the traced pass (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    /// Per-phase op counts.
    pub phases: Vec<PhaseCount>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl WorkloadReport {
    /// Adds a metric reduced over epochs.
    pub fn segmented(&mut self, name: &str, unit: &str, s: Segmented) {
        self.require_finite(name, s.value);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value: s.value,
            segments: s.segments,
            samples: s.min_samples as u64,
        });
    }

    /// Adds a single-valued metric.
    pub fn scalar(&mut self, name: &str, unit: &str, value: f64) {
        self.require_finite(name, value);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            segments: Vec::new(),
            samples: 0,
        });
    }

    /// A value that is not a finite number (a phase that completed
    /// nothing) fails the run; JSON cannot carry it either.
    fn require_finite(&mut self, name: &str, value: f64) {
        if !value.is_finite() {
            self.check(
                &format!("{name} is a finite number"),
                false,
                format!("{value}"),
            );
        }
    }

    /// Records a correctness check. A check made once per epoch is kept
    /// once: it passes if it held every time, and keeps the detail of the
    /// first failure.
    pub fn check(&mut self, name: &str, pass: bool, detail: String) {
        if !pass {
            eprintln!("  CHECK FAILED: {name}: {detail}");
        }
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) if c.pass => (c.pass, c.detail) = (pass, detail),
            Some(_) => {}
            None => self.checks.push(Check {
                name: name.to_string(),
                pass,
                detail,
            }),
        }
    }

    /// Adds a slice's op counts to the phase of its name.
    pub fn slice(&mut self, s: &Slice) {
        self.count(s.name, s.wall_s, s.attempted, s.failed);
    }

    /// Adds op counts to the phase called `name`.
    pub fn count(&mut self, name: &str, dur_s: f64, attempted: u64, failed: u64) {
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.dur_s += dur_s;
                p.attempted += attempted;
                p.ok += attempted - failed;
                p.failed += failed;
            }
            None => self.phases.push(PhaseCount {
                name: name.to_string(),
                dur_s,
                attempted,
                ok: attempted - failed,
                failed,
            }),
        }
    }

    /// Ops started across all phases.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    /// Ops failed across all phases.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Whether every check passed and no op failed.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.checks.iter().all(|c| c.pass)
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted().max(1),
            self.failed()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` is the shortest form that round-trips: every digit
            // measured, nothing rounded. A non-finite value (the run is
            // incorrect then) prints as null so the line stays JSON.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable listing of everything measured.
    pub fn print(&self) {
        println!(
            "== {} ({}) ==",
            self.name,
            if self.traced {
                "traced pass: per-layer"
            } else {
                "untraced pass: end-to-end"
            }
        );
        for p in &self.phases {
            println!(
                "  phase {:<10} {:>7.2} s  attempted {:>7}  ok {:>7}  failed {}",
                p.name, p.dur_s, p.attempted, p.ok, p.failed
            );
        }
        for m in &self.metrics {
            let spread = if m.segments.is_empty() {
                String::new()
            } else {
                let vals: Vec<String> = m.segments.iter().map(|v| format!("{v:.4}")).collect();
                let n = if m.samples > 0 {
                    format!("; n>={}", m.samples)
                } else {
                    String::new()
                };
                format!("  [{}{}]", vals.join(" "), n)
            };
            println!("  {:<34} {:>14.4} {:<6}{}", m.name, m.value, m.unit, spread);
        }
        let failed: Vec<_> = self.checks.iter().filter(|c| !c.pass).collect();
        println!(
            "  checks: {}/{} passed; fail_share {}/{}",
            self.checks.len() - failed.len(),
            self.checks.len(),
            self.failed(),
            self.attempted()
        );
        for c in failed {
            println!("  [FAIL] {}: {}", c.name, c.detail);
        }
    }
}

/// The conditions a run was made under.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hygiene {
    /// Logical CPUs available.
    pub nproc: u64,
    /// `rustc --version`.
    pub rustc: String,
    /// One-minute load average when the run started.
    pub loadavg_1m_at_start: f64,
    /// The load average exceeded `nproc`: treat timings with suspicion.
    pub noisy: bool,
    /// The CPU the run was confined to (`null`: the kernel refused, the run
    /// was unconfined and its figures are not comparable).
    pub pinned_cpu: Option<u64>,
    /// Seconds one yardstick tick is taken to last at nominal host speed.
    pub nominal_tick_s: f64,
    /// Where WAL and trace files went.
    pub scratch_dir: String,
    /// Standing caveat on disk-bound figures.
    pub disk_note: String,
}

impl Hygiene {
    /// Reads the host's state now. Call before the process is confined to
    /// one CPU (`nproc` is the host's), then record the CPU.
    pub fn capture(scratch_dir: &std::path::Path) -> Self {
        let nproc = sys::nproc() as u64;
        let load = sys::loadavg_1m();
        Self {
            nproc,
            rustc: sys::rustc_version(),
            loadavg_1m_at_start: load,
            noisy: load > nproc as f64,
            pinned_cpu: None,
            nominal_tick_s: crate::yardstick::NOMINAL_TICK_S,
            scratch_dir: scratch_dir.display().to_string(),
            disk_note: "WAL and recovery figures are this sandbox's file system, \
                        not a claim about any storage device"
                .to_string(),
        }
    }
}

/// A full report: one or more workload runs of one invocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// [`SCHEMA`].
    pub schema: u32,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: measuring time per workload; epochs of fixed op counts
    /// repeat until it is used up (see each `PhaseCount::dur_s`).
    pub seconds: f64,
    /// `--quick`: shortened phases, percentile sample rule relaxed; not
    /// comparable.
    pub quick: bool,
    /// Host conditions.
    pub hygiene: Hygiene,
    /// The workload runs.
    pub workloads: Vec<WorkloadReport>,
}
