//! Offline config autotuning over recorded logs.
//!
//! Exact replay makes configuration search embarrassingly parallel: one
//! recorded [`EventLog`] replayed under N [`ArbiterConfig`] variants via
//! [`replay_under`] yields N command streams over *identical* inputs, so
//! scoring them against each other is a controlled experiment — no
//! simulation noise, no re-run variance, and a re-run of the same grid
//! over the same log produces byte-identical reports. Scoring uses only
//! command-derived metrics (`ReplayMetrics`); see the
//! [`metrics`](super::metrics) module docs for why event-derived
//! latencies are off-limits in counterfactual comparisons.
//!
//! [`replay_under`]: crate::arbiter::replay::replay_under
//! [`EventLog`]: crate::arbiter::replay::EventLog

use super::metrics::{replay_metrics, ReplayMetrics};
use crate::arbiter::replay::{replay_under, ReplayBatch, Replayable};
use crate::arbiter::ArbiterConfig;
use crate::placement::PlacementConfig;
use std::fmt::Write as _;
use std::sync::Mutex;

/// One candidate configuration in a tuning grid: an [`ArbiterConfig`] for
/// single-device logs, a [`PlacementConfig`] for multi-device ones.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneVariant<C = ArbiterConfig> {
    /// Human-readable variant name (shown in the report tables).
    pub(crate) name: String,
    /// The configuration to replay under.
    pub(crate) config: C,
}

/// A configuration the tuner can vary: the arbiter knobs every log has.
pub trait TuneConfig: Clone + PartialEq + Sync {
    /// The arbiter knobs inside this configuration.
    fn arbiter(&self) -> &ArbiterConfig;
    /// This configuration with its arbiter knobs replaced.
    fn with_arbiter(&self, arbiter: ArbiterConfig) -> Self;
}

impl TuneConfig for ArbiterConfig {
    fn arbiter(&self) -> &ArbiterConfig {
        self
    }
    fn with_arbiter(&self, arbiter: ArbiterConfig) -> Self {
        arbiter
    }
}

impl TuneConfig for PlacementConfig {
    fn arbiter(&self) -> &ArbiterConfig {
        &self.arbiter
    }
    fn with_arbiter(&self, arbiter: ArbiterConfig) -> Self {
        PlacementConfig {
            policy: self.policy.clone(),
            arbiter,
        }
    }
}

fn opt_us(v: Option<u64>) -> String {
    match v {
        Some(x) => format!("{x}us"),
        None => "off".into(),
    }
}

/// Compact one-line rendering of the knobs a variant moved.
pub(crate) fn config_summary<C: TuneConfig>(config: &C) -> String {
    let c = config.arbiter();
    let mut s = format!(
        "corun={} resize={} starve={} preempt={}",
        u8::from(c.enable_corun),
        u8::from(c.enable_resize),
        opt_us(c.starvation_bound_us),
        opt_us(c.preempt_bound_us),
    );
    if let Some(g) = c.limits.max_pending_global {
        let _ = write!(s, " pend_global={g}");
    }
    if let Some(p) = c.limits.max_pending_per_session {
        let _ = write!(s, " pend_session={p}");
    }
    if let Some(m) = c.limits.max_sessions {
        let _ = write!(s, " sessions={m}");
    }
    s
}

/// `variants` of `base`'s arbiter knobs, lifted back into `base`.
fn lift<C: TuneConfig>(base: &C, variants: Vec<TuneVariant>) -> Vec<TuneVariant<C>> {
    variants
        .into_iter()
        .map(|v| TuneVariant {
            name: v.name,
            config: base.with_arbiter(v.config),
        })
        .collect()
}

/// The built-in one-factor grid around `base` (the log's recorded
/// configuration): the recorded baseline first, then each policy knob
/// moved on its own — preemption bound off/5 ms/10 ms/50 ms, starvation
/// bound 50 ms/200 ms, co-running off, resizing off, and a tight global
/// admission bound. Ten variants, satisfying the ≥ 8 the tuner smoke grid
/// requires.
pub fn default_grid<C: TuneConfig>(base: &C) -> Vec<TuneVariant<C>> {
    let arbiter = base.arbiter();
    let v = |name: &str, f: &dyn Fn(&mut ArbiterConfig)| {
        let mut config = arbiter.clone();
        f(&mut config);
        TuneVariant {
            name: name.to_string(),
            config,
        }
    };
    lift(
        base,
        vec![
            v("recorded", &|_| {}),
            v("preempt=off", &|c| c.preempt_bound_us = None),
            v("preempt=5ms", &|c| c.preempt_bound_us = Some(5_000)),
            v("preempt=10ms", &|c| c.preempt_bound_us = Some(10_000)),
            v("preempt=50ms", &|c| c.preempt_bound_us = Some(50_000)),
            v("starve=50ms", &|c| c.starvation_bound_us = Some(50_000)),
            v("starve=200ms", &|c| c.starvation_bound_us = Some(200_000)),
            v("corun=off", &|c| c.enable_corun = false),
            v("resize=off", &|c| c.enable_resize = false),
            v("pend_global=4", &|c| c.limits.max_pending_global = Some(4)),
        ],
    )
}

/// Hard cap on grid size; a runaway cartesian spec is an input error,
/// not a reason to spin 10⁶ replays.
pub(crate) const MAX_GRID: usize = 256;

fn parse_bound(key: &str, v: &str) -> Result<Option<u64>, String> {
    if v == "none" || v == "off" {
        return Ok(None);
    }
    v.parse::<u64>()
        .map(Some)
        .map_err(|_| format!("grid: `{key}={v}`: expected an integer, `none` or `off`"))
}

fn parse_flag(key: &str, v: &str) -> Result<bool, String> {
    match v {
        "1" | "true" | "on" => Ok(true),
        "0" | "false" | "off" => Ok(false),
        _ => Err(format!("grid: `{key}={v}`: expected on/off/1/0/true/false")),
    }
}

/// Parses a cartesian grid spec of the form
/// `key=v1,v2;key2=v3,...` over `base` — every combination of the listed
/// values becomes a variant, with the recorded baseline prepended.
///
/// Keys: `preempt_bound_us`, `starvation_bound_us` (integer µs, `none`,
/// or `off`), `enable_corun`, `enable_resize` (`on`/`off`),
/// `max_pending_global`, `max_pending_per_session`, `max_sessions`
/// (integer, `none`, or `off`). At most `MAX_GRID` variants.
pub fn parse_grid<C: TuneConfig>(spec: &str, base: &C) -> Result<Vec<TuneVariant<C>>, String> {
    let mut variants = vec![TuneVariant {
        name: "recorded".into(),
        config: base.arbiter().clone(),
    }];
    for axis in spec.split(';').filter(|a| !a.trim().is_empty()) {
        let (key, values) = axis
            .split_once('=')
            .ok_or_else(|| format!("grid: axis `{axis}` is not `key=v1,v2,...`"))?;
        let key = key.trim();
        let values: Vec<&str> = values.split(',').map(str::trim).collect();
        if values.is_empty() {
            return Err(format!("grid: axis `{key}` has no values"));
        }
        let mut expanded = Vec::with_capacity(variants.len() * values.len());
        for variant in &variants {
            for v in &values {
                let mut config = variant.config.clone();
                match key {
                    "preempt_bound_us" => config.preempt_bound_us = parse_bound(key, v)?,
                    "starvation_bound_us" => config.starvation_bound_us = parse_bound(key, v)?,
                    "enable_corun" => config.enable_corun = parse_flag(key, v)?,
                    "enable_resize" => config.enable_resize = parse_flag(key, v)?,
                    "max_pending_global" => config.limits.max_pending_global = parse_bound(key, v)?,
                    "max_pending_per_session" => {
                        config.limits.max_pending_per_session = parse_bound(key, v)?
                    }
                    "max_sessions" => {
                        config.limits.max_sessions = parse_bound(key, v)?.map(|n| n as usize)
                    }
                    _ => return Err(format!("grid: unknown key `{key}`")),
                }
                let name = if variant.name == "recorded" {
                    format!("{key}={v}")
                } else {
                    format!("{} {key}={v}", variant.name)
                };
                expanded.push(TuneVariant { name, config });
                if expanded.len() > MAX_GRID {
                    return Err(format!("grid: more than {MAX_GRID} variants"));
                }
            }
        }
        // The recorded baseline always stays; axes expand around it.
        let mut next = vec![variants[0].clone()];
        next.extend(expanded);
        if next.len() > MAX_GRID {
            return Err(format!("grid: more than {MAX_GRID} variants"));
        }
        variants = next;
    }
    if variants.len() < 2 {
        return Err("grid: spec produced no variants beyond the baseline".into());
    }
    Ok(lift(base, variants))
}

/// Lower-is-better lexicographic score of a variant: p99
/// latency-critical dispatch wait, then the ANTT proxy (in 1e-4 units),
/// then overall p99 wait. Ties beyond that resolve to the earlier
/// variant in the grid — the baseline wins exact ties, so a variant must
/// genuinely move a scored metric to displace it.
pub(crate) fn score(m: &ReplayMetrics) -> (u64, u64, u64) {
    (
        m.lc_wait.p99_us,
        (m.antt_proxy * 1e4).round() as u64,
        m.wait.p99_us,
    )
}

/// One scored variant in a [`TuneReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TuneRow {
    /// Variant name.
    pub name: String,
    /// Compact rendering of the variant's configuration.
    pub(crate) config: String,
    /// Whether this is the log's recorded baseline configuration.
    pub baseline: bool,
    /// The command-derived metrics of its counterfactual replay.
    pub(crate) metrics: ReplayMetrics,
}

/// The ranked outcome of a tuning run. Construction is deterministic:
/// same log + same grid ⇒ identical rows ⇒ identical report bytes, no
/// matter how many threads replayed the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// Batches in the tuned log.
    pub(crate) batches: usize,
    /// Events in the tuned log.
    pub(crate) events: usize,
    /// Rows ranked best (index 0) to worst.
    pub rows: Vec<TuneRow>,
}

impl TuneReport {
    fn rank(batches: usize, events: usize, mut rows: Vec<TuneRow>) -> Self {
        // Stable sort: grid order breaks score ties, baseline first.
        rows.sort_by_key(|r| score(&r.metrics));
        TuneReport {
            batches,
            events,
            rows,
        }
    }

    /// The best-scoring row.
    pub fn best(&self) -> &TuneRow {
        &self.rows[0]
    }

    /// The recorded-baseline row.
    pub fn baseline(&self) -> &TuneRow {
        self.rows
            .iter()
            .find(|r| r.baseline)
            .unwrap_or_else(|| self.best())
    }

    /// Whether the best variant scores at least as well as the recorded
    /// baseline. The baseline is itself in the grid, so this can only be
    /// false if ranking is broken — the tuner smoke asserts it as a
    /// self-check.
    pub fn best_not_worse_than_baseline(&self) -> bool {
        score(&self.best().metrics) <= score(&self.baseline().metrics)
    }

    /// Deterministic JSON rendering (hand-emitted: fixed field order,
    /// fixed float precision).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"batches\":{},\"events\":{},\"variants\":{},\"best\":",
            self.batches,
            self.events,
            self.rows.len()
        );
        serde::ser_str(&mut out, &self.best().name);
        out.push_str(",\"rows\":[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"rank\":");
            let _ = write!(out, "{}", i + 1);
            out.push_str(",\"name\":");
            serde::ser_str(&mut out, &r.name);
            out.push_str(",\"config\":");
            serde::ser_str(&mut out, &r.config);
            let m = &r.metrics;
            let _ = write!(
                out,
                ",\"baseline\":{},\"lc_p99_wait_us\":{},\"p99_wait_us\":{},\
                 \"antt_proxy\":{:.4},\"preempt_p99_us\":{},\"preempt_max_us\":{},\
                 \"preemptions\":{},\"sheds\":{},\"evictions\":{},\"resizes\":{},\
                 \"promotions\":{},\"episodes\":{},\"undispatched\":{}}}",
                r.baseline,
                m.lc_wait.p99_us,
                m.wait.p99_us,
                m.antt_proxy,
                m.preempt.p99_us,
                m.preempt.max_us,
                m.preemptions,
                m.sheds,
                m.evictions,
                m.resizes,
                m.promotions,
                m.episodes,
                m.undispatched,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Deterministic markdown ranking table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| Rank | Variant | Config | LC p99 wait (µs) | p99 wait (µs) | ANTT proxy | Preempt p99 (µs) | Sheds | Undispatched |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
        for (i, r) in self.rows.iter().enumerate() {
            let m = &r.metrics;
            let name = if r.baseline {
                format!("**{}**", r.name)
            } else {
                r.name.clone()
            };
            let _ = writeln!(
                out,
                "| {} | {} | `{}` | {} | {} | {:.4} | {} | {} | {} |",
                i + 1,
                name,
                r.config,
                m.lc_wait.p99_us,
                m.wait.p99_us,
                m.antt_proxy,
                m.preempt.p99_us,
                m.sheds,
                m.undispatched,
            );
        }
        out
    }
}

/// Replays every variant over the shared log — a single core, or the
/// full placement layer (routing, health, evacuation) scored on the
/// fleet-wide command stream — scores the command streams and ranks them.
/// `parallel` fans the grid out over the rayon pool (one task per
/// variant, results slotted by grid index, so the ranking — and the
/// report bytes — are independent of thread scheduling).
pub fn tune<L>(log: &L, variants: &[TuneVariant<L::Config>], parallel: bool) -> TuneReport
where
    L: Replayable + Sync,
    L::Config: TuneConfig,
{
    let events = log.batches().iter().map(|b| b.events().len()).sum();
    let rows = run_grid(variants.len(), parallel, |i| {
        let v = &variants[i];
        TuneRow {
            name: v.name.clone(),
            config: config_summary(&v.config),
            baseline: v.config == *log.config(),
            metrics: replay_metrics(&replay_under(log, v.config.clone())),
        }
    });
    TuneReport::rank(log.batches().len(), events, rows)
}

fn run_grid<F>(n: usize, parallel: bool, job: F) -> Vec<TuneRow>
where
    F: Fn(usize) -> TuneRow + Sync,
{
    if !parallel {
        return (0..n).map(job).collect();
    }
    let slots: Mutex<Vec<Option<TuneRow>>> = Mutex::new((0..n).map(|_| None).collect());
    rayon::scope(|s| {
        for i in 0..n {
            let slots = &slots;
            let job = &job;
            s.spawn(move |_| {
                let row = job(i);
                slots.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(row);
            });
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|r| r.expect("every grid slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_has_enough_variants() {
        let grid = default_grid(&ArbiterConfig::default());
        assert!(grid.len() >= 8, "{} variants", grid.len());
        assert_eq!(grid[0].name, "recorded");
    }

    #[test]
    fn parse_grid_cartesian() {
        let base = ArbiterConfig::default();
        let grid =
            parse_grid("preempt_bound_us=none,20000;enable_corun=on,off", &base).expect("parses");
        // baseline + 2*2 combinations (each axis re-expands around the
        // baseline, so: recorded, then 2 preempt variants each crossed
        // with 2 corun values plus the baseline crossed with them).
        assert!(grid.len() >= 5, "{} variants", grid.len());
        assert_eq!(grid[0].name, "recorded");
        assert!(parse_grid("bogus_key=1", &base).is_err());
        assert!(parse_grid("", &base).is_err());
    }
}
