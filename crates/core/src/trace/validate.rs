//! Structural validation of emitted traces against a schema.
//!
//! CI regenerates the golden trace on every run and validates it here
//! before uploading the artifact, so a malformed trace (a track without
//! a name, a slice that travels backwards in time, a migration arrow
//! with no arrival) fails the build instead of failing silently inside a
//! viewer. The validator parses the emitted JSON back through the
//! vendored [`serde::parse`] — it checks the *bytes*, not the in-memory
//! [`Trace`](super::Trace) that produced them.

use serde::{Deserialize, JsonValue};
use std::collections::{BTreeMap, BTreeSet};

/// Structural minimums (and escape hatches) a trace must satisfy. The
/// checked-in CI schema (`crates/core/tests/data/trace_schema.json`)
/// instantiates this for the golden fixtures; a default schema imposes
/// only the always-on invariants (monotonic timestamps, well-formed
/// events, no orphan flows, no overlapping slices).
#[derive(Debug, Clone, Default, PartialEq, Deserialize)]
pub struct TraceSchema {
    /// Minimum distinct processes (devices) with a `process_name`.
    #[serde(default)]
    pub(crate) min_processes: u64,
    /// Minimum named tracks (`thread_name` metadata events).
    #[serde(default)]
    pub(crate) min_tracks: u64,
    /// Minimum complete (`X`) slices.
    #[serde(default)]
    pub(crate) min_slices: u64,
    /// Minimum counter (`C`) samples.
    #[serde(default)]
    pub(crate) min_counter_samples: u64,
    /// Minimum instant (`i`) events.
    #[serde(default)]
    pub(crate) min_instants: u64,
    /// Minimum flow (`s`/`f`) pairs.
    #[serde(default)]
    pub(crate) min_flows: u64,
    /// Permit non-monotonic data-event timestamps (off by default).
    #[serde(default)]
    pub(crate) allow_unsorted_ts: bool,
    /// Permit unpaired flow endpoints (off by default).
    #[serde(default)]
    pub(crate) allow_orphan_flows: bool,
    /// Permit overlapping slices within one track (off by default).
    #[serde(default)]
    pub(crate) allow_overlapping_slices: bool,
}

impl TraceSchema {
    /// Parses a schema from its JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = serde::parse(text).map_err(|e| format!("schema: {e:?}"))?;
        Self::deserialize_json(&v).map_err(|e| format!("schema: {e:?}"))
    }
}

/// What [`validate`] counted while checking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Total events, metadata included.
    pub(crate) events: usize,
    /// Distinct processes carrying a `process_name`.
    pub processes: usize,
    /// Named tracks (`thread_name` events).
    pub(crate) tracks: usize,
    /// Complete (`X`) slices.
    pub slices: usize,
    /// Counter samples.
    pub counters: usize,
    /// Instant events.
    pub(crate) instants: usize,
    /// Matched flow pairs.
    pub(crate) flows: usize,
}

impl std::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} events: {} processes, {} tracks, {} slices, {} counters, {} instants, {} flows",
            self.events,
            self.processes,
            self.tracks,
            self.slices,
            self.counters,
            self.instants,
            self.flows
        )
    }
}

fn obj<'a>(v: &'a JsonValue, what: &str) -> Result<&'a [(String, JsonValue)], String> {
    match v {
        JsonValue::Obj(fields) => Ok(fields),
        _ => Err(format!("{what}: expected an object")),
    }
}

fn get<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn str_field<'a>(
    fields: &'a [(String, JsonValue)],
    key: &str,
    at: usize,
) -> Result<&'a str, String> {
    match get(fields, key) {
        Some(JsonValue::Str(s)) => Ok(s),
        Some(_) => Err(format!("event {at}: field `{key}` is not a string")),
        None => Err(format!("event {at}: missing field `{key}`")),
    }
}

fn u64_field(fields: &[(String, JsonValue)], key: &str, at: usize) -> Result<u64, String> {
    match get(fields, key) {
        Some(JsonValue::Num(n)) => n
            .parse::<u64>()
            .map_err(|_| format!("event {at}: field `{key}` = {n} is not a non-negative integer")),
        Some(_) => Err(format!("event {at}: field `{key}` is not a number")),
        None => Err(format!("event {at}: missing field `{key}`")),
    }
}

/// Validates trace JSON text against `schema`, returning what it
/// counted. Checks, in order: document shape (`traceEvents` array of
/// objects with `name`/`cat`/`ph`/`ts`/`pid`/`tid`), globally
/// non-decreasing data-event timestamps, per-track slice packing (each
/// `X` slice starts at or after the previous one on its track ended),
/// flow pairing (every flow id has exactly one `s` and one `f`, arrival
/// not before departure), named tracks for every slice-bearing track and
/// a `process_name` for every process, numeric counter samples, and
/// finally the schema minimums.
pub fn validate(text: &str, schema: &TraceSchema) -> Result<TraceStats, String> {
    let doc = serde::parse(text).map_err(|e| format!("trace is not valid JSON: {e:?}"))?;
    let top = obj(&doc, "trace document")?;
    let events = match get(top, "traceEvents") {
        Some(JsonValue::Arr(events)) => events,
        _ => return Err("trace document: missing `traceEvents` array".into()),
    };

    let mut stats = TraceStats {
        events: events.len(),
        ..TraceStats::default()
    };
    let mut named_processes: BTreeSet<u64> = BTreeSet::new();
    let mut named_tracks: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut slice_tracks: BTreeSet<(u64, u64)> = BTreeSet::new();
    // Per-track end of the last slice, for the packing check.
    let mut track_end: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    // Flow id → (starts seen, finishes seen, start ts, last finish ts).
    let mut flows: BTreeMap<String, (usize, usize, u64, u64)> = BTreeMap::new();
    let mut last_ts: Option<u64> = None;

    for (at, ev) in events.iter().enumerate() {
        let fields = obj(ev, &format!("event {at}"))?;
        let ph = str_field(fields, "ph", at)?;
        str_field(fields, "name", at)?;
        str_field(fields, "cat", at)?;
        let ts = u64_field(fields, "ts", at)?;
        let pid = u64_field(fields, "pid", at)?;
        let tid = u64_field(fields, "tid", at)?;

        if ph == "M" {
            let name = str_field(fields, "name", at)?;
            let args =
                get(fields, "args").ok_or_else(|| format!("event {at}: metadata without args"))?;
            let args = obj(args, &format!("event {at} args"))?;
            str_field(args, "name", at)
                .map_err(|_| format!("event {at}: metadata args without a string `name`"))?;
            match name {
                "process_name" => {
                    named_processes.insert(pid);
                }
                "thread_name" => {
                    named_tracks.insert((pid, tid));
                }
                other => return Err(format!("event {at}: unknown metadata kind `{other}`")),
            }
            continue;
        }

        // Data events: global timestamp monotonicity (emission order).
        if let Some(prev) = last_ts {
            if ts < prev && !schema.allow_unsorted_ts {
                return Err(format!(
                    "event {at}: timestamp {ts} goes backwards (previous data event at {prev})"
                ));
            }
        }
        last_ts = Some(last_ts.unwrap_or(0).max(ts));

        match ph {
            "X" => {
                stats.slices += 1;
                let dur = u64_field(fields, "dur", at)?;
                let key = (pid, tid);
                slice_tracks.insert(key);
                if let Some(end) = track_end.get(&key) {
                    if ts < *end && !schema.allow_overlapping_slices {
                        return Err(format!(
                            "event {at}: slice on track {pid}:{tid} starts at {ts}, \
                             before the previous slice on that track ended at {end}"
                        ));
                    }
                }
                let end = track_end.entry(key).or_insert(0);
                *end = (*end).max(ts + dur);
            }
            "i" => {
                stats.instants += 1;
            }
            "C" => {
                stats.counters += 1;
                let args = get(fields, "args")
                    .ok_or_else(|| format!("event {at}: counter without args"))?;
                let args = obj(args, &format!("event {at} args"))?;
                u64_field(args, "value", at)
                    .map_err(|_| format!("event {at}: counter without a numeric `value`"))?;
            }
            "s" | "f" => {
                let id = str_field(fields, "id", at)?.to_string();
                let e = flows.entry(id).or_insert((0, 0, 0, 0));
                if ph == "s" {
                    e.0 += 1;
                    e.2 = ts;
                } else {
                    e.1 += 1;
                    e.3 = ts;
                }
            }
            other => return Err(format!("event {at}: unsupported phase `{other}`")),
        }
    }

    if !schema.allow_orphan_flows {
        for (id, (starts, finishes, start_ts, finish_ts)) in &flows {
            if *starts != 1 || *finishes != 1 {
                return Err(format!(
                    "flow {id}: {starts} start(s) and {finishes} finish(es); want exactly one of each"
                ));
            }
            if finish_ts < start_ts {
                return Err(format!(
                    "flow {id}: arrives at {finish_ts}, before it departs at {start_ts}"
                ));
            }
        }
    }
    stats.flows = flows.len();
    stats.processes = named_processes.len();
    stats.tracks = named_tracks.len();

    for key in &slice_tracks {
        if !named_tracks.contains(key) {
            return Err(format!(
                "track {}:{} carries slices but has no thread_name",
                key.0, key.1
            ));
        }
        if !named_processes.contains(&key.0) {
            return Err(format!(
                "process {} carries slices but has no process_name",
                key.0
            ));
        }
    }

    let checks: [(&str, u64, u64); 6] = [
        ("processes", stats.processes as u64, schema.min_processes),
        ("tracks", stats.tracks as u64, schema.min_tracks),
        ("slices", stats.slices as u64, schema.min_slices),
        (
            "counter samples",
            stats.counters as u64,
            schema.min_counter_samples,
        ),
        ("instants", stats.instants as u64, schema.min_instants),
        ("flows", stats.flows as u64, schema.min_flows),
    ];
    for (what, got, want) in checks {
        if got < want {
            return Err(format!("schema: {got} {what}, schema requires ≥ {want}"));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_backwards_time_and_overlap() {
        let schema = TraceSchema::default();
        let bad_ts = r#"{"traceEvents":[
{"name":"a","cat":"c","ph":"i","ts":10,"pid":0,"tid":0,"s":"t"},
{"name":"b","cat":"c","ph":"i","ts":5,"pid":0,"tid":0,"s":"t"}
]}"#;
        assert!(validate(bad_ts, &schema).unwrap_err().contains("backwards"));
        let overlap = r#"{"traceEvents":[
{"name":"process_name","cat":"__metadata","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"d"}},
{"name":"thread_name","cat":"__metadata","ph":"M","ts":0,"pid":0,"tid":1,"args":{"name":"t"}},
{"name":"a","cat":"c","ph":"X","ts":0,"dur":10,"pid":0,"tid":1},
{"name":"b","cat":"c","ph":"X","ts":5,"dur":10,"pid":0,"tid":1}
]}"#;
        assert!(validate(overlap, &schema)
            .unwrap_err()
            .contains("before the previous"));
    }

    #[test]
    fn schema_minimums_bite() {
        let mut schema = TraceSchema {
            min_slices: 1,
            ..TraceSchema::default()
        };
        let empty = "{\"traceEvents\":[\n]}";
        assert!(validate(empty, &schema).unwrap_err().contains("schema"));
        schema.min_slices = 0;
        let stats = validate(empty, &schema).expect("empty trace is structurally fine");
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn schema_parses_with_defaults() {
        let s = TraceSchema::from_json("{\"min_slices\": 3}").expect("parses");
        assert_eq!(s.min_slices, 3);
        assert_eq!(s.min_processes, 0);
        assert!(!s.allow_unsorted_ts);
    }
}
