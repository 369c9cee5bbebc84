//! The trace vocabulary: a deterministic, Perfetto-loadable event model.
//!
//! The model is the JSON half of the Chrome trace-event format, which
//! Perfetto's legacy importer (and `chrome://tracing`) load directly:
//! an object with a `traceEvents` array of per-event objects. Emission
//! is hand-written over the vendored serde helpers — like the replay
//! [`transcript`](crate::arbiter::replay::transcript), the bytes are a
//! pure function of the events, field order is fixed, and nothing
//! (timestamps of emission, map iteration order, float formatting
//! drift) can leak nondeterminism into the output. That is what lets
//! tests compare whole traces byte-for-byte and CI re-generate the same
//! artifact from the same fixture on every run.
//!
//! Phases used (a deliberate subset of the format):
//!
//! | ph  | meaning                | used for                              |
//! |-----|------------------------|---------------------------------------|
//! | `M` | metadata               | process (device) and track names      |
//! | `X` | complete slice         | queued and running lease episodes     |
//! | `i` | instant                | resizes, preempts, evicts, sheds      |
//! | `C` | counter sample         | SM occupancy, residents, ready queue  |
//! | `s` | flow start             | migration departure (source device)   |
//! | `f` | flow finish (`bp: e`)  | migration arrival (target device)     |

use crate::arbiter::Tick;
use serde::{ser_key, ser_str, Serialize};
use std::borrow::Cow;

/// A typed argument value; rendered into the event's `args` object.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A boolean flag.
    Bool(bool),
    /// A string; literals are borrowed, not copied.
    Str(Cow<'static, str>),
}

impl ArgValue {
    fn emit(&self, out: &mut String) {
        match self {
            ArgValue::U64(v) => v.serialize_json(out),
            ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            ArgValue::Str(s) => ser_str(out, s),
        }
    }
}

/// One trace event. Field meanings follow the Chrome trace-event format;
/// `ts` is in microseconds — the same unit as the arbiter's logical
/// [`Tick`], so no scaling happens between a log and its trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (slice label, counter name, metadata kind).
    pub name: String,
    /// Category; SLO class for lease slices, `migration` for flows.
    pub(crate) cat: &'static str,
    /// Phase character (see the module table).
    pub ph: char,
    /// Timestamp in microseconds of logical time.
    pub(crate) ts: Tick,
    /// Duration in microseconds; complete (`X`) slices only.
    pub(crate) dur: Option<u64>,
    /// Process id — the device index.
    pub pid: u32,
    /// Thread id — the track within the device (0 = arbiter track,
    /// 1.. = session tracks in ascending session-id order).
    pub(crate) tid: u32,
    /// Flow id; `s`/`f` events only.
    pub(crate) id: Option<u64>,
    /// `true` renders `"bp":"e"` (flow finish binds to the enclosing
    /// slice); `f` events only.
    pub(crate) bind_enclosing: bool,
    /// Chrome color name hint (Perfetto may ignore it; harmless).
    pub(crate) cname: Option<&'static str>,
    /// Ordered argument list, rendered as the `args` object verbatim —
    /// insertion order is emission order, so keep it deterministic.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    fn emit(&self, out: &mut String) {
        out.push('{');
        ser_key(out, "name");
        ser_str(out, &self.name);
        out.push(',');
        ser_key(out, "cat");
        ser_str(out, self.cat);
        out.push(',');
        ser_key(out, "ph");
        let mut phbuf = [0u8; 4];
        ser_str(out, self.ph.encode_utf8(&mut phbuf));
        out.push(',');
        ser_key(out, "ts");
        self.ts.serialize_json(out);
        if let Some(dur) = self.dur {
            out.push(',');
            ser_key(out, "dur");
            dur.serialize_json(out);
        }
        out.push(',');
        ser_key(out, "pid");
        self.pid.serialize_json(out);
        out.push(',');
        ser_key(out, "tid");
        self.tid.serialize_json(out);
        if let Some(id) = self.id {
            out.push(',');
            ser_key(out, "id");
            // Flow ids are rendered as strings: the format allows either,
            // and strings survive any JSON reader's number handling.
            out.push('"');
            id.serialize_json(out);
            out.push('"');
        }
        if self.bind_enclosing {
            out.push(',');
            ser_key(out, "bp");
            ser_str(out, "e");
        }
        if self.ph == 'i' {
            // Instant scope: thread-scoped, the narrow tick mark.
            out.push(',');
            ser_key(out, "s");
            ser_str(out, "t");
        }
        if let Some(cname) = self.cname {
            out.push(',');
            ser_key(out, "cname");
            ser_str(out, cname);
        }
        if !self.args.is_empty() {
            out.push(',');
            ser_key(out, "args");
            out.push('{');
            for (i, (k, v)) in self.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ser_key(out, k);
                v.emit(out);
            }
            out.push('}');
        }
        out.push('}');
    }
}

/// A complete trace: an ordered event list plus the emitter producing
/// the Perfetto-loadable JSON document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Events in emission order: metadata first, then data events sorted
    /// by timestamp (stable within a timestamp). The exporter guarantees
    /// this ordering; [`Trace::to_json`] emits it verbatim.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Renders the Perfetto-loadable JSON document. Byte-deterministic:
    /// same events in, same bytes out.
    pub fn to_json(&self) -> String {
        // ~160 bytes per event is a comfortable over-estimate.
        let mut out = String::with_capacity(64 + self.events.len() * 160);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            e.emit(&mut out);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_is_deterministic_and_escapes() {
        let t = Trace {
            events: vec![TraceEvent {
                name: "l\"1\" HM".into(),
                cat: "best-effort",
                ph: 'X',
                ts: 10,
                dur: Some(5),
                pid: 0,
                tid: 1,
                id: None,
                bind_enclosing: false,
                cname: None,
                args: vec![("lease", ArgValue::U64(1)), ("ok", ArgValue::Bool(true))],
            }],
        };
        let a = t.to_json();
        let b = t.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\\\"1\\\""));
        assert!(a.contains("\"args\":{\"lease\":1,\"ok\":true}"));
        // The emitted document parses back as JSON.
        serde::parse(&a).expect("trace json parses");
    }
}
