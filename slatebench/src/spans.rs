//! Spans recorded in the benchmark's own code, around each call into the
//! client API: one root span per op and one child span per call, sharing
//! the op's identifier and carrying the session the call went to. Held in
//! memory and written as Chrome-trace JSON when the run ends. With tracing
//! off, `begin`/`end` are one branch each. Durations are as the clock read
//! them (not brought to nominal host speed).

use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of every op.
pub const ROOT: &str = "op";

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `ROOT`, or the layer boundary crossed (`api.launch`, ...).
    pub name: &'static str,
    /// The op this span belongs to; a child's parent is the root span
    /// with the same `op` on the same `tid`.
    pub op: u64,
    /// Daemon session the op ran on (0 when none).
    pub session: u64,
    /// Start, microseconds from the recorder's epoch.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
}

/// The generator thread's span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Option<Instant>,
    tid: usize,
    op: u64,
    session: u64,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that records nothing (the untraced pass).
    pub fn off() -> Self {
        Self {
            epoch: None,
            tid: 0,
            op: 0,
            session: 0,
            spans: Vec::new(),
        }
    }

    /// A recording recorder; `tid` is the track the spans are drawn on.
    pub fn on(epoch: Instant, tid: usize) -> Self {
        Self {
            epoch: Some(epoch),
            tid,
            op: 0,
            session: 0,
            spans: Vec::new(),
        }
    }

    /// Names the session that following spans go to (0: none yet).
    pub fn set_session(&mut self, session: u64) {
        self.session = session;
    }

    /// Starts the next op: following spans belong to it. Pass the result
    /// to [`Spans::end_op`].
    pub fn begin_op(&mut self) -> Option<Instant> {
        self.op += 1;
        self.session = 0;
        self.begin()
    }

    /// Closes the root span of the op started by `begin_op`.
    pub fn end_op(&mut self, begun: Option<Instant>) {
        self.end(begun, ROOT);
    }

    /// Opens a span; pass the result to [`Spans::end`].
    pub fn begin(&self) -> Option<Instant> {
        self.epoch.map(|_| Instant::now())
    }

    /// Closes the span opened by `begin` under `name`.
    pub fn end(&mut self, begun: Option<Instant>, name: &'static str) {
        if let (Some(epoch), Some(t0)) = (self.epoch, begun) {
            self.spans.push(Span {
                name,
                op: self.op,
                session: self.session,
                start_us: t0.duration_since(epoch).as_secs_f64() * 1e6,
                dur_us: t0.elapsed().as_secs_f64() * 1e6,
            });
        }
    }
}

/// Durations (µs) of every span called `name` across `logs`.
pub fn durations(logs: &[Spans], name: &str) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| l.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.dur_us)
        .collect()
}

/// Per op: the summed duration (µs) of its child spans whose name is in
/// `names`. Ops without a closed root span are skipped.
pub fn per_op_sums(logs: &[Spans], names: &[&str]) -> Vec<f64> {
    let mut out = Vec::new();
    for log in logs {
        let mut sum = 0.0;
        for s in &log.spans {
            if s.name == ROOT {
                out.push(sum);
                sum = 0.0;
            } else if names.contains(&s.name) {
                sum += s.dur_us;
            }
        }
    }
    out
}

/// Self time (µs) of each root span: its duration minus what its child
/// spans cover.
pub fn root_self_times(logs: &[Spans]) -> Vec<f64> {
    let mut out = Vec::new();
    for log in logs {
        // Children are recorded before their root closes, so one forward
        // pass with a running sum per op suffices.
        let mut child_sum = 0.0;
        let mut child_op = None;
        for s in &log.spans {
            if s.name == ROOT {
                let covered = if child_op == Some(s.op) {
                    child_sum
                } else {
                    0.0
                };
                out.push((s.dur_us - covered).max(0.0));
                child_sum = 0.0;
                child_op = None;
            } else {
                if child_op != Some(s.op) {
                    child_sum = 0.0;
                    child_op = Some(s.op);
                }
                child_sum += s.dur_us;
            }
        }
    }
    out
}

/// Chrome-trace (`chrome://tracing`, Perfetto) JSON of every span.
pub fn chrome_trace_json(workload: &str, logs: &[Spans]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"slate-bench {workload}\"}}}}"
    );
    for log in logs {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"client-{}\"}}}}",
            log.tid, log.tid
        );
        for s in &log.spans {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"session\":{}}}}}",
                s.name,
                if s.name == ROOT { "op" } else { "call" },
                log.tid,
                s.start_us,
                s.dur_us,
                s.op,
                s.session
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut sp = Spans::off();
        let t = sp.begin();
        sp.end(t, "api.launch");
        assert!(sp.spans.is_empty());
    }

    #[test]
    fn self_time_subtracts_children_and_trace_parses() {
        let mut sp = Spans::on(Instant::now(), 3);
        sp.op = 7;
        sp.set_session(42);
        sp.spans.push(Span {
            name: "api.launch",
            op: 7,
            session: 42,
            start_us: 1.0,
            dur_us: 30.0,
        });
        sp.spans.push(Span {
            name: "api.synchronize",
            op: 7,
            session: 42,
            start_us: 31.0,
            dur_us: 50.0,
        });
        sp.spans.push(Span {
            name: ROOT,
            op: 7,
            session: 42,
            start_us: 0.0,
            dur_us: 100.0,
        });
        let logs = [sp];
        assert_eq!(root_self_times(&logs), vec![20.0]);
        assert_eq!(durations(&logs, "api.launch"), vec![30.0]);
        let json = chrome_trace_json("unit", &logs);
        match serde::parse(&json).expect("valid JSON") {
            serde::JsonValue::Obj(fields) => {
                assert!(fields.iter().any(|(k, _)| k == "traceEvents"));
            }
            other => panic!("not an object: {other:?}"),
        }
    }
}
