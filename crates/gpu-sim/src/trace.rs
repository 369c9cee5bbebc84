//! Execution traces and SM-occupancy timelines.
//!
//! A traced run (`Runtime::run_traced` in `slate-baselines`) records its
//! scheduling events — launches, drains, resizes, transfers — into a
//! [`Trace`]; an untraced run only counts them. Besides serving as a
//! debugging artefact, the trace renders an ASCII Gantt chart of SM
//! occupancy over time, which makes Slate's spatial sharing and dynamic
//! resizing directly visible:
//!
//! ```text
//! SM 29 |AAAAAAAAAAAABBBBBBBBBB........|
//!   ...
//! SM 15 |AAAAAAAAAAAABBBBBBBBBB........|
//! SM 14 |BBBBBBBBBBBBBBBBBBBBBB........|
//!   ...
//! SM  0 |BBBBBBBBBBBBBBBBBBBBBB........|
//! ```

use crate::device::SmRange;

/// A recorded scheduling event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A kernel slice began occupying an SM range.
    Launch {
        /// Attribution tag (process / kernel instance).
        tag: u64,
        /// Occupied range.
        range: SmRange,
        /// Blocks in the slice.
        blocks: u64,
    },
    /// A kernel slice left the device (drained or torn down for a resize).
    Stop {
        /// Attribution tag.
        tag: u64,
        /// Blocks completed by the slice.
        done: u64,
    },
    /// A resize decision: `tag` moves from `from` to `to`.
    Resize {
        /// Attribution tag.
        tag: u64,
        /// Previous range.
        from: SmRange,
        /// New range.
        to: SmRange,
    },
    /// A host-device transfer started (`h2d` true for host-to-device).
    TransferStart {
        /// Attribution tag.
        tag: u64,
        /// Direction.
        h2d: bool,
        /// Payload bytes.
        bytes: u64,
    },
    /// A transfer completed.
    TransferEnd {
        /// Attribution tag.
        tag: u64,
    },
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time in seconds.
    pub t: f64,
    /// What happened.
    pub kind: TraceKind,
}

/// An append-only scheduling trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event at time `t`.
    pub fn record(&mut self, t: f64, kind: TraceKind) {
        debug_assert!(
            self.events.last().is_none_or(|e| e.t <= t + 1e-12),
            "trace must be recorded in time order"
        );
        self.events.push(TraceEvent { t, kind });
    }

    /// All events, in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Occupancy intervals per tag: `(tag, range, start, end)` for every
    /// period a slice occupied SMs. Open intervals are closed at the last
    /// event time.
    pub fn occupancy_intervals(&self) -> Vec<(u64, SmRange, f64, f64)> {
        let mut open: Vec<(u64, SmRange, f64)> = Vec::new();
        let mut out = Vec::new();
        let end_time = self.events.last().map_or(0.0, |e| e.t);
        for ev in &self.events {
            match &ev.kind {
                TraceKind::Launch { tag, range, .. } => {
                    open.push((*tag, *range, ev.t));
                }
                TraceKind::Stop { tag, .. } => {
                    // Close the oldest open interval of this tag.
                    if let Some(pos) = open.iter().position(|(t, _, _)| t == tag) {
                        let (tag, range, start) = open.remove(pos);
                        out.push((tag, range, start, ev.t));
                    }
                }
                _ => {}
            }
        }
        for (tag, range, start) in open {
            out.push((tag, range, start, end_time));
        }
        out
    }

    /// Renders an ASCII Gantt chart: one row per SM (top = highest id),
    /// `width` time buckets across the full trace span. Each tag renders as
    /// a letter (`A`, `B`, ...); idle cells as `.`; cells where multiple
    /// tags *truly* overlap in time (never under correct scheduling) as
    /// `#`. Each bucket samples its midpoint against the exact interval
    /// times, so back-to-back hand-offs never alias into false overlap.
    pub fn gantt(&self, num_sms: u32, width: usize) -> String {
        assert!(width >= 1);
        let intervals = self.occupancy_intervals();
        let t0 = self.events.first().map_or(0.0, |e| e.t);
        let t1 = self.events.last().map_or(0.0, |e| e.t);
        let span = (t1 - t0).max(1e-12);
        let mut grid = vec![vec![b'.'; width]; num_sms as usize];
        for (c, row_time) in (0..width).map(|c| (c, t0 + (c as f64 + 0.5) / width as f64 * span)) {
            for (tag, range, start, end) in &intervals {
                // Half-open [start, end): a hand-off at time t belongs to
                // the successor.
                if row_time < *start || row_time >= *end {
                    continue;
                }
                let glyph = b'A' + (tag % 26) as u8;
                for sm in range.lo..=range.hi.min(num_sms - 1) {
                    let cell = &mut grid[sm as usize][c];
                    *cell = if *cell == b'.' || *cell == glyph {
                        glyph
                    } else {
                        b'#'
                    };
                }
            }
        }
        let mut s = String::new();
        s.push_str(&format!(
            "SM occupancy over {:.3}s ({} events)\n",
            span,
            self.events.len()
        ));
        for sm in (0..num_sms).rev() {
            s.push_str(&format!("SM {sm:>2} |"));
            s.push_str(std::str::from_utf8(&grid[sm as usize]).unwrap());
            s.push_str("|\n");
        }
        s
    }

    /// Total SM-seconds occupied per tag.
    pub fn sm_seconds(&self, tag: u64) -> f64 {
        self.occupancy_intervals()
            .iter()
            .filter(|(t, _, _, _)| *t == tag)
            .map(|(_, r, s, e)| r.len() as f64 * (e - s))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut tr = Trace::new();
        tr.record(
            0.0,
            TraceKind::Launch {
                tag: 0,
                range: SmRange::new(0, 29),
                blocks: 100,
            },
        );
        tr.record(1.0, TraceKind::Stop { tag: 0, done: 60 });
        tr.record(
            1.0,
            TraceKind::Resize {
                tag: 0,
                from: SmRange::new(0, 29),
                to: SmRange::new(0, 14),
            },
        );
        tr.record(
            1.0,
            TraceKind::Launch {
                tag: 0,
                range: SmRange::new(0, 14),
                blocks: 40,
            },
        );
        tr.record(
            1.0,
            TraceKind::Launch {
                tag: 1,
                range: SmRange::new(15, 29),
                blocks: 50,
            },
        );
        tr.record(2.0, TraceKind::Stop { tag: 0, done: 40 });
        tr.record(3.0, TraceKind::Stop { tag: 1, done: 50 });
        tr
    }

    #[test]
    fn intervals_reconstruct_occupancy() {
        let tr = sample();
        let iv = tr.occupancy_intervals();
        assert_eq!(iv.len(), 3);
        assert_eq!(iv[0], (0, SmRange::new(0, 29), 0.0, 1.0));
        assert_eq!(iv[1], (0, SmRange::new(0, 14), 1.0, 2.0));
        assert_eq!(iv[2], (1, SmRange::new(15, 29), 1.0, 3.0));
    }

    #[test]
    fn sm_seconds_accounting() {
        let tr = sample();
        // tag 0: 30 SMs x 1s + 15 SMs x 1s = 45.
        assert!((tr.sm_seconds(0) - 45.0).abs() < 1e-9);
        // tag 1: 15 SMs x 2s = 30.
        assert!((tr.sm_seconds(1) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn gantt_shows_partition_without_overlap() {
        let tr = sample();
        let g = tr.gantt(30, 30);
        assert!(!g.contains('#'), "no overlapping occupancy:\n{g}");
        // First third: A everywhere. Later: B on top rows only.
        let lines: Vec<&str> = g.lines().collect();
        let top = lines[1]; // SM 29
        let bottom = lines.last().unwrap(); // SM 0
        assert!(top.contains('A') && top.contains('B'), "{top}");
        assert!(bottom.contains('A') && !bottom.contains('B'), "{bottom}");
    }

    #[test]
    fn empty_trace_renders() {
        let tr = Trace::new();
        assert!(tr.is_empty());
        let g = tr.gantt(4, 10);
        assert!(g.contains("SM  0"));
    }
}
