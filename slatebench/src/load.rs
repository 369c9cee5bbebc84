//! The load generator: **one thread**. It drives every connection of a
//! workload itself, in a fixed interleaving, so the overlap of sessions
//! inside the daemon is the same in every run and the generator adds no
//! scheduling of its own to the two virtual CPUs. Work is cut into
//! *slices* of a fixed number of ops; every few milliseconds inside a
//! slice the generator takes a tick of the [`Yardstick`], and the slice
//! carries the host factor its ticks read.

use crate::sys;
use crate::yardstick::{Tick, Yardstick, NOMINAL_TICK_S};
use std::time::{Duration, Instant};

/// What one slice did. Times are raw; [`Slice::host`] is what to divide
/// them by.
#[derive(Debug, Default)]
pub struct Slice {
    /// Slice name (`paced`, `saturated`, ...); slices of one name are
    /// counted together in the report.
    pub name: &'static str,
    /// Client-observed latency of each successful op, microseconds: from
    /// the instant it was due (paced) or started (closed loop).
    pub lat_us: Vec<f64>,
    /// Paced slices only: how late each op was sent, microseconds.
    pub late_us: Vec<f64>,
    /// Latencies of a second kind the workload records beside `lat_us`
    /// (`serve_mixed`: each decode inside a cycle), microseconds.
    pub aux_us: Vec<f64>,
    /// Units of work the successful ops completed (launches, blocks, ...).
    pub work: u64,
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed, were refused or shed, or mis-verified. They have no
    /// latency sample: a failed op misses every latency figure.
    pub failed: u64,
    /// First failure, for the log.
    pub first_error: Option<String>,
    /// Wall-clock seconds: the ops' own time in a closed loop (the ticks
    /// between them left out), first due to last done in a paced slice.
    pub wall_s: f64,
    /// Process CPU seconds over the slice, less its ticks'.
    pub cpu_s: f64,
    /// Host factor over the slice: the mean tick inside it over the nominal
    /// tick. 1 on a calm host.
    pub host: f64,
    /// The ticks behind `host`: how many, and their summed parts.
    pub yard: (u64, Tick),
}

impl Slice {
    /// An empty slice called `name`, on a calm host.
    pub fn named(name: &'static str) -> Self {
        Self {
            name,
            host: 1.0,
            ..Self::default()
        }
    }

    fn record(&mut self, latency_s: f64, outcome: Result<u64, String>) {
        self.attempted += 1;
        match outcome {
            Ok(work) => {
                self.lat_us.push(latency_s * 1e6);
                self.work += work;
            }
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }

    /// Latencies at nominal host speed, microseconds.
    pub fn lat_norm_us(&self) -> Vec<f64> {
        self.lat_us.iter().map(|l| l / self.host).collect()
    }
}

/// Workload time between two ticks of the yardstick inside a slice,
/// seconds: short against how fast the host's speed changes, long against
/// a tick (a third of a millisecond), so ticks cost about a tenth.
const TICK_EVERY_S: f64 = 0.003;
/// Ops between two ticks of a paced slice.
const PACED_TICK_EVERY: u32 = 16;
/// Idle time a paced slice needs before the next arrival to take a tick.
const PACED_TICK_ROOM_S: f64 = 0.0015;
/// Ticks taken either side of a timed set-up.
const SETUP_TICKS: usize = 8;

/// The generator's yardstick. Slices run through it, so that ticks are
/// interleaved with their ops.
pub struct Bench {
    /// `None`: no ticks are taken and every host factor reads 1 (the traced
    /// passes, whose figures are as the clocks read them).
    yard: Option<Yardstick>,
    /// Every slice's (and set-up's) host factor, in order.
    pub hosts: Vec<f64>,
}

/// Ticks taken within one slice.
#[derive(Default)]
struct Ticks {
    n: u64,
    sum: Tick,
}

impl Ticks {
    fn take(&mut self, yard: &mut Option<Yardstick>) {
        if let Some(yard) = yard {
            let t = yard.tick();
            self.n += 1;
            self.sum.map_s += t.map_s;
            self.sum.pages_s += t.pages_s;
        }
    }

    /// Mean tick over the nominal tick (1 when no tick was taken).
    fn host(&self) -> f64 {
        if self.n == 0 {
            return 1.0;
        }
        self.sum.total_s() / self.n as f64 / NOMINAL_TICK_S
    }
}

impl Bench {
    /// Builds the yardstick. Call after the process is confined to its CPU.
    pub fn new() -> Self {
        let mut yard = Yardstick::new();
        for _ in 0..SETUP_TICKS {
            yard.tick(); // warm: the first ticks pay for lazy initialisation
        }
        Self {
            yard: Some(yard),
            hosts: Vec::new(),
        }
    }

    /// A generator without a yardstick.
    pub fn off() -> Self {
        Self {
            yard: None,
            hosts: Vec::new(),
        }
    }

    fn finish(&mut self, mut s: Slice, ticks: Ticks, c0: f64) -> Slice {
        // The ticks ran on this thread inside the slice: their CPU time is
        // known exactly and is not the workload's.
        s.cpu_s = sys::cpu_seconds() - c0 - ticks.sum.total_s();
        s.host = ticks.host();
        s.yard = (ticks.n, ticks.sum);
        self.hosts.push(s.host);
        if let Some(e) = &s.first_error {
            eprintln!("  [{}] {} failed, first: {e}", s.name, s.failed);
        }
        s
    }

    /// Closed loop: `count` ops back to back, the next starting when the
    /// previous one returned (or when the ticks between them have). `op`
    /// returns the work units it completed. `wall_s` is the ops' time alone.
    pub fn closed(
        &mut self,
        name: &'static str,
        count: u64,
        mut op: impl FnMut(u64) -> Result<u64, String>,
    ) -> Slice {
        let mut s = Slice::named(name);
        let mut ticks = Ticks::default();
        let c0 = sys::cpu_seconds();
        ticks.take(&mut self.yard);
        let mut since_tick_s = 0.0;
        for i in 0..count {
            let start = Instant::now();
            let outcome = op(i);
            let took_s = start.elapsed().as_secs_f64();
            s.record(took_s, outcome);
            s.wall_s += took_s;
            since_tick_s += took_s;
            // One tick per TICK_EVERY_S of ops; a long op is followed by
            // as many as it spans, so the share of time ticked is the same.
            while since_tick_s >= TICK_EVERY_S {
                ticks.take(&mut self.yard);
                since_tick_s = (since_tick_s - TICK_EVERY_S).min(8.0 * TICK_EVERY_S);
            }
        }
        ticks.take(&mut self.yard);
        self.finish(s, ticks, c0)
    }

    /// Open loop: op `i` is sent when `schedule[i]` (seconds from the
    /// slice's start) is due and timed from that instant, so a stall is
    /// charged to every op queued behind it. After every
    /// [`PACED_TICK_EVERY`]th op the generator takes one tick, if the next
    /// arrival leaves room for it, then sleeps until that arrival: few
    /// enough that the ops a tick leaves with a colder cache are well below
    /// the tenth that would show in the p90.
    pub fn paced(
        &mut self,
        name: &'static str,
        schedule: &[f64],
        mut op: impl FnMut(u64) -> Result<u64, String>,
    ) -> Slice {
        let mut s = Slice::named(name);
        let mut ticks = Ticks::default();
        let c0 = sys::cpu_seconds();
        ticks.take(&mut self.yard);
        let t0 = Instant::now();
        let mut since_tick = 0;
        for (i, &due_s) in schedule.iter().enumerate() {
            let now_s = t0.elapsed().as_secs_f64();
            if due_s > now_s {
                std::thread::sleep(Duration::from_secs_f64(due_s - now_s));
            }
            s.late_us
                .push((t0.elapsed().as_secs_f64() - due_s).max(0.0) * 1e6);
            let outcome = op(i as u64);
            let now_s = t0.elapsed().as_secs_f64();
            s.record(now_s - due_s, outcome);
            // A tick must never delay an arrival: it is only taken in a
            // gap several ticks wide.
            since_tick += 1;
            let room = schedule
                .get(i + 1)
                .is_none_or(|next| next - now_s > PACED_TICK_ROOM_S);
            if since_tick >= PACED_TICK_EVERY && room {
                ticks.take(&mut self.yard);
                since_tick = 0;
            }
        }
        s.wall_s = t0.elapsed().as_secs_f64();
        self.finish(s, ticks, c0)
    }

    /// Runs `f` (a set-up) between two groups of ticks. Returns its result,
    /// the wall-clock seconds it took, and the host factor around it.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let mut ticks = Ticks::default();
        for _ in 0..SETUP_TICKS {
            ticks.take(&mut self.yard);
        }
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        for _ in 0..SETUP_TICKS {
            ticks.take(&mut self.yard);
        }
        let host = ticks.host();
        self.hosts.push(host);
        (out, wall_s, host)
    }
}

/// Runs `f` (one more slice, given its index) until `dur_s` seconds have
/// passed, at least once.
pub fn repeat_for(dur_s: f64, mut f: impl FnMut(u64) -> Slice) -> Vec<Slice> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(f(out.len() as u64));
        if t0.elapsed().as_secs_f64() >= dur_s {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_and_paced_count_time_and_tick() {
        let mut b = Bench::new();
        let s = b.closed("c", 5, |i| if i == 3 { Err("no".into()) } else { Ok(2) });
        assert_eq!((s.attempted, s.failed, s.work), (5, 1, 8));
        assert_eq!(s.lat_us.len(), 4);
        assert_eq!(s.first_error.as_deref(), Some("no"));
        assert!(s.host > 0.0 && s.yard.0 >= 2);

        let s = b.paced("p", &[0.0, 0.002, 0.004], |_| Ok(1));
        assert_eq!(s.attempted, 3);
        assert!(s.wall_s >= 0.004);
        assert!(s.lat_us.iter().all(|&l| l >= 0.0));
        assert_eq!((s.late_us.len(), s.yard.0), (3, 1));
        let schedule: Vec<f64> = (0..40).map(|i| f64::from(i) * 0.002).collect();
        let spaced = b.paced("p", &schedule, |_| Ok(1));
        assert_eq!(spaced.yard.0, 1 + 2, "one tick per 16 ops");
        let crowded: Vec<f64> = (0..40).map(|i| f64::from(i) * 0.0001).collect();
        let crowded = b.paced("p", &crowded, |_| Ok(1));
        assert_eq!(
            crowded.yard.0,
            1 + 1,
            "no room between arrivals: only after the last"
        );

        // A long op is followed by as many ticks as it spans.
        let s = b.closed("long", 1, |_| {
            std::thread::sleep(Duration::from_secs_f64(3.5 * TICK_EVERY_S));
            Ok(1)
        });
        assert_eq!(s.yard.0, 2 + 3);
        assert_eq!(b.hosts.len(), 5);
    }

    #[test]
    fn normalised_latencies_divide_by_the_host_factor() {
        let s = Slice {
            lat_us: vec![200.0, 400.0],
            host: 2.0,
            ..Slice::default()
        };
        assert_eq!(s.lat_norm_us(), vec![100.0, 200.0]);
    }
}
