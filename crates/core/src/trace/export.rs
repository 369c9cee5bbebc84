//! The converter from recorded logs to Perfetto traces.
//!
//! The converter does not trust the commands stored in the log: the
//! log's events are fed through a fresh core/layer, the replayed commands
//! are checked against the recorded ones (a divergence is an error — the
//! log is stale or tampered), and only verified batches are rendered.
//! That makes the trace a faithful rendering of what the
//! scheduler *would decide today* for the recorded inputs, which is the
//! same property the golden replay tests pin.
//!
//! Track taxonomy (DESIGN.md §19): one trace *process* per device, and
//! within it track 0 (`arbiter`) carrying device-scoped instants
//! (sheds, drain, device down/up) plus the `sm_occupancy` / `residents`
//! counters, and one track per session carrying its lease lifetime
//! slices — a `queued l<N>` slice from `KernelReady` to `Dispatch` and
//! a running slice from `Dispatch` to `KernelFinished`, with resize /
//! preempt / promote / evict instants overlaid and the SLO class as the
//! slice category. Cross-device migrations appear as flow arrows from
//! the eviction on the source device to the re-dispatch on the target.
//!
//! Counters are sampled at the end of a batch that touched them, and
//! only when the value differs from the last sample on its
//! `(device, counter)` track: a finish followed by a dispatch of the
//! same width touches occupancy without changing it, and Perfetto holds
//! a counter at its last value anyway. On the serving trace that
//! `sim_paper` exports, 98 % of the touched samples were such repeats.

use super::model::{ArgValue, Trace, TraceEvent};
use crate::arbiter::replay::{ReplayBatch, Replayable, StreamVerifier};
use crate::arbiter::{Command, Event, Tick};
use crate::classify::WorkloadClass;
use slate_gpu_sim::device::DeviceConfig;
use slate_kernels::workload::SloClass;
use std::collections::BTreeMap;

/// Builds the trace of a recording, single-device or placed: each batch
/// is first pushed through the log's [`StreamVerifier`] — a log the
/// current scheduler does not reproduce is refused — and then rendered;
/// on a multi-device log migrations become flow arrows between device
/// processes.
pub fn trace_log<L: Replayable>(log: &L) -> Result<Trace, String> {
    let mut verifier = StreamVerifier::for_log(log);
    let mut b = Builder::new(log.devices());
    for batch in log.batches() {
        verifier
            .push(batch)
            .map_err(|e| format!("refusing to trace a log that does not replay: {e}"))?;
        let at = batch.at();
        b.begin_batch(at);
        for e in batch.events() {
            b.event(at, e);
        }
        for r in batch.replies() {
            let (device, command) = L::Batch::routed(r);
            b.command(at, device, command);
        }
        b.end_batch(at);
    }
    Ok(b.finish())
}

/// The name `slatebench` imports [`trace_log`] under.
pub use trace_log as trace_event_log;

/// SM count of an inclusive range.
fn width(lo: u32, hi: u32) -> u32 {
    hi - lo + 1
}

fn slo_cat(slo: SloClass) -> &'static str {
    match slo {
        SloClass::LatencyCritical => "latency-critical",
        SloClass::BestEffort => "best-effort",
    }
}

fn slo_cname(slo: SloClass) -> &'static str {
    match slo {
        SloClass::LatencyCritical => "thread_state_running",
        SloClass::BestEffort => "thread_state_runnable",
    }
}

/// The class as its `Debug` spelling, which the running slice's name and
/// `class` arg have always carried.
fn class_name(class: WorkloadClass) -> &'static str {
    match class {
        WorkloadClass::LC => "LC",
        WorkloadClass::MC => "MC",
        WorkloadClass::HC => "HC",
        WorkloadClass::MM => "MM",
        WorkloadClass::HM => "HM",
    }
}

/// A device's counter tracks, by their slot in `Builder::written`.
const SM_OCCUPANCY: usize = 0;
const RESIDENTS: usize = 1;
/// Fleet-wide: only device 0 carries it.
const READY_WAITING: usize = 2;
const COUNTER_NAMES: [&str; 3] = ["sm_occupancy", "residents", "ready_waiting"];

/// A `KernelReady` waiting for its `Dispatch`.
#[derive(Debug, Clone)]
struct Ready {
    session: u64,
    class: WorkloadClass,
    ts: Tick,
    promoted: bool,
}

/// A dispatched lease episode, closed by its `KernelFinished`.
#[derive(Debug, Clone)]
struct Episode {
    device: usize,
    session: u64,
    class: WorkloadClass,
    slo: SloClass,
    ready_ts: Tick,
    start_ts: Tick,
    lo: u32,
    hi: u32,
    resizes: u32,
    preempted: bool,
    promoted: bool,
    evicted: bool,
}

/// Where a lease last ran, for migration-arrow detection.
#[derive(Debug, Clone, Copy)]
struct LastRun {
    device: usize,
    end_ts: Tick,
    evicted: bool,
}

/// Intermediate event, pre-track-assignment. `session: None` targets
/// the device's arbiter track (tid 0).
#[derive(Debug, Clone)]
enum Item {
    Slice {
        device: usize,
        session: u64,
        name: String,
        cat: &'static str,
        cname: &'static str,
        ts: Tick,
        dur: u64,
        args: Vec<(&'static str, ArgValue)>,
    },
    Instant {
        device: usize,
        session: Option<u64>,
        name: String,
        cname: Option<&'static str>,
        ts: Tick,
        args: Vec<(&'static str, ArgValue)>,
    },
    Counter {
        device: usize,
        name: &'static str,
        ts: Tick,
        value: u64,
    },
    Flow {
        device: usize,
        session: u64,
        start: bool,
        id: u64,
        ts: Tick,
        name: String,
    },
}

struct Builder {
    devices: Vec<DeviceConfig>,
    items: Vec<Item>,
    slo: BTreeMap<u64, SloClass>,
    ready: BTreeMap<u64, Ready>,
    running: BTreeMap<u64, Episode>,
    last_run: BTreeMap<u64, LastRun>,
    /// Sticky session → device, for placing pre-dispatch items.
    session_device: BTreeMap<u64, usize>,
    occ: Vec<u64>,
    residents: Vec<u64>,
    /// Per device: a batch touched `occ` or `residents`.
    dirty: Vec<bool>,
    waiting_dirty: bool,
    /// Per device: the last sample written on each counter track, `None`
    /// until its first.
    written: Vec<[Option<u64>; 3]>,
    next_flow: u64,
    end_ts: Tick,
}

impl Builder {
    fn new(devices: &[DeviceConfig]) -> Self {
        let n = devices.len().max(1);
        Self {
            devices: devices.to_vec(),
            items: Vec::new(),
            slo: BTreeMap::new(),
            ready: BTreeMap::new(),
            running: BTreeMap::new(),
            last_run: BTreeMap::new(),
            session_device: BTreeMap::new(),
            occ: vec![0; n],
            residents: vec![0; n],
            dirty: vec![false; n],
            waiting_dirty: false,
            written: vec![[None; 3]; n],
            next_flow: 0,
            end_ts: 0,
        }
    }

    fn begin_batch(&mut self, ts: Tick) {
        self.end_ts = self.end_ts.max(ts);
    }

    fn device_of_session(&self, session: u64) -> usize {
        self.session_device.get(&session).copied().unwrap_or(0)
    }

    fn session_slo(&self, session: u64) -> SloClass {
        self.slo
            .get(&session)
            .copied()
            .unwrap_or(SloClass::BestEffort)
    }

    fn event(&mut self, ts: Tick, e: &Event) {
        match e {
            Event::SloArrival { session, class } => {
                self.slo.insert(*session, *class);
            }
            Event::KernelReady {
                session,
                lease,
                class,
                ..
            } => {
                self.ready.insert(
                    *lease,
                    Ready {
                        session: *session,
                        class: *class,
                        ts,
                        promoted: false,
                    },
                );
                self.waiting_dirty = true;
            }
            Event::KernelFinished { lease, ok } => {
                if let Some(ep) = self.running.remove(lease) {
                    self.close_episode(*lease, ep, ts, *ok, false);
                } else if let Some(r) = self.ready.remove(lease) {
                    // Never dispatched (shed mid-queue, drained, or a
                    // counterfactual replay that chose differently).
                    let device = self.device_of_session(r.session);
                    let slo = self.session_slo(r.session);
                    self.items.push(Item::Slice {
                        device,
                        session: r.session,
                        name: format!("queued l{lease}"),
                        cat: slo_cat(slo),
                        cname: "bad",
                        ts: r.ts,
                        dur: ts.saturating_sub(r.ts),
                        args: vec![
                            ("lease", ArgValue::U64(*lease)),
                            ("undispatched", ArgValue::Bool(true)),
                        ],
                    });
                    self.waiting_dirty = true;
                }
            }
            Event::SessionSevered { session } => {
                let device = self.device_of_session(*session);
                self.items.push(Item::Instant {
                    device,
                    session: Some(*session),
                    name: format!("severed s{session}"),
                    cname: Some("bad"),
                    ts,
                    args: Vec::new(),
                });
            }
            Event::DeviceDown { device, hard } => {
                let d = (*device as usize).min(self.devices.len().saturating_sub(1));
                self.items.push(Item::Instant {
                    device: d,
                    session: None,
                    name: if *hard {
                        "device-down (hard)".to_string()
                    } else {
                        "device-down (soft)".to_string()
                    },
                    cname: Some("terrible"),
                    ts,
                    args: Vec::new(),
                });
            }
            Event::DeviceUp { device } => {
                let d = (*device as usize).min(self.devices.len().saturating_sub(1));
                self.items.push(Item::Instant {
                    device: d,
                    session: None,
                    name: "device-up".to_string(),
                    cname: Some("good"),
                    ts,
                    args: Vec::new(),
                });
            }
            Event::DrainBegan => {
                for d in 0..self.devices.len() {
                    self.items.push(Item::Instant {
                        device: d,
                        session: None,
                        name: "drain-began".to_string(),
                        cname: None,
                        ts,
                        args: Vec::new(),
                    });
                }
            }
            // Session open/close and launch/malloc admission paperwork
            // carry no track of their own; sheds appear via the
            // RejectOverloaded command.
            Event::SessionOpened { .. }
            | Event::SessionClosed { .. }
            | Event::LaunchRequested { .. }
            | Event::MallocRequested { .. }
            | Event::DeadlineTick => {}
        }
    }

    fn command(&mut self, ts: Tick, device: usize, c: &Command) {
        let device = device.min(self.devices.len().saturating_sub(1));
        match c {
            Command::Dispatch { lease, range } => {
                let r = self.ready.remove(lease);
                let (session, class, ready_ts, promoted) = match r {
                    Some(r) => (r.session, r.class, r.ts, r.promoted),
                    // A dispatch without a tracked ready (shouldn't
                    // happen on recorded logs) still renders sanely.
                    None => (0, WorkloadClass::LC, ts, false),
                };
                let slo = self.session_slo(session);
                self.session_device.insert(session, device);
                // Migration arrow: same lease, different device, and the
                // previous episode ended in an eviction.
                if let Some(prev) = self.last_run.get(lease).copied() {
                    if prev.device != device && prev.evicted {
                        let id = self.next_flow;
                        self.next_flow += 1;
                        self.items.push(Item::Flow {
                            device: prev.device,
                            session,
                            start: true,
                            id,
                            ts: prev.end_ts,
                            name: format!("migration l{lease}"),
                        });
                        self.items.push(Item::Flow {
                            device,
                            session,
                            start: false,
                            id,
                            ts,
                            name: format!("migration l{lease}"),
                        });
                    }
                }
                self.running.insert(
                    *lease,
                    Episode {
                        device,
                        session,
                        class,
                        slo,
                        ready_ts,
                        start_ts: ts,
                        lo: range.lo,
                        hi: range.hi,
                        resizes: 0,
                        preempted: false,
                        promoted,
                        evicted: false,
                    },
                );
                self.occ[device] += u64::from(width(range.lo, range.hi));
                self.residents[device] += 1;
                self.dirty[device] = true;
                self.waiting_dirty = true;
            }
            Command::Resize { lease, range } => {
                if let Some(ep) = self.running.get_mut(lease) {
                    let old = u64::from(width(ep.lo, ep.hi));
                    let new = u64::from(width(range.lo, range.hi));
                    let d = ep.device;
                    self.occ[d] = self.occ[d] - old + new;
                    ep.lo = range.lo;
                    ep.hi = range.hi;
                    ep.resizes += 1;
                    let (session, shrink) = (ep.session, new < old);
                    self.dirty[d] = true;
                    self.items.push(Item::Instant {
                        device: d,
                        session: Some(session),
                        name: format!("resize l{lease} sm[{}..{}]", range.lo, range.hi),
                        cname: Some(if shrink { "bad" } else { "good" }),
                        ts,
                        args: vec![
                            ("sm_lo", ArgValue::U64(u64::from(range.lo))),
                            ("sm_hi", ArgValue::U64(u64::from(range.hi))),
                        ],
                    });
                }
            }
            Command::Preempt { lease } => {
                if let Some(ep) = self.running.get_mut(lease) {
                    ep.preempted = true;
                    let (d, session) = (ep.device, ep.session);
                    self.items.push(Item::Instant {
                        device: d,
                        session: Some(session),
                        name: format!("preempt l{lease}"),
                        cname: Some("terrible"),
                        ts,
                        args: Vec::new(),
                    });
                }
            }
            Command::PromoteStarved { lease } => {
                if let Some(r) = self.ready.get_mut(lease) {
                    r.promoted = true;
                    let session = r.session;
                    let device = self.device_of_session(session);
                    self.items.push(Item::Instant {
                        device,
                        session: Some(session),
                        name: format!("promote-starved l{lease}"),
                        cname: Some("good"),
                        ts,
                        args: Vec::new(),
                    });
                }
            }
            Command::Evict { lease } => {
                if let Some(ep) = self.running.get_mut(lease) {
                    ep.evicted = true;
                    let (d, session) = (ep.device, ep.session);
                    self.items.push(Item::Instant {
                        device: d,
                        session: Some(session),
                        name: format!("evict l{lease}"),
                        cname: Some("bad"),
                        ts,
                        args: Vec::new(),
                    });
                }
            }
            Command::RejectOverloaded {
                session,
                lease,
                scope,
                retry_after_ms,
            } => {
                self.items.push(Item::Instant {
                    device,
                    session: None,
                    name: match lease {
                        Some(l) => format!("shed {scope:?} s{session} l{l}"),
                        None => format!("shed {scope:?} s{session}"),
                    },
                    cname: Some("terrible"),
                    ts,
                    args: vec![("retry_after_ms", ArgValue::U64(*retry_after_ms))],
                });
            }
            Command::Reap { session } => {
                let device = self.device_of_session(*session);
                self.items.push(Item::Instant {
                    device,
                    session: None,
                    name: format!("reap s{session}"),
                    cname: None,
                    ts,
                    args: Vec::new(),
                });
            }
        }
    }

    /// Emits the queued + running slices of a finished (or truncated)
    /// episode and updates the device counters.
    fn close_episode(&mut self, lease: u64, ep: Episode, ts: Tick, ok: bool, truncated: bool) {
        if ep.start_ts > ep.ready_ts {
            self.items.push(Item::Slice {
                device: ep.device,
                session: ep.session,
                name: format!("queued l{lease}"),
                cat: slo_cat(ep.slo),
                cname: "white",
                ts: ep.ready_ts,
                dur: ep.start_ts - ep.ready_ts,
                args: vec![("lease", ArgValue::U64(lease))],
            });
        }
        let mut args = vec![
            ("lease", ArgValue::U64(lease)),
            ("class", ArgValue::Str(class_name(ep.class).into())),
            ("sm_lo", ArgValue::U64(u64::from(ep.lo))),
            ("sm_hi", ArgValue::U64(u64::from(ep.hi))),
            ("resizes", ArgValue::U64(u64::from(ep.resizes))),
            ("ok", ArgValue::Bool(ok)),
        ];
        if ep.preempted {
            args.push(("preempted", ArgValue::Bool(true)));
        }
        if ep.promoted {
            args.push(("promoted", ArgValue::Bool(true)));
        }
        if ep.evicted {
            args.push(("evicted", ArgValue::Bool(true)));
        }
        if truncated {
            args.push(("truncated", ArgValue::Bool(true)));
        }
        self.items.push(Item::Slice {
            device: ep.device,
            session: ep.session,
            name: format!("l{lease} {} sm[{}..{}]", class_name(ep.class), ep.lo, ep.hi),
            cat: slo_cat(ep.slo),
            cname: if ep.evicted { "bad" } else { slo_cname(ep.slo) },
            ts: ep.start_ts,
            dur: ts.saturating_sub(ep.start_ts),
            args,
        });
        self.occ[ep.device] = self.occ[ep.device].saturating_sub(u64::from(width(ep.lo, ep.hi)));
        self.residents[ep.device] = self.residents[ep.device].saturating_sub(1);
        self.dirty[ep.device] = true;
        self.last_run.insert(
            lease,
            LastRun {
                device: ep.device,
                end_ts: ts,
                evicted: ep.evicted,
            },
        );
    }

    /// Pushes a sample on counter track `counter` of `device` unless it
    /// repeats the last one written there.
    fn sample(&mut self, device: usize, counter: usize, ts: Tick, value: u64) {
        if self.written[device][counter].replace(value) != Some(value) {
            self.items.push(Item::Counter {
                device,
                name: COUNTER_NAMES[counter],
                ts,
                value,
            });
        }
    }

    /// Samples the counters the batch touched.
    fn end_batch(&mut self, ts: Tick) {
        for d in 0..self.devices.len() {
            if std::mem::take(&mut self.dirty[d]) {
                self.sample(d, SM_OCCUPANCY, ts, self.occ[d]);
                self.sample(d, RESIDENTS, ts, self.residents[d]);
            }
        }
        if std::mem::take(&mut self.waiting_dirty) {
            self.sample(0, READY_WAITING, ts, self.ready.len() as u64);
        }
    }

    fn finish(mut self) -> Trace {
        // Truncate whatever is still open at the end of the recording.
        let end = self.end_ts;
        let running: Vec<(u64, Episode)> = std::mem::take(&mut self.running).into_iter().collect();
        for (lease, ep) in running {
            self.close_episode(lease, ep, end, false, true);
        }
        let pending: Vec<(u64, Ready)> = std::mem::take(&mut self.ready).into_iter().collect();
        for (lease, r) in pending {
            let device = self.device_of_session(r.session);
            let slo = self.session_slo(r.session);
            self.items.push(Item::Slice {
                device,
                session: r.session,
                name: format!("queued l{lease}"),
                cat: slo_cat(slo),
                cname: "white",
                ts: r.ts,
                dur: end.saturating_sub(r.ts),
                args: vec![
                    ("lease", ArgValue::U64(lease)),
                    ("truncated", ArgValue::Bool(true)),
                ],
            });
        }

        // Sort data items by timestamp up front (stable, so same-tick
        // items keep build order) — both the emission order and the
        // greedy lane assignment below depend on it.
        let mut items = std::mem::take(&mut self.items);
        items.sort_by_key(|i| match i {
            Item::Slice { ts, .. }
            | Item::Instant { ts, .. }
            | Item::Counter { ts, .. }
            | Item::Flow { ts, .. } => *ts,
        });

        // Track assignment: tid 0 is the device's arbiter track; each
        // session gets one or more lanes after it, in ascending
        // session-id order.
        // A session with concurrent leases would overlap its slices on a
        // single track, so slices are first-fit packed into lanes: a
        // slice takes the first lane whose previous slice has ended.
        // Sessions with one launch in flight at a time (the runtime
        // invariant) always get exactly one lane.
        let mut lanes: BTreeMap<(usize, u64), Vec<Tick>> = BTreeMap::new();
        let mut lane_of: Vec<u32> = vec![0; items.len()];
        for (i, item) in items.iter().enumerate() {
            match item {
                Item::Slice {
                    device,
                    session,
                    ts,
                    dur,
                    ..
                } => {
                    let ends = lanes.entry((*device, *session)).or_default();
                    let end = ts + dur;
                    let mut lane = None;
                    for (k, e) in ends.iter_mut().enumerate() {
                        if *e <= *ts {
                            *e = end;
                            lane = Some(k);
                            break;
                        }
                    }
                    let k = lane.unwrap_or_else(|| {
                        ends.push(end);
                        ends.len() - 1
                    });
                    lane_of[i] = k as u32;
                }
                Item::Instant {
                    device,
                    session: Some(s),
                    ..
                }
                | Item::Flow {
                    device, session: s, ..
                } => {
                    // Instants and flow endpoints live on the session's
                    // first lane; make sure the session has a track even
                    // if it never produced a slice.
                    lanes.entry((*device, *s)).or_default();
                }
                _ => {}
            }
        }
        // First tid of each session's lane block, per device.
        let mut base: BTreeMap<(usize, u64), u32> = BTreeMap::new();
        let mut next: Vec<u32> = vec![1; self.devices.len()];
        for ((d, s), ends) in &lanes {
            base.insert((*d, *s), next[*d]);
            next[*d] += ends.len().max(1) as u32;
        }
        let tid_of = |device: usize, session: Option<u64>| -> u32 {
            match session {
                Some(s) => base.get(&(device, s)).copied().unwrap_or(0),
                None => 0,
            }
        };

        let mut events = Vec::with_capacity(items.len() + 8);
        // Metadata: device processes and track names.
        for (d, cfg) in self.devices.iter().enumerate() {
            events.push(TraceEvent {
                name: "process_name".into(),
                cat: "__metadata",
                ph: 'M',
                ts: 0,
                dur: None,
                pid: d as u32,
                tid: 0,
                id: None,
                bind_enclosing: false,
                cname: None,
                args: vec![(
                    "name",
                    ArgValue::Str(format!("device {d} \u{b7} {}", cfg.name).into()),
                )],
            });
            events.push(TraceEvent {
                name: "thread_name".into(),
                cat: "__metadata",
                ph: 'M',
                ts: 0,
                dur: None,
                pid: d as u32,
                tid: 0,
                id: None,
                bind_enclosing: false,
                cname: None,
                args: vec![("name", ArgValue::Str("arbiter".into()))],
            });
            for ((dev, session), ends) in &lanes {
                if *dev != d {
                    continue;
                }
                let slo = self.session_slo(*session);
                let block = base[&(*dev, *session)];
                for lane in 0..ends.len().max(1) as u32 {
                    let name = if lane == 0 {
                        format!("session {session} [{}]", slo_cat(slo))
                    } else {
                        format!("session {session} [{}] lane {lane}", slo_cat(slo))
                    };
                    events.push(TraceEvent {
                        name: "thread_name".into(),
                        cat: "__metadata",
                        ph: 'M',
                        ts: 0,
                        dur: None,
                        pid: d as u32,
                        tid: block + lane,
                        id: None,
                        bind_enclosing: false,
                        cname: None,
                        args: vec![("name", ArgValue::Str(name.into()))],
                    });
                }
            }
        }

        for (i, item) in items.into_iter().enumerate() {
            events.push(match item {
                Item::Slice {
                    device,
                    session,
                    name,
                    cat,
                    cname,
                    ts,
                    dur,
                    args,
                } => TraceEvent {
                    name,
                    cat,
                    ph: 'X',
                    ts,
                    dur: Some(dur),
                    pid: device as u32,
                    tid: tid_of(device, Some(session)) + lane_of[i],
                    id: None,
                    bind_enclosing: false,
                    cname: Some(cname),
                    args,
                },
                Item::Instant {
                    device,
                    session,
                    name,
                    cname,
                    ts,
                    args,
                } => TraceEvent {
                    name,
                    cat: "arbiter",
                    ph: 'i',
                    ts,
                    dur: None,
                    pid: device as u32,
                    tid: tid_of(device, session),
                    id: None,
                    bind_enclosing: false,
                    cname,
                    args,
                },
                Item::Counter {
                    device,
                    name,
                    ts,
                    value,
                } => TraceEvent {
                    name: name.into(),
                    cat: "counter",
                    ph: 'C',
                    ts,
                    dur: None,
                    pid: device as u32,
                    tid: 0,
                    id: None,
                    bind_enclosing: false,
                    cname: None,
                    args: vec![("value", ArgValue::U64(value))],
                },
                Item::Flow {
                    device,
                    session,
                    start,
                    id,
                    ts,
                    name,
                } => TraceEvent {
                    name,
                    cat: "migration",
                    ph: if start { 's' } else { 'f' },
                    ts,
                    dur: None,
                    pid: device as u32,
                    tid: tid_of(device, Some(session)),
                    id: Some(id),
                    bind_enclosing: !start,
                    cname: None,
                    args: Vec::new(),
                },
            });
        }
        Trace { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slate_gpu_sim::device::SmRange;

    fn ready(lease: u64) -> Event {
        Event::KernelReady {
            session: 1,
            lease,
            class: WorkloadClass::HM,
            sm_demand: 10,
            pinned_solo: false,
            deadline_ms: None,
        }
    }

    fn dispatch(lease: u64, lo: u32, hi: u32) -> Command {
        Command::Dispatch {
            lease,
            range: SmRange::new(lo, hi),
        }
    }

    /// `(name, ts, value)` of every counter sample built so far.
    fn samples(b: &Builder) -> Vec<(&'static str, Tick, u64)> {
        b.items
            .iter()
            .filter_map(|i| match i {
                Item::Counter {
                    name, ts, value, ..
                } => Some((*name, *ts, *value)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_touched_but_unchanged_counter_writes_no_sample() {
        let mut b = Builder::new(&[DeviceConfig::titan_xp()]);
        // The first touch of every track writes, `ready_waiting`'s zero
        // included.
        b.begin_batch(10);
        b.event(10, &ready(1));
        b.command(10, 0, &dispatch(1, 0, 9));
        b.end_batch(10);
        let first = vec![
            ("sm_occupancy", 10, 10),
            ("residents", 10, 1),
            ("ready_waiting", 10, 0),
        ];
        assert_eq!(samples(&b), first);
        // A finish and a dispatch of the same width touch every track and
        // change none.
        b.begin_batch(20);
        b.event(20, &Event::KernelFinished { lease: 1, ok: true });
        b.event(20, &ready(2));
        b.command(20, 0, &dispatch(2, 5, 14));
        b.end_batch(20);
        assert_eq!(samples(&b), first);
        // A wider dispatch changes occupancy only.
        b.begin_batch(30);
        b.event(30, &Event::KernelFinished { lease: 2, ok: true });
        b.event(30, &ready(3));
        b.command(30, 0, &dispatch(3, 0, 19));
        b.end_batch(30);
        assert_eq!(samples(&b)[3..], [("sm_occupancy", 30, 20)]);
    }
}
