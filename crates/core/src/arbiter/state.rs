//! The arbitration core's state machine: configuration, per-event state
//! updates, and the counters both frontends report from.
//!
//! Everything here is deterministic and I/O-free. Per-session and
//! per-lease state lives in one [`IdMap`] entry per external id; wherever
//! iteration order reaches output, the core orders by external id (the
//! armed-deadline list is kept sorted by lease id, a snapshot writes each
//! map by ascending id), which is what keeps the golden replay test
//! byte-stable across runs and internal-representation changes
//! (`DESIGN.md` §17).

use super::events::{Command, Event, RejectScope, Tick};
use super::replay::{is_recorded, EventLog, LoggedBatch};
use super::{by_id, IdMap};
use crate::admission::{AdmissionLimits, AdmissionStats, CoreStats};
use crate::classify::WorkloadClass;
use crate::durability::codec::{
    put_arbiter_config, put_bool, put_class, put_device, put_entries, put_opt, put_queue,
    put_range, put_slo, put_u64, put_usize, Decoded, Reader,
};
use crate::queue::LaunchGauge;
use crate::select::PartnerCandidate;
use serde::{Deserialize, Serialize};
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_kernels::workload::SloClass;
use std::collections::VecDeque;

/// Fallback per-launch estimate (milliseconds) used for retry hints when
/// pending kernels are unprofiled.
pub(super) const DEFAULT_LAUNCH_EST_MS: u64 = 10;

/// Static policy knobs of the arbitration core. Serialized into every
/// [`EventLog`] so a replay runs under the exact configuration that
/// produced the recording.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArbiterConfig {
    /// Allow complementary kernels to co-run on disjoint SM partitions
    /// (paper Table I). Off = every kernel runs solo, CUDA-style.
    pub enable_corun: bool,
    /// Allow resizing a resident kernel's partition (retreat + relaunch,
    /// paper §III-D): shrink to admit a co-runner, regrow when it leaves.
    pub enable_resize: bool,
    /// Starvation bound in logical microseconds: a waiter older than this
    /// refuses co-run pairings device-wide and is promoted to a solo
    /// dispatch. `None` disables aging.
    pub starvation_bound_us: Option<u64>,
    /// SLO preemption bound in logical microseconds: when set, a
    /// latency-critical arrival behind a best-effort resident forces a
    /// partition split via the retreat/resize path, and the frontends
    /// contract to land the preemption within this many ticks of the
    /// arrival (the core itself reacts in the same decide pass — the
    /// bound is the acceptance ceiling tests assert against). `None`
    /// disables SLO priority entirely; absent in logs recorded before
    /// the SLO dimension existed.
    #[serde(default)]
    pub preempt_bound_us: Option<u64>,
    /// Admission-control bounds (sessions, pending launches, memory
    /// watermark). Fully permissive by default.
    pub limits: AdmissionLimits,
}

impl Default for ArbiterConfig {
    fn default() -> Self {
        Self {
            enable_corun: true,
            enable_resize: true,
            starvation_bound_us: None,
            preempt_bound_us: None,
            limits: AdmissionLimits::default(),
        }
    }
}

/// A kernel currently holding SMs.
#[derive(Debug, Clone)]
pub(super) struct Resident {
    pub(super) lease: u64,
    pub(super) session: u64,
    pub(super) class: WorkloadClass,
    pub(super) sm_demand: u32,
    /// Pinned residents never accept co-runners (pinned-solo launches and
    /// starvation promotions).
    pub(super) pinned: bool,
    pub(super) range: SmRange,
    /// The owning session's SLO class at dispatch time; best-effort
    /// residents are the preemption victims.
    pub(super) slo: SloClass,
}

impl Resident {
    fn encode(&self, out: &mut Vec<u8>) {
        let Self {
            lease,
            session,
            class,
            sm_demand,
            pinned,
            range,
            slo,
        } = self;
        put_u64(out, *lease);
        put_u64(out, *session);
        put_class(out, *class);
        put_u64(out, (*sm_demand).into());
        put_bool(out, *pinned);
        put_range(out, *range);
        put_slo(out, *slo);
    }

    fn decode(r: &mut Reader) -> Decoded<Self> {
        Ok(Self {
            lease: r.u64()?,
            session: r.u64()?,
            class: r.class()?,
            sm_demand: r.u32()?,
            pinned: r.bool()?,
            range: r.range()?,
            slo: r.slo()?,
        })
    }
}

/// A ready kernel waiting for SMs.
#[derive(Debug, Clone)]
pub(super) struct Waiter {
    pub(super) lease: u64,
    pub(super) session: u64,
    pub(super) class: WorkloadClass,
    pub(super) sm_demand: u32,
    pub(super) pinned: bool,
    pub(super) deadline_ms: Option<u64>,
    /// When the kernel became ready (queue-wait start).
    pub(super) since: Tick,
    /// Stable arrival order; the deterministic tie-break everywhere.
    pub(super) seq: u64,
    /// The owning session's SLO class at ready time; latency-critical
    /// waiters get dispatch priority and may trigger a preemption.
    pub(super) slo: SloClass,
}

impl Waiter {
    fn encode(&self, out: &mut Vec<u8>) {
        let Self {
            lease,
            session,
            class,
            sm_demand,
            pinned,
            deadline_ms,
            since,
            seq,
            slo,
        } = self;
        put_u64(out, *lease);
        put_u64(out, *session);
        put_class(out, *class);
        put_u64(out, (*sm_demand).into());
        put_bool(out, *pinned);
        put_opt(out, *deadline_ms);
        put_u64(out, *since);
        put_u64(out, *seq);
        put_slo(out, *slo);
    }

    fn decode(r: &mut Reader) -> Decoded<Self> {
        Ok(Self {
            lease: r.u64()?,
            session: r.u64()?,
            class: r.class()?,
            sm_demand: r.u32()?,
            pinned: r.bool()?,
            deadline_ms: r.opt()?,
            since: r.u64()?,
            seq: r.u64()?,
            slo: r.slo()?,
        })
    }
}

/// What the core keeps of one session.
#[derive(Debug)]
pub(super) struct Session {
    /// Pending launches of the session.
    gauge: LaunchGauge,
    /// Declared SLO class (best-effort until an [`Event::SloArrival`]).
    slo: SloClass,
    /// Whether the session passed admission. A session created by a bare
    /// [`Event::SloArrival`] (declared but never opened) must not
    /// decrement `active_sessions` on close.
    opened: bool,
}

impl Session {
    fn new(gauge: LaunchGauge) -> Self {
        Self {
            gauge,
            slo: SloClass::BestEffort,
            opened: false,
        }
    }
}

/// What the core keeps of one lease, until its session ends.
#[derive(Debug)]
pub(super) struct Lease {
    /// Owning session (external id).
    session: u64,
    /// Last SM range the lease held when it finished — the in-place
    /// continuation hint (a re-ready kernel resumes its old partition
    /// without a resize).
    pub(super) last_range: Option<SmRange>,
    /// Solo-time estimates of the admitted launches, popped as they
    /// finish; empty is "no pending launch".
    pending: VecDeque<u64>,
}

/// The deterministic, I/O-free arbitration core shared by the simulated
/// runtime and the live daemon.
///
/// Feed it batches of [`Event`]s with a monotonic logical timestamp; it
/// returns the [`Command`]s the frontend must carry out. All scheduling
/// policy — Table-I partner selection, SM partitioning, dynamic resizing,
/// starvation aging, admission shedding and watchdog eviction — lives
/// behind [`ArbiterCore::feed`]; the frontends only translate events in
/// and commands out.
///
/// Per-session and per-lease state is one map entry per external id;
/// steady-state feeding performs no heap allocation (the maps, the
/// spare FIFOs and the scratch buffers all keep their high-water
/// capacity).
#[derive(Debug)]
pub struct ArbiterCore {
    pub(super) device: DeviceConfig,
    pub(super) config: ArbiterConfig,
    /// Logical clock: the max batch timestamp seen so far.
    pub(super) now: Tick,
    pub(super) next_seq: u64,
    pub(super) draining: bool,
    pub(super) residents: Vec<Resident>,
    pub(super) waiters: Vec<Waiter>,
    /// One entry per lease the core still tracks (removed when the
    /// owning session ends).
    pub(super) leases: IdMap<Lease>,
    /// One entry per session admitted, declared or launched from.
    pub(super) sessions: IdMap<Session>,
    /// The FIFOs of removed leases, emptied, for the next leases to
    /// take: a warmed feed allocates none.
    spare_fifos: Vec<VecDeque<u64>>,
    /// Armed watchdog deadlines as `(external lease id, eviction tick)`,
    /// kept sorted by lease id — the scan emits `Evict`s in ascending
    /// lease order, exactly as the old ordered-map iteration did.
    pub(super) armed: Vec<(u64, Tick)>,
    /// Daemon-wide pending-launch gauge.
    global: LaunchGauge,
    active_sessions: usize,
    sessions_admitted: u64,
    sessions_rejected: u64,
    launches_completed: u64,
    launches_failed: u64,
    deadline_rejections: u64,
    mallocs_shed: u64,
    /// Sum of the solo-time estimates of every pending launch.
    pub(crate) pending_est_ms: u64,
    pub(super) promotions: u64,
    pub(super) evictions: u64,
    pub(super) preemptions: u64,
    reaped: u64,
    /// Reused by the co-run partner selection each decide pass.
    pub(super) scratch_cands: Vec<PartnerCandidate>,
    pub(super) scratch_idxs: Vec<usize>,
    record: Option<Vec<LoggedBatch>>,
}

impl ArbiterCore {
    /// A fresh core arbitrating `device` under `config`.
    pub fn new(device: DeviceConfig, config: ArbiterConfig) -> Self {
        let global = LaunchGauge::new(config.limits.max_pending_global);
        // Pre-size the maps for a typical concurrent population: one
        // up-front allocation per map instead of a doubling ladder on the
        // first wave of sessions (a fresh core's first feeds stay off the
        // allocator's hot path too, not just steady state).
        const LEASES: usize = 16;
        const SESSIONS: usize = 8;
        Self {
            device,
            config,
            now: 0,
            next_seq: 0,
            draining: false,
            residents: Vec::with_capacity(4),
            waiters: Vec::with_capacity(8),
            leases: IdMap::with_capacity_and_hasher(LEASES, Default::default()),
            sessions: IdMap::with_capacity_and_hasher(SESSIONS, Default::default()),
            spare_fifos: Vec::with_capacity(LEASES),
            // Lazy: only deadline-bearing workloads ever arm a timer.
            armed: Vec::new(),
            global,
            active_sessions: 0,
            sessions_admitted: 0,
            sessions_rejected: 0,
            launches_completed: 0,
            launches_failed: 0,
            deadline_rejections: 0,
            mallocs_shed: 0,
            pending_est_ms: 0,
            promotions: 0,
            evictions: 0,
            preemptions: 0,
            reaped: 0,
            scratch_cands: Vec::with_capacity(8),
            scratch_idxs: Vec::with_capacity(8),
            record: None,
        }
    }

    /// The device being arbitrated.
    pub(crate) fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// Kernels currently holding SMs.
    #[doc(hidden)]
    pub fn residents(&self) -> usize {
        self.residents.len()
    }

    /// Leases of the kernels currently holding SMs, in stable residency
    /// order. The placement layer evacuates a failed device's leases
    /// from this list, so its order must be deterministic (it is: the
    /// backing `Vec` mutates identically across replays).
    pub(crate) fn resident_leases(&self) -> Vec<u64> {
        self.residents.iter().map(|r| r.lease).collect()
    }

    /// Leases of the ready kernels still waiting for SMs, in arrival
    /// order. Deterministic for the same reason as
    /// [`ArbiterCore::resident_leases`]; evacuation moves these too, not
    /// just residents.
    pub(crate) fn waiting_leases(&self) -> Vec<u64> {
        self.waiters.iter().map(|w| w.lease).collect()
    }

    /// Ready kernels waiting for SMs.
    pub(crate) fn waiting(&self) -> usize {
        self.waiters.len()
    }

    /// Whether [`Event::DrainBegan`] has been fed.
    #[cfg(test)]
    pub(crate) fn draining(&self) -> bool {
        self.draining
    }

    /// The declared SLO class of `session` (best-effort when the session
    /// never declared one, or is unknown).
    pub fn session_slo(&self, session: u64) -> SloClass {
        self.sessions
            .get(&session)
            .map(|s| s.slo)
            .unwrap_or_default()
    }

    /// SMs not granted to any resident right now. The placement layer's
    /// SLO-aware tie-break routes latency-critical sessions toward the
    /// device with the most free SMs.
    pub(crate) fn free_sms(&self) -> u32 {
        let used: u32 = self
            .residents
            .iter()
            .map(|r| r.range.hi - r.range.lo + 1)
            .sum();
        self.device.num_sms.saturating_sub(used)
    }

    /// One read of every counter the core keeps.
    pub(crate) fn stats(&self) -> CoreStats {
        CoreStats {
            queue: self.global.stats(),
            admission: AdmissionStats {
                active_sessions: self.active_sessions,
                sessions_admitted: self.sessions_admitted,
                sessions_rejected: self.sessions_rejected,
                launches_completed: self.launches_completed,
                launches_failed: self.launches_failed,
                deadline_rejections: self.deadline_rejections,
                mallocs_shed: self.mallocs_shed,
                pending_est_ms: self.pending_est_ms,
            },
            evictions: self.evictions,
            promotions: self.promotions,
            preemptions: self.preemptions,
            reaped: self.reaped,
        }
    }

    /// Appends the core's part of a snapshot slot body: every field a
    /// future decision reads, which [`ArbiterCore::decode`] reads back.
    /// The per-id maps are written by external id, ascending; gauges are
    /// written as their [`QueueStats`](crate::queue::QueueStats).
    ///
    /// The crash-consistency invariant: the core `decode` rebuilds from
    /// these bytes behaves byte-identically to this one for every later
    /// event batch.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let Self {
            device,
            config,
            now,
            next_seq,
            draining,
            residents,
            waiters,
            leases,
            sessions,
            // Empty FIFOs, no state.
            spare_fifos: _,
            armed,
            global,
            active_sessions,
            sessions_admitted,
            sessions_rejected,
            launches_completed,
            launches_failed,
            deadline_rejections,
            mallocs_shed,
            pending_est_ms,
            promotions,
            evictions,
            preemptions,
            reaped,
            // Scratch, empty between batches.
            scratch_cands: _,
            scratch_idxs: _,
            // A restored core starts a fresh log.
            record: _,
        } = self;
        let leases = by_id(leases);
        let sessions = by_id(sessions);
        put_device(out, device);
        put_arbiter_config(out, config);
        put_u64(out, *now);
        put_u64(out, *next_seq);
        put_bool(out, *draining);
        put_usize(out, residents.len());
        for resident in residents {
            resident.encode(out);
        }
        put_usize(out, waiters.len());
        for waiter in waiters {
            waiter.encode(out);
        }
        let last_range = leases
            .iter()
            .filter_map(|&(id, l)| Some((id, l.last_range?)));
        put_entries(out, last_range, put_range);
        put_entries(out, armed.iter().copied(), put_u64);
        let gauges = sessions.iter().map(|&(id, s)| (id, s.gauge.stats()));
        put_entries(out, gauges, |out, stats| put_queue(out, &stats));
        put_entries(out, leases.iter().map(|&(id, l)| (id, l.session)), put_u64);
        let queued = leases
            .iter()
            .filter(|(_, l)| !l.pending.is_empty())
            .map(|&(id, l)| (id, &l.pending));
        put_entries(out, queued, |out, fifo| {
            put_usize(out, fifo.len());
            fifo.iter().for_each(|&est| put_u64(out, est));
        });
        put_queue(out, &global.stats());
        put_usize(out, *active_sessions);
        for v in [
            sessions_admitted,
            sessions_rejected,
            launches_completed,
            launches_failed,
            deadline_rejections,
            mallocs_shed,
            pending_est_ms,
            promotions,
            evictions,
            reaped,
        ] {
            put_u64(out, *v);
        }
        let declared = sessions
            .iter()
            .filter(|(_, s)| s.slo != SloClass::BestEffort)
            .map(|&(id, s)| (id, s.slo));
        put_entries(out, declared, put_slo);
        put_u64(out, *preemptions);
    }

    /// Rebuilds a core from the bytes [`ArbiterCore::encode`] wrote
    /// (recording off). The lease owners are the live-lease set: a last
    /// range or FIFO of any other lease is dropped.
    pub(crate) fn decode(r: &mut Reader) -> Decoded<Self> {
        let device = r.device()?;
        let config = r.arbiter_config()?;
        let mut core = ArbiterCore::new(device, config);
        core.now = r.u64()?;
        core.next_seq = r.u64()?;
        core.draining = r.bool()?;
        core.residents = r.vec(Resident::decode)?;
        core.waiters = r.vec(Waiter::decode)?;
        // Read ahead of the live-lease set it is an attribute of.
        let last_range = r.pairs(Reader::range)?;
        // `Reader::range` refuses `lo > hi`; a range must also end on the
        // device, or `free_sms` and the partitioner overflow on it.
        let ranges = core.residents.iter().map(|r| &r.range);
        if ranges
            .chain(last_range.iter().map(|(_, range)| range))
            .any(|range| range.hi >= core.device.num_sms)
        {
            return Err("an SM range runs past the device");
        }
        // Residents hold disjoint ranges, or `free_sms` and the partitioner
        // count an SM twice. A finished lease's last range is only a hint
        // for its next dispatch and may overlap anything.
        let residents = &core.residents;
        if residents
            .iter()
            .enumerate()
            .any(|(i, a)| residents[..i].iter().any(|b| a.range.overlaps(&b.range)))
        {
            return Err("resident SM ranges overlap");
        }
        core.armed = r.pairs(Reader::u64)?;
        for (session, stats) in r.pairs(Reader::queue)? {
            let mut entry = Session::new(LaunchGauge::from_stats(stats));
            // Declare-then-open is atomic within a batch and snapshots
            // are cut between batches, so every snapshotted session was
            // admitted.
            entry.opened = true;
            core.sessions.insert(session, entry);
        }
        for (lease, session) in r.pairs(Reader::u64)? {
            core.lease(lease, session);
        }
        for (lease, range) in last_range {
            if let Some(l) = core.leases.get_mut(&lease) {
                l.last_range = Some(range);
            }
        }
        for (lease, fifo) in r.pairs(|r| r.vec(Reader::u64))? {
            if let Some(l) = core.leases.get_mut(&lease) {
                l.pending = fifo.into();
            }
        }
        core.global = LaunchGauge::from_stats(r.queue()?);
        core.active_sessions = r.usize()?;
        core.sessions_admitted = r.u64()?;
        core.sessions_rejected = r.u64()?;
        core.launches_completed = r.u64()?;
        core.launches_failed = r.u64()?;
        core.deadline_rejections = r.u64()?;
        core.mallocs_shed = r.u64()?;
        core.pending_est_ms = r.u64()?;
        core.promotions = r.u64()?;
        core.evictions = r.u64()?;
        core.reaped = r.u64()?;
        for (session, class) in r.pairs(Reader::slo)? {
            core.session(session).slo = class;
        }
        core.preemptions = r.u64()?;
        Ok(core)
    }

    /// Every SM range the core holds — its residents' and its leases' last
    /// ones — for tests that forge a body no core can be in.
    #[cfg(test)]
    pub(crate) fn ranges_mut(&mut self) -> impl Iterator<Item = &mut SmRange> {
        let last = self
            .leases
            .values_mut()
            .filter_map(|l| l.last_range.as_mut());
        self.residents.iter_mut().map(|r| &mut r.range).chain(last)
    }

    /// Starts recording fed batches for later [`super::replay`]. A batch of
    /// nothing but [`Event::DeadlineTick`]s that produced no commands is
    /// left out, as from every log the daemon keeps.
    pub fn start_recording(&mut self) {
        self.record = Some(Vec::new());
    }

    /// Takes the recorded log (if recording was started), packaged with
    /// the device and configuration needed to replay it.
    pub fn take_log(&mut self) -> Option<EventLog> {
        self.record.take().map(|batches| EventLog {
            device: self.device.clone(),
            config: self.config.clone(),
            batches,
        })
    }

    /// Feeds one batch of events at logical time `now` and returns the
    /// commands the frontend must carry out, in order. The clock is
    /// clamped monotonic; decisions are made once, after the whole batch
    /// is absorbed.
    pub fn feed(&mut self, now: Tick, events: &[Event]) -> Vec<Command> {
        let mut out = Vec::new();
        self.feed_into(now, events, &mut out);
        out
    }

    /// Allocation-free variant of [`ArbiterCore::feed`]: clears `out` and
    /// fills it with this batch's commands, reusing its capacity. The
    /// hot-path entry point for callers that own a reusable batch buffer.
    pub fn feed_into(&mut self, now: Tick, events: &[Event], out: &mut Vec<Command>) {
        out.clear();
        self.now = self.now.max(now);
        for ev in events {
            self.intake(ev, out);
        }
        self.decide(out);
        if let Some(batches) = &mut self.record {
            if is_recorded(events, out) {
                batches.push(LoggedBatch {
                    at: self.now,
                    events: events.to_vec(),
                    commands: out.clone(),
                });
            }
        }
    }

    /// The retry hint for a shed request: the estimated pending work if
    /// any queued kernel is profiled, otherwise a default per-launch
    /// estimate times the queue depth. Always ≥ 1 ms.
    fn retry_after_ms(&self) -> u64 {
        if self.pending_est_ms > 0 {
            self.pending_est_ms
        } else {
            self.global
                .depth()
                .saturating_mul(DEFAULT_LAUNCH_EST_MS)
                .max(1)
        }
    }

    /// The entry of `session`, created unopened with a neutral gauge if
    /// absent (callers that admit the session re-initialize the gauge
    /// with the configured limit).
    fn session(&mut self, session: u64) -> &mut Session {
        self.sessions
            .entry(session)
            .or_insert_with(|| Session::new(LaunchGauge::new(None)))
    }

    /// The entry of `lease`, created if absent, now owned by `session`.
    fn lease(&mut self, lease: u64, session: u64) -> &mut Lease {
        let spare = &mut self.spare_fifos;
        let entry = self.leases.entry(lease).or_insert_with(|| Lease {
            session,
            last_range: None,
            pending: spare.pop().unwrap_or_default(),
        });
        entry.session = session;
        entry
    }

    /// Arms (or re-arms) the watchdog deadline of `lease`, keeping the
    /// armed list sorted by external lease id.
    pub(super) fn arm_deadline(&mut self, lease: u64, at: Tick) {
        match self.armed.binary_search_by_key(&lease, |&(l, _)| l) {
            Ok(i) => self.armed[i].1 = at,
            Err(i) => self.armed.insert(i, (lease, at)),
        }
    }

    fn intake(&mut self, ev: &Event, out: &mut Vec<Command>) {
        match *ev {
            Event::SessionOpened { session } => self.open_session(session, out),
            Event::SessionClosed { session } => self.end_session(session, false, out),
            Event::SessionSevered { session } => self.end_session(session, true, out),
            Event::LaunchRequested {
                session,
                lease,
                est_ms,
                deadline_ms,
            } => self.admit_launch(session, lease, est_ms, deadline_ms, out),
            Event::KernelReady {
                session,
                lease,
                class,
                sm_demand,
                pinned_solo,
                deadline_ms,
            } => {
                self.lease(lease, session);
                let slo = self.session_slo(session);
                let seq = self.next_seq;
                self.next_seq += 1;
                self.waiters.push(Waiter {
                    lease,
                    session,
                    class,
                    sm_demand,
                    pinned: pinned_solo,
                    deadline_ms,
                    since: self.now,
                    seq,
                    slo,
                });
            }
            Event::KernelFinished { lease, ok } => self.finish_launch(lease, ok),
            Event::MallocRequested {
                session,
                used,
                capacity,
                bytes,
            } => {
                if let Some(w) = self.config.limits.mem_watermark {
                    let limit = (w.clamp(0.0, 1.0) * capacity as f64) as u64;
                    if used.saturating_add(bytes) > limit {
                        self.mallocs_shed += 1;
                        out.push(Command::RejectOverloaded {
                            session,
                            lease: None,
                            scope: RejectScope::Malloc,
                            retry_after_ms: self.retry_after_ms(),
                        });
                    }
                }
            }
            Event::DeadlineTick => {}
            Event::DrainBegan => self.draining = true,
            // Health transitions are decided above the core, in the
            // placement layer; to a single core they are scheduling
            // nudges — recorded in its log, fresh decide() pass, no
            // per-core state.
            Event::DeviceDown { .. } | Event::DeviceUp { .. } => {}
            Event::SloArrival { session, class } => self.session(session).slo = class,
        }
    }

    fn open_session(&mut self, session: u64, out: &mut Vec<Command>) {
        if let Some(max) = self.config.limits.max_sessions {
            if self.active_sessions >= max {
                self.sessions_rejected += 1;
                // A shed connect leaves no state behind — including the
                // entry the session's SLO declaration may have made ahead
                // of the open.
                self.sessions.remove(&session);
                out.push(Command::RejectOverloaded {
                    session,
                    lease: None,
                    scope: RejectScope::Session,
                    retry_after_ms: self.retry_after_ms(),
                });
                return;
            }
        }
        self.active_sessions += 1;
        self.sessions_admitted += 1;
        let limit = self.config.limits.max_pending_per_session;
        let entry = self.session(session);
        entry.gauge = LaunchGauge::new(limit);
        entry.opened = true;
    }

    fn end_session(&mut self, session: u64, severed: bool, out: &mut Vec<Command>) {
        let Some(entry) = self.sessions.remove(&session) else {
            // Never admitted (the connect was shed): nothing to clean up.
            return;
        };
        if entry.opened {
            self.active_sessions -= 1;
        }
        // Defensive sweep: a well-behaved frontend finishes every launch
        // before closing the session, but a severed client can leave
        // leases behind — drain them so the global gauge stays balanced.
        self.residents.retain(|r| r.session != session);
        self.waiters.retain(|w| w.session != session);
        // Per-lease cleanup commutes (the counters are sums), so the
        // map's order here is fine — nothing below emits a command.
        let Self {
            leases,
            armed,
            spare_fifos,
            global,
            pending_est_ms,
            launches_failed,
            ..
        } = self;
        leases.retain(|&lease, entry| {
            if entry.session != session {
                return true;
            }
            disarm(armed, lease);
            for est in entry.pending.drain(..) {
                *pending_est_ms = pending_est_ms.saturating_sub(est);
                global.pop();
                *launches_failed += 1;
            }
            spare_fifos.push(std::mem::take(&mut entry.pending));
            false
        });
        if severed {
            self.reaped += 1;
            out.push(Command::Reap { session });
        }
    }

    fn admit_launch(
        &mut self,
        session: u64,
        lease: u64,
        est_ms: Option<u64>,
        deadline_ms: Option<u64>,
        out: &mut Vec<Command>,
    ) {
        // Lazily admit sessions the frontend never announced, so the core
        // stays usable with partial event streams.
        let limit = self.config.limits.max_pending_per_session;
        let gauge = &self
            .sessions
            .entry(session)
            .or_insert_with(|| Session::new(LaunchGauge::new(limit)))
            .gauge;
        if let Some(deadline) = deadline_ms {
            let queue_wait = self.pending_est_ms;
            if queue_wait > deadline {
                // The kernel could only ever be evicted; shed it now
                // instead of wasting device time the queue needs.
                self.deadline_rejections += 1;
                gauge.record_shed();
                self.global.record_shed();
                out.push(Command::RejectOverloaded {
                    session,
                    lease: Some(lease),
                    scope: RejectScope::Deadline,
                    retry_after_ms: queue_wait.max(1),
                });
                return;
            }
        }
        if !gauge.try_push() {
            self.global.record_shed();
            out.push(Command::RejectOverloaded {
                session,
                lease: Some(lease),
                scope: RejectScope::Launch,
                retry_after_ms: self.retry_after_ms(),
            });
            return;
        }
        if !self.global.try_push() {
            gauge.cancel();
            out.push(Command::RejectOverloaded {
                session,
                lease: Some(lease),
                scope: RejectScope::Launch,
                retry_after_ms: self.retry_after_ms(),
            });
            return;
        }
        let est = est_ms.unwrap_or(0);
        self.pending_est_ms += est;
        self.lease(lease, session).pending.push_back(est);
    }

    fn finish_launch(&mut self, lease: u64, ok: bool) {
        let held = self
            .residents
            .iter()
            .position(|r| r.lease == lease)
            .map(|pos| self.residents.remove(pos).range);
        disarm(&mut self.armed, lease);
        self.waiters.retain(|w| w.lease != lease);
        let Some(entry) = self.leases.get_mut(&lease) else {
            return;
        };
        if held.is_some() {
            entry.last_range = held;
        }
        if let Some(est) = entry.pending.pop_front() {
            self.pending_est_ms = self.pending_est_ms.saturating_sub(est);
            self.global.pop();
            if let Some(s) = self.sessions.get(&entry.session) {
                s.gauge.pop();
            }
            if ok {
                self.launches_completed += 1;
            } else {
                self.launches_failed += 1;
            }
        }
    }
}

/// Disarms the watchdog deadline of `lease` in the sorted `armed` list,
/// if armed.
fn disarm(armed: &mut Vec<(u64, Tick)>, lease: u64) {
    if let Ok(i) = armed.binary_search_by_key(&lease, |&(l, _)| l) {
        armed.remove(i);
    }
}
