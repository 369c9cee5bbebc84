//! Multi-device placement: N per-device [`ArbiterCore`]s behind one
//! deterministic routing layer.
//!
//! The paper's scope ends at one GPU; this module lifts the arbitration
//! core past it. A [`PlacementLayer`] owns one `ArbiterCore` per
//! [`DeviceConfig`] and splits a single frontend event stream into
//! per-device streams:
//!
//! ```text
//!                frontend events (one stream, logical µs)
//!                               │
//!                   PlacementLayer::feed(now, &[Event])
//!           policy on SessionOpened · sticky session/lease routes
//!           broadcast DeadlineTick/DrainBegan · migration retarget
//!            │                  │                  │
//!       ArbiterCore 0      ArbiterCore 1  …   ArbiterCore N-1
//!            │                  │                  │
//!            └──────────┬───────┴───────┬──────────┘
//!                       ▼               ▼
//!            RoutedCommand { device, command }   (+ synthesized
//!                                   Evicts from the rebalancer)
//! ```
//!
//! Three invariants make the layer as replayable as the cores beneath it:
//!
//! 1. **Sticky deterministic routing** — a session's device is chosen
//!    once, by a pure [`PlacementPolicy`], and every later event of that
//!    session (and of its leases) follows it. No wall clocks, no
//!    unordered maps; session and lease routes live in dense slot tables
//!    behind [`IdTable`] interners, and any slot iteration whose order
//!    could reach the output sorts by external id first (the dense-slot
//!    rule — see `DESIGN.md` §17).
//! 2. **Event-sourced migration** — a rebalance is an ordinary
//!    [`Command::Evict`] synthesized by the layer plus a route change for
//!    the lease: the frontend evicts (capturing absolute `slateIdx`
//!    progress), feeds the `KernelFinished {ok: false}` back (routed to
//!    the *source* core, which cleans up), then re-stages with
//!    [`WorkSpec::resuming`](crate::backend::WorkSpec::resuming) and
//!    re-feeds `KernelReady` — which now routes to the *target* core.
//! 3. **Per-core recording** — the layer's own [`replay::PlacementLog`]
//!    splits into N ordinary [`EventLog`](crate::arbiter::EventLog)s
//!    ([`replay::split`]) that verify byte-identically through the
//!    existing single-device machinery.

pub mod health;
pub mod multi;
pub mod policy;
pub mod rebalance;
pub mod replay;

pub use health::HealthState;
pub use multi::{MultiJob, MultiSim};
pub use policy::PlacementPolicy;
pub use rebalance::{Migration, RebalanceConfig};
pub use replay::{PlacementBatch, PlacementLog};

use crate::arbiter::replay::is_recorded;
use crate::arbiter::{ArbiterConfig, ArbiterCore, Command, Event, IdTable, RejectScope, Tick};
use crate::durability::codec::{
    put_placement_config, put_slo, put_slots, put_u64, put_usize, Decoded, Reader,
};
use health::HealthTracker;
use rebalance::Rebalancer;
use serde::{Deserialize, Serialize};
use slate_gpu_sim::device::DeviceConfig;
use slate_kernels::workload::SloClass;
use std::fmt;

/// Weight (estimated milliseconds) of one resident or waiting kernel in
/// the device-load metric, matching the arbiter's fallback per-launch
/// estimate for unprofiled work.
const LOAD_WEIGHT_MS: u64 = 10;

/// Static configuration of a [`PlacementLayer`]: the routing policy, the
/// per-core arbiter configuration (shared by all devices, admission limits
/// included: each core bounds its own sessions and launches), and the
/// optional migration planner. The health windows are constants of
/// [`health`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PlacementConfig {
    /// How new sessions choose a device.
    pub policy: PlacementPolicy,
    /// Configuration every per-device [`ArbiterCore`] runs under.
    pub arbiter: ArbiterConfig,
    /// Cross-device rebalancing; `None` disables migration entirely.
    pub rebalance: Option<RebalanceConfig>,
}

/// A command tagged with the device whose backend must carry it out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutedCommand {
    /// Index into the layer's device list.
    pub device: usize,
    /// The command itself.
    pub command: Command,
}

impl fmt::Display for RoutedCommand {
    /// Stable rendering used by placement transcripts; changing it
    /// invalidates checked-in goldens.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{} {}", self.device, self.command)
    }
}

/// Counters the placement layer accumulates; scalar and `Copy` so the
/// daemon can fold them into its metrics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Devices behind the layer.
    pub devices: usize,
    /// Sessions routed to a device (policy consultations).
    pub sessions_routed: u64,
    /// Cross-device migrations fired by the rebalancer.
    pub rebalances: u64,
    /// Migrations whose eviction has landed and whose lease now routes
    /// to the target device.
    pub migrations_completed: u64,
    /// Devices currently out of service (quarantined or failed).
    pub devices_out: usize,
    /// Leases force-migrated off a device that left service.
    pub evacuations: u64,
}

/// The complete state of a [`PlacementLayer`], captured by
/// [`PlacementLayer::snapshot`] and rebuilt by
/// [`PlacementLayer::from_snapshot`]: the layer's part of a snapshot slot
/// body, encoded. Equal states encode to equal bytes, so snapshots
/// compare as layer states.
///
/// The crash-consistency invariant: a layer restored from a snapshot must
/// behave byte-identically to the layer that produced it — same routes,
/// same rng words, same health timers, same counters — so a recovered
/// daemon's replayed suffix lands on exactly the state the crashed daemon
/// had. Recording state is deliberately *not* captured: recovery decides
/// afresh whether to record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementSnapshot {
    /// Bytes [`PlacementLayer::decode`] reads whole: only an encode, or a
    /// decode that succeeded, makes a snapshot.
    body: Vec<u8>,
}

impl PlacementSnapshot {
    /// The encoded layer, as a slot body holds it.
    pub(crate) fn body(&self) -> &[u8] {
        &self.body
    }

    /// Reads the layer's part of a slot body — decoded whole into a layer,
    /// which must hold together — and keeps its bytes.
    pub(crate) fn decode(r: &mut Reader) -> Decoded<Self> {
        let start = r.rest;
        PlacementLayer::decode(r)?;
        let read = start.len() - r.rest.len();
        Ok(Self {
            body: start[..read].to_vec(),
        })
    }
}

/// N per-device arbitration cores behind one deterministic router. See
/// the [module docs](self) for the invariants.
///
/// Sessions and leases are interned into dense slots; routing is a slot
/// lookup, and all per-feed working sets (per-device event split, load
/// vectors, eligibility masks, command buffers) are layer-owned scratch
/// that reuses its high-water capacity — a steady-state
/// [`PlacementLayer::feed_into`] call does not touch the allocator.
#[derive(Debug)]
pub struct PlacementLayer {
    cores: Vec<ArbiterCore>,
    config: PlacementConfig,
    now: Tick,
    /// Session interner; parallel to `session_device`.
    sessions: IdTable,
    /// Sticky session → device routes, by session slot.
    session_device: Vec<usize>,
    /// Declared SLO classes, by session slot (default best-effort).
    session_slo: Vec<SloClass>,
    /// Lease interner; parallel to the three per-lease tables below.
    leases: IdTable,
    /// Sticky lease → device routes (diverge from the session's device
    /// after a migration), by lease slot.
    lease_device: Vec<Option<usize>>,
    /// Lease → owning session, for cleanup when the session ends.
    lease_session: Vec<Option<u64>>,
    /// In-flight migrations: lease slot → target device. Populated when
    /// the rebalancer fires, drained when the eviction's
    /// `KernelFinished` arrives.
    migrating: Vec<Option<usize>>,
    /// Live `Some` entries in `migrating`; gates the rebalancer without
    /// scanning the slot table.
    migrating_count: usize,
    rr_next: usize,
    rebalancer: Option<Rebalancer>,
    health: HealthTracker,
    sessions_routed: u64,
    migrations_completed: u64,
    evacuations: u64,
    // Per-feed scratch, reused across batches (see struct docs).
    sub: Vec<Vec<Event>>,
    finished: Vec<u64>,
    ended: Vec<u64>,
    evac: Vec<usize>,
    core_out: Vec<Command>,
    loads_buf: Vec<u64>,
    counts_buf: Vec<usize>,
    eligible_buf: Vec<bool>,
    sweep: Vec<u64>,
    record: Option<Vec<PlacementBatch>>,
}

impl PlacementLayer {
    /// A fresh layer over `devices` (one core each) under `config`.
    ///
    /// # Panics
    /// If `devices` is empty.
    pub fn new(devices: Vec<DeviceConfig>, config: PlacementConfig) -> Self {
        assert!(!devices.is_empty(), "placement needs at least one device");
        let cores = devices
            .into_iter()
            .map(|d| ArbiterCore::new(d, config.arbiter.clone()))
            .collect();
        Self::over(cores, config)
    }

    /// A layer routing to `cores` under `config`, with nothing routed yet.
    fn over(cores: Vec<ArbiterCore>, config: PlacementConfig) -> Self {
        let rebalancer = config.rebalance.clone().map(Rebalancer::new);
        let n = cores.len();
        let health = HealthTracker::new(n);
        // Pre-size the routing tables and scratch for a typical fleet
        // wave: one up-front allocation each instead of a doubling
        // ladder during the first batches (see `DESIGN.md` §17).
        const SESSIONS: usize = 16;
        const LEASES: usize = 16;
        Self {
            cores,
            config,
            now: 0,
            sessions: IdTable::with_capacity(SESSIONS),
            session_device: Vec::with_capacity(SESSIONS),
            session_slo: Vec::with_capacity(SESSIONS),
            leases: IdTable::with_capacity(LEASES),
            lease_device: Vec::with_capacity(LEASES),
            lease_session: Vec::with_capacity(LEASES),
            migrating: Vec::with_capacity(LEASES),
            migrating_count: 0,
            rr_next: 0,
            rebalancer,
            health,
            sessions_routed: 0,
            migrations_completed: 0,
            evacuations: 0,
            sub: std::iter::repeat_with(|| Vec::with_capacity(4))
                .take(n)
                .collect(),
            finished: Vec::with_capacity(4),
            ended: Vec::with_capacity(4),
            evac: Vec::with_capacity(4),
            core_out: Vec::with_capacity(8),
            loads_buf: Vec::with_capacity(n),
            counts_buf: Vec::with_capacity(n),
            eligible_buf: Vec::with_capacity(n),
            sweep: Vec::with_capacity(8),
            record: None,
        }
    }

    /// Rebuilds a layer from a durable snapshot. The result behaves
    /// byte-identically to the layer that produced the snapshot — ids are
    /// re-interned in ascending external order, which may renumber slots,
    /// but no decision depends on slot numbering. Recording is off until
    /// [`PlacementLayer::start_recording`] is called again.
    pub fn from_snapshot(snap: PlacementSnapshot) -> Self {
        let mut r = Reader { rest: &snap.body };
        Self::decode(&mut r).expect("a snapshot holds bytes that decode whole")
    }

    /// Captures the layer's complete state for a durable snapshot (see
    /// [`PlacementSnapshot`] for the invariant): the layer, encoded.
    pub fn snapshot(&self) -> PlacementSnapshot {
        // Room for a core's device, configuration and counters, and for
        // a few bytes of each id's routes: a larger body grows once.
        let ids = self.sessions.slot_count() + self.leases.slot_count();
        let mut body = Vec::with_capacity(256 * self.cores.len() + 32 * ids);
        self.encode(&mut body);
        PlacementSnapshot { body }
    }

    /// Appends the layer's part of a snapshot slot body, which
    /// [`PlacementLayer::decode`] reads back: the configuration, the
    /// clock, each core ([`ArbiterCore::encode`]), the routes as maps by
    /// external id, ascending, the rebalancer and the health tracker.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let Self {
            cores,
            config,
            now,
            sessions,
            session_device,
            session_slo,
            leases,
            lease_device,
            lease_session,
            migrating,
            // Recounted from `migrating` on decode.
            migrating_count: _,
            rr_next,
            rebalancer,
            health,
            sessions_routed,
            migrations_completed,
            evacuations,
            // Per-feed scratch, empty between batches.
            sub: _,
            finished: _,
            ended: _,
            evac: _,
            core_out: _,
            loads_buf: _,
            counts_buf: _,
            eligible_buf: _,
            sweep: _,
            // Recovery decides afresh whether to record.
            record: _,
        } = self;
        let sessions = sessions.by_id();
        let leases = leases.by_id();
        put_placement_config(out, config);
        put_u64(out, *now);
        put_usize(out, cores.len());
        for core in cores {
            core.encode(out);
        }
        put_slots(out, &sessions, |s| Some(session_device[s]), put_usize);
        let declared = |s: usize| Some(session_slo[s]).filter(|&c| c != SloClass::BestEffort);
        put_slots(out, &sessions, declared, put_slo);
        put_slots(out, &leases, |s| lease_device[s], put_usize);
        put_slots(out, &leases, |s| lease_session[s], put_u64);
        put_slots(out, &leases, |s| migrating[s], put_usize);
        put_usize(out, *rr_next);
        match rebalancer {
            None => out.push(0),
            Some(rebalancer) => {
                out.push(1);
                rebalancer.encode(out);
            }
        }
        health.encode(out);
        for v in [sessions_routed, migrations_completed, evacuations] {
            put_u64(out, *v);
        }
    }

    /// Rebuilds a layer from the bytes [`PlacementLayer::encode`] wrote.
    /// Ids are re-interned in ascending external order. Bytes no layer
    /// could have written are an error, not a layer that panics later: no
    /// device, a health state count other than the device count, a
    /// session, lease or migration routed past the last device, and
    /// rebalancer state without a rebalance configuration or the reverse.
    /// An Affinity pin past the last device and any `rr_next` are valid:
    /// routing falls back from the one and takes the other modulo the
    /// device count.
    pub(crate) fn decode(r: &mut Reader) -> Decoded<Self> {
        let config = r.placement_config()?;
        let now = r.u64()?;
        let n = r.len()?;
        // Not reserved from the count: a core is far larger than the
        // bytes that vouch for it.
        let mut cores = Vec::new();
        for _ in 0..n {
            cores.push(ArbiterCore::decode(r)?);
        }
        if cores.is_empty() {
            return Err("the layer has no device");
        }
        let device = |r: &mut Reader| match r.usize()? {
            d if d < n => Ok(d),
            _ => Err("a route names a device past the last"),
        };
        let mut layer = Self::over(cores, config);
        layer.now = now;
        for (session, d) in r.pairs(device)? {
            let slot = layer.session_slot(session);
            layer.session_device[slot] = d;
        }
        for (session, class) in r.pairs(Reader::slo)? {
            let slot = layer.session_slot(session);
            layer.session_slo[slot] = class;
        }
        for (lease, d) in r.pairs(device)? {
            let slot = layer.lease_slot(lease);
            layer.lease_device[slot] = Some(d);
        }
        for (lease, session) in r.pairs(Reader::u64)? {
            let slot = layer.lease_slot(lease);
            layer.lease_session[slot] = Some(session);
        }
        for (lease, d) in r.pairs(device)? {
            let slot = layer.lease_slot(lease);
            layer.migrating[slot] = Some(d);
            layer.migrating_count += 1;
        }
        layer.rr_next = r.usize()?;
        let has_state = r.option(|_| Ok(()))?.is_some();
        layer.rebalancer = match (has_state, layer.config.rebalance.clone()) {
            (true, Some(config)) => Some(Rebalancer::decode(r, config)?),
            (false, None) => None,
            _ => return Err("rebalancer state and configuration disagree"),
        };
        layer.health = HealthTracker::decode(r, n)?;
        layer.sessions_routed = r.u64()?;
        layer.migrations_completed = r.u64()?;
        layer.evacuations = r.u64()?;
        Ok(layer)
    }

    /// The device list the layer runs over, in device order.
    pub(crate) fn device_list(&self) -> Vec<DeviceConfig> {
        self.cores.iter().map(|c| c.device().clone()).collect()
    }

    /// The layer's logical clock: the timestamp of the latest fed batch.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Number of devices behind the layer.
    pub fn devices(&self) -> usize {
        self.cores.len()
    }

    /// The per-device core at `device`.
    pub fn core(&self, device: usize) -> &ArbiterCore {
        &self.cores[device]
    }

    /// The active configuration.
    pub fn config(&self) -> &PlacementConfig {
        &self.config
    }

    /// The device `session` is routed to, if it has been routed.
    pub fn device_of_session(&self, session: u64) -> Option<usize> {
        self.sessions
            .get(session)
            .map(|s| self.session_device[s as usize])
    }

    /// The device `lease` is routed to, if known. After a migration's
    /// eviction lands this is the *target* device — frontends re-stage
    /// the evicted kernel here.
    pub fn device_of_lease(&self, lease: u64) -> Option<usize> {
        self.leases
            .get(lease)
            .and_then(|s| self.lease_device[s as usize])
    }

    /// The migration target of `lease` while its eviction is still in
    /// flight (`None` otherwise). Frontends use this to distinguish a
    /// rebalance eviction (re-stage on the target) from a watchdog
    /// eviction (drop).
    pub fn migration_target(&self, lease: u64) -> Option<usize> {
        self.leases
            .get(lease)
            .and_then(|s| self.migrating[s as usize])
    }

    /// The health state of `device`, as of the last fed batch.
    pub fn health_of(&self, device: usize) -> HealthState {
        self.health.state(device)
    }

    /// Devices currently in service as routing targets.
    pub fn eligible_devices(&self) -> usize {
        self.health.eligible_count()
    }

    /// The load metric of `device`: estimated pending milliseconds plus
    /// a fixed per-kernel weight (`LOAD_WEIGHT_MS`) per resident or
    /// waiting kernel. Used by the least-loaded policy and the
    /// rebalancer's imbalance score.
    fn device_load(&self, device: usize) -> u64 {
        let core = &self.cores[device];
        core.admission_stats().pending_est_ms
            + LOAD_WEIGHT_MS * (core.residents() + core.waiting()) as u64
    }

    /// Per-device load vector (see [`PlacementLayer::device_load`]).
    fn loads(&self) -> Vec<u64> {
        let mut loads = Vec::new();
        self.fill_loads(&mut loads);
        loads
    }

    fn fill_loads(&self, buf: &mut Vec<u64>) {
        buf.clear();
        buf.extend((0..self.cores.len()).map(|i| self.device_load(i)));
    }

    /// Kernels resident across every device.
    pub fn residents(&self) -> usize {
        self.cores.iter().map(|c| c.residents()).sum()
    }

    /// Watchdog evictions across every device.
    pub fn evictions(&self) -> u64 {
        self.cores.iter().map(|c| c.evictions()).sum()
    }

    /// Starvation promotions across every device.
    pub fn promotions(&self) -> u64 {
        self.cores.iter().map(|c| c.promotions()).sum()
    }

    /// SLO preemptions fired across every device.
    pub fn preemptions(&self) -> u64 {
        self.cores.iter().map(|c| c.preemptions()).sum()
    }

    /// Reaped sessions across every device.
    pub fn reaped(&self) -> u64 {
        self.cores.iter().map(|c| c.reaped()).sum()
    }

    /// Launch-queue snapshot summed across every device's core. `capacity`
    /// is the per-core bound (the cores share one configuration), not a
    /// fleet-wide sum.
    pub fn queue_stats(&self) -> crate::queue::QueueStats {
        let mut agg = crate::queue::QueueStats::default();
        for core in &self.cores {
            let s = core.queue_stats();
            agg.depth += s.depth;
            agg.high_water += s.high_water;
            agg.admitted += s.admitted;
            agg.shed += s.shed;
            agg.capacity = s.capacity;
        }
        agg
    }

    /// Admission counters summed across every device's core.
    pub fn admission_stats(&self) -> crate::admission::AdmissionStats {
        let mut agg = crate::admission::AdmissionStats::default();
        for core in &self.cores {
            let s = core.admission_stats();
            agg.active_sessions += s.active_sessions;
            agg.sessions_admitted += s.sessions_admitted;
            agg.sessions_rejected += s.sessions_rejected;
            agg.launches_completed += s.launches_completed;
            agg.launches_failed += s.launches_failed;
            agg.deadline_rejections += s.deadline_rejections;
            agg.mallocs_shed += s.mallocs_shed;
            agg.pending_est_ms += s.pending_est_ms;
        }
        agg
    }

    /// Snapshot of the placement counters.
    pub fn stats(&self) -> PlacementStats {
        PlacementStats {
            devices: self.cores.len(),
            sessions_routed: self.sessions_routed,
            rebalances: self.rebalancer.as_ref().map_or(0, |r| r.fired()),
            migrations_completed: self.migrations_completed,
            devices_out: (0..self.cores.len())
                .filter(|&d| self.health.state(d).out_of_service())
                .count(),
            evacuations: self.evacuations,
        }
    }

    /// Starts recording the layer's routed batches. The per-core logs are
    /// not kept: [`replay::split`] derives them from this one.
    pub fn start_recording(&mut self) {
        self.record = Some(Vec::new());
    }

    /// Takes the placement-level log (if recording was started).
    pub fn take_log(&mut self) -> Option<PlacementLog> {
        self.record.take().map(|batches| PlacementLog {
            devices: self.device_list(),
            config: self.config.clone(),
            batches,
        })
    }

    /// Interns `session` and sizes the route tables to its slot, clearing
    /// any stale SLO class on fresh (possibly reused) slots.
    fn session_slot(&mut self, session: u64) -> usize {
        let (slot, fresh) = self.sessions.intern(session);
        let slot = slot as usize;
        if slot >= self.session_device.len() {
            self.session_device.resize(slot + 1, 0);
            self.session_slo.resize(slot + 1, SloClass::BestEffort);
        }
        if fresh {
            self.session_slo[slot] = SloClass::BestEffort;
        }
        slot
    }

    /// Interns `lease` and sizes the per-lease tables to its slot,
    /// clearing slot state on fresh (possibly reused) slots.
    fn lease_slot(&mut self, lease: u64) -> usize {
        let (slot, fresh) = self.leases.intern(lease);
        let slot = slot as usize;
        if slot >= self.lease_device.len() {
            self.lease_device.resize(slot + 1, None);
            self.lease_session.resize(slot + 1, None);
            self.migrating.resize(slot + 1, None);
        }
        if fresh {
            self.lease_device[slot] = None;
            self.lease_session[slot] = None;
            debug_assert!(
                self.migrating[slot].is_none(),
                "released slot kept a target"
            );
        }
        slot
    }

    fn fill_session_counts(&self, buf: &mut Vec<usize>) {
        buf.clear();
        buf.resize(self.cores.len(), 0);
        for (slot, _) in self.sessions.iter() {
            buf[self.session_device[slot as usize]] += 1;
        }
    }

    /// Routing eligibility mask, falling back to every device when the
    /// whole fleet is out of service (work then queues on its sticky
    /// device until something recovers, rather than having nowhere to
    /// go).
    fn fill_routable(&self, buf: &mut Vec<bool>) {
        self.health.fill_eligibility(buf);
        if !buf.iter().any(|&e| e) {
            buf.iter_mut().for_each(|e| *e = true);
        }
    }

    /// Routes `session` via the policy (first sight) or its sticky route.
    fn device_of_or_assign(&mut self, session: u64) -> usize {
        if let Some(slot) = self.sessions.get(session) {
            return self.session_device[slot as usize];
        }
        let mut loads = std::mem::take(&mut self.loads_buf);
        let mut counts = std::mem::take(&mut self.counts_buf);
        let mut eligible = std::mem::take(&mut self.eligible_buf);
        self.fill_loads(&mut loads);
        self.fill_session_counts(&mut counts);
        self.fill_routable(&mut eligible);
        let (d, advanced_rr) =
            self.config
                .policy
                .route(session, &loads, &counts, self.rr_next, &eligible);
        self.loads_buf = loads;
        self.counts_buf = counts;
        self.eligible_buf = eligible;
        if advanced_rr {
            // Equivalent to the pre-health `rr_next + 1` while every
            // device is eligible; skips ineligible devices otherwise.
            self.rr_next = d + 1;
        }
        let slot = self.session_slot(session);
        self.session_device[slot] = d;
        self.sessions_routed += 1;
        d
    }

    /// Routes a session declared with an SLO class. Latency-critical
    /// sessions override the configured policy with an SLO-aware
    /// tie-break: the eligible device with the most free SMs (so the
    /// arrival dispatches — or preempts the thinnest resident — fastest),
    /// ties broken toward lower load, then lower index. Best-effort
    /// declarations fall back to the plain policy route. Sticky like
    /// [`PlacementLayer::device_of_or_assign`].
    fn device_of_or_assign_slo(&mut self, session: u64, class: SloClass) -> usize {
        if class != SloClass::LatencyCritical {
            return self.device_of_or_assign(session);
        }
        if let Some(slot) = self.sessions.get(session) {
            return self.session_device[slot as usize];
        }
        let mut eligible = std::mem::take(&mut self.eligible_buf);
        self.fill_routable(&mut eligible);
        let loads = self.loads();
        let mut best = 0usize;
        for d in 1..self.cores.len() {
            if !eligible[d] {
                continue;
            }
            let (fd, fb) = (self.cores[d].free_sms(), self.cores[best].free_sms());
            if !eligible[best] || fd > fb || (fd == fb && loads[d] < loads[best]) {
                best = d;
            }
        }
        self.eligible_buf = eligible;
        let slot = self.session_slot(session);
        self.session_device[slot] = best;
        self.sessions_routed += 1;
        best
    }

    /// Routes a lease-scoped event: the lease's sticky route if it has
    /// one (it diverges from the session's after a migration), else the
    /// session's. A session stuck to an out-of-service device sends its
    /// *new* leases to the least-loaded in-service one instead — the
    /// session route stays sticky for when the device returns, but no
    /// fresh work lands on a dead device.
    fn device_for_lease(&mut self, session: u64, lease: u64) -> usize {
        let routed = self
            .leases
            .get(lease)
            .and_then(|s| self.lease_device[s as usize]);
        let d = match routed {
            Some(d) => d,
            None => {
                let mut d = self.device_of_or_assign(session);
                if self.health.state(d).out_of_service() {
                    if let Some(alt) = pick_target(&self.health.eligibility(), &self.loads(), d) {
                        d = alt;
                    }
                }
                let slot = self.lease_slot(lease);
                self.lease_device[slot] = Some(d);
                d
            }
        };
        let slot = self.lease_slot(lease);
        self.lease_session[slot] = Some(session);
        d
    }

    /// Feeds one batch of frontend events at logical time `now`, routing
    /// each to its device's core, and returns every resulting command
    /// tagged with its device — including any migration eviction the
    /// rebalancer synthesized this batch. Commands come out in device
    /// order (all of device 0's, then device 1's, …), each device's in
    /// its core's emission order.
    pub fn feed(&mut self, now: Tick, events: &[Event]) -> Vec<RoutedCommand> {
        let mut out = Vec::new();
        self.feed_into(now, events, &mut out);
        out
    }

    /// Allocation-free variant of [`PlacementLayer::feed`]: clears `out`
    /// and fills it with this batch's routed commands, reusing its
    /// capacity and the layer's own scratch. The hot-path entry point.
    pub fn feed_into(&mut self, now: Tick, events: &[Event], out: &mut Vec<RoutedCommand>) {
        out.clear();
        self.now = self.now.max(now);
        // Expire health timers first: a device whose quarantine or
        // probation lapsed by this batch's timestamp is (in)eligible for
        // everything the batch routes.
        self.health.tick(self.now);
        let n = self.cores.len();
        let mut sub = std::mem::take(&mut self.sub);
        for s in sub.iter_mut() {
            s.clear();
        }
        let mut finished = std::mem::take(&mut self.finished);
        let mut ended = std::mem::take(&mut self.ended);
        let mut evacuate = std::mem::take(&mut self.evac);
        finished.clear();
        ended.clear();
        evacuate.clear();
        for ev in events {
            match *ev {
                Event::SessionOpened { session } => {
                    let d = self.device_of_or_assign(session);
                    sub[d].push(ev.clone());
                }
                Event::SessionClosed { session } | Event::SessionSevered { session } => {
                    let d = self.device_of_session(session).unwrap_or(0);
                    sub[d].push(ev.clone());
                    ended.push(session);
                }
                Event::LaunchRequested { session, lease, .. } => {
                    let d = self.device_for_lease(session, lease);
                    sub[d].push(ev.clone());
                }
                Event::KernelReady { session, lease, .. } => {
                    let d = self.device_for_lease(session, lease);
                    // A migrated or evacuated lease re-enters here on a
                    // device whose core may never have seen the session's
                    // declaration: re-declare ahead of the ready event so
                    // the SLO class survives the move.
                    if let Some(slot) = self.sessions.get(session) {
                        let class = self.session_slo[slot as usize];
                        if class != SloClass::BestEffort
                            && self.cores[d].session_slo(session) != class
                        {
                            sub[d].push(Event::SloArrival { session, class });
                        }
                    }
                    sub[d].push(ev.clone());
                }
                Event::KernelFinished { lease, .. } => {
                    let d = self.device_of_lease(lease).unwrap_or(0);
                    sub[d].push(ev.clone());
                    finished.push(lease);
                }
                Event::MallocRequested { session, .. } => {
                    let d = self.device_of_or_assign(session);
                    sub[d].push(ev.clone());
                }
                Event::DeadlineTick | Event::DrainBegan => {
                    for s in sub.iter_mut() {
                        s.push(ev.clone());
                    }
                }
                Event::DeviceDown { device, hard } => {
                    let d = device as usize;
                    if d < n {
                        // The event still reaches the device's core (a
                        // scheduling nudge); the health transition is the
                        // layer's.
                        sub[d].push(ev.clone());
                        if self.health.on_down(d, hard, self.now) {
                            evacuate.push(d);
                        }
                    }
                }
                Event::DeviceUp { device } => {
                    let d = device as usize;
                    if d < n {
                        sub[d].push(ev.clone());
                        self.health.on_up(d, self.now);
                    }
                }
                Event::SloArrival { session, class } => {
                    let d = self.device_of_or_assign_slo(session, class);
                    let slot = self.session_slot(session);
                    self.session_slo[slot] = class;
                    sub[d].push(ev.clone());
                }
            }
        }
        let mut core_out = std::mem::take(&mut self.core_out);
        for (d, batch) in sub.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            self.cores[d].feed_into(self.now, batch, &mut core_out);
            for command in core_out.drain(..) {
                // No `SessionClosed` follows a shed connect: its route goes
                // with the sessions that ended in this batch.
                if let Command::RejectOverloaded {
                    session,
                    scope: RejectScope::Session,
                    ..
                } = command
                {
                    ended.push(session);
                }
                out.push(RoutedCommand { device: d, command });
            }
        }
        self.core_out = core_out;
        // A landed eviction completes its migration: the lease's sticky
        // route flips to the target, so the re-fed KernelReady lands there.
        for lease in finished.drain(..) {
            if let Some(slot) = self.leases.get(lease) {
                let slot = slot as usize;
                if let Some(dst) = self.migrating[slot].take() {
                    self.migrating_count -= 1;
                    self.lease_device[slot] = Some(dst);
                    self.migrations_completed += 1;
                }
            }
        }
        for session in ended.drain(..) {
            self.sessions.release(session);
            let mut sweep = std::mem::take(&mut self.sweep);
            sweep.clear();
            sweep.extend(
                self.leases
                    .iter()
                    .filter(|&(slot, _)| self.lease_session[slot as usize] == Some(session))
                    .map(|(_, ext)| ext),
            );
            for &lease in &sweep {
                let slot = self.leases.release(lease).expect("swept lease is live") as usize;
                self.lease_session[slot] = None;
                self.lease_device[slot] = None;
                if self.migrating[slot].take().is_some() {
                    self.migrating_count -= 1;
                }
            }
            self.sweep = sweep;
        }
        // Evacuations run after the cores were fed, so work that became
        // resident or queued in this very batch is still moved off the
        // failed domain.
        for d in evacuate.drain(..) {
            self.evacuate_device(d, out);
        }
        if let Some(cmd) = self.maybe_rebalance() {
            out.push(cmd);
        }
        self.sub = sub;
        self.finished = finished;
        self.ended = ended;
        self.evac = evacuate;
        if let Some(batches) = &mut self.record {
            if is_recorded(events, out) {
                batches.push(PlacementBatch {
                    at: self.now,
                    events: events.to_vec(),
                    routed: out.clone(),
                });
            }
        }
    }

    fn maybe_rebalance(&mut self) -> Option<RoutedCommand> {
        // One migration in flight at a time: the load vector is stale
        // until the eviction lands, so a second fire would double-move.
        if self.rebalancer.is_none() || self.migrating_count != 0 {
            return None;
        }
        let mut loads = std::mem::take(&mut self.loads_buf);
        let mut eligible = std::mem::take(&mut self.eligible_buf);
        self.fill_loads(&mut loads);
        self.health.fill_eligibility(&mut eligible);
        let now = self.now;
        let cores = &self.cores;
        let rb = self.rebalancer.as_mut().expect("checked above");
        let m = rb.plan(now, &loads, &eligible, |src| cores[src].resident_leases());
        self.loads_buf = loads;
        self.eligible_buf = eligible;
        let m = m?;
        let slot = self.lease_slot(m.lease);
        if self.migrating[slot].is_none() {
            self.migrating_count += 1;
        }
        self.migrating[slot] = Some(m.dst);
        Some(RoutedCommand {
            device: m.src,
            command: Command::Evict { lease: m.lease },
        })
    }

    /// Mass-migrates every live lease (resident or waiting) off `src`,
    /// which just left service: one layer-synthesized [`Command::Evict`]
    /// per lease, each registered in `migrating` with a least-loaded
    /// in-service target, exactly like a rebalance migration. In-flight
    /// migrations *aimed at* `src` are retargeted too. With no in-service
    /// target the leases stay put and queue until a device recovers.
    fn evacuate_device(&mut self, src: usize, out: &mut Vec<RoutedCommand>) {
        let eligible = self.health.eligibility();
        let mut loads = self.loads();
        // Retarget migrations whose destination just died. Each retarget
        // feeds back into `loads`, so iteration order is part of the
        // replayed decision: sort by external lease id, matching the
        // ordered-map scan this used to be (the dense-slot rule).
        let mut aimed: Vec<u64> = self
            .leases
            .iter()
            .filter(|&(slot, _)| self.migrating[slot as usize] == Some(src))
            .map(|(_, ext)| ext)
            .collect();
        aimed.sort_unstable();
        for lease in aimed {
            if let Some(dst) = pick_target(&eligible, &loads, src) {
                loads[dst] += LOAD_WEIGHT_MS;
                let slot = self.lease_slot(lease);
                self.migrating[slot] = Some(dst);
            }
        }
        let mut victims = self.cores[src].resident_leases();
        victims.extend(self.cores[src].waiting_leases());
        victims.sort_unstable();
        victims.dedup();
        for lease in victims {
            let already = self
                .leases
                .get(lease)
                .is_some_and(|s| self.migrating[s as usize].is_some());
            if already {
                continue; // already on its way out (rebalance in flight)
            }
            let Some(dst) = pick_target(&eligible, &loads, src) else {
                return;
            };
            loads[dst] += LOAD_WEIGHT_MS;
            let slot = self.lease_slot(lease);
            if self.migrating[slot].is_none() {
                self.migrating_count += 1;
            }
            self.migrating[slot] = Some(dst);
            self.evacuations += 1;
            out.push(RoutedCommand {
                device: src,
                command: Command::Evict { lease },
            });
        }
    }
}

/// The least-loaded eligible device other than `src`; `None` when no
/// such device exists.
fn pick_target(eligible: &[bool], loads: &[u64], src: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for d in 0..eligible.len() {
        if d == src || !eligible[d] {
            continue;
        }
        if best.is_none_or(|b| loads[d] < loads[b]) {
            best = Some(d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::WorkloadClass::*;

    fn two_tiny() -> Vec<DeviceConfig> {
        vec![DeviceConfig::tiny(8), DeviceConfig::tiny(8)]
    }

    fn layer(policy: PlacementPolicy) -> PlacementLayer {
        PlacementLayer::new(
            two_tiny(),
            PlacementConfig {
                policy,
                ..Default::default()
            },
        )
    }

    fn ready(session: u64, lease: u64, demand: u32) -> Event {
        Event::KernelReady {
            session,
            lease,
            class: MM,
            sm_demand: demand,
            pinned_solo: false,
            deadline_ms: None,
        }
    }

    #[test]
    fn round_robin_alternates_sessions_across_devices() {
        let mut p = layer(PlacementPolicy::RoundRobin);
        p.feed(
            0,
            &[
                Event::SessionOpened { session: 1 },
                Event::SessionOpened { session: 2 },
                Event::SessionOpened { session: 3 },
            ],
        );
        assert_eq!(p.device_of_session(1), Some(0));
        assert_eq!(p.device_of_session(2), Some(1));
        assert_eq!(p.device_of_session(3), Some(0));
        assert_eq!(p.stats().sessions_routed, 3);
    }

    #[test]
    fn lease_events_follow_the_session_and_dispatch_on_its_device() {
        let mut p = layer(PlacementPolicy::RoundRobin);
        p.feed(
            0,
            &[
                Event::SessionOpened { session: 1 },
                Event::SessionOpened { session: 2 },
            ],
        );
        let out = p.feed(1, &[ready(1, 10, 8), ready(2, 20, 8)]);
        assert_eq!(
            out.iter()
                .map(|r| (r.device, r.command.clone()))
                .collect::<Vec<_>>(),
            vec![
                (
                    0,
                    Command::Dispatch {
                        lease: 10,
                        range: slate_gpu_sim::device::SmRange::all(8)
                    }
                ),
                (
                    1,
                    Command::Dispatch {
                        lease: 20,
                        range: slate_gpu_sim::device::SmRange::all(8)
                    }
                ),
            ]
        );
        assert_eq!(p.core(0).residents(), 1);
        assert_eq!(p.core(1).residents(), 1);
    }

    #[test]
    fn broadcast_events_reach_every_core() {
        let mut p = layer(PlacementPolicy::RoundRobin);
        p.feed(0, &[Event::DrainBegan]);
        assert!(p.core(0).draining());
        assert!(p.core(1).draining());
    }

    #[test]
    fn least_loaded_routes_away_from_busy_device() {
        let mut p = layer(PlacementPolicy::LeastLoaded);
        // First session lands on device 0 and queues profiled work.
        p.feed(0, &[Event::SessionOpened { session: 1 }]);
        p.feed(
            1,
            &[Event::LaunchRequested {
                session: 1,
                lease: 10,
                est_ms: Some(500),
                deadline_ms: None,
            }],
        );
        // The next session sees device 0 loaded and lands on device 1.
        p.feed(2, &[Event::SessionOpened { session: 2 }]);
        assert_eq!(p.device_of_session(2), Some(1));
    }

    #[test]
    fn session_end_clears_routes() {
        let mut p = layer(PlacementPolicy::RoundRobin);
        p.feed(0, &[Event::SessionOpened { session: 1 }]);
        p.feed(1, &[ready(1, 10, 8)]);
        assert_eq!(p.device_of_lease(10), Some(0));
        p.feed(2, &[Event::SessionClosed { session: 1 }]);
        assert_eq!(p.device_of_session(1), None);
        assert_eq!(p.device_of_lease(10), None);
    }

    #[test]
    fn a_shed_connect_leaves_no_route_behind() {
        let mut p = PlacementLayer::new(
            two_tiny(),
            PlacementConfig {
                arbiter: ArbiterConfig {
                    limits: crate::admission::AdmissionLimits {
                        max_sessions: Some(1),
                        ..Default::default()
                    },
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        for s in 1..=999 {
            p.feed(s, &[Event::SessionOpened { session: s }]);
        }
        // A declared class goes with its shed open, in the same batch.
        p.feed(
            1_000,
            &[
                Event::SloArrival {
                    session: 1_000,
                    class: SloClass::LatencyCritical,
                },
                Event::SessionOpened { session: 1_000 },
            ],
        );
        // Round robin admits one session per device; every later connect
        // is shed by its device's core and keeps no route.
        assert_eq!(p.device_of_session(1), Some(0));
        assert_eq!(p.device_of_session(2), Some(1));
        assert_eq!(p.device_of_session(3), None);
        assert_eq!(p.device_of_session(1_000), None);
        assert_eq!(p.sessions.iter().count(), 2);
        assert!(p
            .sessions
            .iter()
            .all(|(s, _)| p.session_slo[s as usize] == SloClass::BestEffort));
        assert_eq!(p.admission_stats().sessions_rejected, 998);
    }

    #[test]
    fn rebalance_evicts_on_source_and_reroutes_lease_to_target() {
        let mut p = PlacementLayer::new(
            two_tiny(),
            PlacementConfig {
                policy: PlacementPolicy::Affinity {
                    pins: [(1u64, 0usize), (2, 0)].into_iter().collect(),
                },
                rebalance: Some(RebalanceConfig {
                    high_ms: 20,
                    low_ms: 5,
                    cooldown_us: 0,
                    seed: 1,
                }),
                ..Default::default()
            },
        );
        // Everything pinned to device 0: one resident + one waiter piles
        // 20 ms of weighted load against an idle device 1.
        p.feed(
            0,
            &[
                Event::SessionOpened { session: 1 },
                Event::SessionOpened { session: 2 },
            ],
        );
        let out = p.feed(1, &[ready(1, 10, 8), ready(2, 20, 8)]);
        let evict = out
            .iter()
            .find(|r| matches!(r.command, Command::Evict { .. }))
            .expect("imbalance fires a migration eviction");
        assert_eq!(evict.device, 0, "eviction lands on the hot device");
        let Command::Evict { lease } = evict.command else {
            unreachable!()
        };
        assert_eq!(lease, 10, "the only resident is the victim");
        assert_eq!(p.migration_target(10), Some(1));
        assert_eq!(p.stats().rebalances, 1);
        // The eviction lands: finished routes to the source core, then
        // the lease's route flips to the target.
        let out = p.feed(
            2,
            &[Event::KernelFinished {
                lease: 10,
                ok: false,
            }],
        );
        assert_eq!(p.device_of_lease(10), Some(1));
        assert_eq!(p.migration_target(10), None);
        assert_eq!(p.stats().migrations_completed, 1);
        // Source core dispatched its waiter onto the freed device.
        assert!(out
            .iter()
            .any(|r| r.device == 0 && matches!(r.command, Command::Dispatch { lease: 20, .. })));
        // Re-staged readiness dispatches on the target device.
        let out = p.feed(3, &[ready(1, 10, 8)]);
        assert!(out
            .iter()
            .any(|r| r.device == 1 && matches!(r.command, Command::Dispatch { lease: 10, .. })));
    }

    #[test]
    fn single_device_layer_degenerates_to_the_bare_core() {
        let mut p = PlacementLayer::new(vec![DeviceConfig::titan_xp()], PlacementConfig::default());
        let mut bare = ArbiterCore::new(DeviceConfig::titan_xp(), ArbiterConfig::default());
        let script: Vec<(Tick, Vec<Event>)> = vec![
            (0, vec![Event::SessionOpened { session: 1 }]),
            (1, vec![ready(1, 10, 30)]),
            (2, vec![ready(1, 11, 14)]),
            (
                3,
                vec![Event::KernelFinished {
                    lease: 10,
                    ok: true,
                }],
            ),
            (4, vec![Event::DeadlineTick]),
            (5, vec![Event::SessionClosed { session: 1 }]),
        ];
        for (at, events) in script {
            let routed = p.feed(at, &events);
            let direct = bare.feed(at, &events);
            assert_eq!(routed.iter().map(|r| r.device).max().unwrap_or(0), 0);
            assert_eq!(
                routed.into_iter().map(|r| r.command).collect::<Vec<_>>(),
                direct
            );
        }
    }

    /// The error decoding a slot body that holds `layer` gives: a typed
    /// `InvalidData` naming the slot body.
    fn refused(layer: &PlacementLayer) -> String {
        use crate::durability::codec::{decode_snapshot, encode_snapshot};
        use crate::durability::{DurableMeta, DurableSnapshot};
        let snap = DurableSnapshot {
            epoch: 1,
            segment: 0,
            offset: 0,
            placement: layer.snapshot(),
            meta: DurableMeta::default(),
        };
        let mut body = Vec::new();
        encode_snapshot(&snap, &mut body);
        let err = decode_snapshot(&body).expect_err("an inconsistent body is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let why = err.to_string();
        assert!(why.starts_with("snapshot body: "), "{why}");
        why
    }

    /// Two devices, one session on device 1 with one lease.
    fn routed() -> PlacementLayer {
        let mut p = layer(PlacementPolicy::RoundRobin);
        p.feed(0, &[Event::SessionOpened { session: 1 }]);
        p.feed(0, &[Event::SessionOpened { session: 2 }]);
        p.feed(1, &[ready(2, 20, 8)]);
        assert_eq!(p.device_of_lease(20), Some(1));
        p
    }

    #[test]
    fn a_body_with_fewer_health_states_than_devices_is_refused() {
        let mut p = routed();
        p.health = HealthTracker::new(1);
        assert!(refused(&p).contains("health states"));
    }

    #[test]
    fn a_body_with_no_device_is_refused() {
        let mut p = routed();
        p.cores.clear();
        p.health = HealthTracker::new(0);
        assert!(refused(&p).contains("no device"));
    }

    #[test]
    fn a_session_routed_past_the_last_device_is_refused() {
        let mut p = routed();
        let slot = p.sessions.get(2).expect("routed") as usize;
        p.session_device[slot] = 5;
        assert!(refused(&p).contains("past the last"));
    }

    #[test]
    fn a_lease_routed_past_the_last_device_is_refused() {
        let mut p = routed();
        let slot = p.leases.get(20).expect("routed") as usize;
        p.lease_device[slot] = Some(2);
        assert!(refused(&p).contains("past the last"));
    }

    #[test]
    fn a_migration_aimed_past_the_last_device_is_refused() {
        let mut p = routed();
        let slot = p.leases.get(20).expect("routed") as usize;
        p.migrating[slot] = Some(2);
        p.migrating_count = 1;
        assert!(refused(&p).contains("past the last"));
    }

    #[test]
    fn rebalancer_state_without_its_configuration_is_refused() {
        let mut p = routed();
        p.rebalancer = Some(Rebalancer::new(RebalanceConfig::default()));
        assert!(refused(&p).contains("rebalancer"));
    }

    #[test]
    fn a_rebalance_configuration_without_its_state_is_refused() {
        let mut p = routed();
        p.config.rebalance = Some(RebalanceConfig::default());
        assert!(refused(&p).contains("rebalancer"));
    }

    /// What routing tolerates decodes: a pin past the last device (the
    /// policy falls back) and any round-robin cursor (scanned modulo the
    /// device count, past a failed device too).
    #[test]
    fn a_pin_or_cursor_past_the_last_device_restores() {
        let mut p = layer(PlacementPolicy::Affinity {
            pins: [(1u64, 7usize)].into_iter().collect(),
        });
        p.feed(
            0,
            &[Event::DeviceDown {
                device: 1,
                hard: true,
            }],
        );
        p.rr_next = usize::MAX;
        let mut restored = PlacementLayer::from_snapshot(p.snapshot());
        assert_eq!(restored.snapshot(), p.snapshot());
        let open = [
            Event::SessionOpened { session: 1 },
            Event::SessionOpened { session: 2 },
        ];
        assert_eq!(restored.feed(1, &open), p.feed(1, &open));
        for session in [1, 2] {
            assert_eq!(restored.device_of_session(session), Some(0));
            assert_eq!(p.device_of_session(session), Some(0));
        }
    }
}
