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
//!           broadcast DeadlineTick/DrainBegan · evacuation retarget
//!            │                  │                  │
//!       ArbiterCore 0      ArbiterCore 1  …   ArbiterCore N-1
//!            │                  │                  │
//!            └──────────┬───────┴───────┬──────────┘
//!                       ▼               ▼
//!            RoutedCommand { device, command }   (+ synthesized
//!                                 Evicts from evacuations)
//! ```
//!
//! Three invariants make the layer as replayable as the cores beneath it:
//!
//! 1. **Sticky deterministic routing** — a session's device is chosen
//!    once, by a pure [`PlacementPolicy`], and every later event of that
//!    session (and of its leases) follows it. No wall clocks; session and
//!    lease routes live in maps keyed by external id, and any walk of
//!    them whose order could reach the output sorts by external id
//!    first (see `DESIGN.md` §17).
//! 2. **Event-sourced evacuation** — when a device leaves service, each
//!    of its leases moves by an ordinary [`Command::Evict`] synthesized by
//!    the layer plus a route change for the lease; nothing else moves a
//!    lease between devices. The frontend evicts (capturing absolute
//!    `slateIdx` progress), feeds the `KernelFinished {ok: false}` back
//!    (routed to the *source* core, which cleans up), then re-stages with
//!    `WorkSpec::resuming` and
//!    re-feeds `KernelReady` — which now routes to the *target* core.
//! 3. **Per-core recording** — the layer's own [`replay::PlacementLog`]
//!    splits into N ordinary [`EventLog`](crate::arbiter::EventLog)s
//!    ([`replay::split`]) that verify byte-identically through the
//!    existing single-device machinery.

pub(crate) mod health;
pub mod multi;
pub(crate) mod policy;
pub mod replay;

#[doc(hidden)]
pub use health::HealthState;
pub use policy::PlacementPolicy;
pub use replay::PlacementBatch;
pub(crate) use replay::PlacementLog;

use crate::admission::CoreStats;
use crate::arbiter::replay::is_recorded;
use crate::arbiter::{by_id, ArbiterConfig, ArbiterCore, Command, Event, IdMap, RejectScope, Tick};
use crate::durability::codec::{
    put_entries, put_placement_config, put_slo, put_u64, put_usize, Decoded, Reader,
};
use health::HealthTracker;
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
/// included: each core bounds its own sessions and launches). The health
/// windows are constants of `health`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PlacementConfig {
    /// How new sessions choose a device.
    pub policy: PlacementPolicy,
    /// Configuration every per-device [`ArbiterCore`] runs under.
    pub arbiter: ArbiterConfig,
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
    pub(crate) devices: usize,
    /// Sessions routed to a device (policy consultations).
    pub sessions_routed: u64,
    /// Evacuations whose eviction has landed and whose lease now routes
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

/// A session's route.
#[derive(Debug)]
struct SessionRoute {
    /// The sticky device.
    device: usize,
    /// Declared SLO class (default best-effort).
    slo: SloClass,
}

/// A lease's route, until its session ends.
#[derive(Debug, Default)]
struct LeaseRoute {
    /// The sticky device (diverges from the session's after an
    /// evacuation).
    device: Option<usize>,
    /// Owning session, for cleanup when the session ends.
    session: Option<u64>,
    /// The target device of an in-flight migration: set when a device is
    /// evacuated, taken when the eviction's `KernelFinished` arrives.
    migrating: Option<usize>,
}

/// N per-device arbitration cores behind one deterministic router. See
/// the [module docs](self) for the invariants.
///
/// Routing is a map lookup by external id, and all per-feed working sets
/// (per-device event split, load vectors, eligibility masks, command
/// buffers) are layer-owned scratch that reuses its high-water capacity —
/// a steady-state [`PlacementLayer::feed_into`] call does not touch the
/// allocator.
#[derive(Debug)]
pub struct PlacementLayer {
    cores: Vec<ArbiterCore>,
    config: PlacementConfig,
    now: Tick,
    sessions: IdMap<SessionRoute>,
    leases: IdMap<LeaseRoute>,
    rr_next: usize,
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
            sessions: IdMap::with_capacity_and_hasher(SESSIONS, Default::default()),
            leases: IdMap::with_capacity_and_hasher(LEASES, Default::default()),
            rr_next: 0,
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
            record: None,
        }
    }

    /// Rebuilds a layer from a durable snapshot. The result behaves
    /// byte-identically to the layer that produced the snapshot. Recording
    /// is off until [`PlacementLayer::start_recording`] is called again.
    #[doc(hidden)]
    pub fn from_snapshot(snap: PlacementSnapshot) -> Self {
        let mut r = Reader { rest: &snap.body };
        Self::decode(&mut r).expect("a snapshot holds bytes that decode whole")
    }

    /// Captures the layer's complete state for a durable snapshot (see
    /// [`PlacementSnapshot`] for the invariant): the layer, encoded.
    pub fn snapshot(&self) -> PlacementSnapshot {
        // Room for a core's device, configuration and counters, and for
        // a few bytes of each id's routes: a larger body grows once.
        let ids = self.sessions.len() + self.leases.len();
        let mut body = Vec::with_capacity(256 * self.cores.len() + 32 * ids);
        self.encode(&mut body);
        PlacementSnapshot { body }
    }

    /// Appends the layer's part of a snapshot slot body, which
    /// [`PlacementLayer::decode`] reads back: the configuration, the
    /// clock, each core ([`ArbiterCore::encode`]), the routes as maps by
    /// external id, ascending, and the health tracker.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let Self {
            cores,
            config,
            now,
            sessions,
            leases,
            rr_next,
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
            // Recovery decides afresh whether to record.
            record: _,
        } = self;
        let sessions = by_id(sessions);
        let leases = by_id(leases);
        put_placement_config(out, config);
        put_u64(out, *now);
        put_usize(out, cores.len());
        for core in cores {
            core.encode(out);
        }
        put_entries(
            out,
            sessions.iter().map(|&(id, s)| (id, s.device)),
            put_usize,
        );
        let declared = sessions
            .iter()
            .filter(|(_, s)| s.slo != SloClass::BestEffort)
            .map(|&(id, s)| (id, s.slo));
        put_entries(out, declared, put_slo);
        let device = leases.iter().filter_map(|&(id, l)| Some((id, l.device?)));
        put_entries(out, device, put_usize);
        let session = leases.iter().filter_map(|&(id, l)| Some((id, l.session?)));
        put_entries(out, session, put_u64);
        let target = leases
            .iter()
            .filter_map(|&(id, l)| Some((id, l.migrating?)));
        put_entries(out, target, put_usize);
        put_usize(out, *rr_next);
        health.encode(out);
        for v in [sessions_routed, migrations_completed, evacuations] {
            put_u64(out, *v);
        }
    }

    /// Rebuilds a layer from the bytes [`PlacementLayer::encode`] wrote.
    /// Bytes no layer could have written are an error, not a layer that
    /// panics later: no device, a health state count other than the device
    /// count, and a session, lease or migration routed past the last
    /// device.
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
            layer.session(session).device = d;
        }
        for (session, class) in r.pairs(Reader::slo)? {
            layer.session(session).slo = class;
        }
        for (lease, d) in r.pairs(device)? {
            layer.leases.entry(lease).or_default().device = Some(d);
        }
        for (lease, session) in r.pairs(Reader::u64)? {
            layer.leases.entry(lease).or_default().session = Some(session);
        }
        for (lease, d) in r.pairs(device)? {
            layer.leases.entry(lease).or_default().migrating = Some(d);
        }
        layer.rr_next = r.usize()?;
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
    #[doc(hidden)]
    pub fn devices(&self) -> usize {
        self.cores.len()
    }

    /// The per-device core at `device`.
    pub fn core(&self, device: usize) -> &ArbiterCore {
        &self.cores[device]
    }

    /// The active configuration.
    pub(crate) fn config(&self) -> &PlacementConfig {
        &self.config
    }

    /// The device `session` is routed to, if it has been routed.
    pub fn device_of_session(&self, session: u64) -> Option<usize> {
        self.sessions.get(&session).map(|s| s.device)
    }

    /// The device `lease` is routed to, if known. After an evacuation's
    /// eviction lands this is the *target* device — frontends re-stage
    /// the evicted kernel here.
    pub fn device_of_lease(&self, lease: u64) -> Option<usize> {
        self.leases.get(&lease).and_then(|l| l.device)
    }

    /// The migration target of `lease` while its eviction is still in
    /// flight (`None` otherwise). Frontends use this to distinguish an
    /// evacuation eviction (re-stage on the target) from a watchdog
    /// eviction (drop).
    #[doc(hidden)]
    pub fn migration_target(&self, lease: u64) -> Option<usize> {
        self.leases.get(&lease).and_then(|l| l.migrating)
    }

    /// The health state of `device`, as of the last fed batch.
    #[doc(hidden)]
    pub fn health_of(&self, device: usize) -> HealthState {
        self.health.state(device)
    }

    /// The load metric of `device`: estimated pending milliseconds plus
    /// a fixed per-kernel weight (`LOAD_WEIGHT_MS`) per resident or
    /// waiting kernel. Used by the least-loaded policy and to pick
    /// evacuation targets.
    fn device_load(&self, device: usize) -> u64 {
        let core = &self.cores[device];
        core.pending_est_ms + LOAD_WEIGHT_MS * (core.residents() + core.waiting()) as u64
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
    #[doc(hidden)]
    pub fn residents(&self) -> usize {
        self.cores.iter().map(|c| c.residents()).sum()
    }

    /// Every device's core counters summed: one read for the fleet.
    /// `queue.capacity` is the per-core bound, not a fleet-wide sum.
    pub fn core_stats(&self) -> CoreStats {
        self.cores.iter().map(ArbiterCore::stats).sum()
    }

    /// Snapshot of the placement counters.
    #[doc(hidden)]
    pub fn stats(&self) -> PlacementStats {
        PlacementStats {
            devices: self.cores.len(),
            sessions_routed: self.sessions_routed,
            migrations_completed: self.migrations_completed,
            devices_out: (0..self.cores.len())
                .filter(|&d| self.health.state(d).out_of_service())
                .count(),
            evacuations: self.evacuations,
        }
    }

    /// Starts recording the layer's routed batches. The per-core logs are
    /// not kept: [`replay::split`] derives them from this one.
    #[doc(hidden)]
    pub fn start_recording(&mut self) {
        self.record = Some(Vec::new());
    }

    /// Takes the placement-level log (if recording was started).
    #[doc(hidden)]
    pub fn take_log(&mut self) -> Option<PlacementLog> {
        self.record.take().map(|batches| PlacementLog {
            devices: self.device_list(),
            config: self.config.clone(),
            batches,
        })
    }

    /// The route of `session`, created on device 0 and best-effort if
    /// absent.
    fn session(&mut self, session: u64) -> &mut SessionRoute {
        self.sessions.entry(session).or_insert(SessionRoute {
            device: 0,
            slo: SloClass::BestEffort,
        })
    }

    fn fill_session_counts(&self, buf: &mut Vec<usize>) {
        buf.clear();
        buf.resize(self.cores.len(), 0);
        for s in self.sessions.values() {
            buf[s.device] += 1;
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
        if let Some(s) = self.sessions.get(&session) {
            return s.device;
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
        self.session(session).device = d;
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
        if let Some(s) = self.sessions.get(&session) {
            return s.device;
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
        self.session(session).device = best;
        self.sessions_routed += 1;
        best
    }

    /// Routes a lease-scoped event: the lease's sticky route if it has
    /// one (it diverges from the session's after an evacuation), else the
    /// session's. A session stuck to an out-of-service device sends its
    /// *new* leases to the least-loaded in-service one instead — the
    /// session route stays sticky for when the device returns, but no
    /// fresh work lands on a dead device.
    fn device_for_lease(&mut self, session: u64, lease: u64) -> usize {
        let d = match self.device_of_lease(lease) {
            Some(d) => d,
            None => {
                let mut d = self.device_of_or_assign(session);
                if self.health.state(d).out_of_service() {
                    if let Some(alt) = pick_target(&self.health.eligibility(), &self.loads(), d) {
                        d = alt;
                    }
                }
                d
            }
        };
        let route = self.leases.entry(lease).or_default();
        route.device = Some(d);
        route.session = Some(session);
        d
    }

    /// Feeds one batch of frontend events at logical time `now`, routing
    /// each to its device's core, and returns every resulting command
    /// tagged with its device — including any evacuation evictions the
    /// layer synthesized this batch, which follow the cores' commands.
    /// The cores' commands come out in device order (all of device 0's,
    /// then device 1's, …), each device's in its core's emission order.
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
                    // An evacuated lease re-enters here on a device
                    // whose core may never have seen the session's
                    // declaration: re-declare ahead of the ready event so
                    // the SLO class survives the move.
                    if let Some(&SessionRoute { slo: class, .. }) = self.sessions.get(&session) {
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
                    self.session(session).slo = class;
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
            if let Some(route) = self.leases.get_mut(&lease) {
                if let Some(dst) = route.migrating.take() {
                    route.device = Some(dst);
                    self.migrations_completed += 1;
                }
            }
        }
        for session in ended.drain(..) {
            self.sessions.remove(&session);
            self.leases.retain(|_, l| l.session != Some(session));
        }
        // Evacuations run after the cores were fed, so work that became
        // resident or queued in this very batch is still moved off the
        // failed domain.
        for d in evacuate.drain(..) {
            self.evacuate_device(d, out);
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

    /// Mass-migrates every live lease (resident or waiting) off `src`,
    /// which just left service: one layer-synthesized [`Command::Evict`]
    /// per lease, each registered in `migrating` with a least-loaded
    /// in-service target. In-flight evacuations *aimed at* `src` are
    /// retargeted too. With no in-service target the leases stay put and
    /// queue until a device recovers.
    fn evacuate_device(&mut self, src: usize, out: &mut Vec<RoutedCommand>) {
        let eligible = self.health.eligibility();
        let mut loads = self.loads();
        // Retarget evacuations whose destination just died. Each retarget
        // feeds back into `loads`, so iteration order is part of the
        // replayed decision: sort by external lease id.
        let mut aimed: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.migrating == Some(src))
            .map(|(&lease, _)| lease)
            .collect();
        aimed.sort_unstable();
        for lease in aimed {
            if let Some(dst) = pick_target(&eligible, &loads, src) {
                loads[dst] += LOAD_WEIGHT_MS;
                self.leases.entry(lease).or_default().migrating = Some(dst);
            }
        }
        let mut victims = self.cores[src].resident_leases();
        victims.extend(self.cores[src].waiting_leases());
        victims.sort_unstable();
        victims.dedup();
        for lease in victims {
            if self.migration_target(lease).is_some() {
                continue; // already on its way out (an earlier evacuation)
            }
            let Some(dst) = pick_target(&eligible, &loads, src) else {
                return;
            };
            loads[dst] += LOAD_WEIGHT_MS;
            self.leases.entry(lease).or_default().migrating = Some(dst);
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
    use crate::admission::AdmissionLimits;
    use crate::classify::WorkloadClass::*;
    use slate_gpu_sim::device::SmRange;

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
        assert_eq!(p.sessions.len(), 2);
        assert!(p.sessions.values().all(|s| s.slo == SloClass::BestEffort));
        assert_eq!(p.core_stats().admission.sessions_rejected, 998);
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

    /// Every count of the fleet's `core_stats` is the sum of the cores'
    /// own, field by field; the queue capacity is the per-core bound.
    #[test]
    fn fleet_stats_sum_the_cores_field_by_field() {
        let mut p = PlacementLayer::new(
            two_tiny(),
            PlacementConfig {
                policy: PlacementPolicy::RoundRobin,
                arbiter: ArbiterConfig {
                    limits: AdmissionLimits {
                        max_pending_global: Some(2),
                        ..Default::default()
                    },
                    ..Default::default()
                },
            },
        );
        // Sessions 1 and 3 on device 0, 2 and 4 on device 1.
        let open: Vec<_> = (1..=4)
            .map(|session| Event::SessionOpened { session })
            .collect();
        p.feed(0, &open);
        let launch = |session, lease, est| Event::LaunchRequested {
            session,
            lease,
            est_ms: Some(est),
            deadline_ms: None,
        };
        // Device 0 sheds its third launch at the bound of two.
        p.feed(1, &[launch(1, 10, 5), launch(3, 30, 7), launch(1, 11, 9)]);
        p.feed(2, &[launch(2, 20, 4), launch(4, 40, 6)]);
        p.feed(3, &[ready(1, 10, 8), ready(2, 20, 8)]);
        let finished = |lease, ok| Event::KernelFinished { lease, ok };
        p.feed(4, &[finished(10, true), finished(20, false)]);
        p.feed(5, &[Event::SessionSevered { session: 4 }]);

        let [a, b] = [0, 1].map(|d| p.cores[d].stats());
        let fleet = p.core_stats();
        let (q, qa, qb) = (fleet.queue, a.queue, b.queue);
        assert_eq!(q.depth, qa.depth + qb.depth);
        assert_eq!(q.high_water, qa.high_water + qb.high_water);
        assert_eq!(q.admitted, qa.admitted + qb.admitted);
        assert_eq!(q.shed, qa.shed + qb.shed);
        assert_eq!((qa.capacity, qb.capacity), (Some(2), Some(2)));
        assert_eq!(q.capacity, Some(2), "the per-core bound, not a sum");
        let (s, sa, sb) = (fleet.admission, a.admission, b.admission);
        assert_eq!(s.active_sessions, sa.active_sessions + sb.active_sessions);
        assert_eq!(
            s.sessions_admitted,
            sa.sessions_admitted + sb.sessions_admitted
        );
        assert_eq!(
            s.sessions_rejected,
            sa.sessions_rejected + sb.sessions_rejected
        );
        assert_eq!(
            s.launches_completed,
            sa.launches_completed + sb.launches_completed
        );
        assert_eq!(s.launches_failed, sa.launches_failed + sb.launches_failed);
        assert_eq!(
            s.deadline_rejections,
            sa.deadline_rejections + sb.deadline_rejections
        );
        assert_eq!(s.mallocs_shed, sa.mallocs_shed + sb.mallocs_shed);
        assert_eq!(s.pending_est_ms, sa.pending_est_ms + sb.pending_est_ms);
        assert_eq!(fleet.evictions, a.evictions + b.evictions);
        assert_eq!(fleet.promotions, a.promotions + b.promotions);
        assert_eq!(fleet.preemptions, a.preemptions + b.preemptions);
        assert_eq!(fleet.reaped, a.reaped + b.reaped);
        // Both devices contribute.
        assert!(
            qa.shed > 0 && qa.admitted > 0 && qb.admitted > 0,
            "{a:?} {b:?}"
        );
        assert!(
            sa.launches_completed > 0 && sb.launches_failed > 0,
            "{a:?} {b:?}"
        );
        assert!(sa.pending_est_ms > 0 && b.reaped > 0, "{a:?} {b:?}");
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
        p.sessions.get_mut(&2).expect("routed").device = 5;
        assert!(refused(&p).contains("past the last"));
    }

    /// A resident's SM range ending past its device, up to `u32::MAX`
    /// wide, would restore and then overflow `free_sms`' sum; so would a
    /// lease's last range. Each is refused.
    #[test]
    fn an_sm_range_past_the_device_is_refused() {
        // Lease 20 resident again after a first run: a resident range and
        // a last range.
        let layer = || {
            let mut p = routed();
            let finished = Event::KernelFinished {
                lease: 20,
                ok: true,
            };
            p.feed(2, &[finished]);
            p.feed(3, &[ready(2, 20, 8)]);
            p
        };
        assert_eq!(layer().cores[1].ranges_mut().count(), 2);
        let sms = layer().cores[1].device().num_sms;
        for which in 0..2 {
            for hi in [sms, u32::MAX] {
                let mut p = layer();
                let range = p.cores[1].ranges_mut().nth(which).unwrap();
                *range = SmRange { lo: 0, hi };
                assert!(refused(&p).contains("SM range"), "range {which}: 0..={hi}");
            }
        }
    }

    /// Residents share a device only on disjoint SM ranges; a body whose
    /// residents overlap is refused. Last ranges are hints and may
    /// overlap a resident's.
    #[test]
    fn overlapping_resident_ranges_are_refused() {
        // Two complementary kernels co-running on device 0, and a last
        // range on device 1 from lease 20's first run.
        let corun = || {
            let mut p = routed();
            let finished = Event::KernelFinished {
                lease: 20,
                ok: true,
            };
            p.feed(2, &[finished]);
            let kernel = |lease, class| Event::KernelReady {
                session: 1,
                lease,
                class,
                sm_demand: 4,
                pinned_solo: false,
                deadline_ms: None,
            };
            p.feed(3, &[kernel(10, HM), kernel(11, LC)]);
            p
        };
        assert_eq!(corun().cores[0].ranges_mut().count(), 2);
        let mut p = corun();
        let ranges: Vec<SmRange> = p.cores[0].ranges_mut().map(|r| *r).collect();
        assert!(!ranges[0].overlaps(&ranges[1]), "{ranges:?}");
        *p.cores[0].ranges_mut().nth(1).unwrap() = ranges[0];
        assert!(refused(&p).contains("overlap"));

        // Lease 20 runs again on the SMs it last held: its last range
        // overlaps its resident range, and that restores.
        let mut p = corun();
        p.feed(4, &[ready(2, 20, 8)]);
        let ranges: Vec<SmRange> = p.cores[1].ranges_mut().map(|r| *r).collect();
        assert!(ranges[0].overlaps(&ranges[1]), "{ranges:?}");
        let restored = PlacementLayer::from_snapshot(p.snapshot());
        assert_eq!(restored.snapshot(), p.snapshot());
    }

    #[test]
    fn a_lease_routed_past_the_last_device_is_refused() {
        let mut p = routed();
        p.leases.get_mut(&20).expect("routed").device = Some(2);
        assert!(refused(&p).contains("past the last"));
    }

    #[test]
    fn a_migration_aimed_past_the_last_device_is_refused() {
        let mut p = routed();
        p.leases.get_mut(&20).expect("routed").migrating = Some(2);
        assert!(refused(&p).contains("past the last"));
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
