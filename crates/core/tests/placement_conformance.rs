//! Conformance suite for the multi-device placement layer.
//!
//! Three families of guarantees, pinned against every routing policy and
//! a range of device counts:
//!
//! 1. **Routing conformance** — every session lands on exactly one valid
//!    device, the route is sticky for the session's lifetime, lease
//!    events follow it, and jobs driven through simulated backends
//!    complete exactly once wherever they land (including across a
//!    mid-flight evacuation): every staging resumes at the progress its
//!    lease's last completion carried, and the last drains at `slateMax`.
//! 2. **Determinism** — the layer is a pure function of its event
//!    script: the same script through two fresh layers produces
//!    byte-identical transcripts. This is the test that catches a map
//!    with nondeterministic iteration order sneaking back onto the
//!    decision path (the reason the layer and the profile table use
//!    ordered maps throughout).
//! 3. **Golden fixture** — a checked-in multi-device recording
//!    (`tests/data/placement_log.json`) replays byte-identically, splits
//!    into per-device `EventLog`s that verify through the single-device
//!    replay machinery, and is reproduced exactly by a fresh run of the
//!    fixture script.
//! 4. **Failure domains** — killing one device of a live fleet
//!    mid-churn loses no user block and duplicates none (carried
//!    progress), the recording of the failure run replays
//!    byte-identically, and a second golden fixture
//!    (`tests/data/placement_failure_log.json`) pins the evacuation +
//!    probation re-admission decision sequence. The seeded soak that
//!    rolls losses across a live fleet runs against the daemon, in
//!    `daemon_conformance.rs`.
//!
//! After an *intended* placement change, regenerate the fixtures with
//! `cargo test -p slate-core --test placement_conformance -- --ignored`.

mod support;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use slate_core::arbiter::{replay as core_replay, Command, Event, Tick};
use slate_core::backend::{Backend, Completion, DeviceFault, DeviceHealth, SimBackend, WorkSpec};
use slate_core::classify::WorkloadClass;
use slate_core::placement::replay::{self as placement_replay, PlacementLog};
use slate_core::placement::{MultiJob, MultiSim, PlacementConfig, PlacementLayer, PlacementPolicy};
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use support::testkit::churn_kernel;

const LOG_JSON: &str = include_str!("data/placement_log.json");
const GOLDEN_TRANSCRIPT: &str = include_str!("data/placement_transcript.txt");
const FAILURE_LOG_JSON: &str = include_str!("data/placement_failure_log.json");
const FAILURE_TRANSCRIPT: &str = include_str!("data/placement_failure_transcript.txt");

/// The policies under test. Affinity pins odd sessions to the last
/// device so both the pinned and the round-robin fallback paths run.
fn policies(devices: usize) -> Vec<PlacementPolicy> {
    let pins: BTreeMap<u64, usize> = (0..16u64)
        .filter(|s| s % 2 == 1)
        .map(|s| (s, devices - 1))
        .collect();
    vec![
        PlacementPolicy::RoundRobin,
        PlacementPolicy::LeastLoaded,
        PlacementPolicy::Affinity { pins },
    ]
}

fn ready(session: u64, lease: u64, demand: u32) -> Event {
    Event::KernelReady {
        session,
        lease,
        class: if lease % 3 == 0 {
            WorkloadClass::MM
        } else {
            WorkloadClass::LC
        },
        sm_demand: demand,
        pinned_solo: false,
        deadline_ms: None,
    }
}

/// A deterministic event script over `sessions` sessions: open, launch a
/// kernel or two, finish, close — with demands and interleaving derived
/// from `seed` via a xorshift stream (no ambient randomness).
fn script(sessions: u64, seed: u64) -> Vec<(Tick, Vec<Event>)> {
    let mut s = seed | 1;
    let mut rng = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut out: Vec<(Tick, Vec<Event>)> = Vec::new();
    let mut t: Tick = 0;
    for session in 0..sessions {
        t += 10;
        out.push((t, vec![Event::SessionOpened { session }]));
        let launches = 1 + rng() % 2;
        for k in 0..launches {
            let lease = session * 10 + k;
            let demand = 1 + (rng() % 8) as u32;
            t += 10;
            out.push((t, vec![ready(session, lease, demand)]));
        }
        if session % 2 == 0 {
            t += 10;
            out.push((t, vec![Event::DeadlineTick]));
        }
        for k in 0..launches {
            let lease = session * 10 + k;
            t += 10;
            out.push((t, vec![Event::KernelFinished { lease, ok: true }]));
        }
        t += 10;
        out.push((t, vec![Event::SessionClosed { session }]));
    }
    out
}

/// Runs `script` through a fresh recording layer and returns its log.
fn record(devices: usize, policy: PlacementPolicy, sc: &[(Tick, Vec<Event>)]) -> PlacementLog {
    let mut layer = PlacementLayer::new(
        (0..devices).map(|_| DeviceConfig::tiny(8)).collect(),
        PlacementConfig {
            policy,
            ..Default::default()
        },
    );
    layer.start_recording();
    for (at, events) in sc {
        layer.feed(*at, events);
    }
    layer.take_log().expect("recording was on")
}

/// What a fleet did with each lease, in order: the carried start of every
/// staging and the progress every completion reported.
type Ledger = Rc<RefCell<BTreeMap<u64, Vec<Step>>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Staged { start: u64 },
    Finished(Completion),
}

/// A [`SimBackend`] that writes every staging and completion into the
/// ledger the whole fleet shares.
struct Ledgered {
    inner: SimBackend,
    ledger: Ledger,
}

impl Backend for Ledgered {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn device(&self) -> &DeviceConfig {
        self.inner.device()
    }
    fn stage(&mut self, lease: u64, spec: WorkSpec) {
        let step = Step::Staged { start: spec.start };
        self.ledger
            .borrow_mut()
            .entry(lease)
            .or_default()
            .push(step);
        self.inner.stage(lease, spec);
    }
    fn apply(&mut self, cmd: &Command) {
        self.inner.apply(cmd);
    }
    fn poll(&mut self) -> Option<Completion> {
        let c = self.inner.poll()?;
        let step = Step::Finished(c);
        self.ledger
            .borrow_mut()
            .entry(c.lease)
            .or_default()
            .push(step);
        Some(c)
    }
    fn advance(&mut self, millis: u64) {
        self.inner.advance(millis);
    }
    fn progress(&self, lease: u64) -> u64 {
        self.inner.progress(lease)
    }
    fn held_range(&self, lease: u64) -> Option<SmRange> {
        self.inner.held_range(lease)
    }
    fn health(&self) -> DeviceHealth {
        self.inner.health()
    }
    fn inject_device_fault(&mut self, fault: DeviceFault) {
        self.inner.inject_device_fault(fault);
    }
}

/// A fleet of `devices` simulated `tiny(4)` devices sharing one ledger.
fn ledgered_fleet(devices: usize, config: PlacementConfig) -> (MultiSim, Ledger) {
    let ledger = Ledger::default();
    let backends = (0..devices)
        .map(|_| {
            Box::new(Ledgered {
                inner: SimBackend::new(DeviceConfig::tiny(4)),
                ledger: ledger.clone(),
            }) as Box<dyn Backend>
        })
        .collect();
    (MultiSim::with_backends(backends, config), ledger)
}

/// Exactly once by carried progress: `lease` was first staged at 0, every
/// later staging resumed at the progress of the completion before it,
/// every completion but the last was a partial eviction or loss, and the
/// last drained at `total` (`slateMax`). Returns the number of stagings.
fn assert_carried(ledger: &Ledger, lease: u64, total: u64) -> usize {
    let ledger = ledger.borrow();
    let steps = ledger.get(&lease).map_or(&[][..], Vec::as_slice);
    assert!(!steps.is_empty(), "lease {lease} was never staged");
    let mut carried = 0;
    for (i, pair) in steps.chunks(2).enumerate() {
        let [Step::Staged { start }, Step::Finished(c)] = *pair else {
            panic!("lease {lease}: staging {i} not followed by one completion: {steps:?}");
        };
        assert_eq!(
            start, carried,
            "lease {lease}: staging {i} resumed off its last completion"
        );
        assert!(
            c.progress >= start,
            "lease {lease}: progress went backwards"
        );
        let last = 2 * i + 2 == steps.len();
        assert_eq!(
            c.ok, last,
            "lease {lease}: only the last staging drains: {steps:?}"
        );
        carried = c.progress;
    }
    assert_eq!(carried, total, "lease {lease} ended at slateMax");
    steps.len() / 2
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every session routes to exactly one in-range device, stays there
    /// for its whole lifetime, and its leases follow it — for every
    /// policy at every device count.
    #[test]
    fn sessions_land_on_exactly_one_device(devices in 1usize..5, sessions in 1u64..10,
                                           seed in 1u64..u64::MAX) {
        for policy in policies(devices) {
            let mut layer = PlacementLayer::new(
                (0..devices).map(|_| DeviceConfig::tiny(8)).collect(),
                PlacementConfig { policy: policy.clone(), ..Default::default() },
            );
            let mut routes: BTreeMap<u64, usize> = BTreeMap::new();
            for (at, events) in script(sessions, seed) {
                let routed = layer.feed(at, &events);
                for r in &routed {
                    prop_assert!(r.device < devices, "{policy:?}: device out of range");
                }
                for ev in &events {
                    let (session, lease) = match *ev {
                        Event::SessionOpened { session } => (session, None),
                        Event::KernelReady { session, lease, .. } => (session, Some(lease)),
                        _ => continue,
                    };
                    let d = layer.device_of_session(session)
                        .expect("open session is routed");
                    prop_assert!(d < devices);
                    // Sticky: the first observed route never changes.
                    let first = *routes.entry(session).or_insert(d);
                    prop_assert_eq!(first, d, "{:?}: session moved devices", policy);
                    if let Some(lease) = lease {
                        prop_assert_eq!(layer.device_of_lease(lease), Some(d),
                            "{:?}: lease strayed from its session", policy);
                    }
                }
            }
            // Everything closed: routing tables are empty again and the
            // per-core aggregates agree with the sum over cores.
            for s in 0..sessions {
                prop_assert_eq!(layer.device_of_session(s), None);
            }
            let per_core: usize = (0..devices).map(|d| layer.core(d).residents()).sum();
            prop_assert_eq!(layer.residents(), per_core);
            prop_assert_eq!(layer.stats().sessions_routed, sessions);
        }
    }

    /// The layer is deterministic: one script, two fresh layers, equal
    /// command streams. An unordered map feeding routing or arbitration
    /// decisions fails this within a handful of cases.
    #[test]
    fn identical_scripts_replay_identically(devices in 1usize..5, sessions in 1u64..10,
                                            seed in 1u64..u64::MAX) {
        for policy in policies(devices) {
            let sc = script(sessions, seed);
            let a = record(devices, policy.clone(), &sc);
            let b = record(devices, policy.clone(), &sc);
            prop_assert_eq!(
                placement_replay::transcript(&a.batches),
                placement_replay::transcript(&b.batches),
                "{:?}: two fresh runs of one script diverged", policy
            );
            placement_replay::verify(&a)
                .map_err(|e| TestCaseError::fail(format!("{policy:?}: {e}")))?;
            // And the split per-core logs verify through the
            // single-device machinery.
            let cores = placement_replay::split(&a)
                .map_err(|e| TestCaseError::fail(format!("{policy:?}: {e}")))?;
            prop_assert_eq!(cores.len(), devices);
            for (i, core_log) in cores.iter().enumerate() {
                core_replay::verify(core_log)
                    .map_err(|e| TestCaseError::fail(format!("core {i}: {e}")))?;
            }
        }
    }
}

/// Jobs complete exactly once on every policy × device count, carried
/// progress proving no block ran twice or was lost.
#[test]
fn every_policy_completes_jobs_exactly_once() {
    for devices in 1usize..=3 {
        for policy in policies(devices) {
            let (mut fleet, ledger) = ledgered_fleet(
                devices,
                PlacementConfig {
                    policy: policy.clone(),
                    ..Default::default()
                },
            );
            let total: u32 = 120;
            for session in 0..4u64 {
                let kernel = churn_kernel(total, 0);
                assert!(
                    fleet.submit(MultiJob {
                        session,
                        lease: session,
                        kernel,
                        task_size: 4,
                        class: WorkloadClass::MM,
                        sm_demand: 4,
                        est_ms: Some(5),
                    }),
                    "{policy:?}/{devices}: job must be admitted"
                );
            }
            assert!(fleet.run(60_000), "{policy:?}/{devices}: fleet must drain");
            for lease in 0..4u64 {
                assert_carried(&ledger, lease, total as u64);
                let outcome = fleet.outcome(lease).expect("job has an outcome");
                match outcome {
                    slate_core::placement::multi::JobOutcome::Completed { device } => {
                        assert!(device < devices, "{policy:?}: completed off-fleet")
                    }
                    other => panic!("{policy:?}/{devices}: lease {lease} ended {other:?}"),
                }
            }
            assert_eq!(fleet.stats().sessions_routed, 4);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Killing one device of a live fleet mid-churn loses no user block and
    /// duplicates none: every job still completes exactly once (carried
    /// progress across its stagings), and the recording of the whole
    /// run — failure, evacuation and all — replays byte-identically and
    /// splits into per-core logs that verify.
    #[test]
    fn killing_one_device_mid_churn_keeps_exactly_once(devices in 2usize..=3,
                                                       victim_pick in 0usize..16,
                                                       kill_at in 1u64..4) {
        let victim = victim_pick % devices;
        let (mut fleet, ledger) = ledgered_fleet(devices, PlacementConfig::default());
        fleet.layer_mut().start_recording();
        let total: u32 = 400;
        for session in 0..devices as u64 {
            let kernel = churn_kernel(total, 30);
            prop_assert!(fleet.submit(MultiJob {
                session,
                lease: session,
                kernel,
                task_size: 4,
                class: WorkloadClass::MM,
                sm_demand: 4,
                est_ms: Some(20),
            }));
        }
        for _ in 0..kill_at {
            fleet.tick();
        }
        fleet.fail_device(victim);
        prop_assert!(fleet.run(120_000), "a fleet with a dead device must still drain");
        for lease in 0..devices as u64 {
            assert_carried(&ledger, lease, total as u64);
            match fleet.outcome(lease) {
                Some(slate_core::placement::multi::JobOutcome::Completed { device }) => {
                    prop_assert!(device < devices);
                }
                other => {
                    return Err(TestCaseError::fail(format!("lease {lease} ended {other:?}")));
                }
            }
        }
        let log = fleet.layer_mut().take_log().expect("recording was on");
        placement_replay::verify(&log).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let cores = placement_replay::split(&log)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        for (i, core_log) in cores.iter().enumerate() {
            core_replay::verify(core_log)
                .map_err(|e| TestCaseError::fail(format!("core {i}: {e}")))?;
        }
    }
}

/// The fixed workload behind the golden fixture: three devices under the
/// affinity policy, sessions 1–3 pinned to device 0 and session 4 to
/// device 2, so the recording exercises dispatch, a co-run (a dispatch
/// beside a resize on device 0), queueing, a waiter dispatched when a
/// resident finishes, and routing across two devices — all in one
/// deterministic script.
fn record_fixture_run() -> PlacementLog {
    let pins: BTreeMap<u64, usize> = [(1u64, 0usize), (2, 0), (3, 0), (4, 2)]
        .into_iter()
        .collect();
    let mut layer = PlacementLayer::new(
        vec![
            DeviceConfig::tiny(8),
            DeviceConfig::tiny(8),
            DeviceConfig::tiny(16),
        ],
        PlacementConfig {
            policy: PlacementPolicy::Affinity { pins },
            ..Default::default()
        },
    );
    layer.start_recording();
    let sessions = [1u64, 2, 3, 4];
    let open = sessions.map(|session| Event::SessionOpened { session });
    layer.feed(0, &open);
    // Three kernels piled onto device 0: two co-run, one waits; the
    // fourth runs alone on device 2.
    layer.feed(
        10,
        &[
            ready(1, 10, 8),
            ready(2, 20, 8),
            ready(3, 30, 8),
            ready(4, 40, 8),
        ],
    );
    // A resident finishes and the waiter dispatches in its place.
    for (at, lease) in [(20, 10), (30, 20), (40, 30), (50, 40)] {
        layer.feed(at, &[Event::KernelFinished { lease, ok: true }]);
    }
    let close = sessions.map(|session| Event::SessionClosed { session });
    layer.feed(60, &close);
    layer.take_log().expect("recording was on")
}

/// The fixed workload behind the device-failure golden fixture: three
/// devices round-robin, one session per device, then device 0 hard-fails
/// mid-flight. The recording pins the whole failure-domain decision
/// sequence: the evacuation's synthesized `Evict`, the route flip on its
/// `KernelFinished`, the re-staged dispatch on the target, the seeded
/// probation after `DeviceUp`, and the re-admission of the healed device
/// as a routing target once probation expires.
fn record_failure_fixture_run() -> PlacementLog {
    let mut layer = PlacementLayer::new(
        vec![
            DeviceConfig::tiny(8),
            DeviceConfig::tiny(8),
            DeviceConfig::tiny(8),
        ],
        PlacementConfig::default(),
    );
    layer.start_recording();
    layer.feed(
        0,
        &[
            Event::SessionOpened { session: 1 },
            Event::SessionOpened { session: 2 },
            Event::SessionOpened { session: 3 },
        ],
    );
    layer.feed(10, &[ready(1, 10, 8), ready(2, 20, 8), ready(3, 30, 8)]);
    // Device 0 drops off the bus: health goes Failed, and the layer
    // synthesizes the evacuation eviction for its resident lease.
    layer.feed(
        20,
        &[Event::DeviceDown {
            device: 0,
            hard: true,
        }],
    );
    // The eviction lands; the migration completes and the route flips.
    layer.feed(
        30,
        &[Event::KernelFinished {
            lease: 10,
            ok: false,
        }],
    );
    // Re-staged readiness dispatches on the evacuation target.
    layer.feed(40, &[ready(1, 10, 8)]);
    // The device comes back — into seeded probation, not service.
    layer.feed(50, &[Event::DeviceUp { device: 0 }]);
    layer.feed(
        60,
        &[Event::KernelFinished {
            lease: 20,
            ok: true,
        }],
    );
    layer.feed(
        70,
        &[Event::KernelFinished {
            lease: 30,
            ok: true,
        }],
    );
    layer.feed(
        80,
        &[Event::KernelFinished {
            lease: 10,
            ok: true,
        }],
    );
    layer.feed(
        90,
        &[
            Event::SessionClosed { session: 1 },
            Event::SessionClosed { session: 2 },
            Event::SessionClosed { session: 3 },
        ],
    );
    // Far past the probation window: the healed device takes traffic
    // again (round robin wraps back to device 0).
    layer.feed(20_000, &[Event::SessionOpened { session: 4 }]);
    layer.feed(20_010, &[ready(4, 40, 8)]);
    layer.feed(
        20_020,
        &[Event::KernelFinished {
            lease: 40,
            ok: true,
        }],
    );
    layer.feed(20_030, &[Event::SessionClosed { session: 4 }]);
    layer.take_log().expect("recording was on")
}

#[test]
fn checked_in_failure_log_replays_to_the_golden_transcript() {
    let log: PlacementLog = serde_json::from_str(FAILURE_LOG_JSON).expect("fixture parses");
    placement_replay::verify(&log).expect("checked-in failure log replays to its own routing");
    let transcript = placement_replay::transcript(&placement_replay::replay(&log));
    assert_eq!(
        transcript, FAILURE_TRANSCRIPT,
        "failure replay transcript diverged from the golden fixture"
    );
}

#[test]
fn failure_fixture_contains_the_interesting_decisions() {
    let log: PlacementLog = serde_json::from_str(FAILURE_LOG_JSON).expect("fixture parses");
    let events = || log.batches.iter().flat_map(|b| b.events.iter());
    assert!(
        events().any(|e| matches!(e, Event::DeviceDown { hard: true, .. })),
        "the fixture must record a hard device loss"
    );
    assert!(
        events().any(|e| matches!(e, Event::DeviceUp { .. })),
        "the fixture must record the device's return"
    );
    let routed = || log.batches.iter().flat_map(|b| b.routed.iter());
    assert!(
        routed().any(|r| r.device == 0 && matches!(r.command, Command::Evict { .. })),
        "the failure must synthesize an evacuation eviction on the dead device"
    );
    // After the failure (t=20), the evacuated lease dispatches off
    // device 0; after probation expires (t=20_000), device 0 serves again.
    let late_dispatches: Vec<(u64, usize)> = log
        .batches
        .iter()
        .flat_map(|b| b.routed.iter().map(move |r| (b.at, r)))
        .filter(|(_, r)| matches!(r.command, Command::Dispatch { .. }))
        .map(|(at, r)| (at, r.device))
        .collect();
    assert!(
        late_dispatches
            .iter()
            .any(|&(at, d)| (20..20_000).contains(&at) && d != 0),
        "the evacuated kernel must re-dispatch off the dead device: {late_dispatches:?}"
    );
    assert!(
        late_dispatches
            .iter()
            .any(|&(at, d)| at >= 20_000 && d == 0),
        "the healed device must take traffic after probation: {late_dispatches:?}"
    );
}

#[test]
fn live_run_reproduces_the_checked_in_failure_log() {
    let log: PlacementLog = serde_json::from_str(FAILURE_LOG_JSON).expect("fixture parses");
    let fresh = record_failure_fixture_run();
    assert_eq!(
        placement_replay::transcript(&placement_replay::replay(&fresh)),
        FAILURE_TRANSCRIPT,
        "a fresh failure run diverged from the golden transcript"
    );
    assert_eq!(
        fresh, log,
        "a fresh failure run diverged from the checked-in log"
    );
}

#[test]
fn checked_in_failure_log_splits_into_per_core_logs_that_verify() {
    let log: PlacementLog = serde_json::from_str(FAILURE_LOG_JSON).expect("fixture parses");
    let cores = placement_replay::split(&log).expect("split succeeds");
    assert_eq!(cores.len(), log.devices.len());
    for (i, core_log) in cores.iter().enumerate() {
        core_replay::verify(core_log)
            .unwrap_or_else(|e| panic!("per-core failure log {i} must verify: {e}"));
    }
    // The dead device's split log still records the `DeviceDown` that
    // killed it — a single core sees its own failure domain's history.
    assert!(
        cores[0]
            .batches
            .iter()
            .flat_map(|b| b.events.iter())
            .any(|e| matches!(e, Event::DeviceDown { hard: true, .. })),
        "device 0's split log must carry its own DeviceDown"
    );
}

#[test]
fn checked_in_placement_log_replays_to_the_golden_transcript() {
    let log: PlacementLog = serde_json::from_str(LOG_JSON).expect("fixture parses");
    placement_replay::verify(&log).expect("checked-in log replays to its own routing");
    let transcript = placement_replay::transcript(&placement_replay::replay(&log));
    assert_eq!(
        transcript, GOLDEN_TRANSCRIPT,
        "placement replay transcript diverged from the golden fixture"
    );
}

#[test]
fn fixture_log_contains_the_interesting_decisions() {
    // Guards against the fixture silently degenerating into a trivial log.
    let log: PlacementLog = serde_json::from_str(LOG_JSON).expect("fixture parses");
    let routed = || log.batches.iter().flat_map(|b| b.routed.iter());
    assert!(log.devices.len() >= 3, "fixture must be multi-device");
    assert!(routed().any(|r| matches!(r.command, Command::Dispatch { .. })));
    assert!(
        routed().any(|r| matches!(r.command, Command::Resize { .. })),
        "the fixture must exercise a co-run resize"
    );
    let devices_used: std::collections::BTreeSet<usize> = routed().map(|r| r.device).collect();
    assert!(
        devices_used.len() >= 2,
        "fixture routing must span multiple devices, got {devices_used:?}"
    );
}

#[test]
fn live_run_reproduces_the_checked_in_placement_log() {
    let log: PlacementLog = serde_json::from_str(LOG_JSON).expect("fixture parses");
    let fresh = record_fixture_run();
    assert_eq!(
        placement_replay::transcript(&placement_replay::replay(&fresh)),
        GOLDEN_TRANSCRIPT,
        "a fresh run diverged from the golden transcript"
    );
    assert_eq!(fresh, log, "a fresh run diverged from the checked-in log");
}

/// Both checked-in logs split into per-core logs that verify, and every
/// command a core emitted is in its device's split log.
#[test]
fn checked_in_log_splits_into_per_core_logs_that_verify() {
    for (name, json) in [("placement", LOG_JSON), ("failure", FAILURE_LOG_JSON)] {
        let log: PlacementLog = serde_json::from_str(json).expect("fixture parses");
        let cores = placement_replay::split(&log).expect("split succeeds");
        assert_eq!(cores.len(), log.devices.len());
        for (i, core_log) in cores.iter().enumerate() {
            assert_eq!(core_log.device, log.devices[i]);
            core_replay::verify(core_log)
                .unwrap_or_else(|e| panic!("{name}: per-core log {i} must verify: {e}"));
        }
        // Every core-emitted routed command appears in its device's split
        // log at the same timestamp — nothing is lost or re-homed.
        // Evacuation evictions are exempt: the layer synthesizes them
        // *above* the cores (the source core only learns of the departure
        // from the eviction's `KernelFinished`), so they exist in the
        // placement log alone.
        for b in &log.batches {
            for r in &b.routed {
                if matches!(r.command, Command::Evict { .. }) {
                    continue;
                }
                assert!(
                    cores[r.device]
                        .batches
                        .iter()
                        .any(|cb| cb.at == b.at && cb.commands.contains(&r.command)),
                    "{name}: routed command {r} missing from device {} log",
                    r.device
                );
            }
        }
    }
}

#[test]
fn placement_log_survives_a_json_roundtrip() {
    let log: PlacementLog = serde_json::from_str(LOG_JSON).expect("fixture parses");
    let json = serde_json::to_string_pretty(&log).expect("log serializes");
    let back: PlacementLog = serde_json::from_str(&json).expect("roundtrip parses");
    assert_eq!(back, log);
}

/// The profile table persists identically whatever order kernels were
/// profiled in — scheduling inputs must not encode historical accident.
/// (The table is a `BTreeMap` precisely so this holds structurally, not
/// just through the serializer's politeness.)
#[test]
fn profile_table_save_bytes_are_insertion_order_independent() {
    use slate_core::profile::{KernelProfile, ProfileTable};
    let profile = |name: &str, rate: f64| KernelProfile {
        name: name.to_string(),
        gflops: rate,
        bandwidth_gbs: rate * 2.0,
        block_rate: rate * 1e3,
        class: WorkloadClass::MM,
        sm_demand: 8,
        best_task_size: 10,
    };
    let mut forward = ProfileTable::new();
    let mut reverse = ProfileTable::new();
    let names = ["mm", "bs", "rg", "tr", "gs"];
    for (i, n) in names.iter().enumerate() {
        forward.insert(profile(n, (i + 1) as f64));
    }
    for (i, n) in names.iter().enumerate().rev() {
        reverse.insert(profile(n, (i + 1) as f64));
    }
    let dir = std::env::temp_dir().join("slate-placement-conformance");
    std::fs::create_dir_all(&dir).unwrap();
    let (a, b) = (dir.join("fwd.json"), dir.join("rev.json"));
    forward.save(&a).unwrap();
    reverse.save(&b).unwrap();
    let (fa, fb) = (
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap(),
    );
    assert_eq!(
        fa, fb,
        "saved profile tables must not depend on insertion order"
    );
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
#[ignore = "regenerates tests/data fixtures; run after an intended placement change"]
fn regenerate_placement_fixtures() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");
    std::fs::create_dir_all(dir).expect("fixture dir");
    for (log, name) in [
        (record_fixture_run(), "placement"),
        (record_failure_fixture_run(), "placement_failure"),
    ] {
        let json = serde_json::to_string_pretty(&log).expect("log serializes");
        std::fs::write(format!("{dir}/{name}_log.json"), json).expect("write log");
        let transcript = placement_replay::transcript(&placement_replay::replay(&log));
        std::fs::write(format!("{dir}/{name}_transcript.txt"), transcript)
            .expect("write transcript");
    }
}
