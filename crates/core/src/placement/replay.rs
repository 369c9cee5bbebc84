//! Record and replay of multi-device placement decisions.
//!
//! A [`PlacementLog`] is to [`PlacementLayer`] what an
//! [`EventLog`] is to a single
//! [`ArbiterCore`](crate::arbiter::ArbiterCore): the frontend event
//! stream plus every routed command, under the exact devices and
//! configuration that produced it. Because the layer is deterministic,
//! the log [`verify`]s against a fresh replay — through the one generic
//! replay of [`crate::arbiter::replay`], re-exported here — and [`split`]s into N
//! ordinary per-core `EventLog`s — each of which verifies through the
//! existing single-device machinery, byte-identically. Splitting is how
//! multi-device recordings stay per-core, as the roadmap promised: every
//! downstream tool that consumes an `EventLog` (golden transcripts,
//! differential backend replay, offline tuning) works on each device of
//! a multi-device run unchanged.

use super::{PlacementConfig, PlacementLayer, RoutedCommand};
pub use crate::arbiter::replay::verify;
#[doc(hidden)]
pub use crate::arbiter::replay::{replay, transcript};
use crate::arbiter::replay::{EventLog, ReplayBatch, Replayable, StreamVerifier};
use crate::arbiter::{Command, Event, Tick};
use serde::{Deserialize, Serialize};
use slate_gpu_sim::device::DeviceConfig;

/// One recorded [`PlacementLayer::feed`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementBatch {
    /// The layer's (clamped) logical clock when the batch was absorbed.
    pub at: Tick,
    /// The frontend events fed, in order.
    pub events: Vec<Event>,
    /// The routed commands returned, in order (including any evacuation
    /// evictions synthesized that batch).
    pub routed: Vec<RoutedCommand>,
}

/// A self-contained recording of a multi-device placement run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementLog {
    /// The devices behind the layer, in index order.
    pub devices: Vec<DeviceConfig>,
    /// The configuration the layer ran under (policy and per-core arbiter
    /// config).
    pub config: PlacementConfig,
    /// The recorded batches.
    pub batches: Vec<PlacementBatch>,
}

impl ReplayBatch for PlacementBatch {
    type Reply = RoutedCommand;
    fn new(at: Tick, events: Vec<Event>, routed: Vec<RoutedCommand>) -> Self {
        Self { at, events, routed }
    }
    fn at(&self) -> Tick {
        self.at
    }
    fn events(&self) -> &[Event] {
        &self.events
    }
    fn replies(&self) -> &[RoutedCommand] {
        &self.routed
    }
    fn routed(r: &RoutedCommand) -> (usize, &Command) {
        (r.device, &r.command)
    }
}

impl Replayable for PlacementLog {
    type Config = PlacementConfig;
    type Machine = PlacementLayer;
    type Batch = PlacementBatch;
    fn devices(&self) -> &[DeviceConfig] {
        &self.devices
    }
    fn config(&self) -> &PlacementConfig {
        &self.config
    }
    fn batches(&self) -> &[PlacementBatch] {
        &self.batches
    }
    fn machine(&self, config: PlacementConfig) -> PlacementLayer {
        PlacementLayer::new(self.devices.clone(), config)
    }
    fn feed(
        layer: &mut PlacementLayer,
        at: Tick,
        events: &[Event],
        routed: &mut Vec<RoutedCommand>,
    ) {
        layer.feed_into(at, events, routed);
    }
}

/// Splits a multi-device `log` into one ordinary [`EventLog`] per
/// device by replaying it through a fresh layer whose cores record. Each
/// returned log carries its own device config and replays
/// byte-identically through [`crate::arbiter::replay`]; the split also
/// re-[`verify`]s the placement log itself and fails if the routing
/// diverged.
pub fn split(log: &PlacementLog) -> Result<Vec<EventLog>, String> {
    let mut layer = log.machine(log.config.clone());
    for core in &mut layer.cores {
        core.start_recording();
    }
    let mut v = StreamVerifier::<PlacementLog>::new(layer);
    log.batches.iter().try_for_each(|b| v.push(b))?;
    Ok(v.into_machine()
        .cores
        .iter_mut()
        .map(|c| c.take_log().expect("every core was recording"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::replay as core_replay;
    use crate::classify::WorkloadClass::*;
    use crate::placement::PlacementPolicy;

    fn ready(session: u64, lease: u64, demand: u32) -> Event {
        Event::KernelReady {
            session,
            lease,
            class: if lease % 2 == 0 { MM } else { LC },
            sm_demand: demand,
            pinned_solo: false,
            deadline_ms: None,
        }
    }

    fn recorded_run() -> PlacementLog {
        let mut p = PlacementLayer::new(
            vec![DeviceConfig::tiny(8), DeviceConfig::tiny(16)],
            PlacementConfig {
                policy: PlacementPolicy::RoundRobin,
                ..Default::default()
            },
        );
        p.start_recording();
        p.feed(
            0,
            &[
                Event::SessionOpened { session: 1 },
                Event::SessionOpened { session: 2 },
            ],
        );
        p.feed(10, &[ready(1, 10, 8), ready(2, 21, 16)]);
        p.feed(500, &[Event::DeadlineTick]); // heartbeat no-op: unrecorded
        p.feed(
            1_000,
            &[Event::KernelFinished {
                lease: 10,
                ok: true,
            }],
        );
        p.feed(1_500, &[ready(1, 12, 4)]);
        p.feed(
            2_000,
            &[Event::KernelFinished {
                lease: 21,
                ok: true,
            }],
        );
        p.feed(
            2_500,
            &[Event::KernelFinished {
                lease: 12,
                ok: true,
            }],
        );
        p.feed(
            3_000,
            &[
                Event::SessionClosed { session: 1 },
                Event::SessionClosed { session: 2 },
            ],
        );
        p.take_log().expect("recording was on")
    }

    #[test]
    fn recorded_placement_run_verifies_and_roundtrips_json() {
        let log = recorded_run();
        assert!(
            log.batches.iter().all(|b| {
                !(b.routed.is_empty() && b.events.iter().all(|e| matches!(e, Event::DeadlineTick)))
            }),
            "no-op heartbeats are not recorded"
        );
        verify(&log).expect("replay reproduces the routing");
        let json = serde_json::to_string_pretty(&log).expect("log serializes");
        let back: PlacementLog = serde_json::from_str(&json).expect("log deserializes");
        assert_eq!(back, log);
        verify(&back).expect("deserialized log still verifies");
        assert_eq!(
            transcript(&replay(&log)),
            transcript(&log.batches),
            "replay transcript is byte-identical"
        );
    }

    #[test]
    fn split_yields_per_core_logs_that_verify_independently() {
        let log = recorded_run();
        let cores = split(&log).expect("split succeeds");
        assert_eq!(cores.len(), 2);
        assert_eq!(cores[0].device, DeviceConfig::tiny(8));
        assert_eq!(cores[1].device, DeviceConfig::tiny(16));
        for (i, core_log) in cores.iter().enumerate() {
            assert!(
                !core_log.batches.is_empty(),
                "device {i} saw decision-relevant traffic"
            );
            core_replay::verify(core_log)
                .unwrap_or_else(|e| panic!("per-core log {i} must verify: {e}"));
        }
        // Every routed command of the placement log appears in its
        // device's split log, batch-aligned by timestamp.
        for b in &log.batches {
            for r in &b.routed {
                let per_core = &cores[r.device];
                assert!(
                    per_core
                        .batches
                        .iter()
                        .any(|cb| cb.at == b.at && cb.commands.contains(&r.command)),
                    "routed command {r} missing from device {} log",
                    r.device
                );
            }
        }
    }

    #[test]
    fn split_rejects_a_tampered_log() {
        let mut log = recorded_run();
        // Flip a routed dispatch to the wrong device.
        let batch = log
            .batches
            .iter_mut()
            .find(|b| !b.routed.is_empty())
            .expect("some batch routed commands");
        batch.routed[0].device ^= 1;
        assert!(verify(&log).is_err(), "tampered routing must not verify");
        assert!(split(&log).is_err(), "tampered routing must not split");
    }
}
