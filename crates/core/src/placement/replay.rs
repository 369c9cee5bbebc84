//! Record and replay of multi-device placement decisions.
//!
//! A [`PlacementLog`] is to [`PlacementLayer`] what an
//! [`EventLog`] is to a single
//! [`ArbiterCore`](crate::arbiter::ArbiterCore): the frontend event
//! stream plus every routed command, under the exact devices and
//! configuration that produced it. Because the layer is deterministic,
//! the log both [`verify`]s against a fresh replay and [`split`]s into N
//! ordinary per-core `EventLog`s — each of which verifies through the
//! existing single-device machinery, byte-identically. Splitting is how
//! multi-device recordings stay per-core, as the roadmap promised: every
//! downstream tool that consumes an `EventLog` (golden transcripts,
//! differential backend replay, offline tuning) works on each device of
//! a multi-device run unchanged.

use super::{PlacementConfig, PlacementLayer, RoutedCommand};
use crate::arbiter::replay::EventLog;
use crate::arbiter::{Event, Tick};
use serde::{Deserialize, Serialize};
use slate_gpu_sim::device::DeviceConfig;
use std::fmt::Write as _;

/// One recorded [`PlacementLayer::feed`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementBatch {
    /// The layer's (clamped) logical clock when the batch was absorbed.
    pub at: Tick,
    /// The frontend events fed, in order.
    pub events: Vec<Event>,
    /// The routed commands returned, in order (including any rebalance
    /// eviction synthesized that batch).
    pub routed: Vec<RoutedCommand>,
}

/// A self-contained recording of a multi-device placement run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementLog {
    /// The devices behind the layer, in index order.
    pub devices: Vec<DeviceConfig>,
    /// The configuration the layer ran under (policy, per-core arbiter
    /// config, rebalance thresholds and seed).
    pub config: PlacementConfig,
    /// The recorded batches.
    pub batches: Vec<PlacementBatch>,
}

/// Replays `log` through a fresh layer, returning each batch with the
/// routed commands the *replay* produced (the logged ones are ignored).
pub fn replay(log: &PlacementLog) -> Vec<PlacementBatch> {
    replay_under(log, log.config.clone())
}

/// Replays `log`'s *events* through a fresh layer running `config`
/// instead of the recorded configuration — the multi-device analogue of
/// [`crate::arbiter::replay::replay_under`], and the placement tuner's
/// primitive. Open-loop: the event stream (arrivals, finishes, device
/// failures) is held fixed while routing/arbiter/rebalance knobs vary,
/// so differences in the routed command stream are attributable to the
/// configuration alone. With `config == log.config` this is exactly
/// [`replay`].
pub fn replay_under(log: &PlacementLog, config: PlacementConfig) -> Vec<PlacementBatch> {
    let mut layer = PlacementLayer::new(log.devices.clone(), config);
    log.batches
        .iter()
        .map(|b| PlacementBatch {
            at: b.at,
            events: b.events.clone(),
            routed: layer.feed(b.at, &b.events),
        })
        .collect()
}

/// Incremental replay verification for placement logs: batches are
/// pushed one at a time against a fresh layer and checked as they
/// arrive, holding one reusable routed-command buffer rather than a full
/// second copy of the log. The multi-device analogue of
/// [`crate::arbiter::replay::StreamVerifier`].
pub struct StreamVerifier {
    layer: PlacementLayer,
    scratch: Vec<RoutedCommand>,
    batches: usize,
}

impl StreamVerifier {
    /// A verifier replaying against a fresh layer over `devices` under
    /// `config` — the same starting state [`replay`] uses.
    pub fn new(devices: Vec<DeviceConfig>, config: PlacementConfig) -> Self {
        Self {
            layer: PlacementLayer::new(devices, config),
            scratch: Vec::new(),
            batches: 0,
        }
    }

    /// A verifier for `log`'s devices and configuration.
    pub fn for_log(log: &PlacementLog) -> Self {
        Self::new(log.devices.clone(), log.config.clone())
    }

    /// Replays one recorded batch and checks the routed commands it
    /// produces against the logged ones.
    pub fn push(&mut self, batch: &PlacementBatch) -> Result<(), String> {
        self.check(batch, "diverged")
    }

    /// [`StreamVerifier::push`], with the caller's wording of a
    /// divergence.
    fn check(&mut self, batch: &PlacementBatch, diverged: &str) -> Result<(), String> {
        let i = self.batches;
        self.batches += 1;
        self.layer
            .feed_into(batch.at, &batch.events, &mut self.scratch);
        if self.scratch != batch.routed {
            return Err(format!(
                "placement batch {i} (at {}) {diverged}:\n  logged:\n{}  replayed:\n{}",
                batch.at,
                render(&batch.routed),
                render(&self.scratch),
            ));
        }
        Ok(())
    }

    /// Batches verified so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// The replayed layer, positioned after every pushed batch.
    pub fn into_layer(self) -> PlacementLayer {
        self.layer
    }
}

/// Replays `log` and checks the produced routed commands against the
/// logged ones, reporting the first divergence. Streaming: memory is
/// bounded by the largest single batch (see [`StreamVerifier`]).
pub fn verify(log: &PlacementLog) -> Result<(), String> {
    let mut v = StreamVerifier::for_log(log);
    for b in &log.batches {
        v.push(b)?;
    }
    Ok(())
}

fn render(routed: &[RoutedCommand]) -> String {
    let mut s = String::new();
    for r in routed {
        let _ = writeln!(s, "    ! {r}");
    }
    s
}

/// Renders placement batches as a stable, line-oriented transcript: one
/// `@tick` header per batch, `>` lines for events, `! dN` lines for
/// routed commands. Hand-written (not `Debug`-derived) so checked-in
/// goldens only change when the *decisions* change.
pub fn transcript(batches: &[PlacementBatch]) -> String {
    let mut s = String::new();
    for b in batches {
        let _ = writeln!(s, "@{}", b.at);
        for e in &b.events {
            let _ = writeln!(s, "  > {e}");
        }
        for r in &b.routed {
            let _ = writeln!(s, "  ! {r}");
        }
    }
    s
}

/// Splits a multi-device `log` into one ordinary [`EventLog`] per
/// device by replaying it through a fresh layer with per-core recording
/// on. Each returned log carries its own device config and replays
/// byte-identically through [`crate::arbiter::replay`]; the split also
/// re-[`verify`]s the placement log itself and fails if the routing
/// diverged.
pub fn split(log: &PlacementLog) -> Result<Vec<EventLog>, String> {
    let mut v = StreamVerifier::for_log(log);
    v.layer.start_recording();
    for b in &log.batches {
        v.check(b, "diverged during split")?;
    }
    Ok(v.layer
        .take_core_logs()
        .into_iter()
        .map(|l| l.expect("recording was on for every core"))
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
