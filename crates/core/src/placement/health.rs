//! Per-device health: the failure-domain state machine behind the
//! placement layer.
//!
//! Since PR 5 the unit of failure is a whole device, not just a kernel or
//! a client: one wedged GPU strands every session routed to it. The
//! placement layer therefore tracks one [`HealthState`] per device,
//! driven by the arbiter-visible
//! [`Event::DeviceDown`](crate::arbiter::Event::DeviceDown) /
//! [`Event::DeviceUp`](crate::arbiter::Event::DeviceUp) events:
//!
//! ```text
//!            soft down           soft down
//!  Healthy ───────────▶ Degraded ───────────▶ Quarantined ──(timer)──▶ Probation
//!     ▲                    │                      ▲    ▲                   │
//!     │        up          │       hard down      │    │ soft down        │ (timer)
//!     ├◀───────────────────┘          │           │    └───────────────── │
//!     │                               ▼           │ up                    │
//!     └◀───(probation expires)───  Failed ────────┘                       ▼
//!                                                                      Healthy
//! ```
//!
//! * a **hard** down (device off the bus) fails the device outright;
//! * a **soft** down (stall, flap) degrades it first and quarantines it
//!   on repetition — a single hiccup doesn't trigger an evacuation, a
//!   recurring one does;
//! * leaving service (entering `Quarantined` or `Failed`) triggers the
//!   layer's evacuation of every live lease;
//! * recovery is *gated*: a returning device sits out a seeded probation
//!   window before it is re-admitted as a routing target, so a flapping
//!   device cannot re-capture traffic between its failures.
//!
//! Every draw (probation length) comes from a seeded xorshift advanced in
//! event order, so a recorded run replays its health transitions — and
//! hence its evacuations and routing — byte-identically.

use crate::arbiter::Tick;
use crate::durability::codec::{put_u64, put_usize, Decoded, Reader};

/// Logical µs a quarantined device sits out before entering probation.
const QUARANTINE_US: u64 = 10_000;
/// Shortest probation window, in logical µs.
const PROBATION_MIN_US: u64 = 2_000;
/// Longest probation window, in logical µs. The actual window is a seeded
/// draw in `[min, max]`.
const PROBATION_MAX_US: u64 = 8_000;
/// Seed of the probation-window xorshift.
const SEED: u64 = 0x5EED_4EA1;

/// The health of one device, as the placement layer sees it.
///
/// Durable daemon snapshots persist the fleet's health, and recovery
/// restores it exactly (timers and all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// In service, behaving.
    #[default]
    Healthy,
    /// In service but signalled a soft failure; one more and it is
    /// quarantined. Still a routing target.
    Degraded,
    /// Out of service until the timer expires; evacuated on entry.
    Quarantined {
        /// When the quarantine lifts (into probation).
        until: Tick,
    },
    /// Hard-lost; only an explicit
    /// [`Event::DeviceUp`](crate::arbiter::Event::DeviceUp) recovers it.
    /// Evacuated on entry.
    Failed,
    /// Back up, but not yet trusted: no new routes until the seeded
    /// window expires.
    Probation {
        /// When the device is re-admitted as a routing target.
        until: Tick,
    },
}

impl HealthState {
    /// Whether the device is in service as a routing/migration target.
    pub fn eligible(&self) -> bool {
        matches!(self, HealthState::Healthy | HealthState::Degraded)
    }

    /// Whether live leases must be moved off the device (it just left,
    /// or is out of, service).
    pub fn out_of_service(&self) -> bool {
        matches!(self, HealthState::Quarantined { .. } | HealthState::Failed)
    }
}

/// The per-layer tracker: one [`HealthState`] per device plus the seeded
/// probation rng.
#[derive(Debug)]
pub(super) struct HealthTracker {
    states: Vec<HealthState>,
    rng: u64,
}

impl HealthTracker {
    /// Appends the tracker's part of a snapshot slot body: each device's
    /// state, timers included, then the live rng word.
    pub(super) fn encode(&self, out: &mut Vec<u8>) {
        let Self { states, rng } = self;
        put_usize(out, states.len());
        for state in states {
            match state {
                HealthState::Healthy => out.push(0),
                HealthState::Degraded => out.push(1),
                HealthState::Quarantined { until } => {
                    out.push(2);
                    put_u64(out, *until);
                }
                HealthState::Failed => out.push(3),
                HealthState::Probation { until } => {
                    out.push(4);
                    put_u64(out, *until);
                }
            }
        }
        put_u64(out, *rng);
    }

    /// Rebuilds a tracker of `devices` devices from the bytes
    /// [`HealthTracker::encode`] wrote, resuming the rng mid-stream. A
    /// state count other than `devices` is an error: the layer indexes
    /// the states by device.
    pub(super) fn decode(r: &mut Reader, devices: usize) -> Decoded<Self> {
        let states = r.vec(|r| {
            Ok(match r.byte()? {
                0 => HealthState::Healthy,
                1 => HealthState::Degraded,
                2 => HealthState::Quarantined { until: r.u64()? },
                3 => HealthState::Failed,
                4 => HealthState::Probation { until: r.u64()? },
                _ => return Err("unknown health state"),
            })
        })?;
        if states.len() != devices {
            return Err("health states and devices differ in number");
        }
        Ok(Self {
            states,
            rng: r.u64()?.max(1),
        })
    }

    pub(super) fn new(devices: usize) -> Self {
        Self {
            states: vec![HealthState::Healthy; devices],
            // The seed folded through a golden-ratio mix: the start word
            // every recorded run's probation draws follow.
            rng: SEED ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub(super) fn state(&self, device: usize) -> HealthState {
        self.states[device]
    }

    /// Per-device routing eligibility, in device order.
    pub(super) fn eligibility(&self) -> Vec<bool> {
        self.states.iter().map(|s| s.eligible()).collect()
    }

    /// Allocation-free [`HealthTracker::eligibility`]: clears `buf` and
    /// fills it in device order, reusing its capacity.
    pub(super) fn fill_eligibility(&self, buf: &mut Vec<bool>) {
        buf.clear();
        buf.extend(self.states.iter().map(|s| s.eligible()));
    }

    /// Devices currently eligible as routing targets.
    pub(super) fn eligible_count(&self) -> usize {
        self.states.iter().filter(|s| s.eligible()).count()
    }

    fn draw_probation(&mut self, now: Tick) -> Tick {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        now + PROBATION_MIN_US + x % (PROBATION_MAX_US - PROBATION_MIN_US + 1)
    }

    /// Applies a [`DeviceDown`](crate::arbiter::Event::DeviceDown) for
    /// `device`. Returns `true` when the device just *left* service —
    /// the layer must evacuate it.
    pub(super) fn on_down(&mut self, device: usize, hard: bool, now: Tick) -> bool {
        let was_in_service = !self.states[device].out_of_service();
        let next = if hard {
            HealthState::Failed
        } else {
            match self.states[device] {
                HealthState::Healthy => HealthState::Degraded,
                // Repetition (or a failure while still on probation)
                // quarantines: the device is flapping, not hiccuping.
                HealthState::Degraded | HealthState::Probation { .. } => HealthState::Quarantined {
                    until: now + QUARANTINE_US,
                },
                // Already out of service: a soft signal refreshes the
                // quarantine clock, a Failed device stays failed.
                HealthState::Quarantined { .. } => HealthState::Quarantined {
                    until: now + QUARANTINE_US,
                },
                HealthState::Failed => HealthState::Failed,
            }
        };
        self.states[device] = next;
        was_in_service && next.out_of_service()
    }

    /// Applies a [`DeviceUp`](crate::arbiter::Event::DeviceUp) for
    /// `device`: out-of-service devices enter their seeded probation, a
    /// degraded device is cleared.
    pub(super) fn on_up(&mut self, device: usize, now: Tick) {
        self.states[device] = match self.states[device] {
            HealthState::Failed | HealthState::Quarantined { .. } => HealthState::Probation {
                until: self.draw_probation(now),
            },
            HealthState::Degraded => HealthState::Healthy,
            s @ (HealthState::Healthy | HealthState::Probation { .. }) => s,
        };
    }

    /// Advances the timers: expired quarantines enter probation, expired
    /// probations re-admit the device.
    pub(super) fn tick(&mut self, now: Tick) {
        for d in 0..self.states.len() {
            self.states[d] = match self.states[d] {
                HealthState::Quarantined { until } if now >= until => HealthState::Probation {
                    until: self.draw_probation(now),
                },
                HealthState::Probation { until } if now >= until => HealthState::Healthy,
                s => s,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails `device` hard at `now` and brings it straight back; returns
    /// the probation window it drew.
    fn flap(t: &mut HealthTracker, device: usize, now: Tick) -> Tick {
        t.on_down(device, true, now);
        t.on_up(device, now);
        match t.state(device) {
            HealthState::Probation { until } => until - now,
            s => panic!("expected probation, got {s:?}"),
        }
    }

    #[test]
    fn hard_down_fails_and_requires_up_plus_probation() {
        let mut t = HealthTracker::new(2);
        assert!(t.on_down(0, true, 5), "leaving service asks for evacuation");
        assert_eq!(t.state(0), HealthState::Failed);
        assert_eq!(t.eligibility(), vec![false, true]);
        // Timers never resurrect a failed device.
        t.tick(1_000_000);
        assert_eq!(t.state(0), HealthState::Failed);
        // Recovery goes through probation before re-admission.
        t.on_up(0, 1_000_000);
        let HealthState::Probation { until } = t.state(0) else {
            panic!("recovered device must be on probation");
        };
        assert!((1_000_000 + PROBATION_MIN_US..=1_000_000 + PROBATION_MAX_US).contains(&until));
        assert!(!t.state(0).eligible(), "probation is not yet eligible");
        t.tick(until);
        assert_eq!(t.state(0), HealthState::Healthy);
    }

    #[test]
    fn soft_downs_escalate_healthy_degraded_quarantined() {
        let mut t = HealthTracker::new(1);
        assert!(!t.on_down(0, false, 0), "first hiccup only degrades");
        assert_eq!(t.state(0), HealthState::Degraded);
        assert!(t.state(0).eligible(), "degraded still serves");
        assert!(t.on_down(0, false, 10), "repetition quarantines");
        let until = 10 + QUARANTINE_US;
        assert_eq!(t.state(0), HealthState::Quarantined { until });
        // Quarantine expires into probation, probation into healthy.
        t.tick(until - 1);
        assert!(matches!(t.state(0), HealthState::Quarantined { .. }));
        t.tick(until);
        assert!(matches!(t.state(0), HealthState::Probation { .. }));
        t.tick(until + PROBATION_MAX_US);
        assert_eq!(t.state(0), HealthState::Healthy);
    }

    #[test]
    fn up_clears_degraded_and_flap_on_probation_requarantines() {
        let mut t = HealthTracker::new(1);
        t.on_down(0, false, 0);
        t.on_up(0, 5);
        assert_eq!(t.state(0), HealthState::Healthy);
        // Fail hard, recover, then flap during probation: straight back
        // into quarantine — no evacuation signal (nothing was re-routed
        // there yet), but no re-admission either.
        assert!(t.on_down(0, true, 10));
        t.on_up(0, 20);
        assert!(matches!(t.state(0), HealthState::Probation { .. }));
        // A probation flap re-quarantines; the evacuation it requests is
        // normally a no-op (the device was drained when it failed).
        assert!(t.on_down(0, false, 25));
        assert_eq!(
            t.state(0),
            HealthState::Quarantined {
                until: 25 + QUARANTINE_US
            }
        );
    }

    #[test]
    fn probation_draws_are_seeded_and_deterministic() {
        assert_eq!(
            flap(&mut HealthTracker::new(1), 0, 0),
            flap(&mut HealthTracker::new(1), 0, 0),
            "fresh trackers draw the same window"
        );
        let mut t = HealthTracker::new(1);
        let windows: Vec<Tick> = (0..16).map(|i| flap(&mut t, 0, i * 100_000)).collect();
        assert!(windows
            .iter()
            .all(|w| (PROBATION_MIN_US..=PROBATION_MAX_US).contains(w)));
        let distinct: std::collections::BTreeSet<Tick> = windows.into_iter().collect();
        assert!(distinct.len() > 1, "successive draws spread the window");
    }
}
