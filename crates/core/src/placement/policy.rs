//! Deterministic device-choice policies for session admission.
//!
//! A policy answers one question: *which device does a new session land
//! on?* It is consulted exactly once per session — on the first event
//! that names it (normally [`Event::SessionOpened`](crate::arbiter::Event))
//! — and the answer is sticky until the session ends. All policies are
//! pure functions of placement-layer state that mutates identically
//! across replays, so a recorded multi-device run routes the same way
//! when replayed (see [`super::replay`]).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How new sessions are routed to devices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum PlacementPolicy {
    /// Sessions cycle through devices in index order. Ignores load; the
    /// right default when sessions are statistically interchangeable.
    #[default]
    RoundRobin,
    /// Each session lands on the device with the lowest current load
    /// (ProfileTable-estimated pending milliseconds plus weighted
    /// resident/waiter pressure).
    /// Ties break toward the device hosting fewer sessions, then the
    /// lowest index — so a burst of opens in one batch still spreads.
    LeastLoaded,
    /// Explicitly pinned sessions go to their pinned device (taken modulo
    /// the device count, so a pin outlives a smaller deployment); unpinned
    /// sessions fall back to round-robin.
    Affinity {
        /// session id → device index pins.
        pins: BTreeMap<u64, usize>,
    },
}

impl PlacementPolicy {
    /// Routes `session` to a device. `loads[i]` is the current load of
    /// device `i`, `sessions[i]` its current session count, `rr_next`
    /// the layer's round-robin cursor (set to `chosen + 1` by the caller
    /// only when the round-robin path was actually taken — the returned
    /// `bool`), and `eligible[i]` whether device `i` is in service as a
    /// routing target. The caller guarantees at least one device is
    /// eligible (it falls back to an all-`true` mask when the whole
    /// fleet is down). While every device is eligible, every policy
    /// routes exactly as it did before health gating existed.
    pub(super) fn route(
        &self,
        session: u64,
        loads: &[u64],
        sessions: &[usize],
        rr_next: usize,
        eligible: &[bool],
    ) -> (usize, bool) {
        let n = loads.len();
        debug_assert!(n > 0, "placement over zero devices");
        debug_assert!(eligible.iter().any(|&e| e), "no eligible device");
        match self {
            PlacementPolicy::RoundRobin => (rr_scan(rr_next, eligible), true),
            PlacementPolicy::LeastLoaded => {
                let mut best: Option<usize> = None;
                for i in 0..n {
                    if !eligible[i] {
                        continue;
                    }
                    let better = best
                        .is_none_or(|b| (loads[i], sessions[i], i) < (loads[b], sessions[b], b));
                    if better {
                        best = Some(i);
                    }
                }
                (best.unwrap_or(0), false)
            }
            PlacementPolicy::Affinity { pins } => match pins.get(&session) {
                // A pin to an out-of-service device falls back to
                // round-robin over the survivors rather than routing
                // into the failure domain.
                Some(&d) if eligible[d % n] => (d % n, false),
                _ => (rr_scan(rr_next, eligible), true),
            },
        }
    }
}

/// First eligible device scanning circularly from `rr_next`. Equals
/// `rr_next % n` when every device is eligible. Any cursor is valid, a
/// restored one included: it is reduced modulo `n` before the scan adds
/// to it.
fn rr_scan(rr_next: usize, eligible: &[bool]) -> usize {
    let n = eligible.len();
    for k in 0..n {
        let d = (rr_next % n + k) % n;
        if eligible[d] {
            return d;
        }
    }
    rr_next % n
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL3: [bool; 3] = [true, true, true];
    const ALL2: [bool; 2] = [true, true];

    #[test]
    fn round_robin_cycles() {
        let p = PlacementPolicy::RoundRobin;
        let loads = [0, 0, 0];
        let sessions = [0, 0, 0];
        assert_eq!(p.route(1, &loads, &sessions, 0, &ALL3), (0, true));
        assert_eq!(p.route(2, &loads, &sessions, 1, &ALL3), (1, true));
        assert_eq!(p.route(3, &loads, &sessions, 2, &ALL3), (2, true));
        assert_eq!(p.route(4, &loads, &sessions, 3, &ALL3), (0, true));
    }

    #[test]
    fn least_loaded_prefers_low_load_then_fewer_sessions_then_index() {
        let p = PlacementPolicy::LeastLoaded;
        assert_eq!(p.route(1, &[50, 10, 30], &[0, 0, 0], 0, &ALL3), (1, false));
        // Equal load: fewer sessions wins.
        assert_eq!(p.route(1, &[10, 10], &[3, 1], 0, &ALL2), (1, false));
        // Fully equal: lowest index wins.
        assert_eq!(p.route(1, &[10, 10], &[2, 2], 0, &ALL2), (0, false));
    }

    #[test]
    fn affinity_pins_and_falls_back() {
        let pins = BTreeMap::from([(7u64, 1usize), (8, 5)]);
        let p = PlacementPolicy::Affinity { pins };
        let loads = [0, 0];
        let sessions = [0, 0];
        assert_eq!(p.route(7, &loads, &sessions, 0, &ALL2), (1, false));
        // Pin beyond the device count wraps.
        assert_eq!(p.route(8, &loads, &sessions, 0, &ALL2), (1, false));
        // Unpinned falls back to round-robin.
        assert_eq!(p.route(9, &loads, &sessions, 1, &ALL2), (1, true));
    }

    #[test]
    fn ineligible_devices_are_never_routing_targets() {
        let loads = [0, 0, 0];
        let sessions = [0, 0, 0];
        let only_mid = [false, true, false];
        // Round-robin skips past ineligible devices from the cursor.
        let p = PlacementPolicy::RoundRobin;
        assert_eq!(p.route(1, &loads, &sessions, 0, &only_mid), (1, true));
        assert_eq!(p.route(2, &loads, &sessions, 2, &only_mid), (1, true));
        // Least-loaded never argmins into an ineligible device, even at
        // zero load.
        let p = PlacementPolicy::LeastLoaded;
        assert_eq!(p.route(1, &[0, 50, 9], &sessions, 0, &only_mid), (1, false));
        // A pin to an ineligible device falls back to the survivors.
        let p = PlacementPolicy::Affinity {
            pins: BTreeMap::from([(7u64, 0usize)]),
        };
        assert_eq!(p.route(7, &loads, &sessions, 0, &only_mid), (1, true));
    }
}
