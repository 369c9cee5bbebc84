//! Cross-device rebalancing: a seeded, hysteresis-gated migration
//! planner.
//!
//! After every fed batch the placement layer computes a per-device load
//! vector; the imbalance score is simply `max(load) - min(load)` in
//! estimated milliseconds. When the score crosses the `high` watermark
//! the planner picks one resident kernel on the hottest device — the
//! victim index chosen by a seeded xorshift so equal-looking candidates
//! don't always punish the same lease — and migrates it to the coldest
//! device via the existing retreat/relaunch path: the layer synthesizes
//! [`Command::Evict`](crate::arbiter::Command::Evict) on the source
//! core, the frontend carries the eviction out (progress is captured as
//! an absolute `slateIdx`), and the subsequent re-stage + re-ready is
//! routed to the target core.
//!
//! Hysteresis keeps the planner from flapping: after firing it disarms
//! until the score falls back below the `low` watermark, and a cooldown
//! blocks back-to-back migrations even across re-arms. At most one
//! migration is in flight at a time (the layer gates on that separately).
//! Everything here is a pure function of fed events, so recorded
//! multi-device runs replay their migrations identically.

use crate::arbiter::Tick;
use crate::durability::codec::{put_bool, put_u64, Decoded, Reader};
use serde::{Deserialize, Serialize};

/// Knobs of the migration planner. Serialized into every
/// [`PlacementLog`](super::replay::PlacementLog) so replays rebalance
/// under the recorded thresholds and seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RebalanceConfig {
    /// Fire a migration when `max(load) - min(load)` reaches this many
    /// estimated milliseconds (upward hysteresis threshold).
    pub high_ms: u64,
    /// Re-arm only once the score has fallen back to this level
    /// (downward hysteresis threshold). Must be ≤ `high_ms`.
    pub low_ms: u64,
    /// Minimum logical microseconds between fired migrations.
    pub cooldown_us: u64,
    /// Seed for the victim-selection xorshift. Any value is usable
    /// (zero is remapped internally — xorshift has no zero orbit).
    pub seed: u64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            high_ms: 50,
            low_ms: 10,
            cooldown_us: 5_000,
            seed: 0x5EED_0BAD_F00D,
        }
    }
}

/// A planned cross-device migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Migration {
    /// Device the victim currently runs on.
    pub(crate) src: usize,
    /// Device it re-launches on after the eviction.
    pub(crate) dst: usize,
    /// The migrated lease.
    pub(crate) lease: u64,
}

/// The stateful planner: hysteresis arm, cooldown clock and victim rng.
#[derive(Debug)]
pub(super) struct Rebalancer {
    config: RebalanceConfig,
    armed: bool,
    cooldown_until: Tick,
    rng: u64,
    fired: u64,
}

impl Rebalancer {
    /// Appends the planner's part of a snapshot slot body: hysteresis
    /// arm, cooldown clock, the live rng word and the fired counter.
    pub(super) fn encode(&self, out: &mut Vec<u8>) {
        let Self {
            // Written with the layer's `PlacementConfig`.
            config: _,
            armed,
            cooldown_until,
            rng,
            fired,
        } = self;
        put_bool(out, *armed);
        for v in [cooldown_until, rng, fired] {
            put_u64(out, *v);
        }
    }

    /// Rebuilds a planner running under `config` from the bytes
    /// [`Rebalancer::encode`] wrote, resuming the rng mid-stream.
    pub(super) fn decode(r: &mut Reader, config: RebalanceConfig) -> Decoded<Self> {
        Ok(Self {
            config,
            armed: r.bool()?,
            cooldown_until: r.u64()?,
            rng: r.u64()?.max(1),
            fired: r.u64()?,
        })
    }

    pub(super) fn new(config: RebalanceConfig) -> Self {
        // xorshift never leaves 0; fold the seed through a golden-ratio
        // mix so seed 0 is as usable as any other.
        let rng = (config.seed ^ 0x9E37_79B9_7F4A_7C15).max(1);
        Self {
            config,
            armed: true,
            cooldown_until: 0,
            rng,
            fired: 0,
        }
    }

    /// Migrations fired so far.
    pub(super) fn fired(&self) -> u64 {
        self.fired
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Plans at most one migration for the current load vector.
    /// `victims(src)` lists the evictable resident leases of device
    /// `src`, in stable order; `eligible[i]` whether device `i` is in
    /// service as a migration *target* (the source may be unhealthy —
    /// that is exactly when moving work off it matters). Returns `None`
    /// while disarmed, cooling down, balanced, when the hottest device
    /// has nothing resident to move, or when no eligible destination
    /// exists.
    pub(super) fn plan(
        &mut self,
        now: Tick,
        loads: &[u64],
        eligible: &[bool],
        victims: impl Fn(usize) -> Vec<u64>,
    ) -> Option<Migration> {
        if loads.len() < 2 {
            return None;
        }
        let mut src = 0usize;
        let mut dst: Option<usize> = None;
        for (i, &l) in loads.iter().enumerate() {
            if l > loads[src] {
                src = i;
            }
            // Only in-service devices may receive migrated work: a
            // quarantined device at zero load is an attractive-looking
            // target precisely because it is broken.
            if eligible[i] && dst.is_none_or(|b| l < loads[b]) {
                dst = Some(i);
            }
        }
        let dst = dst?;
        let score = loads[src] - loads[dst];
        if !self.armed {
            if score <= self.config.low_ms {
                self.armed = true;
            }
            return None;
        }
        if score < self.config.high_ms || now < self.cooldown_until {
            return None;
        }
        let candidates = victims(src);
        if candidates.is_empty() || src == dst {
            return None;
        }
        let lease = candidates[(self.next_rand() % candidates.len() as u64) as usize];
        self.armed = false;
        self.cooldown_until = now + self.config.cooldown_us;
        self.fired += 1;
        Some(Migration { src, dst, lease })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RebalanceConfig {
        RebalanceConfig {
            high_ms: 100,
            low_ms: 20,
            cooldown_us: 1_000,
            seed: 7,
        }
    }

    const ALL2: [bool; 2] = [true, true];

    #[test]
    fn fires_above_high_and_rearms_below_low() {
        let mut r = Rebalancer::new(cfg());
        let victims = |src: usize| if src == 0 { vec![10, 11] } else { vec![] };
        assert!(
            r.plan(0, &[50, 0], &ALL2, victims).is_none(),
            "below high: no fire"
        );
        let m = r
            .plan(10, &[150, 0], &ALL2, victims)
            .expect("above high fires");
        assert_eq!((m.src, m.dst), (0, 1));
        assert!([10, 11].contains(&m.lease));
        // Disarmed: an even worse score does not fire again…
        assert!(r.plan(5_000, &[500, 0], &ALL2, victims).is_none());
        // …until the score dips below low once.
        assert!(r.plan(6_000, &[10, 0], &ALL2, victims).is_none());
        assert!(
            r.plan(7_000, &[150, 0], &ALL2, victims).is_some(),
            "re-armed"
        );
        assert_eq!(r.fired(), 2);
    }

    #[test]
    fn cooldown_blocks_back_to_back_fires() {
        let mut r = Rebalancer::new(cfg());
        let victims = |_| vec![1];
        assert!(r.plan(0, &[200, 0], &ALL2, victims).is_some());
        // Re-arm via a balanced interval inside the cooldown window.
        assert!(r.plan(100, &[0, 0], &ALL2, victims).is_none());
        assert!(
            r.plan(500, &[200, 0], &ALL2, victims).is_none(),
            "armed but still cooling down"
        );
        assert!(r.plan(1_500, &[200, 0], &ALL2, victims).is_some());
    }

    #[test]
    fn no_victims_means_no_migration() {
        let mut r = Rebalancer::new(cfg());
        assert!(r.plan(0, &[500, 0], &ALL2, |_| vec![]).is_none());
        assert_eq!(r.fired(), 0);
    }

    #[test]
    fn unhealthy_devices_are_never_migration_targets() {
        // Without the eligibility guard this plan would fire: device 1
        // sits at zero load *because it is quarantined*, which makes it
        // the coldest — and worst — destination in the fleet.
        let mut r = Rebalancer::new(cfg());
        let victims = |_| vec![1, 2];
        assert!(
            r.plan(0, &[500, 0], &[true, false], victims).is_none(),
            "the only cold device is out of service"
        );
        assert_eq!(r.fired(), 0);
        // Three devices, middle one down: migration lands on the
        // healthy cold device, not the quarantined colder one.
        let m = r
            .plan(0, &[500, 0, 30], &[true, false, true], victims)
            .expect("a healthy destination exists");
        assert_eq!((m.src, m.dst), (0, 2));
    }

    #[test]
    fn seed_determines_victim_deterministically() {
        let pick = |seed: u64| {
            let mut r = Rebalancer::new(RebalanceConfig { seed, ..cfg() });
            r.plan(0, &[500, 0], &ALL2, |_| vec![1, 2, 3, 4, 5])
                .unwrap()
                .lease
        };
        assert_eq!(pick(7), pick(7), "same seed, same victim");
        let distinct: std::collections::BTreeSet<u64> = (0..16).map(pick).collect();
        assert!(distinct.len() > 1, "different seeds spread the pick");
    }
}
