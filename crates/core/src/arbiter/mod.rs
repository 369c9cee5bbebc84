//! The deterministic arbitration core (paper §III-B/§III-D) shared by the
//! simulated runtime and the live daemon.
//!
//! Everything Slate decides centrally — Table-I concurrent-kernel
//! selection, SM partitioning, dynamic resizing, starvation aging,
//! admission shedding and watchdog eviction — lives in one event-driven
//! state machine, [`ArbiterCore`]. Frontends own the clocks, threads and
//! devices; the core owns the decisions:
//!
//! ```text
//!   SlateRuntime (simulated time)          SlateDaemon (wall-clock)
//!        │  engine events                       │  session threads, 1 ms scanner
//!        ▼                                      ▼
//!   Event { SessionOpened, LaunchRequested, KernelReady, KernelFinished,
//!           MallocRequested, DeadlineTick, SessionSevered, DrainBegan, … }
//!        │               ArbiterCore::feed(now, &[Event])
//!        ▼
//!   Command { Dispatch, Resize, RejectOverloaded, PromoteStarved, Evict, Reap }
//!        │                                      │
//!        ▼  launch/resize sim slices            ▼  dispatch/retreat kernels, wire errors
//! ```
//!
//! Because the core is pure (no clocks, no locks, no I/O) and iterates
//! only ordered collections, the same event log always yields the same
//! command sequence — see [`replay`] for the recording format and the
//! golden-transcript machinery built on that guarantee.

pub(crate) mod events;
pub mod replay;

mod decide;
mod state;

pub use events::{Command, Event, RejectScope, Tick};
pub use replay::EventLog;
pub use state::{ArbiterConfig, ArbiterCore};

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Per-id state keyed by a client's external session or lease id. Its
/// iteration order is the hasher's, so whatever reaches output — a
/// command, a transcript, a snapshot — walks it by ascending id
/// ([`by_id`]).
pub(crate) type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// The fixed hasher of [`IdMap`]: one 64×64→128-bit multiply by the
/// golden-ratio constant, its high half folded into its low half. The
/// map picks buckets from the low bits, and a daemon lease id is
/// `session << 16 | stream`, so a bare multiply would leave those bits
/// constant and put every default-stream lease on one probe chain; the
/// fold brings the well-mixed high bits down. Fixed, unlike `std`'s
/// seeded default, so runs stay reproducible; the keys are the daemon's
/// session numbers and the lease ids it builds from them.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    /// Only `u64` keys reach the maps; other input is mixed a byte at a
    /// time.
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        let p = u128::from(self.0 ^ id) * 0x9E37_79B9_7F4A_7C15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The entries of `map` in ascending id order: the order a snapshot
/// writes per-id state in. Allocates the list.
pub(crate) fn by_id<V>(map: &IdMap<V>) -> Vec<(u64, &V)> {
    let mut entries: Vec<(u64, &V)> = map.iter().map(|(&id, v)| (id, v)).collect();
    entries.sort_unstable_by_key(|&(id, _)| id);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionLimits;
    use crate::classify::WorkloadClass::{self, *};
    use slate_gpu_sim::device::{DeviceConfig, SmRange};

    fn core_with(config: ArbiterConfig) -> ArbiterCore {
        ArbiterCore::new(DeviceConfig::titan_xp(), config)
    }

    fn core() -> ArbiterCore {
        core_with(ArbiterConfig::default())
    }

    fn ready(session: u64, lease: u64, class: WorkloadClass, sm_demand: u32) -> Event {
        Event::KernelReady {
            session,
            lease,
            class,
            sm_demand,
            pinned_solo: false,
            deadline_ms: None,
        }
    }

    fn fin(lease: u64) -> Event {
        Event::KernelFinished { lease, ok: true }
    }

    fn launch(session: u64, lease: u64, est_ms: Option<u64>, deadline_ms: Option<u64>) -> Event {
        Event::LaunchRequested {
            session,
            lease,
            est_ms,
            deadline_ms,
        }
    }

    fn full() -> SmRange {
        SmRange::all(30)
    }

    #[test]
    fn empty_device_dispatches_fifo_head_on_full_range() {
        let mut a = core();
        let out = a.feed(0, &[ready(1, 10, MM, 30)]);
        assert_eq!(
            out,
            vec![Command::Dispatch {
                lease: 10,
                range: full()
            }]
        );
        // A non-complementary second kernel waits.
        let out = a.feed(1, &[ready(1, 11, MM, 30)]);
        assert_eq!(out, vec![]);
        assert_eq!(a.residents(), 1);
        assert_eq!(a.waiting(), 1);
        // When the resident leaves, the waiter takes the whole device.
        let out = a.feed(2, &[fin(10)]);
        assert_eq!(
            out,
            vec![Command::Dispatch {
                lease: 11,
                range: full()
            }]
        );
    }

    #[test]
    fn complementary_waiter_joins_with_partition_and_resize() {
        let mut a = core();
        a.feed(0, &[ready(1, 1, MM, 30)]);
        // LC demand 14 joining MM demand 30: partition grants the small
        // kernel its demand, the rest stays with the resident.
        let out = a.feed(1, &[ready(2, 2, LC, 14)]);
        assert_eq!(
            out,
            vec![
                Command::Resize {
                    lease: 1,
                    range: SmRange::new(0, 15)
                },
                Command::Dispatch {
                    lease: 2,
                    range: SmRange::new(16, 29)
                },
            ]
        );
        assert_eq!(a.residents(), 2);
        // The survivor regrows when its partner departs.
        let out = a.feed(2, &[fin(2)]);
        assert_eq!(
            out,
            vec![Command::Resize {
                lease: 1,
                range: full()
            }]
        );
    }

    #[test]
    fn sliced_kernel_resumes_its_partition_in_place() {
        let mut a = core();
        a.feed(0, &[ready(1, 1, MM, 30)]);
        a.feed(1, &[ready(2, 2, LC, 14)]);
        // Lease 1 finishes a slice and is immediately ready again: it
        // resumes its old [0..15] — no resize, no fresh selection.
        let out = a.feed(2, &[fin(1), ready(1, 1, MM, 30)]);
        assert_eq!(
            out,
            vec![Command::Dispatch {
                lease: 1,
                range: SmRange::new(0, 15)
            }]
        );
        assert_eq!(a.residents(), 2);
    }

    #[test]
    fn corun_disabled_serializes_everything() {
        let mut a = core_with(ArbiterConfig {
            enable_corun: false,
            ..ArbiterConfig::default()
        });
        a.feed(0, &[ready(1, 1, MM, 30)]);
        let out = a.feed(1, &[ready(2, 2, LC, 14)]);
        assert_eq!(out, vec![], "no join with corun disabled");
        let out = a.feed(2, &[fin(1)]);
        assert_eq!(
            out,
            vec![Command::Dispatch {
                lease: 2,
                range: full()
            }]
        );
    }

    #[test]
    fn pinned_solo_kernel_neither_joins_nor_accepts_partners() {
        let mut a = core();
        let out = a.feed(
            0,
            &[Event::KernelReady {
                session: 1,
                lease: 1,
                class: MM,
                sm_demand: 30,
                pinned_solo: true,
                deadline_ms: None,
            }],
        );
        assert_eq!(
            out,
            vec![Command::Dispatch {
                lease: 1,
                range: full()
            }]
        );
        let out = a.feed(1, &[ready(2, 2, LC, 14)]);
        assert_eq!(out, vec![], "pinned resident accepts no partner");
    }

    #[test]
    fn starved_waiter_blocks_joins_and_is_promoted() {
        let mut a = core_with(ArbiterConfig {
            starvation_bound_us: Some(1_000),
            ..ArbiterConfig::default()
        });
        a.feed(0, &[ready(1, 1, MM, 30)]);
        // A same-class waiter queues (no corun possible) and starves.
        a.feed(10, &[ready(2, 2, MM, 30)]);
        // A fresh complementary kernel arrives after the bound: the join
        // must be refused — it would push the starved waiter further back.
        let out = a.feed(2_000, &[ready(3, 3, LC, 14)]);
        assert_eq!(out, vec![], "starved waiter blocks fresh pairings");
        // Device frees: the starved head is promoted, pinned solo.
        let out = a.feed(2_100, &[fin(1)]);
        assert_eq!(
            out,
            vec![
                Command::PromoteStarved { lease: 2 },
                Command::Dispatch {
                    lease: 2,
                    range: full()
                },
            ]
        );
        assert_eq!(a.stats().promotions, 1);
        // Nothing may join the promoted kernel, starved or not.
        assert_eq!(a.feed(2_200, &[Event::DeadlineTick]), vec![]);
    }

    #[test]
    fn overdue_resident_is_evicted_once() {
        let mut a = core();
        let out = a.feed(
            0,
            &[Event::KernelReady {
                session: 1,
                lease: 1,
                class: MM,
                sm_demand: 30,
                pinned_solo: false,
                deadline_ms: Some(5),
            }],
        );
        assert_eq!(
            out,
            vec![Command::Dispatch {
                lease: 1,
                range: full()
            }]
        );
        assert_eq!(a.feed(4_999, &[Event::DeadlineTick]), vec![]);
        let out = a.feed(5_000, &[Event::DeadlineTick]);
        assert_eq!(out, vec![Command::Evict { lease: 1 }]);
        assert_eq!(a.stats().evictions, 1);
        // The deadline is disarmed: no double eviction while the retreat
        // is in flight.
        assert_eq!(a.feed(6_000, &[Event::DeadlineTick]), vec![]);
        a.feed(
            6_100,
            &[Event::KernelFinished {
                lease: 1,
                ok: false,
            }],
        );
        assert_eq!(a.residents(), 0);
    }

    #[test]
    fn drain_blocks_new_pairings_but_keeps_dispatching() {
        let mut a = core();
        a.feed(0, &[ready(1, 1, MM, 30)]);
        a.feed(1, &[Event::DrainBegan]);
        let out = a.feed(2, &[ready(2, 2, LC, 14)]);
        assert_eq!(out, vec![], "no new co-run pairs while draining");
        let out = a.feed(3, &[fin(1)]);
        assert_eq!(
            out,
            vec![Command::Dispatch {
                lease: 2,
                range: full()
            }],
            "queued work still drains solo"
        );
    }

    #[test]
    fn severed_session_is_reaped_and_partner_regrows() {
        let mut a = core();
        a.feed(
            0,
            &[
                Event::SessionOpened { session: 1 },
                Event::SessionOpened { session: 2 },
            ],
        );
        a.feed(1, &[ready(1, 1, MM, 30)]);
        a.feed(2, &[ready(2, 2, LC, 14)]);
        assert_eq!(a.residents(), 2);
        let out = a.feed(3, &[Event::SessionSevered { session: 2 }]);
        assert_eq!(
            out,
            vec![
                Command::Reap { session: 2 },
                Command::Resize {
                    lease: 1,
                    range: full()
                },
            ]
        );
        assert_eq!(a.stats().reaped, 1);
        assert_eq!(a.stats().admission.active_sessions, 1);
    }

    // ---- admission control (migrated from the old AdmissionController) ----

    fn limits(limits: AdmissionLimits) -> ArbiterConfig {
        ArbiterConfig {
            limits,
            ..ArbiterConfig::default()
        }
    }

    fn reject_of(out: &[Command]) -> Option<(Option<u64>, RejectScope, u64)> {
        out.iter().find_map(|c| match c {
            Command::RejectOverloaded {
                lease,
                scope,
                retry_after_ms,
                ..
            } => Some((*lease, *scope, *retry_after_ms)),
            _ => None,
        })
    }

    #[test]
    fn session_limit_sheds_with_positive_hint() {
        let mut a = core_with(limits(AdmissionLimits {
            max_sessions: Some(2),
            ..Default::default()
        }));
        assert_eq!(a.feed(0, &[Event::SessionOpened { session: 1 }]), vec![]);
        assert_eq!(a.feed(1, &[Event::SessionOpened { session: 2 }]), vec![]);
        let out = a.feed(2, &[Event::SessionOpened { session: 3 }]);
        let (lease, scope, retry) = reject_of(&out).expect("third session shed");
        assert_eq!(lease, None);
        assert_eq!(scope, RejectScope::Session);
        assert!(retry >= 1);
        a.feed(3, &[Event::SessionClosed { session: 1 }]);
        assert_eq!(a.feed(4, &[Event::SessionOpened { session: 4 }]), vec![]);
        let s = a.stats().admission;
        assert_eq!(s.active_sessions, 2);
        assert_eq!(s.sessions_admitted, 3);
        assert_eq!(s.sessions_rejected, 1);
    }

    #[test]
    fn per_session_bound_sheds_before_the_global_bound() {
        let mut a = core_with(limits(AdmissionLimits {
            max_pending_per_session: Some(1),
            max_pending_global: Some(10),
            ..Default::default()
        }));
        a.feed(0, &[Event::SessionOpened { session: 1 }]);
        let out = a.feed(1, &[launch(1, 7, Some(5), None)]);
        assert!(reject_of(&out).is_none());
        let out = a.feed(2, &[launch(1, 7, Some(5), None)]);
        assert_eq!(reject_of(&out).map(|r| r.1), Some(RejectScope::Launch));
        assert_eq!(a.stats().queue.shed, 1, "global gauge counts the shed too");
        a.feed(3, &[fin(7)]);
        let s = a.stats().admission;
        assert_eq!(s.launches_completed, 1);
        assert_eq!(s.pending_est_ms, 0);
    }

    #[test]
    fn global_bound_rolls_back_the_session_admission() {
        let mut a = core_with(limits(AdmissionLimits {
            max_pending_global: Some(1),
            ..Default::default()
        }));
        a.feed(
            0,
            &[
                Event::SessionOpened { session: 1 },
                Event::SessionOpened { session: 2 },
            ],
        );
        assert!(reject_of(&a.feed(1, &[launch(1, 10, None, None)])).is_none());
        let out = a.feed(2, &[launch(2, 20, None, None)]);
        assert_eq!(reject_of(&out).map(|r| r.1), Some(RejectScope::Launch));
        a.feed(
            3,
            &[Event::KernelFinished {
                lease: 10,
                ok: false,
            }],
        );
        let s = a.stats().admission;
        assert_eq!(s.launches_failed, 1);
        assert_eq!(a.stats().queue.depth, 0);
    }

    #[test]
    fn a_shed_connect_leaves_no_session_entry_behind() {
        let mut a = core_with(limits(AdmissionLimits {
            max_sessions: Some(1),
            ..Default::default()
        }));
        for s in 1..=999 {
            a.feed(s, &[Event::SessionOpened { session: s }]);
        }
        // A declared class goes with its shed open, in the same batch.
        a.feed(
            1_000,
            &[
                slo(1_000, SloClass::LatencyCritical),
                Event::SessionOpened { session: 1_000 },
            ],
        );
        assert_eq!(a.stats().admission.sessions_rejected, 999);
        let held: Vec<u64> = a.sessions.keys().copied().collect();
        assert_eq!(held, [1], "only the admitted session keeps an entry");
        assert_eq!(a.session_slo(1_000), SloClass::BestEffort);
    }

    /// A daemon lease id is `session << 16 | stream` and the map picks a
    /// bucket from the hash's low bits: those bits must still spread
    /// such ids (a bare multiply leaves them constant).
    #[test]
    fn the_id_hasher_spreads_daemon_lease_ids_over_its_low_bits() {
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let hasher = BuildHasherDefault::<IdHasher>::default();
        for stream in [0, 1] {
            let buckets: HashSet<u64> = (1..=1024u64)
                .map(|s| hasher.hash_one(s << 16 | stream) & 0x3FF)
                .collect();
            assert!(
                buckets.len() >= 512,
                "stream {stream}: {} distinct low-bit values",
                buckets.len()
            );
        }
    }

    #[test]
    fn infeasible_deadline_is_rejected_up_front() {
        let mut a = core();
        a.feed(0, &[Event::SessionOpened { session: 1 }]);
        // 500 ms of profiled work is already pending.
        assert!(reject_of(&a.feed(1, &[launch(1, 1, Some(500), None)])).is_none());
        // A 100 ms deadline can never be met behind that queue.
        let out = a.feed(2, &[launch(1, 2, Some(1), Some(100))]);
        let (lease, scope, retry) = reject_of(&out).expect("deadline shed");
        assert_eq!(lease, Some(2));
        assert_eq!(scope, RejectScope::Deadline);
        assert_eq!(retry, 500, "hint is the pending estimate");
        assert_eq!(a.stats().admission.deadline_rejections, 1);
        // A 1000 ms deadline is feasible.
        assert!(reject_of(&a.feed(3, &[launch(1, 3, Some(1), Some(1000))])).is_none());
        a.feed(4, &[fin(1)]);
        a.feed(5, &[fin(3)]);
        assert_eq!(a.stats().admission.pending_est_ms, 0);
    }

    #[test]
    fn memory_watermark_sheds_above_the_line() {
        let mut a = core_with(limits(AdmissionLimits {
            mem_watermark: Some(0.5),
            ..Default::default()
        }));
        a.feed(0, &[Event::SessionOpened { session: 1 }]);
        // Capacity 1000, watermark 500.
        let ok = a.feed(
            1,
            &[Event::MallocRequested {
                session: 1,
                used: 0,
                capacity: 1000,
                bytes: 400,
            }],
        );
        assert!(reject_of(&ok).is_none());
        let out = a.feed(
            2,
            &[Event::MallocRequested {
                session: 1,
                used: 400,
                capacity: 1000,
                bytes: 200,
            }],
        );
        assert_eq!(reject_of(&out).map(|r| r.1), Some(RejectScope::Malloc));
        assert_eq!(a.stats().admission.mallocs_shed, 1);
        // Without a watermark everything passes.
        let mut open = core();
        let out = open.feed(
            0,
            &[Event::MallocRequested {
                session: 1,
                used: 999,
                capacity: 1000,
                bytes: 10_000,
            }],
        );
        assert!(reject_of(&out).is_none());
    }

    #[test]
    fn retry_hint_tracks_pending_estimates() {
        let mut a = core_with(limits(AdmissionLimits {
            max_pending_global: Some(2),
            ..Default::default()
        }));
        a.feed(0, &[Event::SessionOpened { session: 1 }]);
        a.feed(1, &[launch(1, 1, Some(30), None)]);
        a.feed(2, &[launch(1, 2, Some(40), None)]);
        let out = a.feed(3, &[launch(1, 3, Some(5), None)]);
        let (_, _, retry) = reject_of(&out).expect("third launch shed");
        assert_eq!(retry, 70, "hint is the pending estimate");
    }

    #[test]
    fn default_limits_admit_everything() {
        let mut a = core();
        for s in 0..100 {
            assert!(reject_of(&a.feed(s, &[Event::SessionOpened { session: s }])).is_none());
        }
        for l in 0..1_000 {
            assert!(reject_of(&a.feed(l, &[launch(1, l, None, None)])).is_none());
        }
        for l in 0..1_000 {
            a.feed(1_000 + l, &[fin(l)]);
        }
        let s = a.stats().admission;
        assert_eq!(s.sessions_rejected, 0);
        assert_eq!(s.launches_completed, 1_000);
        assert_eq!(a.stats().queue.shed, 0);
        assert_eq!(a.stats().queue.depth, 0);
    }

    // ---- SLO preemption ----

    use slate_kernels::workload::SloClass;

    fn slo(session: u64, class: SloClass) -> Event {
        Event::SloArrival { session, class }
    }

    fn preempting() -> ArbiterCore {
        core_with(ArbiterConfig {
            preempt_bound_us: Some(1_000),
            ..ArbiterConfig::default()
        })
    }

    #[test]
    fn latency_critical_arrival_preempts_best_effort_resident() {
        let mut a = preempting();
        // HC x HM never co-runs under the symmetric Table I closure, so
        // without preemption the arrival would wait out the resident.
        a.feed(0, &[ready(1, 1, HC, 30)]);
        let out = a.feed(5, &[slo(2, SloClass::LatencyCritical), ready(2, 2, HM, 9)]);
        assert_eq!(out[0], Command::Preempt { lease: 1 });
        assert!(
            matches!(out[1], Command::Resize { lease: 1, .. }),
            "the resident retreats: {out:?}"
        );
        assert!(
            matches!(out[2], Command::Dispatch { lease: 2, .. }),
            "the arrival lands in the same batch: {out:?}"
        );
        assert_eq!(a.residents(), 2);
        assert_eq!(a.stats().preemptions, 1);
        // The survivor regrows when the arrival departs.
        let out = a.feed(10, &[fin(2), Event::SessionClosed { session: 2 }]);
        assert_eq!(
            out,
            vec![Command::Resize {
                lease: 1,
                range: full()
            }]
        );
    }

    #[test]
    fn preemption_requires_the_bound_and_spares_critical_residents() {
        // Without the bound the same trace just queues the arrival.
        let mut a = core();
        a.feed(0, &[ready(1, 1, HC, 30)]);
        let out = a.feed(5, &[slo(2, SloClass::LatencyCritical), ready(2, 2, HM, 9)]);
        assert_eq!(out, vec![], "no preemption without a bound");
        assert_eq!(a.waiting(), 1);

        // A latency-critical resident is never displaced by a peer.
        let mut a = preempting();
        a.feed(0, &[slo(1, SloClass::LatencyCritical), ready(1, 1, HC, 30)]);
        let out = a.feed(5, &[slo(2, SloClass::LatencyCritical), ready(2, 2, HM, 9)]);
        assert_eq!(out, vec![], "critical residents are not preempted");
        assert_eq!(a.stats().preemptions, 0);
    }

    #[test]
    fn starved_best_effort_waiter_blocks_preemption() {
        // Aging outranks SLO: once any waiter is past the starvation
        // bound, the next free device goes to the queue head, and no
        // preemption jumps the arrival past it.
        let mut a = core_with(ArbiterConfig {
            preempt_bound_us: Some(1_000),
            starvation_bound_us: Some(10_000),
            ..ArbiterConfig::default()
        });
        a.feed(0, &[ready(1, 1, HC, 30)]);
        a.feed(1, &[ready(2, 2, HC, 30)]); // best-effort, queued
        let out = a.feed(
            20_000,
            &[slo(3, SloClass::LatencyCritical), ready(3, 3, HM, 9)],
        );
        assert_eq!(out, vec![], "a starved queue freezes preemption");
        // When the device frees, the starved best-effort head dispatches
        // ahead of the latency-critical arrival.
        let out = a.feed(20_001, &[fin(1), Event::SessionClosed { session: 1 }]);
        assert_eq!(out[0], Command::PromoteStarved { lease: 2 });
        assert!(matches!(out[1], Command::Dispatch { lease: 2, .. }));
    }

    #[test]
    fn critical_class_survives_snapshot_roundtrip() {
        let mut a = preempting();
        a.feed(0, &[slo(7, SloClass::LatencyCritical)]);
        a.feed(1, &[ready(1, 1, HC, 30)]);
        let mut bytes = Vec::new();
        a.encode(&mut bytes);
        let mut r = crate::durability::codec::Reader { rest: &bytes };
        let mut b = ArbiterCore::decode(&mut r).expect("an encoded core decodes");
        assert!(r.rest.is_empty(), "the core decodes whole");
        assert_eq!(b.session_slo(7), SloClass::LatencyCritical);
        assert_eq!(b.session_slo(1), SloClass::BestEffort);
        // The restored core still preempts for the declared session.
        let out = b.feed(5, &[ready(7, 9, HM, 9)]);
        assert_eq!(out[0], Command::Preempt { lease: 1 });
        assert_eq!(b.stats().preemptions, a.stats().preemptions + 1);
    }

    /// `wal_props` bounds what a snapshot decode reserves by this size:
    /// a waiter is the largest element the decoder reserves from a count.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_waiter_is_the_largest_element_a_snapshot_decode_reserves() {
        use std::mem::size_of;
        assert_eq!(size_of::<state::Waiter>(), 56);
        assert!(size_of::<state::Resident>() <= 56);
        assert!(size_of::<crate::placement::HealthState>() <= 56);
    }

    // ---- recording and replay ----

    #[test]
    fn recorded_run_replays_identically_and_roundtrips_json() {
        let mut a = core_with(ArbiterConfig {
            starvation_bound_us: Some(50_000),
            limits: AdmissionLimits {
                max_pending_per_session: Some(4),
                ..Default::default()
            },
            ..ArbiterConfig::default()
        });
        a.start_recording();
        a.feed(
            0,
            &[
                Event::SessionOpened { session: 1 },
                Event::SessionOpened { session: 2 },
            ],
        );
        a.feed(
            10,
            &[
                launch(1, 1, Some(20), None),
                launch(2, 2, Some(5), Some(500)),
            ],
        );
        a.feed(20, &[ready(1, 1, MM, 30)]);
        a.feed(30, &[ready(2, 2, LC, 14)]);
        a.feed(1_000, &[Event::DeadlineTick]); // heartbeat no-op: not recorded
        a.feed(2_000, &[fin(2), ready(2, 2, LC, 14)]);
        a.feed(3_000, &[fin(1)]);
        a.feed(4_000, &[fin(2), Event::SessionClosed { session: 2 }]);
        a.feed(5_000, &[Event::SessionClosed { session: 1 }]);
        let log = a.take_log().expect("recording was on");
        assert!(
            log.batches.iter().all(|b| {
                !(b.commands.is_empty()
                    && b.events.iter().all(|e| matches!(e, Event::DeadlineTick)))
            }),
            "no-op heartbeats are not recorded"
        );
        replay::verify(&log).expect("replay reproduces the recording");

        let json = serde_json::to_string_pretty(&log).expect("log serializes");
        let back: EventLog = serde_json::from_str(&json).expect("log deserializes");
        assert_eq!(back, log);
        replay::verify(&back).expect("deserialized log still verifies");
        assert_eq!(
            replay::transcript(&replay::replay(&log)),
            replay::transcript(&log.batches),
            "replay transcript is byte-identical"
        );
    }
}
