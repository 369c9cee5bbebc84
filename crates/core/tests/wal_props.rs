//! Property tests for the WAL: the frame reader must be *total*, and the
//! record codec must read back what it wrote — and nothing else.
//!
//! Whatever bytes a crash, a sick disk or an adversary leaves in a
//! segment, `scan` must return — never panic — with the longest provably
//! valid record prefix, the byte length of that prefix, and the offset
//! where the log stopped being trustworthy. These properties drive
//! arbitrary record batches through encode→scan, cut the byte stream at
//! every possible point, flip single bits, feed raw garbage, and put
//! damaged payloads behind checksums that match them, so that only the
//! codec stands between the bytes and a panic.
//!
//! The same codec writes a snapshot slot's body, and the same holds
//! there: generated snapshots read back bit for bit, and every cut and
//! every flipped bit of a real body decodes or is a typed error.

use proptest::prelude::*;
use slate_core::admission::AdmissionLimits;
use slate_core::arbiter::ArbiterConfig;
use slate_core::arbiter::{Command, Event, RejectScope};
use slate_core::classify::WorkloadClass;
use slate_core::durability::codec::{self, FORMAT};
use slate_core::durability::snapshot::{DurableSnapshot, SnapshotSlots};
use slate_core::durability::wal::{
    encode_frame, scan, segment_path, SegmentWriter, FRAME_HEADER_LEN,
};
use slate_core::durability::{
    recover_dir, AllocMeta, DurableMeta, SessionMeta, WalIssue, WalRecord,
};
use slate_core::placement::replay::PlacementBatch;
use slate_core::placement::{
    HealthState, PlacementConfig, PlacementLayer, PlacementPolicy, RebalanceConfig, RoutedCommand,
};
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_kernels::workload::SloClass;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes this thread asks the allocator for, so a property can
/// bound what decoding one payload reserves.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCATED.with(|c| c.set(c.get() + l.size()));
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCATED.with(|c| c.set(c.get() + l.size()));
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCATED.with(|c| c.set(c.get() + n));
        System.realloc(p, l, n)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A `u64` field: 0, `u64::MAX`, or anything.
fn edge() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()]
}

fn opt() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), edge().prop_map(Some)]
}

fn slo() -> impl Strategy<Value = SloClass> {
    prop_oneof![Just(SloClass::LatencyCritical), Just(SloClass::BestEffort)]
}

fn range() -> impl Strategy<Value = SmRange> {
    let end = || prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()];
    (end(), end()).prop_map(|(a, b)| SmRange::new(a.min(b), a.max(b)))
}

/// Every [`Event`] variant, every [`WorkloadClass`] and [`SloClass`].
fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        Just(Event::DeadlineTick),
        Just(Event::DrainBegan),
        edge().prop_map(|session| Event::SessionOpened { session }),
        edge().prop_map(|session| Event::SessionClosed { session }),
        edge().prop_map(|session| Event::SessionSevered { session }),
        (edge(), any::<bool>()).prop_map(|(lease, ok)| Event::KernelFinished { lease, ok }),
        (edge(), edge(), edge(), edge()).prop_map(|(session, used, capacity, bytes)| {
            Event::MallocRequested {
                session,
                used,
                capacity,
                bytes,
            }
        }),
        (edge(), edge(), opt(), opt()).prop_map(|(session, lease, est_ms, deadline_ms)| {
            Event::LaunchRequested {
                session,
                lease,
                est_ms,
                deadline_ms,
            }
        }),
        (
            edge(),
            edge(),
            0..WorkloadClass::ALL.len(),
            prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()],
            any::<bool>(),
            opt(),
        )
            .prop_map(
                |(session, lease, class, sm_demand, pinned_solo, deadline_ms)| {
                    Event::KernelReady {
                        session,
                        lease,
                        class: WorkloadClass::ALL[class],
                        sm_demand,
                        pinned_solo,
                        deadline_ms,
                    }
                }
            ),
        (edge(), any::<bool>()).prop_map(|(device, hard)| Event::DeviceDown { device, hard }),
        edge().prop_map(|device| Event::DeviceUp { device }),
        (edge(), slo()).prop_map(|(session, class)| Event::SloArrival { session, class }),
    ]
}

/// Every [`Command`] variant and every [`RejectScope`], on any device.
fn arb_routed() -> impl Strategy<Value = RoutedCommand> {
    let scope = prop_oneof![
        Just(RejectScope::Session),
        Just(RejectScope::Launch),
        Just(RejectScope::Deadline),
        Just(RejectScope::Malloc),
    ];
    let command = prop_oneof![
        (edge(), range()).prop_map(|(lease, range)| Command::Dispatch { lease, range }),
        (edge(), range()).prop_map(|(lease, range)| Command::Resize { lease, range }),
        (edge(), opt(), scope, edge()).prop_map(|(session, lease, scope, retry_after_ms)| {
            Command::RejectOverloaded {
                session,
                lease,
                scope,
                retry_after_ms,
            }
        }),
        edge().prop_map(|lease| Command::PromoteStarved { lease }),
        edge().prop_map(|lease| Command::Evict { lease }),
        edge().prop_map(|session| Command::Reap { session }),
        edge().prop_map(|lease| Command::Preempt { lease }),
    ];
    let device = prop_oneof![Just(0usize), Just(usize::MAX), any::<usize>()];
    (device, command).prop_map(|(device, command)| RoutedCommand { device, command })
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (".{0,16}", edge(), slo()).prop_map(|(user, session, slo)| WalRecord::SessionMeta {
            session,
            user,
            slo
        }),
        edge().prop_map(|session| WalRecord::SessionClosed { session }),
        (edge(), edge(), edge(), edge()).prop_map(|(session, slate_ptr, device_ptr, bytes)| {
            WalRecord::Alloc {
                session,
                slate_ptr,
                device_ptr,
                bytes,
            }
        }),
        (edge(), edge()).prop_map(|(session, slate_ptr)| WalRecord::Free { session, slate_ptr }),
        (edge(), edge(), edge()).prop_map(|(session, launch_id, lease)| {
            WalRecord::LaunchAdmitted {
                session,
                launch_id,
                lease,
            }
        }),
        (edge(), edge())
            .prop_map(|(session, launch_id)| WalRecord::LaunchDone { session, launch_id }),
        edge().prop_map(|epoch| WalRecord::Epoch { epoch }),
        (
            edge(),
            prop::collection::vec(arb_event(), 0..4),
            prop::collection::vec(arb_routed(), 0..4),
        )
            .prop_map(|(at, events, routed)| WalRecord::Batch {
                batch: PlacementBatch { at, events, routed },
            }),
    ]
}

/// A record's payload as this build writes it.
fn binary(r: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    codec::encode(r, &mut payload);
    payload
}

/// Frames `records` the way this build writes them. Returns (bytes,
/// frame start offsets). The offsets include the final end-of-log
/// position, so `offsets[i]` is where frame `i` begins and
/// `offsets[records.len()]` the total length.
fn encode_all(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut offsets = vec![0usize];
    for r in records {
        bytes.extend_from_slice(&encode_frame(&binary(r)));
        offsets.push(bytes.len());
    }
    (bytes, offsets)
}

/// What a [`SegmentWriter`] puts on disk for `records`: a batch through
/// `append_batch`, together with the record after it when that is not a
/// batch (as the daemon appends a fed batch and its meta record, in one
/// `write`), everything else through `append`, all of it built in the
/// writer's reused buffer.
fn written_by_segment_writer(records: &[WalRecord]) -> Vec<u8> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "slate-walprops-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut w = SegmentWriter::create(&dir, 0).expect("create");
    let mut rest = records.iter().peekable();
    while let Some(r) = rest.next() {
        match r {
            WalRecord::Batch { batch } => {
                let meta = rest.next_if(|next| !matches!(next, WalRecord::Batch { .. }));
                w.append_batch(batch, meta)
            }
            other => w.append(other),
        }
        .expect("append");
    }
    let bytes = std::fs::read(segment_path(&dir, 0)).expect("read");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

fn fresh_layer() -> PlacementLayer {
    PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default())
}

/// A real run's log: two sessions through the layer, one of which closes,
/// with the metadata records a daemon appends for them.
fn a_real_log() -> (PlacementLayer, Vec<WalRecord>) {
    let mut layer = fresh_layer();
    let mut records = Vec::new();
    let mut at = 0;
    let mut feed =
        |layer: &mut PlacementLayer, records: &mut Vec<WalRecord>, events: Vec<Event>| {
            at += 10;
            let routed = layer.feed(at, &events);
            records.push(WalRecord::Batch {
                batch: PlacementBatch { at, events, routed },
            });
        };
    feed(
        &mut layer,
        &mut records,
        vec![
            Event::SloArrival {
                session: 1,
                class: SloClass::LatencyCritical,
            },
            Event::SessionOpened { session: 1 },
            Event::SessionOpened { session: 2 },
        ],
    );
    for (session, class) in [(1u64, WorkloadClass::MM), (2, WorkloadClass::LC)] {
        records.push(WalRecord::SessionMeta {
            session,
            user: format!("user-{session}"),
            slo: SloClass::BestEffort,
        });
        records.push(WalRecord::Alloc {
            session,
            slate_ptr: (session << 32) + 1,
            device_ptr: 0x1000 * session,
            bytes: 4096,
        });
        let lease = session << 16;
        feed(
            &mut layer,
            &mut records,
            vec![Event::LaunchRequested {
                session,
                lease,
                est_ms: Some(5),
                deadline_ms: None,
            }],
        );
        records.push(WalRecord::LaunchAdmitted {
            session,
            launch_id: 0,
            lease,
        });
        feed(
            &mut layer,
            &mut records,
            vec![Event::KernelReady {
                session,
                lease,
                class,
                sm_demand: 4,
                pinned_solo: false,
                deadline_ms: Some(50),
            }],
        );
    }
    records.push(WalRecord::LaunchDone {
        session: 2,
        launch_id: 0,
    });
    feed(
        &mut layer,
        &mut records,
        vec![Event::KernelFinished {
            lease: 2 << 16,
            ok: true,
        }],
    );
    records.push(WalRecord::Free {
        session: 2,
        slate_ptr: (2 << 32) + 1,
    });
    feed(
        &mut layer,
        &mut records,
        vec![Event::SessionClosed { session: 2 }],
    );
    records.push(WalRecord::SessionClosed { session: 2 });
    (layer, records)
}

/// The writer's bytes are the reference encoding for a real layer's
/// batches too, whose routed commands the strategies only imitate: a
/// dispatch and the resize that makes room for it.
#[test]
fn a_routed_batch_is_written_byte_for_byte_as_its_record() {
    let (_, records) = a_real_log();
    let routed: usize = records
        .iter()
        .map(|r| match r {
            WalRecord::Batch { batch } => batch.routed.len(),
            _ => 0,
        })
        .sum();
    assert!(routed >= 3, "two dispatches and a resize: {records:?}");
    assert_eq!(written_by_segment_writer(&records), encode_all(&records).0);
}

/// A real run's segment behind the genesis anchor recovers the state the
/// run holds, byte for byte: the layer's snapshot and the metadata mirror.
#[test]
fn a_real_log_recovers_the_live_state() {
    let (live, records) = a_real_log();
    let mut meta = DurableMeta::default();
    for r in &records {
        meta.apply(r);
    }
    let dir = std::env::temp_dir().join(format!("slate-walprops-real-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let genesis = DurableSnapshot {
        epoch: 0,
        segment: 0,
        offset: 0,
        placement: fresh_layer().snapshot(),
        meta: DurableMeta::default(),
    };
    SnapshotSlots::open(&dir, 0)
        .and_then(|mut slots| slots.write(&genesis))
        .unwrap();
    std::fs::write(segment_path(&dir, 0), encode_all(&records).0).unwrap();
    let rec = recover_dir(&dir).expect("recover");
    assert!(rec.issues.is_empty(), "{:?}", rec.issues);
    assert_eq!(body(&rec.layer, &rec.meta), body(&live, &meta));
    std::fs::remove_dir_all(&dir).ok();
}

/// The slot body of `layer` and `meta` at the genesis anchor: equal
/// states encode equal, every map in key order.
fn body(layer: &PlacementLayer, meta: &DurableMeta) -> Vec<u8> {
    let mut bytes = Vec::new();
    codec::encode_snapshot(
        &DurableSnapshot {
            epoch: 0,
            segment: 0,
            offset: 0,
            placement: layer.snapshot(),
            meta: meta.clone(),
        },
        &mut bytes,
    );
    bytes
}

/// A float a snapshot must carry bit for bit: NaN, ±∞, -0, or any bits.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

/// Every [`PlacementPolicy`], corun and resize on or off, bounds and
/// admission limits set or not (the memory watermark any float), and the
/// rebalancer on or off.
fn arb_config() -> impl Strategy<Value = PlacementConfig> {
    let policy = prop_oneof![
        Just(PlacementPolicy::RoundRobin),
        Just(PlacementPolicy::LeastLoaded),
        prop::collection::vec((edge(), 0usize..4), 0..4).prop_map(|pins| {
            PlacementPolicy::Affinity {
                pins: pins.into_iter().collect(),
            }
        }),
    ];
    let small = || prop_oneof![Just(None), (1u64..4).prop_map(Some)];
    let limits = (
        prop_oneof![Just(None), (1usize..6).prop_map(Some)],
        small(),
        small(),
        prop_oneof![Just(None), float().prop_map(Some)],
    )
        .prop_map(
            |(max_sessions, max_pending_per_session, max_pending_global, mem_watermark)| {
                AdmissionLimits {
                    max_sessions,
                    max_pending_per_session,
                    max_pending_global,
                    mem_watermark,
                }
            },
        );
    let bound = || prop_oneof![Just(None), (1u64..1_000).prop_map(Some)];
    let arbiter = (any::<bool>(), any::<bool>(), bound(), bound(), limits).prop_map(
        |(enable_corun, enable_resize, starvation_bound_us, preempt_bound_us, limits)| {
            ArbiterConfig {
                enable_corun,
                enable_resize,
                starvation_bound_us,
                preempt_bound_us,
                limits,
            }
        },
    );
    let rebalance = prop_oneof![
        Just(None),
        (1u64..40, edge()).prop_map(|(high_ms, seed)| Some(RebalanceConfig {
            high_ms,
            low_ms: high_ms / 2,
            cooldown_us: 10,
            seed,
        })),
    ];
    (policy, arbiter, rebalance).prop_map(|(policy, arbiter, rebalance)| PlacementConfig {
        policy,
        arbiter,
        rebalance,
    })
}

/// The health a device is driven into, by index: healthy, degraded,
/// quarantined, failed, on probation.
const HEALTH: [&str; 5] = ["healthy", "degraded", "quarantined", "failed", "probation"];

/// The events that drive `device` from healthy into state `health`.
fn health_events(device: u64, health: usize) -> Vec<Event> {
    let soft = Event::DeviceDown {
        device,
        hard: false,
    };
    let hard = Event::DeviceDown { device, hard: true };
    match health {
        0 => vec![],
        1 => vec![soft],
        2 => vec![soft.clone(), soft],
        3 => vec![hard],
        _ => vec![hard, Event::DeviceUp { device }],
    }
}

fn health_name(state: HealthState) -> &'static str {
    HEALTH[match state {
        HealthState::Healthy => 0,
        HealthState::Degraded => 1,
        HealthState::Quarantined { .. } => 2,
        HealthState::Failed => 3,
        HealthState::Probation { .. } => 4,
    }]
}

/// One launch of a generated run: its session (1–5), class, SM demand,
/// pinned or not, deadline, and whether it finishes before the snapshot.
type Kernel = (u64, usize, u32, bool, Option<u64>, bool);

fn arb_kernel() -> impl Strategy<Value = Kernel> {
    (
        1u64..6,
        0..WorkloadClass::ALL.len(),
        1u32..9,
        any::<bool>(),
        prop_oneof![Just(None), (1u64..100).prop_map(Some)],
        any::<bool>(),
    )
}

/// A layer over `devices` under `config`, driven through sessions 1–5
/// (the odd ones latency-critical), `kernels`, and then each device into
/// the health `health` names for it. Resident and waiting kernels, SLO
/// classes, deadlines and health timers all end up in its snapshot.
fn driven_layer(
    devices: Vec<DeviceConfig>,
    config: PlacementConfig,
    kernels: &[Kernel],
    health: &[usize],
) -> PlacementLayer {
    let mut layer = PlacementLayer::new(devices, config);
    let mut at = 0;
    let mut feed = |layer: &mut PlacementLayer, events: &[Event]| {
        at += 10;
        layer.feed(at, events);
    };
    for session in 1..=5u64 {
        if session % 2 == 1 {
            let class = SloClass::LatencyCritical;
            feed(&mut layer, &[Event::SloArrival { session, class }]);
        }
        feed(&mut layer, &[Event::SessionOpened { session }]);
    }
    for (i, &(session, class, sm_demand, pinned_solo, deadline_ms, finish)) in
        kernels.iter().enumerate()
    {
        let lease = (session << 16) | i as u64;
        let requested = Event::LaunchRequested {
            session,
            lease,
            est_ms: Some(5),
            deadline_ms,
        };
        feed(&mut layer, &[requested]);
        let ready = Event::KernelReady {
            session,
            lease,
            class: WorkloadClass::ALL[class],
            sm_demand,
            pinned_solo,
            deadline_ms,
        };
        feed(&mut layer, &[ready]);
        if finish {
            feed(&mut layer, &[Event::KernelFinished { lease, ok: true }]);
        }
    }
    for (device, &h) in health.iter().enumerate().take(layer.devices()) {
        feed(&mut layer, &health_events(device as u64, h));
    }
    layer
}

fn arb_meta() -> impl Strategy<Value = DurableMeta> {
    let session = (
        ".{0,12}",
        slo(),
        edge(),
        prop::collection::vec((edge(), edge(), edge()), 0..3),
        prop::collection::vec((edge(), edge()), 0..4),
        prop::collection::vec(edge(), 0..4),
    )
        .prop_map(
            |(user, slo, next_ptr, allocs, admitted, done)| SessionMeta {
                user,
                slo,
                next_ptr,
                allocs: allocs
                    .into_iter()
                    .map(|(ptr, device_ptr, bytes)| (ptr, AllocMeta { device_ptr, bytes }))
                    .collect(),
                admitted: admitted.into_iter().collect(),
                done: done.into_iter().collect(),
            },
        );
    (edge(), prop::collection::vec((edge(), session), 0..4)).prop_map(|(next_session, sessions)| {
        DurableMeta {
            next_session,
            sessions: sessions.into_iter().collect(),
        }
    })
}

/// Devices of a generated fleet: any name, and floats the layer never
/// reads but a snapshot must keep bit for bit.
fn arb_devices() -> impl Strategy<Value = Vec<DeviceConfig>> {
    let device = (".{0,16}", float(), float(), float()).prop_map(|(name, clock, bw, penalty)| {
        DeviceConfig {
            name,
            clock_hz: clock,
            dram_bw: bw,
            dram_mix_penalty: penalty,
            ..DeviceConfig::tiny(8)
        }
    });
    prop::collection::vec(device, 1..5)
}

fn encoded(snap: &DurableSnapshot) -> Vec<u8> {
    let mut bytes = Vec::new();
    codec::encode_snapshot(snap, &mut bytes);
    bytes
}

/// A `serve_durable`-shaped anchor: the four-device Titan Xp fleet under
/// least-loaded routing, mid-op — two sessions open, each with its buffer
/// allocated and four launches admitted, the first session's finished,
/// the second's resident or waiting.
fn a_serving_snapshot() -> DurableSnapshot {
    let mut layer = PlacementLayer::new(
        vec![DeviceConfig::titan_xp(); 4],
        PlacementConfig {
            policy: PlacementPolicy::LeastLoaded,
            ..PlacementConfig::default()
        },
    );
    let mut meta = DurableMeta::default();
    let mut at = 0;
    for session in [41u64, 42] {
        at += 10;
        layer.feed(at, &[Event::SessionOpened { session }]);
        for record in [
            WalRecord::SessionMeta {
                session,
                user: format!("user-{}", session % 8),
                slo: SloClass::BestEffort,
            },
            WalRecord::Alloc {
                session,
                slate_ptr: (session << 32) + 1,
                device_ptr: 0x1000_0000 + session * 0x1000,
                bytes: 4096,
            },
        ] {
            meta.apply(&record);
        }
    }
    for launch_id in 0..4 {
        for session in [41u64, 42] {
            let lease = (session << 16) | launch_id;
            let requested = Event::LaunchRequested {
                session,
                lease,
                est_ms: Some(1),
                deadline_ms: None,
            };
            let ready = Event::KernelReady {
                session,
                lease,
                class: WorkloadClass::LC,
                sm_demand: 1,
                pinned_solo: false,
                deadline_ms: None,
            };
            at += 10;
            layer.feed(at, &[requested, ready]);
            meta.apply(&WalRecord::LaunchAdmitted {
                session,
                launch_id,
                lease,
            });
            if session == 41 {
                at += 10;
                layer.feed(at, &[Event::KernelFinished { lease, ok: true }]);
                meta.apply(&WalRecord::LaunchDone { session, launch_id });
            }
        }
    }
    DurableSnapshot {
        epoch: 3,
        segment: 7,
        offset: 214_000,
        placement: layer.snapshot(),
        meta,
    }
}

/// Every cut and every single-bit flip of a real body decodes or is a
/// typed `InvalidData`, never a panic, and reserves at most one element
/// per byte whatever a count in it claims.
#[test]
fn every_cut_and_bit_flip_of_a_serving_body_decodes_or_is_invalid_data() {
    let good = encoded(&a_serving_snapshot());
    let back = codec::decode_snapshot(&good).expect("the body decodes");
    assert_eq!(encoded(&back), good, "encode(decode(b)) == b");
    // The largest element the decoder reserves from a count: a waiting
    // kernel, crate-private, 56 bytes on a 64-bit target (pinned in the
    // arbiter's unit tests). A typed error's own box is smaller.
    let element = 56;
    let decode = |bytes: &[u8], case: &str| {
        let before = ALLOCATED.with(Cell::get);
        let decoded = codec::decode_snapshot(bytes);
        let reserved = ALLOCATED.with(Cell::get) - before;
        assert!(
            reserved <= bytes.len().max(1) * element,
            "{case}: {reserved} B reserved for a {} B body",
            bytes.len()
        );
        if let Err(e) = decoded {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{case}: {e}");
        }
    };
    for cut in 0..good.len() {
        let err = codec::decode_snapshot(&good[..cut]).expect_err("a cut body is short");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut at {cut}");
        decode(&good[..cut], &format!("cut at {cut}"));
    }
    let mut flipped = good.clone();
    for bit in 0..good.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        decode(&flipped, &format!("bit {bit} flipped"));
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

/// The fixture of slot bodies: one `name hex` line per state of
/// [`pinned_states`], the bytes `codec::encode_snapshot` writes for it.
const SNAPSHOT_BODIES: &str = include_str!("data/snapshot_bodies.txt");

/// A snapshot of `layer`, with no session metadata, at a fixed anchor.
fn anchored(layer: &PlacementLayer) -> DurableSnapshot {
    DurableSnapshot {
        epoch: 1,
        segment: 2,
        offset: 4096,
        placement: layer.snapshot(),
        meta: DurableMeta::default(),
    }
}

fn ready_on(session: u64, lease: u64, class: WorkloadClass, sm_demand: u32) -> Event {
    Event::KernelReady {
        session,
        lease,
        class,
        sm_demand,
        pinned_solo: false,
        deadline_ms: None,
    }
}

/// The states whose slot bodies the fixture pins, each driven to the
/// corner it is named for (asserted, so none degenerates): a serving
/// fleet; the rebalancer with one migration landed and one in flight; a
/// failed device beside one on probation; Affinity pins, one past the
/// fleet, with pending launches, armed deadlines and a finished lease's
/// last range; a latency-critical session that preempted a best-effort
/// resident under a preemption bound.
fn pinned_states() -> Vec<(&'static str, DurableSnapshot)> {
    let tiny = |n| vec![DeviceConfig::tiny(8); n];
    let open = |sessions: &[u64]| -> Vec<Event> {
        sessions
            .iter()
            .map(|&session| Event::SessionOpened { session })
            .collect()
    };

    let mut rebalance = PlacementLayer::new(
        tiny(3),
        PlacementConfig {
            policy: PlacementPolicy::Affinity {
                pins: [(1, 0), (2, 0), (3, 0)].into_iter().collect(),
            },
            rebalance: Some(RebalanceConfig {
                high_ms: 20,
                low_ms: 5,
                cooldown_us: 0,
                seed: 7,
            }),
            ..PlacementConfig::default()
        },
    );
    rebalance.feed(10, &open(&[1, 2, 3]));
    let mm = WorkloadClass::MM;
    rebalance.feed(
        20,
        &[
            ready_on(1, 10, mm, 8),
            ready_on(2, 20, mm, 8),
            ready_on(3, 30, mm, 8),
        ],
    );
    assert_eq!(rebalance.migration_target(10), Some(1));
    rebalance.feed(
        30,
        &[Event::KernelFinished {
            lease: 10,
            ok: false,
        }],
    );
    rebalance.feed(40, &[ready_on(1, 10, mm, 8)]);
    // Everything finishes, which re-arms the planner; a second wave on
    // device 0 fires a second migration, left in flight.
    let done = [10, 20, 30].map(|lease| Event::KernelFinished { lease, ok: true });
    rebalance.feed(50, &done);
    rebalance.feed(
        60,
        &[
            ready_on(1, 11, mm, 8),
            ready_on(2, 21, mm, 8),
            ready_on(3, 31, mm, 8),
        ],
    );
    let stats = rebalance.stats();
    assert_eq!(stats.migrations_completed, 1);
    assert_eq!(stats.rebalances, 2, "a second migration is in flight");

    let mut health = PlacementLayer::new(tiny(4), PlacementConfig::default());
    health.feed(10, &open(&[1, 2, 3, 4]));
    let ready: Vec<Event> = (1..=4u64).map(|s| ready_on(s, s << 16, mm, 4)).collect();
    health.feed(20, &ready);
    health.feed(
        30,
        &[Event::DeviceDown {
            device: 0,
            hard: true,
        }],
    );
    health.feed(
        40,
        &[Event::DeviceDown {
            device: 1,
            hard: true,
        }],
    );
    health.feed(50, &[Event::DeviceUp { device: 1 }]);
    assert_eq!(health.health_of(0), HealthState::Failed);
    assert!(matches!(health.health_of(1), HealthState::Probation { .. }));
    assert!(health.stats().evacuations > 0);

    let mut affinity = PlacementLayer::new(
        tiny(2),
        PlacementConfig {
            policy: PlacementPolicy::Affinity {
                pins: [(1, 1), (2, 1), (5, 9)].into_iter().collect(),
            },
            ..PlacementConfig::default()
        },
    );
    affinity.feed(10, &open(&[1, 2, 3, 5]));
    let mut launches = Vec::new();
    for (session, lease, deadline_ms) in [(1, 11, Some(90)), (2, 21, None), (5, 51, Some(40))] {
        launches.push(Event::LaunchRequested {
            session,
            lease,
            est_ms: Some(3),
            deadline_ms,
        });
        launches.push(Event::KernelReady {
            session,
            lease,
            class: WorkloadClass::HC,
            sm_demand: 4,
            pinned_solo: session == 2,
            deadline_ms,
        });
    }
    affinity.feed(20, &launches);
    affinity.feed(
        30,
        &[Event::KernelFinished {
            lease: 21,
            ok: true,
        }],
    );
    assert_eq!(affinity.device_of_session(1), Some(1));
    assert!(
        affinity.device_of_session(5).is_some(),
        "a pin past the fleet falls back"
    );

    let mut slo = PlacementLayer::new(
        vec![DeviceConfig::titan_xp(); 2],
        PlacementConfig {
            arbiter: ArbiterConfig {
                preempt_bound_us: Some(1_000),
                ..ArbiterConfig::default()
            },
            ..PlacementConfig::default()
        },
    );
    slo.feed(10, &open(&[1, 2]));
    slo.feed(
        20,
        &[
            ready_on(1, 10, WorkloadClass::HC, 30),
            ready_on(2, 20, WorkloadClass::HC, 30),
        ],
    );
    let critical = Event::SloArrival {
        session: 3,
        class: SloClass::LatencyCritical,
    };
    slo.feed(30, &[critical, Event::SessionOpened { session: 3 }]);
    slo.feed(40, &[ready_on(3, 30, WorkloadClass::HM, 9)]);
    assert_eq!(slo.core_stats().preemptions, 1);

    vec![
        ("serving", a_serving_snapshot()),
        ("rebalance", anchored(&rebalance)),
        ("health", anchored(&health)),
        ("affinity", anchored(&affinity)),
        ("slo", anchored(&slo)),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The slot bodies of [`pinned_states`] are the bytes the fixture holds:
/// what a snapshot writes does not move unless the slot version does.
#[test]
fn pinned_states_encode_to_the_fixture_bytes() {
    let fixture: Vec<(&str, &str)> = SNAPSHOT_BODIES
        .lines()
        .map(|line| line.split_once(' ').expect("a `name hex` line"))
        .collect();
    let states = pinned_states();
    assert_eq!(
        fixture.iter().map(|&(name, _)| name).collect::<Vec<_>>(),
        states.iter().map(|&(name, _)| name).collect::<Vec<_>>()
    );
    for ((name, pinned), (_, snap)) in fixture.into_iter().zip(&states) {
        assert_eq!(hex(&encoded(snap)), pinned, "{name}");
    }
}

/// Rewrites the fixture; run only when the slot body changes on purpose
/// (with the slot version bumped):
/// `cargo test -p slate-core --test wal_props -- --ignored`.
#[test]
#[ignore = "regenerates tests/data/snapshot_bodies.txt; run after an intended slot-body change"]
fn regenerate_snapshot_body_fixture() {
    let lines: String = pinned_states()
        .iter()
        .map(|(name, snap)| format!("{name} {}\n", hex(&encoded(snap))))
        .collect();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/snapshot_bodies.txt"
    );
    std::fs::write(path, lines).expect("write fixture");
}

proptest! {
    /// Generated snapshots — every policy and health state, the
    /// rebalancer on and off, admission limits, residents and waiters,
    /// NaN and ±∞ floats — read back bit for bit: `encode(decode(b)) ==
    /// b`, and a layer restored from the decoded body decides as one
    /// restored from the original.
    #[test]
    fn generated_snapshots_round_trip_bit_for_bit(
        devices in arb_devices(),
        config in arb_config(),
        kernels in prop::collection::vec(arb_kernel(), 0..12),
        health in prop::collection::vec(0usize..HEALTH.len(), 4),
        meta in arb_meta(),
        anchor in (edge(), edge(), edge()),
    ) {
        let layer = driven_layer(devices, config, &kernels, &health);
        for device in 0..layer.devices() {
            prop_assert_eq!(health_name(layer.health_of(device)), HEALTH[health[device]]);
        }
        let (epoch, segment, offset) = anchor;
        let snap = DurableSnapshot {
            epoch,
            segment,
            offset,
            placement: layer.snapshot(),
            meta,
        };
        let bytes = encoded(&snap);
        let back = codec::decode_snapshot(&bytes).expect("an encoded snapshot decodes");
        prop_assert_eq!(encoded(&back), bytes);
        prop_assert_eq!((back.epoch, back.segment, back.offset), anchor);
        prop_assert_eq!(&back.meta, &snap.meta);
        let mut original = PlacementLayer::from_snapshot(snap.placement);
        let mut restored = PlacementLayer::from_snapshot(back.placement);
        let mut next: Vec<Event> = (0..kernels.len())
            .map(|i| Event::KernelFinished { lease: (kernels[i].0 << 16) | i as u64, ok: true })
            .collect();
        next.extend((0..layer.devices() as u64).map(|device| Event::DeviceUp { device }));
        next.push(Event::DeadlineTick);
        let at = original.now() + 50_000;
        prop_assert_eq!(restored.feed(at, &next), original.feed(at, &next));
    }

    /// The writer's in-place encoding is byte-identical to
    /// `encode_frame` over the codec's payload, for every record shape,
    /// a batch and its meta record sharing a `write` or not, and whatever
    /// the buffer held before.
    #[test]
    fn segment_writer_bytes_are_the_reference_encoding(
        records in prop::collection::vec(arb_record(), 0..12),
    ) {
        prop_assert_eq!(written_by_segment_writer(&records), encode_all(&records).0);
    }

    /// encode → scan is the identity on any record batch.
    #[test]
    fn roundtrip_any_batch(records in prop::collection::vec(arb_record(), 0..12)) {
        let (bytes, _) = encode_all(&records);
        let out = scan(&bytes);
        prop_assert_eq!(out.records, records);
        prop_assert_eq!(out.valid_len, bytes.len());
        prop_assert!(out.issue.is_none());
    }

    /// Cutting the stream at ANY byte yields exactly the records whose
    /// frames fit wholly in the prefix; a mid-frame cut is reported as a
    /// torn tail at that frame's start, never a panic.
    #[test]
    fn truncation_at_any_point_recovers_the_whole_frame_prefix(
        records in prop::collection::vec(arb_record(), 1..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let (bytes, offsets) = encode_all(&records);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let out = scan(&bytes[..cut]);
        // How many whole frames survive the cut.
        let whole = offsets.iter().filter(|&&o| o <= cut).count() - 1;
        prop_assert_eq!(out.records.len(), whole);
        prop_assert_eq!(&out.records[..], &records[..whole]);
        prop_assert_eq!(out.valid_len, offsets[whole]);
        if offsets[whole] == cut {
            prop_assert!(out.issue.is_none());
        } else {
            prop_assert_eq!(
                out.issue,
                Some(WalIssue::TornTail { offset: offsets[whole] })
            );
        }
    }

    /// Flipping any single bit invalidates exactly the frame containing
    /// it: the scan keeps every earlier record, stops at that frame's
    /// start, and reports the offset. (CRC-32 detects all single-bit
    /// errors, so a flip can never smuggle a bogus record through.)
    #[test]
    fn single_bit_flip_stops_the_scan_at_the_damaged_frame(
        records in prop::collection::vec(arb_record(), 1..8),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (clean, offsets) = encode_all(&records);
        let idx = (((clean.len() - 1) as f64) * byte_frac) as usize;
        let mut bytes = clean.clone();
        bytes[idx] ^= 1 << bit;
        let out = scan(&bytes);
        // The frame the damaged byte belongs to.
        let victim = offsets.iter().filter(|&&o| o <= idx).count() - 1;
        prop_assert_eq!(&out.records[..], &records[..victim]);
        prop_assert_eq!(out.valid_len, offsets[victim]);
        let issue = out.issue.expect("a flipped bit must be reported");
        prop_assert_eq!(issue.offset(), offsets[victim]);
    }

    /// Raw garbage: the scan is total, the valid prefix is self-
    /// consistent (re-scanning it is clean and yields the same records).
    #[test]
    fn arbitrary_garbage_never_panics_and_prefix_is_stable(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let out = scan(&bytes);
        prop_assert!(out.valid_len <= bytes.len());
        let again = scan(&bytes[..out.valid_len]);
        prop_assert!(again.issue.is_none());
        prop_assert_eq!(again.valid_len, out.valid_len);
        prop_assert_eq!(again.records, out.records);
    }

    /// Codec payloads that are not records — random bytes behind the
    /// format byte, a record with bytes overwritten — behind a checksum
    /// that matches them. Decoding never panics and reserves at most one
    /// element per payload byte, whatever a count in it claims; the scan
    /// keeps what decodes and reports the rest as `Corrupt`.
    #[test]
    fn random_payloads_behind_a_valid_crc_never_panic_or_overallocate(
        tail in prop::collection::vec(any::<u8>(), 0..64),
        record in arb_record(),
        hits in prop::collection::vec((0.0f64..1.0, any::<u8>()), 1..4),
    ) {
        let element = size_of::<Event>().max(size_of::<RoutedCommand>());
        let mut damaged = binary(&record);
        let last = damaged.len() - 1;
        for (frac, b) in hits {
            damaged[(1 + (last as f64 * frac) as usize).min(last)] = b;
        }
        for payload in [[&[FORMAT][..], &tail[..]].concat(), damaged] {
            let before = ALLOCATED.with(Cell::get);
            let decoded = codec::decode(&payload);
            let reserved = ALLOCATED.with(Cell::get) - before;
            prop_assert!(
                reserved <= payload.len() * element,
                "{reserved} B reserved for a {} B payload",
                payload.len()
            );
            let out = scan(&encode_frame(&payload));
            match decoded {
                Ok(r) => {
                    prop_assert_eq!(out.records, vec![r]);
                    prop_assert!(out.issue.is_none());
                }
                Err(_) => {
                    prop_assert!(out.records.is_empty());
                    prop_assert!(
                        matches!(out.issue, Some(WalIssue::Corrupt { offset: 0, .. })),
                        "{:?}",
                        out.issue
                    );
                }
            }
        }
    }

    /// Each way a checksummed codec payload can be malformed is `Corrupt`,
    /// and says which: bytes after the record, an unknown tag, a varint
    /// of more than 10 bytes or past `u64`, a length or count past the
    /// end, a record cut short, an unknown format byte — `{` among them,
    /// the first byte of a record in the JSON segments held before the
    /// codec.
    #[test]
    fn malformed_payloads_are_corrupt_and_say_why(
        record in arb_record(),
        junk in prop::collection::vec(any::<u8>(), 1..4),
        tags in (8u8..=255, 12u8..=255, 7u8..=255),
        claim in prop_oneof![4u64..1000, Just(u64::MAX)],
        format in 2u8..=255,
    ) {
        let (record_tag, event_tag, command_tag) = tags;
        let varint = |mut v: u64| {
            let mut out = Vec::new();
            while v >= 0x80 {
                out.push(v as u8 | 0x80);
                v >>= 7;
            }
            out.push(v as u8);
            out
        };
        let cases: [(Vec<u8>, &str); 11] = [
            ([binary(&record), junk].concat(), "trailing bytes"),
            (vec![FORMAT, record_tag], "unknown record tag"),
            // A batch at 0 with one event, then one routed command.
            (vec![FORMAT, 0, 0, 1, event_tag], "unknown event tag"),
            (vec![FORMAT, 0, 0, 0, 1, 0, command_tag], "unknown command tag"),
            // `SessionClosed` with an 11-byte varint, then a 10-byte one
            // whose last byte carries more than bit 63.
            ([&[FORMAT, 2][..], &[0x80; 10], &[0]].concat(), "longer than 10 bytes"),
            ([&[FORMAT, 2][..], &[0xFF; 9], &[0x02]].concat(), "overflows u64"),
            // A user of `claim` bytes with three left; a batch of `claim`
            // events with none.
            ([&[FORMAT, 1, 0][..], &varint(claim)[..], b"ab", &[1]].concat(), "past the end"),
            ([&[FORMAT, 0, 0][..], &varint(claim)[..]].concat(), "past the end"),
            (vec![FORMAT, 7], "ends mid-field"),
            (vec![format, 2, 0], "unknown format byte"),
            (br#"{"SessionClosed":{"session":2}}"#.to_vec(), "unknown format byte 0x7b"),
        ];
        for (payload, cause) in cases {
            let out = scan(&encode_frame(&payload));
            prop_assert!(out.records.is_empty());
            match out.issue {
                Some(WalIssue::Corrupt { offset: 0, reason }) => {
                    prop_assert!(reason.contains(cause), "{payload:?}: {reason} lacks {cause}")
                }
                other => prop_assert!(false, "{payload:?}: {other:?}, not Corrupt at 0"),
            }
        }
    }
}

/// The framing constant the properties above rely on.
#[test]
fn header_is_len_plus_crc() {
    assert_eq!(FRAME_HEADER_LEN, 8);
    let frame = encode_frame(b"x");
    assert_eq!(frame.len(), FRAME_HEADER_LEN + 1);
}
