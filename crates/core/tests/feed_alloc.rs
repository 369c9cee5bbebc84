//! Zero-allocation proof for the steady-state feed path.
//!
//! The dense-id refactor's headline claim (`DESIGN.md` §17) is that a
//! warmed scheduler feeds without touching the allocator: the `IdTable`
//! reuses released slots, every decision-path scratch buffer keeps its
//! high-water capacity, and commands are `Copy`-only payloads written
//! into caller-owned buffers. The daemon's feed path is these same
//! pieces under its arbiter lock (the reply buffer lives beside the
//! layer and is reused), exercised here
//! single-threaded so the count is deterministic: a thread-local
//! counting allocator tallies this thread's allocations only, which
//! keeps the harness's other test threads out of the ledger.
//!
//! Each test warms a component past its high-water mark, then asserts
//! further identical cycles perform **zero** heap allocations.
//!
//! A durable daemon's feed adds the WAL append to that path, under the
//! same lock: a warmed [`Durability::append_batch_meta`] and
//! [`Durability::append_meta`] encode their frames in the buffer the
//! segment writer keeps, and allocate nothing either.
//!
//! A checkpoint's slot write, under the same lock, is the other durable
//! step: a warmed [`SnapshotSlots::write`] encodes its snapshot into the
//! image buffer the slots keep and allocates nothing either, and nor does
//! the slot's sync, which the heartbeat runs outside the lock
//! ([`Durability::sync_checkpoint`]). Capturing
//! the layer for it, [`PlacementLayer::snapshot`], encodes the layer into
//! a body buffer sized up front, and its count is pinned exactly: the
//! buffer and the sorted id lists the encoder walks.
//!
//! The launch path makes the neighbouring claim (`DESIGN.md` §3.3): a
//! [`Dispatcher::run`] costs a fixed handful of allocations whatever the
//! size of the worker grid, and never a thread.

use slate_core::arbiter::{ArbiterConfig, ArbiterCore, Command, Event};
use slate_core::classify::WorkloadClass;
use slate_core::dispatch::{DispatchHandle, Dispatcher};
use slate_core::durability::snapshot::{decode_slot, slot_path, DurableSnapshot, SnapshotSlots};
use slate_core::durability::{Durability, DurableMeta, WalRecord};
use slate_core::feed::ring;
use slate_core::placement::{PlacementBatch, PlacementConfig, PlacementLayer, RoutedCommand};
use slate_core::transform::TransformedKernel;
use slate_core::workers::{helper_threads_spawned, LanePool};
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::perf::KernelPerf;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::GpuKernel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Counts this thread's allocations (alloc, alloc_zeroed, realloc) and
/// defers the real work to the system allocator. Thread-local so the
/// test harness's parallelism can't pollute a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(p, l, n)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

fn ready(session: u64, lease: u64, demand: u32) -> Event {
    Event::KernelReady {
        session,
        lease,
        class: if lease % 2 == 0 {
            WorkloadClass::MM
        } else {
            WorkloadClass::LC
        },
        sm_demand: demand,
        pinned_solo: false,
        deadline_ms: None,
    }
}

/// One full session lifecycle through `feed_into`: open, launch+ready a
/// co-running pair, tick, finish, close. Identical external ids every
/// cycle, so released `IdTable` slots are re-interned from the free list.
fn core_cycle(core: &mut ArbiterCore, t: &mut u64, out: &mut Vec<Command>) {
    let feed = |core: &mut ArbiterCore, t: &mut u64, events: &[Event], out: &mut Vec<Command>| {
        *t += 100;
        core.feed_into(*t, events, out);
    };
    feed(
        core,
        t,
        &[
            Event::SessionOpened { session: 1 },
            Event::SessionOpened { session: 2 },
        ],
        out,
    );
    for (lease, demand) in [(0x10u64, 14u32), (0x21, 16), (0x12, 30), (0x23, 8)] {
        let session = lease >> 4;
        feed(
            core,
            t,
            &[Event::LaunchRequested {
                session,
                lease,
                est_ms: Some(5),
                deadline_ms: None,
            }],
            out,
        );
        feed(core, t, &[ready(session, lease, demand)], out);
    }
    feed(core, t, &[Event::DeadlineTick], out);
    for lease in [0x10u64, 0x21, 0x12, 0x23] {
        feed(core, t, &[Event::KernelFinished { lease, ok: true }], out);
    }
    feed(
        core,
        t,
        &[
            Event::SessionClosed { session: 1 },
            Event::SessionClosed { session: 2 },
        ],
        out,
    );
}

#[test]
fn arbiter_feed_into_steady_state_allocates_nothing() {
    let mut core = ArbiterCore::new(DeviceConfig::titan_xp(), ArbiterConfig::default());
    let mut t = 0u64;
    let mut out = Vec::new();
    // Warm: grow the IdTable arena, scratch buffers and `out` to their
    // high-water marks.
    for _ in 0..4 {
        core_cycle(&mut core, &mut t, &mut out);
    }
    let n = allocs_during(|| {
        for _ in 0..16 {
            core_cycle(&mut core, &mut t, &mut out);
        }
    });
    assert_eq!(n, 0, "warmed ArbiterCore::feed_into must not allocate");
}

/// A session wave routed across four devices and drained again, all
/// through `feed_into` with one reused routed-command buffer.
fn placement_cycle(layer: &mut PlacementLayer, t: &mut u64, out: &mut Vec<RoutedCommand>) {
    for s in 1..=8u64 {
        *t += 50;
        layer.feed_into(*t, &[Event::SessionOpened { session: s }], out);
        layer.feed_into(*t + 10, &[ready(s, s << 4, 8)], out);
    }
    for s in 1..=8u64 {
        *t += 50;
        layer.feed_into(
            *t,
            &[Event::KernelFinished {
                lease: s << 4,
                ok: true,
            }],
            out,
        );
        layer.feed_into(*t + 10, &[Event::SessionClosed { session: s }], out);
    }
}

#[test]
fn placement_feed_into_steady_state_allocates_nothing() {
    let mut layer = PlacementLayer::new(vec![DeviceConfig::tiny(8); 4], PlacementConfig::default());
    let mut t = 0u64;
    let mut out = Vec::new();
    for _ in 0..4 {
        placement_cycle(&mut layer, &mut t, &mut out);
    }
    let n = allocs_during(|| {
        for _ in 0..16 {
            placement_cycle(&mut layer, &mut t, &mut out);
        }
    });
    assert_eq!(n, 0, "warmed PlacementLayer::feed_into must not allocate");
}

/// The WAL appends of a durable feed: the batch (events and the routed
/// commands they produced), alone or with the meta record that shares its
/// `write`, and the meta records appended on their own — an allocation
/// made and freed by a session that stays open, and the launch records of
/// one the mirror no longer holds. What is proved is the append: the
/// frames are encoded in place. A record that *creates*
/// a mirror entry (a session, its first allocation, a launch id of a
/// session that stays open) allocates there, in the mirror's maps, and is
/// left out.
#[test]
fn durable_append_steady_state_allocates_nothing() {
    let dir = std::env::temp_dir().join(format!("slate-feed-alloc-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut layer = PlacementLayer::new(vec![DeviceConfig::tiny(8); 2], PlacementConfig::default());
    let d = Durability::start(
        slate_core::DurabilityOptions {
            dir: dir.clone(),
            snapshot_every: u64::MAX,
            keep_all: false,
        },
        0,
        0,
        &layer.snapshot(),
        DurableMeta::default(),
    )
    .expect("start durability");
    d.append_meta(&WalRecord::SessionMeta {
        session: 1,
        user: "resident".into(),
        slo: Default::default(),
    });
    let ptr = |n: u64| (1 << 32) + n;
    d.append_meta(&WalRecord::Alloc {
        session: 1,
        slate_ptr: ptr(1),
        device_ptr: 0x1000,
        bytes: 4096,
    });
    let mut batch = PlacementBatch {
        at: 0,
        events: Vec::new(),
        routed: Vec::new(),
    };
    let mut cycle = |t: u64| {
        // A batch alone, or with the meta record that shares its `write`.
        let mut feed = |events: &[Event], at: u64, meta: Option<&WalRecord>| {
            layer.feed_into(at, events, &mut batch.routed);
            batch.at = layer.now();
            batch.events.clear();
            batch.events.extend_from_slice(events);
            d.append_batch_meta(&batch, meta, || unreachable!("cadence is off"));
        };
        feed(&[Event::SessionOpened { session: 7 }], t, None);
        d.append_meta(&WalRecord::Alloc {
            session: 1,
            slate_ptr: ptr(2),
            device_ptr: 0x2000,
            bytes: 4096,
        });
        let lease = 7 << 16;
        let requested = Event::LaunchRequested {
            session: 7,
            lease,
            est_ms: Some(1),
            deadline_ms: None,
        };
        let admitted = WalRecord::LaunchAdmitted {
            session: 7,
            launch_id: t,
            lease,
        };
        feed(&[requested], t + 5, Some(&admitted));
        feed(&[ready(7, lease, 8)], t + 10, None);
        d.append_meta(&WalRecord::LaunchDone {
            session: 7,
            launch_id: t,
        });
        feed(&[Event::KernelFinished { lease, ok: true }], t + 20, None);
        d.append_meta(&WalRecord::Free {
            session: 1,
            slate_ptr: ptr(2),
        });
        feed(
            &[Event::SessionClosed { session: 7 }],
            t + 30,
            Some(&WalRecord::SessionClosed { session: 7 }),
        );
    };
    for i in 0..4 {
        cycle(i * 100);
    }
    let n = allocs_during(|| {
        for i in 4..20 {
            cycle(i * 100);
        }
    });
    assert_eq!(n, 0, "warmed WAL appends must not allocate");
    assert_eq!(d.io_errors(), 0);
    let meta = d.meta();
    assert_eq!(meta.sessions.len(), 1, "session 7 was never in the mirror");
    assert_eq!(meta.sessions[&1].allocs.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A four-device fleet with two sessions open, one kernel each, routed
/// round robin onto devices 0 and 1.
fn two_session_fleet() -> PlacementLayer {
    let mut layer = PlacementLayer::new(
        vec![DeviceConfig::titan_xp(); 4],
        PlacementConfig::default(),
    );
    for session in [1u64, 2] {
        layer.feed(session, &[Event::SessionOpened { session }]);
        layer.feed(10 + session, &[ready(session, session << 16, 8)]);
    }
    layer
}

/// A checkpoint's slot write on a four-device fleet with two sessions
/// open: once the slots' image buffer has reached its high-water
/// capacity, encoding and writing the same snapshot again allocates
/// nothing. Capturing the snapshot is the test after next's.
#[test]
fn warmed_slot_write_allocates_nothing() {
    let dir = std::env::temp_dir().join(format!("slate-feed-alloc-slot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let layer = two_session_fleet();
    let mut meta = DurableMeta::default();
    for session in [1u64, 2] {
        meta.apply(&WalRecord::SessionMeta {
            session,
            user: format!("user-{session}"),
            slo: Default::default(),
        });
        meta.apply(&WalRecord::LaunchAdmitted {
            session,
            launch_id: 0,
            lease: session << 16,
        });
    }
    let snap = DurableSnapshot {
        epoch: 1,
        segment: 0,
        offset: 4096,
        placement: layer.snapshot(),
        meta,
    };
    let mut slots = SnapshotSlots::open(&dir, 0).expect("open slots");
    for _ in 0..4 {
        slots.write(&snap).expect("slot write");
    }
    let n = allocs_during(|| {
        for _ in 0..16 {
            slots.write(&snap).expect("slot write");
        }
    });
    assert_eq!(n, 0, "a warmed slot write must not allocate");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The half of a checkpoint the heartbeat runs, off the arbiter lock:
/// once warmed, syncing the slot the last checkpoint wrote and making it
/// the anchor ([`Durability::sync_checkpoint`]) allocates nothing. Every
/// batch is a cadence here, so each step finds a slot to sync; the
/// checkpoints between the steps capture the layer, which allocates, and
/// are left out of the count.
#[test]
fn warmed_sync_step_allocates_nothing() {
    let dir = std::env::temp_dir().join(format!("slate-feed-alloc-sync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let layer = two_session_fleet();
    let d = Durability::start(
        slate_core::DurabilityOptions {
            dir: dir.clone(),
            snapshot_every: 1,
            keep_all: false,
        },
        0,
        0,
        &layer.snapshot(),
        DurableMeta::default(),
    )
    .expect("start durability");
    let batch = PlacementBatch {
        at: 1,
        events: vec![Event::DeadlineTick],
        routed: Vec::new(),
    };
    let mut n = 0;
    for cycle in 0..20 {
        d.append_batch(&batch, || layer.snapshot());
        let step = allocs_during(|| d.sync_checkpoint());
        if cycle >= 4 {
            n += step;
        }
    }
    assert_eq!(n, 0, "a warmed sync step must not allocate");
    assert_eq!(d.io_errors(), 0);
    // Each step found a slot: the anchors went on alternating.
    let anchor = |slot| {
        let bytes = std::fs::read(slot_path(&dir, slot)).expect("read slot");
        decode_slot(&bytes).expect("slot decodes").0
    };
    assert!(
        anchor(0).1 > 0 && anchor(1).1 > 0,
        "{:?}",
        [anchor(0), anchor(1)]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Capturing that fleet's snapshot (`PlacementLayer::snapshot`, under the
/// arbiter lock at every checkpoint) encodes it straight into one body
/// buffer, sized up front: that buffer, and one list of live ids sorted
/// by id for each id table that holds any — the layer's two and the
/// session and lease tables of the two devices routed to.
#[test]
fn capturing_a_snapshot_allocates_its_body_and_the_sorted_id_lists() {
    let layer = two_session_fleet();
    let n = allocs_during(|| drop(layer.snapshot()));
    assert_eq!(n, 1 + 2 + 2 * 2);
}

/// A pooled (events, commands) buffer pair.
type Batch = (Vec<Event>, Vec<Command>);

/// Pooled batches through the SPSC ring (no longer the daemon's
/// transport — its submitters feed the layer directly — but still public
/// API). Once the batch buffers hit their high-water capacity, a full
/// fill → push → pop → drain → clear round trip is allocation-free.
#[test]
fn ring_and_batch_round_trip_allocates_nothing() {
    let (mut tx, mut rx) = ring::<Batch>(8);
    let mut pool: Vec<Batch> = (0..4).map(|_| Batch::default()).collect();
    let round = |pool: &mut Vec<Batch>,
                 tx: &mut slate_core::feed::RingProducer<Batch>,
                 rx: &mut slate_core::feed::RingConsumer<Batch>| {
        for i in 0..4u64 {
            let (mut events, mut commands) = pool.pop().expect("pooled batch");
            events.push(Event::SessionOpened { session: i });
            events.push(Event::SessionClosed { session: i });
            commands.push(Command::Reap { session: i });
            tx.push((events, commands)).expect("ring has room");
        }
        while let Some((mut events, mut commands)) = rx.pop() {
            events.clear();
            commands.clear();
            pool.push((events, commands));
        }
    };
    round(&mut pool, &mut tx, &mut rx); // warm the batch capacities
    let n = allocs_during(|| {
        for _ in 0..64 {
            round(&mut pool, &mut tx, &mut rx);
        }
    });
    assert_eq!(n, 0, "pooled batches through the ring must not allocate");
}

/// A kernel of `blocks` blocks that counts executions and, when armed with
/// its own dispatch handle, shrinks itself to SM 1 from inside block 0 and
/// lets no other block finish before that resize has landed — a resize
/// that deterministically cuts the first launch short on any lane count.
struct Probe {
    blocks: u32,
    hits: Arc<GpuBuffer>,
    shrink: Mutex<Option<DispatchHandle>>,
    armed: AtomicBool,
}

impl Probe {
    fn arm(&self, handle: DispatchHandle) {
        *self.shrink.lock().unwrap() = Some(handle);
        self.armed.store(true, Ordering::Release);
    }
}

impl GpuKernel for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn grid(&self) -> GridDim {
        GridDim::d1(self.blocks)
    }
    fn perf(&self) -> KernelPerf {
        KernelPerf::synthetic("probe", 100.0, 4.0)
    }
    fn run_block(&self, b: BlockCoord) {
        self.hits.fetch_add_u32(b.x as usize, 1);
        if b.x == 0 {
            if let Some(handle) = self.shrink.lock().unwrap().take() {
                handle.resize(SmRange::new(1, 1));
            }
            self.armed.store(false, Ordering::Release);
        } else {
            while self.armed.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
    }
}

fn probe(blocks: u32) -> (Arc<Probe>, TransformedKernel) {
    let probe = Arc::new(Probe {
        blocks,
        hits: Arc::new(GpuBuffer::new(blocks as usize * 4)),
        shrink: Mutex::new(None),
        armed: AtomicBool::new(false),
    });
    (probe.clone(), TransformedKernel::new(probe))
}

/// The launch path. Once the lanes exist, dispatching a four-block kernel
/// (the size of the serving benchmark's launches) allocates a fixed
/// handful of times — the dispatch's own shared state, nothing per
/// logical worker (16 on the tiny device, 240 on the Titan Xp). And 1 000
/// dispatches, half of them resized into a relaunch, spawn no thread, on
/// the process-wide pool or on a four-lane one.
#[test]
fn dispatch_allocates_o1_and_spawns_no_thread() {
    let (tiny, titan) = (DeviceConfig::tiny(2), DeviceConfig::titan_xp());
    let four_lanes = LanePool::with_lanes(4);
    let (small, small_kernel) = probe(4);
    let dispatch_small = |device: &DeviceConfig| {
        let range = SmRange::all(device.num_sms);
        Dispatcher::new(device.clone(), small_kernel.clone(), 10, range).run()
    };
    // Warm up: the process-wide pool and its helpers come to be here.
    dispatch_small(&tiny);
    let on_tiny = allocs_during(|| drop(dispatch_small(&tiny)));
    let on_titan = allocs_during(|| drop(dispatch_small(&titan)));
    assert_eq!(on_tiny, on_titan, "allocations must not follow the grid");
    // The device name, the perf name, queue, dispatch state, launch, runs.
    assert!(
        on_titan <= 8,
        "{on_titan} allocations in one small dispatch"
    );
    for b in 0..4 {
        assert_eq!(small.hits.load_u32(b), 3, "block {b} once per dispatch");
    }

    // 64 one-block tasks over 16 workers: resized from inside block 0,
    // each worker retires one task and the first launch ends undrained,
    // so the dispatch must relaunch.
    let (churned, kernel) = probe(64);
    let spawned = helper_threads_spawned();
    let mut launches = 0;
    for i in 0..1_000 {
        let d = Dispatcher::new(tiny.clone(), kernel.clone(), 1, SmRange::all(2));
        let d = if i % 2 == 0 {
            d.with_pool(four_lanes.clone())
        } else {
            d
        };
        if i % 4 < 2 {
            churned.arm(d.handle());
        }
        launches += d.run().launches;
    }
    assert_eq!(launches, 1_500, "every resized dispatch relaunches once");
    assert_eq!(helper_threads_spawned(), spawned, "the launch path spawned");
    for b in 0..64 {
        assert_eq!(churned.hits.load_u32(b), 1_000, "block {b}");
    }
}
