//! Scheduler hot-path benchmarks with a machine-readable report.
//!
//! This bench uses its own fixed-iteration
//! harness (warmup, then best-of-5 timed runs) so its output is a single
//! stable number per bench, and writes the [`slate_bench::Report`] JSON
//! that CI's `bench_gate` compares against the committed
//! `BENCH_baseline.json`. Covered paths, each fully deterministic:
//!
//! * `arbiter_feed` — [`ArbiterCore::feed`] batch throughput over a
//!   scripted session lifecycle (**hard-gated**: CI fails on a >25%
//!   regression);
//! * `partition` — the SM-demand split of paper §III-C;
//! * `placement_route` — [`PlacementLayer::feed`] routing a session wave
//!   across four devices (**hard-gated**: the health-eligibility checks
//!   added to routing must stay off the allocation-heavy path);
//! * `sim_backend_drain` — staging, dispatching and draining a kernel
//!   through the simulation backend (**hard-gated**);
//! * `wal_append` — durability WAL appends (metadata records and routed
//!   placement batches) on an open segment;
//! * `checkpoint` — 64 batch appends at the default cadence with
//!   compaction on, so every iteration holds exactly one checkpoint (the
//!   open segment's end anchored in a snapshot slot overwritten in place;
//!   no segment created or unlinked — the log rolls by size, about once
//!   per 680 iterations here), then the sync step the heartbeat runs (the
//!   slot's `fdatasync`), on a mirror that has seen 256 sessions close
//!   and holds 2 open: the whole durable cost of 64 batches. The snapshot
//!   is encoded in the binary codec straight into the slot image (one
//!   page; the body is ≈ 0.8 KB on `serve_durable`), so what is left is
//!   mostly one `fdatasync` (ungated for now: it follows the runner's
//!   disk);
//! * `checkpoint_locked` — the same iteration without its sync step: the
//!   part the serving path pays under the arbiter lock every 64 batches
//!   (ungated);
//! * `snapshot_capture` — capturing the layer (`PlacementLayer::snapshot`)
//!   and encoding the slot body (`codec::encode_snapshot`) into a warmed
//!   buffer, on a `serve_durable`-shaped state (four Titan Xp devices, two
//!   sessions, eight leases): the part of a checkpoint that is CPU work
//!   under the arbiter lock, without the write and `fdatasync` (ungated);
//! * `session_lifecycle` — connect → malloc → 4 launches → synchronize →
//!   free → disconnect through a durable daemon: the unit of the
//!   `serve_durable` workload, session thread and WAL included (ungated
//!   for now: ten thread hand-offs per iteration follow the runner's
//!   scheduler);
//! * `recover_replay` — rebuilding daemon state from a durability
//!   directory (snapshot load + full WAL suffix replay);
//! * `trace_export` — converting a recorded event log into Perfetto
//!   trace JSON (replay verification + track/lane assembly + emission;
//!   ungated while the conversion cost is established);
//! * `json_parse` — `serde::parse` of that trace document: the vendored
//!   codec's read side, which event logs and every `slate-repro` input go
//!   through (ungated for now);
//! * `sim_pairing` — one full-scale BS-RG pairing under each of the three
//!   simulated runtimes, per simulated launch: the unit of every paper
//!   figure and of `slate-bench`'s `sim_paper` sweep (ungated for now);
//! * `tuner_replay_variant` — one counterfactual replay of a recorded
//!   log under a non-recorded config, the autotuner's unit of work
//!   (ungated initially);
//! * `dispatch_small` — a four-block kernel through a standalone
//!   [`Dispatcher`] on the Titan Xp's 240-worker grid: the launch path a
//!   serving daemon pays per kernel (**hard-gated**: it must stay free of
//!   thread creation and per-worker work);
//! * `dispatch_resize_relaunch` — a dispatch resized from inside its
//!   first block, so every iteration retreats and relaunches once
//!   (ungated: helper wake-ups make it follow the machine's CPU count);
//! * `memcpy_upload` / `memcpy_download` — `upload_f32` / `download_f32`
//!   of 4 MB through an in-memory daemon, per MB: the two halves of a
//!   `serve_mixed` cycle's data plane, measured apart so a change shows
//!   which one it moved. An upload is one conversion into the client's
//!   vector and one word-by-word copy into the device; a download is one
//!   word-by-word append into the client's vector; each is one channel
//!   round trip (ungated: it is memory bandwidth, which follows the
//!   runner);
//! * `transpose_1024` — the 1024×1024 [`TransposeKernel`] block by block
//!   on the calling thread, per block: the kernel between those copies
//!   (ungated, likewise).
//!
//! Output: `-- --json <path>` or the `SLATE_BENCH_JSON` environment
//! variable; a human-readable table always goes to stdout.

use slate_baselines::{CudaRuntime, MpsRuntime, Runtime};
use slate_bench::{BenchMeasurement, Report, REPORT_SCHEMA};
use slate_core::api::SlateClient;
use slate_core::arbiter::replay::{replay_under, EventLog};
use slate_core::arbiter::{ArbiterConfig, ArbiterCore, Command, Event};
use slate_core::backend::{Backend, SimBackend, WorkSpec};
use slate_core::channel::SlatePtr;
use slate_core::classify::WorkloadClass;
use slate_core::daemon::{DaemonOptions, SlateDaemon};
use slate_core::dispatch::{DispatchHandle, Dispatcher};
use slate_core::durability::{
    codec, recover_dir, Durability, DurableMeta, DurableSnapshot, WalRecord,
};
use slate_core::partition::partition;
use slate_core::placement::{PlacementBatch, PlacementConfig, PlacementLayer, PlacementPolicy};
use slate_core::transform::TransformedKernel;
use slate_core::{DurabilityOptions, SlateRuntime};
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::perf::KernelPerf;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::{run_reference, GpuKernel};
use slate_kernels::transpose::TransposeKernel;
use slate_kernels::workload::Benchmark;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Warmup fraction and measurement runs of the fixed harness.
const RUNS: u32 = 5;

fn measure(
    name: &str,
    gated: bool,
    iters: u64,
    items_per_iter: u64,
    mut f: impl FnMut(),
) -> BenchMeasurement {
    for _ in 0..(iters / 10).max(1) {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..RUNS {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    measured(name, gated, iters, items_per_iter, best)
}

/// [`measure`] for an iteration of which only a part counts: `f` runs a
/// whole iteration and returns how long that part took.
fn measure_part(
    name: &str,
    gated: bool,
    iters: u64,
    items_per_iter: u64,
    mut f: impl FnMut() -> Duration,
) -> BenchMeasurement {
    for _ in 0..(iters / 10).max(1) {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..RUNS {
        let part: Duration = (0..iters).map(|_| f()).sum();
        best = best.min(part.as_nanos() as f64 / iters as f64);
    }
    measured(name, gated, iters, items_per_iter, best)
}

/// Prints one bench's line and returns its measurement.
fn measured(
    name: &str,
    gated: bool,
    iters: u64,
    items_per_iter: u64,
    best: f64,
) -> BenchMeasurement {
    println!(
        "{name:<20} {best:>12.1} ns/iter  ({:.2} Mitems/s)",
        items_per_iter as f64 * 1e3 / best
    );
    BenchMeasurement {
        name: name.to_string(),
        gated,
        iters,
        ns_per_iter: best,
        items_per_iter,
    }
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

/// One scripted arbitration lifecycle: 2 sessions, 4 kernels with mixed
/// classes (one co-run, one serialized pair), all finished and closed.
/// 16 events through `feed` per iteration on a fresh core.
fn arbiter_feed_iteration() {
    let mut core = ArbiterCore::new(DeviceConfig::titan_xp(), ArbiterConfig::default());
    let mut t = 0u64;
    let mut feed = |core: &mut ArbiterCore, events: &[Event]| {
        t += 100;
        black_box(core.feed(t, events));
    };
    feed(
        &mut core,
        &[
            Event::SessionOpened { session: 1 },
            Event::SessionOpened { session: 2 },
        ],
    );
    for (lease, demand) in [(0x10, 14u32), (0x21, 16), (0x12, 30), (0x23, 8)] {
        let session = lease >> 4;
        feed(
            &mut core,
            &[Event::LaunchRequested {
                session,
                lease,
                est_ms: Some(5),
                deadline_ms: None,
            }],
        );
        feed(&mut core, &[ready(session, lease, demand)]);
    }
    feed(&mut core, &[Event::DeadlineTick]);
    for lease in [0x10u64, 0x21, 0x12, 0x23] {
        feed(&mut core, &[Event::KernelFinished { lease, ok: true }]);
    }
    feed(
        &mut core,
        &[
            Event::SessionClosed { session: 1 },
            Event::SessionClosed { session: 2 },
        ],
    );
}

/// A wave of 8 sessions (with one kernel each) routed across 4 devices.
fn placement_route_iteration(policy: &PlacementPolicy) {
    let mut layer = PlacementLayer::new(
        vec![DeviceConfig::tiny(8); 4],
        PlacementConfig {
            policy: policy.clone(),
            ..Default::default()
        },
    );
    let mut t = 0u64;
    for s in 1..=8u64 {
        t += 50;
        black_box(layer.feed(t, &[Event::SessionOpened { session: s }]));
        black_box(layer.feed(t + 10, &[ready(s, s << 4, 8)]));
    }
    for s in 1..=8u64 {
        t += 50;
        black_box(layer.feed(
            t,
            &[Event::KernelFinished {
                lease: s << 4,
                ok: true,
            }],
        ));
        black_box(layer.feed(t + 10, &[Event::SessionClosed { session: s }]));
    }
}

struct Nop {
    grid: GridDim,
}
impl GpuKernel for Nop {
    fn name(&self) -> &str {
        "nop"
    }
    fn grid(&self) -> GridDim {
        self.grid
    }
    fn perf(&self) -> KernelPerf {
        KernelPerf::synthetic("nop", 100.0, 0.0)
    }
    fn run_block(&self, b: BlockCoord) {
        black_box(b);
    }
}

/// A kernel that, when armed with its own dispatch handle, shrinks itself
/// to one SM from inside block 0, and lets no other block finish before
/// that resize has landed — so every live worker retires exactly one task
/// in the first launch, on any number of lanes.
struct SelfResizing {
    grid: GridDim,
    shrink: Mutex<Option<DispatchHandle>>,
    armed: AtomicBool,
}
impl SelfResizing {
    fn arm(&self, handle: DispatchHandle) {
        *self.shrink.lock().expect("bench lock") = Some(handle);
        self.armed.store(true, Ordering::Release);
    }
}
impl GpuKernel for SelfResizing {
    fn name(&self) -> &str {
        "self-resizing"
    }
    fn grid(&self) -> GridDim {
        self.grid
    }
    fn perf(&self) -> KernelPerf {
        KernelPerf::synthetic("self-resizing", 100.0, 0.0)
    }
    fn run_block(&self, b: BlockCoord) {
        if b.x == 0 {
            if let Some(h) = self.shrink.lock().expect("bench lock").take() {
                h.resize(SmRange::new(0, 0));
            }
            self.armed.store(false, Ordering::Release);
        } else {
            while self.armed.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
    }
}

/// Stage → dispatch → drain 10 000 simulated blocks on a fresh backend.
fn sim_drain_iteration(kernel: &TransformedKernel) {
    let mut be = SimBackend::new(DeviceConfig::tiny(4));
    be.stage(1, WorkSpec::new(kernel.clone(), 10));
    be.apply(&Command::Dispatch {
        lease: 1,
        range: SmRange::all(4),
    });
    let done = be.wait_completion(10_000).expect("nop kernel drains");
    assert!(done.ok, "simulated drain completed");
}

/// Builds a durability directory holding `sessions` full session
/// lifecycles as placement batches in a single segment (the genesis
/// snapshot anchors it), plus a pair of alloc/free metadata records per
/// session. Returns the number of batches appended.
fn build_wal_dir(dir: &std::path::Path, sessions: u64) -> u64 {
    let _ = std::fs::remove_dir_all(dir);
    let mut layer = PlacementLayer::new(vec![DeviceConfig::tiny(4); 2], PlacementConfig::default());
    let dur = Durability::start(
        DurabilityOptions {
            dir: dir.to_path_buf(),
            snapshot_every: u64::MAX, // keep everything in segment 0
            keep_all: true,
        },
        0,
        0,
        &layer.snapshot(),
        DurableMeta::default(),
    )
    .expect("start durability");
    let mut t = 0u64;
    let mut batches = 0u64;
    for s in 1..=sessions {
        for events in [
            vec![Event::SessionOpened { session: s }],
            vec![ready(s, s << 4, 4)],
            vec![Event::KernelFinished {
                lease: s << 4,
                ok: true,
            }],
            vec![Event::SessionClosed { session: s }],
        ] {
            t += 50;
            let routed = layer.feed(t, &events);
            dur.append_batch(
                &PlacementBatch {
                    at: t,
                    events,
                    routed,
                },
                || layer.snapshot(),
            );
            batches += 1;
        }
        dur.append_meta(&WalRecord::Alloc {
            session: s,
            slate_ptr: s,
            device_ptr: s,
            bytes: 4096,
        });
        dur.append_meta(&WalRecord::Free {
            session: s,
            slate_ptr: s,
        });
    }
    dur.freeze();
    batches
}

/// The WAL records of one `serve_durable`-shaped session lifecycle: the
/// session, an allocation, four launches admitted and done, the free, and
/// — unless it is to stay `open` — the close.
fn lifecycle_records(session: u64, open: bool) -> Vec<WalRecord> {
    let ptr = (session << 32) + 1;
    let mut records = vec![
        WalRecord::SessionMeta {
            session,
            user: format!("user-{}", session % 8),
            slo: Default::default(),
        },
        WalRecord::Alloc {
            session,
            slate_ptr: ptr,
            device_ptr: 0x1000 * session,
            bytes: 4096,
        },
    ];
    for launch_id in 0..4 {
        records.push(WalRecord::LaunchAdmitted {
            session,
            launch_id,
            lease: session << 16,
        });
        records.push(WalRecord::LaunchDone { session, launch_id });
    }
    if !open {
        records.push(WalRecord::Free {
            session,
            slate_ptr: ptr,
        });
        records.push(WalRecord::SessionClosed { session });
    }
    records
}

/// A `serve_durable`-shaped state: four Titan Xp devices under
/// least-loaded routing, two sessions open with a buffer each and four
/// launches admitted each, the first session's finished, the second's
/// resident or waiting.
fn serving_state() -> (PlacementLayer, DurableMeta) {
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
        for record in lifecycle_records(session, true).into_iter().take(2) {
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
            at += 10;
            layer.feed(at, &[requested, ready(session, lease, 1)]);
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
    (layer, meta)
}

/// Records one deterministic arbitration run — `sessions` sessions, four
/// kernels each with mixed classes and interleaved finishes — and returns
/// the event log the trace exporter and autotuner consume.
fn record_event_log(sessions: u64) -> EventLog {
    let mut core = ArbiterCore::new(
        DeviceConfig::titan_xp(),
        ArbiterConfig {
            starvation_bound_us: Some(50_000),
            preempt_bound_us: Some(20_000),
            ..ArbiterConfig::default()
        },
    );
    core.start_recording();
    let mut t = 0u64;
    for s in 1..=sessions {
        t += 100;
        core.feed(t, &[Event::SessionOpened { session: s }]);
        for k in 0..4u64 {
            let lease = (s << 4) | k;
            t += 700;
            core.feed(t, &[ready(s, lease, 6 + ((lease * 7) % 24) as u32)]);
            t += 2_300;
            core.feed(t, &[Event::KernelFinished { lease, ok: true }]);
        }
        t += 100;
        core.feed(t, &[Event::DeadlineTick]);
        t += 100;
        core.feed(t, &[Event::SessionClosed { session: s }]);
    }
    core.take_log().expect("recording was enabled")
}

/// One half of a `serve_mixed` best-effort copy, `op`, of 4 MB through an
/// in-memory daemon of its own, per MB. The device buffer holds the host
/// words before and after the measurement.
fn memcpy_half(name: &str, op: impl Fn(&SlateClient, SlatePtr, &[f32])) -> BenchMeasurement {
    const WORDS: usize = 1 << 20;
    let daemon = SlateDaemon::start(DeviceConfig::titan_xp(), 1 << 24);
    let client = SlateClient::new(daemon.connect("bench").expect("connect"));
    let p = client.malloc(WORDS as u64 * 4).expect("malloc");
    let host: Vec<f32> = (0..WORDS).map(|i| i as f32).collect();
    client.upload_f32(p, &host).expect("upload");
    let m = measure(name, false, 40, 4, || op(&client, p, &host));
    assert_eq!(client.download_f32(p, WORDS).expect("download"), host);
    client.disconnect().expect("disconnect");
    daemon.join();
    m
}

fn main() {
    let [checkpoint, checkpoint_locked] = checkpoint_benches();
    let report = Report {
        schema: REPORT_SCHEMA,
        benches: vec![
            measure("arbiter_feed", true, 2_000, 16, arbiter_feed_iteration),
            measure("partition", false, 200_000, 3, || {
                let cfg = DeviceConfig::titan_xp();
                black_box(partition(&cfg, 14, 16));
                black_box(partition(&cfg, 30, 8));
                black_box(partition(&cfg, 22, 22));
            }),
            measure("placement_route", true, 1_000, 32, || {
                placement_route_iteration(&PlacementPolicy::RoundRobin);
                placement_route_iteration(&PlacementPolicy::LeastLoaded);
            }),
            {
                let kernel = TransformedKernel::new(Arc::new(Nop {
                    grid: GridDim::d1(10_000),
                }));
                measure("sim_backend_drain", true, 300, 10_000, move || {
                    sim_drain_iteration(&kernel)
                })
            },
            {
                // 8 metadata appends + 8 batch appends per iteration on a
                // live segment (snapshot cadence high enough that
                // checkpoints stay off the measured path; a timed run that
                // a 1 MiB roll lands in pays one segment create and
                // `fsync`, and the best run is kept).
                let dir = std::env::temp_dir()
                    .join(format!("slate-bench-walappend-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let layer =
                    PlacementLayer::new(vec![DeviceConfig::tiny(4); 2], PlacementConfig::default());
                let snap = layer.snapshot();
                let dur = Durability::start(
                    DurabilityOptions {
                        dir: dir.clone(),
                        snapshot_every: 1 << 20,
                        keep_all: false,
                    },
                    0,
                    0,
                    &snap,
                    DurableMeta::default(),
                )
                .expect("start durability");
                let batch = PlacementBatch {
                    at: 1,
                    events: vec![ready(1, 0x10, 4)],
                    routed: Vec::new(),
                };
                let m = measure("wal_append", true, 2_000, 16, move || {
                    for i in 0..8u64 {
                        dur.append_meta(&WalRecord::Alloc {
                            session: 1,
                            slate_ptr: i,
                            device_ptr: i,
                            bytes: 256,
                        });
                    }
                    for _ in 0..8 {
                        dur.append_batch(&batch, || snap.clone());
                    }
                });
                let _ = std::fs::remove_dir_all(&dir);
                m
            },
            checkpoint,
            checkpoint_locked,
            {
                let (layer, meta) = serving_state();
                let mut snap = DurableSnapshot {
                    epoch: 1,
                    segment: 0,
                    offset: 4096,
                    placement: layer.snapshot(),
                    meta,
                };
                let mut body = Vec::new();
                measure("snapshot_capture", false, 20_000, 1, move || {
                    snap.placement = layer.snapshot();
                    body.clear();
                    codec::encode_snapshot(&snap, &mut body);
                    black_box(&body);
                })
            },
            {
                let dir = std::env::temp_dir()
                    .join(format!("slate-bench-lifecycle-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let daemon = SlateDaemon::start_with_options(
                    DeviceConfig::titan_xp(),
                    1 << 24,
                    DaemonOptions {
                        durability: Some(DurabilityOptions::new(&dir)),
                        ..DaemonOptions::default()
                    },
                );
                let m = measure("session_lifecycle", false, 500, 1, || {
                    let client = SlateClient::new(daemon.connect("bench").expect("connect"));
                    let p = client.malloc(4096).expect("malloc");
                    for _ in 0..4 {
                        client
                            .launch_with(vec![p], 10, None, |_| -> Arc<dyn GpuKernel> {
                                Arc::new(Nop {
                                    grid: GridDim::d1(4),
                                })
                            })
                            .expect("launch");
                    }
                    client.synchronize().expect("synchronize");
                    client.free(p).expect("free");
                    client.disconnect().expect("disconnect");
                });
                daemon.join();
                assert_eq!(daemon.wal_io_errors(), 0);
                drop(daemon);
                let _ = std::fs::remove_dir_all(&dir);
                m
            },
            {
                let dir = std::env::temp_dir()
                    .join(format!("slate-bench-recover-{}", std::process::id()));
                let batches = build_wal_dir(&dir, 64);
                let scan_dir = dir.clone();
                let m = measure("recover_replay", true, 100, batches, move || {
                    black_box(recover_dir(&scan_dir).expect("recover"));
                });
                let _ = std::fs::remove_dir_all(&dir);
                m
            },
            {
                let log = record_event_log(16);
                let batches = log.batches.len() as u64;
                measure("trace_export", false, 200, batches, move || {
                    black_box(
                        slate_core::trace::trace_log(&log)
                            .expect("recorded log exports")
                            .to_json(),
                    );
                })
            },
            {
                let log = record_event_log(16);
                let batches = log.batches.len() as u64;
                let json = slate_core::trace::trace_log(&log)
                    .expect("recorded log exports")
                    .to_json();
                measure("json_parse", false, 200, batches, move || {
                    black_box(serde::parse(&json).expect("the export is JSON"));
                })
            },
            {
                let cfg = DeviceConfig::titan_xp();
                let cuda = CudaRuntime::new(cfg.clone());
                let mps = MpsRuntime::new(cfg.clone());
                let slate = SlateRuntime::new(cfg);
                let apps = [Benchmark::BS.app(), Benchmark::RG.app()];
                let launches = 3 * (apps[0].launches + apps[1].launches) as u64;
                measure("sim_pairing", false, 40, launches, move || {
                    for rt in [&cuda as &dyn Runtime, &mps, &slate] {
                        black_box(rt.run(&apps));
                    }
                })
            },
            {
                let log = record_event_log(16);
                let batches = log.batches.len() as u64;
                // A config the log was NOT recorded under, so the replay
                // takes the counterfactual (non-verifying) path the tuner
                // exercises for every grid variant.
                let variant = ArbiterConfig {
                    preempt_bound_us: None,
                    ..log.config.clone()
                };
                measure("tuner_replay_variant", false, 500, batches, move || {
                    black_box(replay_under(&log, variant.clone()));
                })
            },
            {
                let device = DeviceConfig::titan_xp();
                let kernel = TransformedKernel::new(Arc::new(Nop {
                    grid: GridDim::d1(4),
                }));
                measure("dispatch_small", true, 20_000, 4, move || {
                    let d = Dispatcher::new(device.clone(), kernel.clone(), 10, SmRange::all(30));
                    black_box(d.run());
                })
            },
            {
                // 1 024 one-block tasks over 240 workers: after the resize
                // each live worker retires one task, so the first launch
                // cannot drain the queue and the dispatch relaunches.
                let device = DeviceConfig::titan_xp();
                let probe = Arc::new(SelfResizing {
                    grid: GridDim::d1(1_024),
                    shrink: Mutex::new(None),
                    armed: AtomicBool::new(false),
                });
                let kernel = TransformedKernel::new(probe.clone());
                measure("dispatch_resize_relaunch", false, 2_000, 2, move || {
                    let d = Dispatcher::new(device.clone(), kernel.clone(), 1, SmRange::all(30));
                    probe.arm(d.handle());
                    assert_eq!(d.run().launches, 2, "resized mid-launch");
                })
            },
            memcpy_half("memcpy_upload", |client, p, host| {
                client.upload_f32(p, host).expect("upload")
            }),
            memcpy_half("memcpy_download", |client, p, host| {
                black_box(client.download_f32(p, host.len()).expect("download"));
            }),
            {
                const DIM: u32 = 1024;
                let words = (DIM * DIM) as usize;
                let input = Arc::new(GpuBuffer::new(words * 4));
                let output = Arc::new(GpuBuffer::new(words * 4));
                input.write_f32_slice(0, &(0..words).map(|i| i as f32).collect::<Vec<_>>());
                let kernel = TransposeKernel::new(DIM, DIM, input, output.clone());
                let blocks = kernel.grid().total_blocks();
                let m = measure("transpose_1024", false, 40, blocks, || {
                    run_reference(black_box(&kernel))
                });
                assert_eq!(output.load_f32(1), DIM as f32, "out[0][1] = in[1][0]");
                m
            },
        ],
    };

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var("SLATE_BENCH_JSON").ok());
    match path {
        Some(p) => {
            std::fs::write(&p, &json).unwrap_or_else(|e| panic!("write {p}: {e}"));
            println!("report written to {p}");
        }
        None => println!("{json}"),
    }
}

/// `checkpoint` and `checkpoint_locked`: the same iterations, timed whole
/// and without their sync step.
fn checkpoint_benches() -> [BenchMeasurement; 2] {
    // A four-device fleet with two sessions open, and a mirror 258
    // lifecycles old. Each iteration appends 64 batches at the default
    // cadence, so it holds exactly one checkpoint, and then runs the sync
    // step.
    let dir = std::env::temp_dir().join(format!("slate-bench-checkpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut layer = PlacementLayer::new(
        vec![DeviceConfig::titan_xp(); 4],
        PlacementConfig::default(),
    );
    let mut meta = DurableMeta::default();
    for session in 1..=258 {
        for record in lifecycle_records(session, session > 256) {
            meta.apply(&record);
        }
    }
    layer.feed(
        1,
        &[
            Event::SessionOpened { session: 257 },
            Event::SessionOpened { session: 258 },
        ],
    );
    let dur = Durability::start(DurabilityOptions::new(&dir), 0, 0, &layer.snapshot(), meta)
        .expect("start durability");
    let batch = PlacementBatch {
        at: 2,
        events: vec![ready(257, 257 << 16, 4)],
        routed: Vec::new(),
    };
    let iteration = move || {
        let t = Instant::now();
        for _ in 0..64 {
            dur.append_batch(&batch, || layer.snapshot());
        }
        let locked = t.elapsed();
        dur.sync_checkpoint();
        locked
    };
    let whole = measure("checkpoint", false, 200, 64, || {
        iteration();
    });
    let locked = measure_part("checkpoint_locked", false, 200, 64, iteration);
    let _ = std::fs::remove_dir_all(&dir);
    [whole, locked]
}
