//! Seeded crash-kill / recover acceptance harness for the durability
//! subsystem.
//!
//! Each case runs a fixed workload of crash-replayable kernels whose every
//! block increments its own slot of a "hit buffer" exactly once, kills the
//! daemon at a seed-derived instant (`SlateDaemon::crash` — the functional
//! SIGKILL), recovers it from the WAL + snapshot directory, and lets the
//! client reattach transparently through its resume token. Exactly-once
//! execution is then observable as bytes: every hit slot must read 1.0
//! (a lost block would read 0.0, a re-executed one 2.0), and the whole
//! buffer must equal the one produced by an identical run that never
//! crashed. The full placement WAL — both epochs, kept via `keep_all` —
//! must also replay to the byte-identical routed-command transcript.

use slate_core::api::{resume_with_retry, RetryPolicy, SlateClient};
use slate_core::daemon::{DaemonOptions, ResumeToken, SlateDaemon};
use slate_core::durability::full_log;
use slate_core::placement::replay::verify;
use slate_core::DurabilityOptions;
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::device::DeviceConfig;
use slate_gpu_sim::perf::KernelPerf;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::GpuKernel;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

const BLOCKS: u32 = 48;
const LAUNCHES: usize = 6;

/// Every block bumps its own hit slot by one and dawdles long enough that
/// a mid-workload kill lands between block executions. One slot per block
/// means no write contention: the slot's final value *is* the execution
/// count.
struct HitKernel {
    base: usize,
    hits: Arc<GpuBuffer>,
}

impl GpuKernel for HitKernel {
    fn name(&self) -> &str {
        "hit"
    }
    fn grid(&self) -> GridDim {
        GridDim::d1(BLOCKS)
    }
    fn perf(&self) -> KernelPerf {
        KernelPerf::synthetic("hit", 400.0, 900.0)
    }
    fn run_block(&self, b: BlockCoord) {
        let i = self.base + b.x as usize;
        self.hits.store_f32(i, self.hits.load_f32(i) + 1.0);
        std::thread::sleep(Duration::from_micros(300));
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "slate-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn fleet(devices: usize) -> Vec<DeviceConfig> {
    (0..devices).map(|_| DeviceConfig::tiny(4)).collect()
}

fn durable_opts(devices: usize, dir: &Path) -> DaemonOptions {
    durable_opts_keeping(devices, dir, true)
}

fn durable_opts_keeping(devices: usize, dir: &Path, keep_all: bool) -> DaemonOptions {
    DaemonOptions {
        devices: fleet(devices),
        durability: Some(DurabilityOptions {
            dir: dir.to_path_buf(),
            snapshot_every: 8,
            keep_all,
        }),
        ..Default::default()
    }
}

/// Submits the fixed workload: one hit buffer, `LAUNCHES` replayable
/// kernels over disjoint slot ranges. Returns the buffer handle.
fn submit_workload(client: &SlateClient) -> slate_core::SlatePtr {
    let slots = LAUNCHES * BLOCKS as usize;
    let hits = client.malloc((slots * 4) as u64).unwrap();
    client.upload_f32(hits, &vec![0.0f32; slots]).unwrap();
    for k in 0..LAUNCHES {
        let base = k * BLOCKS as usize;
        client
            .launch_replayable(vec![hits], 8, None, move |bufs| -> Arc<dyn GpuKernel> {
                Arc::new(HitKernel {
                    base,
                    hits: bufs[0].clone(),
                })
            })
            .unwrap();
    }
    hits
}

/// The golden transcript: the identical workload on a daemon that never
/// crashes (and needs no durability).
fn golden_run(devices: usize) -> Vec<f32> {
    let opts = DaemonOptions {
        devices: fleet(devices),
        ..Default::default()
    };
    let daemon = SlateDaemon::start_with_options(DeviceConfig::tiny(4), 1 << 24, opts);
    let client = SlateClient::new(daemon.connect("golden").unwrap());
    let hits = submit_workload(&client);
    client.synchronize().unwrap();
    let out = client
        .download_f32(hits, LAUNCHES * BLOCKS as usize)
        .unwrap();
    client.disconnect().unwrap();
    daemon.join();
    out
}

/// Kill mid-workload at a seed-derived instant, recover, reattach, fence,
/// read back. Returns the recovered hit buffer.
fn crashed_run(seed: u64, devices: usize, dir: &Path, keep_all: bool) -> Vec<f32> {
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(4),
        1 << 24,
        durable_opts_keeping(devices, dir, keep_all),
    );
    let client = SlateClient::new(daemon.connect("chaos").unwrap());
    let hits = submit_workload(&client);
    // Seeded kill point, spread across the workload's ~tens of ms of
    // block executions (including "before anything ran" and "after
    // everything finished" at the extremes).
    let delay = Duration::from_micros(500 + (seed % 23) * 700);
    let killer = {
        let d = daemon.clone();
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            d.crash()
        })
    };
    let scene = killer.join().unwrap();
    let recovered = SlateDaemon::recover(scene, durable_opts_keeping(0, dir, keep_all))
        .expect("recover from WAL + snapshot");
    assert_eq!(recovered.epoch(), 1, "recovery bumps the epoch");
    // Transparent reattach: the client's next fence resumes the session,
    // resubmits every unacknowledged replayable launch under its original
    // id, and must surface no error.
    client.install_reattach(&recovered);
    client
        .synchronize()
        .expect("a resumed client surfaces no errors");
    let out = client
        .download_f32(hits, LAUNCHES * BLOCKS as usize)
        .unwrap();
    client.disconnect().unwrap();
    recovered.join();
    out
}

fn case(seed: u64, devices: usize) {
    case_keeping(seed, devices, true)
}

fn case_keeping(seed: u64, devices: usize, keep_all: bool) {
    let dir = tmpdir(&format!("case-{seed:x}-{devices}-{keep_all}"));
    let crashed = crashed_run(seed, devices, &dir, keep_all);
    // Exactly-once: every block of every launch ran precisely one time,
    // across the kill — no block lost, none re-executed.
    for (i, &v) in crashed.iter().enumerate() {
        assert_eq!(
            v, 1.0,
            "seed {seed:#x} devices {devices}: slot {i} executed {v} times"
        );
    }
    // Byte-identical to the uncrashed golden run.
    let golden = golden_run(devices);
    assert_eq!(
        crashed, golden,
        "seed {seed:#x} devices {devices}: recovered hit buffer diverges from golden"
    );
    if keep_all {
        // The kept full-history WAL (both epochs) replays to the identical
        // routed-command transcript.
        let log = full_log(&dir).expect("stitch full placement log from kept segments");
        verify(&log).expect("full WAL replays byte-identically");
        assert_meta_follows_its_batch(&dir);
    } else {
        // Compacting, every checkpoint and the recovery's own anchor
        // unlinked what they superseded: one segment beside the two
        // snapshot slots.
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files.len(), 3, "{files:?}");
        assert_eq!(files[..2], ["snap-0.slot", "snap-1.slot"], "{files:?}");
        assert!(files[2].starts_with("wal-"), "{files:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every fed batch that carries a metadata record — a session's
/// admission, a launch request, a close — and was not shed is directly
/// followed in the kept WAL by that record: the two share one `write`
/// under one hold of the arbiter lock, so neither another thread's record
/// nor the kill point can come between them.
fn assert_meta_follows_its_batch(dir: &Path) {
    use slate_core::arbiter::{Command, Event};
    use slate_core::durability::wal::{list_segments, read_segment};
    use slate_core::durability::WalRecord;
    let records: Vec<WalRecord> = list_segments(dir)
        .unwrap()
        .iter()
        .flat_map(|(_, path)| read_segment(path).unwrap().records)
        .collect();
    for (i, record) in records.iter().enumerate() {
        let WalRecord::Batch { batch } = record else {
            continue;
        };
        let shed = batch
            .routed
            .iter()
            .any(|r| matches!(r.command, Command::RejectOverloaded { .. }));
        let next = records.get(i + 1);
        for event in &batch.events {
            let followed = match (event, next) {
                (
                    Event::SessionOpened { session },
                    Some(WalRecord::SessionMeta { session: s, .. }),
                ) => s == session,
                (
                    Event::LaunchRequested { session, lease, .. },
                    Some(WalRecord::LaunchAdmitted {
                        session: s,
                        lease: l,
                        ..
                    }),
                ) => (s, l) == (session, lease),
                (
                    Event::SessionClosed { session } | Event::SessionSevered { session },
                    Some(WalRecord::SessionClosed { session: s }),
                ) => s == session,
                (
                    Event::SessionOpened { .. }
                    | Event::LaunchRequested { .. }
                    | Event::SessionClosed { .. }
                    | Event::SessionSevered { .. },
                    _,
                ) => false,
                _ => true,
            };
            assert!(
                shed || followed,
                "record {i} ({event}) is followed by {next:?}, not its metadata record"
            );
        }
    }
}

/// The same kill points with compaction on — what a serving daemon runs
/// with — so recovery reads a directory that checkpoints have been
/// unlinking from, and the recovered daemon sweeps the crashed one's
/// files.
#[test]
fn crash_recover_exactly_once_while_compacting() {
    for seed in [0xC0FFEE_u64, 0x5EED, 42] {
        for devices in [2, 3] {
            case_keeping(seed, devices, false);
        }
    }
}

#[test]
fn crash_recover_exactly_once_two_devices() {
    for seed in [0xC0FFEE_u64, 0x5EED, 42] {
        case(seed, 2);
    }
}

#[test]
fn crash_recover_exactly_once_three_devices() {
    for seed in [0xC0FFEE_u64, 0x5EED, 42] {
        case(seed, 3);
    }
}

/// One block, one slot, no dawdling: a launch that is all control plane.
struct Bump {
    hits: Arc<GpuBuffer>,
}

impl GpuKernel for Bump {
    fn name(&self) -> &str {
        "bump"
    }
    fn grid(&self) -> GridDim {
        GridDim::d1(1)
    }
    fn perf(&self) -> KernelPerf {
        KernelPerf::synthetic("bump", 400.0, 900.0)
    }
    fn run_block(&self, _: BlockCoord) {
        self.hits.store_f32(0, self.hits.load_f32(0) + 1.0);
    }
}

/// WAL order = feed order under real submitter concurrency: eight client
/// threads launch at once against a durable, recording fleet, every one
/// feeding the placement layer from its own session thread. The WAL on
/// disk and the in-memory recording are written under the same arbiter
/// lock, so they must hold the same batches in the same order — and that
/// order must replay.
#[test]
fn wal_order_is_feed_order_under_concurrent_submitters() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 50;
    let dir = tmpdir("feed-order");
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(4),
        1 << 24,
        DaemonOptions {
            record_arbiter: true,
            ..durable_opts(2, &dir)
        },
    );
    let start = std::sync::Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (daemon, start) = (&daemon, &start);
            s.spawn(move || {
                let client = SlateClient::new(daemon.connect(&format!("tenant-{c}")).unwrap());
                let hits = client.malloc(4).unwrap();
                client.upload_f32(hits, &[0.0]).unwrap();
                start.wait();
                for _ in 0..PER_CLIENT {
                    client
                        .launch_with(vec![hits], 1, None, |bufs| -> Arc<dyn GpuKernel> {
                            Arc::new(Bump {
                                hits: bufs[0].clone(),
                            })
                        })
                        .unwrap();
                }
                client.synchronize().unwrap();
                assert_eq!(
                    client.download_f32(hits, 1).unwrap(),
                    vec![PER_CLIENT as f32]
                );
                client.disconnect().unwrap();
            });
        }
    });
    daemon.join();
    assert_eq!(
        daemon.metrics().launches_served,
        (CLIENTS * PER_CLIENT) as u64
    );
    let recorded = daemon.placement_log().expect("recording was enabled");
    let wal = full_log(&dir).expect("stitch full placement log from kept segments");
    assert_eq!(wal.batches.len(), recorded.batches.len());
    for (i, (w, r)) in wal.batches.iter().zip(&recorded.batches).enumerate() {
        assert_eq!(w, r, "batch {i}: the WAL and the recorder disagree");
    }
    verify(&wal).expect("full WAL replays byte-identically");
    assert_meta_follows_its_batch(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

/// The lane-queue → crash-scene → adoption path: launches still queued on
/// two non-default stream lanes when the daemon dies are parked in the
/// crash scene in lane order and re-executed by the recovered daemon —
/// every block exactly once, although the client cannot resubmit them
/// (`launch_on_stream` takes a one-shot factory).
#[test]
fn launches_queued_on_stream_lanes_survive_a_crash_exactly_once() {
    for devices in [1usize, 2] {
        let dir = tmpdir(&format!("lanes-{devices}"));
        let daemon = SlateDaemon::start_with_options(
            DeviceConfig::tiny(4),
            1 << 24,
            durable_opts(devices, &dir),
        );
        let client = SlateClient::new(daemon.connect("lanes").unwrap());
        let slots = LAUNCHES * BLOCKS as usize;
        let hits = client.malloc((slots * 4) as u64).unwrap();
        client.upload_f32(hits, &vec![0.0f32; slots]).unwrap();
        for k in 0..LAUNCHES {
            let base = k * BLOCKS as usize;
            client
                .launch_on_stream(1 + (k % 2) as u32, vec![hits], 8, move |bufs| {
                    Arc::new(HitKernel {
                        base,
                        hits: bufs[0].clone(),
                    }) as Arc<dyn GpuKernel>
                })
                .unwrap();
        }
        // Requests are served in order: once this reply is back the
        // session has admitted every launch above onto its lane.
        client.malloc(4).unwrap();
        std::thread::sleep(Duration::from_millis(3));
        let scene = daemon.crash();
        assert!(
            scene.inflight_launches() >= LAUNCHES - 2,
            "the kill landed mid-run: {} in flight",
            scene.inflight_launches()
        );
        let recovered = SlateDaemon::recover(scene, durable_opts(devices, &dir))
            .expect("recover from WAL + snapshot");
        client.install_reattach(&recovered);
        client
            .synchronize()
            .expect("adopted launches surface no errors");
        for (i, v) in client.download_f32(hits, slots).unwrap().iter().enumerate() {
            assert_eq!(*v, 1.0, "{devices} devices: slot {i} executed {v} times");
        }
        client.disconnect().unwrap();
        recovered.join();
        let log = full_log(&dir).expect("stitch full placement log from kept segments");
        verify(&log).expect("full WAL replays byte-identically");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn resume_tokens_are_single_use_and_epoch_checked() {
    let dir = tmpdir("tokens");
    let daemon =
        SlateDaemon::start_with_options(DeviceConfig::tiny(4), 1 << 24, durable_opts(2, &dir));
    let client = SlateClient::new(daemon.connect("tok").unwrap());
    let p = client.malloc(256).unwrap();
    client.upload_f32(p, &[4.0, 5.0]).unwrap();
    let token = client.resume_token();
    assert_eq!(token.epoch, 0);
    let scene = daemon.crash();
    let recovered = SlateDaemon::recover(
        scene,
        DaemonOptions {
            durability: Some(DurabilityOptions {
                dir: dir.to_path_buf(),
                snapshot_every: 8,
                keep_all: true,
            }),
            ..Default::default()
        },
    )
    .unwrap();
    // A token for a session the log never saw is refused.
    let bogus = ResumeToken {
        epoch: 0,
        session: 999,
    };
    assert!(matches!(
        recovered.resume(bogus).err().unwrap(),
        slate_core::SlateError::ResumeRejected(_)
    ));
    // A token minted by the *current* incarnation is refused (nothing
    // crashed between minting and redeeming).
    let stale = ResumeToken {
        epoch: recovered.epoch(),
        session: token.session,
    };
    assert!(matches!(
        recovered.resume(stale).err().unwrap(),
        slate_core::SlateError::ResumeRejected(_)
    ));
    // The real token works exactly once — and the resumed session still
    // sees its pre-crash memory.
    let resumed = resume_with_retry(&recovered, token, RetryPolicy::with_attempts(3)).unwrap();
    assert!(matches!(
        recovered.resume(token).err().unwrap(),
        slate_core::SlateError::ResumeRejected(_)
    ));
    assert_eq!(resumed.download_f32(p, 2).unwrap(), vec![4.0, 5.0]);
    // And it keeps working for new kernels.
    resumed
        .launch_replayable(vec![p], 8, None, |bufs| -> Arc<dyn GpuKernel> {
            Arc::new(HitKernel {
                base: 2,
                hits: bufs[0].clone(),
            })
        })
        .unwrap();
    resumed.synchronize().unwrap();
    resumed.disconnect().unwrap();
    recovered.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The slot holding the newest anchor under `dir`, and that anchor's
/// position, `(segment, offset)`.
fn newest_slot(dir: &Path) -> (usize, (u64, u64)) {
    use slate_core::durability::snapshot::{decode_slot, slot_path};
    (0..2)
        .filter_map(|slot| {
            let bytes = std::fs::read(slot_path(dir, slot)).unwrap();
            Some((slot, decode_slot(&bytes).ok()?.0))
        })
        .max_by_key(|&(_, anchor)| anchor)
        .expect("an anchor")
}

/// Damaged slot images: each header fault, and a well-formed header and
/// checksum, anchoring `(segment, offset)`, around a body whose first
/// count claims `u64::MAX` affinity pins — which a decoder sizing its
/// allocation by the count would answer by aborting the process.
fn hostile_slots((segment, offset): (u64, u64)) -> Vec<(&'static str, Vec<u8>)> {
    use slate_core::durability::snapshot::{encode_slot, DurableSnapshot, SLOT_HEADER_LEN};
    use slate_core::durability::wal::crc32;
    use slate_core::durability::DurableMeta;
    use slate_core::{PlacementConfig, PlacementLayer};
    let layer = PlacementLayer::new(vec![DeviceConfig::tiny(4)], PlacementConfig::default());
    let mut claim = Vec::new();
    encode_slot(
        &DurableSnapshot {
            epoch: 0,
            segment,
            offset,
            placement: layer.snapshot(),
            meta: DurableMeta::default(),
        },
        &mut claim,
    );
    // Epoch, segment and offset 0, the `Affinity` policy's tag, then its
    // pin count: a 10-byte varint of `u64::MAX`.
    let body = [&[0, 0, 0, 2][..], &[0xFF; 9], &[0x01]].concat();
    claim.truncate(SLOT_HEADER_LEN);
    claim[12..16].copy_from_slice(&crc32(&body).to_le_bytes());
    claim[32..40].copy_from_slice(&(body.len() as u64).to_le_bytes());
    claim.extend_from_slice(&body);
    let mut magic = claim.clone();
    magic[..8].copy_from_slice(b"NOTASLOT");
    let truncated = claim[..SLOT_HEADER_LEN / 2].to_vec();
    let mut long = claim.clone();
    long[SLOT_HEADER_LEN - 8..SLOT_HEADER_LEN].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let mut crc = claim.clone();
    crc[SLOT_HEADER_LEN + 5] ^= 0x01;
    vec![
        ("bad magic", magic),
        ("truncated header", truncated),
        ("past the end of the file", long),
        ("checksum mismatch", crc),
        ("runs past the end of the bytes", claim),
    ]
}

/// Bytes on disk are outside input. A damaged newest slot — a header
/// fault, or a valid header and checksum around a hostile body — costs
/// recovery some replay, not the process; with no readable slot left,
/// recovery is a typed error.
#[test]
fn a_hostile_snapshot_costs_replay_or_a_typed_error_never_the_process() {
    use slate_core::durability::recover_dir;
    use slate_core::durability::snapshot::slot_path;
    let dir = tmpdir("deep-snapshot");
    let daemon =
        SlateDaemon::start_with_options(DeviceConfig::tiny(4), 1 << 24, durable_opts(2, &dir));
    let client = SlateClient::new(daemon.connect("deep").unwrap());
    let hits = submit_workload(&client);
    client.synchronize().unwrap();
    let scene = daemon.crash();
    let (newest, anchor) = newest_slot(&dir);
    assert!(anchor.1 >= 1, "the workload spans a snapshot cadence");
    for (case, image) in hostile_slots(anchor) {
        std::fs::write(slot_path(&dir, newest), &image).unwrap();
        let rec = recover_dir(&dir).expect(case);
        assert_eq!(rec.slot, newest ^ 1, "{case}: the other slot is read");
    }

    let recovered = SlateDaemon::recover(scene, durable_opts(2, &dir))
        .expect("recovery falls back to the other slot");
    client.install_reattach(&recovered);
    client.synchronize().expect("the session resumes");
    let slots = LAUNCHES * BLOCKS as usize;
    for (i, v) in client.download_f32(hits, slots).unwrap().iter().enumerate() {
        assert_eq!(*v, 1.0, "slot {i} executed {v} times");
    }
    client.disconnect().unwrap();
    let log = full_log(&dir).expect("stitch full placement log from kept segments");
    verify(&log).expect("full WAL replays byte-identically");

    let scene = recovered.crash();
    for (case, image) in hostile_slots(newest_slot(&dir).1) {
        for slot in 0..2 {
            std::fs::write(slot_path(&dir, slot), &image).unwrap();
        }
        let why = recover_dir(&dir).expect_err(case);
        assert_eq!(why.kind(), std::io::ErrorKind::InvalidData, "{case}");
        assert!(why.to_string().contains(case), "{case}: {why}");
    }
    match SlateDaemon::recover(scene, durable_opts(2, &dir)) {
        Err(slate_core::SlateError::Other(why)) => {
            assert!(why.contains("runs past the end of the bytes"), "{why}")
        }
        Err(other) => panic!("expected a recovery error, got {other:?}"),
        Ok(_) => panic!("recovered without a readable snapshot"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery truncates the torn tail it tolerated. Crash, tear the last
/// segment, recover, serve a session, crash again, and make the slot
/// the second incarnation wrote unreadable: the third recovery falls back
/// below the once-torn segment and must replay on through it into the
/// second epoch — a tail still torn would stop it there, and the session
/// opened after it would be lost.
#[test]
fn a_fallback_replays_past_a_segment_whose_torn_tail_was_truncated() {
    use slate_core::durability::snapshot::{decode_slot, slot_path};
    use slate_core::durability::wal::{encode_frame, list_segments};
    let dir = tmpdir("torn-fallback");
    let daemon =
        SlateDaemon::start_with_options(DeviceConfig::tiny(4), 1 << 24, durable_opts(2, &dir));
    let first = SlateClient::new(daemon.connect("first").unwrap());
    first.malloc(64).unwrap();
    let scene = daemon.crash();
    let (torn, path) = list_segments(&dir).unwrap().pop().unwrap();
    let valid = std::fs::metadata(&path).unwrap().len();
    let frame = encode_frame(b"a frame the crash cut short");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&frame[..frame.len() - 3]);
    std::fs::write(&path, bytes).unwrap();

    let recovered = SlateDaemon::recover(scene, durable_opts(2, &dir)).expect("recover");
    assert_eq!(std::fs::metadata(&path).unwrap().len(), valid, "truncated");
    assert!(matches!(
        recovered.recovery_issues(),
        [(k, slate_core::durability::WalIssue::TornTail { offset })]
            if *k == torn && *offset as u64 == valid
    ));
    let second = SlateClient::new(recovered.connect("second").unwrap());
    let p = second.malloc(64).unwrap();
    second.upload_f32(p, &[7.0, 8.0]).unwrap();
    let token = second.resume_token();
    let scene = recovered.crash();
    for slot in 0..2 {
        let path = slot_path(&dir, slot);
        let (segment, _) = decode_slot(&std::fs::read(&path).unwrap()).unwrap().0;
        if segment > torn {
            std::fs::write(path, "not a snapshot").unwrap();
        }
    }

    let third = SlateDaemon::recover(scene, durable_opts(2, &dir))
        .expect("recovery falls back to the snapshot below the torn segment");
    assert!(
        third.recovery_issues().is_empty(),
        "{:?}",
        third.recovery_issues()
    );
    assert_eq!(
        third.epoch(),
        2,
        "the second epoch's Epoch record was replayed"
    );
    let resumed = resume_with_retry(&third, token, RetryPolicy::with_attempts(3))
        .expect("the session opened after the torn segment resumes");
    assert_eq!(resumed.download_f32(p, 2).unwrap(), vec![7.0, 8.0]);
    resumed.disconnect().unwrap();
    third.join();
    verify(&full_log(&dir).unwrap()).expect("full WAL replays byte-identically");
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash while the slot the last checkpoint wrote awaits its sync. The
/// daemon holds the sync back, so the first fed batch's checkpoint stays
/// pending and every later cadence waits behind it; the kill's freeze
/// syncs it. The genesis anchor in slot 0 is never overwritten — both
/// slots are never unsynced at once — and recovery from the pending
/// slot keeps every block executed exactly once, with the full log
/// replaying byte-identically.
#[test]
fn a_crash_while_a_slot_sync_is_pending_keeps_exactly_once() {
    use slate_core::durability::snapshot::{decode_slot, slot_path};
    use slate_core::durability::wal::segment_path;
    let dir = tmpdir("pending-sync");
    let opts = |devices| {
        let mut opts = durable_opts(devices, &dir);
        opts.durability.as_mut().unwrap().snapshot_every = 1;
        opts
    };
    let daemon = SlateDaemon::start_with_options(DeviceConfig::tiny(4), 1 << 24, opts(2));
    daemon.hold_checkpoint_syncs(true);
    let client = SlateClient::new(daemon.connect("pending").unwrap());
    let hits = submit_workload(&client);
    let scene = daemon.crash();
    let anchor = |slot| decode_slot(&std::fs::read(slot_path(&dir, slot)).unwrap()).map(|a| a.0);
    let segment = std::fs::metadata(segment_path(&dir, 0)).unwrap().len();
    let pending = anchor(1).expect("the pending slot, synced at the kill");
    assert_eq!(
        anchor(0).unwrap(),
        (0, 0),
        "the genesis anchor is untouched"
    );
    assert!(
        pending.0 == 0 && 0 < pending.1 && pending.1 < segment,
        "{pending:?}: the first batch's anchor, with the rest of the log past it"
    );
    let recovered = SlateDaemon::recover(scene, opts(0)).expect("recover");
    client.install_reattach(&recovered);
    client
        .synchronize()
        .expect("a resumed client surfaces no errors");
    let out = client
        .download_f32(hits, LAUNCHES * BLOCKS as usize)
        .unwrap();
    client.disconnect().unwrap();
    recovered.join();
    assert!(out.iter().all(|&v| v == 1.0), "{out:?}");
    assert_eq!(out, golden_run(2));
    verify(&full_log(&dir).unwrap()).expect("full WAL replays byte-identically");
    std::fs::remove_dir_all(&dir).ok();
}

/// One block that bumps its hit slot only once the daemon is being
/// killed, so the kill is sure to find its launch in flight.
struct UntilKilled {
    started: Arc<AtomicBool>,
    daemon: Weak<SlateDaemon>,
    hits: Arc<GpuBuffer>,
}

impl GpuKernel for UntilKilled {
    fn name(&self) -> &str {
        "until-killed"
    }
    fn grid(&self) -> GridDim {
        GridDim::d1(1)
    }
    fn perf(&self) -> KernelPerf {
        KernelPerf::synthetic("until-killed", 400.0, 900.0)
    }
    fn run_block(&self, _: BlockCoord) {
        self.started.store(true, Ordering::Release);
        while !self.daemon.upgrade().is_none_or(|d| d.is_shutting_down()) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // `crash` raises the flag just before its kill point.
        std::thread::sleep(Duration::from_millis(5));
        self.hits.store_f32(0, self.hits.load_f32(0) + 1.0);
    }
}

/// A launch parked by `crash()` never counts in its connection's
/// completion watermark: the client's next `synchronize` sends its fence
/// instead of skipping it, finds the pipe dead, reattaches and
/// resubmits, and the adopted launch still runs its block exactly once.
#[test]
fn a_launch_parked_by_a_crash_is_fenced_not_skipped() {
    let dir = tmpdir("parked");
    let daemon =
        SlateDaemon::start_with_options(DeviceConfig::tiny(4), 1 << 24, durable_opts(1, &dir));
    let client = SlateClient::new(daemon.connect("parked").unwrap());
    let hits = client.malloc(4).unwrap();
    client.upload_f32(hits, &[0.0]).unwrap();
    let started = Arc::new(AtomicBool::new(false));
    let (flag, killed) = (started.clone(), Arc::downgrade(&daemon));
    client
        .launch_replayable(vec![hits], 1, None, move |bufs| -> Arc<dyn GpuKernel> {
            Arc::new(UntilKilled {
                started: flag.clone(),
                daemon: killed.clone(),
                hits: bufs[0].clone(),
            })
        })
        .unwrap();
    while !started.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_micros(100));
    }
    let scene = daemon.crash();
    assert_eq!(scene.inflight_launches(), 1, "the kill parked the launch");
    let recovered =
        SlateDaemon::recover(scene, durable_opts(0, &dir)).expect("recover from WAL + snapshot");
    client.install_reattach(&recovered);
    client
        .synchronize()
        .expect("the adopted launch surfaces no error");
    assert_eq!(
        client.resume_token().epoch,
        recovered.epoch(),
        "the fence was sent and found the pipe dead"
    );
    assert_eq!(
        client.download_f32(hits, 1).unwrap(),
        vec![1.0],
        "exactly once"
    );
    client.disconnect().unwrap();
    recovered.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A crashed daemon, recovered with a fault plan that faults the one
/// launch it adopts, and a client resumed on it that resubmitted nothing:
/// the adoption pass's `KernelFault` waits in the session for the
/// resumed connection's first fence.
fn adopted_launch_fault(name: &str) -> (Arc<SlateDaemon>, SlateClient, PathBuf) {
    use slate_gpu_sim::fault::FaultPlan;
    let dir = tmpdir(name);
    let daemon =
        SlateDaemon::start_with_options(DeviceConfig::tiny(4), 1 << 24, durable_opts(1, &dir));
    let client = SlateClient::new(daemon.connect(name).unwrap());
    let hits = client.malloc(4).unwrap();
    let started = Arc::new(AtomicBool::new(false));
    let (flag, killed) = (started.clone(), Arc::downgrade(&daemon));
    // A one-shot launch: the client cannot resubmit it.
    client
        .launch_with(vec![hits], 1, None, move |bufs| -> Arc<dyn GpuKernel> {
            Arc::new(UntilKilled {
                started: flag,
                daemon: killed,
                hits: bufs[0].clone(),
            })
        })
        .unwrap();
    while !started.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_micros(100));
    }
    let token = client.resume_token();
    let scene = daemon.crash();
    assert_eq!(scene.inflight_launches(), 1, "the kill parked the launch");
    // The recovered daemon faults the adopted re-run.
    let mut opts = durable_opts(0, &dir);
    opts.fault_plan = FaultPlan::new().fault_launch("until-killed", 1);
    let recovered = SlateDaemon::recover(scene, opts).expect("recover from WAL + snapshot");
    let resumed = resume_with_retry(&recovered, token, RetryPolicy::with_attempts(3)).unwrap();
    (recovered, resumed, dir)
}

/// An adopted launch counts in no watermark, and a resumed connection's
/// first `synchronize` always sends its fence: the error the adoption
/// pass hit surfaces there, even for a client that resubmitted nothing.
#[test]
fn an_adopted_launch_error_surfaces_at_a_resumed_client_first_sync() {
    let (recovered, resumed, dir) = adopted_launch_fault("adopted-error");
    assert!(
        matches!(
            resumed.synchronize(),
            Err(slate_core::SlateError::KernelFault(_))
        ),
        "the adoption pass's error surfaces at the first fence"
    );
    resumed.synchronize().unwrap();
    resumed.disconnect().unwrap();
    recovered.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// `disconnect` fences the session whatever the client sent: a resumed
/// client that launched nothing still gets the adopted launch's error
/// from it, instead of losing it with the session.
#[test]
fn an_adopted_launch_error_surfaces_at_a_resumed_client_disconnect() {
    let (recovered, resumed, dir) = adopted_launch_fault("adopted-disconnect");
    assert!(
        matches!(
            resumed.disconnect(),
            Err(slate_core::SlateError::KernelFault(_))
        ),
        "the owed first fence is sent at disconnect"
    );
    recovered.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_against_a_non_durable_daemon_is_rejected() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    let err = daemon
        .resume(ResumeToken {
            epoch: 0,
            session: 1,
        })
        .err()
        .unwrap();
    assert!(matches!(err, slate_core::SlateError::ResumeRejected(_)));
    daemon.join();
}

/// Nightly soak: many seeded kill points per device count, seed injected
/// through `SLATE_CHAOS_SEED`. Run with `--ignored`.
#[test]
#[ignore = "crash-restart soak for the nightly job; seed via SLATE_CHAOS_SEED"]
fn crash_restart_soak() {
    let seed: u64 = std::env::var("SLATE_CHAOS_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim().to_string();
            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        })
        .unwrap_or(1);
    for round in 0..8u64 {
        let s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(round);
        for devices in [2usize, 3] {
            case(s, devices);
        }
    }
}
