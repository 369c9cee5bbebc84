//! Crash consistency for the daemon: durable WAL + snapshot/restore.
//!
//! The daemon's arbitration state is already event-sourced — every
//! decision is a pure function of the fed event batches — so durability
//! is exactly: persist the batches ([`wal`]), checkpoint the folded state
//! periodically so recovery replays only a suffix ([`snapshot`]), and
//! rebuild + re-adopt after a crash ([`recover`]). Layout on disk:
//!
//! ```text
//! <dir>/snap-00000000.json   pristine genesis anchor (written at start)
//! <dir>/wal-00000000.log     segment 0: one frame per fed batch + meta
//! <dir>/snap-00000001.json   cadence checkpoint, anchors segment 1
//! <dir>/wal-00000001.log     …
//! ```
//!
//! Snapshot `k` captures state as of the *start* of segment `k`; recovery
//! loads the newest readable snapshot and replays segments `≥ k`, up to
//! the first damaged one. Unless `keep_all` is set, a checkpoint unlinks
//! the snapshot and the segment it superseded, so a serving directory
//! holds one of each.
//!
//! **Checkpoints** run on the batch cadence, synchronously, under the
//! arbiter lock — so what one costs is serving latency. It costs what the
//! *open* sessions cost to serialise ([`DurableMeta`] forgets a session
//! when it closes), one `fsync` and two `unlink`s, in an order that leaves
//! a recoverable directory after every step (`Durability::checkpoint`;
//! `DESIGN.md` §16 has the crash and power-failure argument and the
//! measured cost of each step).
//!
//! **Fsync policy.** Every append is one `write` straight to the file
//! descriptor — a fed batch and the metadata record it carries share
//! one — so a crash of the process can lose nothing acknowledged;
//! `sync_all` runs on each snapshot before it is renamed into place, on
//! the open segment at freeze, and on the closing segment of a checkpoint
//! when `keep_all` retains it — every file that is kept is synced, and
//! power-failure windows are bounded by the snapshot cadence. I/O errors
//! during appends and checkpoints are counted and surfaced via
//! [`Durability::io_errors`] rather than propagated — an arbitration
//! decision that already happened cannot be un-made by a full disk, and
//! the counter lets operators alarm on it.

pub mod codec;
pub mod recover;
pub mod snapshot;
pub mod wal;

pub use recover::{full_log, recover_dir, Recovered};
pub use snapshot::{AllocMeta, DurableMeta, DurableSnapshot, SessionMeta, SNAPSHOT_FORMAT};
pub use wal::{WalIssue, WalRecord, WalScan};

use crate::placement::PlacementSnapshot;
use parking_lot::Mutex;
use snapshot::write_snapshot;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wal::SegmentWriter;

/// Knobs of the durability subsystem (see
/// [`DaemonOptions::durability`](crate::daemon::DaemonOptions)).
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding WAL segments and snapshots. Created if absent.
    pub dir: PathBuf,
    /// Batches appended to a segment before the layer is re-snapshotted
    /// and the log rotated. Smaller = faster recovery, more checkpoint
    /// I/O.
    pub snapshot_every: u64,
    /// Keep superseded segments and snapshots instead of compacting them
    /// away. The full-history placement log ([`full_log`]) stays
    /// verifiable from genesis; used by the crash harness, debuggers and
    /// anyone auditing a recovery.
    pub keep_all: bool,
}

impl DurabilityOptions {
    /// Durability under `dir` with the default cadence.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every: 64,
            keep_all: false,
        }
    }
}

#[derive(Debug)]
struct DurInner {
    writer: SegmentWriter,
    segment: u64,
    batches_since_snap: u64,
    meta: DurableMeta,
    frozen: bool,
}

/// The live durability runtime: one open WAL segment, the mirrored
/// session metadata, and the snapshot cadence counter. Shared by the
/// daemon's arbiter frontend (batch appends) and its session threads
/// (metadata appends).
#[derive(Debug)]
pub struct Durability {
    options: DurabilityOptions,
    epoch: u64,
    inner: Mutex<DurInner>,
    io_errors: AtomicU64,
}

impl Durability {
    /// Starts durability at `segment` in `epoch`: writes the anchoring
    /// snapshot of `placement` + `meta`, then opens the segment for
    /// appending. Fresh daemons start at segment 0, epoch 0 (the pristine
    /// genesis anchor); recovered daemons start one segment past the
    /// crashed log, one epoch up.
    pub fn start(
        options: DurabilityOptions,
        segment: u64,
        epoch: u64,
        placement: &PlacementSnapshot,
        meta: DurableMeta,
    ) -> io::Result<Arc<Self>> {
        std::fs::create_dir_all(&options.dir)?;
        write_snapshot(
            &options.dir,
            segment,
            &DurableSnapshot {
                format: SNAPSHOT_FORMAT,
                epoch,
                segment,
                placement: placement.clone(),
                meta: meta.clone(),
            },
        )?;
        let writer = SegmentWriter::create(&options.dir, segment)?;
        let durability = Self {
            options,
            epoch,
            inner: Mutex::new(DurInner {
                writer,
                segment,
                batches_since_snap: 0,
                meta,
                frozen: false,
            }),
            io_errors: AtomicU64::new(0),
        };
        // The anchor supersedes whatever a crashed incarnation left: the
        // one place the directory is listed.
        durability.compact();
        Ok(Arc::new(durability))
    }

    /// The recovery epoch this incarnation runs in.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The durability directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.options.dir
    }

    /// Append I/O failures since start, plus torn tails recovery could not
    /// cut ([`Durability::count_io_errors`]). Nonzero means the WAL has a
    /// gap: recovery from this log may miss state, and operators should
    /// treat the disk as suspect.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Counts `n` I/O failures met on the way to this incarnation (torn
    /// tails recovery could not cut) alongside the append failures.
    pub fn count_io_errors(&self, n: u64) {
        self.io_errors.fetch_add(n, Ordering::Relaxed);
    }

    /// A clone of the mirrored session metadata.
    pub fn meta(&self) -> DurableMeta {
        self.inner.lock().meta.clone()
    }

    fn note_io<T>(&self, r: io::Result<T>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(_) => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Appends a metadata record (session/alloc/launch bookkeeping) and
    /// folds it into the mirror.
    pub fn append_meta(&self, record: &WalRecord) {
        let mut inner = self.inner.lock();
        if inner.frozen {
            return;
        }
        inner.meta.apply(record);
        let r = inner.writer.append(record);
        drop(inner);
        self.note_io(r);
    }

    /// Appends one fed placement batch; on cadence, checkpoints
    /// `placement_snap()` (called under the same lock the batch was
    /// produced under, so the snapshot anchors exactly the batches
    /// appended so far) and rotates the log.
    pub fn append_batch(
        &self,
        batch: &crate::placement::PlacementBatch,
        placement_snap: impl FnOnce() -> PlacementSnapshot,
    ) {
        self.append_batch_meta(batch, None, placement_snap);
    }

    /// [`Durability::append_batch`], with the metadata record the batch
    /// carries (a session's record with its admission, a launch's with
    /// its request, a close with its event) appended behind it in the
    /// same `write` and folded into the mirror before any checkpoint the
    /// batch brings due.
    pub fn append_batch_meta(
        &self,
        batch: &crate::placement::PlacementBatch,
        meta: Option<&WalRecord>,
        placement_snap: impl FnOnce() -> PlacementSnapshot,
    ) {
        let mut inner = self.inner.lock();
        if inner.frozen {
            return;
        }
        if let Some(record) = meta {
            inner.meta.apply(record);
        }
        self.note_io(inner.writer.append_batch(batch, meta));
        inner.batches_since_snap += 1;
        if inner.batches_since_snap >= self.options.snapshot_every {
            inner.batches_since_snap = 0;
            self.checkpoint(&mut inner, placement_snap);
        }
    }

    /// One checkpoint, from segment `k − 1` to segment `k`, in the order
    /// that leaves a recoverable directory after every step (`DESIGN.md`
    /// §16 walks through them): create segment `k`, empty; write snapshot
    /// `k`; switch the writer; unlink what snapshot `k` superseded. A step
    /// that fails is counted and ends the attempt — appends go on in
    /// `k − 1` and the next cadence tries again.
    fn checkpoint(&self, inner: &mut DurInner, placement_snap: impl FnOnce() -> PlacementSnapshot) {
        let dir = &self.options.dir;
        let k = inner.segment + 1;
        let Some(next) = self.note_io(SegmentWriter::create(dir, k)) else {
            return;
        };
        // Kept, the closing segment outlives this checkpoint and must be
        // durable in its own right. Otherwise snapshot `k` holds all it
        // held and is synced below, and the file is unlinked right after:
        // syncing it would buy nothing.
        if self.options.keep_all {
            self.note_io(inner.writer.sync());
        }
        // The mirror is lent to the snapshot, not cloned into it.
        let snap = DurableSnapshot {
            format: SNAPSHOT_FORMAT,
            epoch: self.epoch,
            segment: k,
            placement: placement_snap(),
            meta: std::mem::take(&mut inner.meta),
        };
        let written = write_snapshot(dir, k, &snap);
        inner.meta = snap.meta;
        if self.note_io(written).is_none() {
            return;
        }
        inner.writer = next;
        inner.segment = k;
        if !self.options.keep_all {
            // By name: the two files snapshot `k` superseded are the only
            // ones below it (`start` swept the rest). The snapshot goes
            // first — a crash between the two must not leave snapshot
            // `k − 1` behind without the segment it anchors.
            self.note_io(std::fs::remove_file(wal::snapshot_path(dir, k - 1)));
            self.note_io(std::fs::remove_file(wal::segment_path(dir, k - 1)));
        }
    }

    /// Deletes every segment and snapshot below the newest snapshot — the
    /// sweep [`Durability::start`] runs for what a crashed incarnation
    /// left behind; the cadence path unlinks its two files by name and
    /// never lists the directory. No-op under `keep_all`. Best-effort:
    /// removal failures are counted, not fatal — stale files only cost
    /// disk.
    pub fn compact(&self) {
        if self.options.keep_all {
            return;
        }
        let newest = self.inner.lock().segment;
        let dir = &self.options.dir;
        // Snapshots first, as in a checkpoint: none may be left behind
        // without its segment.
        for list in [wal::list_snapshots(dir), wal::list_segments(dir)] {
            for (k, path) in list.unwrap_or_default() {
                if k < newest && self.note_io(std::fs::remove_file(path)).is_none() {
                    return;
                }
            }
        }
    }

    /// Stops all appends (used at shutdown and at the crash point of the
    /// kill harness) after syncing what was written. Idempotent.
    pub fn freeze(&self) {
        let mut inner = self.inner.lock();
        if inner.frozen {
            return;
        }
        inner.frozen = true;
        let r = inner.writer.sync();
        drop(inner);
        self.note_io(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{PlacementConfig, PlacementLayer};
    use slate_gpu_sim::device::DeviceConfig;
    use std::path::Path;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "slate-dur-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn count(dir: &Path) -> (usize, usize) {
        (
            wal::list_segments(dir).unwrap().len(),
            wal::list_snapshots(dir).unwrap().len(),
        )
    }

    #[test]
    fn cadence_rotates_snapshots_and_compacts() {
        let dir = tmpdir("cadence");
        let mut layer =
            PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
        let mut options = DurabilityOptions::new(&dir);
        options.snapshot_every = 2;
        let d = Durability::start(options, 0, 0, &layer.snapshot(), DurableMeta::default())
            .expect("start");
        for i in 0..5u64 {
            let events = vec![crate::arbiter::Event::SessionOpened { session: i + 1 }];
            let routed = layer.feed(i * 10, &events);
            d.append_batch(
                &crate::placement::PlacementBatch {
                    at: i * 10,
                    events,
                    routed,
                },
                || layer.snapshot(),
            );
        }
        // 5 batches at cadence 2: rotated after 2 and 4; compaction keeps
        // only the newest segment + snapshot pair.
        let (segs, snaps) = count(&dir);
        assert_eq!((segs, snaps), (1, 1), "compaction retired the rest");
        let rec = recover_dir(&dir).expect("recover");
        assert!(rec.issues.is_empty());
        assert_eq!(rec.last_segment, 2);
        assert_eq!(
            serde_json::to_string(&rec.layer.snapshot()).unwrap(),
            serde_json::to_string(&layer.snapshot()).unwrap(),
            "recovered layer matches the live one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keep_all_retains_full_history_for_the_genesis_log() {
        let dir = tmpdir("keepall");
        let mut layer =
            PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
        let mut options = DurabilityOptions::new(&dir);
        options.snapshot_every = 2;
        options.keep_all = true;
        let d = Durability::start(options, 0, 0, &layer.snapshot(), DurableMeta::default())
            .expect("start");
        for i in 0..5u64 {
            let events = vec![crate::arbiter::Event::SessionOpened { session: i + 1 }];
            let routed = layer.feed(i * 10, &events);
            d.append_batch(
                &crate::placement::PlacementBatch {
                    at: i * 10,
                    events,
                    routed,
                },
                || layer.snapshot(),
            );
        }
        d.freeze();
        let (segs, snaps) = count(&dir);
        assert_eq!((segs, snaps), (3, 3), "nothing compacted");
        let log = full_log(&dir).expect("full log");
        assert_eq!(log.batches.len(), 5);
        crate::placement::replay::verify(&log).expect("full history verifies from genesis");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One session's worth of log: its admission batch, its meta record,
    /// an allocation. Returns the batch for the caller to append.
    fn open_session(layer: &mut PlacementLayer, session: u64) -> crate::placement::PlacementBatch {
        let events = vec![crate::arbiter::Event::SessionOpened { session }];
        let routed = layer.feed(session * 10, &events);
        crate::placement::PlacementBatch {
            at: session * 10,
            events,
            routed,
        }
    }

    fn session_meta(session: u64) -> [WalRecord; 2] {
        [
            WalRecord::SessionMeta {
                session,
                user: format!("u{session}"),
                slo: Default::default(),
            },
            WalRecord::Alloc {
                session,
                slate_ptr: (session << 32) + 1,
                device_ptr: 0x1000 * session,
                bytes: 64,
            },
        ]
    }

    /// The state recovery must reproduce: the layer's snapshot and the
    /// mirror, as bytes.
    fn state_of(layer: &PlacementLayer, meta: &DurableMeta) -> (String, String) {
        (
            serde_json::to_string(&layer.snapshot()).unwrap(),
            serde_json::to_string(meta).unwrap(),
        )
    }

    fn recovered_state(dir: &Path) -> (String, String) {
        let rec = recover_dir(dir).expect("recover");
        assert!(rec.issues.is_empty(), "{:?}", rec.issues);
        state_of(&rec.layer, &rec.meta)
    }

    /// A crash after any step of a checkpoint recovers the state of the
    /// run that was never interrupted. The directory of each step is built
    /// by hand, from the public helpers, in the order `checkpoint` works.
    #[test]
    fn every_step_of_a_checkpoint_leaves_a_recoverable_directory() {
        let dir = tmpdir("steps");
        let mut layer =
            PlacementLayer::new(vec![DeviceConfig::tiny(8); 2], PlacementConfig::default());
        let mut options = DurabilityOptions::new(&dir);
        options.snapshot_every = u64::MAX;
        let d = Durability::start(options, 0, 0, &layer.snapshot(), DurableMeta::default())
            .expect("start");
        for session in 1..=3 {
            d.append_batch(&open_session(&mut layer, session), || unreachable!());
            for record in session_meta(session) {
                d.append_meta(&record);
            }
        }
        d.append_meta(&WalRecord::SessionClosed { session: 2 });
        d.freeze();
        // What the uninterrupted run holds when the cadence comes due.
        let want = state_of(&layer, &d.meta());
        assert_eq!(recovered_state(&dir), want, "before the checkpoint");

        let last = |dir: &Path| recover_dir(dir).unwrap().last_segment;
        // 1. Segment 1 exists, empty.
        SegmentWriter::create(&dir, 1).expect("segment 1");
        assert_eq!(recovered_state(&dir), want, "segment created");
        assert_eq!(last(&dir), 1, "the empty segment's index is taken");
        // 2. The snapshot's temp file is there, whole or in part.
        let snap = DurableSnapshot {
            format: SNAPSHOT_FORMAT,
            epoch: 0,
            segment: 1,
            placement: layer.snapshot(),
            meta: d.meta(),
        };
        let tmp = dir.join("snap-00000001.tmp");
        let text = serde_json::to_string(&snap).unwrap();
        for written in [&text[..text.len() / 2], &text[..]] {
            std::fs::write(&tmp, written).unwrap();
            assert_eq!(recovered_state(&dir), want, "tmp written");
        }
        std::fs::remove_file(&tmp).unwrap();
        // 3. Snapshot 1 is renamed into place.
        write_snapshot(&dir, 1, &snap).expect("snapshot 1");
        assert_eq!(recovered_state(&dir), want, "snapshot renamed");
        // 4. and 5. The superseded snapshot goes, then its segment.
        std::fs::remove_file(wal::snapshot_path(&dir, 0)).unwrap();
        assert_eq!(recovered_state(&dir), want, "first unlink");
        std::fs::remove_file(wal::segment_path(&dir, 0)).unwrap();
        assert_eq!(recovered_state(&dir), want, "second unlink");
        assert_eq!((count(&dir), last(&dir)), ((1, 1), 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint that cannot create its segment, or cannot write its
    /// snapshot, changes nothing: appends go on in the old segment, the
    /// failure is counted, the next cadence succeeds, and recovery sees
    /// the same state throughout.
    #[test]
    fn a_failed_checkpoint_is_counted_and_retried_at_the_next_cadence() {
        for blocked in ["wal-00000001.log", "snap-00000001.tmp"] {
            let dir = tmpdir(&format!("retry-{}", &blocked[..3]));
            let mut layer =
                PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
            let mut options = DurabilityOptions::new(&dir);
            options.snapshot_every = 2;
            let d = Durability::start(options, 0, 0, &layer.snapshot(), DurableMeta::default())
                .expect("start");
            // A directory where the checkpoint wants a file: open fails.
            std::fs::create_dir(dir.join(blocked)).unwrap();
            for session in 1..=3 {
                let batch = open_session(&mut layer, session);
                d.append_batch(&batch, || layer.snapshot());
                d.append_meta(&session_meta(session)[0]);
            }
            assert_eq!(d.io_errors(), 1, "{blocked}: the cadence at batch 2 failed");
            assert_eq!(count(&dir).1, 1, "{blocked}: no snapshot 1");
            std::fs::remove_dir(dir.join(blocked)).unwrap();
            assert_eq!(
                recovered_state(&dir),
                state_of(&layer, &d.meta()),
                "{blocked}: all three sessions are in segment 0"
            );
            // Batch 4 is the next cadence: it checkpoints into segment 1.
            let batch = open_session(&mut layer, 4);
            d.append_batch(&batch, || layer.snapshot());
            assert_eq!((d.io_errors(), count(&dir)), (1, (1, 1)), "{blocked}");
            assert_eq!(recover_dir(&dir).unwrap().last_segment, 1);
            assert_eq!(recovered_state(&dir), state_of(&layer, &d.meta()));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// `start` sweeps what a crashed incarnation left below its anchor;
    /// `keep_all` keeps it.
    #[test]
    fn start_compacts_below_its_anchor() {
        for keep_all in [false, true] {
            let dir = tmpdir("sweep");
            let layer =
                PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
            let options = DurabilityOptions {
                dir: dir.clone(),
                snapshot_every: 64,
                keep_all,
            };
            for segment in [0, 3] {
                let d = Durability::start(
                    options.clone(),
                    segment,
                    segment,
                    &layer.snapshot(),
                    DurableMeta::default(),
                )
                .expect("start");
                d.freeze();
            }
            let kept = if keep_all { (2, 2) } else { (1, 1) };
            assert_eq!(count(&dir), kept, "keep_all {keep_all}");
            assert_eq!(recover_dir(&dir).unwrap().last_segment, 3);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn frozen_durability_drops_appends() {
        let dir = tmpdir("frozen");
        let layer = PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
        let d = Durability::start(
            DurabilityOptions::new(&dir),
            0,
            0,
            &layer.snapshot(),
            DurableMeta::default(),
        )
        .expect("start");
        d.freeze();
        d.freeze(); // idempotent
        d.append_meta(&WalRecord::SessionMeta {
            session: 9,
            user: "late".into(),
            slo: Default::default(),
        });
        assert!(
            d.meta().sessions.is_empty(),
            "append after freeze is a no-op"
        );
        let rec = recover_dir(&dir).expect("recover");
        assert!(rec.meta.sessions.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
