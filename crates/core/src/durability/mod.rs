//! Crash consistency for the daemon: durable WAL + snapshot/restore.
//!
//! The daemon's arbitration state is already event-sourced — every
//! decision is a pure function of the fed event batches — so durability
//! is exactly: persist the batches ([`wal`]), checkpoint the folded state
//! periodically so recovery replays only a suffix ([`snapshot`]), and
//! rebuild + re-adopt after a crash ([`recover`]). Layout on disk:
//!
//! ```text
//! <dir>/snap-0.slot          snapshot slot 0: the anchor of one segment
//! <dir>/snap-1.slot          snapshot slot 1: the anchor before or after it
//! <dir>/wal-00000006.log     segment 6: one frame per fed batch + meta
//! <dir>/wal-00000007.log     segment 7, the open one …
//! ```
//!
//! The snapshot anchoring segment `k` captures state as of the *start* of
//! segment `k`; recovery loads the newest slot that validates and replays
//! segments `≥ k`, up to the first damaged one. A checkpoint overwrites,
//! in place, the slot that does not hold the current anchor — no temp
//! file, no rename. Unless `keep_all` is set, it then unlinks the segments
//! the new anchor superseded, so a serving directory holds the two slots
//! and one segment. A checkpoint whose slot write fails still rotates the
//! log but unlinks nothing, so either slot stays a starting point.
//!
//! **Checkpoints** run on the batch cadence, synchronously, under the
//! arbiter lock — so what one costs is serving latency. It costs what the
//! *open* sessions cost to serialise ([`DurableMeta`] forgets a session
//! when it closes), one segment created, one `fdatasync` of a slot that
//! changes no metadata, and one `unlink`, in an order that leaves a
//! recoverable directory after every step (`Durability::checkpoint`;
//! `DESIGN.md` §16 has the crash and power-failure argument and the
//! measured cost of each step).
//!
//! **Fsync policy.** Every append is one `write` straight to the file
//! descriptor — a fed batch and the metadata record it carries share
//! one — so a crash of the process can lose nothing acknowledged;
//! `sync_data` runs on each slot it is written, the directory is synced
//! once at start (its slot and segment entries), `sync_all` runs on the
//! open segment at freeze and on the closing segment of a checkpoint when
//! `keep_all` retains it — every file that is kept is synced, and
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
use snapshot::SnapshotSlots;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wal::SegmentWriter;

/// Knobs of the durability subsystem (see
/// [`DaemonOptions::durability`](crate::daemon::DaemonOptions)).
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding WAL segments and snapshot slots. Created if
    /// absent.
    pub dir: PathBuf,
    /// Batches appended to a segment before the layer is re-snapshotted
    /// and the log rotated. Smaller = faster recovery, more checkpoint
    /// I/O.
    pub snapshot_every: u64,
    /// Keep superseded segments instead of unlinking them. The two slots
    /// are overwritten either way, but the full-history placement log
    /// ([`full_log`]) replays every kept segment from a fresh layer, so
    /// it stays verifiable from genesis; used by the crash harness,
    /// debuggers and anyone auditing a recovery.
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
    slots: SnapshotSlots,
    segment: u64,
    /// The oldest segment of this incarnation still on disk: `segment`,
    /// or lower after a checkpoint whose slot write failed.
    oldest: u64,
    batches_since_snap: u64,
    meta: DurableMeta,
    frozen: bool,
}

/// The live durability runtime: one open WAL segment, the two snapshot
/// slots, the mirrored session metadata, and the snapshot cadence
/// counter. Shared by the daemon's arbiter frontend (batch appends) and
/// its session threads (metadata appends).
#[derive(Debug)]
pub struct Durability {
    options: DurabilityOptions,
    epoch: u64,
    inner: Mutex<DurInner>,
    io_errors: AtomicU64,
}

impl Durability {
    /// Starts durability at `segment` in `epoch`: opens the segment for
    /// appending and writes the anchoring snapshot of `placement` +
    /// `meta`. Fresh daemons start at segment 0, epoch 0 (the pristine
    /// genesis anchor); recovered ones one segment past the crashed log,
    /// one epoch up. The anchor goes to the slot that does not hold the
    /// anchor recovery loads from `dir` ([`Recovered::slot`]), never over
    /// it: until the new anchor is synced, that slot is the only one
    /// known good. In order: create the segment, write and `sync_data`
    /// the anchor, sync the directory (the slot and segment entries,
    /// once), then sweep what the anchor superseded
    /// ([`Durability::compact`]).
    pub fn start(
        options: DurabilityOptions,
        segment: u64,
        epoch: u64,
        placement: &PlacementSnapshot,
        meta: DurableMeta,
    ) -> io::Result<Arc<Self>> {
        let dir = &options.dir;
        std::fs::create_dir_all(dir)?;
        let segments = wal::list_segments(dir)?;
        let anchored = recover::newest_anchor(dir, &segments)
            .ok()
            .and_then(|(_, slot)| slot);
        let writer = SegmentWriter::create(dir, segment)?;
        let mut slots = SnapshotSlots::open(dir, anchored.map_or(0, |slot| slot ^ 1))?;
        let anchor = DurableSnapshot {
            format: SNAPSHOT_FORMAT,
            epoch,
            segment,
            placement: placement.clone(),
            meta,
        };
        slots.write(&anchor)?;
        std::fs::File::open(dir)?.sync_all()?;
        let durability = Self {
            options,
            epoch,
            inner: Mutex::new(DurInner {
                writer,
                slots,
                segment,
                oldest: segment,
                batches_since_snap: 0,
                meta: anchor.meta,
                frozen: false,
            }),
            io_errors: AtomicU64::new(0),
        };
        // The anchor supersedes whatever a crashed incarnation left: the
        // one place the directory is swept.
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
    /// §16 walks through them): create segment `k`, empty; overwrite the
    /// slot that does not hold the current anchor with the anchor of `k`
    /// and `sync_data` it; switch the writer; unlink the segments below
    /// `k`, oldest first. Failures are counted. If segment `k` cannot be
    /// created, nothing changed: appends go on in `k − 1` and the next
    /// cadence tries again. If the slot write fails, the slot may still
    /// hold the whole anchor of `k`, so appends must not stay behind it in
    /// `k − 1`: the writer switches all the same, and every segment is
    /// kept (the closing one synced), so recovery from either slot
    /// replays every batch. The next cadence writes the same slot again.
    fn checkpoint(&self, inner: &mut DurInner, placement_snap: impl FnOnce() -> PlacementSnapshot) {
        let dir = &self.options.dir;
        let k = inner.segment + 1;
        let Some(next) = self.note_io(SegmentWriter::create(dir, k)) else {
            return;
        };
        // Kept, the closing segment outlives this checkpoint and must be
        // durable in its own right. Otherwise the anchor of `k` holds all
        // it held and is synced below, and the file is unlinked right
        // after: syncing it would buy nothing.
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
        let written = inner.slots.write(&snap);
        inner.meta = snap.meta;
        let written = self.note_io(written).is_some();
        if !written && !self.options.keep_all {
            // Kept past this checkpoint after all.
            self.note_io(inner.writer.sync());
        }
        inner.writer = next;
        inner.segment = k;
        if written && !self.options.keep_all {
            // By name, oldest first, stopping at a failure: what is left
            // below the anchor is always a run with no hole in it.
            while inner.oldest < k {
                let path = wal::segment_path(dir, inner.oldest);
                if self.note_io(std::fs::remove_file(path)).is_none() {
                    break;
                }
                inner.oldest += 1;
            }
        }
    }

    /// Deletes every segment below the current anchor, and every snapshot
    /// file of the layout written before the slots — the sweep
    /// [`Durability::start`] runs, once its anchor is synced, for what a
    /// crashed incarnation or an older build left behind; the cadence
    /// path unlinks its segments by name and never lists the directory. `keep_all` keeps the segments. Best-effort: removal
    /// failures are counted, not fatal — stale files only cost disk.
    pub fn compact(&self) {
        let newest = self.inner.lock().segment;
        let dir = &self.options.dir;
        let mut stale = wal::list_snapshots(dir).unwrap_or_default();
        if !self.options.keep_all {
            let segments = wal::list_segments(dir).unwrap_or_default();
            stale.extend(segments.into_iter().filter(|&(k, _)| k < newest));
        }
        for (_, path) in stale {
            if self.note_io(std::fs::remove_file(path)).is_none() {
                return;
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
    use snapshot::{decode_slot, encode_slot, load_slot, slot_path};
    use std::io::Write;
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

    /// The file names in `dir`, sorted.
    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// The two slots and the given segments, as [`files`] lists them.
    fn slots_and(segments: &[u64]) -> Vec<String> {
        let mut names = vec!["snap-0.slot".to_string(), "snap-1.slot".to_string()];
        names.extend(segments.iter().map(|k| format!("wal-{k:08}.log")));
        names
    }

    /// The segment slot `slot` anchors, if it validates.
    fn anchor_of(dir: &Path, slot: usize) -> Option<u64> {
        let bytes = std::fs::read(slot_path(dir, slot)).unwrap();
        decode_slot(&bytes).ok().map(|(k, _)| k)
    }

    /// Writes `bytes` over slot `slot` from offset 0, in place, as a
    /// checkpoint's `write` does, without syncing.
    fn overwrite_slot(dir: &Path, slot: usize, bytes: &[u8]) {
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(slot_path(dir, slot))
            .unwrap();
        file.write_all(bytes).unwrap();
    }

    fn append_sessions(d: &Durability, layer: &mut PlacementLayer, sessions: std::ops::Range<u64>) {
        for i in sessions {
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
        append_sessions(&d, &mut layer, 0..5);
        // 5 batches at cadence 2: rotated after 2 and 4, the anchors
        // alternating slots; compaction keeps only the newest segment.
        assert_eq!(files(&dir), slots_and(&[2]), "compaction retired the rest");
        assert_eq!((anchor_of(&dir, 0), anchor_of(&dir, 1)), (Some(2), Some(1)));
        let rec = recover_dir(&dir).expect("recover");
        assert!(rec.issues.is_empty());
        assert_eq!((rec.last_segment, rec.slot), (2, Some(0)));
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
        append_sessions(&d, &mut layer, 0..5);
        d.freeze();
        assert_eq!(files(&dir), slots_and(&[0, 1, 2]), "no segment unlinked");
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

    /// A durability directory holding three sessions' worth of segment 0
    /// (one of them closed) and no checkpoint yet, frozen; and the layer
    /// the uninterrupted run holds.
    fn one_segment(dir: &Path) -> (PlacementLayer, DurableMeta) {
        let mut layer =
            PlacementLayer::new(vec![DeviceConfig::tiny(8); 2], PlacementConfig::default());
        let mut options = DurabilityOptions::new(dir);
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
        (layer, d.meta())
    }

    /// A crash after any step of a checkpoint recovers the state of the
    /// run that was never interrupted. The directory of each step is built
    /// by hand, from the public helpers, in the order `checkpoint` works.
    #[test]
    fn every_step_of_a_checkpoint_leaves_a_recoverable_directory() {
        let dir = tmpdir("steps");
        let (layer, meta) = one_segment(&dir);
        // What the uninterrupted run holds when the cadence comes due.
        let want = state_of(&layer, &meta);
        assert_eq!(recovered_state(&dir), want, "before the checkpoint");
        let slot = |dir: &Path| recover_dir(dir).unwrap().slot;
        assert_eq!(slot(&dir), Some(0), "the genesis anchor is in slot 0");

        let last = |dir: &Path| recover_dir(dir).unwrap().last_segment;
        // 1. Segment 1 exists, empty.
        SegmentWriter::create(&dir, 1).expect("segment 1");
        assert_eq!(recovered_state(&dir), want, "segment created");
        assert_eq!(last(&dir), 1, "the empty segment's index is taken");
        // 2. Slot 1 is overwritten in place, torn at half, then whole but
        //    not synced: a torn slot fails its checksum and recovery
        //    replays segments 0 and 1 from slot 0.
        let snap = DurableSnapshot {
            format: SNAPSHOT_FORMAT,
            epoch: 0,
            segment: 1,
            placement: layer.snapshot(),
            meta: meta.clone(),
        };
        let mut image = Vec::new();
        encode_slot(
            1,
            serde_json::to_string(&snap).unwrap().as_bytes(),
            &mut image,
        );
        overwrite_slot(&dir, 1, &image[..image.len() / 2]);
        assert_eq!(recovered_state(&dir), want, "slot torn at half");
        assert_eq!(slot(&dir), Some(0));
        overwrite_slot(&dir, 1, &image);
        assert_eq!(recovered_state(&dir), want, "slot written, not synced");
        assert_eq!(slot(&dir), Some(1));
        // 3. Slot 1 is written and synced.
        let mut slots = SnapshotSlots::open(&dir, 1).expect("open slots");
        slots.write(&snap).expect("slot 1");
        assert_eq!(recovered_state(&dir), want, "slot synced");
        // 4. The superseded segment goes.
        std::fs::remove_file(wal::segment_path(&dir, 0)).unwrap();
        assert_eq!(recovered_state(&dir), want, "segment unlinked");
        assert_eq!(
            (files(&dir), last(&dir), slot(&dir)),
            (slots_and(&[1]), 1, Some(1))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn newest slot fails its checksum; recovery loads the other
    /// slot and replays both segments behind it to the live state.
    #[test]
    fn a_torn_slot_falls_back_to_the_other_and_replays_both_segments() {
        let dir = tmpdir("torn-slot");
        let mut layer =
            PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
        let options = DurabilityOptions {
            dir: dir.clone(),
            snapshot_every: 2,
            keep_all: true,
        };
        let d = Durability::start(options, 0, 0, &layer.snapshot(), DurableMeta::default())
            .expect("start");
        append_sessions(&d, &mut layer, 0..5);
        d.append_meta(&session_meta(5)[0]);
        d.freeze();
        let want = state_of(&layer, &d.meta());
        assert_eq!((anchor_of(&dir, 0), anchor_of(&dir, 1)), (Some(2), Some(1)));
        assert_eq!(recovered_state(&dir), want);
        // Slot 0's body loses a byte in its middle, as an overwrite the
        // power failed under would leave it.
        let mut bytes = std::fs::read(slot_path(&dir, 0)).unwrap();
        bytes[snapshot::SLOT_HEADER_LEN + 40] ^= 0x20;
        overwrite_slot(&dir, 0, &bytes);
        assert_eq!(anchor_of(&dir, 0), None, "the torn slot fails its checksum");
        let rec = recover_dir(&dir).expect("recover");
        assert_eq!((rec.slot, rec.last_segment), (Some(1), 2));
        assert!(rec.issues.is_empty(), "{:?}", rec.issues);
        assert_eq!(
            state_of(&rec.layer, &rec.meta),
            want,
            "segments 1 and 2 replayed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Compacting, the older slot anchors a segment that is gone. With the
    /// newest slot torn, recovery must not replay the later segment over
    /// that hole: it is a typed error naming both slots' faults.
    #[test]
    fn a_slot_whose_segment_was_unlinked_is_never_replayed_over_the_hole() {
        let dir = tmpdir("cut");
        let mut layer =
            PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
        let mut options = DurabilityOptions::new(&dir);
        options.snapshot_every = 2;
        let d = Durability::start(options, 0, 0, &layer.snapshot(), DurableMeta::default())
            .expect("start");
        append_sessions(&d, &mut layer, 0..5);
        d.freeze();
        assert_eq!(files(&dir), slots_and(&[2]));
        assert_eq!(
            anchor_of(&dir, 1),
            Some(1),
            "slot 1 anchors the unlinked segment 1"
        );
        let mut bytes = std::fs::read(slot_path(&dir, 0)).unwrap();
        bytes[snapshot::SLOT_HEADER_LEN + 10] ^= 1;
        overwrite_slot(&dir, 0, &bytes);
        let why = recover_dir(&dir).expect_err("no usable anchor").to_string();
        assert!(why.contains("snap-0.slot: slot checksum mismatch"), "{why}");
        assert!(
            why.contains("snap-1.slot: anchors segment 1, which is gone"),
            "{why}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A directory of the layout written before the slots — a
    /// `snap-NNNNNNNN.json` per kept anchor, plus segments — recovers the
    /// same state, and the first anchor this build writes there sweeps the
    /// older snapshot files.
    #[test]
    fn a_directory_of_the_older_layout_recovers_and_its_first_anchor_sweeps_it() {
        let dir = tmpdir("older");
        let mut layer =
            PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
        let options = DurabilityOptions {
            dir: dir.clone(),
            snapshot_every: 2,
            keep_all: true,
        };
        let d = Durability::start(
            options.clone(),
            0,
            0,
            &layer.snapshot(),
            DurableMeta::default(),
        )
        .expect("start");
        append_sessions(&d, &mut layer, 0..3);
        d.append_meta(&session_meta(3)[0]);
        d.freeze();
        let want = state_of(&layer, &d.meta());
        // The older build's files: the anchors as `snap-k.json`, no slots.
        for slot in 0..2 {
            let snap = load_slot(&std::fs::read(slot_path(&dir, slot)).unwrap()).unwrap();
            let text = serde_json::to_string(&snap).unwrap();
            let path = dir.join(format!("snap-{:08}.json", snap.segment));
            std::fs::write(path, text).unwrap();
            std::fs::remove_file(slot_path(&dir, slot)).unwrap();
        }
        assert_eq!(
            files(&dir),
            [
                "snap-00000000.json",
                "snap-00000001.json",
                "wal-00000000.log",
                "wal-00000001.log"
            ]
        );
        let rec = recover_dir(&dir).expect("recover");
        assert_eq!((rec.slot, rec.last_segment), (None, 1));
        assert_eq!(state_of(&rec.layer, &rec.meta), want);
        let d = Durability::start(
            options,
            rec.last_segment + 1,
            rec.epoch + 1,
            &rec.layer.snapshot(),
            rec.meta,
        )
        .expect("start over the older layout");
        d.freeze();
        assert_eq!(files(&dir), slots_and(&[0, 1, 2]), "older snapshots swept");
        assert_eq!(anchor_of(&dir, 0), Some(2));
        assert_eq!(recovered_state(&dir), want);
        assert_eq!(d.io_errors(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint that cannot create its segment changes nothing:
    /// appends go on in the old segment. One whose slot write fails —
    /// before a byte went out, or after the whole anchor did, when only
    /// its `sync_data` failed — rotates the log all the same and unlinks
    /// nothing, so recovery from either slot replays every batch: a slot
    /// holding the unsynced anchor of segment 1 must not hide the
    /// sessions appended after it. Each failure is counted, the next
    /// cadence succeeds, and recovery sees the live state throughout.
    #[test]
    fn a_failed_checkpoint_is_counted_and_retried_at_the_next_cadence() {
        for blocked in ["segment", "slot", "sync"] {
            let dir = tmpdir(&format!("retry-{blocked}"));
            let mut layer =
                PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
            let mut options = DurabilityOptions::new(&dir);
            options.snapshot_every = 2;
            let d = Durability::start(options, 0, 0, &layer.snapshot(), DurableMeta::default())
                .expect("start");
            let jam = |jammed| match blocked {
                // A directory where the checkpoint wants a file: open fails.
                "segment" => {
                    let path = wal::segment_path(&dir, 1);
                    let r = if jammed {
                        std::fs::create_dir(path)
                    } else {
                        std::fs::remove_dir(path)
                    };
                    r.unwrap();
                }
                "slot" => d.inner.lock().slots.jam(&dir, 1, jammed).unwrap(),
                _ => d.inner.lock().slots.fail_sync = jammed,
            };
            jam(true);
            for session in 1..=3 {
                let batch = open_session(&mut layer, session);
                d.append_batch(&batch, || layer.snapshot());
                d.append_meta(&session_meta(session)[0]);
            }
            let live = |layer: &PlacementLayer| state_of(layer, &d.meta());
            assert_eq!(d.io_errors(), 1, "{blocked}: the cadence at batch 2 failed");
            // Segment 1's name is the jamming directory in the first case.
            let slot_1 = (blocked == "sync").then_some(1);
            assert_eq!(
                (files(&dir), anchor_of(&dir, 1)),
                (slots_and(&[0, 1]), slot_1),
                "{blocked}"
            );
            jam(false);
            assert_eq!(
                recovered_state(&dir),
                live(&layer),
                "{blocked}: as it stands"
            );
            if blocked == "sync" {
                // Torn instead, slot 1 leaves slot 0 and both segments.
                let good = std::fs::read(slot_path(&dir, 1)).unwrap();
                let mut torn = good.clone();
                torn[snapshot::SLOT_HEADER_LEN + 5] ^= 0x08;
                overwrite_slot(&dir, 1, &torn);
                assert_eq!(recovered_state(&dir), live(&layer), "sync: slot 1 torn");
                assert_eq!(recover_dir(&dir).unwrap().slot, Some(0));
                overwrite_slot(&dir, 1, &good);
            }
            // Batch 4 is the next cadence, into slot 1 again; it unlinks
            // every segment below its anchor.
            let batch = open_session(&mut layer, 4);
            d.append_batch(&batch, || layer.snapshot());
            let anchor = if blocked == "segment" { 1 } else { 2 };
            assert_eq!(
                (d.io_errors(), files(&dir), anchor_of(&dir, 1)),
                (1, slots_and(&[anchor]), Some(anchor)),
                "{blocked}"
            );
            let rec = recover_dir(&dir).unwrap();
            assert_eq!((rec.last_segment, rec.slot), (anchor, Some(1)));
            assert_eq!(recovered_state(&dir), live(&layer), "{blocked}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// `start` sweeps what a crashed incarnation left below its anchor;
    /// `keep_all` keeps it. A second start writes the slot the first did
    /// not.
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
            let kept = if keep_all {
                slots_and(&[0, 3])
            } else {
                slots_and(&[3])
            };
            assert_eq!(files(&dir), kept, "keep_all {keep_all}");
            assert_eq!((anchor_of(&dir, 0), anchor_of(&dir, 1)), (Some(0), Some(3)));
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
