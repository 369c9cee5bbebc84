//! Crash consistency for the daemon: durable WAL + snapshot/restore.
//!
//! The daemon's arbitration state is already event-sourced — every
//! decision is a pure function of the fed event batches — so durability
//! is exactly: persist the batches ([`wal`]), checkpoint the folded state
//! periodically so recovery replays only a suffix ([`snapshot`]), and
//! rebuild + re-adopt after a crash (`recover`). Layout on disk:
//!
//! ```text
//! <dir>/snap-0.slot          snapshot slot 0: an anchor (segment, offset)
//! <dir>/snap-1.slot          snapshot slot 1: the anchor before or after it
//! <dir>/wal-00000007.log     segment 7, the open one: one frame per fed
//!                            batch + meta, both anchors usually inside it
//! ```
//!
//! An anchor is a position in the log: the snapshot anchoring byte `o` of
//! segment `k` captures state as of that byte, and recovery loads the
//! newest slot that validates and replays from there — the rest of
//! segment `k`, then the later segments, up to the first damaged one. A
//! checkpoint overwrites, in place, the slot that does not hold the
//! current anchor with the anchor of the open segment's end; no file is
//! created, renamed or unlinked. Segments roll by size instead: an append
//! that finds the open segment past `SEGMENT_BYTES` first switches to a
//! fresh one, and, unless `keep_all` is set, the next checkpoint unlinks
//! what its anchor superseded — so a serving directory holds the two slots
//! and one segment, two for a moment after a roll.
//!
//! **Formats.** The layer reads exactly what it writes, and each file
//! carries one version: a WAL payload its format byte ([`codec::FORMAT`]),
//! a slot its header's version, which covers its binary body too. A format
//! change bumps the one it changes and keeps no reader for the old one; a
//! directory of an older layout is a typed error, never a panic.
//!
//! **Checkpoints** come due on the batch cadence and run in two halves.
//! The half that captures the state runs on the thread that fed the
//! batch, under the arbiter lock — so what it costs is serving latency:
//! take the open segment's end, encode the slot body and `write` the slot.
//! It costs what the *open* sessions cost to serialise ([`DurableMeta`]
//! forgets a session when it closes). The other half,
//! [`Durability::sync_checkpoint`], runs on the daemon's heartbeat outside
//! every lock: one `fdatasync` of a slot that changes no metadata, after
//! which the slot is the current anchor and the segments below it are
//! unlinked. At most one slot is unsynced at a time: a checkpoint that
//! comes due before the last one's sync waits for the first batch after
//! it. The order leaves a recoverable directory after every step
//! (`DESIGN.md` §16 has the crash and power-failure argument and the
//! measured cost of each step).
//!
//! **Fsync policy.** Every append is one `write` straight to the file
//! descriptor — a fed batch and the metadata record it carries share
//! one — so a crash of the process can lose nothing acknowledged;
//! `sync_data` runs on each slot a checkpoint writes, at the next
//! heartbeat, the directory is synced once at start (its slot and
//! segment entries), `sync_all` runs on the open segment (and `sync_data`
//! on an unsynced slot) at freeze, on the closing segment of a roll, and,
//! when `keep_all` keeps the history, on the open segment before each
//! checkpoint's slot — every file that is kept is synced, and a power
//! failure loses at most one cadence plus the batches fed before the next
//! heartbeat's sync. I/O errors during appends and checkpoints are counted
//! and surfaced via [`Durability::io_errors`] rather than propagated — an
//! arbitration decision that already happened cannot be un-made by a full
//! disk, and the counter lets operators alarm on it.

pub mod codec;
pub(crate) mod recover;
#[doc(hidden)]
pub mod snapshot;
#[doc(hidden)]
pub mod wal;

#[doc(hidden)]
pub use recover::full_log;
pub use recover::{recover_dir, Recovered};
pub use snapshot::{AllocMeta, DurableMeta, DurableSnapshot, SessionMeta};
pub use wal::{WalIssue, WalRecord};

use crate::placement::PlacementSnapshot;
use parking_lot::Mutex;
use snapshot::SnapshotSlots;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wal::SegmentWriter;

/// Bytes past which the open segment rolls: the next append goes to a
/// fresh segment, and the next checkpoint unlinks the old one. Hundreds
/// of checkpoints at the default cadence (`DESIGN.md` §16), so a
/// checkpoint almost never finds a segment to unlink.
pub(crate) const SEGMENT_BYTES: u64 = 1 << 20;

/// Knobs of the durability subsystem (see
/// [`DaemonOptions::durability`](crate::daemon::DaemonOptions)).
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding WAL segments and snapshot slots. Created if
    /// absent.
    pub dir: PathBuf,
    /// Batches appended between checkpoints: each re-snapshots the layer
    /// at the open segment's end. A checkpoint that comes due while the
    /// last one's slot still awaits the heartbeat's sync waits for the
    /// first batch after it, so under load the cadence stretches to the
    /// heartbeat's millisecond. Smaller = faster recovery and less lost to
    /// a power failure (at most one cadence, plus the batches fed before
    /// the next heartbeat's sync), more checkpoint I/O. Segments roll by
    /// size (`SEGMENT_BYTES`), not on this cadence.
    pub snapshot_every: u64,
    /// Keep superseded segments instead of unlinking them, and sync the
    /// open segment before each checkpoint's slot (a roll syncs the
    /// closing one either way), so the history is as durable as the
    /// anchors. The two slots are overwritten either way, but the
    /// full-history placement log ([`full_log`]) replays every kept
    /// segment from a fresh layer, so it stays verifiable from genesis;
    /// used by the crash harness, debuggers and anyone auditing a
    /// recovery.
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
    /// The open segment.
    segment: u64,
    /// The oldest segment of this incarnation still on disk: `segment`,
    /// or lower after a roll until a checkpoint unlinks what it left.
    oldest: u64,
    batches_since_snap: u64,
    meta: DurableMeta,
    /// The segment anchored by the slot the last checkpoint wrote, until
    /// a sync makes that slot the current anchor. While it is set no
    /// checkpoint runs, so at most one slot is ever unsynced.
    pending: Option<u64>,
    /// Leaves a pending slot unsynced until [`Durability::freeze`]
    /// ([`Durability::hold_syncs`]; tests only).
    held: bool,
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
    /// Held across a whole [`Durability::sync_checkpoint`], so sync steps
    /// run one at a time: a second one must neither find the slot still
    /// pending and report a sync it did not run, nor return before the
    /// one under way has. Only the heartbeat takes it while serving.
    syncing: Mutex<()>,
    io_errors: AtomicU64,
}

impl Durability {
    /// Starts durability at `segment` in `epoch`: opens the segment for
    /// appending and writes the anchoring snapshot of `placement` +
    /// `meta` at its start. Fresh daemons start at segment 0, epoch 0
    /// (the pristine genesis anchor); recovered ones one segment past the
    /// crashed log, one epoch up. The anchor goes to the slot that does
    /// not hold the anchor recovery loads from `dir` (`Recovered::slot`),
    /// never over it: until the new anchor is synced, that slot is the
    /// only one known good. In order: create the segment, write and
    /// `sync_data` the anchor (here, not on the heartbeat), sync the
    /// directory (the slot and segment entries, once), then sweep what the
    /// anchor superseded (`Durability::compact`).
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
        let next = recover::newest_anchor(dir, &segments).map_or(0, |(_, slot)| slot ^ 1);
        let writer = SegmentWriter::create(dir, segment)?;
        let mut slots = SnapshotSlots::open(dir, next)?;
        let anchor = DurableSnapshot {
            epoch,
            segment,
            offset: 0,
            placement: placement.clone(),
            meta,
        };
        slots.write(&anchor)?;
        slots.sync()?;
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
                pending: None,
                held: false,
                frozen: false,
            }),
            syncing: Mutex::new(()),
            io_errors: AtomicU64::new(0),
        };
        // The anchor supersedes whatever a crashed incarnation left: the
        // one place the directory is swept.
        durability.compact();
        Ok(Arc::new(durability))
    }

    /// The recovery epoch this incarnation runs in.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Append I/O failures since start, plus torn tails recovery could not
    /// cut (`Durability::count_io_errors`). Nonzero means the WAL has a
    /// gap: recovery from this log may miss state, and operators should
    /// treat the disk as suspect.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Counts `n` I/O failures met on the way to this incarnation (torn
    /// tails recovery could not cut) alongside the append failures.
    pub(crate) fn count_io_errors(&self, n: u64) {
        self.io_errors.fetch_add(n, Ordering::Relaxed);
    }

    /// A clone of the mirrored session metadata.
    #[doc(hidden)]
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
        self.roll_if_full(&mut inner);
        let r = inner.writer.append(record);
        drop(inner);
        self.note_io(r);
    }

    /// Appends one fed placement batch; on cadence, checkpoints
    /// `placement_snap()` (called under the same lock the batch was
    /// produced under, so the snapshot anchors exactly the batches
    /// appended so far) — the slot is written, and
    /// [`Durability::sync_checkpoint`] syncs it.
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
    #[doc(hidden)]
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
        self.roll_if_full(&mut inner);
        self.note_io(inner.writer.append_batch(batch, meta));
        inner.batches_since_snap += 1;
        // Due while the last slot awaits its sync, the checkpoint waits
        // for the first batch after it.
        if inner.batches_since_snap >= self.options.snapshot_every && inner.pending.is_none() {
            inner.batches_since_snap = 0;
            self.checkpoint(&mut inner, placement_snap);
        }
    }

    /// Switches the log to segment `k + 1` if the open segment `k` has
    /// passed [`SEGMENT_BYTES`]: create it, sync `k` — the anchors still
    /// name it, and a power failure must not lose its tail while what
    /// follows in `k + 1` survives — and append there from now on. `k`
    /// stays on disk until a checkpoint anchors past it. If `k + 1`
    /// cannot be created, nothing changed, and the next append tries
    /// again; a failed sync is counted and the roll goes on.
    fn roll_if_full(&self, inner: &mut DurInner) {
        if inner.writer.written() < SEGMENT_BYTES {
            return;
        }
        let k = inner.segment + 1;
        let Some(next) = self.note_io(SegmentWriter::create(&self.options.dir, k)) else {
            return;
        };
        self.note_io(inner.writer.sync());
        inner.writer = next;
        inner.segment = k;
    }

    /// The half of a checkpoint that runs under the arbiter lock, in the
    /// order that leaves a recoverable directory after every step
    /// (`DESIGN.md` §16 walks through them): take the open segment's true
    /// end, `(k, offset)`; overwrite the slot that does not hold the
    /// current anchor with the anchor of that position, and leave it
    /// pending for [`Durability::sync_checkpoint`]. Under `keep_all` the
    /// open segment is synced before the slot. Failures are counted. If
    /// the slot write fails, the slot may still hold the whole new anchor;
    /// appends go on behind its offset all the same, so recovery from
    /// either slot replays them, nothing is pending, and the next cadence
    /// writes the same slot again.
    fn checkpoint(&self, inner: &mut DurInner, placement_snap: impl FnOnce() -> PlacementSnapshot) {
        let Some(offset) = self.note_io(inner.writer.end()) else {
            return;
        };
        // Kept, the history below the anchor must be as durable as the
        // anchor. Otherwise the anchor holds all of it: losing the bytes
        // below its offset loses nothing.
        if self.options.keep_all {
            self.note_io(inner.writer.sync());
        }
        // The mirror is lent to the snapshot, not cloned into it.
        let snap = DurableSnapshot {
            epoch: self.epoch,
            segment: inner.segment,
            offset,
            placement: placement_snap(),
            meta: std::mem::take(&mut inner.meta),
        };
        let written = inner.slots.write(&snap);
        inner.meta = snap.meta;
        if self.note_io(written).is_some() {
            inner.pending = Some(snap.segment);
        }
    }

    /// The half of a checkpoint that runs on the daemon's heartbeat, after
    /// its tick and outside the arbiter lock: `sync_data` the slot the last
    /// checkpoint wrote, holding no lock while it runs; only then make it
    /// the current anchor, so the next checkpoint writes the other slot,
    /// and unlink the segments below the one it anchors, oldest first —
    /// usually there are none. A failed sync is counted, nothing is
    /// unlinked, and the next cadence rewrites the same slot. Sync steps
    /// run one at a time; with no slot pending, or after
    /// [`Durability::freeze`] (which syncs a pending slot itself), one
    /// changes nothing. Allocates nothing unless it unlinks.
    pub fn sync_checkpoint(&self) {
        let _one_at_a_time = self.syncing.lock();
        if let Some(slot) = self.begin_sync() {
            self.end_sync(slot.sync_data());
        }
    }

    /// The pending slot's file, for [`Durability::sync_checkpoint`] to
    /// sync; `None` if there is nothing to sync.
    fn begin_sync(&self) -> Option<Arc<std::fs::File>> {
        let inner = self.inner.lock();
        if inner.pending.is_none() || inner.held || inner.frozen {
            return None;
        }
        Some(inner.slots.file())
    }

    /// Takes the outcome of syncing [`Durability::begin_sync`]'s slot.
    fn end_sync(&self, synced: io::Result<()>) {
        let mut inner = self.inner.lock();
        if inner.frozen {
            return;
        }
        let Some(anchored) = inner.pending.take() else {
            return;
        };
        let synced = inner.slots.synced(synced);
        if self.note_io(synced).is_none() || self.options.keep_all {
            return;
        }
        // By name, oldest first, stopping at a failure: what is left
        // below the anchor is always a run with no hole in it.
        while inner.oldest < anchored {
            let path = wal::segment_path(&self.options.dir, inner.oldest);
            if self.note_io(std::fs::remove_file(path)).is_none() {
                break;
            }
            inner.oldest += 1;
        }
    }

    /// Holds a pending slot unsynced — the heartbeat's sync step leaves it
    /// alone — until `held` is false again or [`Durability::freeze`]
    /// syncs it. For tests that need a crash to find a sync pending.
    pub(crate) fn hold_syncs(&self, held: bool) {
        self.inner.lock().held = held;
    }

    /// Deletes every segment below the oldest one this incarnation keeps
    /// (at start, the open one) — the sweep [`Durability::start`] runs,
    /// once its anchor is synced, for what a crashed incarnation left
    /// behind; the cadence path unlinks its segments by name and never
    /// lists the directory. `keep_all` keeps them. Best-effort: removal
    /// failures are counted, not fatal — stale files only cost disk.
    pub(crate) fn compact(&self) {
        if self.options.keep_all {
            return;
        }
        let oldest = self.inner.lock().oldest;
        let segments = wal::list_segments(&self.options.dir).unwrap_or_default();
        for (_, path) in segments.into_iter().filter(|&(k, _)| k < oldest) {
            if self.note_io(std::fs::remove_file(path)).is_none() {
                return;
            }
        }
    }

    /// Stops all appends (used at shutdown and at the crash point of the
    /// kill harness) after syncing what was written: the open segment,
    /// then a slot still awaiting its sync. A sync step under way then
    /// changes nothing, so nothing is unlinked after the freeze.
    /// Idempotent.
    pub fn freeze(&self) {
        let mut inner = self.inner.lock();
        if inner.frozen {
            return;
        }
        inner.frozen = true;
        let segment = inner.writer.sync();
        let slot = inner.pending.map(|_| inner.slots.file().sync_data());
        drop(inner);
        self.note_io(segment);
        if let Some(synced) = slot {
            self.note_io(synced);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::Event;
    use crate::placement::{PlacementBatch, PlacementConfig, PlacementLayer};
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

    /// The position, `(segment, offset)`, slot `slot` anchors, if it
    /// validates.
    fn anchor_of(dir: &Path, slot: usize) -> Option<(u64, u64)> {
        let bytes = std::fs::read(slot_path(dir, slot)).unwrap();
        decode_slot(&bytes).ok().map(|(anchor, _)| anchor)
    }

    /// The length of segment `k`.
    fn seg_len(dir: &Path, k: u64) -> u64 {
        std::fs::metadata(wal::segment_path(dir, k)).unwrap().len()
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

    /// A slot image of `snap`, as `SnapshotSlots::write` builds it.
    fn slot_image(snap: &DurableSnapshot) -> Vec<u8> {
        let mut image = Vec::new();
        encode_slot(snap, &mut image);
        image
    }

    fn layer_of(devices: usize) -> PlacementLayer {
        PlacementLayer::new(
            vec![DeviceConfig::tiny(8); devices],
            PlacementConfig::default(),
        )
    }

    fn start(
        dir: &Path,
        snapshot_every: u64,
        keep_all: bool,
        layer: &PlacementLayer,
    ) -> Arc<Durability> {
        let options = DurabilityOptions {
            dir: dir.to_path_buf(),
            snapshot_every,
            keep_all,
        };
        Durability::start(options, 0, 0, &layer.snapshot(), DurableMeta::default()).expect("start")
    }

    /// One session's admission batch per session, each followed by the
    /// sync step, as if a heartbeat ran between every two batches.
    fn append_sessions(d: &Durability, layer: &mut PlacementLayer, sessions: std::ops::Range<u64>) {
        for i in sessions {
            d.append_batch(&open_session(layer, i + 1), || layer.snapshot());
            d.sync_checkpoint();
        }
    }

    /// One session's admission batch, fed to `layer`, for the caller to
    /// append.
    fn open_session(layer: &mut PlacementLayer, session: u64) -> PlacementBatch {
        feed(layer, session * 10, vec![Event::SessionOpened { session }])
    }

    fn feed(layer: &mut PlacementLayer, at: u64, events: Vec<Event>) -> PlacementBatch {
        let routed = layer.feed(at, &events);
        PlacementBatch { at, events, routed }
    }

    /// Wave `wave` of [`WAVE`] sessions: a batch opening them all, then
    /// one closing them all. Fat batches, so a log passes
    /// [`SEGMENT_BYTES`] in a few hundred appends.
    fn wave(d: &Durability, layer: &mut PlacementLayer, wave: u64) {
        let ids = (wave * WAVE + 1)..=(wave * WAVE + WAVE);
        let at = 1_000_000 + wave * 10;
        let opened = ids.clone().map(|session| Event::SessionOpened { session });
        let batch = feed(layer, at, opened.collect());
        d.append_batch(&batch, || layer.snapshot());
        let closed = ids.map(|session| Event::SessionClosed { session });
        let batch = feed(layer, at + 5, closed.collect());
        d.append_batch(&batch, || layer.snapshot());
    }

    const WAVE: u64 = 64;

    /// Waves from `next` on until the open segment is `segment`; returns
    /// the next wave's number.
    fn waves_until(d: &Durability, layer: &mut PlacementLayer, mut next: u64, segment: u64) -> u64 {
        while d.inner.lock().segment < segment {
            wave(d, layer, next);
            next += 1;
        }
        next
    }

    /// Checkpoints now, whatever the cadence, and runs the sync step.
    fn checkpoint_now(d: &Durability, layer: &PlacementLayer) {
        d.checkpoint(&mut d.inner.lock(), || layer.snapshot());
        d.sync_checkpoint();
    }

    /// A log across one roll, checkpointed by hand: the genesis anchor
    /// (slot 0), a wave of segment 0, the anchor of its end (slot 1,
    /// synced), more waves until the append that rolls to segment 1, one
    /// more wave, and the anchor of that written to slot 0, its sync
    /// pending. Returns the durability, the layer the run holds, slot 1's
    /// anchor in segment 0, and the next wave's number.
    fn a_roll_with_a_sync_pending(
        dir: &Path,
        keep_all: bool,
    ) -> (Arc<Durability>, PlacementLayer, u64, u64) {
        let mut layer = layer_of(1);
        let d = start(dir, u64::MAX, keep_all, &layer);
        wave(&d, &mut layer, 0);
        checkpoint_now(&d, &layer);
        let older = seg_len(dir, 0);
        let next = waves_until(&d, &mut layer, 1, 1);
        wave(&d, &mut layer, next);
        d.append_meta(&session_meta(5)[0]);
        d.checkpoint(&mut d.inner.lock(), || layer.snapshot());
        (d, layer, older, next + 1)
    }

    /// [`a_roll_with_a_sync_pending`], its slot synced. Frozen; returns the
    /// layer the run holds, the mirror, and slot 1's anchor in segment 0.
    fn across_a_roll(dir: &Path, keep_all: bool) -> (PlacementLayer, DurableMeta, u64) {
        let (d, layer, older, _) = a_roll_with_a_sync_pending(dir, keep_all);
        d.sync_checkpoint();
        d.freeze();
        assert_eq!(d.io_errors(), 0);
        assert_eq!(
            (anchor_of(dir, 0), anchor_of(dir, 1)),
            (Some((1, seg_len(dir, 1))), Some((0, older)))
        );
        (layer, d.meta(), older)
    }

    #[test]
    fn cadence_rotates_snapshots_and_compacts() {
        let dir = tmpdir("cadence");
        let mut layer = layer_of(1);
        let d = start(&dir, 2, false, &layer);
        append_sessions(&d, &mut layer, 0..2);
        let first = seg_len(&dir, 0);
        append_sessions(&d, &mut layer, 2..5);
        // 5 batches at cadence 2: checkpoints after 2 and 4, the anchors
        // alternating slots, both in the one segment: no file created or
        // unlinked.
        assert_eq!(files(&dir), slots_and(&[0]));
        let second = first + (seg_len(&dir, 0) - first) * 2 / 3;
        assert_eq!(
            (anchor_of(&dir, 0), anchor_of(&dir, 1)),
            (Some((0, second)), Some((0, first)))
        );
        let rec = recover_dir(&dir).expect("recover");
        assert!(rec.issues.is_empty());
        assert_eq!((rec.last_segment, rec.slot), (0, 0));
        assert_eq!(
            rec.layer.snapshot(),
            layer.snapshot(),
            "recovered layer matches the live one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Many checkpoints inside a segment and one roll under `keep_all`:
    /// every segment stays, and the history replays from genesis.
    #[test]
    fn keep_all_retains_full_history_for_the_genesis_log() {
        let dir = tmpdir("keepall");
        let mut layer = layer_of(1);
        let d = start(&dir, 16, true, &layer);
        let next = waves_until(&d, &mut layer, 0, 1);
        for w in next..next + 20 {
            wave(&d, &mut layer, w);
        }
        d.freeze();
        assert_eq!(d.io_errors(), 0);
        assert_eq!(files(&dir), slots_and(&[0, 1]), "no segment unlinked");
        let checkpoints = (next + 20) * 2 / 16;
        assert!(checkpoints > 30, "{checkpoints} checkpoints");
        let log = full_log(&dir).expect("full log");
        assert_eq!(log.batches.len() as u64, (next + 20) * 2);
        crate::placement::replay::verify(&log).expect("full history verifies from genesis");
        let rec = recover_dir(&dir).expect("recover");
        assert_eq!(
            rec.layer.stats().sessions_routed,
            layer.stats().sessions_routed
        );
        std::fs::remove_dir_all(&dir).ok();
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
    /// mirror.
    fn state_of(layer: &PlacementLayer, meta: &DurableMeta) -> (PlacementSnapshot, DurableMeta) {
        (layer.snapshot(), meta.clone())
    }

    fn recovered_state(dir: &Path) -> (PlacementSnapshot, DurableMeta) {
        let rec = recover_dir(dir).expect("recover");
        assert!(rec.issues.is_empty(), "{:?}", rec.issues);
        state_of(&rec.layer, &rec.meta)
    }

    /// A durability directory holding `sessions` sessions' worth of
    /// segment 0 (session 2 closed), checkpointed at `snapshot_every` with
    /// the sync step after every batch, frozen; and the layer and mirror
    /// the uninterrupted run holds.
    fn sessions_in_one_segment(
        dir: &Path,
        snapshot_every: u64,
        sessions: u64,
    ) -> (PlacementLayer, DurableMeta) {
        let mut layer = layer_of(2);
        let d = start(dir, snapshot_every, false, &layer);
        for session in 1..=sessions {
            d.append_batch(&open_session(&mut layer, session), || layer.snapshot());
            d.sync_checkpoint();
            for record in session_meta(session) {
                d.append_meta(&record);
            }
            if session == 2 {
                d.append_meta(&WalRecord::SessionClosed { session: 2 });
            }
        }
        d.freeze();
        assert_eq!(d.io_errors(), 0);
        (layer, d.meta())
    }

    /// A crash after any step of a checkpoint, or of a roll and the
    /// checkpoint after it, recovers the state of the run that was never
    /// interrupted. The directory of each step is built by hand, from the
    /// public helpers, in the order `checkpoint` and `roll_if_full` work.
    #[test]
    fn every_step_of_a_checkpoint_leaves_a_recoverable_directory() {
        let dir = tmpdir("steps");
        let (mut layer, mut meta) = sessions_in_one_segment(&dir, u64::MAX, 3);
        // What the uninterrupted run holds when the cadence comes due.
        let want = state_of(&layer, &meta);
        assert_eq!(recovered_state(&dir), want, "before the checkpoint");
        let slot = |dir: &Path| recover_dir(dir).unwrap().slot;
        assert_eq!(slot(&dir), 0, "the genesis anchor is in slot 0");

        // 1. The anchor is the open segment's end.
        let end = seg_len(&dir, 0);
        let snap = |layer: &PlacementLayer, meta: &DurableMeta, segment, offset| DurableSnapshot {
            epoch: 0,
            segment,
            offset,
            placement: layer.snapshot(),
            meta: meta.clone(),
        };
        let image = slot_image(&snap(&layer, &meta, 0, end));
        // 2. Slot 1 is overwritten in place, torn at half, then whole but
        //    not synced: a torn slot fails its checksum and recovery
        //    replays segment 0 whole from slot 0; a whole one replays it
        //    from its end, which is nothing.
        overwrite_slot(&dir, 1, &image[..image.len() / 2]);
        assert_eq!(recovered_state(&dir), want, "slot torn at half");
        assert_eq!(slot(&dir), 0);
        overwrite_slot(&dir, 1, &image);
        assert_eq!(recovered_state(&dir), want, "slot written, not synced");
        assert_eq!(slot(&dir), 1);
        // 3. Slot 1 is written and synced.
        let mut slots = SnapshotSlots::open(&dir, 1).expect("open slots");
        slots.write(&snap(&layer, &meta, 0, end)).expect("slot 1");
        slots.sync().expect("sync slot 1");
        assert_eq!(recovered_state(&dir), want, "slot synced");
        // 4. Nothing below segment 0 to unlink: the checkpoint is done,
        //    no file created or unlinked.
        assert_eq!(files(&dir), slots_and(&[0]));

        // A power failure loses segment 0's unsynced tail, cutting it below
        // the anchor's offset: the anchor holds all of it, and there is
        // nothing to replay.
        let segment_0 = std::fs::read(wal::segment_path(&dir, 0)).unwrap();
        for cut in [end - 1, end / 2, 0] {
            std::fs::write(wal::segment_path(&dir, 0), &segment_0[..cut as usize]).unwrap();
            assert_eq!(recovered_state(&dir), want, "segment 0 cut to {cut} bytes");
        }
        std::fs::write(wal::segment_path(&dir, 0), &segment_0).unwrap();

        // The roll: an append finds segment 0 full, syncs it, creates
        // segment 1 and appends there. Recovery from slot 1 replays the
        // nothing left of segment 0 and then segment 1.
        let mut next = SegmentWriter::create(&dir, 1).expect("segment 1");
        assert_eq!(recovered_state(&dir), want, "segment 1 created, empty");
        let batch = open_session(&mut layer, 4);
        meta.apply(&session_meta(4)[0]);
        let want = state_of(&layer, &meta);
        next.append_batch(&batch, Some(&session_meta(4)[0]))
            .expect("append");
        assert_eq!(recovered_state(&dir), want, "segment 1 appended");
        // The next checkpoint anchors segment 1's end in slot 0, then
        // unlinks segment 0.
        let end = seg_len(&dir, 1);
        let image = slot_image(&snap(&layer, &meta, 1, end));
        overwrite_slot(&dir, 0, &image[..image.len() / 2]);
        assert_eq!(
            (recovered_state(&dir), slot(&dir)),
            (want.clone(), 1),
            "slot 0 torn"
        );
        slots.write(&snap(&layer, &meta, 1, end)).expect("slot 0");
        slots.sync().expect("sync slot 0");
        assert_eq!(
            (recovered_state(&dir), slot(&dir)),
            (want.clone(), 0),
            "slot 0 synced"
        );
        std::fs::remove_file(wal::segment_path(&dir, 0)).unwrap();
        assert_eq!(recovered_state(&dir), want, "segment 0 unlinked");
        let last = recover_dir(&dir).unwrap().last_segment;
        assert_eq!((files(&dir), last, slot(&dir)), (slots_and(&[1]), 1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Recovery replays the anchored segment from the anchor's offset: the
    /// frames before it are in the snapshot, and folding them in again
    /// would count every session they route twice.
    #[test]
    fn recovery_replays_from_the_anchored_offset() {
        let dir = tmpdir("from-offset");
        let (layer, meta) = sessions_in_one_segment(&dir, 2, 3);
        let (slot, anchor) = (1, anchor_of(&dir, 1).unwrap());
        assert!(anchor.1 > 0 && anchor.1 < seg_len(&dir, 0), "{anchor:?}");
        let rec = recover_dir(&dir).expect("recover");
        assert_eq!((rec.slot, rec.last_segment), (slot, 0));
        assert!(rec.issues.is_empty(), "{:?}", rec.issues);
        assert_eq!(state_of(&rec.layer, &rec.meta), state_of(&layer, &meta));
        assert_eq!(rec.layer.stats().sessions_routed, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash tears an append behind an anchor inside the segment. The
    /// torn tail's offset counts from the start of the file — where it is
    /// cut — so the cut keeps every acknowledged frame after the anchor;
    /// counted from the anchor, the cut would land below it and drop them.
    #[test]
    fn a_torn_tail_behind_an_in_segment_anchor_is_cut_at_its_absolute_offset() {
        let dir = tmpdir("torn-behind");
        let (layer, meta) = sessions_in_one_segment(&dir, 2, 3);
        let want = state_of(&layer, &meta);
        let path = wal::segment_path(&dir, 0);
        let whole = seg_len(&dir, 0);
        let (_, anchor) = anchor_of(&dir, 1).unwrap();
        assert!(anchor > 0 && anchor < whole, "{anchor} of {whole}");
        let frame = wal::encode_frame(b"a frame the crash cut short");
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(&frame[..frame.len() - 3]).unwrap();
        let rec = recover_dir(&dir).expect("recover");
        assert_eq!(state_of(&rec.layer, &rec.meta), want);
        assert_eq!(
            rec.issues,
            [(
                0,
                WalIssue::TornTail {
                    offset: whole as usize
                }
            )]
        );
        let (k, issue) = &rec.issues[0];
        wal::truncate_torn_tail(&dir, *k, issue.offset() as u64).expect("cut");
        assert_eq!(seg_len(&dir, 0), whole, "cut where the torn frame starts");
        assert_eq!(recovered_state(&dir), want, "nothing acknowledged is lost");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Both slots anchor the one open segment: recovery loads the one at
    /// the higher offset, whichever slot holds it. A frame damaged between
    /// the two anchors then costs nothing; from the lower anchor, replay
    /// would stop there and lose the sessions after it.
    #[test]
    fn two_slots_in_one_segment_load_the_higher_offset() {
        for sessions in [5, 7] {
            let dir = tmpdir(&format!("higher-{sessions}"));
            let (layer, meta) = sessions_in_one_segment(&dir, 2, sessions);
            let anchors = [anchor_of(&dir, 0).unwrap(), anchor_of(&dir, 1).unwrap()];
            let higher = usize::from(anchors[1] > anchors[0]);
            assert_eq!(higher, usize::from(sessions == 7), "{anchors:?}");
            let (lower, higher_at) = (anchors[higher ^ 1].1, anchors[higher].1);
            assert!(anchors.iter().all(|a| a.0 == 0) && lower < higher_at);
            let path = wal::segment_path(&dir, 0);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[lower as usize + wal::FRAME_HEADER_LEN + 1] ^= 0x10;
            std::fs::write(&path, bytes).unwrap();
            let rec = recover_dir(&dir).expect("recover");
            assert_eq!(rec.slot, higher, "{sessions} sessions: {anchors:?}");
            assert!(rec.issues.is_empty(), "{:?}", rec.issues);
            assert_eq!(state_of(&rec.layer, &rec.meta), state_of(&layer, &meta));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A slot whose checksum holds but whose anchor does not: a header
    /// offset the body disagrees with falls back to the other slot; an
    /// offset past the end of the segment replays nothing; one in the
    /// middle of a frame replays nothing either, and says so with a
    /// `Corrupt` issue. Never a panic.
    #[test]
    fn a_hostile_anchor_offset_falls_back_or_replays_nothing() {
        let dir = tmpdir("hostile-offset");
        let (layer, meta) = sessions_in_one_segment(&dir, 2, 3);
        let want = state_of(&layer, &meta);
        let (_, anchor) = anchor_of(&dir, 1).unwrap();
        let newest = load_slot(&std::fs::read(slot_path(&dir, 1)).unwrap()).unwrap();
        let at_anchor = state_of(
            &PlacementLayer::from_snapshot(newest.placement.clone()),
            &newest.meta,
        );
        assert_ne!(at_anchor, want, "frames follow the anchor");
        let good = std::fs::read(slot_path(&dir, 1)).unwrap();
        let recover = |image: &[u8]| {
            std::fs::write(slot_path(&dir, 1), image).unwrap();
            recover_dir(&dir).expect("recover")
        };
        // The header anchors one byte on; the body does not.
        let mut image = slot_image(&newest);
        image[24..32].copy_from_slice(&(anchor + 1).to_le_bytes());
        let rec = recover(&image);
        assert_eq!(rec.slot, 0, "the body's offset disagrees: fallback");
        assert_eq!(state_of(&rec.layer, &rec.meta), want);
        for past in [seg_len(&dir, 0), seg_len(&dir, 0) + 1, 1 << 40, u64::MAX] {
            let rec = recover(&slot_image(&DurableSnapshot {
                offset: past,
                ..newest.clone()
            }));
            assert_eq!(rec.slot, 1, "{past}");
            assert!(rec.issues.is_empty(), "{past}: {:?}", rec.issues);
            assert_eq!(state_of(&rec.layer, &rec.meta), at_anchor, "{past}");
        }
        let inside = anchor + 1;
        let rec = recover(&slot_image(&DurableSnapshot {
            offset: inside,
            ..newest.clone()
        }));
        assert_eq!(rec.slot, 1);
        assert!(
            matches!(&rec.issues[..], [(0, WalIssue::Corrupt { offset, .. })] if *offset as u64 == inside),
            "{:?}",
            rec.issues
        );
        assert_eq!(state_of(&rec.layer, &rec.meta), at_anchor);
        recover(&good);
        assert_eq!(recovered_state(&dir), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Across a roll under `keep_all`, with the newest slot torn, recovery
    /// loads the other slot, anchored in segment 0, and replays the rest
    /// of segment 0 and all of segment 1 to the live state.
    #[test]
    fn a_torn_slot_falls_back_to_the_other_and_replays_both_segments() {
        let dir = tmpdir("torn-slot");
        let (layer, meta, older) = across_a_roll(&dir, true);
        let want = state_of(&layer, &meta);
        assert!(older < seg_len(&dir, 0), "waves follow slot 1's anchor");
        assert_eq!(recovered_state(&dir), want);
        // Slot 0's body loses a byte in its middle, as an overwrite the
        // power failed under would leave it.
        let mut bytes = std::fs::read(slot_path(&dir, 0)).unwrap();
        bytes[snapshot::SLOT_HEADER_LEN + 40] ^= 0x20;
        overwrite_slot(&dir, 0, &bytes);
        assert_eq!(anchor_of(&dir, 0), None, "the torn slot fails its checksum");
        let rec = recover_dir(&dir).expect("recover");
        assert_eq!((rec.slot, rec.last_segment), (1, 1));
        assert!(rec.issues.is_empty(), "{:?}", rec.issues);
        assert_eq!(
            state_of(&rec.layer, &rec.meta),
            want,
            "segment 0 from slot 1's offset, and segment 1, replayed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Compacting, the checkpoint after a roll unlinks segment 0, which the
    /// older slot anchors. With the newest slot torn, recovery must not
    /// replay segment 1 over that hole: it is a typed error naming both
    /// slots' faults.
    #[test]
    fn a_slot_whose_segment_was_unlinked_is_never_replayed_over_the_hole() {
        let dir = tmpdir("cut");
        let (layer, meta, _) = across_a_roll(&dir, false);
        assert_eq!(
            files(&dir),
            slots_and(&[1]),
            "the checkpoint unlinked segment 0"
        );
        assert_eq!(recovered_state(&dir), state_of(&layer, &meta));
        let mut bytes = std::fs::read(slot_path(&dir, 0)).unwrap();
        bytes[snapshot::SLOT_HEADER_LEN + 10] ^= 1;
        overwrite_slot(&dir, 0, &bytes);
        let why = recover_dir(&dir).expect_err("no usable anchor").to_string();
        assert!(why.contains("snap-0.slot: slot checksum mismatch"), "{why}");
        assert!(
            why.contains("snap-1.slot: anchors segment 0, which is gone"),
            "{why}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint whose slot write fails before a byte went out, or
    /// whose sync step fails after the whole anchor did, leaves appends
    /// where they were, behind the offset that slot may name: recovery
    /// from either slot replays them. Each failure is counted, the next
    /// cadence writes the same slot and its sync succeeds, and recovery
    /// sees the live state throughout. The sync step runs after every
    /// batch, as a heartbeat between them would.
    #[test]
    fn a_failed_checkpoint_is_counted_and_retried_at_the_next_cadence() {
        for blocked in ["slot", "sync"] {
            let dir = tmpdir(&format!("retry-{blocked}"));
            let mut layer = layer_of(1);
            let d = start(&dir, 2, false, &layer);
            let jam = |jammed| match blocked {
                "slot" => d.inner.lock().slots.jam(&dir, 1, jammed).unwrap(),
                _ => d.inner.lock().slots.fail_sync = jammed,
            };
            jam(true);
            let mut anchor = 0;
            for session in 1..=3 {
                let batch = open_session(&mut layer, session);
                d.append_batch(&batch, || layer.snapshot());
                d.sync_checkpoint();
                if session == 2 {
                    anchor = seg_len(&dir, 0);
                }
                d.append_meta(&session_meta(session)[0]);
            }
            let live = |layer: &PlacementLayer| state_of(layer, &d.meta());
            assert_eq!(d.io_errors(), 1, "{blocked}: the cadence at batch 2 failed");
            let slot_1 = (blocked == "sync").then_some((0, anchor));
            assert_eq!(
                (files(&dir), anchor_of(&dir, 1)),
                (slots_and(&[0]), slot_1),
                "{blocked}"
            );
            jam(false);
            // The crash comes here, sessions appended behind the anchor.
            assert_eq!(
                recovered_state(&dir),
                live(&layer),
                "{blocked}: as it stands"
            );
            if blocked == "sync" {
                assert_eq!(recover_dir(&dir).unwrap().slot, 1);
                // Torn instead, slot 1 leaves slot 0 and all of segment 0.
                let good = std::fs::read(slot_path(&dir, 1)).unwrap();
                let mut torn = good.clone();
                torn[snapshot::SLOT_HEADER_LEN + 5] ^= 0x08;
                overwrite_slot(&dir, 1, &torn);
                assert_eq!(recovered_state(&dir), live(&layer), "sync: slot 1 torn");
                assert_eq!(recover_dir(&dir).unwrap().slot, 0);
                overwrite_slot(&dir, 1, &good);
            }
            // Batch 4 is the next cadence, into slot 1 again.
            let batch = open_session(&mut layer, 4);
            d.append_batch(&batch, || layer.snapshot());
            d.sync_checkpoint();
            let end = seg_len(&dir, 0);
            assert_eq!(
                (d.io_errors(), files(&dir), anchor_of(&dir, 1)),
                (1, slots_and(&[0]), Some((0, end))),
                "{blocked}"
            );
            let rec = recover_dir(&dir).unwrap();
            assert_eq!((rec.last_segment, rec.slot), (0, 1));
            assert_eq!(recovered_state(&dir), live(&layer), "{blocked}");
            // Synced, slot 1 is the anchor at last: the cadence after it
            // writes slot 0.
            for session in 5..=6 {
                let batch = open_session(&mut layer, session);
                d.append_batch(&batch, || layer.snapshot());
            }
            let anchors = (anchor_of(&dir, 0), anchor_of(&dir, 1));
            let at = seg_len(&dir, 0);
            assert_eq!(anchors, (Some((0, at)), Some((0, end))), "{blocked}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Slot 1 written at the cadence, its sync pending, and appends past
    /// its offset, across a roll: nothing is unlinked before the sync, so
    /// a crash recovers the live state from slot 1 as written, or, with it
    /// torn, from slot 0 and the rest of segment 0. The sync makes slot 1
    /// the anchor, and only then goes segment 0.
    #[test]
    fn a_pending_slot_and_the_appends_past_it_recover_from_either_slot() {
        let dir = tmpdir("pending");
        let (d, mut layer, older, next) = a_roll_with_a_sync_pending(&dir, false);
        let anchored = seg_len(&dir, 1);
        wave(&d, &mut layer, next);
        d.append_meta(&session_meta(6)[0]);
        let want = state_of(&layer, &d.meta());
        assert!(seg_len(&dir, 1) > anchored, "appends past the anchor");
        assert_eq!(files(&dir), slots_and(&[0, 1]), "nothing unlinked yet");
        assert_eq!(
            (anchor_of(&dir, 0), anchor_of(&dir, 1)),
            (Some((1, anchored)), Some((0, older)))
        );
        let slot = |dir: &Path| recover_dir(dir).unwrap().slot;
        assert_eq!(recovered_state(&dir), want, "slot 0 as written");
        assert_eq!(slot(&dir), 0);
        let good = std::fs::read(slot_path(&dir, 0)).unwrap();
        let mut torn = good.clone();
        torn[snapshot::SLOT_HEADER_LEN + 9] ^= 0x04;
        overwrite_slot(&dir, 0, &torn);
        assert_eq!(recovered_state(&dir), want, "slot 0 torn");
        assert_eq!(slot(&dir), 1);
        overwrite_slot(&dir, 0, &good);
        d.sync_checkpoint();
        assert_eq!(files(&dir), slots_and(&[1]), "unlinked after the sync");
        assert_eq!(recovered_state(&dir), want);
        assert_eq!(slot(&dir), 0);
        d.freeze();
        assert_eq!(d.io_errors(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint that comes due while the last slot awaits its sync
    /// waits for the first batch after the sync: the other slot, the only
    /// synced anchor, is never written meanwhile, so both slots are never
    /// unsynced at once; nor is the pending slot written again. The sync
    /// makes it the anchor, and the deferred checkpoint writes the other.
    #[test]
    fn a_checkpoint_due_while_a_sync_is_pending_waits_for_it() {
        let dir = tmpdir("deferred");
        let mut layer = layer_of(1);
        let d = start(&dir, 2, false, &layer);
        let feed = |layer: &mut PlacementLayer, sessions: std::ops::RangeInclusive<u64>| {
            for session in sessions {
                d.append_batch(&open_session(layer, session), || layer.snapshot());
            }
        };
        feed(&mut layer, 1..=2);
        let pending = seg_len(&dir, 0);
        let genesis = std::fs::read(slot_path(&dir, 0)).unwrap();
        feed(&mut layer, 3..=8);
        assert_eq!(
            std::fs::read(slot_path(&dir, 0)).unwrap(),
            genesis,
            "three cadences came due; the synced slot is untouched"
        );
        assert_eq!(anchor_of(&dir, 1), Some((0, pending)));
        assert_eq!(d.inner.lock().pending, Some(0));
        let live = state_of(&layer, &d.meta());
        assert_eq!(recovered_state(&dir), live, "from slot 1 as written");
        d.sync_checkpoint();
        assert_eq!(d.inner.lock().pending, None);
        feed(&mut layer, 9..=9);
        let anchors = (anchor_of(&dir, 0), anchor_of(&dir, 1));
        let at = seg_len(&dir, 0);
        assert_eq!(anchors, (Some((0, at)), Some((0, pending))));
        assert_eq!(d.inner.lock().pending, Some(0));
        assert_eq!(recovered_state(&dir), state_of(&layer, &d.meta()));
        d.freeze();
        assert_eq!(d.io_errors(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A freeze while the sync step is under way — between taking the
    /// pending slot and reporting its sync — syncs the slot itself, and the
    /// step then changes nothing: no segment is unlinked after the
    /// freeze, and a later step finds nothing to do.
    #[test]
    fn a_freeze_during_the_sync_step_unlinks_nothing_after_it() {
        let dir = tmpdir("freeze-sync");
        let (d, layer, older, _) = a_roll_with_a_sync_pending(&dir, false);
        let want = state_of(&layer, &d.meta());
        let anchored = seg_len(&dir, 1);
        let slot = d.begin_sync().expect("a slot awaits its sync");
        d.freeze();
        d.end_sync(slot.sync_data());
        d.sync_checkpoint();
        assert_eq!(files(&dir), slots_and(&[0, 1]), "nothing unlinked");
        assert_eq!(
            (anchor_of(&dir, 0), anchor_of(&dir, 1)),
            (Some((1, anchored)), Some((0, older)))
        );
        assert_eq!(recovered_state(&dir), want);
        assert_eq!(d.io_errors(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A roll that cannot create its segment changes nothing: appends go
    /// on in the open segment, each append tries again (and counts its
    /// failure), and the first that can, rolls.
    #[test]
    fn a_roll_that_cannot_create_its_segment_appends_on_in_the_open_one() {
        let dir = tmpdir("roll-jam");
        let mut layer = layer_of(1);
        let d = start(&dir, u64::MAX, false, &layer);
        // A directory where the roll wants a file: open fails.
        std::fs::create_dir(wal::segment_path(&dir, 1)).unwrap();
        let mut next = 0;
        while d.inner.lock().writer.written() < SEGMENT_BYTES {
            wave(&d, &mut layer, next);
            next += 1;
        }
        assert_eq!(d.io_errors(), 0);
        wave(&d, &mut layer, next);
        assert_eq!((d.io_errors(), d.inner.lock().segment), (2, 0));
        std::fs::remove_dir(wal::segment_path(&dir, 1)).unwrap();
        wave(&d, &mut layer, next + 1);
        assert_eq!((d.io_errors(), d.inner.lock().segment), (2, 1));
        d.freeze();
        assert_eq!(
            files(&dir),
            slots_and(&[0, 1]),
            "unlinked at the next checkpoint"
        );
        let rec = recover_dir(&dir).expect("recover");
        assert!(rec.issues.is_empty(), "{:?}", rec.issues);
        assert_eq!(
            rec.layer.stats().sessions_routed,
            layer.stats().sessions_routed
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `start` sweeps what a crashed incarnation left below its anchor;
    /// `keep_all` keeps it. A second start writes the slot the first did
    /// not.
    #[test]
    fn start_compacts_below_its_anchor() {
        for keep_all in [false, true] {
            let dir = tmpdir("sweep");
            let layer = layer_of(1);
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
            assert_eq!(
                (anchor_of(&dir, 0), anchor_of(&dir, 1)),
                (Some((0, 0)), Some((3, 0)))
            );
            assert_eq!(recover_dir(&dir).unwrap().last_segment, 3);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn frozen_durability_drops_appends() {
        let dir = tmpdir("frozen");
        let layer = layer_of(1);
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
