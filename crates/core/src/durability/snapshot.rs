//! Durable snapshots: periodic checkpoints that bound WAL replay.
//!
//! A [`DurableSnapshot`] pairs the placement layer's complete serialized
//! state ([`PlacementSnapshot`]) with the daemon-side session metadata
//! ([`DurableMeta`]) that lives *outside* the event-sourced core: who owns
//! which session, the slate→device pointer map, and the launch-id
//! watermarks behind client-side idempotent resumption.
//!
//! A snapshot anchors a position in the log, `(segment k, byte offset)`:
//! it captures the state as of that byte of WAL segment `k`, and recovery
//! loads the highest readable anchor and replays only from there — the
//! rest of segment `k` from the offset on, then the segments after it.
//! Snapshots live in two fixed slot files, `snap-0.slot` and
//! `snap-1.slot` ([`SnapshotSlots`]). A checkpoint overwrites the slot that
//! does *not* hold the current anchor, in place from offset 0, and a later
//! step `sync_data`s it, which only then makes it the current anchor — no
//! temp file, no rename, no unlink. A crash mid-write tears that slot,
//! which then fails its checksum, and the other slot still holds the
//! previous anchor:
//!
//! ```text
//! ┌───────────┬─────────────┬─────────┬─────────────┬─────────────┬──────────┬───────────────────┐
//! │ magic 8 B │ version u32 │ crc u32 │ segment u64 │ offset u64  │ len u64  │ binary body (len) │ zeros…
//! │ "SLATESNP"│ 4, LE       │ of body │ anchored    │ within it   │ of body  │ DurableSnapshot   │
//! └───────────┴─────────────┴─────────┴─────────────┴─────────────┴──────────┴───────────────────┘
//! ```
//!
//! The body is the [`DurableSnapshot`] in the binary codec of [`codec`]
//! ([`codec::encode_snapshot`]). The header's version is the one version
//! of the slot, header and body alike: this build reads version 4 only.
//! A slot file only grows, in whole 4 KiB pages, so a steady-state
//! overwrite changes no file metadata and its `fdatasync` commits no
//! journal transaction. A snapshot that fails to load at recovery time is
//! skipped in favour of the other slot (with more replay).
//!
//! A snapshot is written under the arbiter lock (`DESIGN.md` §16), so its
//! size is serving latency. The placement state is bounded by the fleet
//! and its live leases; the metadata is kept bounded by holding the open
//! sessions only — [`DurableMeta::apply`] removes a session when it
//! closes.

use super::codec;
use super::wal::{crc32, WalRecord};
use crate::placement::PlacementSnapshot;
use slate_kernels::workload::SloClass;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First bytes of every snapshot slot.
const SLOT_MAGIC: [u8; 8] = *b"SLATESNP";

/// The slot's version, the only one written or read. Bumped on any
/// incompatible change to the header or the [`DurableSnapshot`] body;
/// a slot of any other version is a typed `InvalidData` error.
const SLOT_VERSION: u32 = 4;

/// Bytes of slot header ahead of the body: magic, version, CRC-32,
/// anchored segment, offset within it, body length.
pub const SLOT_HEADER_LEN: usize = 40;

/// A slot file grows in whole pages of this many bytes.
const SLOT_PAGE: u64 = 4096;

/// One device allocation, as mirrored into durable metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocMeta {
    /// Backing device pointer (raw address word).
    pub device_ptr: u64,
    /// Allocation size in bytes.
    pub bytes: u64,
}

/// Durable per-session metadata: everything a resumed client needs the
/// daemon to still know after a crash.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionMeta {
    /// The connecting user (re-admission accounting).
    pub user: String,
    /// The session's declared SLO class; recovery re-declares it ahead
    /// of the resumed session's replayed work.
    pub slo: SloClass,
    /// Next slate pointer to hand out — a watermark kept strictly above
    /// every pointer ever returned, so resumed sessions never recycle
    /// a pointer the client may still hold.
    pub next_ptr: u64,
    /// Live allocations: slate pointer → device mapping.
    pub allocs: BTreeMap<u64, AllocMeta>,
    /// Admitted launches: launch id → lease. Replayed launches at or
    /// below the watermark are deduplicated against this.
    pub admitted: BTreeMap<u64, u64>,
    /// Completed launch ids.
    pub done: BTreeSet<u64>,
}

/// Daemon-side durable metadata, mirrored on every WAL append and
/// serialized whole into each snapshot — so it holds the *open* sessions
/// only, and a checkpoint costs what they cost however many have come and
/// gone.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DurableMeta {
    /// Next session id the daemon will assign. Never regresses, which is
    /// what keeps ids unique once closed sessions are forgotten.
    pub next_session: u64,
    /// Per-session records of the open sessions.
    pub sessions: BTreeMap<u64, SessionMeta>,
}

impl DurableMeta {
    /// Folds one WAL record into the mirror — the same transition applied
    /// live on append and again during recovery replay, so the two always
    /// agree. Only `SessionMeta` creates a session and `SessionClosed`
    /// removes it ([`SlateDaemon::resume`](crate::daemon::SlateDaemon::resume)
    /// refuses a closed session, so nothing can name one again); a record
    /// for a session not in the mirror — a launch completing after its
    /// client was reaped, say — is ignored rather than resurrecting it.
    pub fn apply(&mut self, record: &WalRecord) {
        match record {
            WalRecord::Batch { .. } | WalRecord::Epoch { .. } => {}
            WalRecord::SessionMeta { session, user, slo } => {
                let s = self.sessions.entry(*session).or_default();
                s.user = user.clone();
                s.slo = *slo;
                s.next_ptr = s.next_ptr.max(*session << 32);
                self.next_session = self.next_session.max(*session + 1);
            }
            WalRecord::SessionClosed { session } => {
                self.sessions.remove(session);
            }
            WalRecord::Alloc {
                session,
                slate_ptr,
                device_ptr,
                bytes,
            } => {
                if let Some(s) = self.sessions.get_mut(session) {
                    s.allocs.insert(
                        *slate_ptr,
                        AllocMeta {
                            device_ptr: *device_ptr,
                            bytes: *bytes,
                        },
                    );
                    s.next_ptr = s.next_ptr.max(*slate_ptr + 1);
                }
            }
            WalRecord::Free { session, slate_ptr } => {
                if let Some(s) = self.sessions.get_mut(session) {
                    s.allocs.remove(slate_ptr);
                }
            }
            WalRecord::LaunchAdmitted {
                session,
                launch_id,
                lease,
            } => {
                if let Some(s) = self.sessions.get_mut(session) {
                    s.admitted.insert(*launch_id, *lease);
                }
            }
            WalRecord::LaunchDone { session, launch_id } => {
                if let Some(s) = self.sessions.get_mut(session) {
                    s.done.insert(*launch_id);
                }
            }
        }
    }
}

/// One complete checkpoint: placement state plus session metadata, tagged
/// with the epoch and the log position it anchors.
#[derive(Debug, Clone)]
pub struct DurableSnapshot {
    /// Recovery epoch the writing daemon ran in.
    pub epoch: u64,
    /// WAL segment this snapshot anchors: recovery replays it from
    /// `offset` on, then every later segment, on top of this state.
    pub segment: u64,
    /// Byte of `segment` the state is captured at: the frames before it
    /// are in the snapshot.
    pub offset: u64,
    /// The placement layer, whole.
    pub placement: PlacementSnapshot,
    /// Daemon-side session metadata.
    pub meta: DurableMeta,
}

fn invalid(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// Path of snapshot slot `slot` (0 or 1) under `dir`.
pub fn slot_path(dir: &Path, slot: usize) -> PathBuf {
    dir.join(format!("snap-{slot}.slot"))
}

/// Appends the slot image of `snap` to `out`: the header, anchoring the
/// position `snap` names, then its body, encoded in place behind the
/// header, whose checksum and length the header then takes. Builds no
/// intermediate buffer.
pub fn encode_slot(snap: &DurableSnapshot, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&SLOT_MAGIC);
    out.extend_from_slice(&SLOT_VERSION.to_le_bytes());
    out.extend_from_slice(&[0; 4]); // the body's CRC, below
    out.extend_from_slice(&snap.segment.to_le_bytes());
    out.extend_from_slice(&snap.offset.to_le_bytes());
    out.extend_from_slice(&[0; 8]); // the body's length, below
    let body = start + SLOT_HEADER_LEN;
    codec::encode_snapshot(snap, out);
    let crc = crc32(&out[body..]);
    let len = (out.len() - body) as u64;
    out[start + 12..start + 16].copy_from_slice(&crc.to_le_bytes());
    out[start + 32..body].copy_from_slice(&len.to_le_bytes());
}

/// Validates a slot image and returns the position it anchors,
/// `(segment, offset)`, and its body. Total: a short or foreign header,
/// another version, a length past the end of the bytes and a checksum
/// mismatch (a torn overwrite) are each a typed `InvalidData` error, never
/// a panic.
pub fn decode_slot(bytes: &[u8]) -> io::Result<((u64, u64), &[u8])> {
    if bytes.len() < SLOT_HEADER_LEN {
        return Err(invalid(format!(
            "not a snapshot slot: truncated header, {} of {SLOT_HEADER_LEN} bytes",
            bytes.len()
        )));
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let long = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    if bytes[..8] != SLOT_MAGIC {
        return Err(invalid("not a snapshot slot: bad magic".into()));
    }
    let version = word(8);
    if version != SLOT_VERSION {
        return Err(invalid(format!(
            "slot version {version} unsupported (this build reads {SLOT_VERSION})"
        )));
    }
    let (crc, segment, offset, len) = (word(12), long(16), long(24), long(32));
    let rest = &bytes[SLOT_HEADER_LEN..];
    let Some(body) = usize::try_from(len).ok().and_then(|n| rest.get(..n)) else {
        return Err(invalid(format!(
            "slot body length {len} runs past the end of the file ({} bytes follow the header)",
            rest.len()
        )));
    };
    let actual = crc32(body);
    if actual != crc {
        return Err(invalid(format!(
            "slot checksum mismatch: header says {crc:#010x}, body is {actual:#010x}"
        )));
    }
    Ok(((segment, offset), body))
}

/// Loads and validates a slot image (see [`decode_slot`]) whose body is a
/// [`DurableSnapshot`] anchoring the position its header names.
pub(crate) fn load_slot(bytes: &[u8]) -> io::Result<DurableSnapshot> {
    let ((segment, offset), body) = decode_slot(bytes)?;
    let snap = codec::decode_snapshot(body)?;
    if (snap.segment, snap.offset) != (segment, offset) {
        return Err(invalid(format!(
            "slot header anchors segment {segment} at offset {offset}, its body segment {} at offset {}",
            snap.segment, snap.offset
        )));
    }
    Ok(snap)
}

/// The two snapshot slots of a durability directory, open for
/// overwriting. A checkpoint is two steps: [`SnapshotSlots::write`] puts
/// the image in the slot that does not hold the current anchor, and the
/// sync — `SnapshotSlots::sync`, or the file from
/// `SnapshotSlots::file` synced by a caller holding no lock, then
/// `SnapshotSlots::synced` — makes it the current anchor. Until that
/// sync returns, every write goes to the same slot, so the slot holding
/// the current anchor is never the one being written.
#[derive(Debug)]
pub struct SnapshotSlots {
    files: [Arc<fs::File>; 2],
    /// Each file's length: a write that fits changes no metadata.
    lens: [u64; 2],
    /// The slot the next write goes to: the one not holding the anchor.
    next: usize,
    /// The slot image under construction, kept at its high-water capacity.
    image: Vec<u8>,
    /// Fails each sync once its `sync_data` has run: the slot then holds
    /// a valid anchor nothing synced.
    #[cfg(test)]
    pub(crate) fail_sync: bool,
}

impl SnapshotSlots {
    /// Opens both slot files under `dir`, creating either that is absent
    /// (a new directory entry: the caller syncs the directory). The first
    /// [`SnapshotSlots::write`] goes to slot `next`; the other slot is the
    /// one left untouched, so it must be the slot holding the anchor a
    /// crash would recover from.
    pub fn open(dir: &Path, next: usize) -> io::Result<Self> {
        let open = |slot| {
            fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(slot_path(dir, slot))
                .map(Arc::new)
        };
        let files = [open(0)?, open(1)?];
        let lens = [files[0].metadata()?.len(), files[1].metadata()?.len()];
        Ok(Self {
            files,
            lens,
            next: next & 1,
            image: Vec::new(),
            #[cfg(test)]
            fail_sync: false,
        })
    }

    /// Overwrites the slot not holding the current anchor with `snap`,
    /// from offset 0, and does not sync it: the slot stays the one written
    /// to, whatever the outcome, until a sync succeeds. A failed write may
    /// still leave the whole new anchor in the slot — the padding failed
    /// after the body went out — so the caller must keep the log
    /// recoverable from either slot.
    pub fn write(&mut self, snap: &DurableSnapshot) -> io::Result<()> {
        self.image.clear();
        encode_slot(snap, &mut self.image);
        let need = self.image.len() as u64;
        if need > self.lens[self.next] {
            // Grow by whole pages, zero-filled, so the next overwrites fit.
            self.image
                .resize(need.div_ceil(SLOT_PAGE) as usize * SLOT_PAGE as usize, 0);
        }
        let mut file = &*self.files[self.next];
        file.seek(io::SeekFrom::Start(0))?;
        file.write_all(&self.image)
    }

    /// The file [`SnapshotSlots::write`] goes to, for a caller to
    /// `sync_data` without holding what guards the slots; it reports the
    /// outcome to [`SnapshotSlots::synced`].
    pub(crate) fn file(&self) -> Arc<fs::File> {
        self.files[self.next].clone()
    }

    /// Takes the outcome of syncing the slot last written. On success that
    /// slot holds the anchor and the next write goes to the other; on
    /// failure the next write goes to the same slot again, and the other
    /// still holds the anchor.
    pub(crate) fn synced(&mut self, synced: io::Result<()>) -> io::Result<()> {
        #[cfg(test)]
        if self.fail_sync {
            return Err(io::Error::other("injected: sync_data failed"));
        }
        synced?;
        let slot = self.next;
        self.lens[slot] = self.lens[slot].max(self.image.len() as u64);
        self.next = slot ^ 1;
        Ok(())
    }

    /// Syncs the slot last written, in place: [`SnapshotSlots::file`]'s
    /// `sync_data`, then [`SnapshotSlots::synced`].
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        let synced = self.files[self.next].sync_data();
        self.synced(synced)
    }

    /// Reopens slot `slot` under `dir` read-only, so that writing it
    /// fails (`jammed`), or for writing again.
    #[cfg(test)]
    pub(crate) fn jam(&mut self, dir: &Path, slot: usize, jammed: bool) -> io::Result<()> {
        let file = fs::OpenOptions::new()
            .read(true)
            .write(!jammed)
            .open(slot_path(dir, slot))?;
        self.files[slot] = Arc::new(file);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_mirror_tracks_sessions_allocs_and_launches() {
        let mut m = DurableMeta::default();
        m.apply(&WalRecord::SessionMeta {
            session: 3,
            user: "alice".into(),
            slo: SloClass::LatencyCritical,
        });
        assert_eq!(m.next_session, 4);
        assert_eq!(m.sessions[&3].next_ptr, 3u64 << 32);
        m.apply(&WalRecord::Alloc {
            session: 3,
            slate_ptr: (3u64 << 32) + 5,
            device_ptr: 0x1000_0100,
            bytes: 64,
        });
        assert_eq!(m.sessions[&3].next_ptr, (3u64 << 32) + 6);
        m.apply(&WalRecord::LaunchAdmitted {
            session: 3,
            launch_id: 1,
            lease: (3 << 16) | 1,
        });
        m.apply(&WalRecord::LaunchDone {
            session: 3,
            launch_id: 1,
        });
        assert!(m.sessions[&3].done.contains(&1));
        m.apply(&WalRecord::Free {
            session: 3,
            slate_ptr: (3u64 << 32) + 5,
        });
        assert!(m.sessions[&3].allocs.is_empty());
        // Watermark never regresses on free.
        assert_eq!(m.sessions[&3].next_ptr, (3u64 << 32) + 6);
        m.apply(&WalRecord::SessionClosed { session: 3 });
        assert!(m.sessions.is_empty(), "a closed session is removed");
        // A straggler's record does not bring it back, and its id is not
        // handed out again.
        m.apply(&WalRecord::LaunchDone {
            session: 3,
            launch_id: 2,
        });
        m.apply(&WalRecord::Alloc {
            session: 3,
            slate_ptr: (3u64 << 32) + 9,
            device_ptr: 0x1000_0200,
            bytes: 64,
        });
        assert!(m.sessions.is_empty());
        assert_eq!(m.next_session, 4);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "slate-{tag}-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn snapshot(devices: usize, segment: u64, meta: DurableMeta) -> DurableSnapshot {
        use crate::placement::{PlacementConfig, PlacementLayer};
        use slate_gpu_sim::device::DeviceConfig;
        let layer = PlacementLayer::new(
            vec![DeviceConfig::tiny(8); devices],
            PlacementConfig::default(),
        );
        DurableSnapshot {
            epoch: 2,
            segment,
            offset: 0,
            placement: layer.snapshot(),
            meta,
        }
    }

    /// Slots alternate at each sync, round-trip, and grow in whole pages,
    /// never shrink.
    #[test]
    fn snapshot_roundtrips_through_disk() {
        let dir = tmpdir("snap");
        let mut slots = SnapshotSlots::open(&dir, 1).expect("open");
        let read = |slot| load_slot(&fs::read(slot_path(&dir, slot)).unwrap());
        let len = |slot| fs::metadata(slot_path(&dir, slot)).unwrap().len();
        let session = SessionMeta {
            user: "u".repeat(100),
            ..SessionMeta::default()
        };
        let big = DurableMeta {
            next_session: 99,
            sessions: (1..=40).map(|s| (s, session.clone())).collect(),
        };
        let mut checkpoint = |snap: &DurableSnapshot| {
            slots.write(snap).expect("write");
            slots.sync().expect("sync");
        };
        checkpoint(&snapshot(2, 5, big));
        checkpoint(&snapshot(2, 6, DurableMeta::default()));
        let back = read(1).expect("load");
        assert_eq!((back.epoch, back.segment), (2, 5));
        let layer = crate::placement::PlacementLayer::from_snapshot(back.placement);
        assert_eq!(layer.devices(), 2);
        assert_eq!(back.meta.sessions.len(), 40);
        assert_eq!(read(0).expect("load").segment, 6);
        let grown = len(1);
        assert!(grown > 4096 && grown % 4096 == 0, "{grown}");
        checkpoint(&snapshot(2, 7, DurableMeta::default()));
        assert_eq!(read(1).expect("load").segment, 7);
        assert_eq!(len(1), grown, "a smaller anchor overwrites in place");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every header fault is a typed `InvalidData`, never a panic: the
    /// header cut short, a foreign magic or version, a length past the end
    /// of the bytes (up to `u64::MAX`), a checksum mismatch, and a header
    /// that names another segment or offset than its body.
    #[test]
    fn a_damaged_slot_header_is_a_typed_error() {
        let mut snap = snapshot(1, 4, DurableMeta::default());
        snap.offset = 96;
        let mut good = Vec::new();
        encode_slot(&snap, &mut good);
        let body_len = good.len() - SLOT_HEADER_LEN;
        good.extend_from_slice(&[0; 100]);
        let back = load_slot(&good).expect("the good image loads");
        assert_eq!((back.segment, back.offset), (4, 96));
        let patched = |at: usize, bytes: &[u8]| {
            let mut image = good.clone();
            image[at..at + bytes.len()].copy_from_slice(bytes);
            image
        };
        let cases: [(&str, Vec<u8>, &str); 10] = [
            ("empty", Vec::new(), "truncated"),
            ("short", good[..SLOT_HEADER_LEN - 1].to_vec(), "truncated"),
            ("magic", patched(0, b"SLATESNQ"), "bad magic"),
            ("version", patched(8, &5u32.to_le_bytes()), "version 5"),
            (
                "length",
                patched(32, &(body_len as u64 + 101).to_le_bytes()),
                "past the end",
            ),
            ("huge", patched(32, &u64::MAX.to_le_bytes()), "past the end"),
            (
                "crc",
                patched(SLOT_HEADER_LEN + 3, b"X"),
                "checksum mismatch",
            ),
            // The checksum covers the body only: a patched anchor keeps it.
            (
                "segment",
                patched(16, &5u64.to_le_bytes()),
                "anchors segment 5 at offset 96",
            ),
            (
                "offset",
                patched(24, &97u64.to_le_bytes()),
                "anchors segment 4 at offset 97",
            ),
            (
                "version 1",
                patched(8, &1u32.to_le_bytes()),
                "version 1 unsupported",
            ),
        ];
        for (name, image, why) in cases {
            let err = load_slot(&image).expect_err(name);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            assert!(err.to_string().contains(why), "{name}: {err}");
        }
    }
}
