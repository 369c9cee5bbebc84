//! The write-ahead log: length-framed, checksummed, corruption-tolerant.
//!
//! A WAL segment is an append-only stream of frames:
//!
//! ```text
//! ┌────────────┬────────────┬─────────────────────────┐
//! │ len  (u32) │ crc  (u32) │ payload (len bytes)     │   … repeated
//! │ little-end │ little-end │ format byte + record    │
//! └────────────┴────────────┴─────────────────────────┘
//! ```
//!
//! The payload is one [`WalRecord`] in the binary [`codec`] (format byte
//! `1`, the only format read). `crc` is the IEEE CRC-32 of the payload
//! bytes, which detects every single-bit error and any torn tail a crash
//! mid-`write` can leave. The reader ([`scan`]) walks frames until the
//! bytes stop making sense and then *stops* — it never panics and never
//! resyncs past a bad frame (frames are not self-delimiting, so anything
//! beyond the first bad byte is untrusted). What it saw, how far the log is provably valid, and why
//! it stopped all come back in a [`WalScan`]; recovery replays the prefix
//! and nothing after it — not the rest of this segment, not any later
//! segment (a log with a hole folds into a state that never existed).

use super::codec;
use crate::placement::PlacementBatch;
use slate_kernels::workload::SloClass;
use std::fs;
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};

/// Upper bound on a single frame's payload, protecting the reader from
/// allocating gigabytes off four corrupt length bytes.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Bytes of framing overhead per record (`len` + `crc`).
pub const FRAME_HEADER_LEN: usize = 8;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the byte-at-a-time table, and
/// `CRC_TABLES[s][b]` is the CRC of byte `b` followed by `s` zero bytes,
/// so eight table lookups fold eight bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut s = 1;
        while s < 8 {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            s += 1;
        }
        i += 1;
    }
    tables
}

/// IEEE CRC-32 (the zlib/PNG polynomial) of `data`, eight bytes per step:
/// a checkpoint checksums a whole snapshot body, which byte at a time
/// took four times as long.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One durable record. Everything the daemon must be able to reconstruct
/// after a crash is either in here or in a snapshot. Written in the
/// [`codec`].
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// One fed placement batch — events in, routed commands out. Replaying
    /// these through [`PlacementLayer::feed`](crate::placement::PlacementLayer::feed)
    /// reconstructs the arbitration state deterministically.
    Batch {
        /// The recorded batch.
        batch: PlacementBatch,
    },
    /// A session was opened by `user` and assigned id `session`.
    SessionMeta {
        /// Daemon-assigned session id.
        session: u64,
        /// The connecting user, for re-admission accounting.
        user: String,
        /// The session's declared SLO class.
        slo: SloClass,
    },
    /// The session disconnected cleanly.
    SessionClosed {
        /// The closed session.
        session: u64,
    },
    /// A device allocation succeeded and was mapped.
    Alloc {
        /// Owning session.
        session: u64,
        /// Client-visible slate pointer.
        slate_ptr: u64,
        /// Backing device pointer.
        device_ptr: u64,
        /// Allocation size.
        bytes: u64,
    },
    /// An allocation was freed.
    Free {
        /// Owning session.
        session: u64,
        /// The freed slate pointer.
        slate_ptr: u64,
    },
    /// A launch passed admission and entered execution. Replayed client
    /// launches with an id at or below the session's recorded watermark
    /// are duplicates and are acknowledged without re-execution.
    LaunchAdmitted {
        /// Owning session.
        session: u64,
        /// Client-assigned idempotency id.
        launch_id: u64,
        /// The lease it runs under.
        lease: u64,
    },
    /// The launch ran to completion (its effects are in device memory).
    LaunchDone {
        /// Owning session.
        session: u64,
        /// The completed launch.
        launch_id: u64,
    },
    /// A recovery epoch began: everything before this record was written
    /// by a previous daemon incarnation.
    Epoch {
        /// The new epoch number.
        epoch: u64,
    },
}

/// Why a scan stopped before the end of the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalIssue {
    /// The log ends mid-frame — the classic crash-during-append tail.
    /// Truncating at the reported offset loses nothing that was ever
    /// acknowledged.
    TornTail {
        /// Byte offset of the incomplete frame.
        offset: usize,
    },
    /// A complete-looking frame failed validation (checksum mismatch,
    /// absurd length, undecodable payload). Data *may* have been lost;
    /// recovery proceeds from the valid prefix and surfaces this.
    Corrupt {
        /// Byte offset of the bad frame.
        offset: usize,
        /// Human-readable cause.
        reason: String,
    },
}

impl WalIssue {
    /// Byte offset at which the log stopped being trustworthy.
    pub fn offset(&self) -> usize {
        match self {
            WalIssue::TornTail { offset } | WalIssue::Corrupt { offset, .. } => *offset,
        }
    }
}

/// The outcome of scanning a segment: every record in the valid prefix,
/// how long that prefix is, and the first problem found (if any).
#[derive(Debug)]
pub struct WalScan {
    /// Decoded records, in append order.
    pub records: Vec<WalRecord>,
    /// Where the valid frames end, counted from the start of the bytes
    /// (a recovered daemon never appends here: it opens the segment after
    /// the last one on disk).
    pub valid_len: usize,
    /// Why the scan stopped early, or `None` for a clean log.
    pub issue: Option<WalIssue>,
}

/// Encodes one frame: header plus payload, ready to append.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    push_frame(&mut out, |out| out.extend_from_slice(payload));
    out
}

/// Appends one frame to `out` whose payload `write_payload` appends in
/// place; the header is filled in after it.
fn push_frame(out: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    write_payload(out);
    let payload = &out[start + FRAME_HEADER_LEN..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// Scans raw segment bytes into records. Total: any byte string yields a
/// `WalScan`, never a panic — arbitrary truncation, bit flips and garbage
/// all land in `issue`.
pub fn scan(bytes: &[u8]) -> WalScan {
    scan_from(bytes, 0)
}

/// [`scan`] of the frames from byte `from` of `bytes` on — where a
/// snapshot's anchor put it — with every offset in the result counted
/// from the start of `bytes`, so an issue's offset is where the segment
/// file would be cut. From the end or past it there is nothing to scan:
/// no records, no issue. From the middle of a frame the bytes do not
/// frame up, which is an issue like any other.
pub fn scan_from(bytes: &[u8], from: usize) -> WalScan {
    let mut records = Vec::new();
    let mut off = from.min(bytes.len());
    let mut issue = None;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < FRAME_HEADER_LEN {
            issue = Some(WalIssue::TornTail { offset: off });
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_FRAME_LEN {
            issue = Some(WalIssue::Corrupt {
                offset: off,
                reason: format!("frame length {len} exceeds cap {MAX_FRAME_LEN}"),
            });
            break;
        }
        let len = len as usize;
        if rest.len() < FRAME_HEADER_LEN + len {
            issue = Some(WalIssue::TornTail { offset: off });
            break;
        }
        let payload = &rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        let actual = crc32(payload);
        if actual != crc {
            issue = Some(WalIssue::Corrupt {
                offset: off,
                reason: format!(
                    "checksum mismatch: frame says {crc:#010x}, payload is {actual:#010x}"
                ),
            });
            break;
        }
        match codec::decode(payload) {
            Ok(r) => records.push(r),
            Err(why) => {
                issue = Some(WalIssue::Corrupt {
                    offset: off,
                    reason: format!("payload fails to decode: {why}"),
                });
                break;
            }
        }
        off += FRAME_HEADER_LEN + len;
    }
    WalScan {
        records,
        valid_len: off,
        issue,
    }
}

/// Path of WAL segment `k` under `dir`.
pub fn segment_path(dir: &Path, k: u64) -> PathBuf {
    dir.join(format!("wal-{k:08}.log"))
}

/// WAL segments under `dir`, ascending by index.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(mid) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".log"))
        else {
            continue;
        };
        if let Ok(k) = mid.parse::<u64>() {
            out.push((k, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(k, _)| k);
    Ok(out)
}

/// Reads and scans one segment file.
pub fn read_segment(path: &Path) -> io::Result<WalScan> {
    read_segment_from(path, 0)
}

/// Reads one segment file and scans it from byte `from` on
/// ([`scan_from`]): what recovery replays of the segment a snapshot
/// anchors. An offset at or past the file's end — the file lost the tail
/// below its anchor to a power failure — replays nothing.
pub fn read_segment_from(path: &Path, from: u64) -> io::Result<WalScan> {
    let from = usize::try_from(from).unwrap_or(usize::MAX);
    Ok(scan_from(&fs::read(path)?, from))
}

/// Cuts the torn tail off segment `k` under `dir` — back to its valid
/// prefix of `valid_len` bytes, synced — if it ends the log: no later
/// segment holds a byte. A later segment that does holds records the scan stopped
/// short of; behind a whole tail, a later recovery falling back below
/// them would replay them over the hole, so the tail stays torn and
/// replay keeps stopping there.
pub fn truncate_torn_tail(dir: &Path, k: u64, valid_len: u64) -> io::Result<()> {
    for (later, path) in list_segments(dir)? {
        if later > k && fs::metadata(path)?.len() > 0 {
            return Ok(());
        }
    }
    let file = fs::OpenOptions::new()
        .write(true)
        .open(segment_path(dir, k))?;
    file.set_len(valid_len)?;
    file.sync_all()
}

/// An open, appendable WAL segment. Every append is one `write` of whole
/// frames straight to the file descriptor (no userspace buffering across
/// appends), so an acknowledged record survives a process crash;
/// [`SegmentWriter::sync`] additionally pushes it through the OS cache
/// for power-failure durability (`DESIGN.md` §16 says where).
///
/// Frames are encoded in place in one buffer the writer keeps at its
/// high-water capacity, so a warmed append makes no allocation.
#[derive(Debug)]
pub struct SegmentWriter {
    file: fs::File,
    frames: Vec<u8>,
    /// Bytes handed to `write`, failed writes included.
    written: u64,
}

impl SegmentWriter {
    /// Creates (or truncates) segment `k` under `dir` and opens it for
    /// appending.
    pub fn create(dir: &Path, k: u64) -> io::Result<Self> {
        let file = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(segment_path(dir, k))?;
        Ok(Self {
            file,
            frames: Vec::new(),
            written: 0,
        })
    }

    /// Bytes this writer has handed to `write`, failed writes included:
    /// never less than the segment's length, and no system call to read.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The segment's true end, as the file descriptor sees it. A `write`
    /// that failed part way still moved it past the bytes that went out,
    /// so a count of successful appends can fall short of it.
    pub fn end(&mut self) -> io::Result<u64> {
        self.file.stream_position()
    }

    /// One `write` of the encoded frames.
    fn write_frames(&mut self) -> io::Result<()> {
        self.written += self.frames.len() as u64;
        self.file.write_all(&self.frames)
    }

    /// Appends one record as one frame.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.frames.clear();
        push_frame(&mut self.frames, |out| codec::encode(record, out));
        self.write_frames()
    }

    /// Appends `batch` as a [`WalRecord::Batch`] — the frame
    /// `append(&WalRecord::Batch { batch })` writes, without cloning the
    /// batch into a record first — followed by `meta`'s frame, if any, in
    /// the same `write`. A crash that tears that `write` leaves a prefix:
    /// the batch alone, or neither, as a crash between two writes would.
    pub fn append_batch(
        &mut self,
        batch: &PlacementBatch,
        meta: Option<&WalRecord>,
    ) -> io::Result<()> {
        self.frames.clear();
        push_frame(&mut self.frames, |out| codec::encode_batch(batch, out));
        if let Some(record) = meta {
            push_frame(&mut self.frames, |out| codec::encode(record, out));
        }
        self.write_frames()
    }

    /// Forces written frames through the OS cache to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(session: u64) -> WalRecord {
        WalRecord::SessionMeta {
            session,
            user: format!("u{session}"),
            slo: SloClass::BestEffort,
        }
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for r in records {
            push_frame(&mut bytes, |out| codec::encode(r, out));
        }
        bytes
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // Eight bytes at a time agrees with one bit at a time, at every
        // length and alignment of the tail.
        let bitwise = |data: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in data {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            c ^ 0xFFFF_FFFF
        };
        let data: Vec<u8> = (0..300u32).map(|i| (i * 167 + 13) as u8).collect();
        for end in 0..data.len() {
            assert_eq!(
                crc32(&data[end % 7..end]),
                bitwise(&data[end % 7..end]),
                "{end}"
            );
        }
    }

    #[test]
    fn roundtrip_preserves_records_and_reports_clean() {
        let records = vec![rec(1), WalRecord::Epoch { epoch: 3 }, rec(2)];
        let bytes = encode_all(&records);
        let out = scan(&bytes);
        assert_eq!(out.records, records);
        assert_eq!(out.valid_len, bytes.len());
        assert!(out.issue.is_none());
    }

    #[test]
    fn truncation_is_a_torn_tail_at_the_frame_boundary() {
        let records = vec![rec(1), rec(2)];
        let bytes = encode_all(&records);
        let first = encode_all(&records[..1]).len();
        // Any cut inside the second frame keeps exactly the first record.
        for cut in first + 1..bytes.len() {
            let out = scan(&bytes[..cut]);
            assert_eq!(out.records, records[..1]);
            assert_eq!(out.valid_len, first);
            assert_eq!(out.issue, Some(WalIssue::TornTail { offset: first }));
        }
    }

    #[test]
    fn bit_flip_is_detected_and_stops_the_scan() {
        let records = vec![rec(1), rec(2), rec(3)];
        let clean = encode_all(&records);
        let first = encode_all(&records[..1]).len();
        // Flip one bit in the middle frame's payload.
        let mut bytes = clean.clone();
        bytes[first + FRAME_HEADER_LEN + 2] ^= 0x10;
        let out = scan(&bytes);
        assert_eq!(out.records, records[..1]);
        assert_eq!(out.valid_len, first);
        match out.issue {
            Some(WalIssue::Corrupt { offset, .. }) => assert_eq!(offset, first),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn absurd_length_does_not_allocate_or_panic() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 4]);
        bytes.extend_from_slice(&[0u8; 64]);
        let out = scan(&bytes);
        assert!(out.records.is_empty());
        assert_eq!(out.valid_len, 0);
        assert!(matches!(
            out.issue,
            Some(WalIssue::Corrupt { offset: 0, .. })
        ));
    }

    #[test]
    fn valid_frame_with_garbage_payload_is_corrupt_not_panic() {
        let bytes = encode_frame(b"not json at all");
        let out = scan(&bytes);
        assert!(out.records.is_empty());
        assert_eq!(out.valid_len, 0);
        assert!(matches!(out.issue, Some(WalIssue::Corrupt { .. })));
    }

    /// Scanned from a frame boundary, the frames before it are neither
    /// decoded nor returned, and every offset is counted from the start of
    /// the bytes: a torn tail's is where the file is cut.
    #[test]
    fn scan_from_counts_offsets_from_the_start_of_the_bytes() {
        let records = vec![rec(1), rec(2), rec(3)];
        let bytes = encode_all(&records);
        let first = encode_all(&records[..1]).len();
        let two = encode_all(&records[..2]).len();
        let out = scan_from(&bytes, first);
        assert_eq!(
            (out.records, out.valid_len),
            (records[1..].to_vec(), bytes.len())
        );
        let out = scan_from(&bytes[..bytes.len() - 1], first);
        assert_eq!(out.records, records[1..2]);
        assert_eq!(out.issue, Some(WalIssue::TornTail { offset: two }));
        for past in [bytes.len(), bytes.len() + 1, usize::MAX] {
            let out = scan_from(&bytes, past);
            assert!(out.records.is_empty() && out.issue.is_none(), "{past}");
        }
    }

    /// A torn tail is cut only where it ends the log: a later segment that
    /// holds a record keeps it torn, an empty one does not.
    #[test]
    fn a_torn_tail_is_cut_only_where_it_ends_the_log() {
        let dir = std::env::temp_dir().join(format!(
            "slate-wal-torn-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut w = SegmentWriter::create(&dir, 0).expect("create");
        w.append(&rec(1)).expect("append");
        let valid = std::fs::metadata(segment_path(&dir, 0)).unwrap().len();
        let frame = encode_all(&[rec(2)]);
        w.file.write_all(&frame[..frame.len() - 1]).expect("tear");
        let torn = std::fs::read(segment_path(&dir, 0)).unwrap();
        SegmentWriter::create(&dir, 1)
            .and_then(|mut later| later.append(&rec(3)))
            .expect("a later record");
        truncate_torn_tail(&dir, 0, valid).unwrap();
        assert_eq!(std::fs::read(segment_path(&dir, 0)).unwrap(), torn);
        SegmentWriter::create(&dir, 1).expect("an empty later segment");
        truncate_torn_tail(&dir, 0, valid).unwrap();
        let out = read_segment(&segment_path(&dir, 0)).unwrap();
        assert_eq!((out.records, out.issue), (vec![rec(1)], None));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_writer_appends_scannable_frames() {
        let dir = std::env::temp_dir().join(format!(
            "slate-wal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut w = SegmentWriter::create(&dir, 7).expect("create");
        w.append(&rec(1)).expect("append");
        w.append(&rec(2)).expect("append");
        w.sync().expect("sync");
        let out = read_segment(&segment_path(&dir, 7)).expect("read");
        assert_eq!(out.records, vec![rec(1), rec(2)]);
        assert!(out.issue.is_none());
        assert_eq!(
            list_segments(&dir).expect("list"),
            vec![(7, segment_path(&dir, 7))]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
