//! Recovery: rebuild daemon state from the newest readable snapshot plus
//! the WAL suffix.
//!
//! The sequence is fixed:
//!
//! 1. pick the snapshot slot with the highest anchor, by
//!    `(segment, offset)`, that loads and validates (`newest_anchor`; a
//!    torn or unreadable slot is skipped in favour of the other — more
//!    replay, same answer);
//! 2. rebuild the [`PlacementLayer`] from it;
//! 3. replay the log from the anchor on, in order — the anchored segment
//!    from its offset, then every later segment whole: `Batch` records
//!    re-feed the layer (outputs discarded — the decisions already
//!    happened), every record folds into the [`DurableMeta`] mirror;
//! 4. surface — never panic on — a torn tail or corruption, with the
//!    byte offset in its segment file (absolute, not counted from the
//!    anchor: it is where a torn tail is cut) where the log stopped being
//!    trustworthy, and stop
//!    there: the valid prefix of the damaged segment is the last thing
//!    replayed. Segments after it continue a history this one no longer
//!    tells; folding them in would build a state that never existed.
//!
//! The caller ([`SlateDaemon::recover`](crate::daemon::SlateDaemon::recover))
//! then bumps the epoch, rotates to a fresh segment, writes a new anchor
//! into the slot recovery did *not* read ([`Recovered::slot`];
//! [`Durability::start`](super::Durability::start) finds it with the same
//! `newest_anchor`) and re-adopts in-flight work.

use super::snapshot::{decode_slot, load_slot, slot_path, DurableMeta, DurableSnapshot};
use super::wal::{list_segments, read_segment, read_segment_from, WalIssue, WalRecord};
use crate::placement::{PlacementBatch, PlacementLayer, PlacementLog};
use std::io;
use std::path::{Path, PathBuf};

/// Everything recovery reconstructed from the durability directory.
#[derive(Debug)]
pub struct Recovered {
    /// The placement layer, rebuilt from the snapshot and replayed
    /// forward through the WAL suffix.
    pub layer: PlacementLayer,
    /// The session-metadata mirror, likewise replayed forward.
    pub meta: DurableMeta,
    /// Epoch of the crashed incarnation (highest seen across the
    /// snapshot and any `Epoch` records in the suffix).
    pub(crate) epoch: u64,
    /// Index of the last WAL segment on disk; the recovered daemon
    /// appends to `last_segment + 1`.
    pub(crate) last_segment: u64,
    /// The snapshot slot the state was loaded from. The recovered
    /// daemon's first anchor goes to the other slot
    /// ([`Durability::start`](super::Durability::start) picks it by the
    /// same rule): until that anchor is synced, this slot is the only one
    /// known good.
    pub slot: usize,
    /// The problem that ended the replay, with its segment (a torn tail
    /// from the crash itself, corruption; its offset counts from the
    /// start of the segment file): at most one, since nothing
    /// after a damaged segment is replayed. Empty for a clean shutdown.
    pub issues: Vec<(u64, WalIssue)>,
}

/// The snapshot recovery starts from: of the two slots, the one with the
/// highest anchor by `(segment, offset)` that loads and validates, and
/// which slot that is. A zero-length slot was never written and does not
/// count. `segments` is the directory's segment list: a snapshot whose
/// own segment is gone while a later one is on disk anchors a history
/// compaction has already cut, and replaying from it would skip that
/// segment, so it does not load either. Fails with `NotFound` when the
/// directory holds no slot at all, and with `InvalidData` naming every
/// slot's fault when none loads.
pub(crate) fn newest_anchor(
    dir: &Path,
    segments: &[(u64, PathBuf)],
) -> io::Result<(DurableSnapshot, usize)> {
    let mut faults = Vec::new();
    let mut found = Vec::new();
    for slot in 0..2 {
        let path = slot_path(dir, slot);
        match std::fs::read(&path) {
            Ok(bytes) if bytes.is_empty() => {}
            Ok(bytes) => match decode_slot(&bytes) {
                Ok((anchor, _)) => found.push((anchor, slot, bytes)),
                Err(e) => faults.push(format!("{}: {e}", path.display())),
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => faults.push(format!("{}: {e}", path.display())),
        }
    }
    found.sort_by_key(|&(anchor, ..)| std::cmp::Reverse(anchor));
    for ((k, _), slot, bytes) in found {
        let cut = !segments.iter().any(|&(s, _)| s == k)
            && segments.last().is_some_and(|&(last, _)| last > k);
        let loaded = if cut {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("anchors segment {k}, which is gone while a later one is on disk"),
            ))
        } else {
            load_slot(&bytes)
        };
        match loaded {
            Ok(snap) => return Ok((snap, slot)),
            Err(e) => faults.push(format!("{}: {e}", slot_path(dir, slot).display())),
        }
    }
    if faults.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "no snapshot in {}: not a durability directory",
                dir.display()
            ),
        ));
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "no readable snapshot in {}: {}",
            dir.display(),
            faults.join("; ")
        ),
    ))
}

/// Rebuilds daemon state from `dir`. Fails only on I/O errors or when no
/// snapshot in the directory is readable; WAL damage is tolerated and
/// reported via `Recovered::issues`.
pub fn recover_dir(dir: &Path) -> io::Result<Recovered> {
    let segments = list_segments(dir)?;
    let (base, slot) = newest_anchor(dir, &segments)?;
    let mut layer = PlacementLayer::from_snapshot(base.placement);
    let mut meta = base.meta;
    let mut epoch = base.epoch;
    let mut issues = Vec::new();
    // Every file on disk counts here, replayed or not, so the recovered
    // daemon never reuses an index.
    let last_segment = segments
        .last()
        .map_or(base.segment, |(k, _)| base.segment.max(*k));
    for (k, path) in &segments {
        if *k < base.segment {
            continue; // superseded by the snapshot
        }
        // The frames before the anchor's offset are in the snapshot.
        let from = if *k == base.segment { base.offset } else { 0 };
        let scan = read_segment_from(path, from)?;
        for record in &scan.records {
            if let WalRecord::Batch { batch } = record {
                let _ = layer.feed(batch.at, &batch.events);
            }
            if let WalRecord::Epoch { epoch: e } = record {
                epoch = epoch.max(*e);
            }
            meta.apply(record);
        }
        if let Some(issue) = scan.issue {
            issues.push((*k, issue));
            break;
        }
    }
    Ok(Recovered {
        layer,
        meta,
        epoch,
        last_segment,
        slot,
        issues,
    })
}

/// Collects every `Batch` record across *all* segments (ascending) into
/// one [`PlacementLog`] that replays from a fresh layer. The devices and
/// configuration come from the layer of whichever snapshot recovery would
/// load: they never change within a directory.
///
/// When every segment since genesis is still on disk (`keep_all`), the
/// log is the whole recorded history — across every crash and recovery —
/// and [`crate::placement::replay::verify`] proves it routes
/// byte-identically.
#[doc(hidden)]
pub fn full_log(dir: &Path) -> io::Result<PlacementLog> {
    let segments = list_segments(dir)?;
    let (anchor, _) = newest_anchor(dir, &segments)?;
    let layer = PlacementLayer::from_snapshot(anchor.placement);
    let mut batches: Vec<PlacementBatch> = Vec::new();
    for (_, path) in &segments {
        let scan = read_segment(path)?;
        for record in scan.records {
            if let WalRecord::Batch { batch } = record {
                batches.push(batch);
            }
        }
    }
    Ok(PlacementLog {
        devices: layer.device_list(),
        config: layer.config().clone(),
        batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::Event;
    use crate::durability::snapshot::SnapshotSlots;
    use crate::durability::wal::{segment_path, SegmentWriter, FRAME_HEADER_LEN};
    use crate::placement::PlacementConfig;
    use slate_gpu_sim::device::DeviceConfig;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "slate-recover-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// Writes `snap` as the directory's anchor, in slot 0.
    fn write_anchor(dir: &Path, snap: &DurableSnapshot) {
        SnapshotSlots::open(dir, 0)
            .and_then(|mut slots| slots.write(snap))
            .expect("write snapshot");
    }

    fn fresh_layer() -> PlacementLayer {
        PlacementLayer::new(
            vec![DeviceConfig::tiny(8), DeviceConfig::tiny(8)],
            PlacementConfig::default(),
        )
    }

    #[test]
    fn snapshot_plus_suffix_matches_an_uninterrupted_run() {
        let dir = tmpdir("suffix");
        // Golden: one layer fed straight through.
        let mut golden = fresh_layer();
        let mut live = fresh_layer();
        let open = vec![Event::SessionOpened { session: 1 }];
        golden.feed(10, &open);
        live.feed(10, &open);
        // Checkpoint here: snapshot anchors segment 1.
        write_anchor(
            &dir,
            &DurableSnapshot {
                epoch: 0,
                segment: 1,
                offset: 0,
                placement: live.snapshot(),
                meta: DurableMeta::default(),
            },
        );
        // Suffix: one more batch, recorded in segment 1.
        let ready = vec![Event::KernelReady {
            session: 1,
            lease: (1 << 16) | 1,
            class: crate::classify::WorkloadClass::MM,
            sm_demand: 8,
            pinned_solo: false,
            deadline_ms: None,
        }];
        let routed = live.feed(20, &ready);
        golden.feed(20, &ready);
        let mut w = SegmentWriter::create(&dir, 1).expect("segment");
        w.append(&WalRecord::Batch {
            batch: PlacementBatch {
                at: 20,
                events: ready.clone(),
                routed,
            },
        })
        .expect("append");
        w.sync().expect("sync");
        let rec = recover_dir(&dir).expect("recover");
        assert!(rec.issues.is_empty());
        assert_eq!(rec.last_segment, 1);
        // The recovered layer and the golden layer agree on observable
        // state — and, critically, on their *next* decision.
        assert_eq!(
            rec.layer.snapshot(),
            golden.snapshot(),
            "recovered state is byte-identical to the uncrashed run"
        );
        let mut recovered = rec.layer;
        let fin = vec![Event::KernelFinished {
            lease: (1 << 16) | 1,
            ok: true,
        }];
        assert_eq!(recovered.feed(30, &fin), golden.feed(30, &fin));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_reported_with_offset_and_prefix_survives() {
        let dir = tmpdir("torn");
        let live = fresh_layer();
        write_anchor(
            &dir,
            &DurableSnapshot {
                epoch: 0,
                segment: 0,
                offset: 0,
                placement: live.snapshot(),
                meta: DurableMeta::default(),
            },
        );
        let mut w = SegmentWriter::create(&dir, 0).expect("segment");
        w.append(&WalRecord::SessionMeta {
            session: 1,
            user: "alice".into(),
            slo: Default::default(),
        })
        .expect("append");
        w.sync().expect("sync");
        // Simulate a crash mid-append: chop bytes off the tail.
        let path = crate::durability::wal::segment_path(&dir, 0);
        let mut bytes = std::fs::read(&path).expect("read");
        let valid = bytes.len();
        bytes.extend_from_slice(&encode_partial());
        std::fs::write(&path, &bytes).expect("write");
        let rec = recover_dir(&dir).expect("recover");
        assert_eq!(rec.meta.sessions[&1].user, "alice");
        assert_eq!(rec.issues.len(), 1);
        assert_eq!(rec.issues[0].0, 0);
        assert_eq!(rec.issues[0].1.offset(), valid);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nothing_after_a_damaged_segment_is_replayed() {
        let dir = tmpdir("hole");
        write_anchor(
            &dir,
            &DurableSnapshot {
                epoch: 0,
                segment: 0,
                offset: 0,
                placement: fresh_layer().snapshot(),
                meta: DurableMeta::default(),
            },
        );
        let open = |session| WalRecord::SessionMeta {
            session,
            user: format!("u{session}"),
            slo: Default::default(),
        };
        let mut w = SegmentWriter::create(&dir, 0).expect("segment 0");
        w.append(&open(1)).expect("append");
        let first = std::fs::metadata(segment_path(&dir, 0))
            .expect("stat")
            .len() as usize;
        w.append(&open(2)).expect("append");
        let mut w = SegmentWriter::create(&dir, 1).expect("segment 1");
        w.append(&open(3)).expect("append");
        // One bit of segment 0's second frame flips; segment 1 is intact.
        let path = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[first + FRAME_HEADER_LEN + 2] ^= 0x10;
        std::fs::write(&path, &bytes).expect("write");

        let rec = recover_dir(&dir).expect("recover");
        let mut want = DurableMeta::default();
        want.apply(&open(1));
        assert_eq!(rec.meta, want, "the state is the first frame's alone");
        assert!(
            matches!(&rec.issues[..], [(0, WalIssue::Corrupt { offset, .. })] if *offset == first),
            "{:?}",
            rec.issues
        );
        assert_eq!(rec.last_segment, 1, "no index on disk is reused");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn encode_partial() -> Vec<u8> {
        let frame = crate::durability::wal::encode_frame(b"{\"never\":\"lands\"}");
        frame[..frame.len() - 3].to_vec()
    }

    /// A directory this build cannot recover from is a typed error, never
    /// a panic: none at all, an empty one, snapshot files beside a segment
    /// but no slot, and a slot of another version — version 1, with no
    /// offset, version 2, whose body was JSON, and version 3, whose body
    /// holds two fields this build no longer writes.
    #[test]
    fn missing_directory_and_empty_directory_fail_cleanly() {
        let fails = |dir: &Path, kind, why: &str| {
            let err = recover_dir(dir).expect_err("not recoverable");
            assert_eq!(err.kind(), kind, "{err}");
            assert!(err.to_string().contains(why), "{err}");
        };
        let dir = tmpdir("empty");
        fails(&dir, io::ErrorKind::NotFound, "not a durability directory");
        fails(&dir.join("nope"), io::ErrorKind::NotFound, "");
        let body = br#"{"epoch":0,"segment":0,"offset":0}"#;
        std::fs::write(dir.join("snap-00000000.json"), body).unwrap();
        SegmentWriter::create(&dir, 0)
            .and_then(|mut w| w.append(&WalRecord::Epoch { epoch: 0 }))
            .unwrap();
        fails(&dir, io::ErrorKind::NotFound, "not a durability directory");
        std::fs::remove_dir_all(&dir).ok();

        // Magic, version, CRC, segment, (since version 2: offset,) length,
        // body.
        let crc = crate::durability::wal::crc32(body).to_le_bytes();
        let len = (body.len() as u64).to_le_bytes();
        let zero = 0u64.to_le_bytes();
        for (version, header) in [
            (1u32, [&crc[..], &zero, &len].concat()),
            (2, [&crc[..], &zero, &zero, &len].concat()),
            (3, [&crc[..], &zero, &zero, &len].concat()),
        ] {
            let dir = tmpdir(&format!("version-{version}"));
            let image = [&b"SLATESNP"[..], &version.to_le_bytes(), &header, body].concat();
            std::fs::write(slot_path(&dir, 0), image).unwrap();
            SegmentWriter::create(&dir, 0).unwrap();
            fails(
                &dir,
                io::ErrorKind::InvalidData,
                &format!("slot version {version} unsupported"),
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
