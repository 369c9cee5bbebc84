//! Durable snapshots: periodic checkpoints that bound WAL replay.
//!
//! A [`DurableSnapshot`] pairs the placement layer's complete serialized
//! state ([`PlacementSnapshot`]) with the daemon-side session metadata
//! ([`DurableMeta`]) that lives *outside* the event-sourced core: who owns
//! which session, the slate→device pointer map, and the launch-id
//! watermarks behind client-side idempotent resumption.
//!
//! Snapshot `k` captures the state as of the start of WAL segment `k`:
//! recovery loads the highest readable snapshot and replays only segments
//! `≥ k`. Snapshots are written to a temp file, synced and renamed into
//! place, so a crash mid-snapshot leaves the previous one intact; a
//! snapshot that fails to parse at recovery time is skipped in favour of
//! an older one (with more replay).
//!
//! A snapshot is written under the arbiter lock (`DESIGN.md` §16), so its
//! size is serving latency. The placement state is bounded by the fleet
//! and its live leases; the metadata is kept bounded by holding the open
//! sessions only — [`DurableMeta::apply`] removes a session when it
//! closes.

use super::wal::WalRecord;
use crate::placement::PlacementSnapshot;
use serde::{Deserialize, Serialize};
use slate_kernels::workload::SloClass;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// On-disk format version of [`DurableSnapshot`]. Bumped on incompatible
/// layout changes; recovery rejects snapshots from a different format.
pub const SNAPSHOT_FORMAT: u32 = 1;

/// One device allocation, as mirrored into durable metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocMeta {
    /// Backing device pointer (raw address word).
    pub device_ptr: u64,
    /// Allocation size in bytes.
    pub bytes: u64,
}

/// Durable per-session metadata: everything a resumed client needs the
/// daemon to still know after a crash.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SessionMeta {
    /// The connecting user (re-admission accounting).
    pub user: String,
    /// The session's declared SLO class; recovery re-declares it ahead
    /// of the resumed session's replayed work. `#[serde(default)]` (best
    /// effort) keeps pre-SLO snapshots readable.
    #[serde(default)]
    pub slo: SloClass,
    /// Always `true` in a mirror this build maintains — a closed session
    /// is removed, not marked. Kept in the format so that a snapshot
    /// written before that rule loads, and [`load_snapshot`] can shed the
    /// closed entries it still carries.
    pub open: bool,
    /// Next slate pointer to hand out — a watermark kept strictly above
    /// every pointer ever returned, so resumed sessions never recycle
    /// a pointer the client may still hold.
    pub next_ptr: u64,
    /// Live allocations: slate pointer → device mapping.
    pub allocs: BTreeMap<u64, AllocMeta>,
    /// Admitted launches: launch id → lease. Replayed launches at or
    /// below the watermark are deduplicated against this.
    pub admitted: BTreeMap<u64, u64>,
    /// Completed launches (value unused; a set under the stub serde).
    pub done: BTreeMap<u64, bool>,
}

/// Daemon-side durable metadata, mirrored on every WAL append and
/// serialized whole into each snapshot — so it holds the *open* sessions
/// only, and a checkpoint costs what they cost however many have come and
/// gone.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
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
                s.open = true;
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
                    s.done.insert(*launch_id, true);
                }
            }
        }
    }
}

/// One complete checkpoint: placement state plus session metadata, tagged
/// with the epoch and the WAL segment it anchors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DurableSnapshot {
    /// On-disk format version ([`SNAPSHOT_FORMAT`]).
    pub format: u32,
    /// Recovery epoch the writing daemon ran in.
    pub epoch: u64,
    /// WAL segment this snapshot anchors: recovery replays segments
    /// `≥ segment` on top of this state.
    pub segment: u64,
    /// The placement layer, whole.
    pub placement: PlacementSnapshot,
    /// Daemon-side session metadata.
    pub meta: DurableMeta,
}

/// Writes snapshot `k` under `dir` atomically (temp file + rename), then
/// syncs it to stable storage.
pub fn write_snapshot(dir: &Path, k: u64, snap: &DurableSnapshot) -> io::Result<()> {
    let text = serde_json::to_string(snap)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let tmp = dir.join(format!("snap-{k:08}.tmp"));
    let final_path = super::wal::snapshot_path(dir, k);
    {
        let mut f = fs::File::create(&tmp)?;
        io::Write::write_all(&mut f, text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &final_path)?;
    Ok(())
}

/// Loads and validates one snapshot file. Sessions it records as closed
/// (only a snapshot written before closed sessions were removed from the
/// mirror has any) are shed here, so no mirror ever holds one.
pub fn load_snapshot(path: &Path) -> io::Result<DurableSnapshot> {
    let text = fs::read_to_string(path)?;
    let mut snap: DurableSnapshot = serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if snap.format != SNAPSHOT_FORMAT {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "snapshot format {} unsupported (this build reads {})",
                snap.format, SNAPSHOT_FORMAT
            ),
        ));
    }
    snap.meta.sessions.retain(|_, s| s.open);
    Ok(snap)
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
        assert!(m.sessions[&3].done.contains_key(&1));
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

    #[test]
    fn a_snapshot_with_closed_sessions_sheds_them_on_load() {
        use crate::placement::{PlacementConfig, PlacementLayer};
        use slate_gpu_sim::device::DeviceConfig;
        let dir = std::env::temp_dir().join(format!(
            "slate-snapshed-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let layer = PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
        // What the mirror looked like before closed sessions were removed.
        let session = |open| SessionMeta {
            user: "old".into(),
            open,
            ..SessionMeta::default()
        };
        let meta = DurableMeta {
            next_session: 3,
            sessions: [(1, session(false)), (2, session(true))].into(),
        };
        let snap = DurableSnapshot {
            format: SNAPSHOT_FORMAT,
            epoch: 0,
            segment: 0,
            placement: layer.snapshot(),
            meta,
        };
        write_snapshot(&dir, 0, &snap).expect("write");
        let back = load_snapshot(&super::super::wal::snapshot_path(&dir, 0)).expect("load");
        assert_eq!(back.meta.sessions.keys().collect::<Vec<_>>(), [&2]);
        assert_eq!(back.meta.next_session, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_roundtrips_through_disk() {
        use crate::placement::{PlacementConfig, PlacementLayer};
        use slate_gpu_sim::device::DeviceConfig;
        let dir = std::env::temp_dir().join(format!(
            "slate-snap-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let layer = PlacementLayer::new(
            vec![DeviceConfig::tiny(8), DeviceConfig::tiny(8)],
            PlacementConfig::default(),
        );
        let snap = DurableSnapshot {
            format: SNAPSHOT_FORMAT,
            epoch: 2,
            segment: 5,
            placement: layer.snapshot(),
            meta: DurableMeta::default(),
        };
        write_snapshot(&dir, 5, &snap).expect("write");
        let back = load_snapshot(&super::super::wal::snapshot_path(&dir, 5)).expect("load");
        assert_eq!(back.epoch, 2);
        assert_eq!(back.segment, 5);
        assert_eq!(back.placement.devices().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_format_is_rejected() {
        let dir = std::env::temp_dir().join(format!(
            "slate-snapfmt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        use crate::placement::{PlacementConfig, PlacementLayer};
        use slate_gpu_sim::device::DeviceConfig;
        let layer = PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
        let snap = DurableSnapshot {
            format: SNAPSHOT_FORMAT + 1,
            epoch: 0,
            segment: 0,
            placement: layer.snapshot(),
            meta: DurableMeta::default(),
        };
        write_snapshot(&dir, 0, &snap).expect("write");
        assert!(load_snapshot(&super::super::wal::snapshot_path(&dir, 0)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
