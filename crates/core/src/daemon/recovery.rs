//! Crash consistency: killing the daemon, resurrecting it from the
//! durability directory plus the in-memory [`CrashScene`], re-adopting the
//! launches that were in flight, and reattaching crashed clients.

use super::exec::{execute, Launch};
use super::session::SessionState;
use super::{Connection, DaemonOptions, DaemonShared, SlateDaemon};
use crate::durability::wal::truncate_torn_tail;
use crate::durability::{recover_dir, Durability, WalIssue, WalRecord};
use crate::error::SlateError;
use serde::{Deserialize, Serialize};
use slate_gpu_sim::buffer::DeviceMemoryPool;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Everything that survives a [`SlateDaemon::crash`] in memory: the device
/// memory pool (device memory outlives a daemon process restart) and the
/// launches that were in flight (queued, granted, or running), each parked
/// at its carried progress. Hand it to [`SlateDaemon::recover`] together
/// with the durability directory to resurrect the fleet.
pub struct CrashScene {
    pool: DeviceMemoryPool,
    inflight: Vec<Launch>,
}

impl CrashScene {
    /// Number of launches that were in flight at the kill point.
    #[doc(hidden)]
    pub fn inflight_launches(&self) -> usize {
        self.inflight.len()
    }
}

/// An epoch-tagged resumption credential: everything a client needs to
/// reattach its session to a recovered daemon. Minted by
/// [`crate::api::SlateClient::resume_token`]; redeemed by
/// [`SlateDaemon::resume`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResumeToken {
    /// Recovery epoch of the incarnation the client was connected to.
    /// Resumption is only valid into a *later* epoch.
    pub epoch: u64,
    /// The session to re-adopt.
    pub session: u64,
}

/// What a recovered daemon keeps per crashed session.
#[derive(Default)]
pub(super) struct Recovered {
    /// Launch ids adopted from the crash scene: replayed client launches
    /// dedupe against these (and against WAL-completed ids), which is
    /// what makes resubmission idempotent.
    adopted: BTreeSet<u64>,
    /// The session's adoption thread, joined by the session's resumed
    /// thread (or [`SlateDaemon::join`]) before any new request runs —
    /// adopted and fresh work never interleave on a lease.
    pub(super) thread: Option<JoinHandle<()>>,
    /// Errors adopted launches hit (watchdog timeouts etc.), surfaced at
    /// the resumed client's next synchronize.
    pub(super) errors: Vec<SlateError>,
    /// Whether the session's token was redeemed; it is good for one
    /// reattach.
    resumed: bool,
}

impl SlateDaemon {
    /// Kills the daemon at an arbitrary instant, as a `SIGKILL` would:
    /// no drain, no goodbye to clients, no final WAL flush beyond what
    /// already hit the disk. Under the arbiter lock the crash flag is
    /// raised and the WAL frozen — the kill point is one well-defined
    /// cut through the event stream. Session threads are then joined
    /// (each exits at its next request boundary; running kernels are
    /// evicted through the retreat flag and park at their carried
    /// progress), and everything that survives a process death in the
    /// real deployment — device memory, in-flight work — is returned as
    /// the `CrashScene` for [`SlateDaemon::recover`].
    pub fn crash(&self) -> CrashScene {
        self.shared.shutting_down.store(true, Ordering::Release);
        self.shared.arb.kill();
        self.join();
        let inflight = std::mem::take(&mut *self.shared.crash_inflight.lock());
        let pool = std::mem::replace(&mut *self.shared.pool.lock(), DeviceMemoryPool::new(0));
        CrashScene { pool, inflight }
    }

    /// Keeps the slot the last checkpoint wrote unsynced while `held` —
    /// the heartbeat leaves it alone, and no later checkpoint runs — so a
    /// [`SlateDaemon::crash`] is sure to find a slot sync pending. For
    /// crash tests; a no-op on a daemon without durability.
    #[doc(hidden)]
    pub fn hold_checkpoint_syncs(&self, held: bool) {
        if let Some(d) = &self.shared.arb.durability {
            d.hold_syncs(held);
        }
    }

    /// Resurrects a crashed daemon from its durability directory plus the
    /// in-memory `CrashScene`. State is rebuilt from the newest readable
    /// snapshot and the WAL suffix — never panicking on damage: a torn
    /// tail that ends the log is truncated (and the segment synced), so a
    /// later recovery that falls back below it replays on through; a
    /// corrupt segment is left as it is for an operator. Both are reported by
    /// [`SlateDaemon::recovery_issues`]. The epoch is bumped, a fresh WAL
    /// segment is opened and anchored in the snapshot slot recovery did
    /// not read, and every in-flight launch from the scene is re-adopted
    /// at its carried progress on a per-session adoption thread. Crashed
    /// clients reattach with [`SlateDaemon::resume`].
    ///
    /// Of `options`, the scheduling fields (`devices`, `placement`,
    /// `admission`, ...) are ignored — the fleet and its configuration
    /// come from the recovered snapshot; `profiles`, `fault_plan`,
    /// `default_deadline_ms`, `record_arbiter` and `durability` apply.
    /// `options.durability` must point at the crashed daemon's directory.
    pub fn recover(scene: CrashScene, mut options: DaemonOptions) -> Result<Arc<Self>, SlateError> {
        let dur_opts = options.durability.take().ok_or_else(|| {
            SlateError::Other("recover requires DaemonOptions::durability".into())
        })?;
        let rec = recover_dir(&dur_opts.dir)
            .map_err(|e| SlateError::Other(format!("recovery failed: {e}")))?;
        // A tail that cannot be cut stays torn, as it always was (a later
        // fallback stops there): counted in `wal_io_errors`, not fatal.
        let mut uncut = 0;
        for (k, issue) in &rec.issues {
            if let WalIssue::TornTail { offset } = issue {
                uncut += u64::from(truncate_torn_tail(&dur_opts.dir, *k, *offset as u64).is_err());
            }
        }
        let layer = rec.layer;
        let epoch = rec.epoch + 1;
        // Resume the logical clock past the crashed incarnation's last
        // tick so the stitched WAL stays monotonic.
        let base_us = layer.now() + 1;
        let durability = Durability::start(
            dur_opts,
            rec.last_segment + 1,
            epoch,
            &layer.snapshot(),
            rec.meta.clone(),
        )
        .map_err(|e| SlateError::Other(format!("reopen durability: {e}")))?;
        durability.count_io_errors(uncut);
        durability.append_meta(&WalRecord::Epoch { epoch });
        let daemon = Self::boot(
            layer.device_list(),
            layer,
            base_us,
            Some(durability),
            scene.pool,
            options,
            rec.issues,
        );
        *daemon.next_session.lock() = rec.meta.next_session.max(1) - 1;
        daemon.adopt(scene.inflight);
        Ok(daemon)
    }

    /// Spawns one adoption thread per crashed session, re-executing its
    /// in-flight launches in their original order from their carried
    /// progress.
    fn adopt(&self, inflight: Vec<Launch>) {
        let mut by_session: BTreeMap<u64, Vec<Launch>> = BTreeMap::new();
        for job in inflight {
            by_session.entry(job.session()).or_default().push(job);
        }
        for (session, jobs) in by_session {
            let adopted = jobs.iter().map(|j| j.launch_id).collect();
            let shared = self.shared.clone();
            let thread = std::thread::Builder::new()
                .name(format!("slate-adopt-{session}"))
                .spawn(move || adopt_session(&shared, session, jobs))
                .expect("spawn adoption thread");
            let mut recovery = self.shared.recovery.lock();
            let record = recovery.entry(session).or_default();
            record.adopted = adopted;
            record.thread = Some(thread);
        }
    }

    /// Reattaches a crashed client's session. The token must come from an
    /// earlier epoch of this durability lineage, name a session the WAL
    /// says is still open, and not have been redeemed already — otherwise
    /// [`SlateError::ResumeRejected`]. The returned [`Connection`] serves
    /// the same session id: the pointer map is restored from durable
    /// metadata, the pointer watermark never regresses, and launch ids the
    /// WAL has seen (completed or adopted) are deduplicated server-side,
    /// so the client may blindly resubmit everything unacknowledged.
    #[doc(hidden)]
    pub fn resume(self: &Arc<Self>, token: ResumeToken) -> Result<Connection, SlateError> {
        let rejected = |why: String| Err(SlateError::ResumeRejected(why));
        let Some(durability) = &self.shared.arb.durability else {
            return rejected("daemon is not durable".to_string());
        };
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return Err(SlateError::ShuttingDown);
        }
        let (epoch, session) = (durability.epoch(), token.session);
        if token.epoch >= epoch {
            return rejected(format!(
                "token epoch {} is not from an earlier incarnation (current epoch {epoch})",
                token.epoch
            ));
        }
        let meta = durability.meta();
        // The mirror holds open sessions only: one that closed before the
        // crash is as unknown as one the log never saw.
        let Some(smeta) = meta.sessions.get(&session) else {
            return rejected(format!("session {session} is not open in the log"));
        };
        let st = {
            let mut recovery = self.shared.recovery.lock();
            let record = recovery.entry(session).or_default();
            if std::mem::replace(&mut record.resumed, true) {
                return rejected(format!("session {session} was already resumed"));
            }
            SessionState::restore(session, smeta, &record.adopted)
        };
        let launch_floor = smeta
            .admitted
            .keys()
            .chain(&smeta.done)
            .max()
            .map_or(0, |m| m + 1);
        Ok(self.spawn_session(session, smeta.user.clone(), st, launch_floor))
    }
}

/// Re-executes one crashed session's in-flight launches, in order, from
/// their carried progress. Grouped by lease: if the lease's head launch
/// had announced `KernelReady` before the kill, the recovered core still
/// holds that residency/waiter entry — a clearing `KernelFinished` is fed
/// exactly once before the re-runs, mirroring the eviction the crash
/// implied.
fn adopt_session(shared: &Arc<DaemonShared>, session: u64, jobs: Vec<Launch>) {
    let mut by_lease: Vec<(u64, Vec<Launch>)> = Vec::new();
    for job in jobs {
        match by_lease.iter_mut().find(|(lease, _)| *lease == job.lease) {
            Some((_, queue)) => queue.push(job),
            None => by_lease.push((job.lease, vec![job])),
        }
    }
    for (lease, queue) in by_lease {
        if queue[0].ready {
            shared.arb.finish(lease, false);
        }
        for job in queue {
            if let Err(e) = execute(shared, job) {
                shared
                    .recovery
                    .lock()
                    .entry(session)
                    .or_default()
                    .errors
                    .push(e);
            }
        }
    }
}
