//! Session threads: one per connected client process (§IV-A2), holding
//! the pointer-mapping hash table of §IV-A1 and the session's stream
//! lanes, and serving its command pipe until the client leaves — then
//! parked for the next client ([`SessionPool`]), so session churn costs
//! a hand-off, not a thread.

use super::exec::{execute, panic_text, Ended, Launch};
use super::{Connection, DaemonShared, SlateDaemon};
use crate::arbiter::Event as ArbEvent;
use crate::channel::{HostBuf, KernelFactory, LaunchCmd, Request, Response, SlatePtr};
use crate::durability::{SessionMeta, WalRecord};
use crate::error::SlateError;
use crate::sync::{Condvar, Mutex};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use slate_gpu_sim::buffer::{DevicePtr, GpuBuffer};
use slate_gpu_sim::fault::{FaultKind, FaultSite};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-session state: the pointer-mapping hash table of §IV-A1, plus the
/// launch-id dedupe of a crash-resumed session.
#[derive(Default)]
pub(super) struct SessionState {
    ptr_map: HashMap<SlatePtr, DevicePtr>,
    next_ptr: u64,
    /// Launch ids whose work is already done (per the WAL) or adopted
    /// from the crash scene: a resumed client's blind resubmission of
    /// these is acknowledged without re-execution.
    dedupe: BTreeSet<u64>,
}

impl SessionState {
    pub(super) fn fresh(session: u64) -> Self {
        Self {
            next_ptr: session << 32,
            ..Self::default()
        }
    }

    /// Rebuilds the state of a crashed session from its durable metadata:
    /// the pointer map is restored entry for entry (device memory
    /// survived in the [`CrashScene`](super::CrashScene) pool), the
    /// pointer watermark never regresses below any pointer ever handed
    /// out, and the dedupe set is completed-ids ∪ `adopted` ids.
    pub(super) fn restore(session: u64, meta: &SessionMeta, adopted: &BTreeSet<u64>) -> Self {
        Self {
            ptr_map: meta
                .allocs
                .iter()
                .map(|(&p, a)| (SlatePtr(p), DevicePtr(a.device_ptr)))
                .collect(),
            next_ptr: meta.next_ptr.max((session << 32) + 1) - 1,
            dedupe: meta.done.iter().chain(adopted).copied().collect(),
        }
    }
}

/// A message for a stream lane's in-order queue: either a kernel launch
/// (admitted at request time; the lane's [`execute`] completes it) or a
/// sync barrier carrying the channel to acknowledge on.
enum LaneMsg {
    Job(Launch),
    Barrier(Sender<()>),
}

/// One non-default CUDA stream of a session: its own in-order queue served
/// by a dedicated thread (the paper's per-(process, stream) queues).
/// Launches and barriers share a single FIFO, so a barrier acknowledges
/// only after every launch enqueued before it has executed.
struct StreamLane {
    tx: Sender<LaneMsg>,
    handle: JoinHandle<()>,
}

fn spawn_stream_lane(
    shared: Arc<DaemonShared>,
    errors: Arc<Mutex<Vec<SlateError>>>,
    done: Arc<AtomicU64>,
) -> StreamLane {
    let (tx, rx) = unbounded::<LaneMsg>();
    let handle = std::thread::spawn(move || {
        while let Ok(msg) = rx.recv() {
            match msg {
                LaneMsg::Job(launch) => match execute(&shared, launch) {
                    Ok(Ended::Done) => {
                        done.fetch_add(1, Ordering::Release);
                    }
                    Ok(Ended::Parked) => {}
                    Err(e) => errors.lock().push(e),
                },
                LaneMsg::Barrier(ack) => {
                    let _ = ack.send(());
                }
            }
        }
    });
    StreamLane { tx, handle }
}

/// How a session ended, when a request ended it.
enum Exit {
    /// The client said goodbye (`Disconnect`).
    Clean,
    /// The daemon crashed under us: exit silently, preserving all state
    /// for recovery (no frees, no close event, no farewell).
    Crashed,
}

/// One session's serving thread. Dropping it ends the session, whichever
/// way the thread leaves [`Session::serve`].
struct Session {
    shared: Arc<DaemonShared>,
    id: u64,
    user: String,
    st: SessionState,
    tx: Sender<Response>,
    lanes: HashMap<u32, StreamLane>,
    /// Every launch error since the last `Sync`, in the order they
    /// occurred — refused, shed or failed on this thread, failed on a
    /// lane, or raised by the adoption pass — which the next `Sync`
    /// replies.
    launch_errors: Arc<Mutex<Vec<SlateError>>>,
    /// The connection's completion watermark ([`Connection::done`]).
    done: Arc<AtomicU64>,
    /// `None` while serving — and still `None` when the thread leaves
    /// because the client vanished (process died, dropped its sender, an
    /// injected `ChannelDrop`) or because it is unwinding from a panic:
    /// the session is then reaped.
    exit: Option<Exit>,
}

/// How long a thread that finished a session stays parked for the next
/// one. Long enough to bridge back-to-back lifecycles (and a scheduler
/// hiccup between them), short enough that a burst's threads and their
/// stacks do not outlast it by much.
const PARK_IDLE: Duration = Duration::from_millis(200);

/// A session ready to be served: the serving half and its command pipe.
type Handoff = (Session, Receiver<Request>);

/// The daemon's session threads between sessions (`DESIGN.md` §8). A
/// thread that finished a session parks here; a new session is handed to
/// a parked thread when there is one and gets a thread of its own when
/// there is none, so it never waits behind another session and the
/// threads alive never exceed the peak of concurrently live sessions.
/// Nobody holds a thread's `JoinHandle`: a thread leaves by itself after
/// [`PARK_IDLE`] without work, or at once when the daemon handle is
/// dropped, and a parked thread holds nothing of the daemon but this pool.
#[derive(Default)]
pub(super) struct SessionPool {
    state: Mutex<PoolState>,
    /// Signalled on every hand-off and on [`SessionPool::close`].
    wake: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// Parked threads no hand-off has claimed. Threads waiting in
    /// [`SessionPool::park`] = `idle + handed.len()`, always.
    idle: usize,
    /// Sessions handed to a claimed thread and not yet picked up. Each
    /// was paid for with one `idle`, so each has a thread coming; which
    /// parked thread takes which is immaterial.
    handed: VecDeque<Handoff>,
    /// The daemon handle is gone: parked threads leave, nobody parks.
    closed: bool,
}

/// Counts its session out of `active_sessions` when dropped — by the
/// session's thread once it is parked again, or by the unwinding of a
/// panic that takes the thread with it — so the shutdown drain,
/// [`SlateDaemon::join`] and [`SlateDaemon::crash`] always hear of a
/// session's end, and hear of it only when its thread can be claimed
/// again.
struct Served(Arc<DaemonShared>);

impl Drop for Served {
    fn drop(&mut self) {
        *self.0.active_sessions.lock() -= 1;
        self.0.session_drained.notify_all();
    }
}

impl SessionPool {
    /// Starts serving `session`: on a parked thread if one can be claimed
    /// under the pool's lock, on a new thread otherwise.
    fn serve(self: &Arc<Self>, session: Session, rx: Receiver<Request>) {
        let mut st = self.state.lock();
        if st.idle > 0 {
            st.idle -= 1;
            st.handed.push_back((session, rx));
            drop(st);
            self.wake.notify_one();
            return;
        }
        drop(st);
        let pool = self.clone();
        std::thread::Builder::new()
            .name("slate-session".to_string())
            .spawn(move || {
                let mut next = Some((session, rx));
                // A panic that unwinds out of `serve` ends this thread;
                // the pool never counted it while it served, and the
                // unwinding closes the session and counts it out.
                while let Some((session, rx)) = next {
                    let served = Served(session.shared.clone());
                    session.serve(rx);
                    next = pool.park(served);
                }
            })
            .expect("spawn session thread");
    }

    /// Parks the calling thread, which just finished `served`'s session,
    /// until a session is handed to it; `None` once it sat idle for
    /// [`PARK_IDLE`] or the daemon handle is gone.
    fn park(&self, served: Served) -> Option<Handoff> {
        let mut st = self.state.lock();
        if st.closed {
            return None;
        }
        st.idle += 1;
        // Claimable first, counted out second: whoever waited for this
        // session to end finds its thread parked.
        drop(st);
        drop(served);
        let deadline = Instant::now() + PARK_IDLE;
        let mut st = self.state.lock();
        loop {
            if let Some(handoff) = st.handed.pop_front() {
                return Some(handoff);
            }
            if st.closed || Instant::now() >= deadline {
                st.idle -= 1;
                return None;
            }
            self.wake.wait_until(&mut st, deadline);
        }
    }

    /// Sends every parked thread home; called when the daemon handle is
    /// dropped. Sessions still being served finish on their threads,
    /// which then leave instead of parking.
    pub(super) fn close(&self) {
        self.state.lock().closed = true;
        self.wake.notify_all();
    }

    /// Poisoned-lock recoveries of the pool's lock, for
    /// [`DaemonMetrics::lock_recoveries`](crate::admission::DaemonMetrics).
    pub(super) fn lock_recoveries(&self) -> u64 {
        self.state.recoveries()
    }
}

impl SlateDaemon {
    /// Puts `session` on a thread (one per process for as long as the
    /// process stays connected — §IV-A2) and hands back the client's end
    /// of its pipes and its completion watermark. `launch_floor` is
    /// `Some` for a session resumed after a crash.
    pub(super) fn spawn_session(
        &self,
        session: u64,
        user: String,
        st: SessionState,
        launch_floor: Option<u64>,
    ) -> Connection {
        let (tx_req, rx_req) = unbounded::<Request>();
        let (tx_resp, rx_resp) = unbounded::<Response>();
        let done = Arc::new(AtomicU64::new(0));
        *self.shared.active_sessions.lock() += 1;
        let serving = Session {
            shared: self.shared.clone(),
            id: session,
            user,
            st,
            tx: tx_resp,
            lanes: HashMap::new(),
            launch_errors: Arc::default(),
            done: done.clone(),
            exit: None,
        };
        self.pool.serve(serving, rx_req);
        Connection {
            session,
            epoch: self.epoch(),
            launch_floor: launch_floor.unwrap_or(0),
            tx: tx_req,
            rx: rx_resp,
            done,
            resumed: launch_floor.is_some(),
        }
    }
}

impl Session {
    fn serve(mut self, rx: Receiver<Request>) {
        let shared = self.shared.clone();
        // A session resumed after a crash: its adopted launches finish
        // before any new request runs, so adopted and replayed work never
        // interleave on a lease; their errors surface at the client's next
        // synchronize like any launch error.
        let adoption = shared
            .recovery
            .lock()
            .get_mut(&self.id)
            .and_then(|r| r.thread.take());
        if let Some(h) = adoption {
            let _ = h.join();
        }
        if let Some(r) = shared.recovery.lock().get_mut(&self.id) {
            self.launch_errors.lock().append(&mut r.errors);
        }
        while self.exit.is_none() {
            // Bounded recv so a crash can't leave this thread parked
            // forever on a quiet client.
            let req = match rx.recv_timeout(Duration::from_millis(5)) {
                Ok(req) => req,
                Err(RecvTimeoutError::Timeout) => {
                    if shared.arb.crashed() {
                        self.exit = Some(Exit::Crashed);
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            };
            if shared.arb.crashed() {
                // The kill point precedes this request: it never happened.
                self.exit = Some(Exit::Crashed);
                return;
            }
            // Injected channel drop: sever both pipes mid-request, as if
            // the client process died. The reap cleans up.
            if let Some(FaultKind::ChannelDrop) =
                shared.faults.lock().fire(FaultSite::Request, None)
            {
                return;
            }
            let reply = match self.handle(req) {
                Ok(None) => continue,
                Ok(Some(reply)) => reply,
                Err(e) => Response::Err(e),
            };
            if self.tx.send(reply).is_err() {
                // The client's receiver is gone: reap.
                return;
            }
        }
    }

    /// Serves one request. `Ok(None)` sends no reply: a launch, whose error
    /// waits for the next `Sync`, or a request that ended the session
    /// (`self.exit` says how).
    fn handle(&mut self, req: Request) -> Result<Option<Response>, SlateError> {
        let session = self.id;
        Ok(Some(match req {
            Request::Malloc(bytes) => Response::Ptr(self.malloc(bytes)?),
            Request::Free(p) => {
                let dev = self
                    .st
                    .ptr_map
                    .remove(&p)
                    .ok_or(SlateError::InvalidPointer { ptr: p.0 })?;
                // Log the free *before* releasing the backing store: a
                // crash in between leaks pool bytes (harmless), while the
                // opposite order would resurrect a dangling pointer into a
                // resumed session's map.
                self.shared.wal(WalRecord::Free {
                    session,
                    slate_ptr: p.0,
                });
                self.shared
                    .pool
                    .lock()
                    .free(dev)
                    .map_err(SlateError::Other)?;
                Response::Ok
            }
            // The checked run, lent: the client writes it on its own
            // thread (`channel.rs`), so this thread touches no byte.
            Request::MemcpyH2D { ptr, offset, len } => {
                Response::Run(self.memcpy_target(ptr, offset, len, false)?)
            }
            Request::MemcpyD2H {
                ptr,
                offset,
                len,
                mut into,
            } => {
                let words = matches!(into, HostBuf::F32(_));
                let buf = self.memcpy_target(ptr, offset, len, words)?;
                // Into the client's vector: it was allocated on the
                // client's thread and is freed there (`channel.rs`).
                match &mut into {
                    HostBuf::Bytes(dst) => buf.append_bytes(offset, len, dst),
                    HostBuf::F32(dst) => buf.append_f32(offset / 4, len / 4, dst),
                }
                Response::Data(into)
            }
            Request::Launch(cmd, factory) => {
                if let Err(e) = self.launch(cmd, factory) {
                    self.launch_errors.lock().push(e);
                }
                return Ok(None);
            }
            Request::Sync => {
                // Fence every stream lane, then reply every collected error.
                for lane in self.lanes.values() {
                    let (ack_tx, ack_rx) = unbounded::<()>();
                    if lane.tx.send(LaneMsg::Barrier(ack_tx)).is_ok() {
                        let _ = ack_rx.recv();
                    }
                }
                Response::Fenced(std::mem::take(&mut *self.launch_errors.lock()))
            }
            Request::Disconnect => {
                self.exit = Some(Exit::Clean);
                return Ok(None);
            }
        }))
    }

    fn malloc(&mut self, bytes: u64) -> Result<SlatePtr, SlateError> {
        let (shared, session) = (&self.shared, self.id);
        let (used, capacity) = {
            let pool = shared.pool.lock();
            (pool.used(), pool.capacity())
        };
        let request = ArbEvent::MallocRequested {
            session,
            used,
            capacity,
            bytes,
        };
        shared.arb.submit(&[request], session, None)?;
        let dev = shared
            .pool
            .lock()
            .alloc(bytes)
            .map_err(|_| SlateError::OutOfMemory { requested: bytes })?;
        self.st.next_ptr += 1;
        let p = SlatePtr(self.st.next_ptr);
        self.st.ptr_map.insert(p, dev);
        shared.wal(WalRecord::Alloc {
            session,
            slate_ptr: p.0,
            device_ptr: dev.0,
            bytes,
        });
        Ok(p)
    }

    fn resolve(&self, ptr: SlatePtr) -> Result<Arc<GpuBuffer>, SlateError> {
        let dev = self
            .st
            .ptr_map
            .get(&ptr)
            .ok_or(SlateError::InvalidPointer { ptr: ptr.0 })?;
        self.shared
            .pool
            .lock()
            .buffer(*dev)
            .map_err(SlateError::Other)
    }

    /// The buffer behind `ptr`, once `[offset, offset + len)` is known to
    /// be word-aligned (`len` too, when the copy moves `words`) and inside
    /// it. Offset and length are the client's: out of range they are a
    /// typed error here, before the device run is touched or lent — never
    /// the buffer's own assertion on this thread or the client's.
    fn memcpy_target(
        &self,
        ptr: SlatePtr,
        offset: usize,
        len: usize,
        words: bool,
    ) -> Result<Arc<GpuBuffer>, SlateError> {
        // Applies an injected memcpy stall, if the plan has one armed.
        if let Some(FaultKind::MemcpyStall { millis }) =
            self.shared.faults.lock().fire(FaultSite::Memcpy, None)
        {
            std::thread::sleep(Duration::from_millis(millis));
        }
        let buf = self.resolve(ptr)?;
        // The bytes asked for at `malloc`, not the words backing them: the
        // slack of a trailing partial word is not the client's.
        let size = buf.len();
        let why = if offset % 4 != 0 || (words && len % 4 != 0) {
            "is not word-aligned"
        } else if offset.checked_add(len).is_none_or(|end| end > size) {
            "is out of bounds"
        } else {
            return Ok(buf);
        };
        Err(SlateError::InvalidValue(format!(
            "memcpy of {len} bytes at offset {offset} {why} (allocation of {size} bytes)"
        )))
    }

    /// Prepares, admits and starts one launch: in order on this thread for
    /// the default stream, on its lane for any other.
    fn launch(&mut self, cmd: LaunchCmd, factory: KernelFactory) -> Result<(), SlateError> {
        let (shared, session) = (&self.shared, self.id);
        if self.st.dedupe.contains(&cmd.launch_id) {
            // A resumed client's blind resubmission of work that already
            // completed (per the WAL) or was adopted from the crash scene:
            // idempotent, nothing to do but count it done. An adopted
            // launch's error still surfaces: a resumed connection's first
            // fence is always sent.
            self.done.fetch_add(1, Ordering::Release);
            return Ok(());
        }
        // Resolve the client's pointers through the session hash table and
        // build the kernel. The factory and the kernel's accessors are the
        // client's code: a panic in them fails this launch, not the thread.
        let buffers = cmd
            .ptrs
            .iter()
            .map(|&p| self.resolve(p))
            .collect::<Result<Vec<_>, _>>()?;
        let (kernel, est_ms) = catch_unwind(AssertUnwindSafe(|| {
            let kernel = factory(buffers);
            let (name, blocks) = (kernel.name(), kernel.grid().total_blocks());
            let est_ms = shared.profiles.lock().estimate_solo_ms(name, blocks);
            (kernel, est_ms)
        }))
        .map_err(|panic| {
            SlateError::Launch(format!(
                "kernel factory panicked: {}",
                panic_text(panic.as_ref())
            ))
        })?;
        // Source injection through the per-user cache (the NVRTC stage).
        if let Some(src) = &cmd.source {
            shared
                .injector
                .lock()
                .get_or_inject(&self.user, src, cmd.task_size);
        }
        // Admission: bounded pending-launch queues (per session and
        // global) plus an up-front deadline feasibility check against the
        // estimated queue wait. A shed launch's Overloaded waits, like any
        // launch error, for the client's next synchronize. The admission record rides in
        // the request's feed, as `connect`'s session record does: one
        // `write`, and none for a shed launch.
        let lease = (session << 16) | cmd.stream as u64;
        let launch_id = cmd.launch_id;
        let request = ArbEvent::LaunchRequested {
            session,
            lease,
            est_ms,
            deadline_ms: cmd.deadline_ms,
        };
        let admitted = WalRecord::LaunchAdmitted {
            session,
            launch_id,
            lease,
        };
        if !shared.arb.submit(&[request], session, Some(admitted))? {
            // Crashed before admission: the launch never happened; the
            // resumed client will resubmit.
            self.exit = Some(Exit::Crashed);
            return Ok(());
        }
        let launch = Launch {
            lease,
            launch_id,
            kernel,
            task_size: cmd.task_size,
            pinned_solo: cmd.pinned_solo,
            deadline_ms: cmd.deadline_ms,
            progress: 0,
            ready: false,
        };
        if cmd.stream == 0 {
            if execute(shared, launch)? == Ended::Done {
                self.done.fetch_add(1, Ordering::Release);
            }
            return Ok(());
        }
        let lane = self.lanes.entry(cmd.stream).or_insert_with(|| {
            spawn_stream_lane(
                shared.clone(),
                self.launch_errors.clone(),
                self.done.clone(),
            )
        });
        let _ = lane.tx.send(LaneMsg::Job(launch));
        Ok(())
    }

    /// Ends the session: a clean `Disconnect` and a reap differ only in the
    /// farewell and the close event. Drains stream lanes, reclaims device
    /// memory and releases any arbiter residency (the surviving co-runner
    /// regrows to the full device).
    fn close(&mut self) {
        // Lanes are joined on every exit path, first, so no launch of this
        // session is in flight when the core sees the close; on a crash
        // their queued jobs drain through `execute`, which parks each one
        // in the crash scene (in order) instead of running it.
        for (_, lane) in self.lanes.drain() {
            drop(lane.tx);
            let _ = lane.handle.join();
        }
        let (shared, session) = (&self.shared, self.id);
        if matches!(self.exit, Some(Exit::Crashed)) || shared.arb.crashed() {
            // Crashed: the session is *not* over — its memory, its arbiter
            // residency (as recorded in the WAL) and its in-flight
            // launches all carry over to the recovered daemon. Touch
            // nothing.
            return;
        }
        // Free everything the client leaked (process teardown).
        {
            let mut pool = shared.pool.lock();
            for (_, dev) in self.st.ptr_map.drain() {
                let _ = pool.free(dev);
            }
        }
        let clean = self.exit.is_some();
        let event = if clean {
            ArbEvent::SessionClosed { session }
        } else {
            ArbEvent::SessionSevered { session }
        };
        // A close sheds nothing; the close record rides in its feed.
        let _ = shared.arb.submit(
            &[event],
            session,
            Some(WalRecord::SessionClosed { session }),
        );
        // The farewell goes out last: a client that saw its disconnect
        // succeed finds the session closed in the core and the WAL.
        if clean {
            let _ = self.tx.send(Response::Ok);
        }
    }
}

impl Drop for Session {
    /// Runs however the thread leaves [`Session::serve`] — a return or a
    /// panic unwinding it — so the session is always closed (or, after a
    /// crash, preserved).
    fn drop(&mut self) {
        self.close();
    }
}
