//! The Slate client API (paper §IV-A1).
//!
//! "The *Slate* API acts as a wrapper for basic CUDA functions" — this is
//! the library an application links instead of the CUDA runtime. Every call
//! round-trips the command pipe to the daemon except kernel launches, which
//! are asynchronous exactly like CUDA launches; `synchronize` drains them.
//!
//! | CUDA | Slate |
//! |------|-------|
//! | `cudaMalloc` | [`SlateClient::malloc`] |
//! | `cudaFree` | [`SlateClient::free`] |
//! | `cudaMemcpy(H2D)` | [`SlateClient::memcpy_h2d`] |
//! | `cudaMemcpy(D2H)` | [`SlateClient::memcpy_d2h`] |
//! | `<<<grid, block>>>` | [`SlateClient::launch_with`] |
//! | `cudaDeviceSynchronize` | [`SlateClient::synchronize`] |

use crate::channel::{HostBuf, KernelFactory, LaunchCmd, Request, Response, SlatePtr};
use crate::daemon::{Connection, ResumeToken, SlateDaemon};
use crate::error::SlateError;
use bytes::Bytes;
use slate_gpu_sim::buffer::GpuBuffer;
use slate_kernels::kernel::GpuKernel;
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A kernel factory that can be invoked more than once — the requirement
/// for a launch to be crash-replayable: if the daemon dies before
/// acknowledging the work, the client resubmits the launch (same id)
/// after [`SlateDaemon::resume`], and the daemon rebuilds the kernel.
pub(crate) type ReplayFactory =
    Arc<dyn Fn(Vec<Arc<GpuBuffer>>) -> Arc<dyn GpuKernel> + Send + Sync + 'static>;

/// The one-shot factory the wire carries for one (re)submission of a
/// replayable launch.
fn once(factory: &ReplayFactory) -> KernelFactory {
    let f = factory.clone();
    Box::new(move |bufs| f(bufs))
}

/// Draws the next decorrelated-jitter backoff: uniformly random in
/// `[base, 3 * prev]`, clamped to `[base, cap]`. Unlike full jitter this
/// keeps a memory of the previous sleep (`prev`), so the expected backoff
/// still grows geometrically while synchronized clients spread out —
/// the cure for the thundering herd after a shed or daemon restart.
///
/// `rng_state` is a caller-held xorshift64* state; seed it once (any
/// value) and pass it back for each draw. Deterministic for a fixed seed.
pub fn decorrelated_jitter(
    base: Duration,
    prev: Duration,
    cap: Duration,
    rng_state: &mut u64,
) -> Duration {
    fn xorshift64star(state: &mut u64) -> u64 {
        let mut x = *state | 1; // the all-zero state is a fixpoint; avoid it
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    let base_n = base.as_nanos().min(u128::from(u64::MAX)) as u64;
    let prev_n = prev.as_nanos().min(u128::from(u64::MAX)) as u64;
    let cap_n = cap.as_nanos().min(u128::from(u64::MAX)) as u64;
    let span = prev_n
        .saturating_mul(3)
        .saturating_sub(base_n)
        .saturating_add(1);
    let drawn = base_n.saturating_add(xorshift64star(rng_state) % span);
    Duration::from_nanos(drawn.clamp(base_n.min(cap_n), cap_n))
}

/// Opt-in bounded retry for transient daemon rejections (see
/// [`SlateError::is_transient`]). Without a jitter seed, retries sleep
/// `base_delay * 2^attempt`, capped at `max_delay`; with one, sleeps are
/// drawn by [`decorrelated_jitter`] instead. Either way, a
/// [`SlateError::Overloaded`] rejection's `retry_after_ms` hint is honored
/// as a floor on the sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retry).
    pub(crate) max_attempts: u32,
    /// Backoff before the first retry.
    pub(crate) base_delay: Duration,
    /// Ceiling for the exponential backoff.
    pub(crate) max_delay: Duration,
    /// Seed for decorrelated-jitter backoff; `None` keeps the plain
    /// deterministic exponential schedule.
    pub(crate) jitter_seed: Option<u64>,
}

impl RetryPolicy {
    /// `max_attempts` tries with backoff doubling from 1 ms up to 100 ms.
    pub fn with_attempts(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
            jitter_seed: None,
        }
    }

    /// Enables decorrelated-jitter backoff under `seed` (builder style).
    /// Different clients should use different seeds — that is the point.
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }

    /// Backoff to sleep before retry number `retry` (0-based) on the
    /// plain exponential schedule (ignores the jitter seed).
    pub(crate) fn delay_for(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.min(16);
        self.base_delay.saturating_mul(factor).min(self.max_delay)
    }

    /// Runs `op` up to `max_attempts` times, sleeping the backoff between
    /// attempts, retrying only while the error is transient. An
    /// [`SlateError::Overloaded`] rejection's `retry_after_ms` floors the
    /// sleep: the daemon knows its backlog better than the client does.
    pub(crate) fn run<T>(
        &self,
        mut op: impl FnMut() -> Result<T, SlateError>,
    ) -> Result<T, SlateError> {
        let mut retry = 0;
        let mut rng = self.jitter_seed.map(|s| s ^ 0x9e37_79b9_7f4a_7c15);
        let mut prev = self.base_delay;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && retry + 1 < self.max_attempts => {
                    let mut delay = match rng.as_mut() {
                        Some(state) => {
                            let d =
                                decorrelated_jitter(self.base_delay, prev, self.max_delay, state);
                            prev = d;
                            d
                        }
                        None => self.delay_for(retry),
                    };
                    if let SlateError::Overloaded { retry_after_ms } = e {
                        delay = delay.max(Duration::from_millis(retry_after_ms));
                    }
                    std::thread::sleep(delay);
                    retry += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Circuit-breaker observable states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// The breaker tripped; requests fail fast with
    /// [`SlateError::Overloaded`] until the cooldown elapses.
    Open,
    /// Cooldown elapsed: the next request probes the daemon. Success
    /// closes the breaker; another overload reopens it for a full
    /// cooldown.
    HalfOpen,
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive overload-class errors (`SlateError::is_overload`:
    /// `Overloaded` or `Timeout`) that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before the half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown: Duration::from_millis(100),
        }
    }
}

/// A client-side circuit breaker: after `failure_threshold` consecutive
/// overload-class errors it opens and fails fast — the kindest thing a
/// client can do for a saturated daemon is stop hammering it. Single
/// threaded (`Cell`-based), like [`SlateClient`] itself.
#[derive(Debug)]
pub(crate) struct CircuitBreaker {
    config: BreakerConfig,
    consecutive: Cell<u32>,
    opened_at: Cell<Option<Instant>>,
}

impl CircuitBreaker {
    /// A closed breaker under `config`.
    pub(crate) fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            consecutive: Cell::new(0),
            opened_at: Cell::new(None),
        }
    }

    /// The current state (time-dependent: an open breaker becomes
    /// half-open once the cooldown elapses).
    pub(crate) fn state(&self) -> BreakerState {
        match self.opened_at.get() {
            None => BreakerState::Closed,
            Some(t) if t.elapsed() < self.config.cooldown => BreakerState::Open,
            Some(_) => BreakerState::HalfOpen,
        }
    }

    /// Gate for an outgoing request: `Err` (fail fast, with the remaining
    /// cooldown as the retry hint) while open, `Ok` when closed or
    /// half-open (the probe is allowed through).
    pub(crate) fn check(&self) -> Result<(), SlateError> {
        match self.state() {
            BreakerState::Open => {
                let opened = self.opened_at.get().expect("open implies opened_at");
                let remaining = self.config.cooldown.saturating_sub(opened.elapsed());
                Err(SlateError::Overloaded {
                    retry_after_ms: (remaining.as_millis() as u64).max(1),
                })
            }
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
        }
    }

    /// Feeds a request outcome into the state machine. Successes close
    /// the breaker; overload-class errors count toward the threshold (and
    /// immediately reopen a half-open breaker); other errors reset the
    /// streak — the daemon answered, it is not saturated.
    pub(crate) fn record<T>(&self, outcome: &Result<T, SlateError>) {
        match outcome {
            Ok(_) => {
                self.consecutive.set(0);
                self.opened_at.set(None);
            }
            Err(e) if e.is_overload() => {
                let n = self.consecutive.get() + 1;
                self.consecutive.set(n);
                let reopen = matches!(self.state(), BreakerState::HalfOpen);
                if reopen || n >= self.config.failure_threshold {
                    self.opened_at.set(Some(Instant::now()));
                }
            }
            Err(_) => {
                self.consecutive.set(0);
            }
        }
    }
}

/// A client connection to the Slate daemon, wrapping the command pipe with
/// the CUDA-like API surface.
pub struct SlateClient {
    conn: RefCell<Connection>,
    pending_launches: Cell<u64>,
    /// Next client-assigned launch id; monotonic for the session's
    /// lifetime, across crash resumptions.
    next_launch_id: Cell<u64>,
    /// Replayable launches not yet confirmed by a `synchronize`,
    /// resubmitted verbatim (same ids) after a crash resumption.
    pending_replay: RefCell<Vec<(LaunchCmd, ReplayFactory)>>,
    /// Daemon to resume against when the connection dies mid-call (set by
    /// [`SlateClient::install_reattach`]).
    reattach_to: RefCell<Option<Arc<SlateDaemon>>>,
    retry: Option<RetryPolicy>,
    breaker: Option<CircuitBreaker>,
    /// Errors surfaced by the most recent `synchronize` (first one is
    /// returned; the rest are counted here).
    last_sync_failures: Cell<u64>,
}

impl SlateClient {
    /// Wraps a daemon connection.
    pub fn new(conn: Connection) -> Self {
        Self {
            next_launch_id: Cell::new(conn.launch_floor),
            conn: RefCell::new(conn),
            pending_launches: Cell::new(0),
            pending_replay: RefCell::new(Vec::new()),
            reattach_to: RefCell::new(None),
            retry: None,
            breaker: None,
            last_sync_failures: Cell::new(0),
        }
    }

    /// Enables bounded retry with exponential backoff for transient
    /// errors on the synchronous requests — `malloc`, `free` and the
    /// memcpys (builder style; off by default).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Installs a client-side circuit breaker (builder style; off by
    /// default): consecutive `Overloaded`/`Timeout` outcomes open it and
    /// subsequent requests fail fast with [`SlateError::Overloaded`]
    /// without touching the daemon, until the cooldown's half-open probe.
    pub fn with_circuit_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(CircuitBreaker::new(config));
        self
    }

    /// The circuit breaker's current state, if one is installed.
    #[cfg(test)]
    pub(crate) fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(|b| b.state())
    }

    /// The daemon-assigned session id.
    pub fn session(&self) -> u64 {
        self.conn.borrow().session
    }

    /// The token that reattaches this session after a daemon crash:
    /// redeem it with [`SlateDaemon::resume`] (or let
    /// [`SlateClient::install_reattach`] do so automatically) once the
    /// daemon has been recovered from its durable log.
    #[doc(hidden)]
    pub fn resume_token(&self) -> ResumeToken {
        let conn = self.conn.borrow();
        ResumeToken {
            epoch: conn.epoch,
            session: conn.session,
        }
    }

    /// Arms transparent crash reattachment: when a call finds the
    /// connection dead, the client redeems its resume token against
    /// `daemon` (the *recovered* instance — hand the client the new
    /// `Arc` after [`SlateDaemon::recover`]), resubmits every
    /// unconfirmed replayable launch under its original id (the daemon
    /// deduplicates ones whose work survived), and retries the call once.
    pub fn install_reattach(&self, daemon: &Arc<SlateDaemon>) {
        *self.reattach_to.borrow_mut() = Some(daemon.clone());
    }

    /// Redeems the resume token against the installed daemon, swaps the
    /// connection, and resubmits unconfirmed replayable launches.
    fn reattach(&self) -> Result<(), SlateError> {
        let daemon = self
            .reattach_to
            .borrow()
            .clone()
            .ok_or(SlateError::Disconnected)?;
        let fresh = daemon.resume(self.resume_token())?;
        self.next_launch_id
            .set(self.next_launch_id.get().max(fresh.launch_floor));
        *self.conn.borrow_mut() = fresh;
        let conn = self.conn.borrow();
        for (cmd, factory) in self.pending_replay.borrow().iter() {
            conn.tx
                .send(Request::Launch(cmd.clone(), once(factory)))
                .map_err(|_| SlateError::Disconnected)?;
        }
        Ok(())
    }

    /// Runs `op` against the live connection; on [`SlateError::Disconnected`]
    /// with reattachment installed, resumes the session and retries once.
    fn with_reattach<T>(
        &self,
        op: impl Fn(&Connection) -> Result<T, SlateError>,
    ) -> Result<T, SlateError> {
        let first = op(&self.conn.borrow());
        match first {
            Err(SlateError::Disconnected) if self.reattach_to.borrow().is_some() => {
                self.reattach()?;
                let conn = self.conn.borrow();
                op(&conn)
            }
            out => out,
        }
    }

    fn call(&self, req: impl Fn() -> Request) -> Result<Response, SlateError> {
        self.with_reattach(|conn| {
            conn.tx.send(req()).map_err(|_| SlateError::Disconnected)?;
            conn.rx.recv().map_err(|_| SlateError::Disconnected)
        })
    }

    /// Runs `op` under the configured retry policy, if any. Only applied
    /// to operations that are safe to re-issue: a transient rejection
    /// means the daemon did not perform them.
    fn retrying<T>(&self, mut op: impl FnMut() -> Result<T, SlateError>) -> Result<T, SlateError> {
        match &self.retry {
            Some(policy) => policy.run(&mut op),
            None => op(),
        }
    }

    /// Runs `op` behind the circuit breaker (if installed) and under the
    /// retry policy (if configured): an open breaker fails fast without
    /// touching the daemon; the final outcome feeds the breaker.
    fn guarded<T>(&self, op: impl FnMut() -> Result<T, SlateError>) -> Result<T, SlateError> {
        if let Some(b) = &self.breaker {
            b.check()?;
        }
        let out = self.retrying(op);
        if let Some(b) = &self.breaker {
            b.record(&out);
        }
        out
    }

    /// Allocates `bytes` bytes of device memory (`cudaMalloc`).
    pub fn malloc(&self, bytes: u64) -> Result<SlatePtr, SlateError> {
        self.guarded(|| self.call(|| Request::Malloc(bytes))?.expect_ptr())
    }

    /// Frees a device allocation (`cudaFree`).
    pub fn free(&self, ptr: SlatePtr) -> Result<(), SlateError> {
        self.guarded(|| self.call(|| Request::Free(ptr))?.expect_ok())
    }

    /// Copies host bytes into device memory through a shared buffer.
    /// `offset` must be word-aligned.
    pub fn memcpy_h2d(&self, ptr: SlatePtr, offset: usize, data: Bytes) -> Result<(), SlateError> {
        self.guarded(|| {
            // Bytes clones are refcount-only; re-sending is cheap.
            self.call(|| Request::MemcpyH2D {
                ptr,
                offset,
                data: data.clone(),
            })?
            .expect_ok()
        })
    }

    /// Convenience: uploads a slice of f32s. One pass fills the payload
    /// (allocated once, at its final size), which the daemon then reads in
    /// place.
    pub fn upload_f32(&self, ptr: SlatePtr, data: &[f32]) -> Result<(), SlateError> {
        let words: Vec<[u8; 4]> = data.iter().map(|f| f.to_le_bytes()).collect();
        self.memcpy_h2d(ptr, 0, words.into_flattened().into())
    }

    /// Copies device memory back to the host. `offset` must be
    /// word-aligned. The vector returned is the one allocation of the
    /// payload: made here, at its final size, and filled by the daemon in
    /// one pass. It is reserved before the daemon checks the range, as a
    /// CUDA client owns its destination before it copies: `len` must be a
    /// length this process can hold.
    pub fn memcpy_d2h(
        &self,
        ptr: SlatePtr,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, SlateError> {
        match self.d2h(ptr, offset, len, || HostBuf::Bytes(Vec::with_capacity(len)))? {
            HostBuf::Bytes(bytes) => Ok(bytes),
            HostBuf::F32(_) => Err(SlateError::Other("expected bytes, got f32s".into())),
        }
    }

    /// Convenience: downloads `n` f32s. Like [`SlateClient::memcpy_d2h`],
    /// one allocation made here and one pass in the daemon: the device
    /// words land in the vector returned as `f32`s, with no byte vector
    /// between.
    pub fn download_f32(&self, ptr: SlatePtr, n: usize) -> Result<Vec<f32>, SlateError> {
        match self.d2h(ptr, 0, n * 4, || HostBuf::F32(Vec::with_capacity(n)))? {
            HostBuf::F32(words) => Ok(words),
            HostBuf::Bytes(_) => Err(SlateError::Other("expected f32s, got bytes".into())),
        }
    }

    /// One device-to-host copy into a destination from `into`. It is
    /// called once per send, inside the `call` closure, so a retry or a
    /// re-attach sends a fresh vector and never reuses one the daemon may
    /// have dropped.
    fn d2h(
        &self,
        ptr: SlatePtr,
        offset: usize,
        len: usize,
        into: impl Fn() -> HostBuf,
    ) -> Result<HostBuf, SlateError> {
        self.guarded(|| {
            self.call(|| Request::MemcpyD2H {
                ptr,
                offset,
                len,
                into: into(),
            })?
            .expect_data()
        })
    }

    /// Launches a kernel asynchronously. `ptrs` are resolved daemon-side
    /// and handed to `factory` in order; `source` optionally carries the
    /// CUDA text through the injection pipeline.
    pub fn launch_with<F>(
        &self,
        ptrs: Vec<SlatePtr>,
        task_size: u32,
        source: Option<String>,
        factory: F,
    ) -> Result<(), SlateError>
    where
        F: FnOnce(Vec<Arc<GpuBuffer>>) -> Arc<dyn GpuKernel> + Send + 'static,
    {
        let cmd = LaunchCmd {
            ptrs,
            task_size,
            source,
            ..LaunchCmd::default()
        };
        self.launch(cmd, Box::new(factory), None)
    }

    /// Like [`SlateClient::launch_with`] but with a *re-invocable*
    /// factory, which makes the launch crash-replayable: it is held
    /// client-side until a [`SlateClient::synchronize`] confirms it, and
    /// if the daemon dies before that, a reattached client (see
    /// [`SlateClient::install_reattach`]) resubmits it under its original
    /// launch id — the daemon deduplicates ids whose work survived the
    /// crash, so the kernel runs exactly once either way. `FnOnce`-based
    /// launches ([`SlateClient::launch_with`] and friends) cannot be
    /// resubmitted and are lost if the daemon crashes before running them.
    pub fn launch_replayable<F>(
        &self,
        ptrs: Vec<SlatePtr>,
        task_size: u32,
        source: Option<String>,
        factory: F,
    ) -> Result<(), SlateError>
    where
        F: Fn(Vec<Arc<GpuBuffer>>) -> Arc<dyn GpuKernel> + Send + Sync + 'static,
    {
        let cmd = LaunchCmd {
            ptrs,
            task_size,
            source,
            ..LaunchCmd::default()
        };
        let replay: ReplayFactory = Arc::new(factory);
        self.launch(cmd, once(&replay), Some(replay))
    }

    /// Like [`SlateClient::launch_with`] but arms the daemon's watchdog
    /// with a per-kernel deadline: if the kernel runs longer than
    /// `deadline_ms` milliseconds it is evicted from the device and the
    /// next [`SlateClient::synchronize`] surfaces
    /// [`SlateError::Timeout`]. Co-runners are unaffected.
    pub fn launch_with_deadline<F>(
        &self,
        ptrs: Vec<SlatePtr>,
        task_size: u32,
        deadline_ms: u64,
        factory: F,
    ) -> Result<(), SlateError>
    where
        F: FnOnce(Vec<Arc<GpuBuffer>>) -> Arc<dyn GpuKernel> + Send + 'static,
    {
        let cmd = LaunchCmd {
            ptrs,
            task_size,
            deadline_ms: Some(deadline_ms),
            ..LaunchCmd::default()
        };
        self.launch(cmd, Box::new(factory), None)
    }

    /// Launches a kernel on a CUDA stream. Launches on the same stream are
    /// ordered; launches on different non-zero streams may run
    /// concurrently. [`SlateClient::synchronize`] fences all streams.
    pub fn launch_on_stream<F>(
        &self,
        stream: u32,
        ptrs: Vec<SlatePtr>,
        task_size: u32,
        factory: F,
    ) -> Result<(), SlateError>
    where
        F: FnOnce(Vec<Arc<GpuBuffer>>) -> Arc<dyn GpuKernel> + Send + 'static,
    {
        let cmd = LaunchCmd {
            ptrs,
            task_size,
            stream,
            ..LaunchCmd::default()
        };
        self.launch(cmd, Box::new(factory), None)
    }

    /// Like [`SlateClient::launch_with`] but pins the kernel to solo
    /// execution — for heavily optimized library kernels that should never
    /// be co-scheduled (`#pragma slate solo`).
    pub fn launch_solo_with<F>(
        &self,
        ptrs: Vec<SlatePtr>,
        task_size: u32,
        source: Option<String>,
        factory: F,
    ) -> Result<(), SlateError>
    where
        F: FnOnce(Vec<Arc<GpuBuffer>>) -> Arc<dyn GpuKernel> + Send + 'static,
    {
        let cmd = LaunchCmd {
            ptrs,
            task_size,
            source,
            pinned_solo: true,
            ..LaunchCmd::default()
        };
        self.launch(cmd, Box::new(factory), None)
    }

    /// Assigns the launch id and sends `cmd`; with a `replay` factory the
    /// command is also kept until a `synchronize` confirms it.
    fn launch(
        &self,
        mut cmd: LaunchCmd,
        factory: KernelFactory,
        replay: Option<ReplayFactory>,
    ) -> Result<(), SlateError> {
        // Launches are asynchronous (no reply to feed back), but an open
        // breaker still fails them fast instead of piling work onto a
        // daemon that is already shedding.
        if let Some(b) = &self.breaker {
            b.check()?;
        }
        cmd.launch_id = self.next_launch_id.get();
        self.next_launch_id.set(cmd.launch_id + 1);
        let replayable = replay.is_some();
        if let Some(f) = replay {
            self.pending_replay.borrow_mut().push((cmd.clone(), f));
        }
        let sent = self
            .conn
            .borrow()
            .tx
            .send(Request::Launch(cmd, factory))
            .map_err(|_| SlateError::Disconnected);
        if sent.is_err() {
            if replayable && self.reattach_to.borrow().is_some() {
                // reattach() resubmits every pending replayable launch,
                // including the one recorded above.
                self.reattach()?;
            } else {
                // A consumed FnOnce factory cannot be resent; surface the
                // severed connection instead of silently dropping work.
                sent?;
            }
        }
        self.pending_launches.set(self.pending_launches.get() + 1);
        Ok(())
    }

    /// Blocks until every previously launched kernel has completed
    /// (`cudaDeviceSynchronize`). Surfaces the *first* launch error;
    /// additional failures from the same batch are counted in
    /// [`SlateClient::last_sync_failures`]. The outcome feeds the circuit
    /// breaker (if installed): this is where `Overloaded` sheds and
    /// watchdog `Timeout`s from asynchronous launches surface.
    pub fn synchronize(&self) -> Result<(), SlateError> {
        let out = self.synchronize_inner();
        if let Some(b) = &self.breaker {
            b.record(&out);
        }
        out
    }

    fn synchronize_inner(&self) -> Result<(), SlateError> {
        // The session thread serves requests in order, so one round trip
        // fences all prior launches. Failed launches reply with their error
        // ahead of the sync's Ok. A mid-sync daemon crash severs the pipe;
        // with reattachment installed the session is resumed, unconfirmed
        // replayable launches resubmitted, and the fence reissued.
        let (first, failures) = self.with_reattach(|conn| {
            conn.tx
                .send(Request::Sync)
                .map_err(|_| SlateError::Disconnected)?;
            let mut first: Option<SlateError> = None;
            let mut failures: u64 = 0;
            loop {
                match conn.rx.recv().map_err(|_| SlateError::Disconnected)? {
                    Response::Ok => break,
                    Response::Err(e) => {
                        failures += 1;
                        if first.is_none() {
                            first = Some(SlateError::from_wire(&e));
                        }
                    }
                    other => {
                        return Err(SlateError::Other(format!(
                            "unexpected sync response {other:?}"
                        )))
                    }
                }
            }
            Ok((first, failures))
        })?;
        self.pending_launches.set(0);
        self.last_sync_failures.set(failures);
        // The fence acknowledged every prior launch (success or error):
        // nothing is left to replay after a future crash.
        self.pending_replay.borrow_mut().clear();
        match first {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Launch errors surfaced by the most recent
    /// [`SlateClient::synchronize`] (0 if it succeeded). When several
    /// launches of one batch fail, `synchronize` returns the first error
    /// and this reports how many there were in total.
    pub fn last_sync_failures(&self) -> u64 {
        self.last_sync_failures.get()
    }

    /// Ends the session; the daemon frees any leaked allocations.
    ///
    /// Pending launches are fenced first (a `Sync` round trip), so an
    /// in-flight launch error is surfaced here instead of being silently
    /// dropped with the session.
    pub fn disconnect(self) -> Result<(), SlateError> {
        let pending = if self.pending_launches.get() > 0 {
            self.synchronize().err()
        } else {
            None
        };
        let bye = self.call(|| Request::Disconnect)?.expect_ok();
        match pending {
            Some(e) => Err(e),
            None => bye,
        }
    }
}

/// Connects to `daemon` under `policy`: transient rejections (e.g.
/// [`SlateError::ShuttingDown`] during a drain that may be superseded by a
/// restart) are retried with exponential backoff.
pub fn connect_with_retry(
    daemon: &Arc<crate::daemon::SlateDaemon>,
    user: &str,
    policy: RetryPolicy,
) -> Result<SlateClient, SlateError> {
    policy.run(|| daemon.connect(user).map(SlateClient::new))
}

/// Redeems a [`ResumeToken`] against a recovered `daemon` under `policy`,
/// retrying transient rejections (e.g. the daemon still draining its
/// adoption backlog behind [`SlateError::ShuttingDown`] during a rolling
/// restart). [`SlateError::ResumeRejected`] is permanent and fails fast:
/// a refused token never becomes valid.
#[doc(hidden)]
pub fn resume_with_retry(
    daemon: &Arc<SlateDaemon>,
    token: ResumeToken,
    policy: RetryPolicy,
) -> Result<SlateClient, SlateError> {
    policy.run(|| daemon.resume(token).map(SlateClient::new))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::SlateDaemon;
    use slate_gpu_sim::device::DeviceConfig;

    #[test]
    fn upload_download_roundtrip() {
        let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
        let c = SlateClient::new(daemon.connect("u").unwrap());
        let p = c.malloc(64).unwrap();
        c.upload_f32(p, &[1.5, -2.0, 3.25]).unwrap();
        let back = c.download_f32(p, 3).unwrap();
        assert_eq!(back, vec![1.5, -2.0, 3.25]);
        c.disconnect().unwrap();
        daemon.join();
    }

    #[test]
    fn out_of_memory_is_reported() {
        let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1024);
        let c = SlateClient::new(daemon.connect("u").unwrap());
        assert!(c.malloc(512).is_ok());
        let err = c.malloc(4096).unwrap_err();
        assert_eq!(err, SlateError::OutOfMemory { requested: 4096 });
        assert!(err.to_string().contains("out of device memory"), "{err}");
        c.disconnect().unwrap();
        daemon.join();
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(10),
            jitter_seed: None,
        };
        assert_eq!(p.delay_for(0), Duration::from_millis(2));
        assert_eq!(p.delay_for(1), Duration::from_millis(4));
        assert_eq!(p.delay_for(2), Duration::from_millis(8));
        assert_eq!(p.delay_for(3), Duration::from_millis(10), "capped");
        assert_eq!(p.delay_for(30), Duration::from_millis(10), "no overflow");
    }

    #[test]
    fn retry_policy_retries_transient_until_success() {
        let p = RetryPolicy::with_attempts(5);
        let mut calls = 0;
        let out: Result<u32, _> = p.run(|| {
            calls += 1;
            if calls < 3 {
                Err(SlateError::ShuttingDown)
            } else {
                Ok(7)
            }
        });
        assert_eq!(out, Ok(7));
        assert_eq!(calls, 3);
    }

    #[test]
    fn retry_policy_gives_up_after_max_attempts() {
        let p = RetryPolicy::with_attempts(3);
        let mut calls = 0;
        let out: Result<(), _> = p.run(|| {
            calls += 1;
            Err(SlateError::Timeout { elapsed_ms: 1 })
        });
        assert_eq!(out, Err(SlateError::Timeout { elapsed_ms: 1 }));
        assert_eq!(calls, 3);
    }

    #[test]
    fn retry_policy_never_retries_permanent_errors() {
        let p = RetryPolicy::with_attempts(5);
        let mut calls = 0;
        let out: Result<(), _> = p.run(|| {
            calls += 1;
            Err(SlateError::InvalidPointer { ptr: 9 })
        });
        assert!(out.is_err());
        assert_eq!(calls, 1, "permanent errors fail fast");
    }

    #[test]
    fn decorrelated_jitter_stays_within_bounds_and_varies() {
        let base = Duration::from_millis(2);
        let cap = Duration::from_millis(50);
        let mut state = 42u64;
        let mut prev = base;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let d = decorrelated_jitter(base, prev, cap, &mut state);
            assert!(d >= base, "below base: {d:?}");
            assert!(d <= cap, "above cap: {d:?}");
            seen.insert(d.as_nanos());
            prev = d;
        }
        assert!(
            seen.len() > 10,
            "jitter must actually vary, saw {}",
            seen.len()
        );
        // Deterministic for a fixed seed.
        let run = |seed: u64| {
            let mut st = seed;
            let mut p = base;
            (0..20)
                .map(|_| {
                    p = decorrelated_jitter(base, p, cap, &mut st);
                    p
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds decorrelate");
    }

    #[test]
    fn decorrelated_jitter_degenerate_bounds() {
        // base == cap pins the draw.
        let mut st = 1u64;
        let d = decorrelated_jitter(
            Duration::from_millis(5),
            Duration::from_millis(5),
            Duration::from_millis(5),
            &mut st,
        );
        assert_eq!(d, Duration::from_millis(5));
        // cap below base clamps to cap rather than panicking.
        let d = decorrelated_jitter(
            Duration::from_millis(10),
            Duration::from_millis(10),
            Duration::from_millis(3),
            &mut st,
        );
        assert_eq!(d, Duration::from_millis(3));
    }

    #[test]
    fn retry_honors_overloaded_retry_after_floor() {
        let p = RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            jitter_seed: Some(3),
        };
        let t0 = Instant::now();
        let mut calls = 0;
        let out: Result<(), _> = p.run(|| {
            calls += 1;
            Err(SlateError::Overloaded { retry_after_ms: 40 })
        });
        assert!(out.is_err());
        assert_eq!(calls, 2);
        assert!(
            t0.elapsed() >= Duration::from_millis(40),
            "the daemon's hint floors the backoff: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn breaker_opens_after_threshold_and_fails_fast() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(50),
        });
        assert_eq!(b.state(), BreakerState::Closed);
        b.record::<()>(&Err(SlateError::Overloaded { retry_after_ms: 5 }));
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.record::<()>(&Err(SlateError::Timeout { elapsed_ms: 9 }));
        assert_eq!(b.state(), BreakerState::Open);
        match b.check().unwrap_err() {
            SlateError::Overloaded { retry_after_ms } => {
                assert!((1..=50).contains(&retry_after_ms));
            }
            other => panic!("expected Overloaded, got {other}"),
        }
    }

    #[test]
    fn breaker_half_open_probe_closes_on_success_reopens_on_failure() {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(20),
        };
        let b = CircuitBreaker::new(cfg);
        b.record::<()>(&Err(SlateError::Overloaded { retry_after_ms: 1 }));
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.check().is_ok(), "the probe is allowed through");
        // Probe fails: reopen for a full cooldown.
        b.record::<()>(&Err(SlateError::Overloaded { retry_after_ms: 1 }));
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe succeeds: fully closed, streak reset.
        b.record::<()>(&Ok(()));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_counts_device_loss_like_overload() {
        // A lost device shrinks fleet capacity the same way saturation
        // does, so DeviceLost advances the breaker's failure streak
        // exactly like Overloaded/Timeout.
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(50),
        });
        b.record::<()>(&Err(SlateError::DeviceLost { device: 1 }));
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.record::<()>(&Err(SlateError::DeviceLost { device: 1 }));
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn breaker_ignores_non_overload_errors() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(50),
        });
        b.record::<()>(&Err(SlateError::Overloaded { retry_after_ms: 1 }));
        // A structured non-overload error resets the streak.
        b.record::<()>(&Err(SlateError::InvalidPointer { ptr: 1 }));
        b.record::<()>(&Err(SlateError::Overloaded { retry_after_ms: 1 }));
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
    }

    #[test]
    fn client_breaker_stops_hammering_a_saturated_daemon() {
        use crate::daemon::DaemonOptions;
        // Watermark 0: every malloc is shed with Overloaded.
        let opts = DaemonOptions {
            admission: crate::admission::AdmissionLimits {
                mem_watermark: Some(0.0),
                ..Default::default()
            },
            ..Default::default()
        };
        let daemon = SlateDaemon::start_with_options(DeviceConfig::tiny(2), 1 << 20, opts);
        let c = SlateClient::new(daemon.connect("breaker").unwrap()).with_circuit_breaker(
            BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(60),
            },
        );
        assert!(c.malloc(64).is_err());
        assert!(c.malloc(64).is_err());
        assert_eq!(c.breaker_state(), Some(BreakerState::Open));
        let shed_before = daemon.metrics().admission.mallocs_shed;
        // Open breaker: the next calls fail fast client-side.
        assert!(matches!(
            c.malloc(64).unwrap_err(),
            SlateError::Overloaded { .. }
        ));
        assert!(c.launch_with(vec![], 10, None, |_| unreachable!()).is_err());
        assert_eq!(
            daemon.metrics().admission.mallocs_shed,
            shed_before,
            "the daemon never saw the failed-fast requests"
        );
        drop(c);
        daemon.join();
    }

    #[test]
    fn connect_with_retry_fails_fast_once_shut_down() {
        let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
        assert!(daemon.shutdown(Duration::from_millis(100)));
        // ShuttingDown is transient (a restarted daemon could accept), but
        // this daemon never comes back: the policy must exhaust attempts.
        let err = connect_with_retry(&daemon, "late", RetryPolicy::with_attempts(2))
            .err()
            .unwrap();
        assert_eq!(err, SlateError::ShuttingDown);
    }
}
