//! Client–daemon protocol (paper §IV-A).
//!
//! Slate uses two communication channels per client: a *command pipe* for
//! API instructions (modelled by a crossbeam channel pair) and *shared
//! buffers* for bulk kernel IO. Here the device is host memory, so the
//! shared buffer of an upload is the device run itself: the daemon checks
//! the range and lends the run, and the client's one write into it is the
//! transfer.
//!
//! **What is shared and what is copied.** No payload crosses the channel.
//! `Request::MemcpyH2D` carries only the range; the session thread runs
//! its checks (fault-plan stall, pointer, alignment, the bytes asked for at
//! `malloc`) and replies `Response::Run` with the device buffer, which the
//! client writes on its own thread and drops before the call returns — the
//! pipe and `Response` are crate-private, so a lent run never leaves
//! `SlateClient`. `Request::MemcpyD2H` carries the client's own
//! destination, a `HostBuf` sent empty with the transfer's length
//! reserved, which `Response::Data` hands back filled. Sending, receiving,
//! retrying and resending copy nothing. What does touch every byte is one
//! boundary pass per direction — and nothing else:
//!
//! | pass over an `n`-byte payload | where | what it does |
//! |---|---|---|
//! | H2D 1 | `GpuBuffer::write_f32_slice` (`upload_f32`) / `copy_from_host` (`memcpy_h2d`), on the client's thread | reads the client's slice in place: one relaxed store per device word of the lent run |
//! | D2H 1 | `GpuBuffer::append_f32` / `append_bytes` (session thread) | one relaxed load per device word, appended to the client's vector: no zero fill, no byte re-encoding for `download_f32`, no second vector |
//!
//! Allocations of payload size: none per upload, one per download, on the
//! client's thread — pinned process-wide by
//! `crates/core/tests/memcpy_passes.rs`. The thread matters: with the
//! reply allocated on the session thread instead, glibc's per-thread
//! arenas kept less freed memory mapped, and the fresh device buffers of
//! about half of `serve_mixed`'s set-ups page-faulted (DESIGN.md §6).
//!
//! Clients never see device pointers: they hold opaque [`SlatePtr`]s which
//! the daemon maps to real device allocations in its per-session hash table
//! ("records in a hash table the mapping between the shared buffer address
//! and the GPU pointer").
//!
//! **One reply per request.** Every request except a launch gets exactly
//! one reply, and a launch gets none: its error, whichever thread raised
//! it and whenever, waits in the session's one list until the next
//! `Request::Sync`, whose `Response::Fenced` carries the list in the order
//! the errors occurred. Errors cross as [`SlateError`] values
//! (`Response::Err`), never as text. Under overload the daemon sheds
//! requests instead of queueing them unboundedly: a synchronous request
//! gets `Response::Err` holding [`SlateError::Overloaded`] with a
//! `retry_after_ms` hint, and a shed launch's `Overloaded` is fenced like
//! any launch error.
//!
//! **The completion watermark.** Beside the pipe, each connection shares
//! one counter with its session (`Connection::done`): how many of its
//! launches ran to completion. A launch that failed, was shed or was
//! parked by a crash never counts, so when the counter covers every
//! launch sent since the last fence the error list is empty, and
//! `SlateClient::synchronize` returns without sending `Request::Sync`.

use crate::error::SlateError;
use slate_gpu_sim::buffer::GpuBuffer;
use slate_kernels::kernel::GpuKernel;
use std::sync::Arc;

/// Opaque client-side handle to a device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlatePtr(pub u64);

/// Builds the user kernel once the daemon has resolved the client's
/// [`SlatePtr`]s to device buffers (in the same order they were passed).
pub(crate) type KernelFactory =
    Box<dyn FnOnce(Vec<Arc<GpuBuffer>>) -> Arc<dyn GpuKernel> + Send + 'static>;

/// A kernel launch command: everything about a launch except its
/// [`KernelFactory`], which travels beside it in [`Request::Launch`] — so
/// a client can keep the command and resend it verbatim. The defaults are
/// the plain launch: default stream, co-schedulable, no deadline, no
/// source.
#[derive(Clone, Default)]
pub(crate) struct LaunchCmd {
    /// Client-assigned launch id, unique and monotonic per session. The
    /// daemon logs it with the admission and completion records, which is
    /// what lets a resumed client blindly resubmit unacknowledged
    /// launches: ids the daemon has already completed (or adopted from a
    /// crash scene) are deduplicated server-side instead of re-executed.
    pub(crate) launch_id: u64,
    /// Device allocations the kernel binds, in factory order.
    pub(crate) ptrs: Vec<SlatePtr>,
    /// `SLATE_ITERS` for this launch.
    pub(crate) task_size: u32,
    /// Optional CUDA source for the injection pipeline (exercises the
    /// scanner/injector and populates the compilation cache).
    pub(crate) source: Option<String>,
    /// Run this kernel solo, never co-scheduled (`#pragma slate solo`).
    pub(crate) pinned_solo: bool,
    /// CUDA stream the launch is ordered on. Stream 0 is the default
    /// stream; launches on distinct non-zero streams may execute
    /// concurrently (the paper builds "a queue for each process and CUDA
    /// stream").
    pub(crate) stream: u32,
    /// Watchdog deadline for this kernel, in milliseconds. Past it the
    /// daemon evicts the kernel through the retreat flag and replies
    /// `SlateError::Timeout`. `None` defers to the daemon's default
    /// deadline (which may also be unset — no watchdog).
    pub(crate) deadline_ms: Option<u64>,
}

/// Requests a client sends over the command pipe.
pub(crate) enum Request {
    /// `slateMalloc(bytes)`.
    Malloc(u64),
    /// `slateFree(ptr)`.
    Free(SlatePtr),
    /// `slateMemcpy` host-to-device: asks for the checked device run,
    /// which [`Response::Run`] lends for the client to write.
    MemcpyH2D {
        /// Destination allocation.
        ptr: SlatePtr,
        /// Byte offset into the allocation (word-aligned).
        offset: usize,
        /// Bytes the client will write.
        len: usize,
    },
    /// `slateMemcpy` device-to-host, into the client's own vector.
    MemcpyD2H {
        /// Source allocation.
        ptr: SlatePtr,
        /// Byte offset into the allocation (word-aligned).
        offset: usize,
        /// Bytes to read; a multiple of 4 into a [`HostBuf::F32`].
        len: usize,
        /// The destination, sent empty with `len` bytes' worth reserved
        /// and returned in [`Response::Data`] holding exactly `len` bytes'
        /// worth, whatever its capacity.
        into: HostBuf,
    },
    /// `slateLaunchKernel` — asynchronous, like CUDA launches, and never
    /// replied to: an error waits for the next [`Request::Sync`]. The
    /// factory is invoked daemon-side after pointer resolution.
    Launch(LaunchCmd, KernelFactory),
    /// `slateDeviceSynchronize` — replies [`Response::Fenced`] once all
    /// prior launches finished. Sent only when the completion watermark
    /// does not already cover every launch since the last fence (or the
    /// connection is resumed and owes its first).
    Sync,
    /// Session teardown.
    Disconnect,
}

/// A device-to-host destination: a vector the client allocated, in the
/// element type it wants back, which the daemon appends the device run to.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum HostBuf {
    /// Raw little-endian bytes (`memcpy_d2h`).
    Bytes(Vec<u8>),
    /// Whole words as `f32`s (`download_f32`).
    F32(Vec<f32>),
}

/// Daemon replies.
#[derive(Debug)]
pub(crate) enum Response {
    /// New allocation handle.
    Ptr(SlatePtr),
    /// Host-to-device: the device buffer whose range the session checked,
    /// lent for the client to write in place.
    Run(Arc<GpuBuffer>),
    /// Device-to-host payload: the request's [`HostBuf`], filled.
    Data(HostBuf),
    /// Success without payload.
    Ok,
    /// The reply to a [`Request::Sync`]: the errors of the launches since
    /// the last fence, in the order they occurred (empty when all of them
    /// succeeded).
    Fenced(Vec<SlateError>),
    /// The request failed.
    Err(SlateError),
}

impl Response {
    /// Unwraps an expected `Ptr` response.
    pub(crate) fn expect_ptr(self) -> Result<SlatePtr, SlateError> {
        match self {
            Response::Ptr(p) => Ok(p),
            Response::Err(e) => Err(e),
            other => Err(SlateError::Other(format!("expected Ptr, got {other:?}"))),
        }
    }

    /// Unwraps an expected `Run` response.
    pub(crate) fn expect_run(self) -> Result<Arc<GpuBuffer>, SlateError> {
        match self {
            Response::Run(run) => Ok(run),
            Response::Err(e) => Err(e),
            other => Err(SlateError::Other(format!("expected Run, got {other:?}"))),
        }
    }

    /// Unwraps an expected `Data` response.
    pub(crate) fn expect_data(self) -> Result<HostBuf, SlateError> {
        match self {
            Response::Data(d) => Ok(d),
            Response::Err(e) => Err(e),
            other => Err(SlateError::Other(format!("expected Data, got {other:?}"))),
        }
    }

    /// Unwraps an expected `Ok` response.
    pub(crate) fn expect_ok(self) -> Result<(), SlateError> {
        match self {
            Response::Ok => Ok(()),
            Response::Err(e) => Err(e),
            other => Err(SlateError::Other(format!("expected Ok, got {other:?}"))),
        }
    }

    /// Unwraps an expected `Fenced` response.
    pub(crate) fn expect_fenced(self) -> Result<Vec<SlateError>, SlateError> {
        match self {
            Response::Fenced(errors) => Ok(errors),
            Response::Err(e) => Err(e),
            other => Err(SlateError::Other(format!("expected Fenced, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_unwrapping() {
        assert_eq!(Response::Ptr(SlatePtr(3)).expect_ptr(), Ok(SlatePtr(3)));
        assert!(Response::Ok.expect_ptr().is_err());
        assert_eq!(
            Response::Err(SlateError::OutOfMemory { requested: 9 })
                .expect_ok()
                .unwrap_err(),
            SlateError::OutOfMemory { requested: 9 }
        );
        assert_eq!(
            Response::Data(HostBuf::Bytes(b"xy".to_vec()))
                .expect_data()
                .unwrap(),
            HostBuf::Bytes(b"xy".to_vec())
        );
        assert!(Response::Ok.expect_ok().is_ok());
        let run = Arc::new(GpuBuffer::new(8));
        assert!(Arc::ptr_eq(
            &Response::Run(run.clone()).expect_run().unwrap(),
            &run
        ));
        assert!(Response::Ok.expect_run().is_err());
        let shed = SlateError::Overloaded { retry_after_ms: 7 };
        assert_eq!(
            Response::Fenced(vec![shed.clone()]).expect_fenced(),
            Ok(vec![shed.clone()])
        );
        assert_eq!(Response::Err(shed.clone()).expect_fenced(), Err(shed));
        assert!(Response::Ok.expect_fenced().is_err());
        assert!(Response::Fenced(vec![]).expect_ok().is_err());
    }
}
