//! Client–daemon protocol (paper §IV-A).
//!
//! Slate uses two communication channels per client: a *command pipe* for
//! API instructions (modelled by a crossbeam channel pair) and *shared
//! buffers* for bulk kernel IO (modelled by [`bytes::Bytes`], whose
//! reference-counted storage moves between processes without copying —
//! exactly the property the paper wants from shared memory for gigabyte
//! payloads).
//!
//! **What is shared and what is copied.** A payload crosses the channel as
//! a handle: `Request::MemcpyH2D` carries the client's own vector
//! (`Bytes::from(vec)` keeps it), and `Request::MemcpyD2H` carries the
//! client's own destination, a `HostBuf` sent empty with the transfer's
//! length reserved, which `Response::Data` hands back filled. Sending,
//! receiving, retrying and resending a payload copy nothing. What does
//! touch every byte is one boundary pass per direction — and nothing else:
//!
//! | pass over an `n`-byte payload | where | what it does |
//! |---|---|---|
//! | H2D 1 | `SlateClient::upload_f32` | `f32`s → little-endian bytes, one pass into one `n`-byte vector (`memcpy_h2d` callers bring their own `Bytes` and skip it) |
//! | H2D 2 | `GpuBuffer::copy_from_host` (session thread) | reads the client's vector in place: one relaxed store per device word |
//! | D2H 1 | `GpuBuffer::append_f32` / `append_bytes` (session thread) | one relaxed load per device word, appended to the client's vector: no zero fill, no byte re-encoding for `download_f32`, no second vector |
//!
//! Allocations of payload size: one per upload, one per download, each on
//! the client's thread — pinned process-wide by
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
//! Under overload the daemon sheds requests instead of queueing them
//! unboundedly: the reply is a `Response::Err` wiring
//! [`SlateError::Overloaded`] with a `retry_after_ms` hint
//! (`Response::is_overloaded` spots these without unwrapping). For
//! asynchronous launches the shed reply is delivered, like any launch
//! error, at the client's next `Sync`.

use crate::error::SlateError;
use bytes::Bytes;
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
    /// `slateMemcpy` host-to-device through a shared buffer.
    MemcpyH2D {
        /// Destination allocation.
        ptr: SlatePtr,
        /// Byte offset into the allocation (word-aligned).
        offset: usize,
        /// Payload, handed over without copying.
        data: Bytes,
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
    /// `slateLaunchKernel` — asynchronous, like CUDA launches. The factory
    /// is invoked daemon-side after pointer resolution.
    Launch(LaunchCmd, KernelFactory),
    /// `slateDeviceSynchronize` — replies once all prior launches finished.
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
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Response {
    /// New allocation handle.
    Ptr(SlatePtr),
    /// Device-to-host payload: the request's [`HostBuf`], filled.
    Data(HostBuf),
    /// Success without payload.
    Ok,
    /// Failure description.
    Err(String),
}

impl Response {
    /// Unwraps an expected `Ptr` response.
    pub(crate) fn expect_ptr(self) -> Result<SlatePtr, SlateError> {
        match self {
            Response::Ptr(p) => Ok(p),
            Response::Err(e) => Err(SlateError::from_wire(&e)),
            other => Err(SlateError::Other(format!("expected Ptr, got {other:?}"))),
        }
    }

    /// Unwraps an expected `Data` response.
    pub(crate) fn expect_data(self) -> Result<HostBuf, SlateError> {
        match self {
            Response::Data(d) => Ok(d),
            Response::Err(e) => Err(SlateError::from_wire(&e)),
            other => Err(SlateError::Other(format!("expected Data, got {other:?}"))),
        }
    }

    /// Whether this reply is an admission shed
    /// ([`SlateError::Overloaded`]) — the signal backpressure-aware
    /// clients branch on without consuming the response.
    #[cfg(test)]
    pub(crate) fn is_overloaded(&self) -> bool {
        matches!(self, Response::Err(e)
            if matches!(SlateError::from_wire(e), SlateError::Overloaded { .. }))
    }

    /// Unwraps an expected `Ok` response.
    pub(crate) fn expect_ok(self) -> Result<(), SlateError> {
        match self {
            Response::Ok => Ok(()),
            Response::Err(e) => Err(SlateError::from_wire(&e)),
            other => Err(SlateError::Other(format!("expected Ok, got {other:?}"))),
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
            Response::Err("boom".into()).expect_ok().unwrap_err(),
            SlateError::Other("boom".into())
        );
        assert_eq!(
            Response::Err(SlateError::OutOfMemory { requested: 9 }.to_wire())
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
    }

    #[test]
    fn overload_replies_are_recognizable() {
        let shed = Response::Err(SlateError::Overloaded { retry_after_ms: 7 }.to_wire());
        assert!(shed.is_overloaded());
        assert!(!Response::Ok.is_overloaded());
        assert!(!Response::Err("E_SHUTDOWN".into()).is_overloaded());
        assert_eq!(
            shed.expect_ok().unwrap_err(),
            SlateError::Overloaded { retry_after_ms: 7 }
        );
    }

    #[test]
    fn bytes_are_shared_not_copied() {
        let payload = Bytes::from(vec![1u8; 1 << 20]);
        let clone = payload.clone();
        // Same backing storage: cloning a Bytes is refcount-only.
        assert_eq!(clone.as_ptr(), payload.as_ptr());
    }
}
