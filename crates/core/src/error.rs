//! Error types for the Slate client/daemon API.
//!
//! Mirrors the CUDA error model: allocation failures, invalid handles,
//! launch failures, and lost connections are distinct, matchable
//! conditions. They cross the command pipe as they are: a reply carries
//! the `SlateError` itself, so the client matches the variant the daemon
//! raised.

use std::fmt;

/// Errors surfaced by the Slate API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlateError {
    /// Device memory exhausted (`cudaErrorMemoryAllocation`).
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: u64,
    },
    /// A pointer handle that is not live in this session
    /// (`cudaErrorInvalidDevicePointer`).
    InvalidPointer {
        /// The offending handle value.
        ptr: u64,
    },
    /// An argument outside what its allocation allows — a memcpy range
    /// that is misaligned or out of bounds (`cudaErrorInvalidValue`).
    InvalidValue(String),
    /// A kernel launch was rejected or failed (`cudaErrorLaunchFailure`).
    Launch(String),
    /// A `#pragma slate` directive could not be parsed.
    Pragma(String),
    /// The daemon connection is gone (process teardown).
    Disconnected,
    /// The kernel exceeded its watchdog deadline and was evicted from the
    /// device through the retreat flag.
    Timeout {
        /// Wall-clock milliseconds the kernel ran before eviction.
        elapsed_ms: u64,
    },
    /// The kernel faulted on-device mid-execution
    /// (`cudaErrorLaunchFailure` observed after launch).
    KernelFault(String),
    /// The daemon is shutting down and refuses new work.
    ShuttingDown,
    /// The daemon shed the request because an admission limit (sessions,
    /// pending launches, memory watermark) or a deadline-feasibility check
    /// tripped. The request was *not* performed; retry after roughly
    /// `retry_after_ms` milliseconds (clients should add jitter).
    Overloaded {
        /// Daemon's estimate of when retrying is worthwhile, derived from
        /// the current queue depth and pending-work estimates. Always ≥ 1.
        retry_after_ms: u64,
    },
    /// The device the kernel was running on (or routed to) dropped out
    /// of service (`cudaErrorDeviceUnavailable`) and the work could not
    /// be resumed elsewhere. Transient: the fleet evacuates and the
    /// failure domain heals, so a later retry lands on a serving device.
    DeviceLost {
        /// Placement-layer index of the lost device.
        device: u64,
    },
    /// A session-resumption token was refused: wrong epoch, unknown or
    /// closed session, already redeemed, or the daemon keeps no durable
    /// state. The session cannot be reattached; the client must
    /// reconnect fresh.
    ResumeRejected(String),
    /// Anything else, with the daemon's description.
    Other(String),
}

impl SlateError {
    /// Whether retrying the same operation later could succeed: the daemon
    /// refused or aborted the work without corrupting session state.
    /// Watchdog evictions, shutdown rejections and admission sheds qualify;
    /// memory-safety errors (bad pointer, OOM for the same size) and
    /// severed connections do not.
    pub(crate) fn is_transient(&self) -> bool {
        matches!(
            self,
            SlateError::Timeout { .. }
                | SlateError::ShuttingDown
                | SlateError::Overloaded { .. }
                | SlateError::DeviceLost { .. }
        )
    }

    /// Whether the error signals daemon saturation or shrinkage (an
    /// admission shed, a watchdog eviction under load, or a lost device
    /// taking fleet capacity with it) — the conditions a client-side
    /// circuit breaker counts toward opening.
    pub(crate) fn is_overload(&self) -> bool {
        matches!(
            self,
            SlateError::Overloaded { .. }
                | SlateError::Timeout { .. }
                | SlateError::DeviceLost { .. }
        )
    }
}

impl fmt::Display for SlateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlateError::OutOfMemory { requested } => {
                write!(f, "out of device memory ({requested} bytes requested)")
            }
            SlateError::InvalidPointer { ptr } => {
                write!(f, "invalid slate pointer 0x{ptr:x}")
            }
            SlateError::InvalidValue(m) => write!(f, "invalid value: {m}"),
            SlateError::Launch(m) => write!(f, "kernel launch failed: {m}"),
            SlateError::Pragma(m) => write!(f, "pragma error: {m}"),
            SlateError::Disconnected => write!(f, "daemon disconnected"),
            SlateError::Timeout { elapsed_ms } => {
                write!(f, "kernel evicted by watchdog after {elapsed_ms} ms")
            }
            SlateError::KernelFault(m) => write!(f, "kernel fault: {m}"),
            SlateError::ShuttingDown => write!(f, "daemon is shutting down"),
            SlateError::Overloaded { retry_after_ms } => {
                write!(f, "daemon overloaded, retry after {retry_after_ms} ms")
            }
            SlateError::DeviceLost { device } => {
                write!(f, "device {device} was lost while serving the request")
            }
            SlateError::ResumeRejected(m) => write!(f, "session resumption rejected: {m}"),
            SlateError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for SlateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classification() {
        assert!(SlateError::Timeout { elapsed_ms: 10 }.is_transient());
        assert!(SlateError::ShuttingDown.is_transient());
        assert!(SlateError::Overloaded { retry_after_ms: 5 }.is_transient());
        assert!(
            SlateError::DeviceLost { device: 0 }.is_transient(),
            "the fleet evacuates and heals; a retry lands on a serving device"
        );
        assert!(!SlateError::Disconnected.is_transient());
        assert!(
            !SlateError::ResumeRejected("no".into()).is_transient(),
            "a refused token never becomes valid; reconnect instead"
        );
        assert!(!SlateError::ResumeRejected("no".into()).is_overload());
        assert!(!SlateError::OutOfMemory { requested: 1 }.is_transient());
        assert!(!SlateError::InvalidPointer { ptr: 1 }.is_transient());
        assert!(!SlateError::KernelFault("x".into()).is_transient());
    }

    #[test]
    fn overload_classification() {
        assert!(SlateError::Overloaded { retry_after_ms: 1 }.is_overload());
        assert!(SlateError::Timeout { elapsed_ms: 9 }.is_overload());
        assert!(
            SlateError::DeviceLost { device: 1 }.is_overload(),
            "a lost device shrinks capacity; breakers count it like a shed"
        );
        assert!(!SlateError::ShuttingDown.is_overload());
        assert!(!SlateError::Disconnected.is_overload());
        assert!(!SlateError::OutOfMemory { requested: 8 }.is_overload());
    }

    #[test]
    fn display_is_human_readable() {
        let e = SlateError::OutOfMemory { requested: 1024 };
        assert!(e.to_string().contains("1024 bytes"));
        let e = SlateError::InvalidPointer { ptr: 255 };
        assert!(e.to_string().contains("0xff"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SlateError::Disconnected);
    }
}
