//! Error types for the Slate client/daemon API.
//!
//! Mirrors the CUDA error model: allocation failures, invalid handles,
//! launch failures, and lost connections are distinct, matchable
//! conditions. The daemon transports errors as strings over the command
//! pipe (they cross the "process" boundary); [`SlateError::from_wire`]
//! restores the structured form on the client side.

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
    /// Serializes for the command pipe. The prefix encodes the variant so
    /// the client can restore it.
    pub fn to_wire(&self) -> String {
        match self {
            SlateError::OutOfMemory { requested } => format!("E_OOM:{requested}"),
            SlateError::InvalidPointer { ptr } => format!("E_PTR:{ptr}"),
            SlateError::InvalidValue(m) => format!("E_VALUE:{m}"),
            SlateError::Launch(m) => format!("E_LAUNCH:{m}"),
            SlateError::Pragma(m) => format!("E_PRAGMA:{m}"),
            SlateError::Disconnected => "E_DISCONNECTED".to_string(),
            SlateError::Timeout { elapsed_ms } => format!("E_TIMEOUT:{elapsed_ms}"),
            SlateError::KernelFault(m) => format!("E_KFAULT:{m}"),
            SlateError::ShuttingDown => "E_SHUTDOWN".to_string(),
            SlateError::Overloaded { retry_after_ms } => {
                format!("E_OVERLOADED:{retry_after_ms}")
            }
            SlateError::DeviceLost { device } => format!("E_DEVLOST:{device}"),
            SlateError::ResumeRejected(m) => format!("E_RESUME:{m}"),
            SlateError::Other(m) => format!("E_OTHER:{m}"),
        }
    }

    /// Restores a structured error from its wire form; unknown strings
    /// become [`SlateError::Other`].
    pub fn from_wire(s: &str) -> SlateError {
        if let Some(rest) = s.strip_prefix("E_OOM:") {
            if let Ok(requested) = rest.parse() {
                return SlateError::OutOfMemory { requested };
            }
        }
        if let Some(rest) = s.strip_prefix("E_PTR:") {
            if let Ok(ptr) = rest.parse() {
                return SlateError::InvalidPointer { ptr };
            }
        }
        if let Some(rest) = s.strip_prefix("E_VALUE:") {
            return SlateError::InvalidValue(rest.to_string());
        }
        if let Some(rest) = s.strip_prefix("E_LAUNCH:") {
            return SlateError::Launch(rest.to_string());
        }
        if let Some(rest) = s.strip_prefix("E_PRAGMA:") {
            return SlateError::Pragma(rest.to_string());
        }
        if s == "E_DISCONNECTED" {
            return SlateError::Disconnected;
        }
        if let Some(rest) = s.strip_prefix("E_TIMEOUT:") {
            if let Ok(elapsed_ms) = rest.parse() {
                return SlateError::Timeout { elapsed_ms };
            }
        }
        if let Some(rest) = s.strip_prefix("E_KFAULT:") {
            return SlateError::KernelFault(rest.to_string());
        }
        if s == "E_SHUTDOWN" {
            return SlateError::ShuttingDown;
        }
        if let Some(rest) = s.strip_prefix("E_OVERLOADED:") {
            if let Ok(retry_after_ms) = rest.parse() {
                return SlateError::Overloaded { retry_after_ms };
            }
        }
        if let Some(rest) = s.strip_prefix("E_DEVLOST:") {
            if let Ok(device) = rest.parse() {
                return SlateError::DeviceLost { device };
            }
        }
        if let Some(rest) = s.strip_prefix("E_RESUME:") {
            return SlateError::ResumeRejected(rest.to_string());
        }
        SlateError::Other(s.strip_prefix("E_OTHER:").unwrap_or(s).to_string())
    }

    /// Whether retrying the same operation later could succeed: the daemon
    /// refused or aborted the work without corrupting session state.
    /// Watchdog evictions, shutdown rejections and admission sheds qualify;
    /// memory-safety errors (bad pointer, OOM for the same size) and
    /// severed connections do not.
    pub fn is_transient(&self) -> bool {
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
    pub fn is_overload(&self) -> bool {
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

impl From<String> for SlateError {
    fn from(s: String) -> Self {
        SlateError::from_wire(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip_preserves_variants() {
        let cases = [
            SlateError::OutOfMemory { requested: 4096 },
            SlateError::InvalidPointer { ptr: 0xdead },
            SlateError::InvalidValue("offset 3 is not word-aligned".into()),
            SlateError::Launch("bad grid".into()),
            SlateError::Pragma("unknown directive".into()),
            SlateError::Disconnected,
            SlateError::Timeout { elapsed_ms: 1500 },
            SlateError::KernelFault("device fault at block 7".into()),
            SlateError::ShuttingDown,
            SlateError::Overloaded { retry_after_ms: 42 },
            SlateError::DeviceLost { device: 2 },
            SlateError::ResumeRejected("stale epoch".into()),
            SlateError::Other("misc".into()),
        ];
        for e in cases {
            assert_eq!(SlateError::from_wire(&e.to_wire()), e, "{e}");
        }
    }

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
    fn unknown_wire_strings_become_other() {
        assert_eq!(
            SlateError::from_wire("something odd"),
            SlateError::Other("something odd".into())
        );
        // Malformed payloads degrade gracefully.
        assert_eq!(
            SlateError::from_wire("E_OOM:not-a-number"),
            SlateError::Other("E_OOM:not-a-number".into())
        );
        assert_eq!(
            SlateError::from_wire("E_TIMEOUT:soon"),
            SlateError::Other("E_TIMEOUT:soon".into())
        );
        assert_eq!(
            SlateError::from_wire("E_OVERLOADED:later"),
            SlateError::Other("E_OVERLOADED:later".into())
        );
        assert_eq!(
            SlateError::from_wire("E_DEVLOST:gpu3"),
            SlateError::Other("E_DEVLOST:gpu3".into())
        );
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
