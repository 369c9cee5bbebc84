//! Hyper-Q hardware work queues (paper §I).
//!
//! Kepler-and-later devices expose multiple hardware work queues
//! ("connections") between host and device, letting streams of **one CUDA
//! context** launch concurrently. Two facts about them shape the designs
//! the paper discusses:
//!
//! * all queues must belong to a single context — which is exactly why MPS
//!   (and Slate's daemon) funnel many processes into one context to get
//!   cross-process concurrency at all;
//! * the number of connections is limited (32 architecturally, 8 by default
//!   via `CUDA_DEVICE_MAX_CONNECTIONS`); when more streams exist than
//!   connections, streams alias onto the same queue and become **falsely
//!   serialized** even though the programmer declared them independent.
//!
//! This module models connection assignment and the resulting concurrency
//! verdicts. The Slate daemon assigns each (session, stream) lane a
//! connection through it, with the lane's 64-bit lease id as the stream.

use std::collections::HashMap;

/// Architectural maximum number of hardware work queues.
pub const MAX_CONNECTIONS: u32 = 32;
/// Driver default (`CUDA_DEVICE_MAX_CONNECTIONS`).
pub const DEFAULT_CONNECTIONS: u32 = 8;

/// Why two launches can or cannot proceed concurrently through the
/// hardware front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Concurrency {
    /// Different queues of the same context: the hardware may overlap them.
    Concurrent,
    /// Same queue: launches serialize even across "independent" streams
    /// (false serialization from connection aliasing).
    FalselySerialized,
    /// Different contexts: without MPS the device time-slices contexts;
    /// no concurrency at all.
    CrossContext,
}

/// The Hyper-Q connection allocator of one device.
#[derive(Debug)]
pub struct HyperQ {
    connections: u32,
    assignments: HashMap<(u64, u64), u32>,
    next: u32,
}

impl HyperQ {
    /// Creates the allocator with `connections` hardware queues (clamped to
    /// the architectural maximum; at least 1).
    pub fn new(connections: u32) -> Self {
        Self {
            connections: connections.clamp(1, MAX_CONNECTIONS),
            assignments: HashMap::new(),
            next: 0,
        }
    }

    /// The allocator with the driver-default connection count.
    pub fn with_default_connections() -> Self {
        Self::new(DEFAULT_CONNECTIONS)
    }

    /// Number of hardware queues.
    pub fn connections(&self) -> u32 {
        self.connections
    }

    /// Returns the queue serving `(context, stream)`, assigning one
    /// round-robin on first use (aliasing once queues run out — the source
    /// of false serialization).
    pub fn assign(&mut self, context: u64, stream: u64) -> u32 {
        let connections = self.connections;
        let next = &mut self.next;
        *self
            .assignments
            .entry((context, stream))
            .or_insert_with(|| {
                let q = *next % connections;
                *next += 1;
                q
            })
    }

    /// Distinct (context, stream) pairs registered.
    pub fn lanes(&self) -> usize {
        self.assignments.len()
    }

    /// Retires every lane whose `(context, stream)` key satisfies `pred`,
    /// returning its hardware queue to the pool. The daemon calls this when
    /// reaping a dead session so its lanes stop aliasing live streams.
    /// Returns the number of lanes retired.
    pub fn retire_lanes(&mut self, mut pred: impl FnMut(u64, u64) -> bool) -> usize {
        let before = self.assignments.len();
        self.assignments
            .retain(|&(ctx, stream), _| !pred(ctx, stream));
        before - self.assignments.len()
    }

    /// Concurrency verdict for launches from two (context, stream) lanes.
    /// Both lanes are assigned if not yet seen.
    pub fn concurrency(&mut self, a: (u64, u64), b: (u64, u64)) -> Concurrency {
        if a.0 != b.0 {
            return Concurrency::CrossContext;
        }
        let qa = self.assign(a.0, a.1);
        let qb = self.assign(b.0, b.1);
        if a == b || qa == qb {
            Concurrency::FalselySerialized
        } else {
            Concurrency::Concurrent
        }
    }
}

impl Default for HyperQ {
    fn default() -> Self {
        Self::with_default_connections()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_stable() {
        let mut hq = HyperQ::new(8);
        let q1 = hq.assign(1, 0);
        let q2 = hq.assign(1, 1);
        assert_ne!(q1, q2, "distinct streams get distinct queues while free");
        assert_eq!(hq.assign(1, 0), q1, "re-assignment is stable");
        assert_eq!(hq.lanes(), 2);
    }

    #[test]
    fn streams_within_connection_budget_are_concurrent() {
        let mut hq = HyperQ::new(8);
        for s in 0..8u64 {
            for t in 0..s {
                assert_eq!(
                    hq.concurrency((1, s), (1, t)),
                    Concurrency::Concurrent,
                    "streams {s} and {t}"
                );
            }
        }
    }

    #[test]
    fn excess_streams_alias_and_falsely_serialize() {
        let mut hq = HyperQ::new(2);
        // Round-robin by first use: the third stream wraps onto queue 0.
        let q0 = hq.assign(1, 0);
        let q1 = hq.assign(1, 1);
        let q2 = hq.assign(1, 2);
        assert_ne!(q0, q1);
        assert_eq!(q0, q2, "third stream aliases the first queue");
        assert_eq!(
            hq.concurrency((1, 0), (1, 2)),
            Concurrency::FalselySerialized
        );
        // 0 and 1 are on different queues.
        assert_eq!(hq.concurrency((1, 0), (1, 1)), Concurrency::Concurrent);
    }

    #[test]
    fn cross_context_never_concurrent() {
        // The hardware limitation that motivates context funnelling: two
        // processes' contexts cannot share the queues.
        let mut hq = HyperQ::new(32);
        assert_eq!(hq.concurrency((1, 0), (2, 0)), Concurrency::CrossContext);
        assert_eq!(hq.concurrency((1, 3), (2, 7)), Concurrency::CrossContext);
    }

    #[test]
    fn same_lane_serializes_with_itself() {
        let mut hq = HyperQ::new(8);
        assert_eq!(
            hq.concurrency((1, 5), (1, 5)),
            Concurrency::FalselySerialized
        );
    }

    #[test]
    fn connection_count_clamped() {
        assert_eq!(HyperQ::new(0).connections(), 1);
        assert_eq!(HyperQ::new(1000).connections(), MAX_CONNECTIONS);
        assert_eq!(HyperQ::default().connections(), DEFAULT_CONNECTIONS);
    }

    #[test]
    fn retired_lanes_free_their_queues() {
        let mut hq = HyperQ::new(8);
        hq.assign(1, 10);
        hq.assign(1, 11);
        hq.assign(1, 20);
        assert_eq!(hq.lanes(), 3);
        // Reap "session" whose streams are 10..19.
        let retired = hq.retire_lanes(|ctx, stream| ctx == 1 && (10..20).contains(&stream));
        assert_eq!(retired, 2);
        assert_eq!(hq.lanes(), 1);
        // Surviving lane keeps its assignment.
        let q = hq.assign(1, 20);
        assert_eq!(hq.lanes(), 1);
        let _ = q;
    }

    #[test]
    fn funnelled_contexts_regain_concurrency() {
        // The MPS/Slate trick: map two processes onto ONE server context;
        // their streams become distinct lanes of the same context and may
        // overlap.
        let mut hq = HyperQ::new(8);
        let server_ctx = 42u64;
        // daemon maps client A -> stream 1, client B -> stream 2.
        assert_eq!(
            hq.concurrency((server_ctx, 1), (server_ctx, 2)),
            Concurrency::Concurrent
        );
    }
}
