//! Metric extraction from recorded (or counterfactually replayed) logs.
//!
//! These extractors are shared by the LLM-SLO experiment harness and the
//! offline autotuner, which puts one constraint front and center: under
//! open-loop what-if replay ([`replay_under`]) the *events* are fixed —
//! a kernel still finishes when the recording says it did — while the
//! *commands* vary with the configuration. Any metric meant to compare
//! configurations must therefore be command-derived. Ready→finish
//! latency is configuration-invariant by construction; ready→dispatch
//! wait, preemption latency and the dispatch-normalized slowdown proxy
//! are not, so those are what [`ReplayMetrics`] scores.
//!
//! [`replay_under`]: crate::arbiter::replay::replay_under

use crate::arbiter::replay::ReplayBatch;
use crate::arbiter::{Command, Event, Tick};
use slate_kernels::workload::SloClass;
use std::collections::{BTreeMap, BTreeSet};

/// Nearest-rank percentile of latencies (`q` in 0..=1). Empty input → 0.
pub fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency distribution summary in logical microseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst sample.
    pub max_us: u64,
}

impl LatencyStats {
    /// Summarises a latency sample set.
    pub fn of(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        LatencyStats {
            n: samples.len(),
            p50_us: percentile_us(&samples, 0.50),
            p95_us: percentile_us(&samples, 0.95),
            p99_us: percentile_us(&samples, 0.99),
            max_us: samples.last().copied().unwrap_or(0),
        }
    }
}

/// Sessions declared latency-critical in a batch stream.
pub fn critical_sessions<B: ReplayBatch>(batches: &[B]) -> BTreeSet<u64> {
    let mut crit = BTreeSet::new();
    for b in batches {
        for e in b.events() {
            if let Event::SloArrival { session, class } = e {
                if *class == SloClass::LatencyCritical {
                    crit.insert(*session);
                }
            }
        }
    }
    crit
}

/// Per-launch decode latencies (ready → drained, logical µs) of the
/// latency-critical sessions. Event-derived: identical for every
/// configuration replayed over the same events, so use it to describe a
/// *recording*, never to compare variants.
pub fn decode_latencies<B: ReplayBatch>(batches: &[B]) -> Vec<u64> {
    let crit = critical_sessions(batches);
    let mut pending: BTreeMap<u64, Tick> = BTreeMap::new();
    let mut lat = Vec::new();
    for b in batches {
        for e in b.events() {
            match e {
                Event::KernelReady { session, lease, .. } if crit.contains(session) => {
                    pending.insert(*lease, b.at());
                }
                Event::KernelFinished { lease, ok: true } => {
                    if let Some(ready) = pending.remove(lease) {
                        lat.push(b.at() - ready);
                    }
                }
                _ => {}
            }
        }
    }
    lat
}

/// Preemption latencies (logical µs from the preemptor's `KernelReady` to
/// the batch that emitted its displacing `Preempt`+`Dispatch`). The core
/// processes a batch's events before deciding, so a same-batch preemption
/// observes latency zero.
pub fn preempt_latencies<B: ReplayBatch>(batches: &[B]) -> Vec<u64> {
    let mut ready_at: BTreeMap<u64, Tick> = BTreeMap::new();
    let mut lat = Vec::new();
    for b in batches {
        for e in b.events() {
            if let Event::KernelReady { lease, .. } = e {
                ready_at.insert(*lease, b.at());
            }
        }
        let mut preempting = false;
        for c in b.replies().iter().map(|r| B::routed(r).1) {
            match c {
                Command::Preempt { .. } => preempting = true,
                Command::Dispatch { lease, .. } if preempting => {
                    preempting = false;
                    if let Some(ready) = ready_at.get(lease) {
                        lat.push(b.at() - ready);
                    }
                }
                _ => {}
            }
        }
    }
    lat
}

/// Command-derived metrics of one replayed batch stream — the quantities
/// that *differ* between configurations replayed over the same events,
/// which is what makes them valid tuner scores.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayMetrics {
    /// Leases that both dispatched and finished inside the log.
    pub episodes: usize,
    /// Leases whose `KernelFinished` arrived without any dispatch under
    /// this configuration (the recorded run dispatched them; the variant
    /// chose not to). Each contributes a large slowdown penalty.
    pub undispatched: usize,
    /// Ready → dispatch wait, all finished leases.
    pub wait: LatencyStats,
    /// Ready → dispatch wait, latency-critical sessions only.
    pub lc_wait: LatencyStats,
    /// Average normalized turnaround proxy: mean over finished leases of
    /// `(finish − ready) / (finish − dispatch)` — queueing-inflated time
    /// over service time. 1.0 = every lease dispatched the instant it was
    /// ready; undispatched leases count as `(finish − ready) + 1`.
    pub antt_proxy: f64,
    /// Preemption latency (arrival → displacing command).
    pub preempt: LatencyStats,
    /// `Preempt` commands emitted.
    pub preemptions: usize,
    /// `RejectOverloaded` commands emitted.
    pub sheds: usize,
    /// `Evict` commands emitted.
    pub evictions: usize,
    /// `Resize` commands emitted.
    pub resizes: usize,
    /// `PromoteStarved` commands emitted.
    pub promotions: usize,
}

/// Extracts [`ReplayMetrics`] from a (replayed or recorded) batch stream.
/// On a placement stream the device indices are dropped: waits and
/// preemptions are fleet-wide quantities.
pub fn replay_metrics<B: ReplayBatch>(batches: &[B]) -> ReplayMetrics {
    let crit = critical_sessions(batches);
    let mut session_of: BTreeMap<u64, u64> = BTreeMap::new();
    let mut ready_at: BTreeMap<u64, Tick> = BTreeMap::new();
    let mut dispatch_at: BTreeMap<u64, Tick> = BTreeMap::new();
    let mut waits = Vec::new();
    let mut lc_waits = Vec::new();
    let mut slowdowns = Vec::new();
    let mut m = ReplayMetrics::default();
    for b in batches {
        for e in b.events() {
            match e {
                Event::KernelReady { session, lease, .. } => {
                    session_of.insert(*lease, *session);
                    ready_at.insert(*lease, b.at());
                }
                Event::KernelFinished { lease, .. } => {
                    let Some(ready) = ready_at.remove(lease) else {
                        continue;
                    };
                    let lc = session_of.remove(lease).is_some_and(|s| crit.contains(&s));
                    match dispatch_at.remove(lease) {
                        Some(start) => {
                            m.episodes += 1;
                            let wait = start.saturating_sub(ready);
                            waits.push(wait);
                            if lc {
                                lc_waits.push(wait);
                            }
                            let total = b.at().saturating_sub(ready);
                            let service = b.at().saturating_sub(start);
                            slowdowns.push(if service > 0 {
                                total as f64 / service as f64
                            } else {
                                1.0
                            });
                        }
                        None => {
                            // This configuration never granted the lease
                            // SMs before the recorded finish: the whole
                            // recorded turnaround was queueing.
                            m.undispatched += 1;
                            let total = b.at().saturating_sub(ready);
                            waits.push(total);
                            if lc {
                                lc_waits.push(total);
                            }
                            slowdowns.push(total as f64 + 1.0);
                        }
                    }
                }
                _ => {}
            }
        }
        for c in b.replies().iter().map(|r| B::routed(r).1) {
            match c {
                Command::Dispatch { lease, .. } => {
                    dispatch_at.entry(*lease).or_insert(b.at());
                }
                Command::Resize { .. } => m.resizes += 1,
                Command::Preempt { .. } => m.preemptions += 1,
                Command::Evict { .. } => m.evictions += 1,
                Command::PromoteStarved { .. } => m.promotions += 1,
                Command::RejectOverloaded { .. } => m.sheds += 1,
                Command::Reap { .. } => {}
            }
        }
    }
    m.antt_proxy = if slowdowns.is_empty() {
        1.0
    } else {
        slowdowns.iter().sum::<f64>() / slowdowns.len() as f64
    };
    m.preempt = LatencyStats::of(preempt_latencies(batches));
    m.wait = LatencyStats::of(waits);
    m.lc_wait = LatencyStats::of(lc_waits);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::replay::EventLog;
    use crate::arbiter::{ArbiterConfig, ArbiterCore};
    use slate_gpu_sim::device::DeviceConfig;

    fn tiny_log() -> EventLog {
        let mut core = ArbiterCore::new(DeviceConfig::titan_xp(), ArbiterConfig::default());
        core.start_recording();
        let s = |session| Event::SessionOpened { session };
        let r = |session, lease, demand| Event::KernelReady {
            session,
            lease,
            class: crate::classify::WorkloadClass::LC,
            sm_demand: demand,
            pinned_solo: false,
            deadline_ms: None,
        };
        core.feed(0, &[s(1), s(2)]);
        core.feed(10, &[r(1, 1, 10)]);
        core.feed(20, &[r(2, 2, 10)]);
        core.feed(500, &[Event::KernelFinished { lease: 1, ok: true }]);
        core.feed(900, &[Event::KernelFinished { lease: 2, ok: true }]);
        core.take_log().expect("recording")
    }

    #[test]
    fn replay_metrics_counts_episodes() {
        let log = tiny_log();
        let m = replay_metrics(&log.batches);
        assert_eq!(m.episodes, 2);
        assert_eq!(m.undispatched, 0);
        assert_eq!(m.wait.n, 2);
        assert!(m.antt_proxy >= 1.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile_us(&v, 0.50), 5);
        assert_eq!(percentile_us(&v, 0.99), 10);
        assert_eq!(percentile_us(&[], 0.99), 0);
    }
}
