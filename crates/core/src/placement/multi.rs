//! The simulated fleet behind
//! [`SlateRuntime::run_placed`](crate::runtime::SlateRuntime::run_placed):
//! one [`SimBackend`] per device behind a [`PlacementLayer`], with every
//! routed command carried out on its device's backend.
//!
//! Each job is one session with one launch. Submission feeds
//! `SessionOpened`, `LaunchRequested`, stages the kernel on the routed
//! device and feeds `KernelReady`. Time then passes in 1 ms steps: every
//! backend advances, each drain is fed back as `KernelFinished` followed
//! by its session's `SessionClosed`, and the step ends with a
//! `DeadlineTick` heartbeat. No device fails here and no admission limit
//! is armed, so every completion is a drain. Device failure and evacuation
//! are the live daemon's (`daemon/exec.rs`).

use super::{PlacementLayer, RoutedCommand};
use crate::arbiter::Event;
use crate::backend::{Backend, SimBackend, WorkSpec};
use crate::classify::WorkloadClass;
use crate::transform::TransformedKernel;

/// Terminal state of a placed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Drained: every block executed.
    Completed {
        /// Device the job ran on.
        device: usize,
    },
}

/// One kernel to place and execute, with everything the arbiter needs to
/// schedule it.
pub(crate) struct Job {
    /// The transformed kernel to execute.
    pub(crate) kernel: TransformedKernel,
    /// Blocks pulled per queue transaction.
    pub(crate) task_size: u32,
    /// Workload class (Table I).
    pub(crate) class: WorkloadClass,
    /// SMs the kernel can productively use.
    pub(crate) sm_demand: u32,
    /// Estimated solo runtime for admission control, if profiled.
    pub(crate) est_ms: Option<u64>,
}

/// The layer, one backend per device, and the routed-command buffer every
/// feed reuses.
struct Fleet<'a> {
    layer: &'a mut PlacementLayer,
    backends: Vec<SimBackend>,
    routed: Vec<RoutedCommand>,
    now_ms: u64,
}

impl Fleet<'_> {
    /// Feeds `events` and carries out every routed command.
    fn feed(&mut self, events: &[Event]) {
        self.layer
            .feed_into(self.now_ms * 1_000, events, &mut self.routed);
        for r in &self.routed {
            self.backends[r.device].apply(&r.command);
        }
    }
}

/// Runs `jobs` on `layer`'s devices, job `i` as session `i` with lease
/// `i`, for at most `timeout_ms` milliseconds. Returns whether every job
/// drained, and each job's outcome (`None` if it was still in flight).
pub(crate) fn run(
    layer: &mut PlacementLayer,
    jobs: &[Job],
    timeout_ms: u64,
) -> (bool, Vec<Option<JobOutcome>>) {
    let backends = layer
        .device_list()
        .into_iter()
        .map(SimBackend::new)
        .collect();
    let mut fleet = Fleet {
        layer,
        backends,
        routed: Vec::new(),
        now_ms: 0,
    };
    for (i, job) in jobs.iter().enumerate() {
        let (session, lease) = (i as u64, i as u64);
        fleet.feed(&[Event::SessionOpened { session }]);
        fleet.feed(&[Event::LaunchRequested {
            session,
            lease,
            est_ms: job.est_ms,
            deadline_ms: None,
        }]);
        let device = fleet
            .layer
            .device_of_lease(lease)
            .expect("admitted lease is routed");
        fleet.backends[device].stage(lease, WorkSpec::new(job.kernel.clone(), job.task_size));
        fleet.feed(&[Event::KernelReady {
            session,
            lease,
            class: job.class,
            sm_demand: job.sm_demand,
            pinned_solo: false,
            deadline_ms: None,
        }]);
    }
    let mut outcomes = vec![None; jobs.len()];
    let mut left = jobs.len();
    while left > 0 && fleet.now_ms < timeout_ms {
        fleet.now_ms += 1;
        for b in &mut fleet.backends {
            b.advance(1);
        }
        // A fed completion can finish another lease at once (a resize that
        // finds its slice drained), so sweep until nothing is left.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for device in 0..fleet.backends.len() {
                while let Some(c) = fleet.backends[device].poll() {
                    assert!(c.ok, "a placed run evicts nothing: {c:?}");
                    fleet.feed(&[Event::KernelFinished {
                        lease: c.lease,
                        ok: true,
                    }]);
                    fleet.feed(&[Event::SessionClosed { session: c.lease }]);
                    outcomes[c.lease as usize] = Some(JobOutcome::Completed { device });
                    left -= 1;
                    progressed = true;
                }
            }
        }
        fleet.feed(&[Event::DeadlineTick]);
    }
    (left == 0, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::churn::churn;
    use crate::placement::PlacementConfig;
    use slate_gpu_sim::device::DeviceConfig;

    #[test]
    fn two_sim_devices_complete_round_robin_jobs() {
        let mut layer = PlacementLayer::new(
            vec![DeviceConfig::tiny(8), DeviceConfig::tiny(8)],
            PlacementConfig::default(),
        );
        let job = || Job {
            kernel: TransformedKernel::new(std::sync::Arc::new(churn(64, 0))),
            task_size: 4,
            class: WorkloadClass::MM,
            sm_demand: 8,
            est_ms: Some(5),
        };
        let (drained, outcomes) = run(&mut layer, &[job(), job()], 60_000);
        assert!(drained, "fleet must drain");
        // Round robin: one session per device.
        assert_eq!(
            outcomes,
            [
                Some(JobOutcome::Completed { device: 0 }),
                Some(JobOutcome::Completed { device: 1 }),
            ]
        );
        assert_eq!(layer.stats().sessions_routed, 2);
        assert_eq!(layer.device_of_session(0), None, "sessions closed");
    }
}
