//! [`MultiSim`]: a placement-driven frontend over N execution backends.
//!
//! This is the multi-device analogue of the single-device feed loop the
//! runtime and daemon run: frontend events go into a
//! [`PlacementLayer`], and every routed command is carried out on its
//! device's [`Backend`]. The driver owns the full migration protocol —
//! when an evacuation synthesizes an eviction, the evicted completion's
//! absolute `slateIdx` progress is re-staged on the target device with
//! [`WorkSpec::resuming`], so each user block still executes exactly
//! once across the fleet (the placement conformance suite pins this
//! through every staging's carried progress).
//!
//! By default the fleet is N [`SimBackend`]s — this is how
//! [`SlateRuntime::run_placed`](crate::runtime::SlateRuntime::run_placed)
//! drives multi-device simulations — but any simulated-time [`Backend`]
//! boxes in (tests wrap theirs to observe every staging). The live daemon
//! does not run through this driver: it moves a running `Dispatcher`
//! itself (`daemon/exec.rs`).

use super::{PlacementConfig, PlacementLayer, PlacementStats, RoutedCommand};
use crate::arbiter::{Command, Event, RejectScope};
use crate::backend::{Backend, Completion, DeviceFault, DeviceHealth, SimBackend, WorkSpec};
use crate::classify::WorkloadClass;
use crate::transform::TransformedKernel;
use slate_gpu_sim::device::DeviceConfig;
use std::collections::BTreeMap;

/// One kernel to place and execute: the session it belongs to, its lease,
/// and everything the arbiter needs to schedule it.
#[doc(hidden)]
pub struct MultiJob {
    /// Owning session (several jobs may share one).
    pub session: u64,
    /// Unique lease id.
    pub lease: u64,
    /// The transformed kernel to execute.
    pub kernel: TransformedKernel,
    /// Blocks pulled per queue transaction.
    pub task_size: u32,
    /// Workload class (Table I).
    pub class: WorkloadClass,
    /// SMs the kernel can productively use.
    pub sm_demand: u32,
    /// Estimated solo runtime for admission control, if profiled.
    pub est_ms: Option<u64>,
}

/// Terminal state of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Drained: every block executed. Carries the final device.
    Completed {
        /// Device the job finished on (its migration target if it moved).
        device: usize,
    },
    /// Shed by admission control before execution.
    Rejected,
    /// Evicted without a migration target (e.g. watchdog) — not re-run.
    Evicted {
        /// Progress at eviction (absolute `slateIdx`).
        progress: u64,
    },
}

/// A placement layer driving one [`Backend`] per device.
#[doc(hidden)]
pub struct MultiSim {
    layer: PlacementLayer,
    backends: Vec<Box<dyn Backend>>,
    jobs: BTreeMap<u64, MultiJob>,
    /// Outstanding (unfinished, unrejected) jobs per session; the session
    /// closes when its count reaches zero.
    session_open: BTreeMap<u64, usize>,
    outcomes: BTreeMap<u64, JobOutcome>,
    /// Last health each backend reported; edges become
    /// `DeviceDown`/`DeviceUp` events for the layer.
    seen_health: Vec<DeviceHealth>,
    /// Reusable routed-command buffer for [`MultiSim::feed`] — the
    /// fleet's feed path allocates nothing once warmed.
    routed_scratch: Vec<RoutedCommand>,
    now_ms: u64,
}

impl MultiSim {
    /// A fleet of [`SimBackend`]s, one per device.
    pub(crate) fn new(devices: Vec<DeviceConfig>, config: PlacementConfig) -> Self {
        let backends: Vec<Box<dyn Backend>> = devices
            .iter()
            .map(|d| Box::new(SimBackend::new(d.clone())) as Box<dyn Backend>)
            .collect();
        Self::with_backends(backends, config)
    }

    /// A fleet over caller-supplied backends (their devices define the
    /// placement layer's device list).
    ///
    /// # Panics
    /// If `backends` is empty.
    #[doc(hidden)]
    pub fn with_backends(backends: Vec<Box<dyn Backend>>, config: PlacementConfig) -> Self {
        let devices: Vec<DeviceConfig> = backends.iter().map(|b| b.device().clone()).collect();
        let seen_health = vec![DeviceHealth::Healthy; backends.len()];
        Self {
            layer: PlacementLayer::new(devices, config),
            backends,
            jobs: BTreeMap::new(),
            session_open: BTreeMap::new(),
            outcomes: BTreeMap::new(),
            seen_health,
            routed_scratch: Vec::new(),
            now_ms: 0,
        }
    }

    /// The placement layer (routing tables, per-core stats, loads).
    #[cfg(test)]
    pub(crate) fn layer(&self) -> &PlacementLayer {
        &self.layer
    }

    /// Mutable layer access (recording control).
    #[doc(hidden)]
    pub fn layer_mut(&mut self) -> &mut PlacementLayer {
        &mut self.layer
    }

    /// Placement counters.
    #[doc(hidden)]
    pub fn stats(&self) -> PlacementStats {
        self.layer.stats()
    }

    /// The terminal outcome of `lease`, once it has one.
    #[doc(hidden)]
    pub fn outcome(&self, lease: u64) -> Option<JobOutcome> {
        self.outcomes.get(&lease).copied()
    }

    fn now_us(&self) -> u64 {
        self.now_ms * 1_000
    }

    /// Feeds `events` and carries out every routed command. The routed
    /// batch stays readable in `self.routed_scratch` (and is returned by
    /// reference) until the next feed reuses the buffer.
    fn feed(&mut self, events: &[Event]) -> &[RoutedCommand] {
        let mut routed = std::mem::take(&mut self.routed_scratch);
        self.layer.feed_into(self.now_us(), events, &mut routed);
        for r in &routed {
            self.backends[r.device].apply(&r.command);
        }
        self.routed_scratch = routed;
        &self.routed_scratch
    }

    /// Submits a job: opens its session on first sight, runs it through
    /// admission, stages it on its routed device and announces readiness.
    /// Returns `false` (recording a [`JobOutcome::Rejected`]) if admission
    /// shed the session or the launch.
    #[doc(hidden)]
    pub fn submit(&mut self, job: MultiJob) -> bool {
        let (session, lease) = (job.session, job.lease);
        if !self.session_open.contains_key(&session) {
            let routed = self.feed(&[Event::SessionOpened { session }]);
            let shed = routed.iter().any(|r| {
                matches!(
                    r.command,
                    Command::RejectOverloaded {
                        session: s,
                        scope: RejectScope::Session,
                        ..
                    } if s == session
                )
            });
            if shed {
                self.outcomes.insert(lease, JobOutcome::Rejected);
                return false;
            }
            self.session_open.insert(session, 0);
        }
        let routed = self.feed(&[Event::LaunchRequested {
            session,
            lease,
            est_ms: job.est_ms,
            deadline_ms: None,
        }]);
        let shed = routed.iter().any(|r| {
            matches!(
                r.command,
                Command::RejectOverloaded {
                    lease: Some(l),
                    scope: RejectScope::Launch | RejectScope::Deadline,
                    ..
                } if l == lease
            )
        });
        if shed {
            self.outcomes.insert(lease, JobOutcome::Rejected);
            // No finishing job will close a session left with none.
            if self.session_open[&session] == 0 {
                self.session_open.remove(&session);
                self.feed(&[Event::SessionClosed { session }]);
            }
            return false;
        }
        let device = self
            .layer
            .device_of_lease(lease)
            .expect("admitted lease is routed");
        self.backends[device].stage(lease, WorkSpec::new(job.kernel.clone(), job.task_size));
        let ready = Event::KernelReady {
            session,
            lease,
            class: job.class,
            sm_demand: job.sm_demand,
            pinned_solo: false,
            deadline_ms: None,
        };
        *self.session_open.get_mut(&session).expect("opened above") += 1;
        self.jobs.insert(lease, job);
        self.feed(&[ready]);
        true
    }

    /// Handles one backend completion: drains feed `KernelFinished {ok}`;
    /// evictions with a pending migration re-stage on the target device
    /// and re-announce readiness; other evictions are terminal.
    fn on_completion(&mut self, device: usize, c: Completion) {
        let lease = c.lease;
        let target = self.layer.migration_target(lease);
        self.feed(&[Event::KernelFinished { lease, ok: c.ok }]);
        if c.ok {
            self.outcomes
                .insert(lease, JobOutcome::Completed { device });
            self.finish_job(lease);
            return;
        }
        let Some(dst) = target else {
            self.outcomes.insert(
                lease,
                JobOutcome::Evicted {
                    progress: c.progress,
                },
            );
            self.finish_job(lease);
            return;
        };
        debug_assert_eq!(self.layer.device_of_lease(lease), Some(dst));
        let job = &self.jobs[&lease];
        self.backends[dst].stage(
            lease,
            WorkSpec::resuming(job.kernel.clone(), job.task_size, c.progress),
        );
        let ready = Event::KernelReady {
            session: job.session,
            lease,
            class: job.class,
            sm_demand: job.sm_demand,
            pinned_solo: false,
            deadline_ms: None,
        };
        self.feed(&[ready]);
    }

    fn finish_job(&mut self, lease: u64) {
        let Some(job) = self.jobs.get(&lease) else {
            return;
        };
        let session = job.session;
        let open = self
            .session_open
            .get_mut(&session)
            .expect("session of a live job is open");
        *open -= 1;
        if *open == 0 {
            self.session_open.remove(&session);
            self.feed(&[Event::SessionClosed { session }]);
        }
    }

    /// Hard-fails `device`: its backend drops off the bus (in-flight
    /// work surfaces as `lost` completions at its carried progress), the
    /// layer marks it [`HealthState::Failed`](super::HealthState) and
    /// evacuates every live lease to in-service devices. Work resumes at
    /// its absolute `slateIdx` — no user block is lost or re-run.
    #[doc(hidden)]
    pub fn fail_device(&mut self, device: usize) {
        self.backends[device].inject_device_fault(DeviceFault::Loss);
        self.sync_health();
    }

    /// Brings a failed/degraded `device` back. The layer answers with a
    /// seeded probation window before it becomes a routing target again.
    #[cfg(test)]
    pub(crate) fn recover_device(&mut self, device: usize) {
        self.backends[device].inject_device_fault(DeviceFault::Restore);
        self.sync_health();
    }

    /// Turns backend health *edges* into arbiter-visible
    /// `DeviceDown`/`DeviceUp` events. Runs every tick (and after an
    /// explicit injection), so the layer's health machine — and hence
    /// evacuation — reacts before the next completion is polled: the
    /// evacuation's migration targets must be registered by the time the
    /// lost completions come out of `poll()`.
    fn sync_health(&mut self) {
        for d in 0..self.backends.len() {
            let h = self.backends[d].health();
            if h == self.seen_health[d] {
                continue;
            }
            self.seen_health[d] = h;
            let ev = match h {
                DeviceHealth::Lost => Event::DeviceDown {
                    device: d as u64,
                    hard: true,
                },
                DeviceHealth::Degraded => Event::DeviceDown {
                    device: d as u64,
                    hard: false,
                },
                DeviceHealth::Healthy => Event::DeviceUp { device: d as u64 },
            };
            self.feed(&[ev]);
        }
    }

    /// Advances the fleet one millisecond: backend time passes, health
    /// edges surface, fresh completions are absorbed, and a heartbeat
    /// tick gives every core a scheduling pass (watchdogs, starvation
    /// aging).
    #[doc(hidden)]
    pub fn tick(&mut self) {
        self.now_ms += 1;
        for b in &mut self.backends {
            b.advance(1);
        }
        self.sync_health();
        loop {
            let mut progressed = false;
            for d in 0..self.backends.len() {
                while let Some(c) = self.backends[d].poll() {
                    self.on_completion(d, c);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        self.feed(&[Event::DeadlineTick]);
    }

    /// Ticks until every submitted job has a terminal outcome, for at most
    /// `timeout_ms` backend milliseconds. Returns `true` if the fleet
    /// drained.
    #[doc(hidden)]
    pub fn run(&mut self, timeout_ms: u64) -> bool {
        for _ in 0..timeout_ms {
            if self.drained() {
                return true;
            }
            self.tick();
        }
        self.drained()
    }

    /// Whether every submitted job has reached a terminal outcome.
    pub(crate) fn drained(&self) -> bool {
        self.jobs.keys().all(|l| self.outcomes.contains_key(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionLimits;
    use crate::arbiter::ArbiterConfig;
    use crate::backend::churn::churn;
    use crate::classify::WorkloadClass::*;
    use crate::placement::HealthState;

    fn job(session: u64, lease: u64, blocks: u32, class: WorkloadClass) -> MultiJob {
        MultiJob {
            session,
            lease,
            kernel: TransformedKernel::new(std::sync::Arc::new(churn(blocks, 0))),
            task_size: 4,
            class,
            sm_demand: 8,
            est_ms: Some(5),
        }
    }

    #[test]
    fn two_sim_devices_complete_round_robin_jobs() {
        let mut fleet = MultiSim::new(
            vec![DeviceConfig::tiny(8), DeviceConfig::tiny(8)],
            PlacementConfig::default(),
        );
        let j1 = job(1, 1, 64, MM);
        let j2 = job(2, 2, 64, MM);
        assert!(fleet.submit(j1));
        assert!(fleet.submit(j2));
        // Round robin: one session per device, both dispatch immediately.
        assert_eq!(fleet.layer().device_of_session(1), Some(0));
        assert_eq!(fleet.layer().device_of_session(2), Some(1));
        assert!(fleet.run(60_000), "fleet must drain");
        assert_eq!(fleet.outcome(1), Some(JobOutcome::Completed { device: 0 }));
        assert_eq!(fleet.outcome(2), Some(JobOutcome::Completed { device: 1 }));
        assert_eq!(fleet.stats().sessions_routed, 2);
    }

    /// A one-device fleet whose core enforces `limits`.
    fn limited(limits: AdmissionLimits) -> MultiSim {
        MultiSim::new(
            vec![DeviceConfig::tiny(8)],
            PlacementConfig {
                arbiter: ArbiterConfig {
                    limits,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn a_session_whose_only_launch_is_shed_is_closed() {
        let mut fleet = limited(AdmissionLimits {
            max_pending_global: Some(1),
            ..Default::default()
        });
        let j1 = job(1, 1, 64, MM);
        let j2 = job(2, 2, 64, MM);
        assert!(fleet.submit(j1));
        assert!(!fleet.submit(j2), "the pending bound sheds job 2");
        assert_eq!(fleet.outcome(2), Some(JobOutcome::Rejected));
        assert!(fleet.run(60_000), "fleet must drain");
        assert_eq!(fleet.layer().core_stats().admission.active_sessions, 0);
        assert_eq!(fleet.layer().device_of_session(2), None);
    }

    #[test]
    fn a_shed_session_rejects_its_job() {
        let mut fleet = limited(AdmissionLimits {
            max_sessions: Some(1),
            ..Default::default()
        });
        let j1 = job(1, 1, 64, MM);
        let j2 = job(2, 2, 64, MM);
        assert!(fleet.submit(j1));
        assert!(!fleet.submit(j2), "the second session is shed");
        assert!(fleet.run(60_000), "fleet must drain");
        assert_eq!(fleet.outcome(1), Some(JobOutcome::Completed { device: 0 }));
        assert_eq!(fleet.outcome(2), Some(JobOutcome::Rejected));
        assert_eq!(fleet.layer().core_stats().admission.active_sessions, 0);
    }

    #[test]
    fn recovered_device_passes_probation_before_taking_traffic() {
        let mut fleet = MultiSim::new(
            vec![DeviceConfig::tiny(8), DeviceConfig::tiny(8)],
            PlacementConfig::default(),
        );
        let j1 = job(1, 1, 2_000, MM);
        assert!(fleet.submit(j1));
        assert_eq!(fleet.layer().device_of_lease(1), Some(0));
        fleet.fail_device(0);
        assert!(fleet.run(120_000), "job must finish on the survivor");
        assert_eq!(fleet.outcome(1), Some(JobOutcome::Completed { device: 1 }));
        assert_eq!(fleet.layer().eligible_devices(), 1);
        // Recovery is gated: up is not immediately eligible…
        fleet.recover_device(0);
        assert!(matches!(
            fleet.layer().health_of(0),
            HealthState::Probation { .. }
        ));
        assert_eq!(fleet.layer().eligible_devices(), 1);
        // …until the seeded probation window passes (default ≤ 8 ms of
        // logical time; heartbeats advance the layer clock).
        for _ in 0..12 {
            fleet.tick();
        }
        assert_eq!(fleet.layer().health_of(0), HealthState::Healthy);
        assert_eq!(fleet.layer().eligible_devices(), 2);
    }
}
