//! Cross-backend conformance: every simulated-time [`Backend`] must pass
//! the same scripted execution scenarios (see
//! `support/testkit.rs`), with and without injected
//! command-stream chaos. The daemon's real-thread executor is
//! held to the same properties in `daemon_conformance.rs`.

mod support;

use slate_core::arbiter::Command;
use slate_core::backend::{Backend, Completion, SimBackend, WorkSpec};
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::fault::FaultPlan;
use support::chaos::ChaosBackend;
use support::testkit;

fn device() -> DeviceConfig {
    DeviceConfig::tiny(4)
}

#[test]
fn sim_backend_passes_conformance() {
    testkit::run_conformance(&mut || Box::new(SimBackend::new(device())));
}

#[test]
fn chaos_wrapped_sim_backend_passes_conformance() {
    for seed in [0xA11CE, 0xB0B, 42] {
        testkit::run_conformance(&mut || {
            Box::new(ChaosBackend::new(
                SimBackend::new(device()),
                FaultPlan::command_chaos(seed, 12),
            ))
        });
    }
}

#[test]
fn chaos_perturbations_actually_fire() {
    // The chaos suite only means something if the perturbations trigger:
    // run the churn scenario (9+ commands) against a dense plan and check
    // rules fired.
    let mut b = ChaosBackend::new(
        SimBackend::new(device()),
        FaultPlan::command_chaos(0x5EED, 16),
    );
    testkit::resize_churn_exactly_once(&mut b, 7);
    assert!(
        b.faults_fired() > 0,
        "chaos plan never fired during the churn scenario"
    );
}

/// A pass-through wrapper that keeps the trait's provided
/// `wait_completion`/`drive_until` (the sim backend overrides
/// `drive_until` with an engine-stepping loop of its own).
struct Provided(SimBackend);

impl Backend for Provided {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn device(&self) -> &DeviceConfig {
        self.0.device()
    }
    fn stage(&mut self, lease: u64, spec: WorkSpec) {
        self.0.stage(lease, spec);
    }
    fn apply(&mut self, cmd: &Command) {
        self.0.apply(cmd);
    }
    fn poll(&mut self) -> Option<Completion> {
        self.0.poll()
    }
    fn advance(&mut self, millis: u64) {
        self.0.advance(millis);
    }
    fn progress(&self, lease: u64) -> u64 {
        self.0.progress(lease)
    }
    fn held_range(&self, lease: u64) -> Option<SmRange> {
        self.0.held_range(lease)
    }
}

/// A fresh wrapped backend with lease 1 dispatched on every SM.
fn dispatched() -> Provided {
    let mut b = Provided(SimBackend::new(device()));
    b.stage(1, WorkSpec::new(testkit::churn_kernel(2_000, 10), 5));
    b.apply(&Command::Dispatch {
        lease: 1,
        range: SmRange::all(device().num_sms),
    });
    b
}

/// The provided waits let at most their bound of backend time pass and
/// return every completion that time produced: a lease that drains in
/// the bound's last millisecond is returned, and a bound one millisecond
/// short leaves it undrained rather than drained and unreported.
#[test]
fn provided_waits_return_a_drain_at_their_bound() {
    // The drain lands in the `at`-th millisecond.
    let mut b = dispatched();
    let mut at = 0;
    while b.poll().is_none() {
        b.advance(1);
        at += 1;
    }
    assert!(at >= 2, "the lease needs more than a millisecond: {at}");

    let c = dispatched()
        .wait_completion(at)
        .expect("drains at the bound");
    assert!(c.ok && c.lease == 1);
    let cs = dispatched().drive_until(1, at);
    assert!(cs.last().is_some_and(|c| c.ok && c.lease == 1), "{cs:?}");

    let mut b = dispatched();
    assert_eq!(b.wait_completion(at - 1), None);
    assert_eq!(b.poll(), None, "wait_completion let time pass its bound");
    assert!(b.wait_completion(1).is_some_and(|c| c.ok));
    let mut b = dispatched();
    assert_eq!(b.drive_until(1, at - 1), vec![]);
    assert_eq!(b.poll(), None, "drive_until let time pass its bound");
    assert_eq!(b.drive_until(1, 1).len(), 1);
}

#[test]
fn backends_report_their_nature() {
    assert_eq!(SimBackend::new(device()).name(), "sim");
    let chaos = ChaosBackend::new(SimBackend::new(device()), FaultPlan::new());
    assert_eq!(chaos.name(), "chaos");
}

#[test]
fn differential_runner_agrees_on_a_fresh_recording() {
    // Record a live BS-RG co-run (it contains Dispatch + Resize churn),
    // then replay its command stream through the simulation backend bare
    // and under command chaos, and require identical observable
    // transcripts: duplicated, detoured and delayed commands must not
    // change what any staging reports.
    use slate_baselines::runtime::Runtime as _;
    use slate_core::runtime::SlateRuntime;
    use slate_kernels::workload::Benchmark;

    let cfg = DeviceConfig::titan_xp();
    let rt = SlateRuntime::new(cfg.clone());
    let apps = [
        Benchmark::BS.app().scaled_down(30),
        Benchmark::RG.app().scaled_down(30),
    ];
    let (_, log) = rt.run_recorded(&apps);
    assert_eq!(rt.device().num_sms, cfg.num_sms);

    testkit::assert_chaos_keeps_transcript(&log);
}
