//! Cross-backend conformance: every simulated-time [`Backend`] must pass
//! the same scripted execution scenarios (see
//! `support/testkit.rs`), with and without injected
//! command-stream and device chaos. The daemon's real-thread executor is
//! held to the same properties in `daemon_conformance.rs`.

mod support;

use slate_core::backend::{Backend, SimBackend};
use slate_gpu_sim::device::DeviceConfig;
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
fn device_chaos_wrapped_sim_backend_passes_conformance() {
    // Seeded device outages (losses, stalls, flaps) fire mid-scenario;
    // the decorator recovers each one inline, so every execution property
    // must still hold.
    for seed in [0xA11CE, 0xB0B, 42] {
        testkit::run_conformance(&mut || {
            Box::new(ChaosBackend::new(
                SimBackend::new(device()),
                FaultPlan::device_chaos(seed, 6),
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

#[test]
fn device_chaos_actually_fires() {
    // `ChaosBackend` is the only device-fault injector, so the device-chaos
    // suite above means something only if its outages trigger. Under a
    // dense device plan (this seed schedules an outage on each of the
    // first dispatches) the scenarios must fire rules and still carry
    // every block's progress exactly, which each scenario asserts itself.
    let chaos = || {
        ChaosBackend::new(
            SimBackend::new(device()),
            FaultPlan::device_chaos(0x5EED, 16),
        )
    };
    let mut b = chaos();
    testkit::resize_churn_exactly_once(&mut b, 7);
    assert!(
        b.faults_fired() > 0,
        "device chaos plan never fired during the churn scenario"
    );
    // The second dispatch lands while the first lease is resident: its
    // outage loses that lease in flight, and the decorator resumes it.
    let mut b = chaos();
    testkit::preempt_then_resume(&mut b);
    assert!(
        b.faults_fired() >= 2,
        "no outage hit the resident lease: {} fired",
        b.faults_fired()
    );
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
