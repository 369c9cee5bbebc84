//! Cross-backend conformance: every [`Backend`] implementation must pass
//! the same scripted execution scenarios (see
//! [`slate_core::backend::testkit`]), with and without injected
//! command-stream chaos.

use slate_core::backend::{testkit, Backend, ChaosBackend, DispatcherBackend, SimBackend};
use slate_core::workers::LanePool;
use slate_gpu_sim::device::DeviceConfig;
use slate_gpu_sim::fault::FaultPlan;

fn device() -> DeviceConfig {
    DeviceConfig::tiny(4)
}

#[test]
fn sim_backend_passes_conformance() {
    testkit::run_conformance(&mut || Box::new(SimBackend::new(device())));
}

#[test]
fn dispatcher_backend_passes_conformance() {
    testkit::run_conformance(&mut || Box::new(DispatcherBackend::new(device())));
}

/// The same scenarios with the workers hosted on lane 0 alone and on four
/// lanes, whatever this machine's CPU count: exactly-once hit buffers,
/// retreat monotonicity and SM confinement do not depend on who hosts.
#[test]
fn dispatcher_backend_passes_conformance_at_one_and_four_lanes() {
    for lanes in [1, 4] {
        let pool = LanePool::with_lanes(lanes);
        testkit::run_conformance(&mut || {
            Box::new(DispatcherBackend::new(device()).with_pool(pool.clone()))
        });
    }
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
fn chaos_wrapped_dispatcher_backend_passes_conformance() {
    for seed in [0xA11CE, 0xB0B, 42] {
        testkit::run_conformance(&mut || {
            Box::new(ChaosBackend::new(
                DispatcherBackend::new(device()),
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
fn device_chaos_wrapped_dispatcher_backend_passes_conformance() {
    for seed in [0xA11CE, 0xB0B, 42] {
        testkit::run_conformance(&mut || {
            Box::new(ChaosBackend::new(
                DispatcherBackend::new(device()),
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
        DispatcherBackend::new(device()),
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
    // first dispatches) the scenarios must fire rules and still run every
    // block exactly once, which each scenario asserts itself.
    let chaos = || {
        ChaosBackend::new(
            DispatcherBackend::new(device()),
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
    let sim = SimBackend::new(device());
    assert_eq!(sim.name(), "sim");
    assert!(!sim.is_functional());
    let disp = DispatcherBackend::new(device());
    assert_eq!(disp.name(), "dispatcher");
    assert!(disp.is_functional());
    let chaos = ChaosBackend::new(SimBackend::new(device()), FaultPlan::new());
    assert_eq!(chaos.name(), "chaos");
    assert!(!chaos.is_functional());
}

#[test]
fn differential_runner_agrees_on_a_fresh_recording() {
    // Record a live BS-RG co-run (it contains Dispatch + Resize churn),
    // then replay its command stream through both backends and require
    // identical observable transcripts.
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

    let mut sim = SimBackend::new(log.device.clone());
    let mut disp = DispatcherBackend::new(log.device.clone());
    let a = testkit::replay_transcript(&log, &mut sim);
    let b = testkit::replay_transcript(&log, &mut disp);
    assert!(!a.is_empty(), "the recording must contain dispatches");
    assert_eq!(a, b, "sim and dispatcher transcripts diverged");
}
