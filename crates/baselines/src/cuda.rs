//! Vanilla CUDA runtime baseline.
//!
//! Each process owns its own CUDA context. Without MPS, contexts cannot
//! execute concurrently: the driver time-slices the device between them at
//! kernel-to-completion granularity, paying a context switch and scheduling
//! waste on every alternation (paper §V-A2: "Vanilla CUDA uses time
//! slicing ... allocates all SM resources to one and switches to another
//! the next time"). This is the normalization baseline of Fig. 7.

use crate::runtime::{RunOutcome, Runtime};
use crate::serial::{run_serialized, SerialOverheads};
use slate_gpu_sim::device::DeviceConfig;
use slate_gpu_sim::trace::Trace;
use slate_kernels::workload::AppSpec;

/// Fraction of a launch's duration wasted by driver time-slice arbitration
/// when alternating between contending contexts. Calibrated so MPS (which
/// avoids it) comes out ~6% ahead on paired workloads, matching §V-E.
pub const TIMESLICE_WASTE: f64 = 0.09;

/// The vanilla CUDA runtime.
#[derive(Debug, Clone)]
pub struct CudaRuntime {
    cfg: DeviceConfig,
}

impl CudaRuntime {
    /// Creates the runtime for a device.
    pub fn new(cfg: DeviceConfig) -> Self {
        Self { cfg }
    }

    fn overheads(&self) -> SerialOverheads {
        SerialOverheads {
            label: "CUDA".into(),
            ctx_switch_s: self.cfg.ctx_switch_s,
            timeslice_waste: TIMESLICE_WASTE,
            per_launch_s: 0.0,
            contended_penalty: 0.0,
            session_setup_s: 0.0,
            leftover_overlap: false,
        }
    }
}

impl Runtime for CudaRuntime {
    fn label(&self) -> &str {
        "CUDA"
    }

    fn device(&self) -> &DeviceConfig {
        &self.cfg
    }

    fn run_with(&self, apps: &[AppSpec], traced: bool) -> (RunOutcome, Option<Trace>) {
        run_serialized(&self.cfg, &self.overheads(), apps, traced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slate_kernels::workload::Benchmark;

    #[test]
    fn solo_run_has_no_multiprocessing_tax() {
        let rt = CudaRuntime::new(DeviceConfig::titan_xp());
        let app = Benchmark::MM.app().scaled_down(100);
        let out = rt.run(std::slice::from_ref(&app));
        // Kernel busy time ~ closed-form estimate x launches.
        let est = slate_gpu_sim::model::estimate_duration(
            rt.device(),
            &app.perf,
            app.blocks_per_launch,
            30,
            slate_gpu_sim::perf::ExecMode::Hardware,
        );
        let expect = est * app.launches as f64;
        let got = out.apps[0].kernel_busy_s;
        assert!((got - expect).abs() / expect < 0.05, "{got} vs {expect}");
    }

    #[test]
    fn pairs_pay_the_timeslice_tax() {
        let rt = CudaRuntime::new(DeviceConfig::titan_xp());
        let a = Benchmark::BS.app().scaled_down(300);
        let b = Benchmark::TR.app().scaled_down(300);
        let sa = rt.solo_time(&a);
        let sb = rt.solo_time(&b);
        let pair = rt.run(&[a, b]);
        // Strictly worse than perfect serialization of the kernel phases.
        assert!(pair.makespan_s > (sa + sb) * 0.7);
        let antt = pair.antt(&[sa, sb]);
        assert!(antt > 1.2, "paired apps are much slower than solo: {antt}");
    }
}
