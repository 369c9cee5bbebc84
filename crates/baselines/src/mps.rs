//! NVIDIA MPS baseline.
//!
//! MPS (Multi-Process Service) interposes a daemon that funnels every
//! client's CUDA context into a single server context, so kernels from
//! different processes *can* execute concurrently — but block placement
//! follows the hardware *leftover* policy: a second kernel only receives SM
//! slots the first kernel is no longer filling. For the evaluation's large
//! kernels ("the large number of blocks and threads ... prevents spatial
//! sharing", §V-C) this degenerates to consecutive execution — without the
//! context-switch and time-slice waste vanilla CUDA pays, which is where
//! MPS's ~6% advantage over CUDA comes from, and with a small per-launch
//! proxy cost, which is why its solo application times run slightly above
//! CUDA's (Fig. 6).

use crate::runtime::{RunOutcome, Runtime};
use crate::serial::{run_serialized, SerialOverheads};
use slate_gpu_sim::device::DeviceConfig;
use slate_gpu_sim::trace::Trace;
use slate_kernels::workload::AppSpec;

/// Per-launch proxy relay cost through the MPS daemon.
pub const MPS_PER_LAUNCH_S: f64 = 30e-6;
/// Fraction of kernel time lost to leftover-policy tail interference when
/// another client contends (next kernel's blocks bleeding into the drain).
pub const MPS_CONTENDED_PENALTY: f64 = 0.035;
/// One-time per-client session establishment cost.
pub const MPS_SESSION_SETUP_S: f64 = 0.05;

/// The NVIDIA MPS runtime.
#[derive(Debug, Clone)]
pub struct MpsRuntime {
    cfg: DeviceConfig,
}

impl MpsRuntime {
    /// Creates the runtime for a device.
    pub fn new(cfg: DeviceConfig) -> Self {
        Self { cfg }
    }

    fn overheads(&self) -> SerialOverheads {
        SerialOverheads {
            label: "MPS".into(),
            ctx_switch_s: 0.0,
            timeslice_waste: 0.0,
            per_launch_s: MPS_PER_LAUNCH_S,
            contended_penalty: MPS_CONTENDED_PENALTY,
            session_setup_s: MPS_SESSION_SETUP_S,
            leftover_overlap: true,
        }
    }
}

impl Runtime for MpsRuntime {
    fn label(&self) -> &str {
        "MPS"
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
    use crate::cuda::CudaRuntime;
    use slate_kernels::workload::Benchmark;

    #[test]
    fn mps_beats_cuda_on_pairs() {
        let cfg = DeviceConfig::titan_xp();
        let mps = MpsRuntime::new(cfg.clone());
        let cuda = CudaRuntime::new(cfg);
        let a = Benchmark::BS.app().scaled_down(20);
        let b = Benchmark::BS.app().scaled_down(20);
        let m = mps.run(&[a.clone(), b.clone()]);
        let c = cuda.run(&[a, b]);
        let gain = m.throughput_gain_over(&c);
        assert!(
            (0.01..0.15).contains(&gain),
            "MPS should beat CUDA by a few percent on pairs, got {gain}"
        );
    }

    #[test]
    fn mps_solo_slightly_slower_than_cuda() {
        let cfg = DeviceConfig::titan_xp();
        let mps = MpsRuntime::new(cfg.clone());
        let cuda = CudaRuntime::new(cfg);
        let app = Benchmark::TR.app().scaled_down(10);
        let tm = mps.solo_time(&app);
        let tc = cuda.solo_time(&app);
        assert!(tm > tc, "MPS daemon adds overhead solo: {tm} vs {tc}");
        assert!(tm < tc * 1.1, "but only slightly: {tm} vs {tc}");
    }

    #[test]
    fn mps_reports_comm_time() {
        let cfg = DeviceConfig::titan_xp();
        let mps = MpsRuntime::new(cfg);
        let app = Benchmark::RG.app().scaled_down(100);
        let out = mps.run(std::slice::from_ref(&app));
        assert!(out.apps[0].comm_s > 0.0);
    }
}
