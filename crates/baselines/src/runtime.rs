//! The common runtime interface all three schedulers implement.
//!
//! A *runtime* takes a set of application processes ([`AppSpec`]s), runs
//! them to completion against the simulated device, and reports per-app
//! results. The paper compares three runtimes (§V-A2):
//!
//! * **vanilla CUDA** — per-process contexts; concurrent processes
//!   time-slice the device with kernel-to-completion granularity;
//! * **NVIDIA MPS** — context funnelling through a daemon plus the hardware
//!   *leftover* policy (effectively consecutive execution for the large
//!   kernels under study);
//! * **Slate** — workload-aware spatial sharing (implemented in
//!   `slate-core`).

use slate_gpu_sim::device::DeviceConfig;
use slate_gpu_sim::metrics::KernelMetrics;
use slate_gpu_sim::trace::Trace;
use slate_kernels::workload::{AppSpec, Benchmark};

/// Result of one application process under some runtime.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Which benchmark ran.
    pub bench: Benchmark,
    /// Wall-clock end time of the process (all processes start at 0).
    pub end_s: f64,
    /// Total application time (start-to-end).
    pub app_time_s: f64,
    /// Time the app's kernels were executing on the device.
    pub kernel_busy_s: f64,
    /// Wall-clock time the app's first kernel was dispatched.
    pub kernel_start_s: f64,
    /// Wall-clock time the app's last kernel drained.
    pub kernel_end_s: f64,
    /// Client-daemon communication time charged to the app (Slate/MPS).
    pub comm_s: f64,
    /// Code injection and runtime compilation time (Slate only).
    pub inject_s: f64,
    /// Times the app's running launches were resized (Slate only).
    pub resizes: u32,
    /// Aggregated hardware counters over all the app's launches.
    pub metrics: KernelMetrics,
}

impl AppResult {
    /// Host time: everything outside kernel execution (setup, transfers,
    /// waiting for the device, daemon overheads).
    pub fn host_s(&self) -> f64 {
        (self.app_time_s - self.kernel_busy_s).max(0.0)
    }
}

/// Outcome of running a set of processes under one runtime.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Runtime label ("CUDA", "MPS", "Slate").
    pub runtime: String,
    /// Per-app results, in input order.
    pub apps: Vec<AppResult>,
    /// Time at which the last process finished.
    pub makespan_s: f64,
    /// Scheduling records the run made (launches, stops, resizes,
    /// transfer starts and ends), whether or not it kept them: see
    /// [`Runtime::run_traced`].
    pub records: u64,
}

impl RunOutcome {
    /// Average normalized turnaround time against per-app solo baselines:
    /// `mean(T_i / T_i_solo)` (paper §III-B's throughput criterion
    /// generalised to application granularity, lower is better).
    pub fn antt(&self, solo_times: &[f64]) -> f64 {
        assert_eq!(solo_times.len(), self.apps.len());
        let sum: f64 = self
            .apps
            .iter()
            .zip(solo_times)
            .map(|(a, &s)| a.app_time_s / s)
            .sum();
        sum / self.apps.len() as f64
    }

    /// System throughput relative to another outcome on the same workload:
    /// `other.makespan / self.makespan - 1` (positive = this one is faster).
    pub fn throughput_gain_over(&self, other: &RunOutcome) -> f64 {
        other.makespan_s / self.makespan_s - 1.0
    }
}

/// A GPU multiprocessing runtime.
pub trait Runtime {
    /// Runtime label used in reports.
    fn label(&self) -> &str;
    /// The device this runtime schedules.
    fn device(&self) -> &DeviceConfig;
    /// Runs all `apps` as concurrent processes starting at time 0; with
    /// `traced`, also returns the [`Trace`] of every launch, stop, resize
    /// and transfer (and only then keeps them).
    fn run_with(&self, apps: &[AppSpec], traced: bool) -> (RunOutcome, Option<Trace>);

    /// Runs all `apps` as concurrent processes starting at time 0,
    /// counting its scheduling records without keeping them.
    fn run(&self, apps: &[AppSpec]) -> RunOutcome {
        self.run_with(apps, false).0
    }

    /// [`Runtime::run`], also returning the scheduling trace (for the
    /// SM-occupancy Gantt chart and the schedule checks).
    fn run_traced(&self, apps: &[AppSpec]) -> (RunOutcome, Trace) {
        let (out, trace) = self.run_with(apps, true);
        (out, trace.expect("a traced run keeps its trace"))
    }

    /// Convenience: solo application time of one app under this runtime.
    fn solo_time(&self, app: &AppSpec) -> f64 {
        self.run(std::slice::from_ref(app)).apps[0].app_time_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(bench: Benchmark, t: f64) -> AppResult {
        AppResult {
            bench,
            end_s: t,
            app_time_s: t,
            kernel_busy_s: t * 0.8,
            kernel_start_s: 0.1,
            kernel_end_s: t * 0.9,
            comm_s: 0.0,
            inject_s: 0.0,
            resizes: 0,
            metrics: KernelMetrics::new("k"),
        }
    }

    #[test]
    fn antt_averages_normalized_times() {
        let out = RunOutcome {
            runtime: "X".into(),
            apps: vec![result(Benchmark::BS, 60.0), result(Benchmark::RG, 30.0)],
            makespan_s: 60.0,
            records: 0,
        };
        let antt = out.antt(&[30.0, 30.0]);
        assert!((antt - 1.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_gain_sign() {
        let fast = RunOutcome {
            runtime: "fast".into(),
            apps: vec![],
            makespan_s: 50.0,
            records: 0,
        };
        let slow = RunOutcome {
            runtime: "slow".into(),
            apps: vec![],
            makespan_s: 60.0,
            records: 0,
        };
        assert!(fast.throughput_gain_over(&slow) > 0.0);
        assert!(slow.throughput_gain_over(&fast) < 0.0);
    }

    #[test]
    fn host_time_is_residual() {
        let r = result(Benchmark::GS, 10.0);
        assert!((r.host_s() - 2.0).abs() < 1e-12);
    }
}
