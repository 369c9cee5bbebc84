//! The Slate runtime: workload-aware multiprocess scheduling over the
//! simulated device (paper §III–§IV).
//!
//! The runtime drives the same application lifecycle as the baselines
//! (setup → H2D → kernel loop → D2H) but schedules kernels the Slate way:
//!
//! * every kernel runs **transformed** (persistent workers, in-order task
//!   queue — `ExecMode::SlateWorkers`), which alone buys the solo gains of
//!   §V-B;
//! * on its first sighting a kernel is **profiled** and classified; the
//!   profile table persists across the run;
//! * when one kernel is resident and another process has work ready, the
//!   **selection** policy (Table I) decides co-run vs solo; co-runners get
//!   disjoint SM partitions sized by their SM demands;
//! * on arrival and completion of co-runners the resident kernel is
//!   **dynamically resized** — its slice is torn down mid-flight and
//!   relaunched on the adjusted range with `slateIdx` progress carried
//!   over, exactly the dispatch-kernel mechanism;
//! * non-complementary processes alternate solo at launch granularity;
//! * client–daemon **communication** and one-time **injection/compilation**
//!   costs are charged per the measured fractions of §V-D.
//!
//! All of those *decisions* live in the shared
//! [`ArbiterCore`]; this module is a thin
//! driver that translates engine events (transfer completions, slice
//! drains) into arbiter [`ArbEvent`]s and executes the returned
//! [`Command`]s against the simulation engine. The daemon drives the same
//! core from wall-clock threads, so both frontends make identical
//! scheduling choices for the same workload trace.

use crate::arbiter::{ArbiterConfig, ArbiterCore, Command, Event as ArbEvent, EventLog};
use crate::backend::sim::{RelaunchPlan, ResizeOutcome, SimBackend};
use crate::placement::multi::{self, Job, JobOutcome};
use crate::placement::{PlacementConfig, PlacementLayer, PlacementStats};
use crate::profile::ProfileTable;
use crate::transform::TransformedKernel;
use slate_baselines::lifecycle::{FixedCosts, Lifecycle, Step};
use slate_baselines::runtime::{RunOutcome, Runtime};
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::engine::SliceSpec;
use slate_gpu_sim::model;
use slate_gpu_sim::perf::ExecMode;
use slate_gpu_sim::trace::Trace;
use slate_kernels::workload::{AppSpec, SloClass};

/// Client-daemon communication cost as a fraction of kernel execution
/// (paper §V-D: ~4% of application time on average).
const COMM_FRACTION: f64 = 0.02;
/// One-time code injection + NVRTC compilation cost per kernel source
/// (paper §V-D: ~1.5% of application time).
const INJECT_PER_SOURCE_S: f64 = 0.25;
/// Daemon session establishment at the first API call of a process.
const SESSION_SETUP_S: f64 = 0.05;

/// Feature switches and scheduling bounds (ablations flip the `enable_*`
/// flags; the defaults reproduce the paper's configuration). The paper's
/// measured communication and injection costs are constants, not options.
#[derive(Debug, Clone)]
pub struct SlateOptions {
    /// Enable workload-aware co-running (selection policy + partitioning).
    pub enable_corun: bool,
    /// Enable dynamic resizing of the surviving kernel when a co-runner
    /// finishes (if disabled, the survivor keeps its partition).
    pub enable_resize: bool,
    /// Override every application's task size (`SLATE_ITERS`) — ablation
    /// knob behind the paper's Fig. 5.
    pub force_task_size: Option<u32>,
    /// Execute kernels under hardware block scheduling instead of Slate's
    /// transformed persistent workers — ablates the software scheduling
    /// (locality, setup amortisation) while keeping selection/partitioning.
    pub use_hardware_exec: bool,
    /// Use each kernel's autotuned task size from its profile instead of
    /// the application default (extension: the profiler already sweeps
    /// Fig. 5's candidates on the first run).
    pub autotune_task_size: bool,
    /// Starvation bound for the wait-aware selector, in simulated seconds.
    /// A process that has been ready longer than this refuses co-running
    /// and is dispatched solo ahead of queue order as soon as the device
    /// frees. `None` (the default) disables aging.
    pub starvation_bound_s: Option<f64>,
    /// SLO preemption bound, in simulated seconds. With it set, a
    /// latency-critical arrival (an [`AppSpec`] whose
    /// [`slo`](AppSpec::slo) is [`SloClass::LatencyCritical`]) displaces a
    /// best-effort resident through the retreat/resize path within this
    /// bound. `None` (the default) disables preemption.
    pub preempt_bound_s: Option<f64>,
}

impl Default for SlateOptions {
    fn default() -> Self {
        Self {
            enable_corun: true,
            enable_resize: true,
            force_task_size: None,
            use_hardware_exec: false,
            autotune_task_size: false,
            starvation_bound_s: None,
            preempt_bound_s: None,
        }
    }
}

impl SlateOptions {
    /// The arbiter configuration these options induce. The sim frontend
    /// never sets admission limits — processes are workloads, not hostile
    /// clients.
    fn arbiter_config(&self) -> ArbiterConfig {
        ArbiterConfig {
            enable_corun: self.enable_corun,
            enable_resize: self.enable_resize,
            starvation_bound_us: self.starvation_bound_s.map(|s| (s * 1e6).round() as u64),
            preempt_bound_us: self.preempt_bound_s.map(|s| (s * 1e6).round() as u64),
            limits: Default::default(),
        }
    }

    /// The task size a kernel launches with: `force_task_size` overrides
    /// everything, then the profile's autotuned size if
    /// `autotune_task_size` is on, then the application's default.
    fn task_size(&self, app_default: u32, autotuned: u32) -> u32 {
        self.force_task_size.unwrap_or(if self.autotune_task_size {
            autotuned
        } else {
            app_default
        })
    }
}

/// The Slate runtime.
#[derive(Debug, Clone)]
pub struct SlateRuntime {
    cfg: DeviceConfig,
    opts: SlateOptions,
}

impl SlateRuntime {
    /// Creates a Slate runtime with default options.
    pub fn new(cfg: DeviceConfig) -> Self {
        Self::with_options(cfg, SlateOptions::default())
    }

    /// Creates a Slate runtime with explicit options (ablations).
    pub fn with_options(cfg: DeviceConfig, opts: SlateOptions) -> Self {
        Self { cfg, opts }
    }

    /// Runs `apps` while recording every arbitration event batch, and
    /// returns the outcome together with the recorded [`EventLog`]. The
    /// log replays to the identical command sequence (see
    /// [`crate::arbiter::replay`]).
    pub fn run_recorded(&self, apps: &[AppSpec]) -> (RunOutcome, EventLog) {
        let mut sim = Sim::new(self.cfg.clone(), self.opts.clone(), apps, false);
        sim.arb.start_recording();
        let (out, _, log) = sim.run();
        (out, log.expect("recording was enabled"))
    }

    /// Runs `apps` across a fleet of `devices`, one [`SimBackend`] per
    /// device behind a [`crate::placement::PlacementLayer`] — the
    /// multi-device extension past the paper's single-GPU scope. Each app
    /// becomes one session with one launch covering its per-launch grid;
    /// profiling and classification use this runtime's configured device
    /// as the reference, and the per-core arbiters run under the same
    /// configuration [`SlateRuntime::run`] would use. `placement.arbiter`
    /// is overridden accordingly.
    pub fn run_placed(
        &self,
        devices: &[DeviceConfig],
        apps: &[AppSpec],
        placement: PlacementConfig,
    ) -> PlacedOutcome {
        let config = PlacementConfig {
            arbiter: self.opts.arbiter_config(),
            ..placement
        };
        self.run_on(&mut PlacementLayer::new(devices.to_vec(), config), apps)
    }

    /// [`SlateRuntime::run_placed`] on a given layer (a test records it).
    fn run_on(&self, layer: &mut PlacementLayer, apps: &[AppSpec]) -> PlacedOutcome {
        assert!(!apps.is_empty(), "need at least one app");
        let mut table = ProfileTable::new();
        let jobs: Vec<Job> = apps
            .iter()
            .map(|app| {
                let prof = table
                    .get_or_profile(&self.cfg, &app.perf, app.blocks_per_launch)
                    .clone();
                let blocks = app.blocks_per_launch.min(u32::MAX as u64) as u32;
                Job {
                    kernel: TransformedKernel::new(std::sync::Arc::new(PerfOnlyKernel {
                        grid: slate_kernels::grid::GridDim::d1(blocks),
                        perf: app.perf.clone(),
                    })),
                    task_size: self.opts.task_size(app.task_size, prof.best_task_size),
                    class: prof.class,
                    sm_demand: prof.sm_demand,
                    est_ms: table.estimate_solo_ms(&app.perf.name, app.blocks_per_launch),
                }
            })
            .collect();
        let (drained, outcomes) = multi::run(layer, &jobs, 600_000);
        PlacedOutcome {
            drained,
            outcomes,
            stats: layer.stats(),
        }
    }
}

/// Result of a multi-device [`SlateRuntime::run_placed`] run.
#[derive(Debug)]
pub struct PlacedOutcome {
    /// Whether every submitted app reached a terminal outcome within the
    /// simulation bound.
    pub drained: bool,
    /// Per-app terminal outcome, in submission order (`None` only if the
    /// run timed out with the app still in flight).
    pub outcomes: Vec<Option<JobOutcome>>,
    /// Placement counters (sessions routed, evacuations, landed moves).
    pub stats: PlacementStats,
}

/// A scheduling-only kernel stand-in: carries a launch grid and the
/// app's calibrated perf profile, with a no-op functional body. The sim
/// backends only consume the profile, so this is exactly what a placed
/// simulation needs.
struct PerfOnlyKernel {
    grid: slate_kernels::grid::GridDim,
    perf: slate_gpu_sim::perf::KernelPerf,
}

impl slate_kernels::kernel::GpuKernel for PerfOnlyKernel {
    fn name(&self) -> &str {
        &self.perf.name
    }
    fn grid(&self) -> slate_kernels::grid::GridDim {
        self.grid
    }
    fn perf(&self) -> slate_gpu_sim::perf::KernelPerf {
        self.perf.clone()
    }
    fn run_block(&self, _block: slate_kernels::grid::BlockCoord) {}
}

impl Runtime for SlateRuntime {
    fn label(&self) -> &str {
        "Slate"
    }

    fn device(&self) -> &DeviceConfig {
        &self.cfg
    }

    fn run_with(&self, apps: &[AppSpec], traced: bool) -> (RunOutcome, Option<Trace>) {
        let (out, trace, _) = Sim::new(self.cfg.clone(), self.opts.clone(), apps, traced).run();
        (out, trace)
    }
}

/// What first-run profiling decided about one process's kernel.
struct Profiled {
    sm_demand: u32,
    task_size: u32,
    class: crate::classify::WorkloadClass,
    /// Modelled duration of one launch by SM-range width, filled in on
    /// first use: it depends on nothing else.
    est_by_width: Vec<Option<f64>>,
}

/// A kernel currently resident on the device (execution mechanics; the
/// scheduling view lives in the arbiter core, the slice id in the
/// lifecycle).
#[derive(Debug, Clone, Copy)]
struct Resident {
    proc: usize,
    range: SmRange,
}

struct Sim {
    cfg: DeviceConfig,
    opts: SlateOptions,
    /// The execution backend: owns the engine and carries out slice
    /// launches and §IV-C retreat/relaunches.
    backend: SimBackend,
    /// The application lifecycle shared with the baselines; this driver
    /// only decides admission.
    life: Lifecycle,
    profiled: Vec<Profiled>,
    residents: Vec<Resident>,
    /// The shared arbitration core; process index doubles as both the
    /// session and lease id.
    arb: ArbiterCore,
    /// Reusable feed buffers driving `arb`: events in, commands out.
    feed_events: Vec<ArbEvent>,
    feed_commands: Vec<Command>,
}

impl Sim {
    fn exec_mode_for(&self, proc: usize) -> ExecMode {
        if self.opts.use_hardware_exec {
            ExecMode::Hardware
        } else {
            ExecMode::SlateWorkers {
                task_size: self.profiled[proc].task_size,
            }
        }
    }

    fn new(cfg: DeviceConfig, opts: SlateOptions, apps: &[AppSpec], traced: bool) -> Self {
        let mut table = ProfileTable::new();
        let mut backend = SimBackend::new(cfg.clone());
        // First-run profiling and classification (offline per Table V).
        let profiled = apps
            .iter()
            .map(|app| {
                let prof = table.get_or_profile(&cfg, &app.perf, app.blocks_per_launch);
                Profiled {
                    sm_demand: prof.sm_demand,
                    task_size: opts.task_size(app.task_size, prof.best_task_size),
                    class: prof.class,
                    est_by_width: vec![None; cfg.num_sms as usize + 1],
                }
            })
            .collect();
        // Setup covers host init, daemon session creation, and the
        // one-time injection + compilation of the kernel sources.
        let life = Lifecycle::new(backend.engine_mut(), apps, traced, |app| FixedCosts {
            session_s: SESSION_SETUP_S * app.fixed_cost_scale,
            inject_s: INJECT_PER_SOURCE_S * app.kernel_sources as f64 * app.fixed_cost_scale,
            comm_s: 0.0,
        });
        let arb = ArbiterCore::new(cfg.clone(), opts.arbiter_config());
        Self {
            cfg,
            opts,
            backend,
            life,
            profiled,
            residents: Vec::new(),
            arb,
            feed_events: Vec::new(),
            feed_commands: Vec::new(),
        }
    }

    /// Engine time as the arbiter's logical microsecond tick.
    fn now_us(&self) -> u64 {
        (self.backend.engine().now() * 1e6).round() as u64
    }

    /// The `KernelReady` event for process `i`'s next launch.
    fn ready_event(&self, i: usize) -> ArbEvent {
        let p = &self.profiled[i];
        ArbEvent::KernelReady {
            session: i as u64,
            lease: i as u64,
            class: p.class,
            sm_demand: p.sm_demand,
            pinned_solo: self.life.app(i).pinned_solo,
            deadline_ms: None,
        }
    }

    /// Feeds a batch of events to the arbiter and executes the returned
    /// commands, looping on any compensation events a command execution
    /// produces (a resize that raced with completion reports the kernel
    /// finished, which may trigger further scheduling). The loop drives
    /// two runtime-owned buffers — events in, commands out, compensation
    /// events written straight back into the event buffer — so repeated
    /// feeds reuse the same capacity instead of allocating per round.
    fn feed(&mut self, events: &[ArbEvent]) {
        let mut pending = std::mem::take(&mut self.feed_events);
        let mut commands = std::mem::take(&mut self.feed_commands);
        pending.clear();
        pending.extend_from_slice(events);
        while !pending.is_empty() {
            let now = self.now_us();
            self.arb.feed_into(now, &pending, &mut commands);
            pending.clear();
            self.apply_into(&commands, &mut pending);
        }
        self.feed_events = pending;
        self.feed_commands = commands;
    }

    /// Executes arbiter commands against the engine, appending
    /// compensation events for outcomes the core could not see yet.
    fn apply_into(&mut self, cmds: &[Command], compensation: &mut Vec<ArbEvent>) {
        for cmd in cmds {
            match *cmd {
                Command::Dispatch { lease, range } => self.launch(lease as usize, range),
                Command::Resize { lease, range } => {
                    let proc = lease as usize;
                    let Some(idx) = self.residents.iter().position(|r| r.proc == proc) else {
                        continue;
                    };
                    if !self.resize(idx, range) {
                        // The slice drained during the retreat: tell the
                        // core the launch finished (and, for a multi-launch
                        // process, that the next one is ready).
                        compensation.push(ArbEvent::KernelFinished { lease, ok: true });
                        if self.life.is_ready(proc) {
                            compensation.push(self.ready_event(proc));
                        }
                    }
                }
                // Informational in the sim: no watchdog deadlines are
                // armed, sessions are processes, promotion and preemption
                // are internal (the paired Resize/Dispatch do the work).
                Command::PromoteStarved { .. }
                | Command::Preempt { .. }
                | Command::Evict { .. }
                | Command::Reap { .. }
                | Command::RejectOverloaded { .. } => {}
            }
        }
    }

    /// Starts the next launch of `proc` on `range`. Charges the per-launch
    /// client-daemon communication as extra launch lead.
    fn launch(&mut self, proc: usize, range: SmRange) {
        let mode = self.exec_mode_for(proc);
        let app = self.life.app(proc);
        debug_assert!(self.life.is_ready(proc));
        let blocks = app.blocks_per_launch;
        let est =
            *self.profiled[proc].est_by_width[range.len() as usize].get_or_insert_with(|| {
                model::estimate_duration(&self.cfg, &app.perf, blocks, range.len(), mode)
            });
        let comm = COMM_FRACTION * est;
        let id = self
            .backend
            .launch_slice(SliceSpec {
                perf: app.perf.clone(),
                sm_range: range,
                blocks,
                mode,
                extra_lead_s: comm,
                batch: app.batch,
                tag: proc as u64,
            })
            .expect("slate launch must be valid");
        let now = self.backend.engine().now();
        self.life.launched(proc, now, id, range, blocks, comm);
        self.residents.push(Resident { proc, range });
    }

    /// Resizes a resident kernel to `new_range`: tears its slice down
    /// mid-flight and relaunches the remaining blocks — the dispatch-kernel
    /// retreat/relaunch of §IV-C. Returns false if the slice turned out to
    /// be complete (nothing to relaunch).
    fn resize(&mut self, idx: usize, new_range: SmRange) -> bool {
        let r = self.residents[idx];
        if r.range == new_range {
            return true;
        }
        // The retreat/relaunch itself is the backend's shared slice
        // operation; batching and mode come from this process's launch
        // configuration.
        let app = self.life.app(r.proc);
        let plan = RelaunchPlan {
            perf: app.perf.clone(),
            mode: self.exec_mode_for(r.proc),
            blocks_per_batch: (app.blocks_per_launch / app.batch as u64).max(1),
        };
        let slice = self.life.slice(r.proc).expect("a resident has a slice");
        let outcome = self.backend.resize_slice(slice, new_range, plan);
        let now = self.backend.engine().now();
        let rep = match &outcome {
            ResizeOutcome::Completed(rep) | ResizeOutcome::Relaunched(rep, _) => rep,
        };
        self.life.stopped(r.proc, now, rep);
        self.life.resized(r.proc, now, r.range, new_range);
        match outcome {
            ResizeOutcome::Completed(_) => {
                // Raced with completion: fold into the normal completion path.
                self.residents.remove(idx);
                self.life
                    .finish_launch(self.backend.engine_mut(), r.proc, now);
                false
            }
            ResizeOutcome::Relaunched(rep, id) => {
                let remaining = rep.blocks_total.saturating_sub(rep.blocks_done);
                self.life
                    .launched(r.proc, now, id, new_range, remaining, 0.0);
                self.residents[idx].range = new_range;
                true
            }
        }
    }

    fn run(mut self) -> (RunOutcome, Option<Trace>, Option<EventLog>) {
        // Announce every process as a session up front (t = 0): processes
        // are trusted workloads, so the sim applies no admission limits.
        // Latency-critical processes declare their class immediately
        // before opening; best-effort ones (the default) emit no extra
        // event, keeping pre-SLO transcripts byte-identical.
        let opened: Vec<ArbEvent> = (0..self.profiled.len() as u64)
            .flat_map(|session| {
                let class = self.life.app(session as usize).slo;
                let declare = (class != SloClass::BestEffort)
                    .then_some(ArbEvent::SloArrival { session, class });
                declare
                    .into_iter()
                    .chain(std::iter::once(ArbEvent::SessionOpened { session }))
            })
            .collect();
        self.feed(&opened);
        while let Some((now, ev)) = self.backend.engine_mut().step() {
            match self.life.step(self.backend.engine_mut(), now, ev) {
                Step::Ready(i) => self.feed(&[self.ready_event(i)]),
                Step::Finished(i) => self.feed(&[ArbEvent::SessionClosed { session: i as u64 }]),
                Step::Drained { proc, ready } => {
                    self.residents.retain(|r| r.proc != proc);
                    let lease = proc as u64;
                    let finished = ArbEvent::KernelFinished { lease, ok: true };
                    if ready {
                        // More launches: ready again in the same batch, which
                        // lets the core resume it on its old partition in place.
                        self.feed(&[finished, self.ready_event(proc)]);
                    } else {
                        self.feed(&[finished]);
                    }
                }
                Step::Internal => {}
                Step::Foreign(tid) => panic!("unknown timer {tid:?}"),
            }
        }
        debug_assert_eq!(self.arb.residents(), 0);
        debug_assert_eq!(self.arb.waiting(), 0);
        let log = self.arb.take_log();
        let (out, trace) = self.life.finish("Slate");
        (out, trace, log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::replay;
    use slate_baselines::cuda::CudaRuntime;
    use slate_baselines::mps::MpsRuntime;
    use slate_kernels::workload::Benchmark;

    fn titan() -> DeviceConfig {
        DeviceConfig::titan_xp()
    }

    #[test]
    fn forced_task_size_wins_over_autotuned_and_app_default() {
        let opts = |force_task_size, autotune_task_size| SlateOptions {
            force_task_size,
            autotune_task_size,
            ..SlateOptions::default()
        };
        let (app_default, autotuned) = (10, 1);
        assert_eq!(opts(None, false).task_size(app_default, autotuned), 10);
        assert_eq!(opts(None, true).task_size(app_default, autotuned), 1);
        assert_eq!(opts(Some(4), false).task_size(app_default, autotuned), 4);
        assert_eq!(opts(Some(4), true).task_size(app_default, autotuned), 4);
    }

    #[test]
    fn solo_gs_beats_cuda_substantially() {
        // The paper's flagship solo result: Slate's in-order scheduling
        // speeds Gaussian up ~28% (Table III).
        // Table III compares *kernel* execution time (application time at
        // small scale is dominated by fixed setup/injection costs).
        let slate = SlateRuntime::new(titan());
        let cuda = CudaRuntime::new(titan());
        let app = Benchmark::GS.app().scaled_down(10);
        let ts = slate.run(std::slice::from_ref(&app)).apps[0].kernel_busy_s;
        let tc = cuda.run(std::slice::from_ref(&app)).apps[0].kernel_busy_s;
        let gain = tc / ts - 1.0;
        assert!(
            (0.15..0.45).contains(&gain),
            "GS solo kernel gain should be ~28%, got {:.1}%",
            gain * 100.0
        );
    }

    #[test]
    fn solo_bs_within_a_few_percent_of_cuda() {
        let slate = SlateRuntime::new(titan());
        let cuda = CudaRuntime::new(titan());
        let app = Benchmark::BS.app().scaled_down(20);
        let ts = slate.run(std::slice::from_ref(&app)).apps[0].kernel_busy_s;
        let tc = cuda.run(std::slice::from_ref(&app)).apps[0].kernel_busy_s;
        let delta = (ts / tc - 1.0).abs();
        assert!(delta < 0.10, "BS solo kernel delta {:.1}%", delta * 100.0);
    }

    #[test]
    fn bs_rg_corun_beats_mps() {
        // Table IV: Slate gains ~30% on the BS-RG pairing.
        let slate = SlateRuntime::new(titan());
        let mps = MpsRuntime::new(titan());
        let a = Benchmark::BS.app().scaled_down(10);
        let b = Benchmark::RG.app().scaled_down(10);
        let s = slate.run(&[a.clone(), b.clone()]);
        let m = mps.run(&[a, b]);
        let gain = s.throughput_gain_over(&m);
        assert!(
            gain > 0.10,
            "Slate must clearly beat MPS on BS-RG, got {:.1}%",
            gain * 100.0
        );
    }

    #[test]
    fn mm_bs_pair_runs_solo_and_slate_is_close_to_mps() {
        // M_M x M_M -> solo; Slate may lose slightly (paper: -2%).
        let slate = SlateRuntime::new(titan());
        let mps = MpsRuntime::new(titan());
        let a = Benchmark::MM.app().scaled_down(10);
        let b = Benchmark::BS.app().scaled_down(10);
        let s = slate.run(&[a.clone(), b.clone()]);
        let m = mps.run(&[a, b]);
        let gain = s.throughput_gain_over(&m);
        assert!(
            (-0.10..0.10).contains(&gain),
            "MM-BS should be near parity, got {:.1}%",
            gain * 100.0
        );
    }

    #[test]
    fn corun_disabled_ablation_still_completes() {
        let opts = SlateOptions {
            enable_corun: false,
            ..Default::default()
        };
        let slate = SlateRuntime::with_options(titan(), opts);
        let a = Benchmark::BS.app().scaled_down(30);
        let b = Benchmark::RG.app().scaled_down(30);
        let out = slate.run(&[a, b]);
        assert_eq!(out.apps.len(), 2);
        assert!(out.apps.iter().all(|r| r.end_s > 0.0));
    }

    #[test]
    fn comm_and_inject_costs_are_reported() {
        let slate = SlateRuntime::new(titan());
        let app = Benchmark::TR.app().scaled_down(30);
        let out = slate.run(std::slice::from_ref(&app));
        let r = &out.apps[0];
        assert!(r.comm_s > 0.0);
        // One source, scaled by the app's fixed-cost scale (1/30 here).
        assert!((r.inject_s - 0.25 / 30.0).abs() < 1e-12, "{}", r.inject_s);
        // Comm is a few percent of kernel time.
        let frac = r.comm_s / r.kernel_busy_s;
        assert!((0.005..0.1).contains(&frac), "comm fraction {frac}");
    }

    #[test]
    fn autotune_recovers_the_mm_bs_loss() {
        // The paper's one losing pair exists because BS runs at the default
        // task size 10; the autotuner picks 1 for BS (Fig. 5) and recovers
        // the loss.
        let default_rt = SlateRuntime::new(titan());
        let tuned_rt = SlateRuntime::with_options(
            titan(),
            SlateOptions {
                autotune_task_size: true,
                ..SlateOptions::default()
            },
        );
        let apps = [
            Benchmark::MM.app().scaled_down(20),
            Benchmark::BS.app().scaled_down(20),
        ];
        let default_out = default_rt.run(&apps);
        let tuned_out = tuned_rt.run(&apps);
        assert!(
            tuned_out.makespan_s < default_out.makespan_s * 0.995,
            "autotuning must speed up MM-BS: {} vs {}",
            tuned_out.makespan_s,
            default_out.makespan_s
        );
    }

    #[test]
    fn pinned_solo_kernel_never_coruns() {
        // RG normally coruns with BS; pinning BS solo forbids it, so the
        // pair falls back to consecutive execution and gets slower.
        let slate = SlateRuntime::new(titan());
        let a = Benchmark::BS.app().scaled_down(20);
        let b = Benchmark::RG.app().scaled_down(20);
        let corun = slate.run(&[a.clone(), b.clone()]);
        let mut pinned = a;
        pinned.pinned_solo = true;
        let solo = slate.run(&[pinned, b]);
        assert!(
            solo.makespan_s > corun.makespan_s * 1.15,
            "pinning must forfeit the corun gain: {} vs {}",
            corun.makespan_s,
            solo.makespan_s
        );
        assert_eq!(
            solo.apps[0].resizes + solo.apps[1].resizes,
            0,
            "no resizes when solo-pinned"
        );
    }

    #[test]
    fn zero_starvation_bound_forfeits_all_coruns() {
        // With a zero aging bound every ready process is instantly starved:
        // the selector never pairs kernels, so the profitable BS-RG corun
        // is forfeited and the pair degenerates to solo alternation.
        let corun = SlateRuntime::new(titan());
        let aged = SlateRuntime::with_options(
            titan(),
            SlateOptions {
                starvation_bound_s: Some(0.0),
                ..SlateOptions::default()
            },
        );
        let apps = [
            Benchmark::BS.app().scaled_down(20),
            Benchmark::RG.app().scaled_down(20),
        ];
        let paired = corun.run(&apps);
        let solo = aged.run(&apps);
        assert_eq!(
            solo.apps[0].resizes + solo.apps[1].resizes,
            0,
            "a starved waiter must never join a corun"
        );
        assert!(solo.apps.iter().all(|r| r.end_s > 0.0));
        assert!(
            solo.makespan_s > paired.makespan_s * 1.15,
            "aging past the bound must forfeit the corun gain: {} vs {}",
            paired.makespan_s,
            solo.makespan_s
        );
    }

    #[test]
    fn generous_starvation_bound_leaves_schedule_unchanged() {
        // A bound far beyond the run's duration never trips, so the aged
        // selector reduces to the deterministic wait-aware choice and the
        // schedule (hence the makespan) is identical to the default.
        let default_rt = SlateRuntime::new(titan());
        let aged = SlateRuntime::with_options(
            titan(),
            SlateOptions {
                starvation_bound_s: Some(1e9),
                ..SlateOptions::default()
            },
        );
        let apps = [
            Benchmark::BS.app().scaled_down(20),
            Benchmark::RG.app().scaled_down(20),
        ];
        let a = default_rt.run(&apps);
        let b = aged.run(&apps);
        assert_eq!(a.makespan_s, b.makespan_s);
    }

    #[test]
    fn three_processes_complete() {
        let slate = SlateRuntime::new(titan());
        let apps = [
            Benchmark::BS.app().scaled_down(50),
            Benchmark::RG.app().scaled_down(50),
            Benchmark::GS.app().scaled_down(25),
        ];
        let out = slate.run(&apps);
        assert_eq!(out.apps.len(), 3);
        for r in &out.apps {
            assert!(r.end_s > 0.0 && r.kernel_busy_s > 0.0, "{:?}", r.bench);
        }
    }

    #[test]
    fn placed_run_spreads_apps_across_devices_and_drains() {
        use crate::placement::multi::JobOutcome;
        use crate::placement::PlacementConfig;
        let slate = SlateRuntime::new(titan());
        let apps = [
            Benchmark::BS.app().scaled_down(50),
            Benchmark::RG.app().scaled_down(50),
            Benchmark::GS.app().scaled_down(50),
            Benchmark::TR.app().scaled_down(50),
        ];
        let devices = [titan(), titan()];
        let out = slate.run_placed(&devices, &apps, PlacementConfig::default());
        assert!(out.drained, "placed fleet must drain");
        let mut per_device = [0usize; 2];
        for o in &out.outcomes {
            match o {
                Some(JobOutcome::Completed { device }) => per_device[*device] += 1,
                other => panic!("every app must complete, got {other:?}"),
            }
        }
        assert_eq!(per_device, [2, 2], "round robin spreads 4 apps 2+2");
        assert_eq!(out.stats.sessions_routed, 4);
        // Determinism: the same placed run routes identically.
        let again = slate.run_placed(&devices, &apps, PlacementConfig::default());
        for (a, b) in out.outcomes.iter().zip(&again.outcomes) {
            assert_eq!(a, b);
        }
    }

    /// Runs `apps` like [`SlateRuntime::run_placed`] with the layer
    /// recording, and returns the outcome with the placement log.
    fn run_placed_recorded(
        slate: &SlateRuntime,
        devices: &[DeviceConfig],
        apps: &[AppSpec],
        placement: PlacementConfig,
    ) -> (PlacedOutcome, crate::placement::PlacementLog) {
        let config = PlacementConfig {
            arbiter: slate.opts.arbiter_config(),
            ..placement
        };
        let mut layer = PlacementLayer::new(devices.to_vec(), config);
        layer.start_recording();
        let out = slate.run_on(&mut layer, apps);
        (out, layer.take_log().expect("recording was on"))
    }

    /// What the placed fixture pins, for two mixes: `sim_paper`'s (four
    /// Titan Xps, least-loaded, the five benchmarks twice at full scale)
    /// and the two-device round-robin mix above. Per mix: the layer's
    /// transcript, each app's outcome and the placement counters.
    fn placed_fixture() -> String {
        use crate::placement::PlacementPolicy;
        use std::fmt::Write as _;
        let slate = SlateRuntime::new(titan());
        let paper: Vec<AppSpec> = Benchmark::ALL
            .iter()
            .chain(Benchmark::ALL.iter())
            .map(|b| b.app())
            .collect();
        let spread: Vec<AppSpec> = [Benchmark::BS, Benchmark::RG, Benchmark::GS, Benchmark::TR]
            .iter()
            .map(|b| b.app().scaled_down(50))
            .collect();
        let mixes = [
            ("sim_paper", 4, PlacementPolicy::LeastLoaded, paper),
            ("round_robin", 2, PlacementPolicy::RoundRobin, spread),
        ];
        let mut s = String::new();
        for (name, devices, policy, apps) in mixes {
            let placement = PlacementConfig {
                policy,
                ..PlacementConfig::default()
            };
            let (out, log) = run_placed_recorded(&slate, &vec![titan(); devices], &apps, placement);
            let _ = writeln!(s, "# {name}");
            s += &replay::transcript(&log.batches);
            for (i, o) in out.outcomes.iter().enumerate() {
                let _ = writeln!(s, "app {i}: {o:?}");
            }
            let _ = writeln!(s, "drained: {}", out.drained);
            let _ = writeln!(s, "{:?}", out.stats);
        }
        s
    }

    const PLACED_FIXTURE: &str = include_str!("../tests/data/placed_run_transcript.txt");

    #[test]
    fn placed_runs_reproduce_the_checked_in_transcript() {
        assert_eq!(
            placed_fixture(),
            PLACED_FIXTURE,
            "a placed run diverged from tests/data/placed_run_transcript.txt"
        );
    }

    #[test]
    #[ignore = "regenerates tests/data/placed_run_transcript.txt; run after an intended change"]
    fn regenerate_placed_run_fixture() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/data/placed_run_transcript.txt"
        );
        std::fs::write(path, placed_fixture()).expect("write fixture");
    }

    #[test]
    fn recorded_run_is_replayable_and_deterministic() {
        let slate = SlateRuntime::new(titan());
        let apps = [
            Benchmark::BS.app().scaled_down(20),
            Benchmark::RG.app().scaled_down(20),
        ];
        let (out1, log1) = slate.run_recorded(&apps);
        replay::verify(&log1).expect("sim event log replays identically");
        assert!(
            log1.batches.iter().any(|b| b
                .commands
                .iter()
                .any(|c| matches!(c, Command::Resize { .. }))),
            "BS-RG must co-run, which requires at least one resize"
        );
        // The whole pipeline is deterministic: a second run produces the
        // byte-identical transcript.
        let (out2, log2) = slate.run_recorded(&apps);
        assert_eq!(out1.makespan_s, out2.makespan_s);
        assert_eq!(
            replay::transcript(&log1.batches),
            replay::transcript(&log2.batches)
        );
    }
}
