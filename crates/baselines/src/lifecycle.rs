//! The application lifecycle every simulated runtime drives: host setup →
//! H2D → launch loop → D2H.
//!
//! [`Lifecycle`] owns the per-process bookkeeping, the transfers, the
//! count of scheduling records (and, for a traced run only, the execution
//! [`Trace`] itself) and the [`RunOutcome`] assembly. A runtime steps the
//! engine, hands each event to [`Lifecycle::step`] and acts on the returned
//! [`Step`]; what it keeps to itself is only its *admission policy* — which
//! ready process launches next, on which SMs, at what extra cost — reported
//! back through [`Lifecycle::launched`]. CUDA, MPS and Slate therefore
//! differ in nothing but that policy.

use crate::runtime::{AppResult, RunOutcome};
use slate_gpu_sim::device::SmRange;
use slate_gpu_sim::engine::{Engine, Event, SliceId, TimerId, TransferId};
use slate_gpu_sim::metrics::{KernelMetrics, SliceReport};
use slate_gpu_sim::trace::{Trace, TraceKind};
use slate_kernels::workload::AppSpec;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Setup,
    H2d,
    Ready,
    Running,
    D2h,
    Done,
}

/// What a runtime charges a process on top of the app's own host setup.
#[derive(Debug, Clone, Copy)]
pub struct FixedCosts {
    /// Session establishment; delays the first transfer.
    pub session_s: f64,
    /// One-time code injection + compilation; delays the first transfer
    /// and is reported as [`AppResult::inject_s`].
    pub inject_s: f64,
    /// Communication cost known up front; launches add theirs to it
    /// ([`Lifecycle::launched`]) and the sum is [`AppResult::comm_s`].
    pub comm_s: f64,
}

struct Proc {
    app: AppSpec,
    phase: Phase,
    launches_done: u32,
    timer: Option<TimerId>,
    transfer: Option<TransferId>,
    slice: Option<SliceId>,
    /// The result so far; `kernel_start_s` is infinite until a launch.
    out: AppResult,
}

/// What an engine event meant for the lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// The process finished its H2D copy: its first launch is ready.
    Ready(usize),
    /// The process's launch drained; `ready` if it has another one ready,
    /// otherwise its D2H copy has started.
    Drained {
        /// The process.
        proc: usize,
        /// Whether its next launch is ready.
        ready: bool,
    },
    /// The process finished its D2H copy and is done.
    Finished(usize),
    /// Handled with nothing for the runtime to do.
    Internal,
    /// A timer the lifecycle did not set (the runtime's own).
    Foreign(TimerId),
}

/// The lifecycle state of every process of one run.
pub struct Lifecycle {
    procs: Vec<Proc>,
    /// Scheduling records made so far: launches, stops, resizes, transfer
    /// starts and ends.
    records: u64,
    /// The records themselves, kept only for a traced run.
    trace: Option<Trace>,
}

impl Lifecycle {
    /// Arms every process's setup timer on `engine`, in `apps` order.
    /// With `traced`, the run keeps every record in a [`Trace`];
    /// otherwise it only counts them.
    pub fn new(
        engine: &mut Engine,
        apps: &[AppSpec],
        traced: bool,
        costs: impl Fn(&AppSpec) -> FixedCosts,
    ) -> Self {
        assert!(!apps.is_empty(), "need at least one app");
        let procs = apps
            .iter()
            .map(|app| {
                let c = costs(app);
                Proc {
                    app: app.clone(),
                    phase: Phase::Setup,
                    launches_done: 0,
                    timer: Some(engine.set_timer(app.host_setup_s + c.session_s + c.inject_s)),
                    transfer: None,
                    slice: None,
                    out: AppResult {
                        bench: app.bench,
                        end_s: 0.0,
                        app_time_s: 0.0,
                        kernel_busy_s: 0.0,
                        kernel_start_s: f64::INFINITY,
                        kernel_end_s: 0.0,
                        comm_s: c.comm_s,
                        inject_s: c.inject_s,
                        resizes: 0,
                        metrics: KernelMetrics::new(&app.perf.name),
                    },
                }
            })
            .collect();
        Self {
            procs,
            records: 0,
            trace: traced.then(Trace::new),
        }
    }

    fn record(&mut self, now: f64, kind: TraceKind) {
        self.records += 1;
        if let Some(trace) = &mut self.trace {
            trace.record(now, kind);
        }
    }

    /// Process `i`'s application.
    pub fn app(&self, i: usize) -> &AppSpec {
        &self.procs[i].app
    }

    /// Whether process `i` has a launch waiting for admission.
    pub fn is_ready(&self, i: usize) -> bool {
        self.procs[i].phase == Phase::Ready
    }

    /// The slice process `i`'s launch is executing as, if it is on the
    /// device.
    pub fn slice(&self, i: usize) -> Option<SliceId> {
        self.procs[i].slice
    }

    /// Advances the lifecycle by one engine event.
    pub fn step(&mut self, engine: &mut Engine, now: f64, ev: Event) -> Step {
        match ev {
            Event::Timer(tid) => {
                let Some(i) = self.procs.iter().position(|p| p.timer == Some(tid)) else {
                    return Step::Foreign(tid);
                };
                let p = &mut self.procs[i];
                p.timer = None;
                p.phase = Phase::H2d;
                self.start_transfer(engine, i, now, true);
                Step::Internal
            }
            Event::TransferDone(tid) => {
                let i = self
                    .procs
                    .iter()
                    .position(|p| p.transfer == Some(tid))
                    .expect("unknown transfer");
                self.record(now, TraceKind::TransferEnd { tag: i as u64 });
                let p = &mut self.procs[i];
                p.transfer = None;
                match p.phase {
                    Phase::H2d => {
                        p.phase = Phase::Ready;
                        Step::Ready(i)
                    }
                    Phase::D2h => {
                        p.phase = Phase::Done;
                        p.out.end_s = now;
                        p.out.app_time_s = now;
                        Step::Finished(i)
                    }
                    other => panic!("transfer completion in phase {other:?}"),
                }
            }
            Event::SliceDrained(sid) => {
                let proc = self
                    .procs
                    .iter()
                    .position(|p| p.slice == Some(sid))
                    .expect("unknown slice");
                let report = engine.remove_slice(sid);
                self.stopped(proc, now, &report);
                self.procs[proc].out.kernel_end_s = now;
                let ready = self.finish_launch(engine, proc, now);
                Step::Drained { proc, ready }
            }
            Event::SliceStarted(_) => Step::Internal,
        }
    }

    fn start_transfer(&mut self, engine: &mut Engine, i: usize, now: f64, h2d: bool) {
        let app = &self.procs[i].app;
        let bytes = if h2d { app.h2d_bytes } else { app.d2h_bytes };
        let tag = i as u64;
        self.record(now, TraceKind::TransferStart { tag, h2d, bytes });
        self.procs[i].transfer = Some(engine.add_transfer(bytes));
    }

    /// Process `i`'s ready launch went on the device as `slice` over
    /// `range` with `blocks` to run, charging `comm_s` of communication.
    /// Also the relaunch half of a resize (remaining blocks, no charge).
    pub fn launched(
        &mut self,
        i: usize,
        now: f64,
        slice: SliceId,
        range: SmRange,
        blocks: u64,
        comm_s: f64,
    ) {
        let p = &mut self.procs[i];
        p.slice = Some(slice);
        p.phase = Phase::Running;
        p.out.comm_s += comm_s;
        p.out.kernel_start_s = p.out.kernel_start_s.min(now);
        let tag = i as u64;
        self.record(now, TraceKind::Launch { tag, range, blocks });
    }

    /// Process `i`'s slice left the device (drained, or torn down for a
    /// resize) with `report`.
    pub fn stopped(&mut self, i: usize, now: f64, report: &SliceReport) {
        let done = report.blocks_done;
        self.record(
            now,
            TraceKind::Stop {
                tag: i as u64,
                done,
            },
        );
        let p = &mut self.procs[i];
        p.slice = None;
        p.out.kernel_busy_s += report.active_s;
        p.out.metrics.merge(report);
    }

    /// Process `i`'s launch, [`stopped`] at `now`, is being moved from
    /// `from` to `to` (its remainder is [`launched`] next, unless the slice
    /// turned out to have drained).
    ///
    /// [`stopped`]: Lifecycle::stopped
    /// [`launched`]: Lifecycle::launched
    pub fn resized(&mut self, i: usize, now: f64, from: SmRange, to: SmRange) {
        self.procs[i].out.resizes += 1;
        let tag = i as u64;
        self.record(now, TraceKind::Resize { tag, from, to });
    }

    /// Process `i`'s launch is complete (its slice [`stopped`] with nothing
    /// left): readies the next launch, or starts the D2H copy after the
    /// last. Returns whether another launch is ready.
    ///
    /// [`stopped`]: Lifecycle::stopped
    pub fn finish_launch(&mut self, engine: &mut Engine, i: usize, now: f64) -> bool {
        let p = &mut self.procs[i];
        p.launches_done += 1;
        let ready = p.launches_done < p.app.launches;
        if ready {
            p.phase = Phase::Ready;
        } else {
            p.phase = Phase::D2h;
            self.start_transfer(engine, i, now, false);
        }
        ready
    }

    /// Assembles the outcome of a finished run, and its trace if the run
    /// was traced.
    pub fn finish(self, runtime: &str) -> (RunOutcome, Option<Trace>) {
        debug_assert!(self.procs.iter().all(|p| p.phase == Phase::Done));
        let mut apps: Vec<AppResult> = self.procs.into_iter().map(|p| p.out).collect();
        for a in apps.iter_mut().filter(|a| !a.kernel_start_s.is_finite()) {
            a.kernel_start_s = 0.0;
        }
        let out = RunOutcome {
            runtime: runtime.into(),
            makespan_s: apps.iter().map(|a| a.end_s).fold(0.0, f64::max),
            records: self.records,
            apps,
        };
        (out, self.trace)
    }
}
