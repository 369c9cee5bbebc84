//! The serializing device driver shared by the vanilla CUDA and MPS
//! baselines.
//!
//! Both baselines execute kernels *kernel-to-completion*, one launch on the
//! device at a time, under hardware block scheduling. What differs is the
//! overhead structure:
//!
//! * vanilla CUDA keeps one context per process; alternating between
//!   processes costs a context switch plus time-slice scheduling waste;
//! * MPS funnels all clients into one daemon context — no context switches,
//!   but a small per-launch proxy cost and a session setup at first API
//!   call. For the large kernels of the evaluation, MPS's *leftover* policy
//!   yields no meaningful spatial overlap (paper §V-C), so consecutive
//!   execution is the faithful model.
//!
//! Ready processes are served round-robin, which is how the driver's
//! time-slicing arbitrates between contexts submitting back-to-back work.

use crate::lifecycle::{FixedCosts, Lifecycle, Step};
use crate::runtime::RunOutcome;
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::engine::{Engine, SliceSpec, TimerId};
use slate_gpu_sim::model;
use slate_gpu_sim::perf::ExecMode;
use slate_gpu_sim::trace::Trace;
use slate_kernels::workload::AppSpec;

/// Overhead knobs distinguishing CUDA from MPS.
#[derive(Debug, Clone)]
pub struct SerialOverheads {
    /// Runtime label.
    pub label: String,
    /// Cost of switching device contexts between processes (vanilla CUDA).
    /// Paid once per *real* launch while contended (contexts alternate at
    /// kernel-to-completion granularity).
    pub ctx_switch_s: f64,
    /// Fraction of kernel time wasted by time-slice arbitration while
    /// another context is contending (vanilla CUDA driver scheduling gaps).
    pub timeslice_waste: f64,
    /// Fixed per-*real*-launch proxy cost (MPS daemon relay).
    pub per_launch_s: f64,
    /// Fraction of kernel time lost to leftover-policy tail interference
    /// while another client is contending (MPS lets the next kernel's
    /// blocks bleed into the current kernel's drain, contending for cache
    /// and bandwidth — the interference the paper's §I/§V-C describes).
    pub contended_penalty: f64,
    /// One-time per-process session setup (MPS daemon connection).
    pub session_setup_s: f64,
    /// Model the hardware *leftover* policy: a waiting kernel may begin its
    /// launch lead-in during the running kernel's drain tail (the only
    /// overlap MPS achieves for the paper's large kernels, §V-C).
    pub leftover_overlap: bool,
}

/// The leftover policy's view of one process's running launch.
#[derive(Default)]
struct Tail {
    /// Fires when the launch enters its drain tail.
    timer: Option<TimerId>,
    /// The launch is in its drain tail: a waiting kernel may start.
    fired: bool,
}

/// What the policy keeps per process: two constants of its app, worked
/// out once instead of at every launch, and its running launch's tail.
struct Proc {
    /// Modelled duration of one (batched) launch on the whole device.
    est: f64,
    /// Fraction of that duration that is the drain tail of the final
    /// real launch in the batch — the last wave of resident blocks, from
    /// where a waiting kernel's blocks may claim slots (leftover policy).
    tail_frac: f64,
    tail: Tail,
}

impl Proc {
    fn new(cfg: &DeviceConfig, app: &AppSpec) -> Self {
        let est = model::estimate_duration(
            cfg,
            &app.perf,
            app.blocks_per_launch,
            cfg.num_sms,
            ExecMode::Hardware,
        );
        let per_sm = slate_gpu_sim::occupancy::blocks_per_sm(cfg, &app.perf) as u64;
        let workers = per_sm * cfg.num_sms as u64;
        let real_blocks = (app.blocks_per_launch / app.batch as u64).max(1);
        let tail_frac = (workers as f64 / real_blocks as f64).min(1.0) / app.batch as f64;
        Self {
            est,
            tail_frac,
            tail: Tail::default(),
        }
    }
}

/// The admission policy: one launch on the device at a time (two during a
/// leftover drain tail), ready processes served round-robin.
struct Serializer<'a> {
    ov: &'a SerialOverheads,
    procs: Vec<Proc>,
    last_launched: Option<usize>,
    rr: usize,
}

impl Serializer<'_> {
    /// Dispatches the next ready process's launch if the device is free —
    /// or, under the leftover policy, if the single running launch has
    /// entered its drain tail.
    fn dispatch(&mut self, engine: &mut Engine, life: &mut Lifecycle) {
        let ov = self.ov;
        let n = self.procs.len();
        let mut active = (0..n).filter(|&j| life.slice(j).is_some());
        match (active.next(), active.next()) {
            (None, _) => {}
            (Some(j), None) if ov.leftover_overlap && self.procs[j].tail.fired => {}
            _ => return,
        }
        // Round-robin scan for a ready process, starting after the cursor.
        let pick = (0..n)
            .map(|k| (self.rr + k) % n)
            .find(|&i| life.is_ready(i));
        let Some(i) = pick else { return };
        let switching = self.last_launched.is_some() && self.last_launched != Some(i);
        let contended = (0..n).any(|j| j != i && (life.is_ready(j) || life.slice(j).is_some()));
        let app = life.app(i);
        let Proc { est, tail_frac, .. } = self.procs[i];
        // Per-launch costs scale with the number of real launches this
        // simulated (batched) launch stands for.
        let batch = app.batch as f64;
        let mut extra = ov.per_launch_s * batch;
        let range = SmRange::all(engine.device().num_sms);
        if contended {
            // Contexts alternate at every real launch boundary.
            extra += ov.ctx_switch_s * batch;
            extra += (ov.timeslice_waste + ov.contended_penalty) * est;
        } else if switching {
            extra += ov.ctx_switch_s;
        }
        let id = engine
            .add_slice(SliceSpec {
                perf: app.perf.clone(),
                sm_range: range,
                blocks: app.blocks_per_launch,
                mode: ExecMode::Hardware,
                extra_lead_s: extra,
                batch: app.batch,
                tag: i as u64,
            })
            .expect("baseline launch must be valid");
        if ov.leftover_overlap {
            let tail_at = engine.now() + extra + est * (1.0 - tail_frac);
            self.procs[i].tail = Tail {
                timer: Some(engine.set_timer(tail_at)),
                fired: false,
            };
        }
        let blocks = app.blocks_per_launch;
        life.launched(i, engine.now(), id, range, blocks, 0.0);
        self.last_launched = Some(i);
        self.rr = (i + 1) % n;
    }
}

/// Runs `apps` under the serializing policy described by `ov`, keeping
/// its [`Trace`] if `traced`.
pub fn run_serialized(
    cfg: &DeviceConfig,
    ov: &SerialOverheads,
    apps: &[AppSpec],
    traced: bool,
) -> (RunOutcome, Option<Trace>) {
    let mut engine = Engine::new(cfg.clone());
    let mut life = Lifecycle::new(&mut engine, apps, traced, |app| {
        let session_s = ov.session_setup_s * app.fixed_cost_scale;
        FixedCosts {
            session_s,
            inject_s: 0.0,
            // The daemon relay is charged inside each launch's lead-in;
            // what it adds up to is known up front.
            comm_s: if ov.per_launch_s > 0.0 {
                ov.per_launch_s * app.real_launches as f64 + session_s
            } else {
                0.0
            },
        }
    });
    let mut policy = Serializer {
        ov,
        procs: apps.iter().map(|app| Proc::new(cfg, app)).collect(),
        last_launched: None,
        rr: 0,
    };
    while let Some((now, ev)) = engine.step() {
        match life.step(&mut engine, now, ev) {
            Step::Foreign(tid) => {
                // The running launch entered its drain tail: leftover
                // slots may be claimed by a waiting kernel.
                let proc = policy
                    .procs
                    .iter_mut()
                    .find(|p| p.tail.timer == Some(tid))
                    .expect("unknown timer");
                proc.tail = Tail {
                    timer: None,
                    fired: true,
                };
            }
            Step::Drained { proc, .. } => {
                if let Some(t) = std::mem::take(&mut policy.procs[proc].tail).timer {
                    engine.cancel_timer(t);
                }
            }
            Step::Ready(_) => {}
            Step::Finished(_) | Step::Internal => continue,
        }
        policy.dispatch(&mut engine, &mut life);
    }
    life.finish(&ov.label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slate_kernels::workload::Benchmark;

    fn run_serialized(cfg: &DeviceConfig, ov: &SerialOverheads, apps: &[AppSpec]) -> RunOutcome {
        super::run_serialized(cfg, ov, apps, false).0
    }

    fn overheads_free() -> SerialOverheads {
        SerialOverheads {
            label: "free".into(),
            ctx_switch_s: 0.0,
            timeslice_waste: 0.0,
            per_launch_s: 0.0,
            contended_penalty: 0.0,
            session_setup_s: 0.0,
            leftover_overlap: false,
        }
    }

    #[test]
    fn solo_app_completes_with_all_launches() {
        let cfg = DeviceConfig::titan_xp();
        let app = Benchmark::BS.app().scaled_down(100);
        let out = run_serialized(&cfg, &overheads_free(), std::slice::from_ref(&app));
        assert_eq!(out.apps.len(), 1);
        let r = &out.apps[0];
        assert_eq!(r.metrics.slices, app.launches);
        assert!(r.kernel_busy_s > 0.0);
        assert!(r.app_time_s > r.kernel_busy_s, "host phases add time");
        assert!((out.makespan_s - r.end_s).abs() < 1e-12);
    }

    #[test]
    fn two_apps_serialize_on_the_device() {
        let cfg = DeviceConfig::titan_xp();
        let a = Benchmark::BS.app().scaled_down(200);
        let b = Benchmark::TR.app().scaled_down(200);
        let solo_a =
            run_serialized(&cfg, &overheads_free(), std::slice::from_ref(&a)).apps[0].kernel_busy_s;
        let solo_b =
            run_serialized(&cfg, &overheads_free(), std::slice::from_ref(&b)).apps[0].kernel_busy_s;
        let pair = run_serialized(&cfg, &overheads_free(), &[a, b]);
        // Device work strictly serializes: makespan >= sum of kernel times.
        assert!(
            pair.makespan_s >= solo_a + solo_b,
            "makespan {} vs {}",
            pair.makespan_s,
            solo_a + solo_b
        );
        // Each app's own kernel busy time is unchanged by the pairing.
        assert!((pair.apps[0].kernel_busy_s - solo_a).abs() / solo_a < 0.01);
        assert!((pair.apps[1].kernel_busy_s - solo_b).abs() / solo_b < 0.01);
    }

    #[test]
    fn timeslice_waste_slows_contended_runs() {
        // Two identical apps alternate on every launch, so every launch
        // pays the switch tax while contended.
        let cfg = DeviceConfig::titan_xp();
        let a = Benchmark::BS.app().scaled_down(50);
        let b = Benchmark::BS.app().scaled_down(50);
        let free = run_serialized(&cfg, &overheads_free(), &[a.clone(), b.clone()]);
        let mut taxed = overheads_free();
        taxed.timeslice_waste = 0.06;
        taxed.ctx_switch_s = 25e-6;
        let slow = run_serialized(&cfg, &taxed, &[a.clone(), b.clone()]);
        assert!(slow.makespan_s > free.makespan_s * 1.02);
        // Solo runs are unaffected by the contention tax.
        let solo_free = run_serialized(&cfg, &overheads_free(), std::slice::from_ref(&a));
        let solo_taxed = run_serialized(&cfg, &taxed, &[a]);
        assert!((solo_taxed.makespan_s - solo_free.makespan_s).abs() < 1e-9);
    }

    #[test]
    fn round_robin_interleaves_processes() {
        // With equal launch counts, neither process should finish all its
        // kernels dramatically before the other starts: both end within a
        // launch or two of the makespan.
        let cfg = DeviceConfig::titan_xp();
        let a = Benchmark::BS.app().scaled_down(300);
        let b = Benchmark::BS.app().scaled_down(300);
        let pair = run_serialized(&cfg, &overheads_free(), &[a, b]);
        let gap = (pair.apps[0].end_s - pair.apps[1].end_s).abs();
        assert!(
            gap < pair.makespan_s * 0.2,
            "ends {} and {} too far apart",
            pair.apps[0].end_s,
            pair.apps[1].end_s
        );
    }

    #[test]
    fn leftover_overlap_gives_a_small_gain() {
        // Two processes under the leftover policy: the waiting kernel's
        // lead-in overlaps the running kernel's drain tail, buying a small
        // but strictly positive improvement — and only a small one (the
        // paper: "the kernels run consecutively for most of the time").
        let cfg = DeviceConfig::titan_xp();
        let a = Benchmark::BS.app().scaled_down(50);
        let b = Benchmark::BS.app().scaled_down(50);
        let mut strict = overheads_free();
        strict.per_launch_s = 50e-6;
        let mut leftover = strict.clone();
        leftover.leftover_overlap = true;
        let t_strict = run_serialized(&cfg, &strict, &[a.clone(), b.clone()]);
        let t_left = run_serialized(&cfg, &leftover, &[a, b]);
        assert!(
            t_left.makespan_s < t_strict.makespan_s,
            "overlap must help: {} vs {}",
            t_left.makespan_s,
            t_strict.makespan_s
        );
        assert!(
            t_left.makespan_s > t_strict.makespan_s * 0.97,
            "but only slightly: {} vs {}",
            t_left.makespan_s,
            t_strict.makespan_s
        );
    }

    #[test]
    fn per_launch_overhead_accumulates() {
        let cfg = DeviceConfig::titan_xp();
        let a = Benchmark::BS.app().scaled_down(200);
        let mut ov = overheads_free();
        ov.per_launch_s = 1e-3;
        let taxed = run_serialized(&cfg, &ov, std::slice::from_ref(&a));
        let free = run_serialized(&cfg, &overheads_free(), std::slice::from_ref(&a));
        let expect = a.launches as f64 * a.batch as f64 * 1e-3;
        let delta = taxed.makespan_s - free.makespan_s;
        assert!(
            (delta - expect).abs() / expect < 0.05,
            "delta {delta} vs {expect}"
        );
        // The reported communication is what was charged: the relay per
        // real launch plus the session setup at the app's fixed-cost scale.
        ov.session_setup_s = 0.05;
        let session = 0.05 * a.fixed_cost_scale;
        assert!(a.fixed_cost_scale < 1.0, "the app is scaled down");
        let with_session = run_serialized(&cfg, &ov, std::slice::from_ref(&a));
        let r = &with_session.apps[0];
        assert_eq!(r.comm_s, 1e-3 * a.real_launches as f64 + session);
        assert!((with_session.makespan_s - taxed.makespan_s - session).abs() < 1e-9);
    }
}
