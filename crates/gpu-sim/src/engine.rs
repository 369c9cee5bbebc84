//! Fluid-rate discrete-event engine.
//!
//! The engine advances simulated time between *structural events* (a grid
//! slice drains, a transfer completes, a timer fires, a launch lead-in
//! expires). Between events every active entity progresses at a constant
//! rate derived from the device model:
//!
//! * a **grid slice** — `blocks` user thread blocks of one kernel bound to an
//!   SM range under a given [`ExecMode`] — completes blocks at
//!   `min(compute-limited, atomic-queue-limited, memory-limited) /
//!   imbalance`;
//! * a **transfer** moves bytes over PCIe at an equal share of the link.
//!
//! Memory-limited rates come from the proportional DRAM allocator in
//! [`crate::membw`], with per-slice demands damped by the L2 interference
//! model in [`crate::cache`]. Whenever the set of *executing* slices or of
//! transfers changes, all rates are recomputed — the classic fluid DES
//! formulation. A slice in its lead-in, or drained, demands nothing and
//! adds no L2 pressure, so adding one, removing one, or a drain with no
//! other slice executing moves no rate and recomputes nothing; debug
//! builds recompute anyway on every such step and assert that no rate bit
//! moved.
//!
//! A simulated launch is `add_slice` → `step` (started) → `step` (drained)
//! → `remove_slice`, and an evaluation sweep is tens of thousands of them,
//! so on a warmed engine that cycle does not allocate: rates are
//! recomputed into scratch buffers the engine keeps, entity vectors stay
//! at their high-water capacity, and the kernel name is shared
//! ([`KernelPerf::name`] is an `Arc<str>`) rather than copied into slice
//! and report. `tests/engine_alloc.rs` holds the engine to it. Alone on
//! the device, a launch costs one rate recompute (at its start), and its
//! occupancy is looked up once the engine has seen its block geometry.
//!
//! Schedulers (vanilla CUDA, MPS, Slate) sit on top of this engine: they add
//! and remove slices, start transfers, set timers, and react to the events
//! the engine reports from [`Engine::step`]. Dynamic kernel resizing maps to
//! removing a slice (the report says how many blocks completed) and adding a
//! new slice for the remainder on a different SM range — exactly the
//! terminate-and-relaunch mechanism of the paper's dispatch kernel.

use crate::cache;
use crate::device::{DeviceConfig, SmRange};
use crate::membw::{self, BwDemand};
use crate::metrics::SliceReport;
use crate::occupancy;
use crate::perf::{ExecMode, KernelPerf};

/// Straggler coefficient: finishing tail of a task-queue drain costs about
/// `IMBALANCE_BETA * task_size * workers` extra block-times spread over the
/// drain, calibrated against the paper's Fig. 5 (BlackScholes loses ~5% at
/// task size 10 and nothing at task size 1).
const IMBALANCE_BETA: f64 = 0.3;

/// Tolerance when deciding a slice has drained, in blocks.
const DRAIN_EPS: f64 = 1e-6;

/// Handle to a grid slice registered with the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SliceId(u64);

/// Handle to a host-device transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransferId(u64);

/// Handle to a timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// Specification of a grid slice to execute.
#[derive(Debug, Clone)]
pub struct SliceSpec {
    /// Kernel performance profile.
    pub perf: KernelPerf,
    /// SM range the slice is bound to.
    pub sm_range: SmRange,
    /// Number of user thread blocks to execute.
    pub blocks: u64,
    /// Scheduling mode (hardware or Slate persistent workers).
    pub mode: ExecMode,
    /// Extra lead-in time before the first block starts (on top of the
    /// device launch latency), e.g. daemon processing. Seconds.
    pub extra_lead_s: f64,
    /// Number of back-to-back identical real launches this slice stands
    /// for (repetition loops are batched for event economy). Tail
    /// imbalance is incurred once per real launch, so it is computed on
    /// `blocks / batch`.
    pub batch: u32,
    /// Attribution tag for metrics (kernel instance / process id).
    pub tag: u64,
}

/// Events reported by [`Engine::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A slice finished its launch lead-in and began executing blocks.
    SliceStarted(SliceId),
    /// A slice completed all its blocks. The slice stays registered (idle)
    /// until [`Engine::remove_slice`] collects its report.
    SliceDrained(SliceId),
    /// A transfer moved all its bytes and was deregistered.
    TransferDone(TransferId),
    /// A timer fired and was deregistered.
    Timer(TimerId),
}

#[derive(Debug, Clone)]
struct Slice {
    spec: SliceSpec,
    lead_remaining: f64,
    blocks_done: f64,
    rate: f64,
    rate_compute: f64,
    /// Compute-limited block rate before imbalance, and the bandwidth of
    /// the SM ports the slice can use: functions of the spec and the
    /// device alone, fixed at `add_slice`.
    r_comp: f64,
    port_bw: f64,
    imbalance: f64,
    // accumulated metrics
    active_s: f64,
    stall_s: f64,
    insts: f64,
    flops: f64,
    request_bytes: f64,
    dram_bytes: f64,
    queue_pulls: f64,
    drained: bool,
}

impl Slice {
    /// Past its lead-in and not drained: only such a slice has a rate,
    /// demands bandwidth and adds L2 pressure.
    fn executing(&self) -> bool {
        self.lead_remaining <= 0.0 && !self.drained
    }

    /// The slice's report; the kernel name moves into it.
    fn into_report(self, cfg: &DeviceConfig) -> SliceReport {
        SliceReport {
            kernel: self.spec.perf.name,
            tag: self.spec.tag,
            sm_range: self.spec.sm_range,
            blocks_total: self.spec.blocks,
            blocks_done: self.blocks_done.round().min(self.spec.blocks as f64) as u64,
            drained: self.drained,
            active_s: self.active_s,
            stall_s: self.stall_s,
            insts: self.insts,
            flops: self.flops,
            request_bytes: self.request_bytes,
            dram_bytes: self.dram_bytes,
            queue_pulls: self.queue_pulls,
            cycles: self.active_s * cfg.clock_hz,
            sms: self.spec.sm_range.len(),
        }
    }
}

#[derive(Debug, Clone)]
struct Transfer {
    bytes: f64,
    done: f64,
    rate: f64,
}

/// The fluid-rate discrete-event GPU engine. See module docs.
#[derive(Debug)]
pub struct Engine {
    cfg: DeviceConfig,
    now: f64,
    next_id: u64,
    slices: Vec<(SliceId, Slice)>,
    transfers: Vec<(TransferId, Transfer)>,
    timers: Vec<(TimerId, f64)>,
    dirty: bool,
    /// Scratch of [`Engine::recompute_rates`], one entry per slice:
    /// bandwidth demands, effective DRAM bytes per block, granted
    /// bandwidth. Kept across calls so that recomputing allocates nothing
    /// once they have grown to the largest co-resident set.
    demands: Vec<BwDemand>,
    eff_dram: Vec<f64>,
    allocs: Vec<f64>,
    /// Resident blocks per SM by block geometry (threads per block,
    /// registers per thread, shared memory per block), filled in order of
    /// first sight: a run launches a handful of kernels thousands of
    /// times each.
    occupancy: [Option<([u32; 3], u32)>; OCCUPANCY_MEMO],
    /// Scratch of [`Engine::assert_rates_current`]: the rate bits before
    /// the check's recompute.
    rate_bits: Vec<u64>,
}

/// Block geometries an [`Engine`] keeps the occupancy of; past this
/// many, a new geometry's occupancy is computed at every launch.
const OCCUPANCY_MEMO: usize = 8;

impl Engine {
    /// Creates an engine for the given device at time zero.
    pub fn new(cfg: DeviceConfig) -> Self {
        Self {
            cfg,
            now: 0.0,
            next_id: 0,
            slices: Vec::new(),
            transfers: Vec::new(),
            timers: Vec::new(),
            dirty: false,
            demands: Vec::new(),
            eff_dram: Vec::new(),
            allocs: Vec::new(),
            occupancy: [None; OCCUPANCY_MEMO],
            rate_bits: Vec::new(),
        }
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The device configuration.
    pub fn device(&self) -> &DeviceConfig {
        &self.cfg
    }

    fn fresh(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// [`occupancy::blocks_per_sm`] of `perf` on this engine's device,
    /// looked up by block geometry once seen.
    fn blocks_per_sm(&mut self, perf: &KernelPerf) -> u32 {
        let key = [
            perf.threads_per_block,
            perf.regs_per_thread,
            perf.smem_per_block,
        ];
        for slot in &mut self.occupancy {
            match *slot {
                Some((k, n)) if k == key => return n,
                Some(_) => {}
                None => {
                    let n = occupancy::blocks_per_sm(&self.cfg, perf);
                    *slot = Some((key, n));
                    return n;
                }
            }
        }
        occupancy::blocks_per_sm(&self.cfg, perf)
    }

    /// Registers a grid slice. Validates the spec against the device;
    /// returns an error string if the kernel cannot launch (zero occupancy,
    /// SM range out of bounds, invalid profile).
    pub fn add_slice(&mut self, spec: SliceSpec) -> Result<SliceId, String> {
        spec.perf.validate()?;
        if spec.sm_range.hi >= self.cfg.num_sms {
            return Err(format!(
                "SM range {:?} exceeds device with {} SMs",
                spec.sm_range, self.cfg.num_sms
            ));
        }
        let per_sm = self.blocks_per_sm(&spec.perf);
        if per_sm == 0 {
            return Err(format!(
                "kernel {} cannot be launched (occupancy 0)",
                spec.perf.name
            ));
        }
        if !spec.extra_lead_s.is_finite() || spec.extra_lead_s < 0.0 {
            return Err("extra_lead_s must be finite and non-negative".into());
        }
        let sms = spec.sm_range.len() as u64;
        let workers =
            (per_sm as u64 * sms).min(spec.perf.max_concurrent_blocks.unwrap_or(u64::MAX));
        let task_size = match spec.mode {
            ExecMode::Hardware => 1,
            ExecMode::SlateWorkers { task_size } => {
                if task_size == 0 {
                    return Err("task_size must be at least 1".into());
                }
                task_size
            }
        };
        if spec.batch == 0 {
            return Err("batch must be at least 1".into());
        }
        let n = spec.blocks as f64 / spec.batch as f64;
        let imbalance = if spec.blocks == 0 {
            1.0
        } else {
            (1.0 + IMBALANCE_BETA * task_size as f64 * workers as f64 / n).min(4.0)
        };
        // Lead-in: launch latency, plus per-worker setup for Slate relaunches
        // (workers on one SM set up serially), plus caller-specified extras.
        let worker_setup = match spec.mode {
            ExecMode::Hardware => 0.0,
            ExecMode::SlateWorkers { .. } => {
                per_sm as f64 * self.cfg.block_setup_cycles / self.cfg.clock_hz
            }
        };
        let lead = self.cfg.launch_latency_s + worker_setup + spec.extra_lead_s;
        // What the rate needs of the spec and the device alone; co-runners
        // only change what `recompute_rates` derives from these.
        let cfg = &self.cfg;
        let perf = &spec.perf;
        let (sms, per_sm) = (sms as f64, per_sm as f64);
        // Kernels with limited parallelism cannot exploit the full range.
        let useful_sms = match perf.max_concurrent_blocks {
            Some(cap) => (cap as f64 / per_sm).min(sms),
            None => sms,
        };
        let resident_threads = per_sm * perf.threads_per_block as f64;
        let util = (resident_threads / cfg.threads_for_peak_per_sm as f64).min(1.0);
        let (cycles, atomic_cap) = match spec.mode {
            ExecMode::Hardware => (
                perf.compute_cycles_per_block + cfg.block_setup_cycles,
                f64::INFINITY,
            ),
            ExecMode::SlateWorkers { task_size } => (
                perf.compute_cycles_per_block + perf.inject_cycles_per_block,
                task_size as f64 / cfg.atomic_serial_s,
            ),
        };
        let r_comp = (useful_sms * cfg.clock_hz * util / cycles).min(atomic_cap);
        let port_bw = useful_sms * cfg.per_sm_mem_bw;
        let id = SliceId(self.fresh());
        self.slices.push((
            id,
            Slice {
                spec,
                lead_remaining: lead,
                blocks_done: 0.0,
                rate: 0.0,
                rate_compute: 0.0,
                r_comp,
                port_bw,
                imbalance,
                active_s: 0.0,
                stall_s: 0.0,
                insts: 0.0,
                flops: 0.0,
                request_bytes: 0.0,
                dram_bytes: 0.0,
                queue_pulls: 0.0,
                drained: false,
            },
        ));
        // In its lead-in the slice has the zero rates it was built with
        // and moves no other: only a slice that executes at once does.
        if lead <= 0.0 {
            self.dirty = true;
        }
        Ok(id)
    }

    /// Deregisters a slice and returns its accumulated report (whether or
    /// not it drained). Panics on an unknown id.
    pub fn remove_slice(&mut self, id: SliceId) -> SliceReport {
        let idx = self
            .slices
            .iter()
            .position(|(sid, _)| *sid == id)
            .unwrap_or_else(|| panic!("remove_slice: unknown {id:?}"));
        let (_, s) = self.slices.remove(idx);
        // A drained or lead-in slice held no bandwidth and no L2; an
        // executing one (torn down for a resize) did.
        if s.executing() {
            self.dirty = true;
        }
        s.into_report(&self.cfg)
    }

    /// Report for a registered slice without removing it.
    pub fn slice_report(&self, id: SliceId) -> SliceReport {
        let (_, s) = self
            .slices
            .iter()
            .find(|(sid, _)| *sid == id)
            .unwrap_or_else(|| panic!("slice_report: unknown {id:?}"));
        s.clone().into_report(&self.cfg)
    }

    /// Blocks remaining (not yet completed) in a slice.
    pub fn blocks_remaining(&self, id: SliceId) -> u64 {
        let (_, s) = self
            .slices
            .iter()
            .find(|(sid, _)| *sid == id)
            .unwrap_or_else(|| panic!("blocks_remaining: unknown {id:?}"));
        (s.spec.blocks as f64 - s.blocks_done).max(0.0).round() as u64
    }

    /// Starts a host-device transfer of `bytes` bytes. Both directions
    /// share the one bus, so the engine does not ask which this is.
    pub fn add_transfer(&mut self, bytes: u64) -> TransferId {
        let id = TransferId(self.fresh());
        self.transfers.push((
            id,
            Transfer {
                bytes: bytes as f64,
                done: 0.0,
                rate: 0.0,
            },
        ));
        self.dirty = true;
        id
    }

    /// Sets a timer that fires at absolute simulated time `at` (clamped to
    /// now if already past).
    pub fn set_timer(&mut self, at: f64) -> TimerId {
        let id = TimerId(self.fresh());
        self.timers.push((id, at.max(self.now)));
        id
    }

    /// Cancels a pending timer; returns whether it was still pending.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        let before = self.timers.len();
        self.timers.retain(|(tid, _)| *tid != id);
        self.timers.len() != before
    }

    /// True if nothing is registered (no slices, transfers, or timers).
    pub fn idle(&self) -> bool {
        self.slices.is_empty() && self.transfers.is_empty() && self.timers.is_empty()
    }

    /// Recomputes every entity's progress rate from the device model.
    /// Runs once per change to the executing slices or the transfers
    /// (once for a launch alone on the device: at its start) and
    /// allocates nothing once the scratch buffers have grown.
    fn recompute_rates(&mut self) {
        let Self {
            cfg,
            slices,
            transfers,
            dirty,
            demands,
            eff_dram,
            allocs,
            ..
        } = self;
        // L2 pressure from all executing slices (lead-in slices excluded:
        // their working set is not yet live).
        let pressure = cache::pressure(
            cfg.l2_bytes,
            slices
                .iter()
                .filter(|(_, s)| s.executing())
                .map(|(_, s)| s.spec.perf.l2_footprint_bytes),
        );

        // Pass 1: compute-limited rates and bandwidth demands.
        demands.clear();
        eff_dram.clear();
        for (_, s) in slices.iter_mut() {
            if !s.executing() {
                s.rate = 0.0;
                s.rate_compute = 0.0;
                demands.push(BwDemand { demand: 0.0 });
                eff_dram.push(0.0);
                continue;
            }
            s.rate_compute = s.r_comp / s.imbalance;
            let dram = cache::effective_dram_bytes(&s.spec.perf, s.spec.mode.order(), pressure);
            eff_dram.push(dram);
            let demand = (s.r_comp * dram).min(s.port_bw);
            demands.push(BwDemand { demand });
        }
        // Multiple contending streams destroy DRAM row locality: when the
        // pipe is oversubscribed by two or more demanders, its effective
        // capacity shrinks by the mix penalty.
        let demanders = demands.iter().filter(|d| d.demand > 0.0).count();
        let total_demand: f64 = demands.iter().map(|d| d.demand.max(0.0)).sum();
        let capacity = if demanders >= 2 && total_demand > cfg.dram_bw {
            cfg.dram_bw * (1.0 - cfg.dram_mix_penalty)
        } else {
            cfg.dram_bw
        };
        membw::allocate(capacity, demands, allocs);
        for (i, (_, s)) in slices.iter_mut().enumerate() {
            if !s.executing() {
                continue;
            }
            let r_mem = if eff_dram[i] > 0.0 {
                allocs[i] / eff_dram[i]
            } else {
                f64::INFINITY
            };
            let r_comp_raw = s.rate_compute * s.imbalance;
            s.rate = r_comp_raw.min(r_mem) / s.imbalance;
        }

        // Transfers: equal split of the PCIe link.
        let n = transfers.len().max(1) as f64;
        for (_, t) in transfers.iter_mut() {
            t.rate = cfg.pcie_bw / n;
        }
        *dirty = false;
    }

    /// Every slice's `rate` and `rate_compute` and every transfer's
    /// `rate`, as bits, in registration order.
    fn rates(&self) -> impl Iterator<Item = u64> + '_ {
        let slices = self
            .slices
            .iter()
            .flat_map(|(_, s)| [s.rate.to_bits(), s.rate_compute.to_bits()]);
        slices.chain(self.transfers.iter().map(|(_, t)| t.rate.to_bits()))
    }

    /// The check behind skipping a recompute (debug builds): recomputes
    /// anyway and asserts that no rate bit moved. Keeps its scratch, so a
    /// warmed engine still does not allocate.
    fn assert_rates_current(&mut self) {
        let mut before = std::mem::take(&mut self.rate_bits);
        before.clear();
        before.extend(self.rates());
        self.recompute_rates();
        assert!(
            before.iter().copied().eq(self.rates()),
            "a skipped rate recompute would have changed a rate at t={}",
            self.now
        );
        self.rate_bits = before;
    }

    /// Advances to the next structural event and returns it, or `None` if
    /// the engine is idle. Time only moves inside this call.
    pub fn step(&mut self) -> Option<(f64, Event)> {
        if self.idle() {
            return None;
        }
        if self.dirty {
            self.recompute_rates();
        } else if cfg!(debug_assertions) {
            self.assert_rates_current();
        }

        // Find the earliest of: lead-in expiry, slice drain, transfer done,
        // timer fire.
        let mut dt = f64::INFINITY;
        enum Next {
            Start(usize),
            Drain(usize),
            Xfer(usize),
            Timer(usize),
        }
        let mut next: Option<Next> = None;
        for (i, (_, s)) in self.slices.iter().enumerate() {
            if s.drained {
                continue;
            }
            if s.lead_remaining > 0.0 {
                if s.lead_remaining < dt {
                    dt = s.lead_remaining;
                    next = Some(Next::Start(i));
                }
            } else if s.rate > 0.0 {
                let remaining = (s.spec.blocks as f64 - s.blocks_done).max(0.0);
                let t = remaining / s.rate;
                if t < dt {
                    dt = t;
                    next = Some(Next::Drain(i));
                }
            } else if s.spec.blocks as f64 - s.blocks_done <= DRAIN_EPS {
                // Zero-block slice: drains immediately.
                dt = 0.0;
                next = Some(Next::Drain(i));
            }
        }
        for (i, (_, t)) in self.transfers.iter().enumerate() {
            if t.rate > 0.0 {
                let ttime = (t.bytes - t.done).max(0.0) / t.rate;
                if ttime < dt {
                    dt = ttime;
                    next = Some(Next::Xfer(i));
                }
            }
        }
        for (i, (_, at)) in self.timers.iter().enumerate() {
            let t = (*at - self.now).max(0.0);
            if t < dt {
                dt = t;
                next = Some(Next::Timer(i));
            }
        }

        let next = next?;
        let dt = if dt.is_finite() { dt } else { return None };

        // Advance all progress by dt.
        self.advance(dt);

        // Emit the event and mutate state.
        let ev = match next {
            Next::Start(i) => {
                let (id, s) = &mut self.slices[i];
                s.lead_remaining = 0.0;
                self.dirty = true;
                Event::SliceStarted(*id)
            }
            Next::Drain(i) => {
                let (id, s) = &mut self.slices[i];
                let id = *id;
                s.blocks_done = s.spec.blocks as f64;
                s.drained = true;
                s.rate = 0.0;
                s.rate_compute = 0.0;
                // Its bandwidth and L2 share free up: that moves a rate
                // only if another slice is executing.
                if self.slices.iter().any(|(_, s)| s.executing()) {
                    self.dirty = true;
                }
                Event::SliceDrained(id)
            }
            Next::Xfer(i) => {
                let (id, _) = self.transfers.remove(i);
                self.dirty = true;
                Event::TransferDone(id)
            }
            Next::Timer(i) => {
                let (id, _) = self.timers.remove(i);
                Event::Timer(id)
            }
        };
        Some((self.now, ev))
    }

    /// Integrates all entity progress and metrics over `dt` seconds.
    fn advance(&mut self, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        for (_, s) in &mut self.slices {
            if s.drained {
                continue;
            }
            if s.lead_remaining > 0.0 {
                s.lead_remaining = (s.lead_remaining - dt).max(0.0);
                continue;
            }
            if s.rate <= 0.0 {
                continue;
            }
            let blocks = s.rate * dt;
            s.blocks_done += blocks;
            s.active_s += dt;
            if s.rate < s.rate_compute {
                s.stall_s += dt * (1.0 - s.rate / s.rate_compute);
            }
            let perf = &s.spec.perf;
            let (inject_insts, pulls_per_block) = match s.spec.mode {
                ExecMode::Hardware => (0.0, 0.0),
                ExecMode::SlateWorkers { task_size } => {
                    (perf.inject_insts_per_block, 1.0 / task_size as f64)
                }
            };
            s.insts += blocks * (perf.insts_per_block + inject_insts);
            s.flops += blocks * perf.flops_per_block;
            s.request_bytes += blocks * perf.mem_request_bytes_per_block;
            s.dram_bytes += blocks * perf.dram_bytes(s.spec.mode.order());
            s.queue_pulls += blocks * pulls_per_block;
        }
        for (_, t) in &mut self.transfers {
            t.done += t.rate * dt;
        }
        self.now += dt;
    }

    /// Runs the engine until `pred` returns true for an emitted event or the
    /// engine goes idle; returns the matching event if any. Convenience for
    /// tests.
    pub fn run_until(&mut self, mut pred: impl FnMut(&Event) -> bool) -> Option<(f64, Event)> {
        while let Some((t, ev)) = self.step() {
            if pred(&ev) {
                return Some((t, ev));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(DeviceConfig::titan_xp())
    }

    fn spec(perf: KernelPerf, blocks: u64, mode: ExecMode) -> SliceSpec {
        SliceSpec {
            sm_range: SmRange::all(30),
            perf,
            blocks,
            mode,
            extra_lead_s: 0.0,
            batch: 1,
            tag: 0,
        }
    }

    /// Drain a single slice to completion and return (time, report).
    fn solo_run(perf: KernelPerf, blocks: u64, mode: ExecMode) -> (f64, SliceReport) {
        let mut e = engine();
        let id = e.add_slice(spec(perf, blocks, mode)).unwrap();
        let (t, ev) = e
            .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
            .unwrap();
        assert_eq!(ev, Event::SliceDrained(id));
        (t, e.remove_slice(id))
    }

    #[test]
    fn compute_bound_kernel_time_matches_closed_form() {
        // Pure compute kernel: no memory traffic at all.
        let mut p = KernelPerf::synthetic("compute", 100_000.0, 0.0);
        p.dram_bytes_inorder = 0.0;
        p.dram_bytes_scattered = 0.0;
        p.mem_request_bytes_per_block = 0.0;
        let blocks = 300_000u64;
        let (t, rep) = solo_run(p.clone(), blocks, ExecMode::Hardware);
        let cfg = DeviceConfig::titan_xp();
        let cycles = p.compute_cycles_per_block + cfg.block_setup_cycles;
        let r = 30.0 * cfg.clock_hz / cycles; // full occupancy => util 1
        let imb = 1.0 + IMBALANCE_BETA * (8.0 * 30.0) / blocks as f64;
        let expect = blocks as f64 / (r / imb) + cfg.launch_latency_s;
        assert!((t - expect).abs() / expect < 1e-9, "t={t}, expect={expect}");
        assert!(rep.drained);
        assert_eq!(rep.blocks_done, blocks);
    }

    #[test]
    fn memory_bound_kernel_saturates_dram() {
        // Streaming kernel: negligible compute, lots of bytes.
        let p = KernelPerf::synthetic("stream", 100.0, 1_000_000.0);
        let blocks = 50_000u64;
        let (t, rep) = solo_run(p, blocks, ExecMode::Hardware);
        let bytes = blocks as f64 * 1e6;
        let bw = bytes / (t - DeviceConfig::titan_xp().launch_latency_s);
        // Should achieve (close to) the 480 GB/s DRAM cap.
        assert!(bw > 0.95 * 480e9, "achieved {bw:.3e} B/s");
        assert!(rep.stall_s > 0.0, "memory-bound kernel must record stalls");
    }

    #[test]
    fn per_sm_cap_limits_small_ranges() {
        // Same streaming kernel on 4 SMs draws at most 4 * 54 GB/s.
        let p = KernelPerf::synthetic("stream", 100.0, 1_000_000.0);
        let mut e = engine();
        let mut s = spec(p, 20_000, ExecMode::Hardware);
        s.sm_range = SmRange::new(0, 3);
        let id = e.add_slice(s).unwrap();
        let (t, _) = e
            .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
            .unwrap();
        let rep = e.remove_slice(id);
        let bw = rep.dram_bytes / rep.active_s;
        assert!(bw <= 4.0 * 54e9 * 1.01, "bw {bw:.3e}");
        assert!(bw >= 4.0 * 54e9 * 0.9, "bw {bw:.3e}");
        assert!(t > 0.0);
    }

    #[test]
    fn two_memory_bound_slices_share_bandwidth() {
        let p = KernelPerf::synthetic("stream", 100.0, 1_000_000.0);
        let mut e = engine();
        let mut s1 = spec(p.clone(), 30_000, ExecMode::Hardware);
        s1.sm_range = SmRange::new(0, 14);
        let mut s2 = spec(p, 30_000, ExecMode::Hardware);
        s2.sm_range = SmRange::new(15, 29);
        s2.tag = 1;
        let a = e.add_slice(s1).unwrap();
        let b = e.add_slice(s2).unwrap();
        // Both drain at the same moment (equal demands, proportional split).
        let (t1, _ev1) = e
            .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
            .unwrap();
        let (t2, _ev2) = e
            .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
            .unwrap();
        assert!((t2 - t1) / t2 < 1e-6, "t1={t1} t2={t2}");
        let ra = e.remove_slice(a);
        let rb = e.remove_slice(b);
        // Two contending streams share the mix-penalized capacity.
        let expect = 480e9 * (1.0 - DeviceConfig::titan_xp().dram_mix_penalty);
        let total_bw = (ra.dram_bytes + rb.dram_bytes) / t2.max(ra.active_s);
        assert!(total_bw <= expect * 1.01, "total {total_bw:.3e}");
        assert!(total_bw >= expect * 0.9, "total {total_bw:.3e}");
    }

    #[test]
    fn compute_and_memory_kernels_barely_interfere() {
        // A compute-bound kernel sharing the device with a streaming kernel
        // should run at nearly its solo speed (complementarity!).
        let mut comp = KernelPerf::synthetic("compute", 200_000.0, 0.0);
        comp.dram_bytes_inorder = 0.0;
        comp.dram_bytes_scattered = 0.0;
        let stream = KernelPerf::synthetic("stream", 100.0, 1_000_000.0);

        let mut half_comp = spec(comp.clone(), 100_000, ExecMode::Hardware);
        half_comp.sm_range = SmRange::new(0, 14);
        let (t_solo, _) = {
            let mut e = engine();
            let id = e.add_slice(half_comp.clone()).unwrap();
            let (t, _) = e
                .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
                .unwrap();
            (t, e.remove_slice(id))
        };

        let mut e = engine();
        let a = e.add_slice(half_comp).unwrap();
        let mut s2 = spec(stream, 1_000_000, ExecMode::Hardware);
        s2.sm_range = SmRange::new(15, 29);
        let _b = e.add_slice(s2).unwrap();
        let (t_corun, ev) = e
            .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
            .unwrap();
        assert_eq!(ev, Event::SliceDrained(a), "compute kernel finishes first");
        assert!(
            (t_corun - t_solo).abs() / t_solo < 0.01,
            "solo {t_solo} vs corun {t_corun}"
        );
    }

    #[test]
    fn slate_mode_skips_block_setup_but_pays_injection() {
        // Compute-bound kernel with tiny blocks on a device with expensive
        // block dispatch: hardware pays the setup cost per block; Slate's
        // persistent workers pay only the injected cycles.
        let mut cfg = DeviceConfig::titan_xp();
        cfg.block_setup_cycles = 600.0;
        let mut p = KernelPerf::synthetic("tinyblocks", 800.0, 0.0);
        p.dram_bytes_inorder = 0.0;
        p.dram_bytes_scattered = 0.0;
        p.inject_cycles_per_block = 40.0;
        let blocks = 2_000_000u64;
        let run = |mode: ExecMode| {
            let mut e = Engine::new(cfg.clone());
            let id = e.add_slice(spec(p.clone(), blocks, mode)).unwrap();
            let (t, _) = e
                .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
                .unwrap();
            (t, e.remove_slice(id))
        };
        let (t_hw, _) = run(ExecMode::Hardware);
        let (t_slate, rep) = run(ExecMode::SlateWorkers { task_size: 20 });
        assert!(
            t_slate < t_hw * 0.75,
            "slate {t_slate} should beat hardware {t_hw} on tiny blocks"
        );
        // Queue pulls recorded: one per task.
        assert!((rep.queue_pulls - blocks as f64 / 20.0).abs() < 1.0);
    }

    #[test]
    fn parallelism_cap_limits_useful_sms() {
        // A kernel that can only keep 4 SMs' worth of blocks in flight runs
        // no faster on 30 SMs than on 4 (the QuasiRandom situation).
        let mut p = KernelPerf::synthetic("rg", 10_000.0, 0.0);
        p.dram_bytes_inorder = 0.0;
        p.dram_bytes_scattered = 0.0;
        p.max_concurrent_blocks = Some(32); // 8 resident/SM -> 4 useful SMs
        let blocks = 200_000u64;
        let run_on = |sms: SmRange| {
            let mut e = engine();
            let mut s = spec(p.clone(), blocks, ExecMode::Hardware);
            s.sm_range = sms;
            let id = e.add_slice(s).unwrap();
            let (t, _) = e
                .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
                .unwrap();
            let _ = e.remove_slice(id);
            t
        };
        let t30 = run_on(SmRange::all(30));
        let t4 = run_on(SmRange::new(0, 3));
        let t2 = run_on(SmRange::new(0, 1));
        assert!(
            (t30 - t4).abs() / t4 < 1e-9,
            "30 SMs no better than 4: {t30} vs {t4}"
        );
        assert!(t2 > t4 * 1.8, "2 SMs roughly halves the rate: {t2} vs {t4}");
    }

    #[test]
    fn atomic_cap_throttles_task_size_one() {
        let mut p = KernelPerf::synthetic("tinyblocks", 800.0, 0.0);
        p.dram_bytes_inorder = 0.0;
        p.dram_bytes_scattered = 0.0;
        let blocks = 2_000_000u64;
        let (t1, _) = solo_run(p.clone(), blocks, ExecMode::SlateWorkers { task_size: 1 });
        let (t10, _) = solo_run(p, blocks, ExecMode::SlateWorkers { task_size: 10 });
        assert!(
            t10 < t1,
            "task size 10 ({t10}) must beat task size 1 ({t1})"
        );
    }

    #[test]
    fn large_task_size_suffers_imbalance() {
        let mut p = KernelPerf::synthetic("k", 20_000.0, 0.0);
        p.dram_bytes_inorder = 0.0;
        p.dram_bytes_scattered = 0.0;
        let blocks = 20_000u64; // small grid: tail imbalance matters
        let (t10, _) = solo_run(p.clone(), blocks, ExecMode::SlateWorkers { task_size: 10 });
        let (t100, _) = solo_run(p, blocks, ExecMode::SlateWorkers { task_size: 100 });
        assert!(t100 > t10, "oversized tasks must hurt: {t100} <= {t10}");
    }

    #[test]
    fn resize_preserves_total_blocks() {
        let p = KernelPerf::synthetic("k", 10_000.0, 1000.0);
        let mut e = engine();
        let mut s = spec(p.clone(), 100_000, ExecMode::SlateWorkers { task_size: 10 });
        s.sm_range = SmRange::all(30);
        let id = e.add_slice(s).unwrap();
        // Let it run for a while, then shrink to 10 SMs.
        let timer = e.set_timer(0.002);
        let (_, ev) = e.step().unwrap(); // SliceStarted
        assert!(matches!(ev, Event::SliceStarted(_)));
        let (_, ev) = e.step().unwrap();
        assert_eq!(ev, Event::Timer(timer));
        let rep = e.remove_slice(id);
        assert!(!rep.drained);
        let remaining = rep.blocks_total - rep.blocks_done;
        assert!(remaining > 0 && remaining < 100_000);
        let mut s2 = spec(p, remaining, ExecMode::SlateWorkers { task_size: 10 });
        s2.sm_range = SmRange::new(0, 9);
        let id2 = e.add_slice(s2).unwrap();
        let (_, ev) = e
            .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
            .unwrap();
        assert_eq!(ev, Event::SliceDrained(id2));
        let rep2 = e.remove_slice(id2);
        assert_eq!(rep.blocks_done + rep2.blocks_done, 100_000);
    }

    #[test]
    fn transfers_share_pcie_equally() {
        let mut e = engine();
        let a = e.add_transfer(12_000_000_000); // 1 s alone
        let _b = e.add_transfer(12_000_000_000);
        let (t, ev) = e.step().unwrap();
        assert!(matches!(ev, Event::TransferDone(_)));
        assert!((t - 2.0).abs() < 1e-9, "two transfers halve the link: {t}");
        let (t2, ev2) = e.step().unwrap();
        assert!(matches!(ev2, Event::TransferDone(_)));
        assert!((t2 - 2.0).abs() < 1e-9, "{t2}");
        let _ = a;
    }

    #[test]
    fn timers_fire_in_order() {
        let mut e = engine();
        let t2 = e.set_timer(2.0);
        let t1 = e.set_timer(1.0);
        assert_eq!(e.step().unwrap(), (1.0, Event::Timer(t1)));
        assert_eq!(e.step().unwrap(), (2.0, Event::Timer(t2)));
        assert!(e.step().is_none());
    }

    #[test]
    fn cancel_timer_removes_it() {
        let mut e = engine();
        let t1 = e.set_timer(1.0);
        assert!(e.cancel_timer(t1));
        assert!(!e.cancel_timer(t1));
        assert!(e.step().is_none());
    }

    #[test]
    fn add_slice_validates() {
        let mut e = engine();
        let p = KernelPerf::synthetic("k", 1000.0, 0.0);
        let mut s = spec(p.clone(), 10, ExecMode::Hardware);
        s.sm_range = SmRange::new(0, 99);
        assert!(e.add_slice(s).is_err(), "out-of-range SMs rejected");
        let mut s = spec(p.clone(), 10, ExecMode::SlateWorkers { task_size: 0 });
        s.sm_range = SmRange::all(30);
        assert!(e.add_slice(s).is_err(), "zero task size rejected");
        let mut bad = p;
        bad.smem_per_block = 10 * 1024 * 1024;
        assert!(
            e.add_slice(spec(bad, 10, ExecMode::Hardware)).is_err(),
            "unlaunchable kernel rejected"
        );
    }

    #[test]
    fn zero_block_slice_drains_immediately() {
        let mut e = engine();
        let p = KernelPerf::synthetic("k", 1000.0, 0.0);
        let id = e.add_slice(spec(p, 0, ExecMode::Hardware)).unwrap();
        let (_, ev) = e
            .run_until(|ev| matches!(ev, Event::SliceDrained(_)))
            .unwrap();
        assert_eq!(ev, Event::SliceDrained(id));
    }

    #[test]
    fn metrics_accumulate_consistently() {
        let p = KernelPerf::synthetic("k", 10_000.0, 2048.0);
        let blocks = 100_000u64;
        let (_, rep) = solo_run(p.clone(), blocks, ExecMode::Hardware);
        let b = blocks as f64;
        assert!((rep.flops - b * p.flops_per_block).abs() / (b * p.flops_per_block) < 1e-6);
        assert!((rep.insts - b * p.insts_per_block).abs() / (b * p.insts_per_block) < 1e-6);
        assert!(
            (rep.request_bytes - b * p.mem_request_bytes_per_block).abs()
                / (b * p.mem_request_bytes_per_block)
                < 1e-6
        );
        assert!(rep.ipc() > 0.0);
        assert!(rep.gflops() > 0.0);
    }

    #[test]
    fn locality_gap_speeds_up_inorder_execution() {
        // Kernel with a 2x in-order/scattered DRAM gap, balanced so that
        // in-order traffic fits under the DRAM cap but scattered traffic
        // does not (the Gaussian situation in the paper's Table III).
        let mut p = KernelPerf::synthetic("gauss", 40_000.0, 0.0);
        p.mem_request_bytes_per_block = 800_000.0;
        p.dram_bytes_inorder = 400_000.0;
        p.dram_bytes_scattered = 800_000.0;
        let blocks = 100_000u64;
        let (t_hw, hw) = solo_run(p.clone(), blocks, ExecMode::Hardware);
        let (t_slate, sl) = solo_run(p, blocks, ExecMode::SlateWorkers { task_size: 10 });
        assert!(
            t_slate < t_hw * 0.7,
            "in-order locality should win big: {t_slate} vs {t_hw}"
        );
        // Achieved request bandwidth should be higher under Slate.
        assert!(sl.request_bw() > hw.request_bw());
        // The scattered run stalls on memory; the in-order run does not.
        assert!(hw.stall_fraction() > 0.1);
        assert!(sl.stall_fraction() < hw.stall_fraction());
    }
}
