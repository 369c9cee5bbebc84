//! Property tests for the simulator substrate: conservation laws of the
//! bandwidth allocator, occupancy bounds, cache-model bounds, and engine
//! invariants (closed-form agreement, resize conservation, metric
//! proportionality) over arbitrary kernel profiles, and the engine's rule
//! for skipping rate recomputes over arbitrary sequences of operations.

use proptest::prelude::*;
use slate_gpu_sim::cache;
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::engine::{Engine, Event, SliceId, SliceSpec, TimerId};
use slate_gpu_sim::membw::{allocate, BwDemand};
use slate_gpu_sim::model;
use slate_gpu_sim::occupancy;
use slate_gpu_sim::perf::{BlockOrder, ExecMode, KernelPerf};

fn arb_perf() -> impl Strategy<Value = KernelPerf> {
    (
        64u32..=1024,        // threads per block (multiple of 32 below)
        16u32..=64,          // regs per thread
        0u32..=32 * 1024,    // smem
        100.0..100_000.0f64, // compute cycles
        0.0..200_000.0f64,   // dram bytes in-order
        1.0..3.0f64,         // scattered multiplier
    )
        .prop_map(|(threads, regs, smem, cycles, dram, mult)| {
            let mut p = KernelPerf::synthetic("prop", cycles, dram * mult);
            p.threads_per_block = (threads / 32).max(1) * 32;
            p.regs_per_thread = regs;
            p.smem_per_block = smem;
            p.dram_bytes_inorder = dram;
            p.dram_bytes_scattered = dram * mult;
            p.mem_request_bytes_per_block = dram * mult;
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The allocator conserves capacity and never over-grants a demand.
    #[test]
    fn allocator_conserves(demands in prop::collection::vec(0.0..1e12f64, 0..12),
                           capacity in 0.0..1e12f64) {
        let ds: Vec<BwDemand> = demands.iter().map(|&d| BwDemand { demand: d }).collect();
        let mut allocs = Vec::new();
        allocate(capacity, &ds, &mut allocs);
        prop_assert_eq!(allocs.len(), ds.len());
        let total: f64 = allocs.iter().sum();
        prop_assert!(total <= capacity.max(demands.iter().sum()) * (1.0 + 1e-9));
        let demand_total: f64 = demands.iter().sum();
        if demand_total > 0.0 {
            prop_assert!(total <= capacity * (1.0 + 1e-9) || demand_total <= capacity);
        }
        for (a, d) in allocs.iter().zip(demands.iter()) {
            prop_assert!(*a <= d * (1.0 + 1e-9) + 1e-12);
            prop_assert!(*a >= 0.0);
        }
    }

    /// Occupancy never exceeds any hardware limit.
    #[test]
    fn occupancy_respects_limits(perf in arb_perf()) {
        let d = DeviceConfig::titan_xp();
        let blocks = occupancy::blocks_per_sm(&d, &perf);
        prop_assert!(blocks <= d.max_blocks_per_sm);
        prop_assert!(blocks * perf.threads_per_block <= d.max_threads_per_sm);
        if blocks > 0 {
            prop_assert!(blocks * perf.regs_per_thread * perf.threads_per_block
                <= d.regs_per_sm + 256 * blocks);
            prop_assert!(blocks as u64 * perf.smem_per_block as u64
                <= d.smem_per_sm as u64 + 256 * blocks as u64);
        }
    }

    /// Effective DRAM bytes always lie between the in-order and scattered
    /// figures, monotonically in pressure.
    #[test]
    fn cache_model_bounded(perf in arb_perf(), p1 in 0.0..4.0f64, p2 in 0.0..4.0f64) {
        for order in [BlockOrder::InOrder, BlockOrder::Scattered] {
            let e1 = cache::effective_dram_bytes(&perf, order, p1);
            prop_assert!(e1 >= perf.dram_bytes_inorder - 1e-9);
            prop_assert!(e1 <= perf.dram_bytes_scattered + 1e-9);
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let el = cache::effective_dram_bytes(&perf, order, lo);
            let eh = cache::effective_dram_bytes(&perf, order, hi);
            prop_assert!(el <= eh + 1e-9, "monotone in pressure");
        }
    }

    /// A solo engine run agrees with the closed-form rate model up to the
    /// tail-imbalance correction.
    #[test]
    fn engine_matches_model(perf in arb_perf(), blocks in 10_000u64..2_000_000) {
        let cfg = DeviceConfig::titan_xp();
        if occupancy::blocks_per_sm(&cfg, &perf) == 0 {
            return Ok(()); // unlaunchable
        }
        let mut e = Engine::new(cfg.clone());
        let id = e.add_slice(SliceSpec {
            perf: perf.clone(),
            sm_range: SmRange::all(30),
            blocks,
            mode: ExecMode::Hardware,
            extra_lead_s: 0.0,
            batch: 1,
            tag: 0,
        }).unwrap();
        let (t, _) = e.run_until(|ev| matches!(ev, Event::SliceDrained(_))).unwrap();
        let rep = e.remove_slice(id);
        prop_assert!(rep.drained);
        prop_assert_eq!(rep.blocks_done, blocks);
        let est = model::estimate_duration(&cfg, &perf, blocks, 30, ExecMode::Hardware);
        // The engine only adds the tail-imbalance factor (< 4x, usually ~1).
        prop_assert!(t >= est * 0.999, "engine faster than model: {} < {}", t, est);
        prop_assert!(t <= est * 4.001, "engine slower than imbalance bound");
    }

    /// Removing a slice mid-flight and relaunching the remainder conserves
    /// blocks exactly, for any split point and any SM ranges.
    #[test]
    fn resize_conserves_blocks(perf in arb_perf(),
                               blocks in 10_000u64..500_000,
                               cut in 0.05..0.95f64,
                               lo in 0u32..29,
                               task in 1u32..40) {
        let cfg = DeviceConfig::titan_xp();
        if occupancy::blocks_per_sm(&cfg, &perf) == 0 {
            return Ok(());
        }
        let mut e = Engine::new(cfg.clone());
        let mode = ExecMode::SlateWorkers { task_size: task };
        let id = e.add_slice(SliceSpec {
            perf: perf.clone(),
            sm_range: SmRange::all(30),
            blocks,
            mode,
            extra_lead_s: 0.0,
            batch: 1,
            tag: 0,
        }).unwrap();
        // Cut somewhere mid-run.
        let est = model::estimate_duration(&cfg, &perf, blocks, 30, mode);
        let timer = e.set_timer(est * cut);
        loop {
            let (_, ev) = e.step().unwrap();
            match ev {
                Event::Timer(t) if t == timer => break,
                Event::SliceDrained(_) => break, // drained before the cut
                _ => {}
            }
        }
        let rep1 = e.remove_slice(id);
        let remaining = blocks - rep1.blocks_done;
        let mut total = rep1.blocks_done;
        if remaining > 0 {
            let id2 = e.add_slice(SliceSpec {
                perf: perf.clone(),
                sm_range: SmRange::new(lo, 29),
                blocks: remaining,
                mode,
                extra_lead_s: 0.0,
                batch: 1,
                tag: 1,
            }).unwrap();
            e.run_until(|ev| matches!(ev, Event::SliceDrained(_))).unwrap();
            let rep2 = e.remove_slice(id2);
            prop_assert!(rep2.drained);
            total += rep2.blocks_done;
        }
        prop_assert_eq!(total, blocks);
    }

    /// Accumulated metrics are exactly proportional to completed blocks.
    #[test]
    fn metrics_proportional(perf in arb_perf(), blocks in 1_000u64..200_000) {
        let cfg = DeviceConfig::titan_xp();
        if occupancy::blocks_per_sm(&cfg, &perf) == 0 {
            return Ok(());
        }
        let mut e = Engine::new(cfg);
        let id = e.add_slice(SliceSpec {
            perf: perf.clone(),
            sm_range: SmRange::all(30),
            blocks,
            mode: ExecMode::Hardware,
            extra_lead_s: 0.0,
            batch: 1,
            tag: 0,
        }).unwrap();
        e.run_until(|ev| matches!(ev, Event::SliceDrained(_))).unwrap();
        let rep = e.remove_slice(id);
        let b = blocks as f64;
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-6 * y.abs().max(1.0);
        prop_assert!(close(rep.flops, b * perf.flops_per_block));
        prop_assert!(close(rep.insts, b * perf.insts_per_block));
        prop_assert!(close(rep.request_bytes, b * perf.mem_request_bytes_per_block));
        prop_assert!(rep.stall_s <= rep.active_s * (1.0 + 1e-9));
    }

    /// The steady-rate model is monotone in SM count.
    #[test]
    fn rate_monotone_in_sms(perf in arb_perf()) {
        let cfg = DeviceConfig::titan_xp();
        let mut last = 0.0;
        for sms in 1..=30 {
            let r = model::steady_rate(&cfg, &perf, sms, ExecMode::Hardware);
            prop_assert!(r >= last - 1e-9, "rate dropped at {sms} SMs");
            last = r;
        }
    }
}

proptest! {
    // Cheap cases, and a wrong skip shows only in some orderings (an
    // executing slice removed while another executes, then a step).
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any sequence of engine operations — launches with and without a
    /// lead-in, steps, mid-flight removes (the retreat half of a resize),
    /// transfers, timers and their cancellation — runs the same whether a
    /// step recomputes every rate or skips a recompute the rule says
    /// cannot change one. Debug builds check that inside every step that
    /// skips (it recomputes anyway and asserts no rate bit moved); this
    /// drives the rule through its branches, then drains and checks that
    /// every slice's blocks are accounted for.
    #[test]
    fn skipped_recomputes_change_no_rate(zero_latency in any::<bool>(),
                                         ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut cfg = DeviceConfig::titan_xp();
        if zero_latency {
            // A hardware launch with no extra lead then executes at once:
            // the add that must mark the rates dirty.
            cfg.launch_latency_s = 0.0;
        }
        let mut e = Engine::new(cfg);
        let mut slices: Vec<(SliceId, u64)> = Vec::new();
        let mut timers: Vec<TimerId> = Vec::new();
        for op in ops {
            match op {
                Op::Add { perf, lo, width, blocks, slate, lead } => {
                    let hi = (lo + width).min(29);
                    let mode = if slate {
                        ExecMode::SlateWorkers { task_size: 10 }
                    } else {
                        ExecMode::Hardware
                    };
                    let id = e.add_slice(SliceSpec {
                        perf: PERFS[perf](),
                        sm_range: SmRange::new(lo, hi),
                        blocks,
                        mode,
                        extra_lead_s: if lead { 2e-5 } else { 0.0 },
                        batch: 1,
                        tag: slices.len() as u64,
                    }).unwrap();
                    slices.push((id, blocks));
                }
                Op::Step => {
                    if let Some((_, Event::Timer(t))) = e.step() {
                        timers.retain(|&x| x != t);
                    }
                }
                Op::Remove(k) if !slices.is_empty() => {
                    let (id, blocks) = slices.remove(k % slices.len());
                    let rep = e.remove_slice(id);
                    prop_assert!(rep.blocks_done <= blocks);
                    prop_assert_eq!(rep.drained, rep.blocks_done == blocks);
                }
                Op::Transfer(bytes) => {
                    e.add_transfer(bytes);
                }
                Op::Timer(dt) => timers.push(e.set_timer(e.now() + dt)),
                Op::Cancel(k) if !timers.is_empty() => {
                    let t = timers.remove(k % timers.len());
                    prop_assert!(e.cancel_timer(t));
                }
                Op::Remove(_) | Op::Cancel(_) => {}
            }
        }
        while e.step().is_some() {}
        prop_assert!(timers.is_empty() || timers.iter().all(|&t| !e.cancel_timer(t)));
        for (id, blocks) in slices {
            let rep = e.remove_slice(id);
            prop_assert!(rep.drained);
            prop_assert_eq!(rep.blocks_done, blocks);
        }
        prop_assert!(e.idle());
    }
}

/// One operation of [`skipped_recomputes_change_no_rate`].
#[derive(Debug, Clone)]
enum Op {
    /// Launch `PERFS[perf]` on SMs `lo..=lo + width` (clamped).
    Add {
        perf: usize,
        lo: u32,
        width: u32,
        blocks: u64,
        slate: bool,
        lead: bool,
    },
    Step,
    /// Remove the `k`-th registered slice (modulo their count), whatever
    /// its state: in its lead-in, executing, or drained.
    Remove(usize),
    Transfer(u64),
    /// A timer `dt` seconds from now.
    Timer(f64),
    /// Cancel the `k`-th pending timer (modulo their count).
    Cancel(usize),
}

/// Kernels that contend differently: compute-bound, streaming, and one
/// with an L2 working set (so co-runners move each other's DRAM bytes).
const PERFS: [fn() -> KernelPerf; 3] = [
    || {
        let mut p = KernelPerf::synthetic("compute", 20_000.0, 0.0);
        p.mem_request_bytes_per_block = 0.0;
        p
    },
    || KernelPerf::synthetic("stream", 200.0, 400_000.0),
    || {
        let mut p = KernelPerf::synthetic("cached", 5_000.0, 20_000.0);
        p.dram_bytes_scattered = 60_000.0;
        p.l2_footprint_bytes = 2.0 * 1024.0 * 1024.0;
        p
    },
];

fn arb_op() -> impl Strategy<Value = Op> {
    // Steps listed twice: about one op in three advances the engine.
    prop_oneof![
        (
            0..PERFS.len(),
            0u32..30,
            0u32..30,
            0u64..200_000,
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(perf, lo, width, blocks, slate, lead)| Op::Add {
                perf,
                lo,
                width,
                blocks,
                slate,
                lead,
            }),
        Just(Op::Step),
        Just(Op::Step),
        any::<usize>().prop_map(Op::Remove),
        (1u64..1 << 26).prop_map(Op::Transfer),
        (0.0..2e-3f64).prop_map(Op::Timer),
        any::<usize>().prop_map(Op::Cancel),
    ]
}
