//! Property tests for the simulator substrate: conservation laws of the
//! bandwidth allocator, occupancy bounds, cache-model bounds, and engine
//! invariants (closed-form agreement, resize conservation, metric
//! proportionality) over arbitrary kernel profiles.

use proptest::prelude::*;
use slate_gpu_sim::cache;
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::engine::{Engine, Event, SliceSpec};
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
