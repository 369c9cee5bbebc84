//! The names this benchmark fixes: workloads, end-to-end metrics with
//! their direction and bound, and per-layer metrics. `BENCHMARK.json` at
//! the repository root lists the same; `tests/bench_contract.rs` holds the
//! two together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// Workload name and the reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "serve_small",
        "tiny add kernels on two long-lived sessions, in-memory daemon, paced then saturated: the control plane is all of a launch's latency",
    ),
    (
        "serve_durable",
        "pairs of whole session lifecycles on a 4-device fleet with the WAL on: durability, placement routing and session churn on the serving path",
    ),
    (
        "serve_mixed",
        "latency-critical decode launches inside best-effort 4 MB transposes, with preemption: the data plane, and preempt/regrow instead of corun",
    ),
    (
        "sim_paper",
        "the paper's evaluation sweep on the simulated-time stack, which the live daemon never runs: simulator speed with results pinned",
    ),
];

/// The end-to-end metrics, reported by every workload with `--trace 0`,
/// all at nominal host speed (`yardstick.rs`). What the op, and the unit of
/// work, is on each workload is in `README.md`.
pub const E2E: [E2e; 4] = [
    E2e {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2e {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    E2e {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    E2e {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The per-layer metrics, reported by every workload with `--trace 1`.
pub const LAYER: &[(&str, &str)] = &[
    // api + channel
    ("api.rpc_us", "us"),
    ("api.connect_us", "us"),
    ("api.disconnect_us", "us"),
    ("api.launch_send_us", "us"),
    ("api.sync_wait_us", "us"),
    ("api.h2d_us_per_mb", "us"),
    ("api.d2h_us_per_mb", "us"),
    // feed
    ("feed.push_pop_ns", "ns"),
    ("feed.submissions_per_launch", "count"),
    // placement
    ("placement.feed_ns_per_event", "ns"),
    ("placement.events_per_launch", "count"),
    ("placement.batches", "count"),
    ("placement.heartbeat_share", "ratio"),
    ("placement.sessions_routed", "count"),
    ("placement.migrations", "count"),
    // arbiter
    ("arbiter.feed_ns_per_event", "ns"),
    ("arbiter.commands_per_event", "count"),
    ("arbiter.corun_share", "ratio"),
    ("arbiter.resizes", "count"),
    ("arbiter.preemptions", "count"),
    ("arbiter.sheds", "count"),
    ("arbiter.replay_verify_ok", "count"),
    // durability
    ("durability.append_us_per_batch", "us"),
    ("durability.append_meta_us", "us"),
    ("durability.wal_bytes_per_launch", "B"),
    ("durability.snapshots", "count"),
    ("durability.recover_us_per_batch", "us"),
    ("durability.recover_ms", "ms"),
    ("durability.io_errors", "count"),
    // dispatch + workers + queue
    ("dispatch.run_us", "us"),
    ("dispatch.blocks_per_s", "1/s"),
    ("dispatch.relaunches_per_run", "count"),
    ("queue.pull_ns", "ns"),
    // profile, injector
    ("profile.lookup_ns", "ns"),
    ("injector.hit_ns", "ns"),
    ("injector.miss_us", "us"),
    ("injector.hit_share", "ratio"),
    // daemon
    ("daemon.residual_us", "us"),
    ("daemon.residual_share", "ratio"),
    ("daemon.idle_cpu_pct", "%"),
    ("daemon.threads", "count"),
    ("daemon.launches_served", "count"),
    ("daemon.watchdog_evictions", "count"),
    ("daemon.reaped_sessions", "count"),
    ("process.rss_mb", "MB"),
    // gpu-sim engine
    ("engine.step_ns", "ns"),
    ("engine.steps_per_run", "count"),
    // runtime, placement::multi, baselines, backend::sim
    ("runtime.run_us_per_app", "us"),
    ("runtime.recorded_run_us", "us"),
    ("runtime.events_per_run", "count"),
    ("multi.run_us", "us"),
    ("baselines.mps_run_us", "us"),
    ("baselines.cuda_run_us", "us"),
    ("backend.sim_drain_ns_per_block", "ns"),
    // trace, kernels
    ("trace.export_us_per_batch", "us"),
    ("trace.replay_under_ns_per_event", "ns"),
    ("kernels.llm_trace_us", "us"),
    // simulated results (simulated time, not host time)
    ("sim.gain_vs_mps_pct", "%"),
    ("sim.decode_p99_us", "sim_us"),
    // the generator itself (validity of the run)
    ("bench.late_p99_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.loadavg_at_start", "count"),
];
