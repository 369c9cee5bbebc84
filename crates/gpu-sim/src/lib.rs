//! # slate-gpu-sim
//!
//! A calibrated, fluid-rate discrete-event GPU simulator used as the
//! hardware substrate for the Rust reproduction of *Slate: Enabling
//! Workload-Aware Efficient Multiprocessing for Modern GPGPUs* (Allen, Feng,
//! Ge — IPDPS 2019).
//!
//! The paper's prototype runs on a real NVIDIA Titan Xp; this crate stands
//! in for that card. It models the throughput phenomena Slate exploits and
//! measures:
//!
//! * SM-count-dependent memory bandwidth with a per-SM port cap and an
//!   aggregate DRAM cap (the paper's Fig. 1 saturation curve);
//! * occupancy-limited resident thread blocks per SM;
//! * block dispatch/setup cost (what Slate's persistent workers amortise);
//! * serialized global atomics (what bounds Slate's task-queue pull rate);
//! * inter-block locality: in-order vs scattered block execution change a
//!   kernel's DRAM traffic, with L2 working-set interference between
//!   co-runners;
//! * proportional DRAM bandwidth sharing between concurrent grid slices;
//! * PCIe transfers and launch latencies.
//!
//! The central abstraction is the [`engine::Engine`]: schedulers add *grid
//! slices* (kernel × SM range × block count × execution mode), transfers and
//! timers, and consume structural events. Vanilla CUDA, NVIDIA MPS, and
//! Slate runtimes are all built on this one engine (see `slate-baselines`
//! and `slate-core`).
//!
//! Functional results (as opposed to timing) are produced by executing
//! kernels' Rust bodies against [`buffer::GpuBuffer`] device memory.
//!
//! ```
//! use slate_gpu_sim::prelude::*;
//!
//! let mut engine = Engine::new(DeviceConfig::titan_xp());
//! let perf = KernelPerf::synthetic("demo", 10_000.0, 4096.0);
//! let id = engine
//!     .add_slice(SliceSpec {
//!         perf,
//!         sm_range: SmRange::all(30),
//!         blocks: 100_000,
//!         mode: ExecMode::Hardware,
//!         extra_lead_s: 0.0,
//!         batch: 1,
//!         tag: 0,
//!     })
//!     .unwrap();
//! let (t, _) = engine.run_until(|ev| matches!(ev, Event::SliceDrained(_))).unwrap();
//! let report = engine.remove_slice(id);
//! assert!(t > 0.0 && report.drained);
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod cache;
pub mod device;
pub mod engine;
pub mod fault;
pub mod membw;
pub mod metrics;
pub mod model;
pub mod occupancy;
pub mod perf;
pub mod trace;

/// Convenient re-exports of the items almost every consumer needs.
pub mod prelude {
    pub use crate::buffer::{DeviceMemoryPool, DevicePtr, GpuBuffer};
    pub use crate::device::{DeviceConfig, SmRange};
    pub use crate::engine::{Engine, Event, SliceId, SliceSpec, TimerId, TransferId};
    pub use crate::fault::{FaultKind, FaultPlan, FaultRule, FaultSite, FaultToken};
    pub use crate::metrics::{KernelMetrics, SliceReport};
    pub use crate::perf::{BlockOrder, ExecMode, KernelPerf};
    pub use crate::trace::{Trace, TraceEvent, TraceKind};
}
