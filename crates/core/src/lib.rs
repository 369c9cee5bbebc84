//! # slate-core
//!
//! Rust implementation of **Slate** — the workload-aware GPU
//! multiprocessing framework of Allen, Feng & Ge (IPDPS 2019) — over the
//! `slate-gpu-sim` substrate.
//!
//! The crate has two coupled layers:
//!
//! **Functional layer** (real threads, real atomics) — demonstrates and
//! tests the mechanisms themselves:
//! [`transform`] (grid flattening `K(B,T) → K*(B*,T)`), [`queue`] (the
//! `slateIdx` task queue), [`workers`] (persistent workers with the SM-range
//! gate of Listing 1), [`dispatch`] (the resizing dispatch kernel of
//! Listing 3), [`scanner`]/[`injector`] (the FLEX + NVRTC source-injection
//! pipeline), and the client/daemon runtime in [`daemon`] and [`api`].
//!
//! **Scheduling layer** (simulated time) — reproduces the paper's
//! performance results: [`profile`] (first-run profiling + profile table),
//! [`classify`]/[`policy`]/[`select`] (workload classes, Table I, the Fig. 4
//! selection algorithm), [`partition`] (SM-demand-driven spatial splits) and
//! [`runtime`] (the Slate scheduler with co-running and dynamic resizing,
//! implementing the common `Runtime` trait next to the CUDA and MPS
//! baselines).
//!
//! Both layers share one brain: the [`arbiter`] module is a deterministic,
//! I/O-free arbitration core (events in, commands out) behind which every
//! corun/partition/resize/admission/starvation decision lives. The
//! simulated [`runtime`] and the live [`daemon`] are thin drivers of it,
//! which is what makes daemon scheduling decisions replayable
//! ([`arbiter::replay`]).
//!
//! The public API is what the workspace's harness and bench crates and the
//! `slatebench` package name, plus the types those items hand out. The
//! rest is crate-private, and `unreachable_pub` and `unnameable_types`
//! keep it that way (DESIGN.md §3.3). Items marked `#[doc(hidden)]` are
//! public only for the integration tests in `crates/core/tests/`.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

pub mod admission;
pub mod api;
pub mod arbiter;
pub mod backend;
pub mod channel;
pub mod classify;
pub mod daemon;
pub mod dispatch;
pub mod durability;
pub mod error;
pub mod feed;
pub mod injector;
pub mod partition;
pub mod placement;
pub mod policy;
pub mod pragma;
pub mod profile;
pub mod queue;
pub mod runtime;
#[doc(hidden)]
pub mod scanner;
pub mod select;
pub(crate) mod sync;
pub mod trace;
pub mod transform;
#[doc(hidden)]
pub mod workers;

pub use admission::AdmissionLimits;
pub use channel::SlatePtr;
pub use classify::WorkloadClass;
pub use durability::DurabilityOptions;
pub use error::SlateError;
pub use placement::{PlacementConfig, PlacementLayer, PlacementPolicy};
pub use profile::ProfileTable;
pub use runtime::{SlateOptions, SlateRuntime};
