//! # slate-baselines
//!
//! The two baseline GPU multiprocessing runtimes the Slate paper compares
//! against, implemented over the `slate-gpu-sim` substrate:
//!
//! * [`cuda::CudaRuntime`] — vanilla CUDA: one context per process, device
//!   time-sliced between contexts at kernel-to-completion granularity;
//! * [`mps::MpsRuntime`] — NVIDIA MPS: daemon-funnelled single context with
//!   the hardware leftover policy (consecutive execution for large kernels,
//!   no context-switch tax).
//!
//! Both implement the shared [`runtime::Runtime`] trait that `slate-core`'s
//! Slate runtime also implements, and all three step the one application
//! lifecycle in [`lifecycle`], so the harness's three-way comparison varies
//! the admission policy and nothing else.

#![warn(missing_docs)]

pub mod cuda;
pub mod lifecycle;
pub mod mps;
pub mod runtime;
pub mod serial;

pub use cuda::CudaRuntime;
pub use mps::MpsRuntime;
pub use runtime::{AppResult, RunOutcome, Runtime};
