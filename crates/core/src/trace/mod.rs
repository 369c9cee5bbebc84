//! Perfetto trace export and replay-driven config autotuning
//! (DESIGN.md §19).
//!
//! The arbiter and placement logs are complete, deterministic histories
//! of every scheduling decision; this module makes them *inspectable*
//! and *searchable*:
//!
//! - `model` — the Chrome trace-event vocabulary with a
//!   byte-deterministic emitter; the output loads in Perfetto's legacy
//!   JSON importer and `chrome://tracing`.
//! - [`export`] — converters from [`EventLog`] / [`PlacementLog`] to a
//!   [`Trace`]: per-device SM-occupancy counters (a sample only when
//!   the value changes), per-session lease lifetime slices with
//!   SLO-class coloring, preemption/shed instants and cross-device
//!   migration arrows, with the command stream re-derived by
//!   deterministic replay (a stale log is an error, not a wrong
//!   picture).
//! - [`mod@validate`] — structural validation of emitted trace bytes
//!   against a [`TraceSchema`]; CI gates the uploaded artifact on it.
//! - [`metrics`] — latency/throughput extraction shared by the LLM-SLO
//!   harness and the tuner, split into event-derived (describe a
//!   recording) and command-derived (compare configurations) families.
//! - [`tune`] — the offline autotuner: one log replayed under a grid of
//!   config variants in parallel, scored on command-derived tail
//!   metrics, reported as deterministic JSON + markdown.
//!
//! [`EventLog`]: crate::arbiter::replay::EventLog
//! [`PlacementLog`]: crate::placement::replay::PlacementLog

pub mod export;
pub mod metrics;
pub(crate) mod model;
pub mod tune;
pub mod validate;

pub use export::trace_log;
pub use model::{ArgValue, Trace, TraceEvent};
pub use validate::TraceSchema;
