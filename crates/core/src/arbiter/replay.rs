//! Record and replay of arbitration decisions.
//!
//! Because [`ArbiterCore`] is deterministic and
//! I/O-free, a recording of its inputs is a complete specification of its
//! outputs: replaying an [`EventLog`] through a fresh core must reproduce
//! the logged commands exactly, batch by batch. The golden replay test
//! checks a committed log's [`transcript`] byte-for-byte, which turns any
//! unintended policy drift into a test failure with a readable diff.

use super::events::{Event, Tick};
use super::state::ArbiterConfig;
use super::ArbiterCore;
use crate::arbiter::Command;
use serde::{Deserialize, Serialize};
use slate_gpu_sim::device::DeviceConfig;
use std::fmt::Write as _;

/// One recorded [`ArbiterCore::feed`] call: the batch timestamp, the
/// events fed, and the commands the core returned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoggedBatch {
    /// The core's (clamped) logical clock when the batch was absorbed.
    pub at: Tick,
    /// The events fed, in order.
    pub events: Vec<Event>,
    /// The commands returned, in order.
    pub commands: Vec<Command>,
}

/// A self-contained recording of an arbitration run: the device and
/// configuration plus every decision-relevant batch, in feed order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    /// The device that was arbitrated.
    pub device: DeviceConfig,
    /// The configuration the core ran under.
    pub config: ArbiterConfig,
    /// The recorded batches.
    pub batches: Vec<LoggedBatch>,
}

/// Replays `log` through a fresh core, returning each batch with the
/// commands the *replay* produced (the logged commands are ignored).
pub fn replay(log: &EventLog) -> Vec<LoggedBatch> {
    replay_under(log, log.config.clone())
}

/// Replays `log`'s *events* through a fresh core running `config` instead
/// of the recorded configuration, returning the batches the counterfactual
/// core produced.
///
/// This is open-loop what-if replay, the primitive behind the offline
/// autotuner ([`crate::trace::tune`]): the event stream — arrivals, ready
/// kernels, finish times — is held fixed while the policy knobs vary, so
/// every variant sees *identical* inputs and differences in the command
/// stream are attributable to the configuration alone. The events are not
/// re-simulated (a kernel still finishes when the recording says it did,
/// even if the variant dispatched it elsewhere or not at all); the core
/// tolerates finish/resize references to leases it never dispatched, so
/// any configuration replays cleanly. With `config == log.config` this is
/// exactly [`replay`].
pub fn replay_under(log: &EventLog, config: ArbiterConfig) -> Vec<LoggedBatch> {
    let mut core = ArbiterCore::new(log.device.clone(), config);
    log.batches
        .iter()
        .map(|b| LoggedBatch {
            at: b.at,
            events: b.events.clone(),
            commands: core.feed(b.at, &b.events),
        })
        .collect()
}

/// Incremental replay verification: recorded batches are pushed one at a
/// time against a fresh core and checked as they arrive.
///
/// Memory use is bounded by the largest single batch — the verifier holds
/// the core, one reusable command buffer, and nothing else — so callers
/// streaming batches off disk (a WAL tail, a log too large to
/// materialize) verify in O(batch), not O(log). [`verify`] is this
/// verifier driven over an in-memory log.
pub struct StreamVerifier {
    core: ArbiterCore,
    scratch: Vec<Command>,
    batches: usize,
}

impl StreamVerifier {
    /// A verifier replaying against a fresh core over `device` under
    /// `config` — the same starting state [`replay`] uses.
    pub fn new(device: DeviceConfig, config: ArbiterConfig) -> Self {
        Self {
            core: ArbiterCore::new(device, config),
            scratch: Vec::new(),
            batches: 0,
        }
    }

    /// A verifier for `log`'s device and configuration.
    pub fn for_log(log: &EventLog) -> Self {
        Self::new(log.device.clone(), log.config.clone())
    }

    /// Replays one recorded batch and checks the commands it produces
    /// against the logged ones, reporting a divergence exactly as
    /// [`verify`] would.
    pub fn push(&mut self, batch: &LoggedBatch) -> Result<(), String> {
        let i = self.batches;
        self.batches += 1;
        self.core
            .feed_into(batch.at, &batch.events, &mut self.scratch);
        if self.scratch != batch.commands {
            return Err(format!(
                "batch {i} (at {}) diverged:\n  logged:\n{}  replayed:\n{}",
                batch.at,
                render_commands(&batch.commands),
                render_commands(&self.scratch),
            ));
        }
        Ok(())
    }

    /// Batches verified so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// The replayed core, positioned after every pushed batch — e.g. to
    /// snapshot the verified state.
    pub fn into_core(self) -> ArbiterCore {
        self.core
    }
}

/// Replays `log` and checks the produced commands against the logged ones,
/// reporting the first divergence (batch index, expected and actual
/// commands) as a human-readable error. Streaming: holds one batch's
/// replayed commands at a time (see [`StreamVerifier`]), never a second
/// copy of the log.
pub fn verify(log: &EventLog) -> Result<(), String> {
    let mut v = StreamVerifier::for_log(log);
    for b in &log.batches {
        v.push(b)?;
    }
    Ok(())
}

fn render_commands(commands: &[Command]) -> String {
    let mut s = String::new();
    for c in commands {
        let _ = writeln!(s, "    ! {c}");
    }
    s
}

/// Renders batches as a stable, line-oriented transcript: one `@tick`
/// header per batch, `>` lines for events, `!` lines for commands. The
/// format is hand-written (not `Debug`-derived) so the checked-in golden
/// only changes when the *decisions* change.
pub fn transcript(batches: &[LoggedBatch]) -> String {
    let mut s = String::new();
    for b in batches {
        let _ = writeln!(s, "@{}", b.at);
        for e in &b.events {
            let _ = writeln!(s, "  > {e}");
        }
        for c in &b.commands {
            let _ = writeln!(s, "  ! {c}");
        }
    }
    s
}
