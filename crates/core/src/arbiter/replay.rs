//! Record and replay of arbitration decisions.
//!
//! Because [`ArbiterCore`] is deterministic and
//! I/O-free, a recording of its inputs is a complete specification of its
//! outputs: replaying an [`EventLog`] through a fresh core must reproduce
//! the logged commands exactly, batch by batch. The golden replay test
//! checks a committed log's [`transcript`] byte-for-byte, which turns any
//! unintended policy drift into a test failure with a readable diff.
//!
//! The same holds one level up for the placement layer, so replay,
//! verification and transcripts are written once here over
//! [`Replayable`]; [`crate::placement::replay`] adds only its log types.

use super::events::{Event, Tick};
use super::state::ArbiterConfig;
use super::ArbiterCore;
use crate::arbiter::Command;
use serde::{Deserialize, Serialize};
use slate_gpu_sim::device::DeviceConfig;
use std::fmt::{self, Write as _};

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

/// Whether a fed batch goes into a log: every batch but one that carries
/// nothing but [`Event::DeadlineTick`]s and replied nothing. Such a batch
/// changes no decision, and the daemon's 1 ms heartbeat would otherwise
/// swamp the log. The in-memory recorders and the daemon's WAL append
/// all keep exactly these batches.
pub(crate) fn is_recorded<R>(events: &[Event], replies: &[R]) -> bool {
    !replies.is_empty() || !events.iter().all(|e| matches!(e, Event::DeadlineTick))
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

/// One recorded feed of a deterministic machine: the batch timestamp, the
/// events fed, and what the machine replied. Implemented by
/// [`LoggedBatch`] and
/// [`PlacementBatch`](crate::placement::replay::PlacementBatch).
pub trait ReplayBatch {
    /// What the machine replies with: a [`Command`], or one routed to a
    /// device. Its `Display` is the transcript rendering.
    type Reply: Clone + PartialEq + fmt::Display;
    /// Assembles the batch a replayed feed produced.
    fn new(at: Tick, events: Vec<Event>, replies: Vec<Self::Reply>) -> Self;
    /// The machine's (clamped) logical clock when the batch was absorbed.
    fn at(&self) -> Tick;
    /// The events fed, in order.
    fn events(&self) -> &[Event];
    /// The replies returned, in order.
    fn replies(&self) -> &[Self::Reply];
    /// A reply as `(device index, command)`.
    fn routed(reply: &Self::Reply) -> (usize, &Command);
}

/// The replies of a log's batches.
type Replies<L> = Vec<<<L as Replayable>::Batch as ReplayBatch>::Reply>;

/// A recording that replays: because the machine behind it is
/// deterministic and I/O-free, the recorded inputs fully specify its
/// outputs. Implemented by [`EventLog`] (machine: [`ArbiterCore`]) and
/// [`PlacementLog`](crate::placement::replay::PlacementLog) (machine:
/// [`PlacementLayer`](crate::placement::PlacementLayer)); everything else
/// in this module is written once over this trait.
pub trait Replayable {
    /// The configuration the machine runs under.
    type Config: Clone;
    /// The deterministic machine the log was recorded from.
    type Machine;
    /// One recorded feed.
    type Batch: ReplayBatch;
    /// The device(s) behind the machine, in index order.
    fn devices(&self) -> &[DeviceConfig];
    /// The configuration the recording ran under.
    fn config(&self) -> &Self::Config;
    /// The recorded batches, in feed order.
    fn batches(&self) -> &[Self::Batch];
    /// A fresh machine over this log's devices running `config`.
    fn machine(&self, config: Self::Config) -> Self::Machine;
    /// Feeds one batch, clearing `replies` and filling it with the
    /// machine's answer.
    fn feed(machine: &mut Self::Machine, at: Tick, events: &[Event], replies: &mut Replies<Self>);
}

impl ReplayBatch for LoggedBatch {
    type Reply = Command;
    fn new(at: Tick, events: Vec<Event>, commands: Vec<Command>) -> Self {
        Self {
            at,
            events,
            commands,
        }
    }
    fn at(&self) -> Tick {
        self.at
    }
    fn events(&self) -> &[Event] {
        &self.events
    }
    fn replies(&self) -> &[Command] {
        &self.commands
    }
    fn routed(command: &Command) -> (usize, &Command) {
        (0, command)
    }
}

impl Replayable for EventLog {
    type Config = ArbiterConfig;
    type Machine = ArbiterCore;
    type Batch = LoggedBatch;
    fn devices(&self) -> &[DeviceConfig] {
        std::slice::from_ref(&self.device)
    }
    fn config(&self) -> &ArbiterConfig {
        &self.config
    }
    fn batches(&self) -> &[LoggedBatch] {
        &self.batches
    }
    fn machine(&self, config: ArbiterConfig) -> ArbiterCore {
        ArbiterCore::new(self.device.clone(), config)
    }
    fn feed(core: &mut ArbiterCore, at: Tick, events: &[Event], commands: &mut Vec<Command>) {
        core.feed_into(at, events, commands);
    }
}

/// Replays `log` through a fresh machine, returning each batch with the
/// replies the *replay* produced (the logged ones are ignored).
pub fn replay<L: Replayable>(log: &L) -> Vec<L::Batch> {
    replay_under(log, log.config().clone())
}

/// Replays `log`'s *events* through a fresh machine running `config`
/// instead of the recorded configuration, returning the batches the
/// counterfactual machine produced.
///
/// This is open-loop what-if replay, the primitive behind the offline
/// autotuner ([`crate::trace::tune`]): the event stream — arrivals, ready
/// kernels, finish times, device failures — is held fixed while the policy
/// knobs vary, so every variant sees *identical* inputs and differences in
/// the reply stream are attributable to the configuration alone. The
/// events are not re-simulated (a kernel still finishes when the recording
/// says it did, even if the variant dispatched it elsewhere or not at
/// all); the core tolerates finish/resize references to leases it never
/// dispatched, so any configuration replays cleanly. With
/// `config == log.config()` this is exactly [`replay`].
pub fn replay_under<L: Replayable>(log: &L, config: L::Config) -> Vec<L::Batch> {
    let mut machine = log.machine(config);
    log.batches()
        .iter()
        .map(|b| {
            let mut replies = Vec::new();
            L::feed(&mut machine, b.at(), b.events(), &mut replies);
            L::Batch::new(b.at(), b.events().to_vec(), replies)
        })
        .collect()
}

/// Incremental replay verification: recorded batches are pushed one at a
/// time against a fresh machine and checked as they arrive.
///
/// Memory use is bounded by the largest single batch — the verifier holds
/// the machine, one reusable reply buffer, and nothing else — so callers
/// streaming batches off disk (a WAL tail, a log too large to
/// materialize) verify in O(batch), not O(log). [`verify`] is this
/// verifier driven over an in-memory log.
pub struct StreamVerifier<L: Replayable> {
    machine: L::Machine,
    scratch: Replies<L>,
    batches: usize,
}

impl<L: Replayable> StreamVerifier<L> {
    /// A verifier replaying against `machine`, which must be in the state
    /// the recording started from.
    pub fn new(machine: L::Machine) -> Self {
        Self {
            machine,
            scratch: Vec::new(),
            batches: 0,
        }
    }

    /// A verifier over a fresh machine for `log`'s devices and
    /// configuration — the same starting state [`replay`] uses.
    pub fn for_log(log: &L) -> Self {
        Self::new(log.machine(log.config().clone()))
    }

    /// Replays one recorded batch and checks the replies it produces
    /// against the logged ones, reporting a divergence (batch index,
    /// logged and replayed replies) as a human-readable error.
    pub fn push(&mut self, batch: &L::Batch) -> Result<(), String> {
        let i = self.batches;
        self.batches += 1;
        L::feed(
            &mut self.machine,
            batch.at(),
            batch.events(),
            &mut self.scratch,
        );
        if self.scratch != batch.replies() {
            let render = |replies: &[_]| {
                let mut s = String::new();
                for r in replies {
                    let _ = writeln!(s, "    ! {r}");
                }
                s
            };
            return Err(format!(
                "batch {i} (at {}) diverged:\n  logged:\n{}  replayed:\n{}",
                batch.at(),
                render(batch.replies()),
                render(&self.scratch),
            ));
        }
        Ok(())
    }

    /// Batches verified so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// The replayed machine, positioned after every pushed batch.
    pub fn into_machine(self) -> L::Machine {
        self.machine
    }
}

/// Replays `log` and checks the produced replies against the logged ones,
/// reporting the first divergence. Streaming: holds one batch's replayed
/// replies at a time (see [`StreamVerifier`]), never a second copy of the
/// log.
pub fn verify<L: Replayable>(log: &L) -> Result<(), String> {
    let mut v = StreamVerifier::for_log(log);
    log.batches().iter().try_for_each(|b| v.push(b))
}

/// Renders batches as a stable, line-oriented transcript: one `@tick`
/// header per batch, `>` lines for events, `!` lines for replies (`! dN`
/// for routed ones). The format is hand-written (not `Debug`-derived) so
/// the checked-in goldens only change when the *decisions* change.
pub fn transcript<B: ReplayBatch>(batches: &[B]) -> String {
    let mut s = String::new();
    for b in batches {
        let _ = writeln!(s, "@{}", b.at());
        for e in b.events() {
            let _ = writeln!(s, "  > {e}");
        }
        for r in b.replies() {
            let _ = writeln!(s, "  ! {r}");
        }
    }
    s
}
