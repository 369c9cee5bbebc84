//! Per-layer time and counts from a recorded run: the daemon's recorded
//! `PlacementLog` is replayed through each layer's public entry point with
//! a timer around every call. This gives each layer's time per call and
//! its calls per launch without touching the program under test.

use slate_core::arbiter::replay::EventLog;
use slate_core::arbiter::{ArbiterCore, Command, Event};
use slate_core::durability::{recover_dir, Durability, DurableMeta, WalRecord};
use slate_core::placement::replay::{split, verify, PlacementBatch, PlacementLog};
use slate_core::placement::PlacementLayer;
use slate_core::DurabilityOptions;
use slate_gpu_sim::device::SmRange;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Metadata records appended (and timed) by the meta-append measurement.
const META_RECORDS: u64 = 2_000;

/// What replaying one recorded log through the layers measured.
#[derive(Debug, Clone, Default)]
pub struct LayerReplay {
    /// Batches in the log.
    pub batches: u64,
    /// Events in the log.
    pub events: u64,
    /// Launches in the log (`KernelFinished { ok: true }` events).
    pub launches: u64,
    /// Batches holding only `DeadlineTick`s.
    pub heartbeat_batches: u64,
    /// `PlacementLayer::feed_into` nanoseconds per event.
    pub placement_feed_ns_per_event: f64,
    /// `ArbiterCore::feed_into` nanoseconds per event, over the per-device
    /// logs the placement log splits into.
    pub arbiter_feed_ns_per_event: f64,
    /// Commands the cores returned per event.
    pub commands_per_event: f64,
    /// `Dispatch` commands.
    pub dispatches: u64,
    /// `Dispatch` commands granting less than the whole device.
    pub partial_dispatches: u64,
    /// `Resize` commands.
    pub resizes: u64,
    /// `Preempt` commands.
    pub preemptions: u64,
    /// `RejectOverloaded` commands.
    pub sheds: u64,
    /// Whether the log verifies against a fresh replay.
    pub replay_verify_ok: bool,
    /// `Durability::append_batch` microseconds per batch (default cadence,
    /// so snapshot rotation is part of it).
    pub append_us_per_batch: f64,
    /// `Durability::append_meta` microseconds per record.
    pub append_meta_us: f64,
    /// Bytes on disk after appending the whole log and its meta records.
    pub wal_bytes: u64,
    /// Snapshots written while appending the log.
    pub snapshots: u64,
    /// `recover_dir` microseconds per batch of the same log kept whole.
    pub recover_us_per_batch: f64,
    /// Append I/O errors counted across both directories.
    pub io_errors: u64,
}

fn dir_bytes_and_snapshots(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut snapshots = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Ok(meta) = entry.metadata() {
                bytes += meta.len();
            }
            if entry.file_name().to_string_lossy().starts_with("snap-") {
                snapshots += 1;
            }
        }
    }
    (bytes, snapshots)
}

fn replay_placement(log: &PlacementLog, out: &mut LayerReplay) {
    let mut layer = PlacementLayer::new(log.devices.clone(), log.config.clone());
    let mut routed = Vec::new();
    let t0 = Instant::now();
    for b in &log.batches {
        layer.feed_into(b.at, &b.events, &mut routed);
        black_box(&routed);
    }
    out.placement_feed_ns_per_event = t0.elapsed().as_nanos() as f64 / out.events.max(1) as f64;
}

fn replay_arbiter(logs: &[EventLog], out: &mut LayerReplay) {
    let mut events_total = 0u64;
    let mut commands = Vec::new();
    // Timed pass: feeds only, one timer around each log.
    let mut ns = 0u128;
    for log in logs {
        let mut core = ArbiterCore::new(log.device.clone(), log.config.clone());
        let t0 = Instant::now();
        for b in &log.batches {
            core.feed_into(b.at, &b.events, &mut commands);
            black_box(&commands);
        }
        ns += t0.elapsed().as_nanos();
        events_total += log
            .batches
            .iter()
            .map(|b| b.events.len() as u64)
            .sum::<u64>();
    }
    out.arbiter_feed_ns_per_event = ns as f64 / events_total.max(1) as f64;
    // Counting pass, untimed.
    let mut commands_total = 0u64;
    for log in logs {
        let full = SmRange::all(log.device.num_sms);
        let mut core = ArbiterCore::new(log.device.clone(), log.config.clone());
        for b in &log.batches {
            core.feed_into(b.at, &b.events, &mut commands);
            commands_total += commands.len() as u64;
            for c in &commands {
                match c {
                    Command::Dispatch { range, .. } => {
                        out.dispatches += 1;
                        out.partial_dispatches += (*range != full) as u64;
                    }
                    Command::Resize { .. } => out.resizes += 1,
                    Command::Preempt { .. } => out.preemptions += 1,
                    Command::RejectOverloaded { .. } => out.sheds += 1,
                    _ => {}
                }
            }
        }
    }
    out.commands_per_event = commands_total as f64 / events_total.max(1) as f64;
}

fn replay_durability(log: &PlacementLog, scratch: &Path, out: &mut LayerReplay) {
    let layer = PlacementLayer::new(log.devices.clone(), log.config.clone());
    let genesis = layer.snapshot();

    // Serving-path shape: default cadence, so rotation and checkpoints are
    // part of the per-batch cost, as they are under the daemon's lock.
    // `keep_all` (compaction off) so every byte written is still on disk
    // to be counted.
    let serve_dir = scratch.join("layers-wal-serve");
    let _ = std::fs::remove_dir_all(&serve_dir);
    if let Ok(d) = Durability::start(
        DurabilityOptions {
            keep_all: true,
            ..DurabilityOptions::new(&serve_dir)
        },
        0,
        0,
        &genesis,
        DurableMeta::default(),
    ) {
        let mut live = PlacementLayer::new(log.devices.clone(), log.config.clone());
        let mut routed = Vec::new();
        let mut ns = 0u128;
        for b in &log.batches {
            live.feed_into(b.at, &b.events, &mut routed);
            let batch = PlacementBatch {
                at: live.now(),
                events: b.events.clone(),
                routed: routed.clone(),
            };
            let t0 = Instant::now();
            d.append_batch(&batch, || live.snapshot());
            ns += t0.elapsed().as_nanos();
        }
        out.append_us_per_batch = ns as f64 / 1e3 / out.batches.max(1) as f64;
        let t0 = Instant::now();
        for i in 0..META_RECORDS {
            d.append_meta(&WalRecord::LaunchAdmitted {
                session: 1,
                launch_id: i,
                lease: 1 << 16,
            });
        }
        out.append_meta_us = t0.elapsed().as_nanos() as f64 / 1e3 / META_RECORDS as f64;
        d.freeze();
        out.io_errors += d.io_errors();
        let (bytes, snapshots) = dir_bytes_and_snapshots(&serve_dir);
        out.wal_bytes = bytes;
        // The genesis anchor is written by `start`, not by an append.
        out.snapshots = snapshots.saturating_sub(1);
    }
    let _ = std::fs::remove_dir_all(&serve_dir);

    // Recovery shape: the same batches kept in one segment, so recovery
    // scans and replays all of them.
    let recover = scratch.join("layers-wal-recover");
    let _ = std::fs::remove_dir_all(&recover);
    if let Ok(d) = Durability::start(
        DurabilityOptions {
            dir: recover.clone(),
            snapshot_every: u64::MAX,
            keep_all: true,
        },
        0,
        0,
        &genesis,
        DurableMeta::default(),
    ) {
        for b in &log.batches {
            d.append_batch(b, || genesis.clone());
        }
        d.freeze();
        out.io_errors += d.io_errors();
        let t0 = Instant::now();
        let recovered = recover_dir(&recover);
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        if black_box(recovered).is_ok() {
            out.recover_us_per_batch = us / out.batches.max(1) as f64;
        }
    }
    let _ = std::fs::remove_dir_all(&recover);
}

/// Replays `log` through the placement layer, the per-device arbiter
/// cores and the durability layer (into directories under `scratch`).
pub fn replay(log: &PlacementLog, scratch: &Path) -> LayerReplay {
    let mut out = LayerReplay {
        batches: log.batches.len() as u64,
        ..LayerReplay::default()
    };
    for b in &log.batches {
        out.events += b.events.len() as u64;
        out.heartbeat_batches += b.events.iter().all(|e| matches!(e, Event::DeadlineTick)) as u64;
        out.launches += b
            .events
            .iter()
            .filter(|e| matches!(e, Event::KernelFinished { ok: true, .. }))
            .count() as u64;
    }
    out.replay_verify_ok = verify(log).is_ok();
    replay_placement(log, &mut out);
    if let Ok(logs) = split(log) {
        replay_arbiter(&logs, &mut out);
    }
    replay_durability(log, scratch, &mut out);
    out
}

/// Wraps a single-device [`EventLog`] (what the simulated runtime records)
/// as the placement log a one-device fleet would have recorded, so the same
/// replays apply to it.
pub fn placement_log_of(log: &EventLog) -> PlacementLog {
    let config = slate_core::PlacementConfig {
        arbiter: log.config.clone(),
        ..slate_core::PlacementConfig::default()
    };
    let mut layer = PlacementLayer::new(vec![log.device.clone()], config.clone());
    let batches = log
        .batches
        .iter()
        .map(|b| PlacementBatch {
            at: b.at,
            events: b.events.clone(),
            routed: layer.feed(b.at, &b.events),
        })
        .collect();
    PlacementLog {
        devices: vec![log.device.clone()],
        config,
        batches,
    }
}
