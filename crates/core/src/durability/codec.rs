//! The durability layer's binary codec: what goes inside a WAL frame's
//! payload, and the body of a snapshot slot.
//!
//! A payload opens with a format byte. [`FORMAT`] (`1`) is this codec, the
//! only one written and the only one read: a payload with any other first
//! byte is corrupt. An incompatible change to the codec bumps [`FORMAT`]
//! and keeps no reader for the old one. A slot body ([`encode_snapshot`])
//! has no format byte: the slot header's version covers it.
//!
//! After the format byte comes one record — in a slot body, one
//! [`DurableSnapshot`] — field by field in declaration order, with nothing
//! between the fields:
//!
//! | field | bytes |
//! |---|---|
//! | a variant ([`WalRecord`], [`Event`], [`Command`], [`PlacementPolicy`], [`HealthState`]) | one tag byte, then its fields |
//! | `u64`, `u32`, `usize` | LEB128 varint: 7 bits a byte, low group first, at most 10 bytes |
//! | `f64` | the 8 little-endian bytes of `to_bits()`: NaN and ±∞ round-trip bit for bit |
//! | `bool` | `0` or `1` |
//! | [`WorkloadClass`], [`SloClass`], [`RejectScope`] | one byte, the variant's index |
//! | `Option<T>` | `0` (none), or `1` and the `T` |
//! | `String` | varint byte length, then the UTF-8 bytes |
//! | `Vec`, `BTreeSet` | varint count, then the elements (a set's in ascending order) |
//! | a map, by id | varint count, then key and value for each key, ascending |
//! | a struct ([`DeviceConfig`], [`ArbiterConfig`], [`QueueStats`], …) | its fields |
//! | [`SmRange`] | `lo`, `hi` |
//! | [`RoutedCommand`] | `device`, then the command |
//!
//! This module holds the primitives (the `put_*` functions and the
//! `Reader`), the configuration structs' encoders, the WAL record codec
//! and the slot body's framing. The live state a slot body holds encodes
//! itself, beside its fields: the [`PlacementLayer`]'s `encode` writes
//! the layer — its [`ArbiterCore`]s, health tracker and rebalancer in
//! turn — from the slot tables it runs on, and its `decode` rebuilds one,
//! so there is no second representation of that state to keep in step.
//! A slot table is written as a map by external id, ascending: slot
//! numbers never reach the bytes.
//!
//! A tag or enum byte is the variant's position in its declaration when
//! this format was fixed, spelled out as a literal in the encoder and the
//! decoder, so reordering a declaration moves no byte. Every encoder is an
//! exhaustive `match` or destructures its struct whole: a new variant or
//! field does not compile until it has bytes, or a reason beside it why
//! it has none — for a variant a new tag, never a reused one. A decode
//! that meets anything else — an unknown tag, a varint of more than 10
//! bytes or over its field's width, a length or count past the end, map
//! keys out of order, bytes left over, a state no layer can be in — is an
//! error, never a panic, and it reserves at most one element per byte left
//! whatever a count claims.
//!
//! [`ArbiterCore`]: crate::arbiter::ArbiterCore
//! [`HealthState`]: crate::placement::HealthState
//! [`PlacementLayer`]: crate::placement::PlacementLayer

use super::snapshot::{AllocMeta, DurableMeta, DurableSnapshot, SessionMeta};
use super::wal::WalRecord;
use crate::admission::AdmissionLimits;
use crate::arbiter::{ArbiterConfig, Command, Event, RejectScope};
use crate::classify::WorkloadClass;
use crate::placement::{
    PlacementBatch, PlacementConfig, PlacementPolicy, PlacementSnapshot, RebalanceConfig,
    RoutedCommand,
};
use crate::queue::QueueStats;
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_kernels::workload::SloClass;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::{fmt, io};

/// The format byte of this codec: the first byte of every payload written.
#[doc(hidden)]
pub const FORMAT: u8 = 1;

/// Appends `record`'s payload — format byte first — to `out`.
#[doc(hidden)]
pub fn encode(record: &WalRecord, out: &mut Vec<u8>) {
    out.push(FORMAT);
    match record {
        WalRecord::Batch { batch } => put_batch(out, batch),
        WalRecord::SessionMeta { session, user, slo } => {
            out.push(1);
            put_u64(out, *session);
            put_str(out, user);
            put_slo(out, *slo);
        }
        WalRecord::SessionClosed { session } => {
            out.push(2);
            put_u64(out, *session);
        }
        WalRecord::Alloc {
            session,
            slate_ptr,
            device_ptr,
            bytes,
        } => {
            out.push(3);
            for v in [session, slate_ptr, device_ptr, bytes] {
                put_u64(out, *v);
            }
        }
        WalRecord::Free { session, slate_ptr } => {
            out.push(4);
            put_u64(out, *session);
            put_u64(out, *slate_ptr);
        }
        WalRecord::LaunchAdmitted {
            session,
            launch_id,
            lease,
        } => {
            out.push(5);
            for v in [session, launch_id, lease] {
                put_u64(out, *v);
            }
        }
        WalRecord::LaunchDone { session, launch_id } => {
            out.push(6);
            put_u64(out, *session);
            put_u64(out, *launch_id);
        }
        WalRecord::Epoch { epoch } => {
            out.push(7);
            put_u64(out, *epoch);
        }
    }
}

/// Appends the payload of a [`WalRecord::Batch`] holding `batch` — the
/// bytes [`encode`] writes for it, without cloning the batch into a
/// record first.
pub(crate) fn encode_batch(batch: &PlacementBatch, out: &mut Vec<u8>) {
    out.push(FORMAT);
    put_batch(out, batch);
}

/// Decodes one payload. The error says why the payload is not a record
/// (past the format byte, a static string: building it allocates nothing).
#[doc(hidden)]
pub fn decode(payload: &[u8]) -> Result<WalRecord, Cow<'static, str>> {
    match payload.split_first() {
        Some((&FORMAT, rest)) => {
            let mut r = Reader { rest };
            let record = r.record()?;
            if !r.rest.is_empty() {
                return Err(Cow::Borrowed("trailing bytes after the record"));
            }
            Ok(record)
        }
        Some((b, _)) => Err(Cow::Owned(format!("unknown format byte {b:#04x}"))),
        None => Err(Cow::Borrowed("empty payload")),
    }
}

/// Appends the body of a snapshot slot holding `snap`: the bytes
/// [`decode_snapshot`] reads back. Deterministic — every map iterates in
/// key order — so equal snapshots encode to equal bytes.
pub fn encode_snapshot(snap: &DurableSnapshot, out: &mut Vec<u8>) {
    let DurableSnapshot {
        epoch,
        segment,
        offset,
        placement,
        meta,
    } = snap;
    for v in [epoch, segment, offset] {
        put_u64(out, *v);
    }
    out.extend_from_slice(placement.body());
    put_durable_meta(out, meta);
}

/// Decodes a snapshot slot's body. Total, as [`decode`] is: a body cut
/// short, an unknown tag, an over-long varint, a count past the end, map
/// keys out of order and bytes left over are each a typed `InvalidData`
/// naming the cause, never a panic.
#[doc(hidden)]
pub fn decode_snapshot(body: &[u8]) -> io::Result<DurableSnapshot> {
    let mut r = Reader { rest: body };
    let snap = r.snapshot().and_then(|snap| match r.rest {
        [] => Ok(snap),
        _ => Err("trailing bytes after the snapshot"),
    });
    snap.map_err(|why| io::Error::new(io::ErrorKind::InvalidData, BodyError(why)))
}

/// Why a slot body does not decode; displays as `snapshot body: {why}`.
/// Its error allocates two small boxes and formats nothing.
#[derive(Debug)]
struct BodyError(&'static str);

impl fmt::Display for BodyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot body: {}", self.0)
    }
}

impl std::error::Error for BodyError {}

pub(crate) fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

pub(crate) fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_opt(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

/// Writes a map from the `(key, value)` pairs `entries` yields, which
/// must come in ascending key order: the count, then each key and its
/// value. `entries` is walked twice, once to count.
pub(crate) fn put_entries<V>(
    out: &mut Vec<u8>,
    entries: impl Iterator<Item = (u64, V)> + Clone,
    mut put_value: impl FnMut(&mut Vec<u8>, V),
) {
    put_usize(out, entries.clone().count());
    for (key, value) in entries {
        put_u64(out, key);
        put_value(out, value);
    }
}

/// Writes a map by id from a slot table: the live `(id, slot)`s of `ids`,
/// ascending by id as [`IdTable::by_id`] lists them, each with the value
/// `value(slot)` gives, those it gives none for left out.
///
/// [`IdTable::by_id`]: crate::arbiter::IdTable::by_id
pub(crate) fn put_slots<V>(
    out: &mut Vec<u8>,
    ids: &[(u64, u32)],
    value: impl Fn(usize) -> Option<V>,
    put_value: impl FnMut(&mut Vec<u8>, V),
) {
    let entries = ids
        .iter()
        .filter_map(|&(id, slot)| Some((id, value(slot as usize)?)));
    put_entries(out, entries, put_value);
}

fn put_map<V>(out: &mut Vec<u8>, map: &BTreeMap<u64, V>, put_value: impl FnMut(&mut Vec<u8>, &V)) {
    put_entries(out, map.iter().map(|(key, value)| (*key, value)), put_value);
}

pub(crate) fn put_placement_config(out: &mut Vec<u8>, config: &PlacementConfig) {
    let PlacementConfig {
        policy,
        arbiter,
        rebalance,
    } = config;
    match policy {
        PlacementPolicy::RoundRobin => out.push(0),
        PlacementPolicy::LeastLoaded => out.push(1),
        PlacementPolicy::Affinity { pins } => {
            out.push(2);
            put_map(out, pins, |out, d| put_usize(out, *d));
        }
    }
    put_arbiter_config(out, arbiter);
    match rebalance {
        None => out.push(0),
        Some(RebalanceConfig {
            high_ms,
            low_ms,
            cooldown_us,
            seed,
        }) => {
            out.push(1);
            for v in [high_ms, low_ms, cooldown_us, seed] {
                put_u64(out, *v);
            }
        }
    }
}

pub(crate) fn put_arbiter_config(out: &mut Vec<u8>, config: &ArbiterConfig) {
    let ArbiterConfig {
        enable_corun,
        enable_resize,
        starvation_bound_us,
        preempt_bound_us,
        limits,
    } = config;
    put_bool(out, *enable_corun);
    put_bool(out, *enable_resize);
    put_opt(out, *starvation_bound_us);
    put_opt(out, *preempt_bound_us);
    let AdmissionLimits {
        max_sessions,
        max_pending_per_session,
        max_pending_global,
        mem_watermark,
    } = limits;
    put_opt(out, max_sessions.map(|n| n as u64));
    put_opt(out, *max_pending_per_session);
    put_opt(out, *max_pending_global);
    match mem_watermark {
        None => out.push(0),
        Some(w) => {
            out.push(1);
            put_f64(out, *w);
        }
    }
}

pub(crate) fn put_device(out: &mut Vec<u8>, device: &DeviceConfig) {
    let DeviceConfig {
        name,
        num_sms,
        clock_hz,
        flops_per_cycle_per_sm,
        dram_bw,
        per_sm_mem_bw,
        dram_mix_penalty,
        l2_bytes,
        pcie_bw,
        max_threads_per_sm,
        max_blocks_per_sm,
        regs_per_sm,
        smem_per_sm,
        threads_for_peak_per_sm,
        block_setup_cycles,
        atomic_serial_s,
        ctx_switch_s,
        launch_latency_s,
    } = device;
    put_str(out, name);
    put_u64(out, (*num_sms).into());
    for v in [
        clock_hz,
        flops_per_cycle_per_sm,
        dram_bw,
        per_sm_mem_bw,
        dram_mix_penalty,
    ] {
        put_f64(out, *v);
    }
    put_u64(out, *l2_bytes);
    put_f64(out, *pcie_bw);
    for v in [
        max_threads_per_sm,
        max_blocks_per_sm,
        regs_per_sm,
        smem_per_sm,
        threads_for_peak_per_sm,
    ] {
        put_u64(out, (*v).into());
    }
    for v in [
        block_setup_cycles,
        atomic_serial_s,
        ctx_switch_s,
        launch_latency_s,
    ] {
        put_f64(out, *v);
    }
}

pub(crate) fn put_queue(out: &mut Vec<u8>, stats: &QueueStats) {
    let QueueStats {
        depth,
        high_water,
        capacity,
        admitted,
        shed,
    } = stats;
    put_u64(out, *depth);
    put_u64(out, *high_water);
    put_opt(out, *capacity);
    put_u64(out, *admitted);
    put_u64(out, *shed);
}

fn put_durable_meta(out: &mut Vec<u8>, meta: &DurableMeta) {
    let DurableMeta {
        next_session,
        sessions,
    } = meta;
    put_u64(out, *next_session);
    put_map(out, sessions, |out, session| {
        let SessionMeta {
            user,
            slo,
            next_ptr,
            allocs,
            admitted,
            done,
        } = session;
        put_str(out, user);
        put_slo(out, *slo);
        put_u64(out, *next_ptr);
        put_map(out, allocs, |out, alloc| {
            let AllocMeta { device_ptr, bytes } = alloc;
            put_u64(out, *device_ptr);
            put_u64(out, *bytes);
        });
        put_map(out, admitted, |out, lease| put_u64(out, *lease));
        put_usize(out, done.len());
        for launch_id in done {
            put_u64(out, *launch_id);
        }
    });
}

pub(crate) fn put_range(out: &mut Vec<u8>, range: SmRange) {
    put_u64(out, range.lo.into());
    put_u64(out, range.hi.into());
}

fn put_batch(out: &mut Vec<u8>, batch: &PlacementBatch) {
    out.push(0);
    put_u64(out, batch.at);
    put_u64(out, batch.events.len() as u64);
    for event in &batch.events {
        put_event(out, event);
    }
    put_u64(out, batch.routed.len() as u64);
    for routed in &batch.routed {
        put_usize(out, routed.device);
        put_command(out, &routed.command);
    }
}

pub(crate) fn put_slo(out: &mut Vec<u8>, slo: SloClass) {
    out.push(match slo {
        SloClass::LatencyCritical => 0,
        SloClass::BestEffort => 1,
    });
}

pub(crate) fn put_class(out: &mut Vec<u8>, class: WorkloadClass) {
    out.push(match class {
        WorkloadClass::LC => 0,
        WorkloadClass::MC => 1,
        WorkloadClass::HC => 2,
        WorkloadClass::MM => 3,
        WorkloadClass::HM => 4,
    });
}

fn scope_tag(scope: RejectScope) -> u8 {
    match scope {
        RejectScope::Session => 0,
        RejectScope::Launch => 1,
        RejectScope::Deadline => 2,
        RejectScope::Malloc => 3,
    }
}

fn put_event(out: &mut Vec<u8>, event: &Event) {
    match event {
        Event::SessionOpened { session } => {
            out.push(0);
            put_u64(out, *session);
        }
        Event::SessionClosed { session } => {
            out.push(1);
            put_u64(out, *session);
        }
        Event::SessionSevered { session } => {
            out.push(2);
            put_u64(out, *session);
        }
        Event::LaunchRequested {
            session,
            lease,
            est_ms,
            deadline_ms,
        } => {
            out.push(3);
            put_u64(out, *session);
            put_u64(out, *lease);
            put_opt(out, *est_ms);
            put_opt(out, *deadline_ms);
        }
        Event::KernelReady {
            session,
            lease,
            class,
            sm_demand,
            pinned_solo,
            deadline_ms,
        } => {
            out.push(4);
            put_u64(out, *session);
            put_u64(out, *lease);
            put_class(out, *class);
            put_u64(out, (*sm_demand).into());
            out.push(u8::from(*pinned_solo));
            put_opt(out, *deadline_ms);
        }
        Event::KernelFinished { lease, ok } => {
            out.push(5);
            put_u64(out, *lease);
            out.push(u8::from(*ok));
        }
        Event::MallocRequested {
            session,
            used,
            capacity,
            bytes,
        } => {
            out.push(6);
            for v in [session, used, capacity, bytes] {
                put_u64(out, *v);
            }
        }
        Event::DeadlineTick => out.push(7),
        Event::DrainBegan => out.push(8),
        Event::DeviceDown { device, hard } => {
            out.push(9);
            put_u64(out, *device);
            out.push(u8::from(*hard));
        }
        Event::DeviceUp { device } => {
            out.push(10);
            put_u64(out, *device);
        }
        Event::SloArrival { session, class } => {
            out.push(11);
            put_u64(out, *session);
            put_slo(out, *class);
        }
    }
}

fn put_command(out: &mut Vec<u8>, command: &Command) {
    match command {
        Command::Dispatch { lease, range } => {
            out.push(0);
            put_u64(out, *lease);
            put_range(out, *range);
        }
        Command::Resize { lease, range } => {
            out.push(1);
            put_u64(out, *lease);
            put_range(out, *range);
        }
        Command::RejectOverloaded {
            session,
            lease,
            scope,
            retry_after_ms,
        } => {
            out.push(2);
            put_u64(out, *session);
            put_opt(out, *lease);
            out.push(scope_tag(*scope));
            put_u64(out, *retry_after_ms);
        }
        Command::PromoteStarved { lease } => {
            out.push(3);
            put_u64(out, *lease);
        }
        Command::Evict { lease } => {
            out.push(4);
            put_u64(out, *lease);
        }
        Command::Reap { session } => {
            out.push(5);
            put_u64(out, *session);
        }
        Command::Preempt { lease } => {
            out.push(6);
            put_u64(out, *lease);
        }
    }
}

/// A decoded value, or why the bytes do not hold one.
pub(crate) type Decoded<T> = Result<T, &'static str>;

/// The undecoded rest of a payload or slot body.
pub(crate) struct Reader<'a> {
    pub(crate) rest: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn byte(&mut self) -> Decoded<u8> {
        let (&b, rest) = self.rest.split_first().ok_or("input ends mid-field")?;
        self.rest = rest;
        Ok(b)
    }

    pub(crate) fn u64(&mut self) -> Decoded<u64> {
        let mut v = 0u64;
        for shift in (0..63).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        // The tenth byte holds bit 63 alone.
        match self.byte()? {
            b @ (0 | 1) => Ok(v | u64::from(b) << 63),
            b if b & 0x80 != 0 => Err("varint longer than 10 bytes"),
            _ => Err("varint overflows u64"),
        }
    }

    pub(crate) fn u32(&mut self) -> Decoded<u32> {
        u32::try_from(self.u64()?).map_err(|_| "varint overflows u32")
    }

    pub(crate) fn usize(&mut self) -> Decoded<usize> {
        usize::try_from(self.u64()?).map_err(|_| "varint overflows usize")
    }

    fn f64(&mut self) -> Decoded<f64> {
        let (bytes, rest) = self
            .rest
            .split_first_chunk()
            .ok_or("input ends mid-field")?;
        self.rest = rest;
        Ok(f64::from_bits(u64::from_le_bytes(*bytes)))
    }

    pub(crate) fn bool(&mut self) -> Decoded<bool> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("bool byte is neither 0 nor 1"),
        }
    }

    pub(crate) fn option<T>(
        &mut self,
        some: impl FnOnce(&mut Self) -> Decoded<T>,
    ) -> Decoded<Option<T>> {
        match self.byte()? {
            0 => Ok(None),
            1 => some(self).map(Some),
            _ => Err("option byte is neither 0 nor 1"),
        }
    }

    pub(crate) fn opt(&mut self) -> Decoded<Option<u64>> {
        self.option(Self::u64)
    }

    /// A count or length: refused when the bytes left could not hold that
    /// many elements of at least one byte each, so a corrupt count cannot
    /// size an allocation.
    pub(crate) fn len(&mut self) -> Decoded<usize> {
        match usize::try_from(self.u64()?) {
            Ok(n) if n <= self.rest.len() => Ok(n),
            _ => Err("length runs past the end of the bytes"),
        }
    }

    fn str(&mut self) -> Decoded<&'a str> {
        let len = self.len()?;
        let (text, rest) = self.rest.split_at(len);
        self.rest = rest;
        std::str::from_utf8(text).map_err(|_| "string is not UTF-8")
    }

    pub(crate) fn vec<T>(
        &mut self,
        mut elem: impl FnMut(&mut Self) -> Decoded<T>,
    ) -> Decoded<Vec<T>> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// A map's entries in order, its keys strictly ascending: the one
    /// order the encoder writes, so a duplicate key cannot silently drop
    /// an entry. Grown as entries decode, not reserved from the count.
    pub(crate) fn pairs<V>(
        &mut self,
        mut value: impl FnMut(&mut Self) -> Decoded<V>,
    ) -> Decoded<Vec<(u64, V)>> {
        let n = self.len()?;
        let mut out: Vec<(u64, V)> = Vec::new();
        for _ in 0..n {
            let key = self.u64()?;
            if out.last().is_some_and(|&(last, _)| last >= key) {
                return Err("map keys out of order");
            }
            out.push((key, value(self)?));
        }
        Ok(out)
    }

    fn map<V>(&mut self, value: impl FnMut(&mut Self) -> Decoded<V>) -> Decoded<BTreeMap<u64, V>> {
        Ok(self.pairs(value)?.into_iter().collect())
    }

    pub(crate) fn slo(&mut self) -> Decoded<SloClass> {
        match self.byte()? {
            0 => Ok(SloClass::LatencyCritical),
            1 => Ok(SloClass::BestEffort),
            _ => Err("unknown SLO class"),
        }
    }

    pub(crate) fn class(&mut self) -> Decoded<WorkloadClass> {
        match self.byte()? {
            0 => Ok(WorkloadClass::LC),
            1 => Ok(WorkloadClass::MC),
            2 => Ok(WorkloadClass::HC),
            3 => Ok(WorkloadClass::MM),
            4 => Ok(WorkloadClass::HM),
            _ => Err("unknown workload class"),
        }
    }

    pub(crate) fn range(&mut self) -> Decoded<SmRange> {
        let (lo, hi) = (self.u32()?, self.u32()?);
        if lo > hi {
            return Err("SM range ends below its start");
        }
        Ok(SmRange { lo, hi })
    }

    fn snapshot(&mut self) -> Decoded<DurableSnapshot> {
        Ok(DurableSnapshot {
            epoch: self.u64()?,
            segment: self.u64()?,
            offset: self.u64()?,
            placement: PlacementSnapshot::decode(self)?,
            meta: self.durable_meta()?,
        })
    }

    pub(crate) fn placement_config(&mut self) -> Decoded<PlacementConfig> {
        Ok(PlacementConfig {
            policy: match self.byte()? {
                0 => PlacementPolicy::RoundRobin,
                1 => PlacementPolicy::LeastLoaded,
                2 => PlacementPolicy::Affinity {
                    pins: self.map(Self::usize)?,
                },
                _ => return Err("unknown placement policy"),
            },
            arbiter: self.arbiter_config()?,
            rebalance: self.option(|r| {
                Ok(RebalanceConfig {
                    high_ms: r.u64()?,
                    low_ms: r.u64()?,
                    cooldown_us: r.u64()?,
                    seed: r.u64()?,
                })
            })?,
        })
    }

    pub(crate) fn arbiter_config(&mut self) -> Decoded<ArbiterConfig> {
        Ok(ArbiterConfig {
            enable_corun: self.bool()?,
            enable_resize: self.bool()?,
            starvation_bound_us: self.opt()?,
            preempt_bound_us: self.opt()?,
            limits: AdmissionLimits {
                max_sessions: self.option(Self::usize)?,
                max_pending_per_session: self.opt()?,
                max_pending_global: self.opt()?,
                mem_watermark: self.option(Self::f64)?,
            },
        })
    }

    pub(crate) fn device(&mut self) -> Decoded<DeviceConfig> {
        Ok(DeviceConfig {
            name: self.str()?.to_string(),
            num_sms: self.u32()?,
            clock_hz: self.f64()?,
            flops_per_cycle_per_sm: self.f64()?,
            dram_bw: self.f64()?,
            per_sm_mem_bw: self.f64()?,
            dram_mix_penalty: self.f64()?,
            l2_bytes: self.u64()?,
            pcie_bw: self.f64()?,
            max_threads_per_sm: self.u32()?,
            max_blocks_per_sm: self.u32()?,
            regs_per_sm: self.u32()?,
            smem_per_sm: self.u32()?,
            threads_for_peak_per_sm: self.u32()?,
            block_setup_cycles: self.f64()?,
            atomic_serial_s: self.f64()?,
            ctx_switch_s: self.f64()?,
            launch_latency_s: self.f64()?,
        })
    }

    pub(crate) fn queue(&mut self) -> Decoded<QueueStats> {
        Ok(QueueStats {
            depth: self.u64()?,
            high_water: self.u64()?,
            capacity: self.opt()?,
            admitted: self.u64()?,
            shed: self.u64()?,
        })
    }

    fn durable_meta(&mut self) -> Decoded<DurableMeta> {
        Ok(DurableMeta {
            next_session: self.u64()?,
            sessions: self.map(|r| {
                Ok(SessionMeta {
                    user: r.str()?.to_string(),
                    slo: r.slo()?,
                    next_ptr: r.u64()?,
                    allocs: r.map(|r| {
                        Ok(AllocMeta {
                            device_ptr: r.u64()?,
                            bytes: r.u64()?,
                        })
                    })?,
                    admitted: r.map(Self::u64)?,
                    done: r.set()?,
                })
            })?,
        })
    }

    /// A set: the keys of a map with no values.
    fn set(&mut self) -> Decoded<BTreeSet<u64>> {
        Ok(self.map(|_| Ok(()))?.into_keys().collect())
    }

    fn record(&mut self) -> Decoded<WalRecord> {
        Ok(match self.byte()? {
            0 => WalRecord::Batch {
                batch: self.batch()?,
            },
            1 => WalRecord::SessionMeta {
                session: self.u64()?,
                user: self.str()?.to_string(),
                slo: self.slo()?,
            },
            2 => WalRecord::SessionClosed {
                session: self.u64()?,
            },
            3 => WalRecord::Alloc {
                session: self.u64()?,
                slate_ptr: self.u64()?,
                device_ptr: self.u64()?,
                bytes: self.u64()?,
            },
            4 => WalRecord::Free {
                session: self.u64()?,
                slate_ptr: self.u64()?,
            },
            5 => WalRecord::LaunchAdmitted {
                session: self.u64()?,
                launch_id: self.u64()?,
                lease: self.u64()?,
            },
            6 => WalRecord::LaunchDone {
                session: self.u64()?,
                launch_id: self.u64()?,
            },
            7 => WalRecord::Epoch { epoch: self.u64()? },
            _ => return Err("unknown record tag"),
        })
    }

    fn batch(&mut self) -> Decoded<PlacementBatch> {
        Ok(PlacementBatch {
            at: self.u64()?,
            events: self.vec(Self::event)?,
            routed: self.vec(|r| {
                Ok(RoutedCommand {
                    device: r.usize()?,
                    command: r.command()?,
                })
            })?,
        })
    }

    fn event(&mut self) -> Decoded<Event> {
        Ok(match self.byte()? {
            0 => Event::SessionOpened {
                session: self.u64()?,
            },
            1 => Event::SessionClosed {
                session: self.u64()?,
            },
            2 => Event::SessionSevered {
                session: self.u64()?,
            },
            3 => Event::LaunchRequested {
                session: self.u64()?,
                lease: self.u64()?,
                est_ms: self.opt()?,
                deadline_ms: self.opt()?,
            },
            4 => Event::KernelReady {
                session: self.u64()?,
                lease: self.u64()?,
                class: self.class()?,
                sm_demand: self.u32()?,
                pinned_solo: self.bool()?,
                deadline_ms: self.opt()?,
            },
            5 => Event::KernelFinished {
                lease: self.u64()?,
                ok: self.bool()?,
            },
            6 => Event::MallocRequested {
                session: self.u64()?,
                used: self.u64()?,
                capacity: self.u64()?,
                bytes: self.u64()?,
            },
            7 => Event::DeadlineTick,
            8 => Event::DrainBegan,
            9 => Event::DeviceDown {
                device: self.u64()?,
                hard: self.bool()?,
            },
            10 => Event::DeviceUp {
                device: self.u64()?,
            },
            11 => Event::SloArrival {
                session: self.u64()?,
                class: self.slo()?,
            },
            _ => return Err("unknown event tag"),
        })
    }

    fn command(&mut self) -> Decoded<Command> {
        Ok(match self.byte()? {
            0 => Command::Dispatch {
                lease: self.u64()?,
                range: self.range()?,
            },
            1 => Command::Resize {
                lease: self.u64()?,
                range: self.range()?,
            },
            2 => Command::RejectOverloaded {
                session: self.u64()?,
                lease: self.opt()?,
                scope: match self.byte()? {
                    0 => RejectScope::Session,
                    1 => RejectScope::Launch,
                    2 => RejectScope::Deadline,
                    3 => RejectScope::Malloc,
                    _ => return Err("unknown reject scope"),
                },
                retry_after_ms: self.u64()?,
            },
            3 => Command::PromoteStarved { lease: self.u64()? },
            4 => Command::Evict { lease: self.u64()? },
            5 => Command::Reap {
                session: self.u64()?,
            },
            6 => Command::Preempt { lease: self.u64()? },
            _ => return Err("unknown command tag"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, v);
        out
    }

    /// The layout, byte for byte: what the segments of this format hold.
    #[test]
    fn the_layout_is_pinned() {
        let lease = 1 << 16;
        let cases = [
            (
                WalRecord::SessionMeta {
                    session: 300,
                    user: "ab".into(),
                    slo: SloClass::LatencyCritical,
                },
                vec![FORMAT, 1, 0xAC, 0x02, 2, b'a', b'b', 0],
            ),
            (
                WalRecord::Batch {
                    batch: PlacementBatch {
                        at: 5,
                        events: vec![Event::KernelReady {
                            session: 1,
                            lease,
                            class: WorkloadClass::MM,
                            sm_demand: 4,
                            pinned_solo: false,
                            deadline_ms: Some(50),
                        }],
                        routed: vec![RoutedCommand {
                            device: 1,
                            command: Command::Dispatch {
                                lease,
                                range: SmRange::new(0, 3),
                            },
                        }],
                    },
                },
                vec![
                    FORMAT, 0, 5, // a batch at 5
                    1, 4, 1, 0x80, 0x80, 0x04, 3, 4, 0, 1, 50, // one KernelReady
                    1, 1, 0, 0x80, 0x80, 0x04, 0, 3, // one Dispatch on device 1
                ],
            ),
        ];
        for (record, bytes) in cases {
            let mut out = Vec::new();
            encode(&record, &mut out);
            assert_eq!(out, bytes, "{record:?}");
            assert_eq!(decode(&bytes), Ok(record));
        }
    }

    #[test]
    fn varints_take_one_byte_per_seven_bits() {
        for (v, len) in [
            (0, 1),
            (127, 1),
            (128, 2),
            (u32::MAX.into(), 5),
            (u64::MAX, 10),
        ] {
            let bytes = varint(v);
            assert_eq!(bytes.len(), len, "{v}");
            let mut r = Reader { rest: &bytes };
            assert_eq!(r.u64(), Ok(v));
            assert!(r.rest.is_empty());
        }
    }
}
