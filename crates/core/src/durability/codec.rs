//! The WAL's record codec: what goes inside a frame's payload.
//!
//! A payload opens with a format byte. [`FORMAT`] (`1`) is this codec, the
//! only one written and the only one read: a payload with any other first
//! byte is corrupt. An incompatible change to the codec bumps [`FORMAT`]
//! and keeps no reader for the old one.
//!
//! After the format byte comes one record, field by field in declaration
//! order, with nothing between the fields:
//!
//! | field | bytes |
//! |---|---|
//! | a variant ([`WalRecord`], [`Event`], [`Command`]) | one tag byte, then its fields |
//! | `u64`, `u32`, `usize` | LEB128 varint: 7 bits a byte, low group first, at most 10 bytes |
//! | `bool` | `0` or `1` |
//! | [`WorkloadClass`], [`SloClass`], [`RejectScope`] | one byte, the variant's index |
//! | `Option<u64>` | `0` (none), or `1` and the varint |
//! | `String` (`user`) | varint byte length, then the UTF-8 bytes |
//! | `Vec` (`events`, `routed`) | varint count, then the elements |
//! | [`SmRange`] | `lo`, `hi` |
//! | [`RoutedCommand`] | `device`, then the command |
//!
//! A tag or enum byte is the variant's position in its declaration when
//! this format was fixed, spelled out as a literal in the encoder and the
//! decoder, so reordering a declaration moves no byte. Every encoder is an
//! exhaustive `match`: a new variant does not compile until it has a tag,
//! which is a new byte value, never a reused one. A decode that meets
//! anything else — an unknown tag, a varint of more than 10 bytes or over
//! its field's width, a length or count past the end, bytes left over —
//! is an error, never a panic, and it allocates at most one element per
//! payload byte whatever a count claims.

use super::wal::WalRecord;
use crate::arbiter::{Command, Event, RejectScope};
use crate::classify::WorkloadClass;
use crate::placement::{PlacementBatch, RoutedCommand};
use slate_gpu_sim::device::SmRange;
use slate_kernels::workload::SloClass;
use std::borrow::Cow;

/// The format byte of this codec: the first byte of every payload written.
pub const FORMAT: u8 = 1;

/// Appends `record`'s payload — format byte first — to `out`.
pub fn encode(record: &WalRecord, out: &mut Vec<u8>) {
    out.push(FORMAT);
    match record {
        WalRecord::Batch { batch } => put_batch(out, batch),
        WalRecord::SessionMeta { session, user, slo } => {
            out.push(1);
            put_u64(out, *session);
            put_u64(out, user.len() as u64);
            out.extend_from_slice(user.as_bytes());
            out.push(slo_tag(*slo));
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
pub fn encode_batch(batch: &PlacementBatch, out: &mut Vec<u8>) {
    out.push(FORMAT);
    put_batch(out, batch);
}

/// Decodes one payload. The error says why the payload is not a record
/// (past the format byte, a static string: building it allocates nothing).
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

fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_opt(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

fn put_range(out: &mut Vec<u8>, range: SmRange) {
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
        put_u64(out, routed.device as u64);
        put_command(out, &routed.command);
    }
}

fn slo_tag(slo: SloClass) -> u8 {
    match slo {
        SloClass::LatencyCritical => 0,
        SloClass::BestEffort => 1,
    }
}

fn class_tag(class: WorkloadClass) -> u8 {
    match class {
        WorkloadClass::LC => 0,
        WorkloadClass::MC => 1,
        WorkloadClass::HC => 2,
        WorkloadClass::MM => 3,
        WorkloadClass::HM => 4,
    }
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
            out.push(class_tag(*class));
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
            out.push(slo_tag(*class));
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

type Decoded<T> = Result<T, &'static str>;

/// The undecoded rest of a payload.
struct Reader<'a> {
    rest: &'a [u8],
}

impl Reader<'_> {
    fn byte(&mut self) -> Decoded<u8> {
        let (&b, rest) = self.rest.split_first().ok_or("record ends mid-field")?;
        self.rest = rest;
        Ok(b)
    }

    fn u64(&mut self) -> Decoded<u64> {
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

    fn u32(&mut self) -> Decoded<u32> {
        u32::try_from(self.u64()?).map_err(|_| "varint overflows u32")
    }

    fn bool(&mut self) -> Decoded<bool> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("bool byte is neither 0 nor 1"),
        }
    }

    fn opt(&mut self) -> Decoded<Option<u64>> {
        match self.byte()? {
            0 => Ok(None),
            1 => self.u64().map(Some),
            _ => Err("option byte is neither 0 nor 1"),
        }
    }

    /// A count or length: refused when the bytes left could not hold that
    /// many elements of at least one byte each, so a corrupt count cannot
    /// size an allocation.
    fn len(&mut self) -> Decoded<usize> {
        match usize::try_from(self.u64()?) {
            Ok(n) if n <= self.rest.len() => Ok(n),
            _ => Err("length runs past the end of the record"),
        }
    }

    fn slo(&mut self) -> Decoded<SloClass> {
        match self.byte()? {
            0 => Ok(SloClass::LatencyCritical),
            1 => Ok(SloClass::BestEffort),
            _ => Err("unknown SLO class"),
        }
    }

    fn range(&mut self) -> Decoded<SmRange> {
        let (lo, hi) = (self.u32()?, self.u32()?);
        if lo > hi {
            return Err("SM range ends below its start");
        }
        Ok(SmRange { lo, hi })
    }

    fn record(&mut self) -> Decoded<WalRecord> {
        Ok(match self.byte()? {
            0 => WalRecord::Batch {
                batch: self.batch()?,
            },
            1 => {
                let session = self.u64()?;
                let len = self.len()?;
                let (text, rest) = self.rest.split_at(len);
                self.rest = rest;
                let user = std::str::from_utf8(text).map_err(|_| "user is not UTF-8")?;
                WalRecord::SessionMeta {
                    session,
                    user: user.to_string(),
                    slo: self.slo()?,
                }
            }
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
        let at = self.u64()?;
        let n = self.len()?;
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            events.push(self.event()?);
        }
        let n = self.len()?;
        let mut routed = Vec::with_capacity(n);
        for _ in 0..n {
            let device = usize::try_from(self.u64()?).map_err(|_| "device overflows usize")?;
            routed.push(RoutedCommand {
                device,
                command: self.command()?,
            });
        }
        Ok(PlacementBatch { at, events, routed })
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
                class: match self.byte()? {
                    0 => WorkloadClass::LC,
                    1 => WorkloadClass::MC,
                    2 => WorkloadClass::HC,
                    3 => WorkloadClass::MM,
                    4 => WorkloadClass::HM,
                    _ => return Err("unknown workload class"),
                },
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
