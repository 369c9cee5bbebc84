//! Property tests for the WAL frame codec: the reader must be *total*.
//!
//! Whatever bytes a crash, a sick disk or an adversary leaves in a
//! segment, `scan` must return — never panic — with the longest provably
//! valid record prefix, the byte length of that prefix, and the offset
//! where the log stopped being trustworthy. These properties drive
//! arbitrary record batches through encode→scan, cut the byte stream at
//! every possible point, flip single bits, and feed raw garbage.

use proptest::prelude::*;
use slate_core::arbiter::Event;
use slate_core::durability::wal::{
    encode_frame, scan, segment_path, SegmentWriter, FRAME_HEADER_LEN,
};
use slate_core::durability::{WalIssue, WalRecord};
use slate_core::placement::replay::PlacementBatch;
use slate_kernels::workload::SloClass;

/// A placement event with no payload dependencies on scheduler state —
/// enough shape diversity to exercise the JSON codec.
fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        Just(Event::DeadlineTick),
        Just(Event::DrainBegan),
        any::<u64>().prop_map(|session| Event::SessionOpened { session }),
        any::<u64>().prop_map(|session| Event::SessionClosed { session }),
        any::<u64>().prop_map(|session| Event::SessionSevered { session }),
        (any::<u64>(), any::<bool>()).prop_map(|(lease, ok)| Event::KernelFinished { lease, ok }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(session, used, capacity, bytes)| Event::MallocRequested {
                session,
                used,
                capacity,
                bytes,
            }
        ),
    ]
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        ("[a-z0-9 ]{0,16}", any::<u64>(), any::<bool>()).prop_map(|(user, session, lc)| {
            WalRecord::SessionMeta {
                session,
                user,
                slo: if lc {
                    SloClass::LatencyCritical
                } else {
                    SloClass::BestEffort
                },
            }
        }),
        any::<u64>().prop_map(|session| WalRecord::SessionClosed { session }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(session, slate_ptr, device_ptr, bytes)| WalRecord::Alloc {
                session,
                slate_ptr,
                device_ptr,
                bytes,
            }
        ),
        (any::<u64>(), any::<u64>())
            .prop_map(|(session, slate_ptr)| WalRecord::Free { session, slate_ptr }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(session, launch_id, lease)| {
            WalRecord::LaunchAdmitted {
                session,
                launch_id,
                lease,
            }
        }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(session, launch_id)| WalRecord::LaunchDone { session, launch_id }),
        any::<u64>().prop_map(|epoch| WalRecord::Epoch { epoch }),
        (any::<u64>(), prop::collection::vec(arb_event(), 0..4)).prop_map(|(at, events)| {
            WalRecord::Batch {
                batch: PlacementBatch {
                    at,
                    events,
                    routed: Vec::new(),
                },
            }
        }),
    ]
}

/// Encodes `records` and returns (bytes, frame start offsets). The
/// offsets include the final end-of-log position, so `offsets[i]` is
/// where frame `i` begins and `offsets[records.len()]` the total length.
fn encode_all(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut offsets = vec![0usize];
    for r in records {
        let payload = serde_json::to_string(r).expect("serialize");
        bytes.extend_from_slice(&encode_frame(payload.as_bytes()));
        offsets.push(bytes.len());
    }
    (bytes, offsets)
}

/// What a [`SegmentWriter`] puts on disk for `records`: batches through
/// `append_batch` (which serialises the borrowed batch inside a
/// hand-written `{"Batch":{"batch":…}}`), everything else through
/// `append`, all of it built in the writer's reused buffers.
fn written_by_segment_writer(records: &[WalRecord]) -> Vec<u8> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "slate-walprops-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut w = SegmentWriter::create(&dir, 0).expect("create");
    for r in records {
        match r {
            WalRecord::Batch { batch } => w.append_batch(batch),
            other => w.append(other),
        }
        .expect("append");
    }
    let bytes = std::fs::read(segment_path(&dir, 0)).expect("read");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// The same, for a batch that routed commands (the strategies above
/// generate none): a dispatch and the resize that makes room for it.
#[test]
fn a_routed_batch_is_written_byte_for_byte_as_its_record() {
    use slate_core::placement::{PlacementConfig, PlacementLayer};
    let mut layer = PlacementLayer::new(
        vec![slate_gpu_sim::device::DeviceConfig::tiny(8)],
        PlacementConfig::default(),
    );
    let mut records = Vec::new();
    let mut at = 0;
    let mut feed = |events: Vec<Event>| {
        at += 10;
        let routed = layer.feed(at, &events);
        records.push(WalRecord::Batch {
            batch: PlacementBatch { at, events, routed },
        });
    };
    feed(vec![
        Event::SessionOpened { session: 1 },
        Event::SessionOpened { session: 2 },
    ]);
    for (session, class) in [
        (1u64, slate_core::classify::WorkloadClass::MM),
        (2, slate_core::classify::WorkloadClass::LC),
    ] {
        feed(vec![Event::KernelReady {
            session,
            lease: session << 16,
            class,
            sm_demand: 4,
            pinned_solo: false,
            deadline_ms: Some(50),
        }]);
    }
    let routed: usize = records
        .iter()
        .map(|r| match r {
            WalRecord::Batch { batch } => batch.routed.len(),
            _ => 0,
        })
        .sum();
    assert!(routed >= 3, "two dispatches and a resize: {records:?}");
    assert_eq!(written_by_segment_writer(&records), encode_all(&records).0);
}

proptest! {
    /// The writer's in-place encoding is byte-identical to
    /// `encode_frame(serde_json::to_string(record))`, for every record
    /// shape and whatever the buffers held before.
    #[test]
    fn segment_writer_bytes_are_the_reference_encoding(
        records in prop::collection::vec(arb_record(), 0..12),
    ) {
        prop_assert_eq!(written_by_segment_writer(&records), encode_all(&records).0);
    }

    /// encode → scan is the identity on any record batch.
    #[test]
    fn roundtrip_any_batch(records in prop::collection::vec(arb_record(), 0..12)) {
        let (bytes, _) = encode_all(&records);
        let out = scan(&bytes);
        prop_assert_eq!(out.records, records);
        prop_assert_eq!(out.valid_len, bytes.len());
        prop_assert!(out.issue.is_none());
    }

    /// Cutting the stream at ANY byte yields exactly the records whose
    /// frames fit wholly in the prefix; a mid-frame cut is reported as a
    /// torn tail at that frame's start, never a panic.
    #[test]
    fn truncation_at_any_point_recovers_the_whole_frame_prefix(
        records in prop::collection::vec(arb_record(), 1..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let (bytes, offsets) = encode_all(&records);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let out = scan(&bytes[..cut]);
        // How many whole frames survive the cut.
        let whole = offsets.iter().filter(|&&o| o <= cut).count() - 1;
        prop_assert_eq!(out.records.len(), whole);
        prop_assert_eq!(&out.records[..], &records[..whole]);
        prop_assert_eq!(out.valid_len, offsets[whole]);
        if offsets[whole] == cut {
            prop_assert!(out.issue.is_none());
        } else {
            prop_assert_eq!(
                out.issue,
                Some(WalIssue::TornTail { offset: offsets[whole] })
            );
        }
    }

    /// Flipping any single bit invalidates exactly the frame containing
    /// it: the scan keeps every earlier record, stops at that frame's
    /// start, and reports the offset. (CRC-32 detects all single-bit
    /// errors, so a flip can never smuggle a bogus record through.)
    #[test]
    fn single_bit_flip_stops_the_scan_at_the_damaged_frame(
        records in prop::collection::vec(arb_record(), 1..8),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (clean, offsets) = encode_all(&records);
        let idx = (((clean.len() - 1) as f64) * byte_frac) as usize;
        let mut bytes = clean.clone();
        bytes[idx] ^= 1 << bit;
        let out = scan(&bytes);
        // The frame the damaged byte belongs to.
        let victim = offsets.iter().filter(|&&o| o <= idx).count() - 1;
        prop_assert_eq!(&out.records[..], &records[..victim]);
        prop_assert_eq!(out.valid_len, offsets[victim]);
        let issue = out.issue.expect("a flipped bit must be reported");
        prop_assert_eq!(issue.offset(), offsets[victim]);
    }

    /// Raw garbage: the scan is total, the valid prefix is self-
    /// consistent (re-scanning it is clean and yields the same records).
    #[test]
    fn arbitrary_garbage_never_panics_and_prefix_is_stable(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let out = scan(&bytes);
        prop_assert!(out.valid_len <= bytes.len());
        let again = scan(&bytes[..out.valid_len]);
        prop_assert!(again.issue.is_none());
        prop_assert_eq!(again.valid_len, out.valid_len);
        prop_assert_eq!(again.records, out.records);
    }
}

/// The framing constant the properties above rely on.
#[test]
fn header_is_len_plus_crc() {
    assert_eq!(FRAME_HEADER_LEN, 8);
    let frame = encode_frame(b"x");
    assert_eq!(frame.len(), FRAME_HEADER_LEN + 1);
}
