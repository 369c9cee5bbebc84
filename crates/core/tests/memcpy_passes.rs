//! Pass count of a bulk transfer, pinned by its allocations.
//!
//! The data plane's claim (`channel.rs`, `DESIGN.md` §6) is that a payload
//! is written once on its way in and twice on its way out: `upload_f32`
//! converts into the one buffer the daemon then reads in place, and
//! `download_f32` converts straight out of the one buffer the daemon
//! filled. Any further pass — a payload grown as it is filled, a
//! `Bytes::from` that copies the vector it is given, a `.to_vec()` on the
//! reply — is also a payload-sized allocation, so counting those counts
//! the passes.
//!
//! The ledger is process-wide (the daemon's session thread allocates the
//! D2H payload), which is why this file holds one `#[test]` and nothing
//! else: no neighbouring test can allocate into a measurement.

use slate_core::api::SlateClient;
use slate_core::daemon::SlateDaemon;
use slate_gpu_sim::device::DeviceConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

const PAYLOAD: usize = 1 << 20;

/// Counts every allocation of at least [`PAYLOAD`] bytes, on any thread.
struct CountingAlloc;

static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if bytes >= PAYLOAD {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size());
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count(l.size());
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        count(n);
        System.realloc(p, l, n)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn big_allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BIG_ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (BIG_ALLOCS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn a_bulk_transfer_allocates_its_payload_once_per_side() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 24);
    let client = SlateClient::new(daemon.connect("mover").unwrap());
    let words = PAYLOAD / 4;
    let ptr = client.malloc(PAYLOAD as u64).unwrap();
    let host: Vec<f32> = (0..words).map(|i| i as f32).collect();
    // Every round alike: nothing is cached between transfers.
    for round in 0..3 {
        let (up, sent) = big_allocs_during(|| client.upload_f32(ptr, &host));
        sent.unwrap();
        assert_eq!(
            up, 1,
            "round {round}: upload_f32 is the payload and nothing else"
        );
        let (down, back) = big_allocs_during(|| client.download_f32(ptr, words));
        assert_eq!(
            down, 2,
            "round {round}: download_f32 is the daemon's payload and the vector returned"
        );
        assert_eq!(back.unwrap(), host);
    }
    // The byte-level call hands the daemon's payload over as it is.
    let (raw, bytes) = big_allocs_during(|| client.memcpy_d2h(ptr, 0, PAYLOAD));
    assert_eq!(raw, 1, "memcpy_d2h returns the daemon's own vector");
    assert_eq!(bytes.unwrap()[4..8], 1.0f32.to_le_bytes());
    client.disconnect().unwrap();
    daemon.join();
}
