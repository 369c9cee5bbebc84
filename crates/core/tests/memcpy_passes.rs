//! Pass count of a bulk transfer, pinned by its allocations.
//!
//! The data plane's claim (`channel.rs`, `DESIGN.md` §6) is that a payload
//! is written once on its way in and once on its way out: `upload_f32`
//! writes the caller's slice straight into the device run the daemon
//! lends, so it allocates nothing of payload size, and `download_f32`
//! sends the one vector the daemon appends the device words to. Any
//! further pass — a staging vector for the upload, a payload grown as it
//! is filled, a reply the daemon allocates, a `.to_vec()` on it — is also
//! a payload-sized allocation, so counting those counts the passes.
//!
//! A download's one vector must also be allocated on the thread that
//! asked for the transfer: a reply allocated on the daemon's session
//! thread and freed on the client's made `serve_mixed`'s set-ups
//! page-fault (`channel.rs`). So the ledger is process-wide — it sees the
//! session thread too, where an upload's zero is counted — with a
//! thread-local flag marking the caller's own allocations. That is why
//! this file holds one `#[test]` and nothing else: no neighbouring test
//! can allocate into a measurement.

use slate_core::api::SlateClient;
use slate_core::daemon::SlateDaemon;
use slate_gpu_sim::device::DeviceConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

const PAYLOAD: usize = 1 << 20;

/// Counts every allocation of at least [`PAYLOAD`] bytes, on any thread,
/// and apart those made on a thread inside [`big_allocs_during`].
struct CountingAlloc;

static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);
static BIG_ALLOCS_ON_CALLER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread runs a measured transfer.
    static CALLER: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if bytes >= PAYLOAD {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        if CALLER.try_with(Cell::get).unwrap_or(false) {
            BIG_ALLOCS_ON_CALLER.fetch_add(1, Ordering::Relaxed);
        }
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

/// Payload-sized allocations while `f` runs: `(on any thread, on this one)`.
fn big_allocs_during<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = BIG_ALLOCS.load(Ordering::Relaxed);
    let before_here = BIG_ALLOCS_ON_CALLER.load(Ordering::Relaxed);
    CALLER.with(|c| c.set(true));
    let out = f();
    CALLER.with(|c| c.set(false));
    let all = BIG_ALLOCS.load(Ordering::Relaxed) - before;
    let here = BIG_ALLOCS_ON_CALLER.load(Ordering::Relaxed) - before_here;
    ((all, here), out)
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
        let ((up, _), sent) = big_allocs_during(|| client.upload_f32(ptr, &host));
        sent.unwrap();
        assert_eq!(
            up, 0,
            "round {round}: upload_f32 writes the lent run and allocates no payload"
        );
        let ((down, down_here), back) = big_allocs_during(|| client.download_f32(ptr, words));
        assert_eq!(
            down, 1,
            "round {round}: download_f32 is the vector returned and nothing else"
        );
        assert_eq!(down_here, 1, "round {round}: download_f32 allocates here");
        assert_eq!(back.unwrap(), host);
    }
    // The byte-level call likewise fills the one vector it returns.
    let ((raw, raw_here), bytes) = big_allocs_during(|| client.memcpy_d2h(ptr, 0, PAYLOAD));
    assert_eq!(raw, 1, "memcpy_d2h is the vector returned and nothing else");
    assert_eq!(raw_here, 1, "memcpy_d2h allocates here");
    assert_eq!(bytes.unwrap()[4..8], 1.0f32.to_le_bytes());
    client.disconnect().unwrap();
    daemon.join();
}
