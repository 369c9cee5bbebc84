//! Session churn must cost a daemon nothing that lasts: not a thread per
//! session that ever connected, not its stack, not a mapping.
//!
//! A session's thread is parked when the session ends and reused by the
//! next one (`DESIGN.md` §8); nobody keeps a `JoinHandle`. The daemon used
//! to keep one per session until `join()`, and an exited, un-joined thread
//! keeps its stack: 8 000 sequential connect → disconnect took a daemon
//! from 5.6 MB to 16.6 GB of address space, and at session 32 743 the
//! process ran out of mappings (`vm.max_map_count`) and aborted.
//!
//! What is counted here — threads, mappings, address space — is the whole
//! process's, so this is a test binary of its own with one `#[test]` that
//! runs its cases in turn: no other test's thread — nor the harness
//! starting one — may be in the ledger. The clients are driven from the
//! test's own thread for the same reason.
#![cfg(target_os = "linux")]

use slate_core::api::SlateClient;
use slate_core::channel::SlatePtr;
use slate_core::daemon::SlateDaemon;
use slate_gpu_sim::device::DeviceConfig;
use slate_kernels::transpose::TransposeKernel;
use slate_kernels::GpuKernel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The number after `key` in `/proc/self/status` (`Threads:` a count, the
/// `Vm*:` lines kB).
fn status(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .unwrap_or_else(|| panic!("no {key} in /proc/self/status"));
    let number = line.split_whitespace().next().expect("a value");
    number.parse().expect("a number")
}

fn threads() -> u64 {
    status("Threads:")
}

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// Polls until the process is down to `want` threads; how long it took,
/// or `None` if `within` passed first.
fn threads_fall_to(want: u64, within: Duration) -> Option<Duration> {
    let t0 = Instant::now();
    while threads() > want {
        if t0.elapsed() > within {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Some(t0.elapsed())
}

fn daemon() -> Arc<SlateDaemon> {
    SlateDaemon::start(DeviceConfig::tiny(2), 1 << 24)
}

/// `n` sessions open at once, each served while all the others are still
/// open — a session handed to a thread that is busy with another would
/// never get its first answer — then all of them gone. Asserts the
/// process never runs more than `ceiling` threads.
fn wave(daemon: &Arc<SlateDaemon>, n: usize, ceiling: u64) {
    let clients: Vec<SlateClient> = (0..n)
        .map(|i| {
            let client = SlateClient::new(daemon.connect(&format!("tenant-{i}")).expect("connect"));
            assert!(threads() <= ceiling, "{} threads at session {i}", threads());
            client
        })
        .collect();
    for (i, client) in clients.iter().enumerate() {
        let p = client.malloc(64).expect("malloc");
        client.upload_f32(p, &[i as f32]).expect("upload");
        assert_eq!(client.download_f32(p, 1).expect("download"), [i as f32]);
        client.free(p).expect("free");
    }
    assert!(threads() <= ceiling, "{} threads", threads());
    for client in clients {
        client.disconnect().expect("disconnect");
    }
    daemon.join();
    assert_eq!(daemon.metrics().live_allocations, 0);
}

/// The matrix the stream-lane launches transpose.
const ROWS: u32 = 8;
const COLS: u32 = 16;

/// Transposes the `ROWS` x `COLS` matrix at `src` into `dst` on `stream`.
fn transpose_on(client: &SlateClient, stream: u32, src: SlatePtr, dst: SlatePtr) {
    client
        .launch_on_stream(stream, vec![src, dst], 4, |bufs| {
            Arc::new(TransposeKernel::new(
                ROWS,
                COLS,
                bufs[0].clone(),
                bufs[1].clone(),
            )) as Arc<dyn GpuKernel>
        })
        .expect("launch");
}

/// Launches one kernel on a daemon it then drops, and returns the threads
/// that left behind: the process-wide worker-lane pool starts its helpers
/// at the first launch and keeps them for the life of the process.
fn start_the_worker_lane_pool() -> u64 {
    let daemon = daemon();
    let client = SlateClient::new(daemon.connect("warm-up").expect("connect"));
    let n = (ROWS * COLS) as usize;
    let src = client.malloc(4 * n as u64).expect("malloc");
    let dst = client.malloc(4 * n as u64).expect("malloc");
    let before = threads();
    transpose_on(&client, 0, src, dst);
    client.synchronize().expect("synchronize");
    let helpers = threads() - before;
    client.disconnect().expect("disconnect");
    helpers
}

#[test]
fn session_churn() {
    // The harness, this test and the worker-lane pool: what the process
    // runs without a daemon. Every case leaves it as it found it.
    let harness = threads();
    let base = harness + start_the_worker_lane_pool();
    assert!(
        threads_fall_to(base, Duration::from_secs(10)).is_some(),
        "{} threads outlive the warm-up daemon",
        threads() - base
    );
    for case in [
        sequential_churn_leaves_no_thread_stack_or_mapping_behind,
        threads_follow_the_live_sessions_and_leave_when_idle,
        parked_threads_leave_at_once_when_the_daemon_is_dropped,
        stream_lanes_leave_with_their_session,
    ] {
        case(base);
        assert!(
            threads_fall_to(base, Duration::from_secs(10)).is_some(),
            "{} threads outlive their daemon",
            threads() - base
        );
    }
}

fn sequential_churn_leaves_no_thread_stack_or_mapping_behind(_base: u64) {
    let daemon = daemon();
    // Warm-up: whatever a handful of session threads costs once — their
    // stacks, the allocator's per-thread arenas — is on the books before
    // the first reading.
    wave(&daemon, 8, u64::MAX);
    let (maps, vm_kb) = (mappings(), status("VmSize:"));
    for _ in 0..3_000 {
        let client = SlateClient::new(daemon.connect("churn").expect("connect"));
        let p = client.malloc(256).expect("malloc");
        client.free(p).expect("free");
        client.disconnect().expect("disconnect");
    }
    // Read before `join`: a long-lived daemon is never joined, and a
    // daemon that kept its sessions' `JoinHandle`s for that day kept
    // their stacks with them (+6 000 mappings, +6 GB here).
    let grew_maps = mappings().saturating_sub(maps);
    let grew_mb = status("VmSize:").saturating_sub(vm_kb) / 1024;
    assert!(grew_maps < 64, "3 000 sessions left {grew_maps} mappings");
    assert!(grew_mb < 64, "3 000 sessions left {grew_mb} MB mapped");
    daemon.join();
    assert_eq!(daemon.metrics().live_allocations, 0);
}

fn threads_follow_the_live_sessions_and_leave_when_idle(base: u64) {
    const SESSIONS: usize = 64;
    let daemon = daemon();
    // The daemon's own: its heartbeat.
    let own = threads() - base;
    assert_eq!(own, 1, "an idle daemon is its heartbeat");
    let ceiling = base + own + SESSIONS as u64;
    wave(&daemon, SESSIONS, ceiling);
    // Every thread of the first wave is parked by now (`join` returns
    // after that), so the second is served by them.
    wave(&daemon, SESSIONS, ceiling);
    // Nothing to serve: the parked threads leave after their idle time.
    assert!(
        threads_fall_to(base + own, Duration::from_secs(10)).is_some(),
        "{} threads still parked on an idle daemon",
        threads() - base - own
    );
    // And an idle daemon is still a daemon.
    wave(&daemon, 2, base + own + 2);
}

fn parked_threads_leave_at_once_when_the_daemon_is_dropped(base: u64) {
    // Idle threads leave by themselves after 200 ms; dropped with the
    // daemon they must be gone long before that. One stall of the host
    // may spoil an attempt (the threads idle out before the drop, or the
    // poll is late), not five.
    let fastest = (0..5)
        .filter_map(|_| {
            let daemon = daemon();
            wave(&daemon, 8, u64::MAX);
            let parked = threads() > base + 1;
            drop(daemon);
            let gone = threads_fall_to(base, Duration::from_secs(10));
            gone.filter(|_| parked)
        })
        .min()
        .expect("an attempt that dropped the daemon over parked threads");
    assert!(
        fastest < Duration::from_millis(100),
        "parked threads outlived their daemon by {fastest:?}"
    );
}

fn stream_lanes_leave_with_their_session(base: u64) {
    let daemon = daemon();
    let own = threads() - base;
    let n = (ROWS * COLS) as usize;
    let matrix: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let transposed: Vec<f32> = (0..n)
        .map(|i| matrix[(i % ROWS as usize) * COLS as usize + i / ROWS as usize])
        .collect();
    let connect = |user: &str| SlateClient::new(daemon.connect(user).expect("connect"));
    let (leaving, vanishing) = (connect("leaving"), connect("vanishing"));
    for client in [&leaving, &vanishing] {
        let src = client.malloc(4 * n as u64).expect("malloc");
        client.upload_f32(src, &matrix).expect("upload");
        let outs: Vec<SlatePtr> = [1, 2]
            .into_iter()
            .map(|stream| {
                let dst = client.malloc(4 * n as u64).expect("malloc");
                transpose_on(client, stream, src, dst);
                dst
            })
            .collect();
        client.synchronize().expect("synchronize");
        for dst in outs {
            assert_eq!(client.download_f32(dst, n).expect("download"), transposed);
        }
    }
    // Each session: its own thread and one lane per non-zero stream.
    assert_eq!(threads(), base + own + 2 * 3, "two sessions, four lanes");
    leaving.disconnect().expect("disconnect");
    // The other client vanishes without a word: its session is reaped.
    drop(vanishing);
    daemon.join();
    let m = daemon.metrics();
    assert_eq!((m.reaped_sessions, m.live_allocations), (1, 0), "{m:?}");
    // Both lanes of both sessions are joined; their session threads park.
    assert!(
        threads() <= base + own + 2,
        "{} lane threads outlive their sessions",
        threads() - base - own - 2
    );
    assert!(
        threads_fall_to(base + own, Duration::from_secs(10)).is_some(),
        "{} threads still parked on an idle daemon",
        threads() - base - own
    );
}
