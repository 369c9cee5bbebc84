//! Unit tests of the daemon, through its client API and (for the
//! crash-flag test) its private arbitration frontend.

use super::*;
use crate::api::SlateClient;
use crate::arbiter::Command;
use crate::channel::{HostBuf, Request, SlatePtr};
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::perf::KernelPerf;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::GpuKernel;

/// out[i] = in[i] * 2 over a 1-D grid of 128-wide blocks.
struct Double {
    n: usize,
    input: Arc<GpuBuffer>,
    out: Arc<GpuBuffer>,
}
impl GpuKernel for Double {
    fn name(&self) -> &str {
        "double"
    }
    fn grid(&self) -> GridDim {
        GridDim::d1((self.n as u32).div_ceil(128).max(1))
    }
    fn perf(&self) -> KernelPerf {
        KernelPerf::synthetic("double", 500.0, 1024.0)
    }
    fn run_block(&self, b: BlockCoord) {
        let lo = b.x as usize * 128;
        for i in lo..(lo + 128).min(self.n) {
            self.out.store_f32(i, self.input.load_f32(i) * 2.0);
        }
    }
}

/// Doubles `n` elements of the launch's one buffer in place.
fn double_factory(n: usize) -> impl FnOnce(Vec<Arc<GpuBuffer>>) -> Arc<dyn GpuKernel> {
    move |bufs| {
        Arc::new(Double {
            n,
            input: bufs[0].clone(),
            out: bufs[0].clone(),
        }) as Arc<dyn GpuKernel>
    }
}

#[test]
fn end_to_end_malloc_copy_launch_sync_readback() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 24);
    let client = SlateClient::new(daemon.connect("tester").unwrap());
    let n = 1000usize;
    let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let in_ptr = client.malloc((n * 4) as u64).unwrap();
    let out_ptr = client.malloc((n * 4) as u64).unwrap();
    let bytes: Vec<u8> = input.iter().flat_map(|f| f.to_le_bytes()).collect();
    client.memcpy_h2d(in_ptr, 0, &bytes).unwrap();
    client
        .launch_with(
            vec![in_ptr, out_ptr],
            10,
            None,
            move |bufs| -> Arc<dyn GpuKernel> {
                Arc::new(Double {
                    n,
                    input: bufs[0].clone(),
                    out: bufs[1].clone(),
                })
            },
        )
        .unwrap();
    client.synchronize().unwrap();
    let back = client.memcpy_d2h(out_ptr, 0, n * 4).unwrap();
    for i in 0..n {
        let v = f32::from_le_bytes(back[i * 4..i * 4 + 4].try_into().unwrap());
        assert_eq!(v, i as f32 * 2.0, "element {i}");
    }
    client.free(in_ptr).unwrap();
    client.free(out_ptr).unwrap();
    assert_eq!(daemon.metrics().live_allocations, 0);
    assert_eq!(daemon.metrics().launches_served, 1);
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn streams_execute_concurrently_and_sync_fences_all() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 24);
    let client = SlateClient::new(daemon.connect("streamer").unwrap());
    let n = 4_000usize;
    // Four streams, each doubling its own buffer; plus the default
    // stream touching a fifth buffer.
    let mut ptrs = Vec::new();
    for s in 0..5u32 {
        let p = client.malloc((n * 4) as u64).unwrap();
        let init: Vec<f32> = (0..n).map(|i| (i + s as usize) as f32).collect();
        client.upload_f32(p, &init).unwrap();
        ptrs.push(p);
    }
    for (s, &p) in ptrs.iter().enumerate() {
        if s == 0 {
            client
                .launch_with(vec![p], 10, None, double_factory(n))
                .unwrap();
        } else {
            client
                .launch_on_stream(s as u32, vec![p], 10, double_factory(n))
                .unwrap();
        }
    }
    client.synchronize().unwrap();
    for (s, &p) in ptrs.iter().enumerate() {
        let out = client.download_f32(p, n).unwrap();
        for i in (0..n).step_by(397) {
            assert_eq!(out[i], 2.0 * (i + s) as f32, "stream {s} element {i}");
        }
    }
    assert_eq!(daemon.metrics().launches_served, 5);
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn same_stream_launches_are_ordered() {
    // Two doublings on one stream: must observe x4, proving in-order
    // execution within a stream.
    let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 22);
    let client = SlateClient::new(daemon.connect("ordered").unwrap());
    let n = 2_000usize;
    let p = client.malloc((n * 4) as u64).unwrap();
    client.upload_f32(p, &vec![1.0f32; n]).unwrap();
    for _ in 0..2 {
        client
            .launch_on_stream(3, vec![p], 10, double_factory(n))
            .unwrap();
    }
    client.synchronize().unwrap();
    let out = client.download_f32(p, n).unwrap();
    assert!(out.iter().step_by(101).all(|&v| v == 4.0));
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn stream_launch_error_surfaces_at_sync() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    let client = SlateClient::new(daemon.connect("oops").unwrap());
    let good = client.malloc(1024).unwrap();
    // Bad pointer on a non-zero stream: prepare fails synchronously in
    // the session, and the error waits in its list for the fence.
    client
        .launch_on_stream(7, vec![SlatePtr(0xbad)], 10, double_factory(16))
        .unwrap();
    assert!(client.synchronize().is_err());
    // Session remains healthy.
    client.upload_f32(good, &[9.0]).unwrap();
    assert_eq!(client.download_f32(good, 1).unwrap(), vec![9.0]);
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn invalid_pointer_is_rejected() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    let client = SlateClient::new(daemon.connect("tester").unwrap());
    assert!(client.memcpy_d2h(SlatePtr(0xdead), 0, 4).is_err());
    assert!(client.free(SlatePtr(0xdead)).is_err());
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn a_download_returns_len_not_the_reserved_capacity() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    let conn = daemon.connect("tester").unwrap();
    let rpc = |req: Request| {
        assert!(conn.tx.send(req).is_ok(), "the session is up");
        conn.rx.recv().unwrap()
    };
    let h2d = |ptr, offset, len| rpc(Request::MemcpyH2D { ptr, offset, len }).expect_run();
    let d2h = |ptr, len, into| {
        rpc(Request::MemcpyD2H {
            ptr,
            offset: 4,
            len,
            into,
        })
        .expect_data()
    };
    let ptr = rpc(Request::Malloc(64)).expect_ptr().unwrap();
    let host: Vec<u8> = (0..64).collect();
    // The session lends the checked run, and what is written through it
    // is what a following download reads.
    h2d(ptr, 0, 64).unwrap().copy_from_host(0, &host);
    // Reserved for all 64 bytes; 12 asked for, at offset 4.
    let bytes = d2h(ptr, 12, HostBuf::Bytes(Vec::with_capacity(64)));
    assert_eq!(bytes, Ok(HostBuf::Bytes(host[4..16].to_vec())));
    let words = d2h(ptr, 12, HostBuf::F32(Vec::with_capacity(16)));
    let want: Vec<f32> = host[4..16]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(words, Ok(HostBuf::F32(want)));
    // Whole words only into f32s: a typed error, as a misaligned offset is.
    let odd = d2h(ptr, 6, HostBuf::F32(Vec::with_capacity(2)));
    assert!(
        matches!(&odd, Err(SlateError::InvalidValue(why)) if why.contains("not word-aligned")),
        "{odd:?}"
    );

    // An upload's range is checked before any run is lent: a misaligned
    // offset and a range past the bytes asked for at `malloc` (10, not the
    // 12 backing them) are typed errors.
    let refused = |out: Result<Arc<GpuBuffer>, SlateError>, why: &str| {
        assert!(
            matches!(&out, Err(SlateError::InvalidValue(w)) if w.contains(why)),
            "{out:?}"
        );
    };
    refused(h2d(ptr, 2, 4), "not word-aligned");
    let ten = rpc(Request::Malloc(10)).expect_ptr().unwrap();
    refused(h2d(ten, 0, 12), "out of bounds");
    refused(h2d(ptr, 60, 8), "out of bounds");

    // A freed pointer is the typed error both ways, and the session serves
    // on.
    let gone = rpc(Request::Malloc(16)).expect_ptr().unwrap();
    assert_eq!(rpc(Request::Free(gone)).expect_ok(), Ok(()));
    assert_eq!(
        h2d(gone, 0, 4).map(drop),
        Err(SlateError::InvalidPointer { ptr: gone.0 })
    );
    let freed = d2h(gone, 4, HostBuf::F32(Vec::with_capacity(64)));
    assert_eq!(freed, Err(SlateError::InvalidPointer { ptr: gone.0 }));
    let whole = d2h(ptr, 60, HostBuf::Bytes(Vec::with_capacity(60)));
    assert_eq!(whole, Ok(HostBuf::Bytes(host[4..].to_vec())));
    assert!(conn.tx.send(Request::Disconnect).is_ok());
    daemon.join();
}

#[test]
fn sessions_are_isolated() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    let a = SlateClient::new(daemon.connect("alice").unwrap());
    let b = SlateClient::new(daemon.connect("bob").unwrap());
    let pa = a.malloc(64).unwrap();
    // Bob cannot touch Alice's allocation handle.
    assert!(b.memcpy_d2h(pa, 0, 4).is_err());
    a.disconnect().unwrap();
    b.disconnect().unwrap();
    daemon.join();
}

#[test]
fn dropped_client_reclaims_allocations() {
    // No Disconnect: the client's process "dies"; the session thread
    // must still reclaim its device memory.
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    {
        let client = SlateClient::new(daemon.connect("vanishing").unwrap());
        let _a = client.malloc(256).unwrap();
        let _b = client.malloc(256).unwrap();
        assert_eq!(daemon.metrics().live_allocations, 2);
        drop(client); // Connection dropped, no Disconnect request
    }
    daemon.join();
    assert_eq!(daemon.metrics().live_allocations, 0);
}

#[test]
fn profile_table_survives_daemon_restarts() {
    let dir = std::env::temp_dir().join("slate-daemon-profiles");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profiles.json");
    let n = 2_000usize;
    let run_once = |profiles| {
        let daemon = SlateDaemon::start_with_options(
            DeviceConfig::tiny(4),
            1 << 22,
            DaemonOptions {
                profiles,
                ..Default::default()
            },
        );
        let client = SlateClient::new(daemon.connect("persist").unwrap());
        let input = client.malloc((n * 4) as u64).unwrap();
        let out = client.malloc((n * 4) as u64).unwrap();
        client
            .launch_with(vec![input, out], 10, None, move |bufs| {
                Arc::new(Double {
                    n,
                    input: bufs[0].clone(),
                    out: bufs[1].clone(),
                }) as Arc<dyn GpuKernel>
            })
            .unwrap();
        client.synchronize().unwrap();
        client.disconnect().unwrap();
        daemon.join();
        daemon.profiles()
    };
    let table = run_once(crate::profile::ProfileTable::new());
    assert_eq!(table.len(), 1);
    table.save(&path).unwrap();
    // Second daemon run: seeded table, kernel is already profiled.
    let reloaded = crate::profile::ProfileTable::load(&path).unwrap();
    assert!(reloaded.get("double").is_some());
    let table2 = run_once(reloaded);
    assert_eq!(table2.len(), 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn disconnect_frees_leaked_allocations() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    let client = SlateClient::new(daemon.connect("leaky").unwrap());
    let _p1 = client.malloc(512).unwrap();
    let _p2 = client.malloc(512).unwrap();
    assert_eq!(daemon.metrics().live_allocations, 2);
    client.disconnect().unwrap();
    daemon.join();
    assert_eq!(daemon.metrics().live_allocations, 0);
}

#[test]
fn watchdog_evicts_hung_kernel_and_surfaces_timeout() {
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(4),
        1 << 22,
        crate::daemon::DaemonOptions {
            fault_plan: slate_gpu_sim::fault::FaultPlan::new().hang_kernel("double", 1),
            ..Default::default()
        },
    );
    let client = SlateClient::new(daemon.connect("hangs").unwrap());
    let n = 2_000usize;
    let p = client.malloc((n * 4) as u64).unwrap();
    client.upload_f32(p, &vec![1.0f32; n]).unwrap();
    client
        .launch_with_deadline(vec![p], 10, 50, double_factory(n))
        .unwrap();
    let err = client.synchronize().unwrap_err();
    assert!(
        matches!(err, SlateError::Timeout { elapsed_ms } if elapsed_ms >= 40),
        "expected watchdog timeout, got {err}"
    );
    assert_eq!(daemon.metrics().watchdog_evictions, 1);
    assert_eq!(daemon.metrics().arbiter_residents, 0, "SM range reclaimed");
    // The session stays healthy: the hang rule fired, a relaunch runs.
    client
        .launch_with_deadline(vec![p], 10, 5_000, double_factory(n))
        .unwrap();
    client.synchronize().unwrap();
    assert_eq!(client.download_f32(p, 1).unwrap(), vec![2.0]);
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn injected_launch_fault_is_structured() {
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(2),
        1 << 20,
        crate::daemon::DaemonOptions {
            fault_plan: slate_gpu_sim::fault::FaultPlan::new().fault_launch("double", 1),
            ..Default::default()
        },
    );
    let client = SlateClient::new(daemon.connect("faulty").unwrap());
    let p = client.malloc(1024).unwrap();
    client
        .launch_with(vec![p], 10, None, double_factory(16))
        .unwrap();
    let err = client.synchronize().unwrap_err();
    assert!(matches!(err, SlateError::KernelFault(_)), "{err}");
    assert_eq!(daemon.metrics().faults_fired, 1);
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn sync_reports_first_error_and_counts_the_rest() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    let client = SlateClient::new(daemon.connect("multi-oops").unwrap());
    // Two bad launches; prepare fails in request order on the session
    // thread, so the replies are ordered too.
    for bad in [0xbad1u64, 0xbad2] {
        client
            .launch_on_stream(5, vec![SlatePtr(bad)], 10, double_factory(16))
            .unwrap();
    }
    let err = client.synchronize().unwrap_err();
    assert_eq!(
        err,
        SlateError::InvalidPointer { ptr: 0xbad1 },
        "first error wins"
    );
    assert_eq!(client.last_sync_failures(), 2);
    // A clean sync resets the count.
    client.synchronize().unwrap();
    assert_eq!(client.last_sync_failures(), 0);
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn injected_channel_drop_reaps_the_session() {
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(2),
        1 << 20,
        crate::daemon::DaemonOptions {
            fault_plan: slate_gpu_sim::fault::FaultPlan::new().drop_channel(2),
            ..Default::default()
        },
    );
    let client = SlateClient::new(daemon.connect("doomed").unwrap());
    let _p = client.malloc(256).unwrap();
    assert_eq!(daemon.metrics().live_allocations, 1);
    // Second request hits the injected drop: the daemon severs the
    // channel as if the process died.
    let err = client.malloc(256).unwrap_err();
    assert_eq!(err, SlateError::Disconnected);
    daemon.join();
    assert_eq!(daemon.metrics().live_allocations, 0, "allocations reaped");
    assert_eq!(daemon.metrics().reaped_sessions, 1);
}

#[test]
fn dropped_client_counts_as_reaped() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    drop(SlateClient::new(daemon.connect("ghost").unwrap()));
    daemon.join();
    assert_eq!(daemon.metrics().reaped_sessions, 1);
    // A clean disconnect is not a reap.
    let c = SlateClient::new(daemon.connect("polite").unwrap());
    c.disconnect().unwrap();
    daemon.join();
    assert_eq!(daemon.metrics().reaped_sessions, 1);
}

#[test]
fn injected_memcpy_stall_delays_the_copy() {
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(2),
        1 << 20,
        crate::daemon::DaemonOptions {
            fault_plan: slate_gpu_sim::fault::FaultPlan::new().stall_memcpy(1, 40),
            ..Default::default()
        },
    );
    let client = SlateClient::new(daemon.connect("stalled").unwrap());
    let p = client.malloc(64).unwrap();
    let t0 = Instant::now();
    client.upload_f32(p, &[1.0, 2.0]).unwrap();
    assert!(
        t0.elapsed() >= Duration::from_millis(30),
        "stall was injected: {:?}",
        t0.elapsed()
    );
    // Copies still land correctly after the stall.
    assert_eq!(client.download_f32(p, 2).unwrap(), vec![1.0, 2.0]);
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn shutdown_refuses_new_connections_and_drains() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    let client = SlateClient::new(daemon.connect("last-tenant").unwrap());
    assert!(!daemon.is_shutting_down());
    let d2 = daemon.clone();
    let drainer = std::thread::spawn(move || d2.shutdown(Duration::from_secs(5)));
    // Existing sessions keep being served during the drain.
    while !daemon.is_shutting_down() {
        std::thread::yield_now();
    }
    let p = client.malloc(64).unwrap();
    client.upload_f32(p, &[3.0]).unwrap();
    match daemon.connect("too-late") {
        Err(SlateError::ShuttingDown) => {}
        Err(e) => panic!("expected ShuttingDown, got {e}"),
        Ok(_) => panic!("connect must be refused during shutdown"),
    }
    client.disconnect().unwrap();
    assert!(drainer.join().unwrap(), "drain completed");
    daemon.join();
    assert_eq!(daemon.metrics().live_allocations, 0);
}

#[test]
fn shutdown_drain_deadline_expires_with_sessions_left() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    let client = SlateClient::new(daemon.connect("lingerer").unwrap());
    // The client never disconnects within the deadline.
    assert!(!daemon.shutdown(Duration::from_millis(30)));
    // The drain keeps progressing afterwards.
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn nothing_fed_after_a_crash_reaches_the_core_or_the_wal() {
    let dir = std::env::temp_dir().join(format!("slate-daemon-unfed-{}", std::process::id()));
    let daemon = durable_daemon(&dir, true);
    let client = SlateClient::new(daemon.connect("doomed").unwrap());
    client.malloc(64).unwrap();
    let _scene = daemon.crash();
    let arb = &daemon.shared.arb;
    // (the whole layer as slot-body bytes, every WAL/snapshot file's bytes)
    let state = || {
        let layer = arb.inner.lock().layer.snapshot();
        let files: BTreeMap<_, _> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|f| (f.clone(), std::fs::read(f).unwrap()))
            .collect();
        (layer, files)
    };
    let before = state();
    let active = arb
        .inner
        .lock()
        .layer
        .core_stats()
        .admission
        .active_sessions;
    assert_eq!(active, 1, "the session was fed before the kill");
    arb.feed(&[ArbEvent::DrainBegan]);
    arb.feed(&[ArbEvent::DeadlineTick]);
    let unfed = arb.submit(
        &[ArbEvent::SessionOpened { session: 99 }],
        99,
        Some(WalRecord::SessionClosed { session: 99 }),
    );
    assert_eq!(unfed, Ok(false));
    assert_eq!(state(), before);
    std::fs::remove_dir_all(&dir).ok();
}

/// One block that holds its SMs until `open` is raised.
struct HeldOpen {
    open: Arc<AtomicBool>,
}
impl GpuKernel for HeldOpen {
    fn name(&self) -> &str {
        "held-open"
    }
    fn grid(&self) -> GridDim {
        GridDim::d1(1)
    }
    fn perf(&self) -> KernelPerf {
        KernelPerf::synthetic("held-open", 500.0, 1024.0)
    }
    fn run_block(&self, _: BlockCoord) {
        while !self.open.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Polls `ready` until it holds; panics after 10 s.
fn await_true(what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_kernel_queued_behind_a_solo_one_waits_for_its_grant_and_gets_it() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 20);
    let solo = SlateClient::new(daemon.connect("solo").unwrap());
    let queued = SlateClient::new(daemon.connect("queued").unwrap());
    let open = Arc::new(AtomicBool::new(false));
    let held = open.clone();
    solo.launch_solo_with(vec![], 1, None, move |_| {
        Arc::new(HeldOpen { open: held }) as Arc<dyn GpuKernel>
    })
    .unwrap();
    await_true("the solo kernel's dispatch", || {
        daemon.metrics().arbiter_residents == 1
    });
    let n = 1_000usize;
    let p = queued.malloc((n * 4) as u64).unwrap();
    queued.upload_f32(p, &vec![1.5f32; n]).unwrap();
    queued
        .launch_with(vec![p], 10, None, double_factory(n))
        .unwrap();
    // A pinned-solo resident takes no partner: the launch waits for a
    // grant, counted as the arbiter's one grant waiter.
    let arb = &daemon.shared.arb;
    await_true("a grant waiter", || arb.grant_waiters() == 1);
    open.store(true, Ordering::Release);
    solo.synchronize().unwrap();
    queued.synchronize().unwrap();
    assert!(queued.download_f32(p, n).unwrap().iter().all(|&v| v == 3.0));
    assert_eq!(arb.grant_waiters(), 0);
    assert_eq!(daemon.metrics().launches_served, 2);
    solo.disconnect().unwrap();
    queued.disconnect().unwrap();
    daemon.join();
}

fn durable_opts(dir: &std::path::Path, keep_all: bool) -> DaemonOptions {
    DaemonOptions {
        durability: Some(DurabilityOptions {
            dir: dir.to_path_buf(),
            snapshot_every: 8,
            keep_all,
        }),
        ..Default::default()
    }
}

fn durable_daemon(dir: &std::path::Path, keep_all: bool) -> Arc<SlateDaemon> {
    std::fs::remove_dir_all(dir).ok();
    SlateDaemon::start_with_options(DeviceConfig::tiny(2), 1 << 20, durable_opts(dir, keep_all))
}

/// connect → malloc → launch → synchronize → free → disconnect; returns
/// the session's id.
fn lifecycle(daemon: &Arc<SlateDaemon>) -> u64 {
    let client = SlateClient::new(daemon.connect("churn").unwrap());
    let session = client.session();
    let p = client.malloc(64).unwrap();
    client
        .launch_with(vec![p], 10, None, double_factory(16))
        .unwrap();
    client.synchronize().unwrap();
    client.free(p).unwrap();
    client.disconnect().unwrap();
    session
}

/// Blocks until at most `n` sessions are live — every other one torn
/// down, its `SessionClosed` in the WAL.
fn wait_for_sessions(daemon: &SlateDaemon, n: usize) {
    let mut active = daemon.shared.active_sessions.lock();
    while *active > n {
        daemon.shared.session_drained.wait(&mut active);
    }
}

/// The slot holding the newest anchor under `dir`: its index, its
/// snapshot, and the size of its body.
fn newest_slot(dir: &std::path::Path) -> (usize, crate::durability::DurableSnapshot, u64) {
    use crate::durability::snapshot::{decode_slot, load_slot, slot_path};
    (0..2)
        .filter_map(|slot| {
            let bytes = std::fs::read(slot_path(dir, slot)).unwrap();
            let size = decode_slot(&bytes).ok()?.1.len() as u64;
            Some((slot, load_slot(&bytes).expect("slot loads"), size))
        })
        .max_by_key(|(_, snap, _)| (snap.segment, snap.offset))
        .expect("an anchor")
}

#[test]
fn a_checkpoint_holds_the_open_sessions_however_many_have_closed() {
    use crate::durability::wal::list_segments;
    let dir = std::env::temp_dir().join(format!("slate-daemon-churn-{}", std::process::id()));
    let daemon = durable_daemon(&dir, false);
    let resident = SlateClient::new(daemon.connect("resident").unwrap());
    resident.malloc(64).unwrap();
    // The newest anchor of the two slots, and its body's size (a slot
    // file is page-padded). Compaction is on: one segment.
    let newest = || {
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1, "{segments:?}");
        newest_slot(&dir)
    };
    // Whatever the heartbeat has done, no slot awaits its sync when a
    // lifecycle starts, so a checkpoint the last one brought due runs
    // inside the next.
    let durability = daemon.shared.arb.durability.clone().unwrap();
    let mut last = 0;
    let mut size_after_10 = 0;
    for i in 1..=300 {
        last = lifecycle(&daemon);
        durability.sync_checkpoint();
        if i == 10 {
            wait_for_sessions(&daemon, 1);
            size_after_10 = newest().2;
        }
    }
    wait_for_sessions(&daemon, 1);
    let (_, snap, size) = newest();
    // 300 lifecycles stay inside the first segment: the anchor is a
    // position in it, past many cadences' worth of appends.
    assert_eq!(snap.segment, 0);
    assert!(snap.offset > 50_000, "checkpoints ran: {}", snap.offset);
    // The cadence may have fallen inside the last lifecycle; nothing
    // older than that is in the snapshot, and the live mirror holds the
    // resident alone.
    let sessions: Vec<u64> = snap.meta.sessions.keys().copied().collect();
    assert!(
        sessions.contains(&resident.session())
            && sessions
                .iter()
                .all(|s| [resident.session(), last].contains(s)),
        "snapshot holds {sessions:?}"
    );
    let live: Vec<u64> = durability.meta().sessions.keys().copied().collect();
    assert_eq!(live, [resident.session()]);
    assert_eq!(durability.meta().next_session, last + 1, "ids stay unique");
    // One in-flight session's record and a few digits of counters are
    // all that may differ; the parent grew by 200 B per lifecycle.
    assert!(
        size <= size_after_10 + 512,
        "snapshot grew with closed sessions: {size_after_10} B after 10 lifecycles, {size} B after 300"
    );
    assert_eq!(daemon.wal_io_errors(), 0);
    resident.disconnect().unwrap();
    daemon.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery after the newest slot was torn reads the other one, and the
/// recovered daemon's first anchor goes over the torn slot — never over
/// the one recovery read, which is the only one known good until that
/// anchor is synced. (By segment parity the anchor would land on it: the
/// run is made to end with its newest anchor in slot 0, so recovery reads
/// slot 1, and the new segment is segment 1.)
#[test]
fn a_recovered_daemon_never_overwrites_the_slot_it_recovered_from() {
    use crate::durability::snapshot::slot_path;
    let dir = std::env::temp_dir().join(format!("slate-daemon-slots-{}", std::process::id()));
    let daemon = durable_daemon(&dir, true);
    let resident = SlateClient::new(daemon.connect("resident").unwrap());
    let p = resident.malloc(64).unwrap();
    resident.upload_f32(p, &[1.0, 2.0]).unwrap();
    for _ in 0..4 {
        lifecycle(&daemon);
    }
    // Quiesced, the daemon logs nothing, so the slots hold still.
    wait_for_sessions(&daemon, 1);
    while newest_slot(&dir).0 != 0 {
        lifecycle(&daemon);
        wait_for_sessions(&daemon, 1);
    }
    let token = resident.resume_token();
    let scene = daemon.crash();
    let (torn, snap, _) = newest_slot(&dir);
    assert_eq!(torn, 0);
    assert!(snap.offset > 0, "a checkpoint ran: {}", snap.offset);
    let read = torn ^ 1;
    let path = slot_path(&dir, torn);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[crate::durability::snapshot::SLOT_HEADER_LEN + 7] ^= 0x40;
    std::fs::write(&path, bytes).unwrap();
    let before = std::fs::read(slot_path(&dir, read)).unwrap();

    let recovered = SlateDaemon::recover(scene, durable_opts(&dir, true)).expect("recover");
    assert!(
        std::fs::read(slot_path(&dir, read)).unwrap() == before,
        "the slot recovery read is intact"
    );
    let (anchored, anchor, _) = newest_slot(&dir);
    assert_eq!(
        (anchored, anchor.segment, anchor.offset),
        (torn, snap.segment + 1, 0)
    );
    let resumed = SlateClient::new(recovered.resume(token).expect("resume"));
    assert_eq!(resumed.download_f32(p, 2).unwrap(), vec![1.0, 2.0]);
    resumed.disconnect().unwrap();
    assert_eq!(recovered.wal_io_errors(), 0);
    recovered.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery leaves a corrupt segment as it found it — its bytes past the
/// damage may be all an operator has of them — and reports it; replay
/// stops at the damaged frame.
#[test]
fn recovery_reports_a_corrupt_segment_and_leaves_it_in_place() {
    use crate::durability::wal::list_segments;
    let dir = std::env::temp_dir().join(format!("slate-daemon-corrupt-{}", std::process::id()));
    let daemon = durable_daemon(&dir, true);
    let client = SlateClient::new(daemon.connect("damaged").unwrap());
    client.malloc(64).unwrap();
    let scene = daemon.crash();
    let (k, path) = list_segments(&dir).unwrap().pop().unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // The last byte is the payload of the last frame, the `Alloc`.
    *bytes.last_mut().unwrap() ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let recovered = SlateDaemon::recover(scene, durable_opts(&dir, true)).expect("recover");
    assert!(
        matches!(recovered.recovery_issues(), [(s, WalIssue::Corrupt { .. })] if *s == k),
        "{:?}",
        recovered.recovery_issues()
    );
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "left as it was");
    let meta = recovered.shared.arb.durability.as_ref().unwrap().meta();
    assert!(meta.sessions[&client.session()].allocs.is_empty());
    recovered.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_session_stays_closed() {
    let dir = std::env::temp_dir().join(format!("slate-daemon-closed-{}", std::process::id()));
    let daemon = durable_daemon(&dir, true);
    let open = SlateClient::new(daemon.connect("stays").unwrap());
    let p = open.malloc(64).unwrap();
    open.upload_f32(p, &[7.0]).unwrap();
    let leaver = SlateClient::new(daemon.connect("leaves").unwrap());
    let (stays, leaves) = (open.resume_token(), leaver.resume_token());
    leaver.malloc(64).unwrap();
    leaver.disconnect().unwrap();
    wait_for_sessions(&daemon, 1);
    let durability = daemon.shared.arb.durability.clone().unwrap();
    let sessions = || {
        durability
            .meta()
            .sessions
            .keys()
            .copied()
            .collect::<Vec<_>>()
    };
    assert_eq!(sessions(), [stays.session]);
    // A straggler — the completion of a launch whose client is gone —
    // is logged, and does not bring the session back.
    daemon.shared.wal(WalRecord::LaunchDone {
        session: leaves.session,
        launch_id: 0,
    });
    assert_eq!(sessions(), [stays.session]);

    let scene = daemon.crash();
    let recovered = SlateDaemon::recover(scene, durable_opts(&dir, true)).expect("recover");
    // Replaying the log — straggler included — agrees with the mirror.
    let replayed = recovered.shared.arb.durability.as_ref().unwrap().meta();
    assert_eq!(
        replayed.sessions.keys().collect::<Vec<_>>(),
        [&stays.session]
    );
    match recovered.resume(leaves) {
        Err(SlateError::ResumeRejected(why)) => assert!(why.contains("not open"), "{why}"),
        Err(other) => panic!("expected ResumeRejected, got {other}"),
        Ok(_) => panic!("a closed session was resumed"),
    }
    let resumed = SlateClient::new(recovered.resume(stays).expect("the open one resumes"));
    assert_eq!(resumed.download_f32(p, 1).unwrap(), vec![7.0]);
    // A new session's id is past every id ever given out.
    let fresh = recovered.connect("fresh").unwrap();
    assert!(fresh.session > leaves.session.max(stays.session));
    drop(fresh);
    resumed.disconnect().unwrap();
    recovered.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_device_daemon_routes_sessions_and_records_placement() {
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(4),
        1 << 22,
        DaemonOptions {
            devices: vec![DeviceConfig::tiny(4), DeviceConfig::tiny(4)],
            record_arbiter: true,
            ..Default::default()
        },
    );
    let n = 2_000usize;
    let clients: Vec<_> = (0..2)
        .map(|i| SlateClient::new(daemon.connect(&format!("tenant-{i}")).unwrap()))
        .collect();
    for client in &clients {
        let p = client.malloc((n * 4) as u64).unwrap();
        client.upload_f32(p, &vec![1.0f32; n]).unwrap();
        client
            .launch_with(vec![p], 10, None, double_factory(n))
            .unwrap();
        client.synchronize().unwrap();
        assert_eq!(client.download_f32(p, 1).unwrap(), vec![2.0]);
    }
    let stats = daemon.metrics().placement;
    assert_eq!(stats.devices, 2);
    assert_eq!(stats.sessions_routed, 2, "both sessions were routed");
    for client in clients {
        client.disconnect().unwrap();
    }
    daemon.join();
    // The recorded placement log verifies and splits into per-device
    // logs; round-robin put one session (and its dispatch) on each.
    let log = daemon.placement_log().expect("recording was enabled");
    crate::placement::replay::verify(&log).expect("placement log replays identically");
    let cores = crate::placement::replay::split(&log).expect("log splits per device");
    assert_eq!(cores.len(), 2);
    for (d, core_log) in cores.iter().enumerate() {
        assert!(
            core_log.batches.iter().any(|b| b
                .commands
                .iter()
                .any(|c| matches!(c, Command::Dispatch { .. }))),
            "device {d} dispatched its session's kernel"
        );
        crate::arbiter::replay::verify(core_log)
            .unwrap_or_else(|e| panic!("per-device log {d} replays: {e}"));
    }
}

#[test]
fn a_fleet_admits_sessions_per_device() {
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(4),
        1 << 20,
        DaemonOptions {
            devices: vec![DeviceConfig::tiny(4), DeviceConfig::tiny(4)],
            placement: PlacementPolicy::RoundRobin,
            admission: AdmissionLimits {
                max_sessions: Some(1),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // Each device's core admits one session: round robin fills both.
    let first = SlateClient::new(daemon.connect("first").unwrap());
    let second = SlateClient::new(daemon.connect("second").unwrap());
    // The third lands on device 0 again, whose core is full.
    assert!(matches!(
        daemon.connect("third"),
        Err(SlateError::Overloaded { .. })
    ));
    // Round robin offers device 1 next: freeing it admits a new session.
    second.disconnect().unwrap();
    let fourth = SlateClient::new(daemon.connect("fourth").unwrap());
    let admission = daemon.metrics().admission;
    assert_eq!(admission.active_sessions, 2);
    assert_eq!(admission.sessions_rejected, 1);
    first.disconnect().unwrap();
    fourth.disconnect().unwrap();
    daemon.join();
}

#[test]
fn recorded_daemon_run_replays_identically() {
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(4),
        1 << 22,
        DaemonOptions {
            record_arbiter: true,
            ..Default::default()
        },
    );
    let client = SlateClient::new(daemon.connect("recorded").unwrap());
    let n = 2_000usize;
    let p = client.malloc((n * 4) as u64).unwrap();
    client.upload_f32(p, &vec![1.0f32; n]).unwrap();
    for _ in 0..2 {
        client
            .launch_with(vec![p], 10, None, double_factory(n))
            .unwrap();
    }
    client.synchronize().unwrap();
    client.disconnect().unwrap();
    daemon.join();
    assert_eq!(daemon.metrics().lock_recoveries, 0, "healthy run");
    let log = daemon.placement_log().expect("recording was enabled");
    let log = &crate::placement::replay::split(&log).expect("log splits")[0];
    assert!(
        log.batches.iter().any(|b| b
            .commands
            .iter()
            .any(|c| matches!(c, Command::Dispatch { .. }))),
        "the log must contain real dispatches"
    );
    crate::arbiter::replay::verify(log).expect("daemon log replays identically");
}

#[test]
fn a_session_past_65_535_is_served_and_torn_down() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    *daemon.next_session.lock() = 65_535;
    let client = SlateClient::new(daemon.connect("late").unwrap());
    assert_eq!(client.session(), 65_536);
    let p = client.malloc(64).unwrap();
    client.upload_f32(p, &[1.0; 16]).unwrap();
    client
        .launch_with(vec![p], 10, None, double_factory(16))
        .unwrap();
    client.synchronize().unwrap();
    assert_eq!(client.download_f32(p, 16).unwrap(), vec![2.0; 16]);
    assert_eq!(daemon.metrics().launches_served, 1);
    client.disconnect().unwrap();
    daemon.join();
    let m = daemon.metrics();
    assert_eq!(m.arbiter_residents, 0, "{m:?}");
    assert_eq!(m.live_allocations, 0, "{m:?}");
}

#[test]
fn an_evicted_launch_is_not_counted_as_served() {
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(4),
        1 << 22,
        DaemonOptions {
            fault_plan: slate_gpu_sim::fault::FaultPlan::new().hang_kernel("double", 1),
            ..Default::default()
        },
    );
    let client = SlateClient::new(daemon.connect("hangs").unwrap());
    let p = client.malloc(64).unwrap();
    client
        .launch_with_deadline(vec![p], 10, 20, double_factory(16))
        .unwrap();
    let err = client.synchronize().unwrap_err();
    assert!(matches!(err, SlateError::Timeout { .. }), "{err}");
    let m = daemon.metrics();
    assert_eq!(m.watchdog_evictions, 1);
    assert_eq!(m.launches_served, 0, "a timed-out launch was not served");
    client.disconnect().unwrap();
    daemon.join();
}

/// The completion watermark counts the launches that ran to completion,
/// on the default stream and on a lane, bumped before the fence that
/// follows them is acknowledged; a launch refused before admission, one
/// that faults and one the watchdog evicts count in none.
#[test]
fn the_watermark_counts_completed_launches_and_nothing_else() {
    use crate::channel::LaunchCmd;
    use slate_gpu_sim::fault::FaultPlan;
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(2),
        1 << 20,
        DaemonOptions {
            fault_plan: FaultPlan::new()
                .fault_launch("double", 2)
                .hang_kernel("double", 3),
            ..Default::default()
        },
    );
    let conn = daemon.connect("watermark").unwrap();
    let send = |req: Request| assert!(conn.tx.send(req).is_ok(), "the session is up");
    send(Request::Malloc(64));
    let p = conn.rx.recv().unwrap().expect_ptr().unwrap();
    let launch = |launch_id, stream, ptr| {
        let cmd = LaunchCmd {
            launch_id,
            ptrs: vec![ptr],
            task_size: 10,
            stream,
            deadline_ms: Some(20),
            ..LaunchCmd::default()
        };
        send(Request::Launch(cmd, Box::new(double_factory(16))));
    };
    launch(0, 0, p); // completes on the session thread
    launch(1, 1, p); // injected fault, on lane 1
    launch(2, 1, p); // hangs until the watchdog evicts it
    launch(3, 1, p); // completes on lane 1
    launch(4, 2, SlatePtr(0xbad)); // refused before admission
    send(Request::Sync);
    let errors = conn.rx.recv().unwrap().expect_fenced().unwrap();
    assert_eq!(errors.len(), 3, "{errors:?}");
    assert_eq!(conn.done.load(Ordering::Acquire), 2);
    send(Request::Disconnect);
    assert!(matches!(conn.rx.recv().unwrap(), Response::Ok));
    daemon.join();
}

/// Doubles `out[0]` once `gate` opens: a launch the test holds in flight.
struct Gated {
    gate: Arc<AtomicBool>,
    out: Arc<GpuBuffer>,
}
impl GpuKernel for Gated {
    fn name(&self) -> &str {
        "gated"
    }
    fn grid(&self) -> GridDim {
        GridDim::d1(1)
    }
    fn perf(&self) -> KernelPerf {
        KernelPerf::synthetic("gated", 500.0, 1024.0)
    }
    fn run_block(&self, _: BlockCoord) {
        while !self.gate.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.out.store_f32(0, self.out.load_f32(0) * 2.0);
    }
}

/// A launch held in flight on a stream lane keeps `synchronize` waiting
/// until the lane finishes it, although the session thread is idle and
/// every default-stream launch completed: the watermark moves only when
/// the lane's launch completes, so the fence cannot be skipped early.
#[test]
fn a_launch_held_on_a_stream_lane_keeps_synchronize_waiting() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    let client = SlateClient::new(daemon.connect("held").unwrap());
    let p = client.malloc(4).unwrap();
    client.upload_f32(p, &[1.0]).unwrap();
    client
        .launch_with(vec![p], 10, None, double_factory(1))
        .unwrap();
    let gate = Arc::new(AtomicBool::new(false));
    let held = gate.clone();
    client
        .launch_on_stream(1, vec![p], 1, move |bufs| {
            Arc::new(Gated {
                gate: held,
                out: bufs[0].clone(),
            }) as Arc<dyn GpuKernel>
        })
        .unwrap();
    let opener = {
        let gate = gate.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            gate.store(true, Ordering::Release);
        })
    };
    let t0 = Instant::now();
    client.synchronize().unwrap();
    assert!(
        t0.elapsed() >= Duration::from_millis(25),
        "synchronize returned while the lane's launch was held: {:?}",
        t0.elapsed()
    );
    assert_eq!(client.download_f32(p, 1).unwrap(), vec![4.0]);
    opener.join().unwrap();
    client.disconnect().unwrap();
    daemon.join();
}

/// A launch the session thread refuses or fails gets no reply of its own:
/// the synchronous calls after it read their own replies, and the next
/// `synchronize` returns the launch's error as the one failure of its
/// fence. Covers a pointer refused before admission, a default-stream
/// launch an injected fault fails, and a launch shed at admission.
#[test]
fn a_refused_or_failed_launch_leaves_every_later_reply_in_step() {
    use slate_gpu_sim::fault::FaultPlan;
    type Expect = fn(&SlateError) -> bool;
    let cases: [(DaemonOptions, bool, Expect); 3] = [
        (DaemonOptions::default(), true, |e| {
            *e == SlateError::InvalidPointer { ptr: 0xbad }
        }),
        (
            DaemonOptions {
                fault_plan: FaultPlan::new().fault_launch("double", 1),
                ..Default::default()
            },
            false,
            |e| matches!(e, SlateError::KernelFault(_)),
        ),
        (
            DaemonOptions {
                admission: AdmissionLimits {
                    max_pending_per_session: Some(0),
                    ..Default::default()
                },
                ..Default::default()
            },
            false,
            |e| matches!(e, SlateError::Overloaded { .. }),
        ),
    ];
    for (opts, bad_ptr, expected) in cases {
        let daemon = SlateDaemon::start_with_options(DeviceConfig::tiny(2), 1 << 20, opts);
        let client = SlateClient::new(daemon.connect("in-step").unwrap());
        let data = client.malloc(8).unwrap();
        client.upload_f32(data, &[1.5, -2.0]).unwrap();
        let work = if bad_ptr {
            SlatePtr(0xbad)
        } else {
            client.malloc(64).unwrap()
        };
        client
            .launch_with(vec![work], 10, None, double_factory(16))
            .unwrap();
        let fresh = client.malloc(16).unwrap();
        assert!(fresh.0 > data.0 && fresh != work, "{fresh:?}");
        client.free(fresh).unwrap();
        assert_eq!(
            client.free(fresh),
            Err(SlateError::InvalidPointer { ptr: fresh.0 })
        );
        let bytes: Vec<u8> = [1.5f32, -2.0]
            .iter()
            .flat_map(|f| f.to_le_bytes())
            .collect();
        assert_eq!(client.memcpy_d2h(data, 0, 8).unwrap(), bytes);
        let err = client.synchronize().unwrap_err();
        assert!(expected(&err), "{err:?}");
        assert_eq!(client.last_sync_failures(), 1);
        client.synchronize().unwrap();
        client.disconnect().unwrap();
        daemon.join();
    }
}
