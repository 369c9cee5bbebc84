//! Fault-tolerance integration: the daemon must survive misbehaving
//! clients. Covered here: session reaping after a client vanishes without
//! `Disconnect`, watchdog eviction of a hung kernel while its co-runner
//! keeps executing, containment of client code that panics on a daemon
//! thread, graceful shutdown with drain, and the combined crash-plus-hang
//! recovery scenario.

use slate_core::api::{connect_with_retry, RetryPolicy, SlateClient};
use slate_core::daemon::{DaemonOptions, SlateDaemon};
use slate_core::error::SlateError;
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::device::DeviceConfig;
use slate_gpu_sim::fault::FaultPlan;
use slate_gpu_sim::perf::KernelPerf;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::GpuKernel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Adds `delta` to every element, with a configurable performance profile
/// (to steer the arbiter's classification).
struct AddKernel {
    n: usize,
    delta: f32,
    perf: KernelPerf,
    buf: Arc<GpuBuffer>,
}

impl GpuKernel for AddKernel {
    fn name(&self) -> &str {
        &self.perf.name
    }
    fn grid(&self) -> GridDim {
        GridDim::d1((self.n as u32).div_ceil(64).max(1))
    }
    fn perf(&self) -> KernelPerf {
        self.perf.clone()
    }
    fn run_block(&self, b: BlockCoord) {
        let lo = b.x as usize * 64;
        for i in lo..(lo + 64).min(self.n) {
            self.buf.store_f32(i, self.buf.load_f32(i) + self.delta);
        }
    }
}

/// Compute-light profile (classifies L_C — a willing co-runner).
fn lc_perf(name: &str) -> KernelPerf {
    let mut p = KernelPerf::synthetic(name, 2_000.0, 0.0);
    p.mem_request_bytes_per_block = 1_000.0;
    p.dram_bytes_inorder = 1_000.0;
    p.dram_bytes_scattered = 1_000.0;
    p.max_concurrent_blocks = Some(32);
    p
}

/// Memory-heavy profile (classifies H_M — pairs with L_C).
fn hm_perf(name: &str) -> KernelPerf {
    let mut p = KernelPerf::synthetic(name, 300.0, 0.0);
    p.mem_request_bytes_per_block = 40_000.0;
    p.dram_bytes_inorder = 33_000.0;
    p.dram_bytes_scattered = 34_000.0;
    p
}

fn launch_add(
    client: &SlateClient,
    ptr: slate_core::channel::SlatePtr,
    n: usize,
    delta: f32,
    perf: KernelPerf,
) {
    client
        .launch_with(vec![ptr], 5, None, move |bufs| {
            Arc::new(AddKernel {
                n,
                delta,
                perf,
                buf: bufs[0].clone(),
            }) as Arc<dyn GpuKernel>
        })
        .unwrap();
}

/// Polls `cond` for up to five seconds; panics with `what` on timeout.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn vanished_client_is_reaped_and_corunner_finishes() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(8), 1 << 24);
    let n = 4_000usize;

    // Client A: leaks two allocations and queues work, then its process
    // "dies" — the client struct is dropped without Disconnect.
    let a = SlateClient::new(daemon.connect("crasher").unwrap());
    let pa = a.malloc((n * 4) as u64).unwrap();
    let _leak = a.malloc(1 << 16).unwrap();
    a.upload_f32(pa, &vec![0.0f32; n]).unwrap();
    launch_add(&a, pa, n, 1.0, hm_perf("doomed-hm"));
    drop(a);

    // Client B keeps running through the crash.
    let b = SlateClient::new(daemon.connect("survivor").unwrap());
    let pb = b.malloc((n * 4) as u64).unwrap();
    b.upload_f32(pb, &vec![0.0f32; n]).unwrap();
    for _ in 0..4 {
        launch_add(&b, pb, n, 1.0, lc_perf("survivor-lc"));
    }
    b.synchronize().unwrap();
    assert_eq!(b.download_f32(pb, n).unwrap(), vec![4.0f32; n]);

    // The daemon noticed the vanished sender: session reaped, both leaked
    // allocations freed, SM residency released.
    wait_for("session reap", || daemon.metrics().reaped_sessions == 1);
    wait_for("allocation reclaim", || {
        daemon.metrics().live_allocations == 1
    });
    assert_eq!(daemon.metrics().arbiter_residents, 0);

    b.free(pb).unwrap();
    b.disconnect().unwrap();
    daemon.join();
    assert_eq!(daemon.metrics().live_allocations, 0);
}

#[test]
fn reap_races_queued_lane_launches_without_leaking() {
    // The client vanishes while several launches are still queued on a
    // stream lane. The reap must drain the lane (completing every
    // admitted launch so the admission counters balance), free the
    // session's allocations, release arbiter residency, and leave the
    // co-runner untouched.
    let daemon = SlateDaemon::start(DeviceConfig::tiny(8), 1 << 24);
    let n = 4_000usize;

    let a = SlateClient::new(daemon.connect("vanishes-mid-queue").unwrap());
    let pa = a.malloc((n * 4) as u64).unwrap();
    a.upload_f32(pa, &vec![0.0f32; n]).unwrap();
    for _ in 0..4 {
        let perf = hm_perf("queued-hm");
        a.launch_on_stream(1, vec![pa], 5, move |bufs| {
            Arc::new(AddKernel {
                n,
                delta: 1.0,
                perf,
                buf: bufs[0].clone(),
            }) as Arc<dyn GpuKernel>
        })
        .unwrap();
    }
    // Channel severed with the lane mid-burst: the race under test.
    drop(a);

    // The co-runner is served correctly throughout the reap.
    let b = SlateClient::new(daemon.connect("bystander").unwrap());
    let pb = b.malloc((n * 4) as u64).unwrap();
    b.upload_f32(pb, &vec![0.0f32; n]).unwrap();
    for _ in 0..3 {
        launch_add(&b, pb, n, 2.0, lc_perf("bystander-lc"));
    }
    b.synchronize().unwrap();
    assert_eq!(b.download_f32(pb, n).unwrap(), vec![6.0f32; n]);

    wait_for("session reap", || daemon.metrics().reaped_sessions == 1);
    wait_for("allocation reclaim", || {
        daemon.metrics().live_allocations == 1
    });
    // The lane drained every queued launch before the reap finished:
    // nothing left pending, and every admission was completed.
    wait_for("queue drain", || daemon.metrics().queue.depth == 0);
    let m = daemon.metrics();
    assert_eq!(
        m.queue.admitted,
        m.admission.launches_completed + m.admission.launches_failed,
        "{m:?}"
    );
    assert_eq!(m.queue.admitted, 7, "4 queued + 3 co-runner launches");
    assert_eq!(m.arbiter_residents, 0);

    b.free(pb).unwrap();
    b.disconnect().unwrap();
    daemon.join();
    assert_eq!(daemon.metrics().live_allocations, 0);
}

#[test]
fn watchdog_evicts_hung_kernel_while_corunner_completes() {
    // The first launch of "hm-hang" never returns from its blocks; the
    // watchdog must evict it via the retreat flag without disturbing the
    // co-running client.
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(8),
        1 << 24,
        DaemonOptions {
            fault_plan: FaultPlan::new().hang_kernel("hm-hang", 1),
            ..Default::default()
        },
    );
    let n = 4_000usize;

    let hung = SlateClient::new(daemon.connect("hangs").unwrap());
    let ph = hung.malloc((n * 4) as u64).unwrap();
    hung.upload_f32(ph, &vec![0.0f32; n]).unwrap();
    let perf = hm_perf("hm-hang");
    hung.launch_with_deadline(vec![ph], 5, 60, move |bufs| {
        Arc::new(AddKernel {
            n,
            delta: 1.0,
            perf,
            buf: bufs[0].clone(),
        }) as Arc<dyn GpuKernel>
    })
    .unwrap();

    // The co-runner launches while the hung kernel occupies its partition.
    let ok = SlateClient::new(daemon.connect("co-runner").unwrap());
    let po = ok.malloc((n * 4) as u64).unwrap();
    ok.upload_f32(po, &vec![0.0f32; n]).unwrap();
    for _ in 0..3 {
        launch_add(&ok, po, n, 2.0, lc_perf("steady-lc"));
    }
    ok.synchronize().unwrap();
    assert_eq!(ok.download_f32(po, n).unwrap(), vec![6.0f32; n]);

    // The hung client's sync surfaces the structured timeout.
    match hung.synchronize() {
        Err(SlateError::Timeout { elapsed_ms }) => assert!(elapsed_ms >= 40, "{elapsed_ms}"),
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert_eq!(daemon.metrics().watchdog_evictions, 1);
    assert_eq!(
        daemon.metrics().arbiter_residents,
        0,
        "evicted SM range reclaimed"
    );

    // The hang rule fired once; the same session relaunches successfully.
    let perf = hm_perf("hm-hang");
    hung.launch_with_deadline(vec![ph], 5, 5_000, move |bufs| {
        Arc::new(AddKernel {
            n,
            delta: 1.0,
            perf,
            buf: bufs[0].clone(),
        }) as Arc<dyn GpuKernel>
    })
    .unwrap();
    hung.synchronize().unwrap();
    assert_eq!(hung.download_f32(ph, n).unwrap(), vec![1.0f32; n]);

    hung.disconnect().unwrap();
    ok.free(po).unwrap();
    ok.disconnect().unwrap();
    daemon.join();
}

/// `AddKernel`'s grid and profile with a body that panics on its first
/// block: client code misbehaving on a daemon thread.
struct PanicKernel(KernelPerf);

impl GpuKernel for PanicKernel {
    fn name(&self) -> &str {
        &self.0.name
    }
    fn grid(&self) -> GridDim {
        GridDim::d1(64)
    }
    fn perf(&self) -> KernelPerf {
        self.0.clone()
    }
    fn run_block(&self, b: BlockCoord) {
        panic!("block {} blew up", b.x);
    }
}

#[test]
fn panicking_kernel_is_contained_while_corunner_completes() {
    // On the default stream the kernel runs on the session thread itself,
    // on any other on a lane thread: either way the panic used to kill
    // its thread with the lease still holding its SMs.
    for stream in [0u32, 3] {
        let daemon = SlateDaemon::start(DeviceConfig::tiny(8), 1 << 24);
        let n = 4_000usize;
        let bad = SlateClient::new(daemon.connect("panics").unwrap());
        let pb = bad.malloc((n * 4) as u64).unwrap();
        bad.upload_f32(pb, &vec![0.0f32; n]).unwrap();
        let ok = SlateClient::new(daemon.connect("co-runner").unwrap());
        let po = ok.malloc((n * 4) as u64).unwrap();
        ok.upload_f32(po, &vec![0.0f32; n]).unwrap();

        bad.launch_on_stream(stream, vec![pb], 5, |_| {
            Arc::new(PanicKernel(hm_perf("hm-panic"))) as Arc<dyn GpuKernel>
        })
        .unwrap();
        for _ in 0..3 {
            launch_add(&ok, po, n, 2.0, lc_perf("steady-lc"));
        }
        ok.synchronize().unwrap();
        assert_eq!(ok.download_f32(po, n).unwrap(), vec![6.0f32; n]);

        match bad.synchronize() {
            Err(SlateError::KernelFault(why)) => assert!(why.contains("blew up"), "{why}"),
            other => panic!("stream {stream}: expected KernelFault, got {other:?}"),
        }
        // The lease gave its SMs back, its admission was balanced exactly
        // once, and the same session keeps serving.
        let m = daemon.metrics();
        assert_eq!((m.arbiter_residents, m.queue.depth), (0, 0), "{m:?}");
        assert_eq!(
            m.queue.admitted,
            m.admission.launches_completed + m.admission.launches_failed,
            "{m:?}"
        );
        assert_eq!(m.admission.launches_failed, 1, "{m:?}");
        launch_add(&bad, pb, n, 1.0, hm_perf("hm-fine"));
        bad.synchronize().unwrap();
        assert_eq!(bad.download_f32(pb, n).unwrap(), vec![1.0f32; n]);

        let m = daemon.metrics();
        assert_eq!((m.reaped_sessions, m.lock_recoveries), (0, 0), "{m:?}");
        bad.disconnect().unwrap();
        ok.disconnect().unwrap();
        assert!(daemon.shutdown(Duration::from_secs(5)), "drained");
        assert_eq!(daemon.metrics().live_allocations, 0);
    }
}

#[test]
fn panicking_factory_fails_the_launch_not_the_session() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 22);
    let n = 2_000usize;
    let client = SlateClient::new(daemon.connect("bad-factory").unwrap());
    let p = client.malloc((n * 4) as u64).unwrap();
    client.upload_f32(p, &vec![0.0f32; n]).unwrap();
    client
        .launch_with(vec![p], 5, None, |bufs| -> Arc<dyn GpuKernel> {
            panic!("no kernel for {} buffers", bufs.len())
        })
        .unwrap();
    match client.synchronize() {
        Err(SlateError::Launch(why)) => assert!(why.contains("no kernel for 1 buffers"), "{why}"),
        other => panic!("expected a launch error, got {other:?}"),
    }
    // Nothing was admitted; the session serves the next launch.
    let m = daemon.metrics();
    assert_eq!((m.queue.admitted, m.queue.depth), (0, 0), "{m:?}");
    launch_add(&client, p, n, 3.0, lc_perf("after-lc"));
    client.synchronize().unwrap();
    assert_eq!(client.download_f32(p, n).unwrap(), vec![3.0f32; n]);
    assert_eq!(daemon.metrics().lock_recoveries, 0);
    client.disconnect().unwrap();
    assert!(daemon.shutdown(Duration::from_secs(5)), "drained");
    assert_eq!(daemon.metrics().live_allocations, 0);
}

#[test]
fn graceful_shutdown_drains_sessions_and_refuses_newcomers() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 22);
    let n = 2_000usize;
    let client = SlateClient::new(daemon.connect("tenant").unwrap());
    let p = client.malloc((n * 4) as u64).unwrap();
    client.upload_f32(p, &vec![0.0f32; n]).unwrap();

    let d = daemon.clone();
    let drain = std::thread::spawn(move || d.shutdown(Duration::from_secs(5)));
    wait_for("shutdown flag", || daemon.is_shutting_down());

    // Newcomers are refused — even with a client-side retry policy, since
    // ShuttingDown stays transient only until the policy's attempts run out.
    let refused = connect_with_retry(&daemon, "late", RetryPolicy::with_attempts(2));
    assert!(matches!(refused, Err(SlateError::ShuttingDown)));

    // The in-flight session still gets full service (serialized solo).
    launch_add(&client, p, n, 3.0, lc_perf("drain-lc"));
    client.synchronize().unwrap();
    assert_eq!(client.download_f32(p, n).unwrap(), vec![3.0f32; n]);
    client.free(p).unwrap();
    client.disconnect().unwrap();

    assert!(drain.join().unwrap(), "drain completed before the deadline");
    daemon.join();
    assert_eq!(daemon.metrics().live_allocations, 0);
}

/// The acceptance scenario: with two co-running clients, killing one
/// client's channel and hanging the other's kernel leaves the daemon
/// serving a fresh third client correctly, with no leaked device memory.
#[test]
fn daemon_recovers_from_crash_and_hang_and_serves_fresh_client() {
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(8),
        1 << 24,
        DaemonOptions {
            fault_plan: FaultPlan::new().hang_kernel("hm-hang", 1),
            ..Default::default()
        },
    );
    let n = 4_000usize;

    // Client A (compute-light) and client B (memory-heavy) co-run.
    let a = SlateClient::new(daemon.connect("a-crasher").unwrap());
    let pa = a.malloc((n * 4) as u64).unwrap();
    a.upload_f32(pa, &vec![0.0f32; n]).unwrap();
    launch_add(&a, pa, n, 1.0, lc_perf("a-lc"));

    let b = SlateClient::new(daemon.connect("b-hangs").unwrap());
    let pb = b.malloc((n * 4) as u64).unwrap();
    b.upload_f32(pb, &vec![0.0f32; n]).unwrap();
    let perf = hm_perf("hm-hang");
    b.launch_with_deadline(vec![pb], 5, 60, move |bufs| {
        Arc::new(AddKernel {
            n,
            delta: 1.0,
            perf,
            buf: bufs[0].clone(),
        }) as Arc<dyn GpuKernel>
    })
    .unwrap();

    // Fault 1: A's process dies — channel severed without Disconnect.
    drop(a);
    // Fault 2: B's kernel hangs; the watchdog evicts it.
    match b.synchronize() {
        Err(SlateError::Timeout { .. }) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }

    wait_for("crashed session reap", || {
        daemon.metrics().reaped_sessions == 1
    });
    assert_eq!(daemon.metrics().watchdog_evictions, 1);
    wait_for("A's allocation reclaim", || {
        daemon.metrics().live_allocations == 1
    });

    // A fresh client gets correct service after both faults.
    let c = SlateClient::new(daemon.connect("c-fresh").unwrap());
    let pc = c.malloc((n * 4) as u64).unwrap();
    c.upload_f32(pc, &(0..n).map(|i| i as f32).collect::<Vec<_>>())
        .unwrap();
    launch_add(&c, pc, n, 5.0, lc_perf("c-lc"));
    c.synchronize().unwrap();
    let out = c.download_f32(pc, n).unwrap();
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, i as f32 + 5.0, "element {i}");
    }
    c.free(pc).unwrap();
    c.disconnect().unwrap();

    // B leaves too; nothing leaks.
    b.free(pb).unwrap();
    b.disconnect().unwrap();
    daemon.join();
    assert_eq!(daemon.metrics().live_allocations, 0);
    assert_eq!(daemon.metrics().arbiter_residents, 0);
}
