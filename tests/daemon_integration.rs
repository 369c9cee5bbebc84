//! Daemon concurrency integration: many clients, concurrent complementary
//! and conflicting launches, resize storms through the arbiter, and error
//! paths — all functional, with real threads and real atomics.

use slate_core::api::SlateClient;
use slate_core::daemon::SlateDaemon;
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::device::DeviceConfig;
use slate_gpu_sim::perf::KernelPerf;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::GpuKernel;
use std::sync::Arc;

/// A kernel that adds `delta` to every element of its buffer, with a
/// configurable performance profile (to steer classification).
struct AddKernel {
    n: usize,
    delta: f32,
    perf: KernelPerf,
    buf: Arc<GpuBuffer>,
}

impl AddKernel {
    fn new(n: usize, delta: f32, perf: KernelPerf, buf: Arc<GpuBuffer>) -> Self {
        assert!(buf.len_words() >= n);
        Self {
            n,
            delta,
            perf,
            buf,
        }
    }
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

/// A compute-light profile that classifies L_C (corun filler).
fn lc_perf(name: &str) -> KernelPerf {
    let mut p = KernelPerf::synthetic(name, 2_000.0, 0.0);
    p.mem_request_bytes_per_block = 1_000.0;
    p.dram_bytes_inorder = 1_000.0;
    p.dram_bytes_scattered = 1_000.0;
    p.max_concurrent_blocks = Some(32);
    p
}

/// A memory-heavy profile that classifies H_M.
fn hm_perf(name: &str) -> KernelPerf {
    let mut p = KernelPerf::synthetic(name, 300.0, 0.0);
    p.mem_request_bytes_per_block = 40_000.0;
    p.dram_bytes_inorder = 33_000.0;
    p.dram_bytes_scattered = 34_000.0;
    p
}

fn run_client(
    daemon: &Arc<SlateDaemon>,
    user: &str,
    perf: KernelPerf,
    reps: usize,
    n: usize,
    delta: f32,
) -> Vec<f32> {
    let client = SlateClient::new(daemon.connect(user).unwrap());
    let ptr = client.malloc((n * 4) as u64).unwrap();
    client.upload_f32(ptr, &vec![0.0f32; n]).unwrap();
    for _ in 0..reps {
        let perf = perf.clone();
        client
            .launch_with(vec![ptr], 5, None, move |bufs| {
                Arc::new(AddKernel::new(n, delta, perf, bufs[0].clone())) as Arc<dyn GpuKernel>
            })
            .unwrap();
    }
    client.synchronize().unwrap();
    let out = client.download_f32(ptr, n).unwrap();
    client.free(ptr).unwrap();
    client.disconnect().unwrap();
    out
}

#[test]
fn complementary_clients_corun_correctly() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 26);
    let n = 30_000usize;
    let reps = 6usize;
    std::thread::scope(|s| {
        let d1 = daemon.clone();
        let d2 = daemon.clone();
        let a = s.spawn(move || run_client(&d1, "hm-app", hm_perf("hm_add"), reps, n, 1.0));
        let b = s.spawn(move || run_client(&d2, "lc-app", lc_perf("lc_add"), reps, n, 2.0));
        let ra = a.join().unwrap();
        let rb = b.join().unwrap();
        // Sequential consistency of each client's own stream: exactly
        // `reps` increments applied, regardless of any co-running.
        for (i, v) in ra.iter().enumerate().step_by(997) {
            assert_eq!(*v, reps as f32, "hm element {i}");
        }
        for (i, v) in rb.iter().enumerate().step_by(997) {
            assert_eq!(*v, 2.0 * reps as f32, "lc element {i}");
        }
    });
    assert_eq!(daemon.metrics().launches_served, 12);
    daemon.join();
}

#[test]
fn conflicting_clients_serialize_correctly() {
    // Two H_M clients: the policy refuses to co-run them; the arbiter
    // serializes. Results must still be exact.
    let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 26);
    let n = 20_000usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let d = daemon.clone();
                s.spawn(move || run_client(&d, &format!("hm-{i}"), hm_perf("hm_add"), 5, n, 1.0))
            })
            .collect();
        for h in handles {
            let out = h.join().unwrap();
            for v in out.iter().step_by(499) {
                assert_eq!(*v, 5.0);
            }
        }
    });
    daemon.join();
}

#[test]
fn many_clients_stress_the_arbiter() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 28);
    let n = 8_000usize;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for i in 0..6 {
            let d = daemon.clone();
            let perf = if i % 2 == 0 {
                hm_perf("hm_add")
            } else {
                lc_perf("lc_add")
            };
            let delta = 1.0 + i as f32;
            handles
                .push(s.spawn(move || run_client(&d, &format!("client-{i}"), perf, 4, n, delta)));
        }
        for (i, h) in handles.into_iter().enumerate() {
            let out = h.join().unwrap();
            let expect = 4.0 * (1.0 + i as f32);
            for v in out.iter().step_by(251) {
                assert_eq!(*v, expect, "client {i}");
            }
        }
    });
    assert_eq!(daemon.metrics().launches_served, 24);
    assert_eq!(daemon.metrics().live_allocations, 0);
    daemon.join();
}

#[test]
fn launch_error_surfaces_at_synchronize() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    let client = SlateClient::new(daemon.connect("bad").unwrap());
    let good = client.malloc(4096).unwrap();
    // Launch referencing a bogus pointer: the daemon rejects it; the error
    // arrives at the synchronize fence.
    client
        .launch_with(
            vec![slate_core::SlatePtr(0xdeadbeef)],
            10,
            None,
            move |bufs| {
                Arc::new(AddKernel::new(16, 1.0, lc_perf("x"), bufs[0].clone()))
                    as Arc<dyn GpuKernel>
            },
        )
        .unwrap();
    let err = client.synchronize().unwrap_err();
    assert_eq!(
        err,
        slate_core::SlateError::InvalidPointer { ptr: 0xdeadbeef }
    );
    // The session is still usable afterwards.
    client.upload_f32(good, &[1.0, 2.0]).unwrap();
    assert_eq!(client.download_f32(good, 2).unwrap(), vec![1.0, 2.0]);
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn unlaunchable_kernel_is_a_typed_error_and_the_session_keeps_serving() {
    let cfg = DeviceConfig::tiny(2);
    let daemon = SlateDaemon::start(cfg.clone(), 1 << 20);
    let client = SlateClient::new(daemon.connect("careless").unwrap());
    let n = 256usize;
    let ptr = client.malloc((n * 4) as u64).unwrap();
    client.upload_f32(ptr, &vec![1.0; n]).unwrap();
    let launch = |perf: KernelPerf, task_size: u32| {
        client
            .launch_with(vec![ptr], task_size, None, move |bufs| {
                Arc::new(AddKernel::new(n, 1.0, perf, bufs[0].clone())) as Arc<dyn GpuKernel>
            })
            .unwrap();
        client.synchronize()
    };
    // Fails `KernelPerf::validate` (and fits no SM); valid but not one
    // block's shared memory fits an SM; a task size no queue can have.
    // Each used to panic the session thread — `Disconnected`, session and
    // allocations lost — in first-run profiling or in the worker launch.
    let mut too_wide = lc_perf("too_wide");
    too_wide.threads_per_block = 2048;
    let mut smem_hog = lc_perf("smem_hog");
    smem_hog.smem_per_block = cfg.smem_per_sm + 1;
    for (perf, task_size) in [(too_wide, 10), (smem_hog, 10), (lc_perf("no_tasks"), 0)] {
        let name = perf.name.clone();
        match launch(perf, task_size) {
            Err(slate_core::SlateError::Launch(why)) => assert!(why.contains(&*name), "{why}"),
            other => panic!("{name}: expected a launch error, got {other:?}"),
        }
    }
    // Nothing ran, nothing is left resident or pending, and the same
    // session serves a valid launch over the same allocation.
    let m = daemon.metrics();
    assert_eq!((m.arbiter_residents, m.queue.depth), (0, 0));
    launch(lc_perf("fine"), 10).unwrap();
    assert_eq!(client.download_f32(ptr, n).unwrap(), vec![2.0; n]);
    assert_eq!(daemon.metrics().lock_recoveries, 0, "no thread panicked");
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn out_of_range_memcpy_is_a_typed_error_and_the_session_keeps_serving() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    let client = SlateClient::new(daemon.connect("sloppy").unwrap());
    let ptr = client.malloc(64).unwrap();
    // Past the end, straddling the end, misaligned, and an offset + length
    // that wraps. Each used to trip the buffer's assertion on the session
    // thread — `Disconnected`, the allocation leaked, the drain stuck —
    // and the first also sized a host buffer by the client's length.
    let invalid = |out: Result<(), slate_core::SlateError>| match out {
        Err(slate_core::SlateError::InvalidValue(why)) => assert!(why.contains("memcpy"), "{why}"),
        other => panic!("expected an invalid-value error, got {other:?}"),
    };
    invalid(client.memcpy_d2h(ptr, 0, 4096).map(drop));
    invalid(client.memcpy_d2h(ptr, 2, 4).map(drop));
    invalid(client.memcpy_d2h(ptr, usize::MAX - 3, 8).map(drop));
    // Lengths no host vector can hold: refused before the client reserves
    // a destination for them, instead of a panic on the client.
    invalid(client.download_f32(ptr, usize::MAX / 2).map(drop));
    invalid(client.memcpy_d2h(ptr, 0, isize::MAX as usize + 1).map(drop));
    invalid(client.memcpy_h2d(ptr, 60, &[0u8; 8]));
    invalid(client.memcpy_h2d(ptr, 6, &[0u8; 4]));
    // An allocation ends at the bytes asked for, not at the word that
    // backs the last of them: 10 bytes take 10 and give 10 back, not 12.
    let odd = client.malloc(10).unwrap();
    invalid(client.memcpy_h2d(odd, 0, &[7u8; 12]));
    invalid(client.memcpy_d2h(odd, 0, 12).map(drop));
    invalid(client.memcpy_d2h(odd, 8, 4).map(drop));
    client.memcpy_h2d(odd, 0, &[7u8; 10]).unwrap();
    assert_eq!(client.memcpy_d2h(odd, 0, 10).unwrap(), [7u8; 10]);
    assert_eq!(client.memcpy_d2h(odd, 8, 2).unwrap(), [7u8; 2]);
    // The session is alive and the allocation intact, end to end.
    client.upload_f32(ptr, &[7.0; 16]).unwrap();
    assert_eq!(client.memcpy_d2h(ptr, 60, 4).unwrap(), 7.0f32.to_le_bytes());
    assert_eq!(daemon.metrics().lock_recoveries, 0, "no thread panicked");
    client.disconnect().unwrap();
    assert!(
        daemon.shutdown(std::time::Duration::from_secs(5)),
        "drained"
    );
    assert_eq!(daemon.metrics().live_allocations, 0);
}

#[test]
fn profile_table_is_shared_across_sessions() {
    // The same kernel launched by two different clients is profiled once
    // (first run) and reused — observable through identical behaviour and
    // the daemon's launch accounting.
    let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 24);
    let n = 5_000usize;
    let a = run_client(&daemon, "first", lc_perf("shared_kernel"), 2, n, 1.0);
    let b = run_client(&daemon, "second", lc_perf("shared_kernel"), 2, n, 3.0);
    assert!(a.iter().step_by(97).all(|&v| v == 2.0));
    assert!(b.iter().step_by(97).all(|&v| v == 6.0));
    assert_eq!(daemon.metrics().launches_served, 4);
    daemon.join();
}
