//! Execution conformance of the daemon: the real-thread guarantees of the
//! one executor that serves clients (`daemon/exec.rs`), driven only
//! through [`SlateClient`].
//!
//! Every kernel here doubles its elements of a buffer of ones, one block
//! at a time, so exactly-once is read off the output: every element must
//! read 2.0 after a successful launch. A block run twice leaves 4.0, a
//! lost one 1.0. The scenarios:
//!
//! * an undisturbed launch;
//! * resize churn — complementary sessions arrive and leave while a
//!   resident kernel runs, so the arbiter resizes it mid-flight;
//! * a watchdog eviction of a slow (not hung) kernel: `Timeout`, no block
//!   run twice, and the session keeps serving;
//! * a latency-critical arrival preempting a best-effort kernel, which
//!   then resumes from its carried progress;
//! * a device failure mid-run: `DeviceLost` on a lone device, evacuation
//!   to a healthy one on a fleet, and `recover_device` after either;
//! * a seeded soak of device failures and recoveries rolling over a
//!   3-device fleet while clients churn. It honours `SLATE_CHAOS_SEED`
//!   (decimal or `0x`-prefixed hex) so CI can soak fresh seeds nightly,
//!   and its recorded placement log must replay identically.

use slate_core::api::SlateClient;
use slate_core::arbiter::{replay as core_replay, Command};
use slate_core::daemon::{DaemonOptions, SlateDaemon};
use slate_core::placement::replay as placement_replay;
use slate_core::placement::HealthState;
use slate_core::{PlacementPolicy, SlateError, SlatePtr};
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::device::DeviceConfig;
use slate_gpu_sim::perf::KernelPerf;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::GpuKernel;
use slate_kernels::workload::SloClass;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Elements per block.
const BLOCK: usize = 64;

/// Doubles `n` elements of its buffer in place, stalling `stall` per
/// block so that a run lasts long enough to be resized, evicted or moved,
/// and counts the blocks it ran in `ran`.
struct Doubler {
    n: usize,
    stall: Duration,
    perf: KernelPerf,
    buf: Arc<GpuBuffer>,
    ran: Arc<AtomicUsize>,
}

impl GpuKernel for Doubler {
    fn name(&self) -> &str {
        &self.perf.name
    }
    fn grid(&self) -> GridDim {
        GridDim::d1(self.n.div_ceil(BLOCK) as u32)
    }
    fn perf(&self) -> KernelPerf {
        self.perf.clone()
    }
    fn run_block(&self, b: BlockCoord) {
        if !self.stall.is_zero() {
            std::thread::sleep(self.stall);
        }
        let lo = b.x as usize * BLOCK;
        for i in lo..(lo + BLOCK).min(self.n) {
            self.buf.store_f32(i, self.buf.load_f32(i) * 2.0);
        }
        self.ran.fetch_add(1, Ordering::SeqCst);
    }
}

fn doubler(
    n: usize,
    stall: Duration,
    perf: KernelPerf,
) -> impl FnOnce(Vec<Arc<GpuBuffer>>) -> Arc<dyn GpuKernel> {
    counted_doubler(n, stall, perf, Arc::default())
}

/// [`doubler`] that counts the blocks it ran in `ran`.
fn counted_doubler(
    n: usize,
    stall: Duration,
    perf: KernelPerf,
    ran: Arc<AtomicUsize>,
) -> impl FnOnce(Vec<Arc<GpuBuffer>>) -> Arc<dyn GpuKernel> {
    move |bufs| {
        Arc::new(Doubler {
            n,
            stall,
            perf,
            buf: bufs[0].clone(),
            ran,
        }) as Arc<dyn GpuKernel>
    }
}

fn plain() -> KernelPerf {
    KernelPerf::synthetic("double", 500.0, 1024.0)
}

/// A compute-light profile that classifies L_C (a co-run filler).
fn lc_perf() -> KernelPerf {
    let mut p = KernelPerf::synthetic("lc-double", 2_000.0, 0.0);
    p.mem_request_bytes_per_block = 1_000.0;
    p.dram_bytes_inorder = 1_000.0;
    p.dram_bytes_scattered = 1_000.0;
    p.max_concurrent_blocks = Some(32);
    p
}

/// A memory-heavy profile that classifies H_M.
fn hm_perf() -> KernelPerf {
    let mut p = KernelPerf::synthetic("hm-double", 300.0, 0.0);
    p.mem_request_bytes_per_block = 40_000.0;
    p.dram_bytes_inorder = 33_000.0;
    p.dram_bytes_scattered = 34_000.0;
    p
}

/// A fresh buffer of `n` ones.
fn ones(client: &SlateClient, n: usize) -> SlatePtr {
    let p = client.malloc((n * 4) as u64).unwrap();
    client.upload_f32(p, &vec![1.0f32; n]).unwrap();
    p
}

/// Every element of `p` was doubled exactly once.
fn assert_doubled_once(client: &SlateClient, p: SlatePtr, n: usize, what: &str) {
    let out = client.download_f32(p, n).unwrap();
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, 2.0, "{what}: element {i} (4.0 = run twice, 1.0 = lost)");
    }
}

/// No element of `p` was doubled twice; returns how many were doubled.
fn assert_none_twice(client: &SlateClient, p: SlatePtr, n: usize, what: &str) -> usize {
    let out = client.download_f32(p, n).unwrap();
    for (i, &v) in out.iter().enumerate() {
        assert!(v == 1.0 || v == 2.0, "{what}: element {i} reads {v}");
    }
    out.iter().filter(|&&v| v == 2.0).count()
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `options` over `devices` tiny devices of 4 SMs.
fn fleet(devices: usize, options: DaemonOptions) -> Arc<SlateDaemon> {
    SlateDaemon::start_with_options(
        DeviceConfig::tiny(4),
        1 << 24,
        DaemonOptions {
            devices: vec![DeviceConfig::tiny(4); devices],
            ..options
        },
    )
}

/// The recorded placement log verifies, and so does each device's split.
fn assert_log_replays(daemon: &SlateDaemon, what: &str) -> placement_replay::PlacementLog {
    let log = daemon.placement_log().expect("recording was enabled");
    placement_replay::verify(&log).unwrap_or_else(|e| panic!("{what}: log replays: {e}"));
    let cores = placement_replay::split(&log).unwrap_or_else(|e| panic!("{what}: log splits: {e}"));
    for (d, core_log) in cores.iter().enumerate() {
        core_replay::verify(core_log).unwrap_or_else(|e| panic!("{what}: core {d} verifies: {e}"));
    }
    log
}

#[test]
fn an_undisturbed_launch_doubles_every_element_once() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 24);
    let client = SlateClient::new(daemon.connect("plain").unwrap());
    let n = 10_000;
    let p = ones(&client, n);
    client
        .launch_with(vec![p], 10, None, doubler(n, Duration::ZERO, plain()))
        .unwrap();
    client.synchronize().unwrap();
    assert_doubled_once(&client, p, n, "undisturbed");
    assert_eq!(daemon.metrics().launches_served, 1);
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn resize_churn_across_complementary_sessions_keeps_exactly_once() {
    // A long memory-heavy kernel stays resident while a complementary
    // session's short kernels arrive and leave: each arrival shrinks the
    // resident to a partition, each departure regrows it.
    let daemon = fleet(
        1,
        DaemonOptions {
            record_arbiter: true,
            ..Default::default()
        },
    );
    let n = 16_384;
    let resident = SlateClient::new(daemon.connect("resident").unwrap());
    let long = ones(&resident, n);
    resident
        .launch_with(
            vec![long],
            2,
            None,
            doubler(n, Duration::from_micros(300), hm_perf()),
        )
        .unwrap();
    wait_for("the long kernel resident", || {
        daemon.metrics().arbiter_residents >= 1
    });
    std::thread::scope(|s| {
        for c in 0..2 {
            let daemon = daemon.clone();
            s.spawn(move || {
                let client = SlateClient::new(daemon.connect(&format!("filler-{c}")).unwrap());
                for k in 0..4 {
                    let n = 2_048;
                    let p = ones(&client, n);
                    client
                        .launch_with(
                            vec![p],
                            2,
                            None,
                            doubler(n, Duration::from_micros(100), lc_perf()),
                        )
                        .unwrap();
                    client.synchronize().unwrap();
                    assert_doubled_once(&client, p, n, &format!("filler {c} launch {k}"));
                }
                client.disconnect().unwrap();
            });
        }
    });
    resident.synchronize().unwrap();
    assert_doubled_once(&resident, long, n, "resized resident");
    let resident_session = resident.session();
    resident.disconnect().unwrap();
    daemon.join();
    assert_eq!(daemon.metrics().launches_served, 9);
    let log = assert_log_replays(&daemon, "resize churn");
    // A default-stream launch runs under lease `session << 16`.
    let long_lease = resident_session << 16;
    let resizes = log
        .batches
        .iter()
        .flat_map(|b| &b.routed)
        .filter(|r| matches!(r.command, Command::Resize { lease, .. } if lease == long_lease))
        .count();
    assert!(
        resizes >= 2,
        "co-runners must resize the resident: {resizes} resizes"
    );
}

#[test]
fn a_watchdog_eviction_of_a_slow_kernel_times_out_and_the_session_keeps_serving() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 24);
    let client = SlateClient::new(daemon.connect("slow").unwrap());
    // 1 024 blocks of 500 µs: far past the 20 ms deadline however many
    // lanes run them.
    let n = 1_024 * BLOCK;
    let p = ones(&client, n);
    client
        .launch_with_deadline(
            vec![p],
            1,
            20,
            doubler(n, Duration::from_micros(500), plain()),
        )
        .unwrap();
    let err = client.synchronize().unwrap_err();
    assert!(
        matches!(err, SlateError::Timeout { elapsed_ms } if elapsed_ms >= 15),
        "expected a watchdog timeout, got {err}"
    );
    let done = assert_none_twice(&client, p, n, "evicted kernel");
    assert!(done < n, "the eviction stopped the kernel short");
    let m = daemon.metrics();
    assert_eq!(m.watchdog_evictions, 1);
    assert_eq!(m.launches_served, 0, "a timed-out launch was not served");
    assert_eq!(m.arbiter_residents, 0, "its SM range was reclaimed");
    // The session keeps serving.
    let n = 4_096;
    let q = ones(&client, n);
    client
        .launch_with(vec![q], 4, None, doubler(n, Duration::ZERO, plain()))
        .unwrap();
    client.synchronize().unwrap();
    assert_doubled_once(&client, q, n, "launch after the eviction");
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn a_latency_critical_arrival_preempts_a_best_effort_kernel_that_then_resumes() {
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(8),
        1 << 24,
        DaemonOptions {
            preempt_bound_ms: Some(50),
            ..Default::default()
        },
    );
    let bulk = SlateClient::new(daemon.connect("bulk").unwrap());
    let decoder = SlateClient::new(
        daemon
            .connect_with_slo("decoder", SloClass::LatencyCritical)
            .unwrap(),
    );
    let n = 256 * BLOCK;
    let be = ones(&bulk, n);
    bulk.launch_with(
        vec![be],
        4,
        None,
        doubler(
            n,
            Duration::from_millis(1),
            KernelPerf::synthetic("be-prefill", 400.0, 900.0),
        ),
    )
    .unwrap();
    wait_for("best-effort kernel resident", || {
        daemon.metrics().arbiter_residents >= 1
    });
    let m = 32 * BLOCK;
    let lc = ones(&decoder, m);
    decoder
        .launch_with(
            vec![lc],
            4,
            None,
            doubler(
                m,
                Duration::from_micros(100),
                KernelPerf::synthetic("lc-decode", 300.0, 600.0),
            ),
        )
        .unwrap();
    wait_for("the preemption", || daemon.metrics().slo_preemptions >= 1);
    decoder.synchronize().unwrap();
    bulk.synchronize().unwrap();
    assert_doubled_once(&decoder, lc, m, "latency-critical arrival");
    assert_doubled_once(&bulk, be, n, "preempted best-effort kernel");
    decoder.disconnect().unwrap();
    bulk.disconnect().unwrap();
    daemon.join();
}

#[test]
fn a_device_failure_mid_run_on_a_lone_device_is_device_lost_and_it_recovers() {
    // No device to evacuate to: the kernel keeps its SMs until the
    // watchdog evicts it, and the client is told the device was lost, not
    // that its kernel timed out.
    let daemon = SlateDaemon::start(DeviceConfig::tiny(4), 1 << 24);
    let client = SlateClient::new(daemon.connect("alone").unwrap());
    let n = 1_024 * BLOCK;
    let p = ones(&client, n);
    client
        .launch_with_deadline(
            vec![p],
            1,
            40,
            doubler(n, Duration::from_micros(500), plain()),
        )
        .unwrap();
    wait_for("the kernel resident", || {
        daemon.metrics().arbiter_residents >= 1
    });
    daemon.fail_device(0);
    assert_eq!(daemon.device_health(0), HealthState::Failed);
    let err = client.synchronize().unwrap_err();
    assert!(
        matches!(err, SlateError::DeviceLost { device: 0 }),
        "expected the lost device, got {err}"
    );
    assert_none_twice(&client, p, n, "kernel on the failed device");
    daemon.recover_device(0);
    assert!(
        matches!(daemon.device_health(0), HealthState::Probation { .. }),
        "a recovered device is on probation, not immediately healthy"
    );
    let n = 4_096;
    let q = ones(&client, n);
    client
        .launch_with(vec![q], 4, None, doubler(n, Duration::ZERO, plain()))
        .unwrap();
    client.synchronize().unwrap();
    assert_doubled_once(&client, q, n, "launch after recovery");
    client.disconnect().unwrap();
    daemon.join();
}

#[test]
fn multi_device_daemon_evacuates_a_failed_device_mid_run() {
    // One session pinned to device 0, running a kernel slow enough to
    // still be on-device when the operator fails its domain. The
    // evacuation must move the running lease to device 1 and resume it
    // from carried progress: every element reads exactly 2.0 afterwards.
    let daemon = fleet(
        2,
        DaemonOptions {
            placement: PlacementPolicy::Affinity {
                pins: [(1u64, 0usize)].into_iter().collect(),
            },
            ..Default::default()
        },
    );
    let n = 16_384;
    let client = SlateClient::new(daemon.connect("doomed-domain").unwrap());
    let p = ones(&client, n);
    let ran = Arc::new(AtomicUsize::new(0));
    let stall = Duration::from_micros(500);
    client
        .launch_with(
            vec![p],
            4,
            None,
            counted_doubler(n, stall, plain(), ran.clone()),
        )
        .unwrap();
    // Let the kernel run some of its 256 blocks on device 0, then pull
    // the device out from under it.
    wait_for("blocks run on device 0", || {
        ran.load(Ordering::SeqCst) >= 16
    });
    daemon.fail_device(0);
    assert_eq!(daemon.device_health(0), HealthState::Failed);
    client.synchronize().unwrap();
    assert_doubled_once(&client, p, n, "evacuated kernel");
    let stats = daemon.metrics().placement;
    assert!(stats.evacuations >= 1, "the failure evacuated its leases");
    assert!(stats.migrations_completed >= 1);
    assert_eq!(stats.devices_out, 1);
    // Recovery is gated: the returning device sits out probation before
    // it can take traffic again.
    daemon.recover_device(0);
    assert!(
        matches!(daemon.device_health(0), HealthState::Probation { .. }),
        "a recovered device is on probation, not immediately healthy"
    );
    client.disconnect().unwrap();
    daemon.join();
}

/// `SLATE_CHAOS_SEED` (decimal or `0x`-prefixed hex), or a fixed default.
fn chaos_seed() -> u64 {
    std::env::var("SLATE_CHAOS_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        })
        .unwrap_or(0xC0FFEE)
}

/// Seeded device-failure soak: waves of clients churn through a
/// three-device daemon — connect, launch a slow kernel, synchronize,
/// disconnect — while a seeded schedule of hard losses and recoveries
/// rolls across the fleet, at most one device down at a time. Every
/// launch must double its buffer exactly once, and the recorded
/// placement log must replay identically.
#[test]
fn seeded_device_failure_soak_keeps_exactly_once() {
    let seed = chaos_seed();
    let devices = 3;
    let daemon = fleet(
        devices,
        DaemonOptions {
            record_arbiter: true,
            ..Default::default()
        },
    );
    let mut s = seed | 1;
    let mut rng = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut down: Option<usize> = None;
    for wave in 0..3 {
        std::thread::scope(|scope| {
            for j in 0..3 {
                let daemon = daemon.clone();
                scope.spawn(move || {
                    let client = SlateClient::new(daemon.connect(&format!("w{wave}-{j}")).unwrap());
                    let n = 128 * BLOCK;
                    let p = ones(&client, n);
                    client
                        .launch_with(
                            vec![p],
                            4,
                            None,
                            doubler(n, Duration::from_micros(200), plain()),
                        )
                        .unwrap();
                    client
                        .synchronize()
                        .unwrap_or_else(|e| panic!("seed {seed:#x}: wave {wave} client {j}: {e}"));
                    assert_doubled_once(
                        &client,
                        p,
                        n,
                        &format!("seed {seed:#x}: wave {wave} client {j}"),
                    );
                    client.disconnect().unwrap();
                });
            }
            // A few seeded strikes while the wave runs.
            for _ in 0..4 {
                std::thread::sleep(Duration::from_millis(1 + rng() % 5));
                match (rng() % 3, down) {
                    (0, None) => {
                        let d = (rng() as usize) % devices;
                        daemon.fail_device(d);
                        down = Some(d);
                    }
                    (1, Some(d)) => {
                        daemon.recover_device(d);
                        down = None;
                    }
                    _ => {}
                }
            }
        });
    }
    if let Some(d) = down {
        daemon.recover_device(d);
    }
    daemon.join();
    assert_eq!(daemon.metrics().launches_served, 9, "seed {seed:#x}");
    assert_log_replays(&daemon, &format!("seed {seed:#x}"));
}
