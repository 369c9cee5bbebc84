//! Overload and chaos soak: the daemon must stay correct, live, and
//! leak-free when clients outnumber its admission limits. Covered here:
//! deterministic backpressure sheds with actionable `retry_after_ms`
//! hints, up-front rejection of infeasible deadlines, starvation-free
//! arbitration under aging, and seeded multi-client churn against tight
//! limits (with a longer fault-injected variant behind `--ignored`).
//!
//! Every scenario ends with the same drain invariants: queue depth zero,
//! `admitted == completed + failed`, `admitted + shed == attempts`, and no
//! leaked allocations or arbiter residents.

use slate_core::api::{decorrelated_jitter, BreakerConfig, RetryPolicy, SlateClient};
use slate_core::daemon::{DaemonOptions, SlateDaemon};
use slate_core::error::SlateError;
use slate_core::profile::ProfileTable;
use slate_core::AdmissionLimits;
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::device::DeviceConfig;
use slate_gpu_sim::fault::FaultPlan;
use slate_gpu_sim::perf::KernelPerf;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::GpuKernel;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Adds `delta` to every element after sleeping `sleep_ms` — a kernel with
/// a controllable execution time (single block, so runtime == sleep).
struct SlowAddKernel {
    n: usize,
    delta: f32,
    sleep_ms: u64,
    perf: KernelPerf,
    buf: Arc<GpuBuffer>,
}

impl GpuKernel for SlowAddKernel {
    fn name(&self) -> &str {
        &self.perf.name
    }
    fn grid(&self) -> GridDim {
        GridDim::d1(1)
    }
    fn perf(&self) -> KernelPerf {
        self.perf.clone()
    }
    fn run_block(&self, _b: BlockCoord) {
        std::thread::sleep(Duration::from_millis(self.sleep_ms));
        for i in 0..self.n {
            self.buf.store_f32(i, self.buf.load_f32(i) + self.delta);
        }
    }
}

/// A synthetic perf profile. On the tiny test device everything
/// classifies compute-light (a willing co-runner); scenarios that need
/// the no-corun path use `pinned_solo` launches, which the arbiter
/// refuses to pair regardless of class.
fn k_perf(name: &str) -> KernelPerf {
    KernelPerf::synthetic(name, 500.0, 0.0)
}

fn launch_slow(
    client: &SlateClient,
    stream: u32,
    ptr: slate_core::SlatePtr,
    n: usize,
    sleep_ms: u64,
    perf: KernelPerf,
) -> Result<(), SlateError> {
    client.launch_on_stream(stream, vec![ptr], 5, move |bufs| {
        Arc::new(SlowAddKernel {
            n,
            delta: 1.0,
            sleep_ms,
            perf,
            buf: bufs[0].clone(),
        }) as Arc<dyn GpuKernel>
    })
}

/// Like [`launch_slow`] but pinned solo (never co-scheduled).
fn launch_slow_solo(
    client: &SlateClient,
    ptr: slate_core::SlatePtr,
    n: usize,
    sleep_ms: u64,
    perf: KernelPerf,
) -> Result<(), SlateError> {
    client.launch_solo_with(vec![ptr], 5, None, move |bufs| {
        Arc::new(SlowAddKernel {
            n,
            delta: 1.0,
            sleep_ms,
            perf,
            buf: bufs[0].clone(),
        }) as Arc<dyn GpuKernel>
    })
}

/// Runs `f` on a helper thread and panics if it has not finished within
/// `limit` — turns a deadlock into a test failure instead of a hang.
fn within(limit: Duration, what: &str, f: impl FnOnce() + Send + 'static) {
    let done = Arc::new(AtomicBool::new(false));
    let flag = done.clone();
    let t = std::thread::spawn(move || {
        f();
        flag.store(true, Ordering::Release);
    });
    let deadline = Instant::now() + limit;
    while !done.load(Ordering::Acquire) {
        assert!(
            Instant::now() < deadline,
            "{what} deadlocked (no progress within {limit:?})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    t.join().unwrap();
}

/// Connects with decorrelated-jitter backoff, retrying `Overloaded` sheds
/// until `limit` elapses. Panics on any other error.
fn connect_patient(
    daemon: &Arc<SlateDaemon>,
    user: &str,
    seed: u64,
    limit: Duration,
) -> SlateClient {
    let deadline = Instant::now() + limit;
    let mut rng = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut prev = Duration::from_millis(1);
    loop {
        match daemon.connect(user) {
            Ok(conn) => return SlateClient::new(conn),
            Err(SlateError::Overloaded { .. }) => {
                assert!(Instant::now() < deadline, "{user} could not connect");
                prev = decorrelated_jitter(
                    Duration::from_millis(1),
                    prev,
                    Duration::from_millis(10),
                    &mut rng,
                );
                std::thread::sleep(prev);
            }
            Err(other) => panic!("{user}: unexpected connect error {other}"),
        }
    }
}

#[test]
fn bounded_session_queue_sheds_newest_with_retry_hint() {
    // Per-session bound of 2 pending launches; the client fires 6 slow
    // kernels back-to-back on a lane stream, so exactly 4 are shed.
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(8),
        1 << 24,
        DaemonOptions {
            admission: AdmissionLimits {
                max_pending_per_session: Some(2),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let n = 64usize;
    let c = SlateClient::new(daemon.connect("burst").unwrap());
    let p = c.malloc((n * 4) as u64).unwrap();
    c.upload_f32(p, &vec![0.0f32; n]).unwrap();
    for _ in 0..6 {
        launch_slow(&c, 1, p, n, 40, k_perf("burst-lc")).unwrap();
    }
    // The sheds surface at the sync, Overloaded first, with a usable hint.
    match c.synchronize() {
        Err(SlateError::Overloaded { retry_after_ms }) => {
            assert!(retry_after_ms >= 1, "hint must be actionable");
        }
        other => panic!("expected Overloaded at sync, got {other:?}"),
    }
    assert_eq!(c.last_sync_failures(), 4, "drop-newest shed exactly 4");

    // The two admitted launches both executed.
    assert_eq!(c.download_f32(p, n).unwrap(), vec![2.0f32; n]);

    let m = daemon.metrics();
    assert_eq!(m.queue.admitted, 2);
    assert_eq!(m.queue.shed, 4);
    assert_eq!(m.queue.depth, 0, "drained after sync");
    assert!(
        m.queue.high_water <= 2,
        "bound respected: {}",
        m.queue.high_water
    );
    assert_eq!(m.admission.launches_completed, 2);
    assert_eq!(m.admission.launches_failed, 0);
    assert_eq!(m.admission.pending_est_ms, 0);

    c.free(p).unwrap();
    c.disconnect().unwrap();
    daemon.join();
    let m = daemon.metrics();
    assert_eq!(m.live_allocations, 0);
    assert_eq!(m.arbiter_residents, 0);
    assert_eq!(m.admission.active_sessions, 0);
}

/// One client's whole script against a 64 Ki-float buffer: allocate,
/// upload zeros, bump every element once, read back, free.
fn bump_script(c: &SlateClient) -> Result<Vec<f32>, SlateError> {
    let n = 64 * 1024;
    let p = c.malloc((n * 4) as u64)?;
    c.upload_f32(p, &vec![0.0f32; n])?;
    launch_slow(c, 1, p, n, 1, k_perf("retry-bump"))?;
    c.synchronize()?;
    let out = c.download_f32(p, n)?;
    c.free(p)?;
    Ok(out)
}

#[test]
fn shed_script_completes_under_client_retry_with_jitter() {
    // Memory watermark at half of a 1 MiB pool. A hog holds 384 KiB, so
    // the script's 256 KiB allocation is shed for as long as it does.
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(8),
        1 << 20,
        DaemonOptions {
            admission: AdmissionLimits {
                mem_watermark: Some(0.5),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let hog = SlateClient::new(daemon.connect("hog").unwrap());
    let held = hog.malloc(384 << 10).unwrap();

    // Without a retry policy the shed is the script's outcome.
    let plain = SlateClient::new(daemon.connect("plain").unwrap());
    match bump_script(&plain) {
        Err(SlateError::Overloaded { retry_after_ms }) => {
            assert!(retry_after_ms >= 1, "hint must be actionable");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    plain.disconnect().unwrap();
    assert_eq!(daemon.metrics().admission.mallocs_shed, 1);

    // With one, the same script rides the pressure out. The hog lets go
    // only once the daemon has shed the retrying client too, so at least
    // one retry is what gets it through.
    let d = daemon.clone();
    let patient = std::thread::spawn(move || {
        let c = SlateClient::new(d.connect("patient").unwrap())
            .with_retry(RetryPolicy::with_attempts(200).with_jitter(7));
        let out = bump_script(&c);
        c.disconnect().unwrap();
        out
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.metrics().admission.mallocs_shed < 2 {
        assert!(Instant::now() < deadline, "the patient client never tried");
        std::thread::sleep(Duration::from_millis(1));
    }
    hog.free(held).unwrap();
    let out = patient
        .join()
        .unwrap()
        .expect("with_retry outlasts the shed");
    assert_eq!(out, vec![1.0f32; 64 * 1024]);

    hog.disconnect().unwrap();
    daemon.join();
    let m = daemon.metrics();
    assert_eq!(m.admission.launches_completed, 1);
    assert_eq!(m.live_allocations, 0);
    assert_eq!(m.arbiter_residents, 0);
    assert_eq!(m.admission.active_sessions, 0);
}

#[test]
fn infeasible_deadline_is_shed_up_front() {
    // Pre-seed the profile table so the daemon can estimate queue wait.
    let cfg = DeviceConfig::tiny(8);
    let mut profiles = ProfileTable::new();
    profiles.get_or_profile(&cfg, &k_perf("deadline-k"), 10_000);
    let est = profiles
        .estimate_solo_ms("deadline-k", 1)
        .expect("profiled kernel must have an estimate");
    assert!(est >= 1);

    let daemon = SlateDaemon::start_with_options(
        cfg,
        1 << 24,
        DaemonOptions {
            profiles,
            ..Default::default()
        },
    );
    let n = 64usize;
    let c = SlateClient::new(daemon.connect("deadliner").unwrap());
    let p = c.malloc((n * 4) as u64).unwrap();
    c.upload_f32(p, &vec![0.0f32; n]).unwrap();

    // A slow profiled kernel occupies the queue (est ms of pending work)...
    launch_slow(&c, 1, p, n, 150, k_perf("deadline-k")).unwrap();
    // ...so a launch that must finish in 0 ms can only ever time out: it
    // is rejected at admission instead of wasting device time.
    c.launch_with_deadline(vec![p], 5, 0, {
        let perf = k_perf("deadline-k");
        move |bufs| {
            Arc::new(SlowAddKernel {
                n,
                delta: 1.0,
                sleep_ms: 0,
                perf,
                buf: bufs[0].clone(),
            }) as Arc<dyn GpuKernel>
        }
    })
    .unwrap();

    match c.synchronize() {
        Err(SlateError::Overloaded { retry_after_ms }) => {
            assert_eq!(retry_after_ms, est, "hint is the estimated queue wait");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(daemon.metrics().admission.deadline_rejections, 1);
    assert_eq!(c.last_sync_failures(), 1);
    // The pending slow launch itself completed fine.
    c.synchronize().unwrap();
    assert_eq!(c.download_f32(p, n).unwrap(), vec![1.0f32; n]);

    c.free(p).unwrap();
    c.disconnect().unwrap();
    daemon.join();
    let m = daemon.metrics();
    assert_eq!(m.queue.admitted, 1);
    assert_eq!(m.queue.shed, 1, "the deadline rejection counts as a shed");
    assert_eq!(m.admission.launches_completed, 1);
    assert_eq!(m.admission.pending_est_ms, 0);
    assert_eq!(m.live_allocations, 0);
}

#[test]
fn starved_waiter_is_promoted_to_solo_dispatch() {
    // A pinned-solo waiter can never join the 150 ms resident, so it
    // queues. With an aging bound of 10 ms it starves long before the
    // resident drains; the arbiter must then promote it to a solo
    // dispatch (and count the promotion) instead of letting fresh
    // corunnable arrivals overtake it.
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(8),
        1 << 24,
        DaemonOptions {
            starvation_bound_ms: Some(10),
            ..Default::default()
        },
    );
    let n = 64usize;
    let a = SlateClient::new(daemon.connect("resident").unwrap());
    let pa = a.malloc((n * 4) as u64).unwrap();
    a.upload_f32(pa, &vec![0.0f32; n]).unwrap();
    launch_slow(&a, 1, pa, n, 150, k_perf("age-resident")).unwrap();
    // Give the resident time to take the device before the waiter arrives.
    std::thread::sleep(Duration::from_millis(30));

    let b = SlateClient::new(daemon.connect("waiter").unwrap());
    let pb = b.malloc((n * 4) as u64).unwrap();
    b.upload_f32(pb, &vec![0.0f32; n]).unwrap();
    // Three queued solo launches, each bumping every slot by one: the
    // buffer is a hit counter, so a launch lost in the promotion (or run
    // twice through it) is observable as bytes, not just as a counter.
    const WAITER_LAUNCHES: usize = 3;
    for _ in 0..WAITER_LAUNCHES {
        launch_slow_solo(&b, pb, n, 5, k_perf("age-solo-waiter")).unwrap();
    }
    // Once the waiter has starved, a corunnable latecomer must not be
    // paired with the resident over its head: aging blocks fresh joins.
    std::thread::sleep(Duration::from_millis(20));
    let c = SlateClient::new(daemon.connect("latecomer").unwrap());
    let pc = c.malloc((n * 4) as u64).unwrap();
    c.upload_f32(pc, &vec![0.0f32; n]).unwrap();
    launch_slow(&c, 1, pc, n, 5, k_perf("age-latecomer")).unwrap();

    b.synchronize().unwrap();
    // Every queued launch of the promoted session completed end to end,
    // exactly once each: each slot counted every launch.
    assert_eq!(
        b.download_f32(pb, n).unwrap(),
        vec![WAITER_LAUNCHES as f32; n],
        "the promoted session's queued launches must all complete exactly once"
    );
    c.synchronize().unwrap();
    assert_eq!(c.download_f32(pc, n).unwrap(), vec![1.0f32; n]);
    a.synchronize().unwrap();

    assert!(
        daemon.metrics().starvation_promotions >= 1,
        "the starved pinned-solo waiter must be promoted, got {}",
        daemon.metrics().starvation_promotions
    );
    assert_eq!(
        daemon.metrics().starvation_promotions,
        daemon.metrics().starvation_promotions
    );

    a.free(pa).unwrap();
    b.free(pb).unwrap();
    c.free(pc).unwrap();
    a.disconnect().unwrap();
    b.disconnect().unwrap();
    c.disconnect().unwrap();
    daemon.join();
    assert_eq!(daemon.metrics().arbiter_residents, 0);
}

/// Seeded multi-client churn against tight limits. Each worker loops
/// connect → malloc → launch burst → sync → free → disconnect, backing
/// off sheds with decorrelated jitter. Returns through `within`, so a
/// deadlock fails instead of hanging.
fn churn(
    daemon: Arc<SlateDaemon>,
    threads: u64,
    iters: u64,
    launches_per_iter: u64,
    sleep_ms: u64,
    tolerate_faults: bool,
) -> (u64, u64, u64) {
    let connects = Arc::new(AtomicU64::new(0));
    let attempts = Arc::new(AtomicU64::new(0));
    let sheds_seen = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let daemon = daemon.clone();
            let connects = connects.clone();
            let attempts = attempts.clone();
            let sheds_seen = sheds_seen.clone();
            std::thread::spawn(move || {
                let n = 64usize;
                for iter in 0..iters {
                    let user = format!("churn-{t}-{iter}");
                    let client = if tolerate_faults {
                        connect_patient(&daemon, &user, t * 1_000 + iter, Duration::from_secs(10))
                            .with_circuit_breaker(BreakerConfig {
                                failure_threshold: 4,
                                cooldown: Duration::from_millis(50),
                            })
                    } else {
                        connect_patient(&daemon, &user, t * 1_000 + iter, Duration::from_secs(10))
                    };
                    connects.fetch_add(1, Ordering::Relaxed);
                    let perf = k_perf(&format!("churn-{t}"));
                    let p = match client.malloc((n * 4) as u64) {
                        Ok(p) => p,
                        Err(_) if tolerate_faults => continue,
                        Err(e) => panic!("{user}: malloc failed: {e}"),
                    };
                    if let Err(e) = client.upload_f32(p, &vec![0.0f32; n]) {
                        if tolerate_faults {
                            continue;
                        }
                        panic!("{user}: upload failed: {e}");
                    }
                    let mut sent = 0;
                    for k in 0..launches_per_iter {
                        let stream = 1 + (k % 2) as u32;
                        match launch_slow(&client, stream, p, n, sleep_ms, perf.clone()) {
                            Ok(()) => sent += 1,
                            // An open breaker fails launches fast
                            // client-side; the daemon never saw them.
                            Err(SlateError::Overloaded { .. }) if tolerate_faults => {}
                            Err(_) if tolerate_faults => break,
                            Err(e) => panic!("{user}: launch failed: {e}"),
                        }
                    }
                    attempts.fetch_add(sent, Ordering::Relaxed);
                    match client.synchronize() {
                        Ok(()) => {}
                        Err(SlateError::Overloaded { retry_after_ms }) => {
                            assert!(retry_after_ms >= 1);
                            sheds_seen.fetch_add(client.last_sync_failures(), Ordering::Relaxed);
                        }
                        Err(_) if tolerate_faults => continue,
                        Err(e) => panic!("{user}: sync failed: {e}"),
                    }
                    let _ = client.free(p);
                    let _ = client.disconnect();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    (
        connects.load(Ordering::Relaxed),
        attempts.load(Ordering::Relaxed),
        sheds_seen.load(Ordering::Relaxed),
    )
}

#[test]
fn churn_soak_under_tight_limits_stays_balanced_and_leak_free() {
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(8),
        1 << 24,
        DaemonOptions {
            admission: AdmissionLimits {
                max_sessions: Some(3),
                max_pending_per_session: Some(2),
                max_pending_global: Some(4),
                ..Default::default()
            },
            starvation_bound_ms: Some(25),
            ..Default::default()
        },
    );
    let d = daemon.clone();
    let totals = Arc::new(std::sync::Mutex::new((0u64, 0u64, 0u64)));
    let out = totals.clone();
    within(Duration::from_secs(60), "churn soak", move || {
        *out.lock().unwrap() = churn(d, 4, 3, 4, 2, false);
    });
    let (connects, attempts, sheds_seen) = *totals.lock().unwrap();
    daemon.join();

    let m = daemon.metrics();
    // Counters balance: every attempt was admitted or shed, every
    // admission completed, and every shed was surfaced to some client.
    assert_eq!(m.queue.admitted + m.queue.shed, attempts, "{m:?}");
    assert_eq!(
        m.queue.admitted,
        m.admission.launches_completed + m.admission.launches_failed,
        "{m:?}"
    );
    assert_eq!(m.admission.launches_failed, 0, "no faults injected");
    assert_eq!(sheds_seen, m.queue.shed, "every shed reached a client");
    assert_eq!(m.admission.sessions_admitted, connects);
    assert!(connects >= 12, "all 4x3 worker iterations connected");
    // Clean drain: nothing pending, nothing leaked.
    assert_eq!(m.queue.depth, 0);
    assert_eq!(m.admission.pending_est_ms, 0);
    assert_eq!(m.admission.active_sessions, 0);
    assert_eq!(m.live_allocations, 0);
    assert_eq!(m.arbiter_residents, 0);
}

/// Fault-plan seed for the chaos soak. Defaults to a fixed seed so a
/// plain `--ignored` run is reproducible; the nightly CI job sweeps a
/// matrix of seeds via `SLATE_CHAOS_SEED` (decimal or `0x`-prefixed hex).
fn chaos_seed() -> u64 {
    match std::env::var("SLATE_CHAOS_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("SLATE_CHAOS_SEED is not a u64: {s:?}"))
        }
        Err(_) => 0xC0FFEE,
    }
}

/// The long chaos variant: more workers, more iterations, and a seeded
/// fault plan (hangs, launch faults, memcpy stalls, channel drops) on top
/// of the tight limits. Run explicitly with
/// `cargo test --release --test overload_soak -- --ignored`; override the
/// seed with `SLATE_CHAOS_SEED` (the nightly job sweeps a seed matrix).
#[test]
#[ignore = "long soak; run explicitly (CI runs it with a timeout)"]
fn chaos_soak_with_fault_injection_drains_clean() {
    let seed = chaos_seed();
    eprintln!("chaos soak: SLATE_CHAOS_SEED = {seed:#x}");
    let daemon = SlateDaemon::start_with_options(
        DeviceConfig::tiny(8),
        1 << 24,
        DaemonOptions {
            fault_plan: FaultPlan::randomized(seed, 10),
            // Injected kernel hangs must not wedge the soak: the watchdog
            // evicts anything running longer than 150 ms.
            default_deadline_ms: Some(150),
            admission: AdmissionLimits {
                max_sessions: Some(4),
                max_pending_per_session: Some(2),
                max_pending_global: Some(6),
                ..Default::default()
            },
            starvation_bound_ms: Some(25),
            ..Default::default()
        },
    );
    let d = daemon.clone();
    within(Duration::from_secs(120), "chaos soak", move || {
        churn(d, 6, 8, 4, 2, true);
    });
    daemon.join();

    let m = daemon.metrics();
    // With faults the exact counts vary by schedule, but the drain
    // invariants are unconditional.
    assert_eq!(
        m.queue.admitted,
        m.admission.launches_completed + m.admission.launches_failed,
        "{m:?}"
    );
    assert_eq!(m.queue.depth, 0, "{m:?}");
    assert_eq!(m.admission.pending_est_ms, 0, "{m:?}");
    assert_eq!(m.admission.active_sessions, 0, "{m:?}");
    assert_eq!(m.live_allocations, 0, "{m:?}");
    assert_eq!(m.arbiter_residents, 0, "{m:?}");
}
