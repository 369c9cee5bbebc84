//! Pieces the workloads share: the add-kernel client, the end-of-run
//! daemon checks, and the reductions the traced passes end with.

use crate::kernels::{add_kernel, client_delta, ADD_N};
use crate::load::Slice;
use crate::probes::{self, Values};
use crate::report::WorkloadReport;
use crate::spans::{self, Spans};
use crate::stats;
use crate::sys;
use slate_core::api::SlateClient;
use slate_core::daemon::SlateDaemon;
use slate_core::SlatePtr;
use std::sync::Arc;

/// Connections (sessions) a serve workload keeps busy at once. Two, so
/// that kernels of two sessions are resident together and the arbiter has
/// co-running and resizing to do. Both are driven by the one generator
/// thread, in a fixed interleaving.
pub const CLIENTS: usize = 2;

/// Task size (`SLATE_ITERS`) of the add launches: one block per task, so
/// a four-block launch is four queue pulls.
pub const ADD_TASK_SIZE: u32 = 1;

/// A long-lived session that launches the add kernel on its own buffer.
pub struct AddClient {
    /// Client index; selects the H_M or L_C shape and the increment.
    pub c: usize,
    /// The connection.
    pub client: SlateClient,
    /// The session's buffer of [`ADD_N`] floats.
    pub ptr: SlatePtr,
    /// Launches whose synchronize returned Ok.
    pub launched: u64,
    /// Launches sent and not yet synchronized.
    in_flight: u64,
}

impl AddClient {
    /// Connects as `client-<c>`, allocates and zeroes the buffer.
    pub fn connect(daemon: &Arc<SlateDaemon>, c: usize) -> Result<Self, String> {
        let client = SlateClient::new(
            daemon
                .connect(&format!("client-{c}"))
                .map_err(|e| e.to_string())?,
        );
        let ptr = client
            .malloc((ADD_N * 4) as u64)
            .map_err(|e| e.to_string())?;
        client
            .upload_f32(ptr, &[0.0; ADD_N])
            .map_err(|e| e.to_string())?;
        Ok(Self {
            c,
            client,
            ptr,
            launched: 0,
            in_flight: 0,
        })
    }

    /// Sends one add launch (returns once the daemon has admitted it).
    pub fn launch(&mut self, spans: &mut Spans) -> Result<(), String> {
        let c = self.c;
        spans.set_session(self.client.session());
        let t = spans.begin();
        self.client
            .launch_with(vec![self.ptr], ADD_TASK_SIZE, None, move |bufs| {
                add_kernel(c, bufs[0].clone())
            })
            .map_err(|e| e.to_string())?;
        spans.end(t, "api.launch");
        self.in_flight += 1;
        Ok(())
    }

    /// Waits for every launch sent so far.
    pub fn synchronize(&mut self, spans: &mut Spans) -> Result<(), String> {
        spans.set_session(self.client.session());
        let t = spans.begin();
        self.client.synchronize().map_err(|e| e.to_string())?;
        spans.end(t, "api.synchronize");
        self.launched += std::mem::take(&mut self.in_flight);
        Ok(())
    }

    /// Reads the buffer back, checks every element equals the number of
    /// successful launches times the increment, frees and disconnects.
    /// `corrupt` overwrites one element first (the contract test's hook:
    /// the check must then fail).
    pub fn finish(self, corrupt: bool) -> Result<(), String> {
        if corrupt {
            let mut bad = self
                .client
                .download_f32(self.ptr, ADD_N)
                .map_err(|e| e.to_string())?;
            bad[ADD_N / 2] += 1.0;
            self.client
                .upload_f32(self.ptr, &bad)
                .map_err(|e| e.to_string())?;
        }
        let got = self
            .client
            .download_f32(self.ptr, ADD_N)
            .map_err(|e| e.to_string())?;
        let want = self.launched as f32 * client_delta(self.c);
        let wrong = got.iter().filter(|&&v| v != want).count();
        self.client.free(self.ptr).map_err(|e| e.to_string())?;
        self.client.disconnect().map_err(|e| e.to_string())?;
        if wrong == 0 {
            Ok(())
        } else {
            Err(format!(
                "{wrong}/{ADD_N} elements differ from {want} ({} launches)",
                self.launched
            ))
        }
    }
}

/// One op of the add workloads: a launch on every session, then a
/// synchronize on every session, so the kernels are resident together.
/// Returns the launches completed.
pub fn launch_all_sync_all(clients: &mut [AddClient], spans: &mut Spans) -> Result<u64, String> {
    let root = spans.begin_op();
    for cl in clients.iter_mut() {
        cl.launch(spans)?;
    }
    for cl in clients.iter_mut() {
        cl.synchronize(spans)?;
    }
    spans.end_op(root);
    Ok(clients.len() as u64)
}

/// The checks every serve workload ends with, once all sessions are
/// closed: the daemon served exactly the launches that succeeded, leaked
/// nothing, recovered no poisoned lock and lost no WAL write.
pub fn daemon_checks(daemon: &SlateDaemon, launches_ok: u64, report: &mut WorkloadReport) {
    let m = daemon.metrics();
    report.check(
        "metrics().launches_served equals launches ok",
        m.launches_served == launches_ok,
        format!("served {} ok {launches_ok}", m.launches_served),
    );
    report.check(
        "live_allocations == 0",
        m.live_allocations == 0,
        format!("{}", m.live_allocations),
    );
    report.check(
        "lock_recoveries == 0",
        m.lock_recoveries == 0,
        format!("{}", m.lock_recoveries),
    );
    report.check(
        "wal_io_errors() == 0",
        daemon.wal_io_errors() == 0,
        format!("{}", daemon.wal_io_errors()),
    );
}

/// Counters the daemon itself reports, as the workload's own per-layer
/// figures.
pub fn daemon_values(daemon: &SlateDaemon, own: &mut Values) {
    let m = daemon.metrics();
    let (hits, misses) = daemon.injection_stats();
    own.insert(
        "placement.sessions_routed",
        ("count", m.placement.sessions_routed as f64),
    );
    own.insert(
        "placement.migrations",
        ("count", m.placement.migrations_completed as f64),
    );
    own.insert(
        "daemon.launches_served",
        ("count", m.launches_served as f64),
    );
    own.insert(
        "daemon.watchdog_evictions",
        ("count", m.watchdog_evictions as f64),
    );
    own.insert(
        "daemon.reaped_sessions",
        ("count", m.reaped_sessions as f64),
    );
    own.insert(
        "injector.hit_share",
        (
            "ratio",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        ),
    );
}

/// For each `(span, metric)` pair: the median duration of the spans of that
/// name, times `scale`, as the workload's own `metric` (µs).
pub fn span_medians(spans: &[Spans], pairs: &[(&str, &'static str)], scale: f64, own: &mut Values) {
    for &(span, metric) in pairs {
        let d = spans::durations(spans, span);
        if !d.is_empty() {
            own.insert(metric, ("us", stats::median(&d) * scale));
        }
    }
}

/// Medians of the launch and synchronize spans, and the traced p50 of one
/// launch as the client sees it: launch sends plus the synchronize wait of
/// an op, divided by the op's launches.
pub fn span_values(spans: &[Spans], launches_per_op: f64, own: &mut Values) -> Option<f64> {
    span_medians(
        spans,
        &[
            ("api.launch", "api.launch_send_us"),
            ("api.synchronize", "api.sync_wait_us"),
        ],
        1.0,
        own,
    );
    let per_op = spans::per_op_sums(spans, &["api.launch", "api.synchronize"]);
    (!per_op.is_empty()).then(|| stats::median(&per_op) / launches_per_op)
}

/// Runs the api probe on the workload's own daemon; returns the launches
/// it made (0, and a failed check, if it could not run).
pub fn api_probe(daemon: &Arc<SlateDaemon>, own: &mut Values, report: &mut WorkloadReport) -> u64 {
    probes::api(daemon, own).unwrap_or_else(|e| {
        report.check("api probe ran", false, e);
        0
    })
}

/// Median of the latencies of `slices` as the clock read them,
/// microseconds (NaN when there are none).
pub fn p50_us(slices: &[Slice]) -> f64 {
    let lat: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.lat_us.iter().copied())
        .collect();
    if lat.is_empty() {
        return f64::NAN;
    }
    stats::quantile(&lat, 0.5)
}

/// How late the open-loop generator sent, p99, as `bench.late_p99_us`.
pub fn lateness_value(slices: &[Slice], own: &mut Values) {
    let late: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.late_us.iter().copied())
        .collect();
    if !late.is_empty() {
        own.insert("bench.late_p99_us", ("us", stats::quantile(&late, 0.99)));
    }
}

/// Peak resident set size so far, as `process.rss_mb`. Taken right after
/// the traced phase, before the probes allocate anything.
pub fn rss_value(own: &mut Values) {
    own.insert("process.rss_mb", ("MB", sys::vm_hwm_mb()));
}
