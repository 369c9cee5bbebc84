//! Kernel execution: the one path an admitted launch takes — from the
//! default stream, a stream lane or the crash-adoption pass — to its final
//! `KernelFinished`.

use super::arb::GrantWait;
use super::DaemonShared;
use crate::arbiter::Event as ArbEvent;
use crate::classify::WorkloadClass;
use crate::dispatch::Dispatcher;
use crate::durability::WalRecord;
use crate::error::SlateError;
use crate::transform::TransformedKernel;
use crate::workers::WorkerGrid;
use slate_gpu_sim::device::SmRange;
use slate_gpu_sim::fault::{FaultKind, FaultSite, FaultToken};
use slate_kernels::kernel::GpuKernel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One prepared launch, admitted by [`ArbEvent::LaunchRequested`]. The
/// same value is the stream-lane message, the argument of [`execute`] and
/// — parked at its carried progress when a crash cuts it off — the
/// [`CrashScene`](super::CrashScene) entry the recovered daemon re-executes,
/// so no user block runs twice and none is lost.
pub(super) struct Launch {
    /// The (session, stream) queue it is ordered on:
    /// `session << 16 | stream`.
    pub(super) lease: u64,
    pub(super) launch_id: u64,
    /// The client's kernel, untransformed.
    pub(super) kernel: Arc<dyn GpuKernel>,
    pub(super) task_size: u32,
    pub(super) pinned_solo: bool,
    /// Watchdog deadline (the daemon default applies when `None`). Past
    /// it the kernel is evicted and [`SlateError::Timeout`] returned.
    pub(super) deadline_ms: Option<u64>,
    /// Blocks already executed (absolute `slateIdx` progress): 0 for a
    /// fresh launch, the carried progress for a crash-adopted one.
    pub(super) progress: u64,
    /// Meaningful once parked: whether this launch's `KernelReady` reached
    /// the core (and the WAL) before the kill. At most the head job of a
    /// lease can be ready.
    pub(super) ready: bool,
}

impl Launch {
    pub(super) fn session(&self) -> u64 {
        self.lease >> 16
    }
}

/// How a launch that returned no error ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Ended {
    /// Every block ran, `LaunchDone` is logged and `KernelFinished` fed.
    Done,
    /// A crash cut it off: it is parked in the crash scene at its
    /// progress, and the recovered daemon's adoption pass owns it.
    Parked,
}

/// A kernel whose every block parks on a [`FaultToken`] until the watchdog
/// cancels it — the functional model of a kernel that never terminates.
struct HungKernel {
    inner: Arc<dyn GpuKernel>,
    token: FaultToken,
}

impl GpuKernel for HungKernel {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn grid(&self) -> slate_kernels::grid::GridDim {
        self.inner.grid()
    }
    fn perf(&self) -> slate_gpu_sim::perf::KernelPerf {
        self.inner.perf()
    }
    fn run_block(&self, _block: slate_kernels::grid::BlockCoord) {
        // Block until evicted; the worker then observes the retreat flag
        // at its next task boundary and exits.
        self.token.block_until_cancelled();
    }
}

/// Runs `launch` to its end under the shared arbitration core. Every
/// admitted launch — one that dies to an injected fault or an unlaunchable
/// profile before dispatch, and one whose kernel panics, included — feeds
/// exactly one final [`ArbEvent::KernelFinished`], which is what balances
/// the admission gauges and frees its SMs.
///
/// The kernel is the client's code running on a daemon thread: a panic in
/// it is contained here and surfaces as [`SlateError::KernelFault`], the
/// thread (a session's, a lane's) keeps serving.
pub(super) fn execute(shared: &Arc<DaemonShared>, launch: Launch) -> Result<Ended, SlateError> {
    let lease = launch.lease;
    // Whether the core still waits for a `KernelFinished` of this launch.
    let mut owed = true;
    let out = catch_unwind(AssertUnwindSafe(|| drive(shared, launch, &mut owed))).unwrap_or_else(
        |panic| {
            let what = panic_text(panic.as_ref());
            Err(SlateError::KernelFault(format!("kernel panicked: {what}")))
        },
    );
    if owed {
        shared.arb.finish(lease, false);
    }
    out
}

/// The message of a caught panic, for the error that reports it.
pub(super) fn panic_text(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string payload")
}

/// Profiles, transforms and dispatches `launch`, clearing `owed` once its
/// completion is fed. If the daemon crashes at any point the launch is
/// parked in the crash scene at its current progress and
/// [`Ended::Parked`] returned —
/// the recovered daemon's adoption pass owns it from there, and the
/// WAL-level `LaunchDone` record is written *before* the completion is fed
/// to the core, so a kill between the two re-drains zero blocks rather
/// than re-executing any.
fn drive(shared: &Arc<DaemonShared>, launch: Launch, owed: &mut bool) -> Result<Ended, SlateError> {
    let lease = launch.lease;
    let park = |launch: Launch, progress: u64, ready: bool| {
        shared.crash_inflight.lock().push(Launch {
            progress,
            ready,
            ..launch
        })
    };
    // Launch-site fault injection: an armed LaunchFault rejects the launch
    // outright; an armed KernelHang swaps in a kernel that parks every
    // block on a token only the watchdog's eviction cancels.
    let name = launch.kernel.name();
    let fault = shared.faults.lock().fire(FaultSite::Launch, Some(name));
    let hang_token = match fault {
        Some(FaultKind::LaunchFault) => {
            return Err(SlateError::KernelFault(format!(
                "injected device fault in '{name}'"
            )));
        }
        Some(FaultKind::KernelHang) => Some(FaultToken::new()),
        _ => None,
    };
    let kernel: Arc<dyn GpuKernel> = match &hang_token {
        Some(token) => Arc::new(HungKernel {
            inner: launch.kernel.clone(),
            token: token.clone(),
        }),
        None => launch.kernel.clone(),
    };

    // The kernel, its profile and its task size are the client's: what no
    // device of the fleet can launch (an evacuation may move the lease to
    // any) is refused here, as a typed error on a session that keeps
    // serving — not by a panic in first-run profiling, which simulates the
    // launch, and before `KernelReady` asks the arbiter for SMs the
    // workers could never use.
    let perf = kernel.perf();
    let grid_blocks = kernel.grid().total_blocks();
    let profiled = || -> Result<(WorkloadClass, u32), String> {
        if launch.task_size == 0 {
            return Err("task size must be at least 1".into());
        }
        perf.validate()?;
        if shared
            .devices
            .iter()
            .any(|d| WorkerGrid::of(d, &perf).is_none())
        {
            return Err("not one block fits an SM (occupancy 0)".into());
        }
        // First-run profiling and classification.
        let mut table = shared.profiles.lock();
        let p = table.try_get_or_profile(&shared.devices[0], &perf, grid_blocks.max(10_000))?;
        Ok((p.class, p.sm_demand))
    };
    let (class, demand) =
        profiled().map_err(|why| SlateError::Launch(format!("kernel '{}': {why}", perf.name)))?;

    // Transform, then wait for the lease's device core to grant an SM
    // range. An evacuation evicts the run and loops back here: the lease's
    // route now points at the target device, and the dispatch resumes from
    // the carried absolute `slateIdx` progress, so no user block executes
    // twice.
    let transformed = TransformedKernel::new(kernel);
    let started = Instant::now();
    let mut carried = launch.progress;
    let (out, ran_on) = loop {
        let device = &shared.devices[shared.arb.lease_device(lease)];
        let grid = WorkerGrid::of(device, &perf).expect("launchable: validated above");
        let dispatcher = Dispatcher::on_grid(
            grid,
            transformed.clone(),
            launch.task_size,
            SmRange::all(device.num_sms),
            carried,
        );
        let handle = dispatcher.handle();
        let ready = ArbEvent::KernelReady {
            session: launch.session(),
            lease,
            class,
            sm_demand: demand,
            pinned_solo: launch.pinned_solo,
            // The core arms the watchdog at dispatch (not while queued:
            // waiting behind a long co-runner is not the kernel's fault).
            deadline_ms: launch.deadline_ms.or(shared.default_deadline_ms),
        };
        *owed = true;
        let (granted_on, range) =
            match shared
                .arb
                .wait_grant(lease, ready, handle.clone(), hang_token.clone())
            {
                GrantWait::Granted(device, range) => (device, range),
                GrantWait::Crashed { ready_fed } => {
                    *owed = false;
                    park(launch, carried, ready_fed);
                    return Ok(Ended::Parked);
                }
            };
        if range != SmRange::all(shared.devices[granted_on].num_sms) {
            // Bind the first worker launch onto the granted partition (the
            // raced retreat at worst costs one immediate relaunch).
            handle.resize(range);
        }
        let out = dispatcher.run();
        *owed = false;
        if shared.arb.crashed() {
            // The eviction that ended this run was the crash's blanket
            // eviction, not a scheduling decision: park at the carried
            // progress.
            park(launch, out.blocks, true);
            return Ok(Ended::Parked);
        }
        // A migration target must be read before KernelFinished lands:
        // that feed completes the migration and flips the lease's route.
        let migrated = out.evicted && shared.arb.migration_target(lease).is_some();
        if !out.evicted {
            // Durable point of no return: once `LaunchDone` is on disk the
            // launch will never re-execute, even if the completion feed
            // below loses the race against a crash.
            shared.wal(WalRecord::LaunchDone {
                session: launch.session(),
                launch_id: launch.launch_id,
            });
        }
        if !shared.arb.finish(lease, !out.evicted) {
            // Crash landed between the run and its completion feed: the
            // adoption re-run resumes at full progress and drains zero
            // blocks, closing the launch in the recovered core.
            park(launch, out.blocks, true);
            return Ok(Ended::Parked);
        }
        if migrated {
            carried = out.blocks;
            continue;
        }
        break (out, granted_on);
    };
    if out.evicted {
        // An eviction with no migration target means the run is over. If
        // the device it ran on dropped out of service (and the fleet had
        // nowhere to evacuate it), report the lost device rather than a
        // watchdog timeout so clients retry against a healed fleet.
        if shared.arb.device_health(ran_on).out_of_service() {
            return Err(SlateError::DeviceLost {
                device: ran_on as u64,
            });
        }
        return Err(SlateError::Timeout {
            elapsed_ms: started.elapsed().as_millis() as u64,
        });
    }
    debug_assert!(out.blocks == grid_blocks);
    shared.launches.fetch_add(1, Ordering::Relaxed);
    Ok(Ended::Done)
}
