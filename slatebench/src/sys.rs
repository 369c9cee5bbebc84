//! What the benchmark reads about, and asks of, its own process and host —
//! all from outside the program under test: `/proc`, the process CPU clock,
//! the CPU affinity mask, `available_parallelism`, and one
//! `rustc --version` child that is waited for.

use std::time::Duration;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` of `<time.h>`
/// on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `<sys/mman.h>` on Linux (x86-64 and aarch64 agree).
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Process CPU time (user + system, all threads, exited ones included),
/// seconds, at the scheduler's nanosecond resolution — the tick-sampled
/// fields of `/proc/self/stat` are too coarse for a slice of a second.
pub fn cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread alone, seconds: what it ran, whatever
/// else shared its CPU meanwhile.
pub fn thread_cpu_seconds() -> f64 {
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

fn clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`; the symbol is libc's,
    // which `std` links.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Maps `len` fresh anonymous bytes, writes one byte every `stride`, and
/// unmaps them: one page fault per page touched. Returns the bytes written
/// (0 where the kernel refuses the mapping).
pub fn touch_fresh_pages(len: usize, stride: usize) -> usize {
    // SAFETY: a fresh private anonymous mapping of `len` bytes is ours
    // alone; every write below is inside it; it is unmapped before return.
    unsafe {
        let p = mmap(
            std::ptr::null_mut(),
            len,
            PROT_READ_WRITE,
            MAP_PRIVATE_ANONYMOUS,
            -1,
            0,
        );
        if p.is_null() || p as isize == -1 {
            return 0;
        }
        let mut written = 0;
        for off in (0..len).step_by(stride) {
            p.add(off).write_volatile(1);
            written += 1;
        }
        munmap(p, len);
        written
    }
}

/// Confines the calling thread, and every thread it goes on to spawn, to
/// the highest-numbered CPU it is allowed on (the lowest usually takes the
/// device interrupts). Returns that CPU, or `None` where the kernel
/// refuses; the run then goes on unconfined and says so.
pub fn pin_to_one_cpu() -> Option<u64> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a valid, writable buffer of `bytes` bytes.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid buffer of `bytes` bytes.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu as u64)
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn vm_hwm_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Live threads of this process.
pub fn threads() -> u64 {
    status_kb("Threads:").unwrap_or(0.0) as u64
}

/// One-minute load average of the host.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc --version` of the toolchain on `PATH`, or `"unknown"`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Process CPU as a percentage of one core over `window` of doing
/// nothing on the calling thread.
pub fn idle_cpu_pct(window: Duration) -> f64 {
    let c0 = cpu_seconds();
    let t0 = std::time::Instant::now();
    std::thread::sleep(window);
    (cpu_seconds() - c0) / t0.elapsed().as_secs_f64() * 100.0
}
