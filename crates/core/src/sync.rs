//! Poison-tolerant synchronization primitives for the daemon.
//!
//! The daemon runs one thread per session plus one per stream lane; a
//! panic inside any of them (a faulty kernel, an injected fault, a test
//! assertion) poisons every `std::sync::Mutex` it held at the time. With
//! bare `.unwrap()` on `lock()`, that one panic cascades: every later
//! locker panics too and the whole daemon wedges. [`Mutex::lock`] here
//! recovers the poisoned guard instead (the protected state is still
//! structurally valid — the daemon's shared maps and counters are updated
//! atomically under the lock, never left half-written across a panic
//! point) and counts the recovery, so operators can observe that a
//! session thread died without the daemon dying with it.
//!
//! The API mirrors the `parking_lot` subset the daemon previously used:
//! `lock()` returns the guard directly and [`Condvar::wait`] takes
//! `&mut MutexGuard`.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A mutex whose `lock()` recovers from poisoning instead of panicking,
/// counting each recovery.
pub(crate) struct Mutex<T: ?Sized> {
    recoveries: AtomicU64,
    inner: std::sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`].
pub(crate) struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can move the std guard out and back in
    // without dropping the wrapper.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub(crate) const fn new(value: T) -> Self {
        Self {
            recoveries: AtomicU64::new(0),
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock. A poisoned lock (some thread panicked while
    /// holding it) is recovered transparently and counted in
    /// [`Mutex::recoveries`].
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.inner.lock().unwrap_or_else(|poisoned| {
            self.recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        });
        MutexGuard { inner: Some(guard) }
    }

    /// Times this mutex recovered a poisoned guard in `lock()`.
    pub(crate) fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sync::Mutex")
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait returned because the timeout elapsed.
    pub(crate) fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable paired with [`Mutex`]; waits recover poisoned
/// guards the same way [`Mutex::lock`] does.
#[derive(Default)]
pub(crate) struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub(crate) const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Blocks until notified, releasing the guard's lock while waiting.
    pub(crate) fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard present");
        let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(g);
    }

    /// Blocks until notified or `timeout` elapses.
    pub(crate) fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard present");
        let (g, res) = match self.inner.wait_timeout(g, timeout) {
            Ok((g, res)) => (g, res),
            Err(e) => e.into_inner(),
        };
        guard.inner = Some(g);
        WaitTimeoutResult {
            timed_out: res.timed_out(),
        }
    }

    /// Blocks until notified or `deadline` passes.
    pub(crate) fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        self.wait_for(guard, timeout)
    }

    /// Wakes one waiter.
    pub(crate) fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub(crate) fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sync::Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.recoveries(), 0);
    }

    #[test]
    fn poisoned_lock_recovers_and_counts() {
        let m = Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // Every subsequent locker recovers (and each recovery is counted,
        // because std keeps the mutex marked poisoned).
        assert_eq!(*m.lock(), 7);
        assert!(m.recoveries() >= 1, "recovery must be counted");
        *m.lock() += 1;
        assert_eq!(*m.lock(), 8, "state stays usable after recovery");
    }

    #[test]
    fn condvar_wait_survives_poisoned_mutex() {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison while a waiter exists");
        })
        .join();
        let waiter_m = m.clone();
        let waiter_cv = cv.clone();
        let t = std::thread::spawn(move || {
            let mut g = waiter_m.lock();
            while !*g {
                waiter_cv.wait(&mut g);
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
    }
}
