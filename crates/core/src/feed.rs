//! A bounded lock-free SPSC ring: [`ring`] returns the two ends of a
//! single-producer single-consumer queue, and a push and a pop are two
//! atomic operations each and no lock.
//!
//! **Nothing in this crate uses [`ring`].** Queueing submissions to a
//! consumer thread removes no serialisation — the consumer's work is all
//! under the arbiter lock and every submitter waits for its reply — so
//! the daemon's submitters take that lock and feed the layer themselves
//! (`DESIGN.md` §17). The ring and its `push`/`pop` stay public only
//! because the benchmark package (`slatebench/src/probes.rs`,
//! `feed.push_pop_ns`) imports them; it goes when that probe does. Its
//! `len`/`capacity` accessors are for its own tests.
//!
//! The ring is SPSC by construction, not by convention: [`ring`] returns
//! distinct [`RingProducer`]/[`RingConsumer`] handles, neither clonable,
//! and every operation takes `&mut self` — two threads can't race one
//! side without already having broken Rust's aliasing rules.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared storage of one SPSC ring: a power-of-two slot array indexed by
/// free-running head/tail counters (Lamport's construction). `head` is
/// owned by the consumer, `tail` by the producer; each side publishes
/// its counter with a release store after touching a slot, and reads the
/// other's with an acquire load before touching one — that pairing is
/// the entire synchronization.
struct RingInner<T> {
    slots: Box<[UnsafeCell<Option<T>>]>,
    mask: usize,
    /// Next slot to pop (consumer-owned).
    head: AtomicUsize,
    /// Next slot to push (producer-owned).
    tail: AtomicUsize,
}

// One producer and one consumer may touch the ring from different
// threads; slot access is partitioned by the head/tail protocol above.
unsafe impl<T: Send> Send for RingInner<T> {}
unsafe impl<T: Send> Sync for RingInner<T> {}

/// Creates a bounded SPSC ring of at least `capacity` slots (rounded up
/// to a power of two, minimum 2), returning the two endpoint handles.
pub fn ring<T>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let inner = Arc::new(RingInner {
        slots: (0..cap).map(|_| UnsafeCell::new(None)).collect(),
        mask: cap - 1,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (
        RingProducer {
            inner: inner.clone(),
        },
        RingConsumer { inner },
    )
}

/// The push side of a ring built by [`ring`]. Not clonable; push takes
/// `&mut self`, so exactly one thread at a time can produce.
pub struct RingProducer<T> {
    inner: Arc<RingInner<T>>,
}

impl<T> RingProducer<T> {
    /// Pushes `v`, or returns it if the ring is full (backpressure is
    /// the caller's policy: wait, retry, or drop).
    pub fn push(&mut self, v: T) -> Result<(), T> {
        let r = &*self.inner;
        let tail = r.tail.load(Ordering::Relaxed);
        let head = r.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > r.mask {
            return Err(v);
        }
        // Sole producer (`&mut self`) and the slot is vacated: the
        // consumer's head (acquire-read above) is past it.
        unsafe { *r.slots[tail & r.mask].get() = Some(v) };
        r.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Items currently queued.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        let r = &*self.inner;
        r.tail
            .load(Ordering::Relaxed)
            .wrapping_sub(r.head.load(Ordering::Acquire))
    }

    /// Whether a push would currently fail.
    #[cfg(test)]
    pub(crate) fn is_full(&self) -> bool {
        self.len() > self.inner.mask
    }

    /// The ring's slot count.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.inner.mask + 1
    }
}

/// The pop side of a ring built by [`ring`]. Not clonable; pop takes
/// `&mut self`, so exactly one thread at a time can consume.
pub struct RingConsumer<T> {
    inner: Arc<RingInner<T>>,
}

impl<T> RingConsumer<T> {
    /// Pops the oldest item, or `None` if the ring is empty.
    pub fn pop(&mut self) -> Option<T> {
        let r = &*self.inner;
        let head = r.head.load(Ordering::Relaxed);
        let tail = r.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // Sole consumer (`&mut self`) and the slot is filled: the
        // producer's tail (acquire-read above) is past it.
        let v = unsafe { (*r.slots[head & r.mask].get()).take() };
        r.head.store(head.wrapping_add(1), Ordering::Release);
        v
    }

    /// Items currently queued.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        let r = &*self.inner;
        r.tail
            .load(Ordering::Acquire)
            .wrapping_sub(r.head.load(Ordering::Relaxed))
    }

    /// Whether the ring is currently empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity_bound() {
        let (mut tx, mut rx) = ring::<u64>(4);
        assert_eq!(tx.capacity(), 4);
        for i in 0..4 {
            tx.push(i).expect("fits");
        }
        assert!(tx.is_full());
        assert_eq!(tx.push(99), Err(99), "full ring rejects");
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i), "FIFO order");
        }
        assert_eq!(rx.pop(), None);
        assert!(rx.is_empty());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = ring::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = ring::<u8>(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn interleaved_push_pop_wraps_the_index_space() {
        let (mut tx, mut rx) = ring::<usize>(2);
        // Many more operations than slots: indices wrap many times.
        for i in 0..1000 {
            tx.push(i).expect("room");
            tx.push(i + 1_000_000).expect("room");
            assert_eq!(rx.pop(), Some(i));
            assert_eq!(rx.pop(), Some(i + 1_000_000));
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn drop_releases_undrained_items() {
        let item = Arc::new(());
        let (mut tx, rx) = ring::<Arc<()>>(4);
        tx.push(item.clone()).expect("room");
        tx.push(item.clone()).expect("room");
        assert_eq!(Arc::strong_count(&item), 3);
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&item), 1, "ring drop frees queued items");
    }

    /// Two real threads, a ring much smaller than the item count, and a
    /// seeded, deterministic pattern of consumer stalls: every item must
    /// arrive exactly once, in order, through full-ring backpressure.
    #[test]
    fn threaded_stress_exactly_once_in_order() {
        const N: u64 = 100_000;
        let (mut tx, mut rx) = ring::<u64>(8);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let consumer = std::thread::spawn(move || {
            // xorshift-seeded stall pattern: occasionally sleep so the
            // ring oscillates between full and empty.
            let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
            let mut expect = 0u64;
            while expect < N {
                match rx.pop() {
                    Some(v) => {
                        assert_eq!(v, expect, "in-order, exactly once");
                        expect += 1;
                    }
                    None => std::thread::yield_now(),
                }
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                if rng % 4096 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            }
            assert_eq!(rx.pop(), None, "nothing after the last item");
        });
        producer.join().expect("producer");
        consumer.join().expect("consumer");
    }

    /// Shutdown drain: producer stops, consumer drains the remainder —
    /// nothing is lost, nothing is duplicated.
    #[test]
    fn shutdown_drains_exactly_once() {
        let (mut tx, mut rx) = ring::<u64>(16);
        let mut sent = Vec::new();
        for i in 0..10 {
            tx.push(i).expect("room");
            sent.push(i);
        }
        drop(tx); // producer gone; queued items must still drain
        let mut got = Vec::new();
        while let Some(v) = rx.pop() {
            got.push(v);
        }
        assert_eq!(got, sent);
        assert_eq!(rx.pop(), None);
    }
}
