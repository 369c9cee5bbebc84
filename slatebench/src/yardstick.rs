//! The yardstick: a fixed piece of work in the benchmark's own code, run on
//! the measuring thread every few milliseconds *inside* every slice of the
//! workload and timed on that thread's CPU clock, so that a timing can be
//! stated at a *nominal host speed* instead of at whatever speed the shared
//! host happened to run during that slice.
//!
//! This sandbox is a two-vCPU guest on a busy host. Its neighbours slow
//! memory- and kernel-bound code by up to a factor of two, for anything
//! from a fraction of a second to minutes (an arithmetic loop does not
//! notice; anything that allocates, chases pointers, faults pages in or
//! switches threads does, all by about the same factor). Raw wall-clock
//! figures of one commit therefore differ by 30–50 % between runs a few
//! minutes apart, beyond any bound the benchmark could set. One tick of the
//! yardstick does what the program under test spends its time on — random
//! walks over an ordered map the size of its own working set (a few
//! megabytes: at home in the last-level cache until a neighbour evicts it),
//! heap allocation, page faults on fresh mappings — and slows down with it. Dividing a
//! slice's timings by its *host factor* (the mean tick inside the slice
//! over [`NOMINAL_TICK_S`]) removes what the host did and keeps what the
//! program did (README, *Repeatability*).
//!
//! A tick is timed on the calling thread's CPU clock, not the wall clock:
//! the daemon's heartbeat and polling threads share the CPU, and time they
//! take must not read as a slower host — else a change to the program's
//! idle behaviour would move the yardstick. The yardstick is outside the
//! program under test and never changes with it, so a change that makes
//! the program faster or slower moves the normalised figure by exactly as
//! much as it moves the raw one.

use crate::sys;
use std::collections::BTreeMap;
use std::hint::black_box;

/// What one tick takes on this sandbox when the host is calm, seconds of
/// thread CPU. A constant of the benchmark, never re-derived at run time:
/// it only fixes the scale, so that normalised figures read like this
/// sandbox's own figures on a quiet day.
pub const NOMINAL_TICK_S: f64 = 0.000_15;

/// Entries of the ordered map the ticks walk: with their buffers about
/// 4 MB. Calibrated, not arbitrary: a map far larger than the cache misses
/// whatever the neighbours do and under-reads them; one that fits the
/// private cache levels never notices them (README, *The yardstick*).
const MAP_ENTRIES: u64 = 20_000;
/// Map operations (lookup, replace, remove+insert) per tick.
const MAP_OPS: u64 = 240;
/// Pages mapped, touched and unmapped per tick.
const PAGES: usize = 48;
const PAGE: usize = 4096;

/// The parts of one tick, thread-CPU seconds each.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tick {
    /// Ordered-map walk with heap allocation.
    pub map_s: f64,
    /// Page faults on a fresh anonymous mapping.
    pub pages_s: f64,
}

impl Tick {
    /// The whole tick.
    pub fn total_s(&self) -> f64 {
        self.map_s + self.pages_s
    }
}

/// The yardstick: its map, and a generator that never repeats a key walk.
pub struct Yardstick {
    map: BTreeMap<u64, Vec<u8>>,
    z: u64,
}

impl Yardstick {
    /// Builds the map (a few milliseconds).
    pub fn new() -> Self {
        let mut y = Self {
            map: BTreeMap::new(),
            z: 0x2545_f491_4f6c_dd1d,
        };
        for _ in 0..MAP_ENTRIES {
            let z = y.next();
            y.map.insert(
                z % (4 * MAP_ENTRIES),
                vec![0u8; 64 + (z >> 32) as usize % 192],
            );
        }
        y
    }

    fn next(&mut self) -> u64 {
        self.z = self
            .z
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.z >> 11
    }

    /// One tick.
    pub fn tick(&mut self) -> Tick {
        let t0 = sys::thread_cpu_seconds();
        let mut found = 0u64;
        for _ in 0..MAP_OPS {
            let z = self.next();
            let key = z % (4 * MAP_ENTRIES);
            match z >> 40 & 3 {
                // Half the operations look a neighbourhood up and read it.
                0 | 1 => {
                    found += self
                        .map
                        .range(key..)
                        .take(3)
                        .map(|(_, v)| u64::from(v[0]) + v.len() as u64)
                        .sum::<u64>()
                }
                // A quarter replace an entry's buffer (free + allocate).
                2 => {
                    if let Some((&k, _)) = self.map.range(key..).next() {
                        self.map.insert(k, vec![1u8; 64 + (z >> 32) as usize % 192]);
                    }
                }
                // A quarter move an entry (the map keeps its size).
                _ => {
                    if let Some((&k, _)) = self.map.range(key..).next() {
                        let v = self.map.remove(&k).expect("present");
                        self.map.insert(key, v);
                    }
                }
            }
        }
        black_box(found);
        let t1 = sys::thread_cpu_seconds();
        black_box(sys::touch_fresh_pages(PAGES * PAGE, PAGE));
        let t2 = sys::thread_cpu_seconds();
        Tick {
            map_s: t1 - t0,
            pages_s: t2 - t1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_take_cpu_time_and_keep_the_map_size() {
        let mut y = Yardstick::new();
        let n = y.map.len();
        let t = y.tick();
        assert!(t.map_s > 0.0 && t.pages_s > 0.0 && t.total_s() < 0.1);
        assert_eq!(y.map.len(), n, "replacements and moves keep the count");
    }
}
