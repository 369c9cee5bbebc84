//! Dense-id interning for the decision hot path.
//!
//! External session and lease ids are opaque `u64`s chosen by clients —
//! sparse, unbounded, and unordered. Every decision-path structure that
//! used to key a `BTreeMap` on them now indexes a plain `Vec` with a
//! dense `u32` *slot* instead, and [`IdTable`] is the mapping between
//! the two worlds: `intern` hands out the lowest-numbered reusable slot,
//! `release` returns it to a LIFO free list, and an open-addressed
//! `u64 → u32` index answers reverse lookups without touching the
//! allocator in steady state.
//!
//! Two invariants make the table safe under the replay discipline
//! (see `DESIGN.md` §17):
//!
//! 1. **Slot numbers never leak into output.** Commands, transcripts and
//!    snapshots speak external ids only; anything that iterates slots and
//!    emits commands must order by external id first. Slot assignment is
//!    deterministic anyway (LIFO reuse of a deterministic event stream),
//!    but correctness must not depend on it — a core restored from a
//!    snapshot re-interns in ascending external-id order, which permutes
//!    slots without permuting behavior.
//! 2. **Steady-state interning does not allocate.** The index uses
//!    backward-shift deletion instead of tombstones, so a workload that
//!    interns and releases in balance never degrades the probe sequences
//!    and never forces a rehash; the free list guarantees the slot arena
//!    stops growing once it has seen the high-water mark of concurrently
//!    live ids.

/// Sentinel marking an empty index bucket (`u32::MAX` is never a valid
/// slot: the arena is bounded far below it by memory).
const EMPTY: u32 = u32::MAX;

/// Multiplier for Fibonacci hashing: `2^64 / φ`, the classic
/// golden-ratio constant. High bits of `id * K` are well mixed even for
/// sequential ids, which client session/lease ids usually are.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// An open-addressed `u64 → u32` hash index: power-of-two capacity,
/// linear probing, backward-shift deletion (no tombstones). Private to
/// the interner — the rest of the crate speaks [`IdTable`].
#[derive(Debug, Clone)]
struct U64Index {
    /// `(key, slot)` buckets; `slot == EMPTY` marks a free bucket.
    buckets: Vec<(u64, u32)>,
    /// Live entries.
    len: usize,
    /// `buckets.len() - 1`; capacity is always a power of two.
    mask: usize,
    /// `64 - log2(capacity)`: Fibonacci hashing takes the *high* bits.
    shift: u32,
}

impl U64Index {
    fn with_capacity(at_least: usize) -> Self {
        let cap = at_least.next_power_of_two().max(8);
        Self {
            buckets: vec![(0, EMPTY); cap],
            len: 0,
            mask: cap - 1,
            shift: 64 - cap.trailing_zeros(),
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    fn get(&self, key: u64) -> Option<u32> {
        let mut i = self.home(key);
        loop {
            let (k, s) = self.buckets[i];
            if s == EMPTY {
                return None;
            }
            if k == key {
                return Some(s);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts `key → slot`. The caller guarantees `key` is absent.
    fn insert(&mut self, key: u64, slot: u32) {
        if (self.len + 1) * 4 > self.buckets.len() * 3 {
            self.grow();
        }
        let mut i = self.home(key);
        while self.buckets[i].1 != EMPTY {
            debug_assert_ne!(self.buckets[i].0, key, "duplicate index insert");
            i = (i + 1) & self.mask;
        }
        self.buckets[i] = (key, slot);
        self.len += 1;
    }

    /// Removes `key`, compacting the probe chain behind it (backward
    /// shift) so no tombstone is left to slow later probes or force a
    /// rehash. Returns the slot it mapped to.
    fn remove(&mut self, key: u64) -> Option<u32> {
        let mut i = self.home(key);
        loop {
            let (k, s) = self.buckets[i];
            if s == EMPTY {
                return None;
            }
            if k == key {
                self.buckets[i].1 = EMPTY;
                self.len -= 1;
                // Backward shift: walk the chain after the hole; any
                // entry whose home position lies outside the cyclic
                // interval (i, j] may be moved back into the hole.
                let mut j = i;
                loop {
                    j = (j + 1) & self.mask;
                    let (jk, js) = self.buckets[j];
                    if js == EMPTY {
                        break;
                    }
                    let h = self.home(jk);
                    let dist_home = j.wrapping_sub(h) & self.mask;
                    let dist_hole = j.wrapping_sub(i) & self.mask;
                    if dist_home >= dist_hole {
                        self.buckets[i] = (jk, js);
                        self.buckets[j].1 = EMPTY;
                        i = j;
                    }
                }
                return Some(s);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.buckets, vec![(0, EMPTY); 0]);
        let cap = (old.len() * 2).max(8);
        self.buckets = vec![(0, EMPTY); cap];
        self.mask = cap - 1;
        self.shift = 64 - cap.trailing_zeros();
        self.len = 0;
        for (k, s) in old {
            if s != EMPTY {
                self.insert(k, s);
            }
        }
    }
}

/// A stable, replay-deterministic interner from external `u64` ids to
/// dense `u32` slots with LIFO free-list reuse. See the [module
/// docs](self) for the invariants.
#[derive(Debug, Clone)]
pub struct IdTable {
    /// Slot → external id for live slots; for released slots the cell is
    /// repurposed as an intrusive free-list link (the previous free
    /// head, as `u64`). Liveness of slot `s` is `index.get(ext[s]) ==
    /// Some(s)`: a freed slot's cell holds either a stale id that left
    /// the index (or re-interned into a *different* slot) or a link
    /// value, and the index never maps anything to a free slot — so the
    /// round-trip matches live slots exactly. Threading the free list
    /// through `ext` keeps the whole table at two allocations (arena +
    /// index) with no separate liveness or free vectors.
    ext: Vec<u64>,
    /// Most recently released slot ([`EMPTY`] when none): LIFO reuse.
    free_head: u32,
    /// External id → slot, for the live slots exactly.
    index: U64Index,
}

impl Default for IdTable {
    fn default() -> Self {
        Self::new()
    }
}

impl IdTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty table with room for `n` concurrently live ids before any
    /// allocation.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            ext: Vec::with_capacity(n),
            free_head: EMPTY,
            index: U64Index::with_capacity(n * 2),
        }
    }

    /// Interns `id`, returning `(slot, fresh)`: the existing slot with
    /// `fresh == false` when `id` is already live, otherwise a reused or
    /// newly grown slot with `fresh == true`. Callers must reset any
    /// parallel per-slot state when `fresh` — the slot may have belonged
    /// to a released id.
    pub fn intern(&mut self, id: u64) -> (u32, bool) {
        if let Some(slot) = self.index.get(id) {
            return (slot, false);
        }
        let slot = if self.free_head != EMPTY {
            let s = self.free_head;
            self.free_head = self.ext[s as usize] as u32;
            self.ext[s as usize] = id;
            s
        } else {
            let s = self.ext.len() as u32;
            self.ext.push(id);
            s
        };
        self.index.insert(id, slot);
        (slot, true)
    }

    /// The live slot of `id`, if interned.
    #[inline]
    pub fn get(&self, id: u64) -> Option<u32> {
        self.index.get(id)
    }

    /// Releases `id`, pushing its slot onto the free list. Returns the
    /// slot, or `None` if `id` was not interned.
    pub fn release(&mut self, id: u64) -> Option<u32> {
        let slot = self.index.remove(id)?;
        self.ext[slot as usize] = self.free_head as u64;
        self.free_head = slot;
        Some(slot)
    }

    /// The external id occupying `slot`. Panics on a dead or
    /// out-of-range slot in debug builds; meaningful only for live slots.
    #[inline]
    pub fn ext(&self, slot: u32) -> u64 {
        debug_assert_eq!(
            self.index.get(self.ext[slot as usize]),
            Some(slot),
            "ext() of a dead slot"
        );
        self.ext[slot as usize]
    }

    /// Total slots ever handed out (live + free). Parallel per-slot
    /// tables size themselves to this.
    pub fn slot_count(&self) -> usize {
        self.ext.len()
    }

    /// Live `(external id, slot)` pairs in ascending *external* order:
    /// the order a snapshot writes per-id state in. Allocates the list.
    pub(crate) fn by_id(&self) -> Vec<(u64, u32)> {
        let mut live: Vec<(u64, u32)> = self.iter().map(|(slot, id)| (id, slot)).collect();
        live.sort_unstable();
        live
    }

    /// Live `(slot, external id)` pairs in ascending *slot* order.
    /// Output-affecting iteration must sort by external id — slot order
    /// is an implementation detail (invariant 1 in the module docs).
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.ext
            .iter()
            .enumerate()
            .filter(|&(s, &e)| self.index.get(e) == Some(s as u32))
            .map(|(s, &e)| (s as u32, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_get_release_roundtrip() {
        let mut t = IdTable::new();
        let (a, fresh) = t.intern(100);
        assert!(fresh);
        assert_eq!(t.get(100), Some(a));
        assert_eq!(t.intern(100), (a, false), "re-intern is idempotent");
        assert_eq!(t.iter().count(), 1);
        assert_eq!(t.release(100), Some(a));
        assert_eq!(t.get(100), None);
        assert_eq!(t.iter().next(), None);
        assert_eq!(t.release(100), None, "double release is a no-op");
    }

    #[test]
    fn slots_are_dense_and_reused_lifo() {
        let mut t = IdTable::new();
        let (a, _) = t.intern(10);
        let (b, _) = t.intern(20);
        let (c, _) = t.intern(30);
        assert_eq!((a, b, c), (0, 1, 2), "fresh slots are dense from zero");
        t.release(20);
        t.release(10);
        // LIFO: the most recently released slot comes back first.
        assert_eq!(t.intern(40), (a, true));
        assert_eq!(t.intern(50), (b, true));
        assert_eq!(t.intern(60), (3, true), "exhausted free list grows");
        assert_eq!(t.slot_count(), 4);
    }

    #[test]
    fn zero_and_max_are_valid_ids() {
        let mut t = IdTable::new();
        let (z, _) = t.intern(0);
        let (m, _) = t.intern(u64::MAX);
        assert_eq!(t.get(0), Some(z));
        assert_eq!(t.get(u64::MAX), Some(m));
        t.release(0);
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(u64::MAX), Some(m));
    }

    #[test]
    fn iter_lists_live_slots_only() {
        let mut t = IdTable::new();
        t.intern(5);
        t.intern(6);
        t.intern(7);
        t.release(6);
        let pairs: Vec<(u32, u64)> = t.iter().collect();
        assert_eq!(pairs, vec![(0, 5), (2, 7)]);
        assert_eq!(t.ext(0), 5);
        assert_eq!(t.ext(2), 7);
    }

    #[test]
    fn index_survives_heavy_churn_without_losing_entries() {
        let mut t = IdTable::new();
        // Interleave interning and releasing across several growth
        // boundaries; backward-shift deletion must keep every live probe
        // chain intact.
        for round in 0u64..50 {
            for i in 0..40 {
                t.intern(round * 1000 + i);
            }
            for i in 0..40 {
                if i % 3 != 0 {
                    assert!(t.release(round * 1000 + i).is_some());
                }
            }
        }
        for round in 0u64..50 {
            for i in 0..40 {
                let id = round * 1000 + i;
                assert_eq!(t.get(id).is_some(), i % 3 == 0, "id {id}");
            }
        }
        // High-water slots stay bounded by peak liveness, not total ids.
        assert!(t.slot_count() <= 40 + 14 * 50);
    }

    #[test]
    fn clustered_keys_probe_correctly_after_removals() {
        // Sequential ids are the common case (atomic counters); force
        // long probe chains and then punch holes in the middle of them.
        let mut t = IdTable::new();
        for i in 0u64..64 {
            t.intern(i);
        }
        for i in (0u64..64).step_by(2) {
            t.release(i);
        }
        for i in 0u64..64 {
            assert_eq!(t.get(i).is_some(), i % 2 == 1, "id {i}");
        }
        for i in (0u64..64).step_by(2) {
            let (_, fresh) = t.intern(i);
            assert!(fresh);
        }
        for i in 0u64..64 {
            assert!(t.get(i).is_some());
        }
    }
}
