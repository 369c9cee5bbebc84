//! Functional device memory.
//!
//! Timing comes from the fluid engine; *results* come from running kernels'
//! functional bodies against [`GpuBuffer`]s. A buffer is a word array of
//! `AtomicU32`s accessed with relaxed ordering: GPU global memory is
//! word-granular and racy programs are undefined on real hardware too, so
//! relaxed atomics give us race-freedom in Rust while preserving GPU
//! semantics for the well-formed (block-disjoint-write) kernels we model.
//! This lets the worker lanes of a dispatch run functional blocks
//! concurrently against one buffer with zero unsafe code.
//!
//! Two ways in and out, both bounds-checked, both panicking (never
//! wrapping or truncating) on a range that leaves the buffer:
//!
//! * the per-word accessors (`load_f32`, `store_u32`, ...): one bounds
//!   check and one relaxed access per call;
//! * the run accessors — [`GpuBuffer::read_f32_slice`] /
//!   [`GpuBuffer::write_f32_slice`] for words in and out of a slice,
//!   [`GpuBuffer::append_f32`] for words appended to a vector,
//!   [`GpuBuffer::copy_from_host`] / [`GpuBuffer::append_bytes`] for host
//!   bytes: the run is sliced out of the word array **once**, then walked
//!   without a further check. Each word is still its own relaxed access (a
//!   run is not atomic as a whole, exactly as a `memcpy` racing a kernel is
//!   not on a device), so a run costs what its words cost and nothing per
//!   word beyond that. The appenders fill the caller's vector in that one
//!   pass — no zero fill first — which is how a device-to-host copy lands
//!   in the vector its client allocated.
//!
//! [`DeviceMemoryPool`] is the device-side allocator behind `cudaMalloc`:
//! it hands out opaque [`DevicePtr`]s and tracks capacity, mirroring the
//! address-mapping bookkeeping the Slate daemon performs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Opaque device pointer, as returned by the simulated `cudaMalloc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DevicePtr(pub u64);

/// A device global-memory buffer of 32-bit words.
#[derive(Debug)]
pub struct GpuBuffer {
    words: Box<[AtomicU32]>,
    len_bytes: usize,
}

impl GpuBuffer {
    /// Allocates a zero-initialised buffer of `len_bytes` bytes (rounded up
    /// to a whole number of 32-bit words).
    pub fn new(len_bytes: usize) -> Self {
        let words = len_bytes.div_ceil(4);
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU32::new(0));
        Self {
            words: v.into_boxed_slice(),
            len_bytes,
        }
    }

    /// Buffer length in bytes as requested at allocation.
    pub fn len(&self) -> usize {
        self.len_bytes
    }

    /// True if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len_bytes == 0
    }

    /// Number of 32-bit words (f32/u32 elements) the buffer holds.
    pub fn len_words(&self) -> usize {
        self.words.len()
    }

    // The word accessors are `#[inline]`: kernels in other crates call
    // them once per element, and out of line a kernel's speed depended on
    // where the linker happened to put these few bytes (DESIGN.md §3.1).

    /// Reads the f32 element at word index `idx`.
    #[inline]
    pub fn load_f32(&self, idx: usize) -> f32 {
        f32::from_bits(self.words[idx].load(Ordering::Relaxed))
    }

    /// Writes the f32 element at word index `idx`.
    #[inline]
    pub fn store_f32(&self, idx: usize, v: f32) {
        self.words[idx].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Reads the u32 element at word index `idx`.
    #[inline]
    pub fn load_u32(&self, idx: usize) -> u32 {
        self.words[idx].load(Ordering::Relaxed)
    }

    /// Writes the u32 element at word index `idx`.
    #[inline]
    pub fn store_u32(&self, idx: usize, v: u32) {
        self.words[idx].store(v, Ordering::Relaxed);
    }

    /// Atomic add on a u32 element, returning the previous value — the
    /// device-side `atomicAdd` used by task queues.
    #[inline]
    pub fn fetch_add_u32(&self, idx: usize, v: u32) -> u32 {
        self.words[idx].fetch_add(v, Ordering::AcqRel)
    }

    /// Copies host bytes into the buffer at a *word-aligned* byte offset
    /// (`offset % 4 == 0`). Trailing partial word is zero-padded.
    #[inline]
    pub fn copy_from_host(&self, offset: usize, src: &[u8]) {
        assert!(offset % 4 == 0, "offset must be word-aligned");
        assert!(
            offset + src.len() <= self.words.len() * 4,
            "copy_from_host out of bounds: offset {offset} + {} > {}",
            src.len(),
            self.words.len() * 4
        );
        let chunks = src.chunks_exact(4);
        let rem = chunks.remainder();
        let words = &self.words[offset / 4..][..src.len().div_ceil(4)];
        for (word, c) in words.iter().zip(chunks) {
            word.store(
                u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                Ordering::Relaxed,
            );
        }
        if !rem.is_empty() {
            let mut b = [0u8; 4];
            b[..rem.len()].copy_from_slice(rem);
            words[words.len() - 1].store(u32::from_le_bytes(b), Ordering::Relaxed);
        }
    }

    /// Appends the `len` bytes at the *word-aligned* byte offset `offset`
    /// to `dst`, little-endian, leaving what `dst` already holds in place:
    /// a trailing partial word contributes only its first `len % 4` bytes.
    /// Appends exactly `len` bytes whatever `dst` has reserved. Panics if
    /// the run does not lie inside the buffer.
    #[inline]
    pub fn append_bytes(&self, offset: usize, len: usize, dst: &mut Vec<u8>) {
        assert!(offset % 4 == 0, "offset must be word-aligned");
        let words = &self.words[offset / 4..][..len.div_ceil(4)];
        let (whole, tail) = words.split_at(len / 4);
        dst.reserve(len);
        dst.extend(
            whole
                .iter()
                .flat_map(|word| word.load(Ordering::Relaxed).to_le_bytes()),
        );
        if let Some(word) = tail.first() {
            dst.extend_from_slice(&word.load(Ordering::Relaxed).to_le_bytes()[..len % 4]);
        }
    }

    /// Reads the run of words `[start, start + dst.len())` into `dst`: one
    /// bounds check for the run, equal word for word to `load_f32`. Panics
    /// if the run does not lie inside the buffer; an empty run at
    /// `start == len_words()` is inside it.
    #[inline]
    pub fn read_f32_slice(&self, start: usize, dst: &mut [f32]) {
        let words = &self.words[start..][..dst.len()];
        for (d, word) in dst.iter_mut().zip(words) {
            *d = f32::from_bits(word.load(Ordering::Relaxed));
        }
    }

    /// Appends the run of words `[start, start + n)` to `dst`, one relaxed
    /// load per word, leaving what `dst` already holds in place: the
    /// appending twin of [`GpuBuffer::read_f32_slice`], same bounds
    /// contract. Appends exactly `n` values whatever `dst` has reserved.
    #[inline]
    pub fn append_f32(&self, start: usize, n: usize, dst: &mut Vec<f32>) {
        let words = &self.words[start..][..n];
        dst.extend(
            words
                .iter()
                .map(|word| f32::from_bits(word.load(Ordering::Relaxed))),
        );
    }

    /// Writes `src` to the run of words `[start, start + src.len())`: the
    /// mirror of [`GpuBuffer::read_f32_slice`], equal word for word to
    /// `store_f32`, same bounds contract.
    #[inline]
    pub fn write_f32_slice(&self, start: usize, src: &[f32]) {
        let words = &self.words[start..][..src.len()];
        for (word, v) in words.iter().zip(src) {
            word.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Convenience: the whole buffer as a vector of f32.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.words.len()];
        self.read_f32_slice(0, &mut out);
        out
    }
}

/// Device-side allocator: the model behind `cudaMalloc`/`cudaFree`.
#[derive(Debug)]
pub struct DeviceMemoryPool {
    capacity: u64,
    used: u64,
    next: u64,
    allocations: HashMap<DevicePtr, Arc<GpuBuffer>>,
}

impl DeviceMemoryPool {
    /// Creates a pool with `capacity` bytes of device memory.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: 0,
            next: 0x1000_0000, // device addresses start away from zero
            allocations: HashMap::new(),
        }
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Total pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Allocates `bytes` bytes; fails (like `cudaErrorMemoryAllocation`)
    /// when the pool is exhausted.
    pub fn alloc(&mut self, bytes: u64) -> Result<DevicePtr, String> {
        // checked_add: an absurd request must be a clean OOM, not a wrap
        // past the capacity check (and a panic allocating the backing).
        if self
            .used
            .checked_add(bytes)
            .is_none_or(|n| n > self.capacity)
        {
            return Err(format!(
                "out of device memory: {} used + {} requested > {} capacity",
                self.used, bytes, self.capacity
            ));
        }
        let ptr = DevicePtr(self.next);
        // Keep addresses unique and aligned.
        self.next += bytes.max(1).next_multiple_of(256);
        self.used += bytes;
        self.allocations
            .insert(ptr, Arc::new(GpuBuffer::new(bytes as usize)));
        Ok(ptr)
    }

    /// Frees an allocation; errors on an unknown pointer (double free).
    pub fn free(&mut self, ptr: DevicePtr) -> Result<(), String> {
        match self.allocations.remove(&ptr) {
            Some(buf) => {
                self.used -= buf.len() as u64;
                Ok(())
            }
            None => Err(format!("invalid device pointer {ptr:?}")),
        }
    }

    /// Resolves a device pointer to its buffer.
    pub fn buffer(&self, ptr: DevicePtr) -> Result<Arc<GpuBuffer>, String> {
        self.allocations
            .get(&ptr)
            .cloned()
            .ok_or_else(|| format!("invalid device pointer {ptr:?}"))
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.allocations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absurd_alloc_is_a_clean_oom_not_an_overflow() {
        let mut pool = DeviceMemoryPool::new(1 << 20);
        pool.alloc(512).unwrap();
        // used + u64::MAX would wrap past the capacity check.
        assert!(pool.alloc(u64::MAX).is_err());
        assert!(pool.alloc(u64::MAX - 256).is_err());
        assert_eq!(pool.live_allocations(), 1);
    }

    #[test]
    fn f32_roundtrip() {
        let b = GpuBuffer::new(16);
        b.store_f32(2, 3.5);
        assert_eq!(b.load_f32(2), 3.5);
        assert_eq!(b.load_f32(0), 0.0);
        assert_eq!(b.len(), 16);
        assert_eq!(b.len_words(), 4);
    }

    #[test]
    fn host_copy_roundtrip_unaligned_tail() {
        let b = GpuBuffer::new(11);
        let src: Vec<u8> = (0..11).collect();
        b.copy_from_host(0, &src);
        let mut dst = Vec::new();
        b.append_bytes(0, 11, &mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn host_copy_with_offset() {
        let b = GpuBuffer::new(32);
        b.copy_from_host(8, &[1, 2, 3, 4]);
        let mut out = Vec::new();
        b.append_bytes(8, 4, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(b.load_u32(2), u32::from_le_bytes([1, 2, 3, 4]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn host_copy_bounds_checked() {
        let b = GpuBuffer::new(8);
        b.copy_from_host(4, &[0u8; 8]);
    }

    /// Deterministic xorshift64 step, the workspace's seeded-PRNG idiom.
    fn xorshift64(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// A buffer of `len_bytes` bytes whose every word is seeded noise.
    fn noise(len_bytes: usize, s: &mut u64) -> GpuBuffer {
        let b = GpuBuffer::new(len_bytes);
        for i in 0..b.len_words() {
            b.store_u32(i, xorshift64(s) as u32);
        }
        b
    }

    fn bits(b: &GpuBuffer) -> Vec<u32> {
        (0..b.len_words()).map(|i| b.load_u32(i)).collect()
    }

    /// Seeded `(start, len)` runs inside `n` units, led by the edge cases:
    /// empty at either end, the whole range, the last unit alone.
    fn runs(n: usize, s: &mut u64) -> Vec<(usize, usize)> {
        let mut runs = vec![(0, 0), (n, 0), (0, n), (n - 1, 1)];
        for _ in 0..200 {
            let start = xorshift64(s) as usize % (n + 1);
            runs.push((start, xorshift64(s) as usize % (n - start + 1)));
        }
        runs
    }

    #[test]
    fn slice_accessors_equal_the_per_word_ones() {
        const WORDS: usize = 257;
        let mut s = 0x9E37_79B9_7F4A_7C15;
        let b = noise(WORDS * 4, &mut s);
        for (start, len) in runs(WORDS, &mut s) {
            let mut got = vec![0.0f32; len];
            b.read_f32_slice(start, &mut got);
            for (i, v) in got.iter().enumerate() {
                let word = b.load_f32(start + i);
                assert_eq!(v.to_bits(), word.to_bits(), "read {start}+{i}");
            }
            // Appended after a value the vector already held, which stays.
            let mut appended = vec![-1.5f32];
            b.append_f32(start, len, &mut appended);
            assert_eq!(appended.len(), 1 + len, "append ({start}, {len}) length");
            assert_eq!(appended[0], -1.5, "append ({start}, {len}) kept");
            for (i, v) in appended[1..].iter().enumerate() {
                assert_eq!(v.to_bits(), b.load_u32(start + i), "append {start}+{i}");
            }

            let src: Vec<f32> = (0..len)
                .map(|_| f32::from_bits(xorshift64(&mut s) as u32))
                .collect();
            // Two buffers of the same noise: one written by word, one by run.
            let mut same = s;
            let by_word = noise(WORDS * 4, &mut same);
            let by_run = noise(WORDS * 4, &mut s);
            for (i, &v) in src.iter().enumerate() {
                by_word.store_f32(start + i, v);
            }
            by_run.write_f32_slice(start, &src);
            assert_eq!(bits(&by_run), bits(&by_word), "write ({start}, {len})");
        }
        assert_eq!(b.to_f32_vec().len(), WORDS);
        assert_eq!(b.to_f32_vec()[WORDS - 1].to_bits(), b.load_u32(WORDS - 1));
    }

    #[test]
    fn slice_accessors_panic_one_word_past_the_end() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        const WORDS: usize = 16;
        let b = noise(WORDS * 4, &mut 7);
        let before = bits(&b);
        // Straddling the end, starting past it, and a start that would
        // wrap if it were added to: a panic each, never a shorter run.
        for (start, len) in [
            (WORDS - 3, 4),
            (0, WORDS + 1),
            (WORDS + 1, 0),
            (usize::MAX, 2),
        ] {
            let read = catch_unwind(AssertUnwindSafe(|| {
                b.read_f32_slice(start, &mut vec![0.0; len])
            }));
            assert!(read.is_err(), "read ({start}, {len}) did not panic");
            let write = catch_unwind(AssertUnwindSafe(|| {
                b.write_f32_slice(start, &vec![1.0; len])
            }));
            assert!(write.is_err(), "write ({start}, {len}) did not panic");
            let mut words = vec![0.5f32];
            let append = catch_unwind(AssertUnwindSafe(|| b.append_f32(start, len, &mut words)));
            assert!(append.is_err(), "append ({start}, {len}) did not panic");
            assert_eq!(words, [0.5], "a refused append appended nothing");
            // The same run in bytes, and one byte past the buffer's words.
            let mut bytes = vec![7u8];
            let append = catch_unwind(AssertUnwindSafe(|| {
                b.append_bytes(start.wrapping_mul(4), len * 4, &mut bytes)
            }));
            assert!(
                append.is_err(),
                "append bytes ({start}, {len}) did not panic"
            );
            assert_eq!(bytes, [7], "a refused byte append appended nothing");
        }
        let past = catch_unwind(AssertUnwindSafe(|| {
            b.append_bytes((WORDS - 1) * 4, 5, &mut Vec::new())
        }));
        assert!(past.is_err(), "a partial word past the end did not panic");
        assert_eq!(bits(&b), before, "a refused run wrote nothing");
    }

    #[test]
    fn an_odd_byte_append_ends_with_the_right_partial_word() {
        let b = GpuBuffer::new(10);
        b.store_u32(0, u32::from_le_bytes([1, 2, 3, 4]));
        b.store_u32(1, u32::from_le_bytes([5, 6, 7, 8]));
        b.store_u32(2, u32::from_le_bytes([9, 10, 11, 12]));
        for (offset, len, want) in [
            (0, 10, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10][..]),
            (4, 5, &[5, 6, 7, 8, 9]),
            (8, 1, &[9]),
            (4, 3, &[5, 6, 7]),
            (8, 0, &[]),
        ] {
            // A reservation larger than the run: exactly `len` bytes land.
            let mut dst = Vec::with_capacity(64);
            dst.push(0xEE);
            b.append_bytes(offset, len, &mut dst);
            assert_eq!(dst[0], 0xEE, "({offset}, {len}) kept the prefix");
            assert_eq!(&dst[1..], want, "({offset}, {len})");
        }
    }

    #[test]
    fn host_copies_equal_a_per_word_reference() {
        // 1 023 bytes asked for: 256 words, the last one partial.
        const BYTES: usize = 1023;
        let mut s = 0x2545_F491_4F6C_DD1D;
        let b = noise(BYTES, &mut s);
        let words = b.len_words();
        for (start, len_words) in runs(words, &mut s) {
            for tail in 0..4 {
                let (offset, len) = (start * 4, len_words * 4 + tail);
                if offset + len > words * 4 {
                    continue;
                }
                // Appended after bytes the vector already held, which stay.
                let mut got = vec![0xAAu8; 3];
                b.append_bytes(offset, len, &mut got);
                assert_eq!(got.len(), 3 + len, "d2h ({offset}, {len}) length");
                assert_eq!(got[..3], [0xAA; 3], "d2h ({offset}, {len}) kept");
                for (i, &byte) in got[3..].iter().enumerate() {
                    let word = b.load_u32((offset + i) / 4).to_le_bytes();
                    assert_eq!(byte, word[(offset + i) % 4], "d2h {offset}+{i}");
                }

                let src: Vec<u8> = (0..len).map(|_| xorshift64(&mut s) as u8).collect();
                let mut same = s;
                let by_word = noise(BYTES, &mut same);
                let by_run = noise(BYTES, &mut s);
                for (i, c) in src.chunks(4).enumerate() {
                    let mut word = [0u8; 4]; // a partial last word is zero-padded
                    word[..c.len()].copy_from_slice(c);
                    by_word.store_u32(start + i, u32::from_le_bytes(word));
                }
                by_run.copy_from_host(offset, &src);
                assert_eq!(bits(&by_run), bits(&by_word), "h2d ({offset}, {len})");
            }
        }
    }

    #[test]
    fn fetch_add_matches_atomic_semantics() {
        let b = GpuBuffer::new(4);
        assert_eq!(b.fetch_add_u32(0, 10), 0);
        assert_eq!(b.fetch_add_u32(0, 5), 10);
        assert_eq!(b.load_u32(0), 15);
    }

    #[test]
    fn parallel_disjoint_writes_are_deterministic() {
        use rayon::prelude::*;
        let b = GpuBuffer::new(4096 * 4);
        (0..4096usize).into_par_iter().for_each(|i| {
            b.store_f32(i, i as f32 * 2.0);
        });
        for i in 0..4096 {
            assert_eq!(b.load_f32(i), i as f32 * 2.0);
        }
    }

    #[test]
    fn pool_alloc_free_accounting() {
        let mut p = DeviceMemoryPool::new(1024);
        let a = p.alloc(512).unwrap();
        let bptr = p.alloc(512).unwrap();
        assert_eq!(p.used(), 1024);
        assert!(p.alloc(1).is_err(), "pool exhausted");
        p.free(a).unwrap();
        assert_eq!(p.used(), 512);
        assert!(p.free(a).is_err(), "double free rejected");
        p.free(bptr).unwrap();
        assert_eq!(p.live_allocations(), 0);
    }

    #[test]
    fn pool_pointers_are_distinct_and_resolvable() {
        let mut p = DeviceMemoryPool::new(1 << 20);
        let a = p.alloc(100).unwrap();
        let b = p.alloc(100).unwrap();
        assert_ne!(a, b);
        p.buffer(a).unwrap().store_f32(0, 1.0);
        assert_eq!(p.buffer(a).unwrap().load_f32(0), 1.0);
        assert_eq!(p.buffer(b).unwrap().load_f32(0), 0.0);
        assert!(p.buffer(DevicePtr(0xdead)).is_err());
    }
}
