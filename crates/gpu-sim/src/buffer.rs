//! Functional device memory.
//!
//! Timing comes from the fluid engine; *results* come from running kernels'
//! functional bodies against [`GpuBuffer`]s. A buffer is a word array of
//! `AtomicU32`s accessed with relaxed ordering: GPU global memory is
//! word-granular and racy programs are undefined on real hardware too, so
//! relaxed atomics give us race-freedom in Rust while preserving GPU
//! semantics for the well-formed (block-disjoint-write) kernels we model.
//! This lets functional blocks execute in parallel (rayon) with zero unsafe
//! code.
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
    pub fn copy_from_host(&self, offset: usize, src: &[u8]) {
        assert!(offset % 4 == 0, "offset must be word-aligned");
        assert!(
            offset + src.len() <= self.words.len() * 4,
            "copy_from_host out of bounds: offset {offset} + {} > {}",
            src.len(),
            self.words.len() * 4
        );
        let mut w = offset / 4;
        let mut chunks = src.chunks_exact(4);
        for c in &mut chunks {
            self.words[w].store(
                u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                Ordering::Relaxed,
            );
            w += 1;
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut b = [0u8; 4];
            b[..rem.len()].copy_from_slice(rem);
            self.words[w].store(u32::from_le_bytes(b), Ordering::Relaxed);
        }
    }

    /// Copies buffer contents out to host bytes from a word-aligned offset.
    pub fn copy_to_host(&self, offset: usize, dst: &mut [u8]) {
        assert!(offset % 4 == 0, "offset must be word-aligned");
        assert!(
            offset + dst.len() <= self.words.len() * 4,
            "copy_to_host out of bounds"
        );
        let mut w = offset / 4;
        let mut chunks = dst.chunks_exact_mut(4);
        for c in &mut chunks {
            c.copy_from_slice(&self.words[w].load(Ordering::Relaxed).to_le_bytes());
            w += 1;
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let b = self.words[w].load(Ordering::Relaxed).to_le_bytes();
            rem.copy_from_slice(&b[..rem.len()]);
        }
    }

    /// Convenience: the whole buffer as a vector of f32.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        (0..self.words.len()).map(|i| self.load_f32(i)).collect()
    }

    /// Convenience: fill word range `[start, start+src.len())` from f32s.
    pub fn write_f32_slice(&self, start: usize, src: &[f32]) {
        for (i, &v) in src.iter().enumerate() {
            self.store_f32(start + i, v);
        }
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
        let mut dst = vec![0u8; 11];
        b.copy_to_host(0, &mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn host_copy_with_offset() {
        let b = GpuBuffer::new(32);
        b.copy_from_host(8, &[1, 2, 3, 4]);
        let mut out = vec![0u8; 4];
        b.copy_to_host(8, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(b.load_u32(2), u32::from_le_bytes([1, 2, 3, 4]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn host_copy_bounds_checked() {
        let b = GpuBuffer::new(8);
        b.copy_from_host(4, &[0u8; 8]);
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
