//! CUDA-style occupancy calculation.
//!
//! Determines how many thread blocks of a kernel can be simultaneously
//! resident on one SM, limited by the per-SM thread, block, register and
//! shared-memory budgets. Slate sizes its persistent worker set to exactly
//! this number times the designated SM count ("*Slate* always sets the size
//! of workers as the maximum number of thread blocks that the designated SMs
//! can support", paper §III-C).

use crate::device::DeviceConfig;
use crate::perf::KernelPerf;

/// Register allocation granularity (registers are allocated in chunks).
const REG_ALLOC_UNIT: u32 = 256;
/// Shared-memory allocation granularity in bytes.
const SMEM_ALLOC_UNIT: u32 = 256;

fn round_up(v: u32, unit: u32) -> u32 {
    if v == 0 {
        0
    } else {
        v.div_ceil(unit) * unit
    }
}

/// Maximum resident blocks of `kernel` per SM on `device`.
///
/// Returns at least 1 if the block fits at all, 0 if a single block exceeds
/// some per-SM limit (such a kernel cannot launch).
pub fn blocks_per_sm(device: &DeviceConfig, kernel: &KernelPerf) -> u32 {
    let threads = kernel.threads_per_block;
    if threads == 0 || threads > device.max_threads_per_sm {
        return 0;
    }
    let by_threads = device.max_threads_per_sm / threads;
    let by_blocks = device.max_blocks_per_sm;

    let regs_per_block = round_up(kernel.regs_per_thread * threads, REG_ALLOC_UNIT);
    let by_regs = if regs_per_block == 0 {
        u32::MAX
    } else if regs_per_block > device.regs_per_sm {
        0
    } else {
        device.regs_per_sm / regs_per_block
    };

    let smem = round_up(kernel.smem_per_block, SMEM_ALLOC_UNIT);
    let by_smem = if smem == 0 {
        u32::MAX
    } else if smem > device.smem_per_sm {
        0
    } else {
        device.smem_per_sm / smem
    };

    by_threads.min(by_blocks).min(by_regs).min(by_smem)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(threads: u32, regs: u32, smem: u32) -> KernelPerf {
        let mut p = KernelPerf::synthetic("k", 1000.0, 1024.0);
        p.threads_per_block = threads;
        p.regs_per_thread = regs;
        p.smem_per_block = smem;
        p
    }

    #[test]
    fn thread_limited() {
        let d = DeviceConfig::titan_xp();
        // 2048 threads / 256 per block = 8 blocks, under the 32-block cap.
        assert_eq!(blocks_per_sm(&d, &kernel(256, 16, 0)), 8);
    }

    #[test]
    fn block_cap_limited() {
        let d = DeviceConfig::titan_xp();
        // 2048/32 = 64 by threads, but the hardware caps at 32 blocks.
        assert_eq!(blocks_per_sm(&d, &kernel(32, 16, 0)), 32);
    }

    #[test]
    fn register_limited() {
        let d = DeviceConfig::titan_xp();
        // 256 threads x 64 regs = 16384 regs/block -> 65536/16384 = 4 blocks.
        assert_eq!(blocks_per_sm(&d, &kernel(256, 64, 0)), 4);
    }

    #[test]
    fn smem_limited() {
        let d = DeviceConfig::titan_xp();
        // 48 KiB smem per block -> 96/48 = 2 blocks.
        assert_eq!(blocks_per_sm(&d, &kernel(128, 16, 48 * 1024)), 2);
    }

    #[test]
    fn unlaunchable_kernel() {
        let d = DeviceConfig::titan_xp();
        assert_eq!(blocks_per_sm(&d, &kernel(128, 16, 200 * 1024)), 0);
        // threads_per_block beyond the SM capacity
        let mut k = kernel(512, 16, 0);
        k.threads_per_block = 4096;
        assert_eq!(blocks_per_sm(&d, &k), 0);
    }

    #[test]
    fn round_up_unit() {
        assert_eq!(round_up(0, 256), 0);
        assert_eq!(round_up(1, 256), 256);
        assert_eq!(round_up(256, 256), 256);
        assert_eq!(round_up(257, 256), 512);
    }
}
