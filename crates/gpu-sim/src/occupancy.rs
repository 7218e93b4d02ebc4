//! CUDA occupancy calculator for the simulated device.
//!
//! Mirrors the NVIDIA occupancy calculator the paper's parameter-tuning
//! model (§3.3) relies on: given a block size, register usage per thread and
//! shared memory per block, compute how many blocks/warps can be resident on
//! one SM under the device's limits and allocation granularities.

use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Which resource capped the number of resident blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Limiter {
    /// Max resident warps per SM.
    Warps,
    /// Max resident blocks per SM.
    Blocks,
    /// Register file capacity.
    Registers,
    /// Shared memory capacity.
    SharedMem,
}

/// Result of an occupancy query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Occupancy {
    /// Blocks resident per SM.
    pub blocks_per_sm: usize,
    /// Warps resident per SM.
    pub warps_per_sm: usize,
    /// `warps_per_sm / max_warps_per_sm`, in (0, 1].
    pub occupancy: f64,
    /// The binding resource.
    pub limiter: Limiter,
}

fn round_up(x: usize, granularity: usize) -> usize {
    if granularity == 0 {
        x
    } else {
        x.div_ceil(granularity) * granularity
    }
}

/// Compute occupancy for a kernel with the given launch footprint.
///
/// Returns `None` when the kernel cannot launch at all (block too large,
/// too many registers per thread, or shared memory over the per-block limit)
/// — the same conditions under which a real CUDA launch fails.
pub fn occupancy(
    spec: &DeviceSpec,
    block_threads: usize,
    regs_per_thread: u32,
    shared_bytes_per_block: usize,
) -> Option<Occupancy> {
    if block_threads == 0
        || block_threads > spec.max_threads_per_block
        || regs_per_thread > spec.max_regs_per_thread
        || shared_bytes_per_block > spec.shared_mem_per_block
    {
        return None;
    }

    let warps_per_block = spec.warps_per_block(block_threads);
    let max_warps = spec.max_warps_per_sm();

    // Registers are allocated per warp, rounded to the allocation granule.
    let regs_per_warp = round_up(
        regs_per_thread as usize * spec.warp_size,
        spec.reg_alloc_granularity as usize,
    );
    let blocks_by_regs = spec
        .registers_per_sm
        .checked_div(regs_per_warp)
        .map_or(usize::MAX, |warps| warps / warps_per_block);

    let shared_alloc = round_up(shared_bytes_per_block, spec.shared_alloc_granularity);
    let blocks_by_shared = spec
        .shared_mem_per_sm
        .checked_div(shared_alloc)
        .unwrap_or(usize::MAX);

    let blocks_by_warps = max_warps / warps_per_block;
    let blocks_by_limit = spec.max_blocks_per_sm;

    let (blocks, limiter) = [
        (blocks_by_warps, Limiter::Warps),
        (blocks_by_limit, Limiter::Blocks),
        (blocks_by_regs, Limiter::Registers),
        (blocks_by_shared, Limiter::SharedMem),
    ]
    .into_iter()
    .min_by_key(|&(b, _)| b)
    .unwrap_or_else(|| unreachable!("limiter candidates are non-empty"));

    if blocks == 0 {
        // Fits in no SM concurrently => cannot launch (e.g. shared memory
        // request below the per-block limit but above per-SM capacity can't
        // happen since per-block <= per-SM; registers can still zero out).
        return None;
    }

    let warps_per_sm = (blocks * warps_per_block).min(max_warps);
    Some(Occupancy {
        blocks_per_sm: blocks,
        warps_per_sm,
        occupancy: warps_per_sm as f64 / max_warps as f64,
        limiter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn titan() -> DeviceSpec {
        DeviceSpec::gtx_titan()
    }

    #[test]
    fn full_occupancy_small_footprint() {
        // 256 threads, 32 regs/thread, no shared memory:
        // regs/warp = 1024, 64 warps * 1024 = 64K regs exactly => 64 warps.
        let o = occupancy(&titan(), 256, 32, 0).unwrap();
        assert_eq!(o.warps_per_sm, 64);
        assert!((o.occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn register_limited() {
        // 128 regs/thread: regs/warp = 4096; 64K/4096 = 16 warps.
        let o = occupancy(&titan(), 256, 128, 0).unwrap();
        assert_eq!(o.limiter, Limiter::Registers);
        assert_eq!(o.warps_per_sm, 16);
        assert!((o.occupancy - 0.25).abs() < 1e-12);
    }

    #[test]
    fn shared_memory_limited() {
        // 24 KB/block => 2 blocks/SM regardless of other resources.
        let o = occupancy(&titan(), 128, 16, 24 * 1024).unwrap();
        assert_eq!(o.limiter, Limiter::SharedMem);
        assert_eq!(o.blocks_per_sm, 2);
        assert_eq!(o.warps_per_sm, 8);
    }

    #[test]
    fn block_count_limited() {
        // Tiny blocks: 32 threads, minimal regs => capped at 16 blocks/SM.
        let o = occupancy(&titan(), 32, 8, 0).unwrap();
        assert_eq!(o.limiter, Limiter::Blocks);
        assert_eq!(o.blocks_per_sm, 16);
        assert_eq!(o.warps_per_sm, 16);
    }

    #[test]
    fn paper_sparse_kernel_configuration() {
        // §4.3: the sparse kernel uses 43 registers/thread, BS=640 and
        // (640/8 + 1000) * 8 = 8640B shared memory (rounded to 8832 in the
        // paper's granularity discussion). Occupancy must be register-bound
        // around 2 blocks (40 warps) per SM.
        let shared = (640 / 8 + 1000) * 8;
        let o = occupancy(&titan(), 640, 43, shared).unwrap();
        assert!(o.blocks_per_sm >= 2);
        assert!(o.occupancy >= 0.5, "occupancy {} too low", o.occupancy);
    }

    #[test]
    fn launch_failures() {
        assert!(occupancy(&titan(), 0, 32, 0).is_none());
        assert!(occupancy(&titan(), 2048, 32, 0).is_none());
        assert!(occupancy(&titan(), 256, 300, 0).is_none());
        assert!(occupancy(&titan(), 256, 32, 64 * 1024).is_none());
    }

    #[test]
    fn occupancy_monotone_in_registers() {
        let mut last = usize::MAX;
        for regs in [16u32, 32, 64, 96, 128, 255] {
            let o = occupancy(&titan(), 256, regs, 0).unwrap();
            assert!(o.warps_per_sm <= last);
            last = o.warps_per_sm;
        }
    }
}
