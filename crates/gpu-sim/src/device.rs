//! Device specifications for the simulated GPU.
//!
//! The default device mirrors the NVIDIA GeForce GTX Titan (GK110, compute
//! capability 3.5) used throughout the paper's evaluation (§2, §4): 14 SMs,
//! 48 KB shared memory per SM, 64 K 32-bit registers per SM, 288 GB/s global
//! memory bandwidth and ~1.3 TFLOP/s double-precision peak.

use crate::shared::MAX_BANKS;
use serde::{Deserialize, Serialize};

/// Static description of a simulated GPU: resource limits that drive the
/// occupancy calculator plus throughput figures that drive the timing model.
///
/// All limits are per the CUDA occupancy model for compute capability 3.5
/// unless stated otherwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// CUDA cores per SM (used for documentation; timing uses peak GFLOP/s).
    pub cores_per_sm: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Global (DRAM) memory capacity in bytes.
    pub global_mem_bytes: usize,
    /// Global memory bandwidth in GB/s (the paper quotes 288 GB/s, ECC off).
    pub dram_bandwidth_gbps: f64,
    /// Peak double-precision throughput in GFLOP/s.
    pub peak_dp_gflops: f64,
    /// Shared memory per SM in bytes (48 KB on GK110).
    pub shared_mem_per_sm: usize,
    /// Shared memory limit per thread block in bytes.
    pub shared_mem_per_block: usize,
    /// 32-bit registers per SM (64 K on GK110).
    pub registers_per_sm: usize,
    /// Maximum registers addressable by one thread (255 on cc 3.5).
    pub max_regs_per_thread: u32,
    /// Warp size (32 on every NVIDIA architecture to date).
    pub warp_size: usize,
    /// Maximum threads per block (1024).
    pub max_threads_per_block: usize,
    /// Maximum resident threads per SM (2048 on cc 3.5 = 64 warps).
    pub max_threads_per_sm: usize,
    /// Maximum resident blocks per SM (16 on cc 3.5).
    pub max_blocks_per_sm: usize,
    /// Register allocation granularity in registers (256 on cc 3.5,
    /// allocated per warp).
    pub reg_alloc_granularity: u32,
    /// Shared-memory allocation granularity in bytes (256 on cc 3.5).
    pub shared_alloc_granularity: usize,
    /// Number of shared memory banks (32).
    pub shared_banks: usize,
    /// L2 cache size in bytes (1.5 MB on GK110).
    pub l2_bytes: usize,
    /// L2 cache associativity used by the simulator's cache model.
    pub l2_ways: usize,
    /// Read-only/texture cache per SM in bytes (48 KB on GK110).
    pub tex_cache_per_sm: usize,
    /// Cache line size in bytes (128 B lines, 32 B sectors).
    pub cache_line_bytes: usize,
    /// Memory transaction sector size in bytes (32 B on GK110).
    pub sector_bytes: usize,
    /// Fixed kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Sustained global atomic throughput in operations per nanosecond
    /// when there is no address contention. Double-precision atomicAdd on
    /// Kepler is a CAS loop, well below native-int atomic rates.
    pub atomic_ops_per_ns: f64,
    /// Sustained global *integer* atomic throughput in ops/ns (native
    /// fetch-add units, considerably faster than the f64 CAS loop).
    pub atomic_int_ops_per_ns: f64,
    /// Cost of one serialized (same-address) global atomic in nanoseconds.
    pub atomic_serial_ns: f64,
    /// Shared-memory throughput in accesses per nanosecond per SM
    /// (one access per bank per cycle).
    pub shared_ops_per_ns_per_sm: f64,
    /// L2 bandwidth in GB/s (roughly 2x DRAM on GK110).
    pub l2_bandwidth_gbps: f64,
}

impl DeviceSpec {
    /// The NVIDIA GeForce GTX Titan used in the paper's evaluation (§4).
    pub fn gtx_titan() -> Self {
        DeviceSpec {
            name: "GeForce GTX Titan (simulated)".to_string(),
            num_sms: 14,
            cores_per_sm: 192,
            clock_ghz: 0.837,
            global_mem_bytes: 6 * 1024 * 1024 * 1024,
            dram_bandwidth_gbps: 288.0,
            peak_dp_gflops: 1300.0,
            shared_mem_per_sm: 48 * 1024,
            shared_mem_per_block: 48 * 1024,
            registers_per_sm: 64 * 1024,
            max_regs_per_thread: 255,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            reg_alloc_granularity: 256,
            shared_alloc_granularity: 256,
            shared_banks: 32,
            l2_bytes: 1536 * 1024,
            l2_ways: 16,
            tex_cache_per_sm: 48 * 1024,
            cache_line_bytes: 128,
            sector_bytes: 32,
            launch_overhead_us: 5.0,
            atomic_ops_per_ns: 1.5,
            atomic_int_ops_per_ns: 3.0,
            atomic_serial_ns: 40.0,
            shared_ops_per_ns_per_sm: 32.0,
            l2_bandwidth_gbps: 600.0,
        }
    }

    /// A smaller Kepler-class device (Tesla K20-like) useful for testing the
    /// occupancy model against a second resource envelope.
    pub fn tesla_k20() -> Self {
        DeviceSpec {
            name: "Tesla K20 (simulated)".to_string(),
            num_sms: 13,
            global_mem_bytes: 5 * 1024 * 1024 * 1024,
            dram_bandwidth_gbps: 208.0,
            peak_dp_gflops: 1170.0,
            ..Self::gtx_titan()
        }
    }

    /// A deliberately tiny device for unit tests: 2 SMs and small caches so
    /// capacity effects are observable with small inputs.
    pub fn tiny_test_device() -> Self {
        DeviceSpec {
            name: "tiny test device".to_string(),
            num_sms: 2,
            cores_per_sm: 32,
            global_mem_bytes: 64 * 1024 * 1024,
            shared_mem_per_sm: 16 * 1024,
            shared_mem_per_block: 16 * 1024,
            registers_per_sm: 16 * 1024,
            l2_bytes: 64 * 1024,
            tex_cache_per_sm: 4 * 1024,
            ..Self::gtx_titan()
        }
    }

    /// Whether the simulator can execute this spec. The warp accounting
    /// derives sector and line numbers by shifting and masking, which is
    /// exact only for power-of-two sizes with a sector no larger than a
    /// line, and keeps a line's sectors in a 64-bit mask; bank indices
    /// are masked likewise. Lines hold at least one 8-byte element, so no
    /// element spans two lines. [`Gpu`](crate::Gpu) construction asserts
    /// this, so a caller that takes specs from its users checks here first
    /// to report a bad one as an error instead of a panic.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.sector_bytes.is_power_of_two()
            && self.cache_line_bytes.is_power_of_two()
            && self.sector_bytes <= self.cache_line_bytes
            && self.cache_line_bytes / self.sector_bytes <= 64
            && self.cache_line_bytes >= 8)
        {
            return Err(format!(
                "sector ({}B) and cache line ({}B) must be powers of two with sector <= line, \
                 at most 64 sectors to a line and lines of at least 8B",
                self.sector_bytes, self.cache_line_bytes
            ));
        }
        if !(self.shared_banks.is_power_of_two() && self.shared_banks <= MAX_BANKS) {
            return Err(format!(
                "{} shared-memory banks; a power of two up to {MAX_BANKS} supported",
                self.shared_banks
            ));
        }
        Ok(())
    }

    /// Number of warps a block of `block_threads` occupies.
    pub fn warps_per_block(&self, block_threads: usize) -> usize {
        block_threads.div_ceil(self.warp_size)
    }

    /// Maximum resident warps per SM.
    pub fn max_warps_per_sm(&self) -> usize {
        self.max_threads_per_sm / self.warp_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_matches_paper_quotes() {
        let d = DeviceSpec::gtx_titan();
        assert_eq!(d.num_sms, 14);
        assert_eq!(d.cores_per_sm, 192);
        assert_eq!(d.shared_mem_per_sm, 48 * 1024);
        assert_eq!(d.registers_per_sm, 64 * 1024);
        assert_eq!(d.max_warps_per_sm(), 64);
        assert!((d.dram_bandwidth_gbps - 288.0).abs() < 1e-9);
    }

    #[test]
    fn validate_accepts_built_in_specs_and_names_what_it_rejects() {
        for spec in [
            DeviceSpec::gtx_titan(),
            DeviceSpec::tesla_k20(),
            DeviceSpec::tiny_test_device(),
        ] {
            assert_eq!(spec.validate(), Ok(()), "{}", spec.name);
        }
        let banks = DeviceSpec {
            shared_banks: 48,
            ..DeviceSpec::gtx_titan()
        };
        let err = banks.validate().unwrap_err();
        assert!(err.contains("48 shared-memory banks"), "{err}");
        let sector = DeviceSpec {
            sector_bytes: 48,
            ..DeviceSpec::gtx_titan()
        };
        let err = sector.validate().unwrap_err();
        assert!(err.contains("must be powers of two"), "{err}");
        // A 4-byte line would split every f64 element over two lines.
        let line = DeviceSpec {
            sector_bytes: 4,
            cache_line_bytes: 4,
            ..DeviceSpec::gtx_titan()
        };
        let err = line.validate().unwrap_err();
        assert!(err.contains("lines of at least 8B"), "{err}");
        let narrowest = DeviceSpec {
            sector_bytes: 8,
            cache_line_bytes: 8,
            ..DeviceSpec::gtx_titan()
        };
        assert_eq!(narrowest.validate(), Ok(()));
    }

    #[test]
    fn warps_per_block_rounds_up() {
        let d = DeviceSpec::gtx_titan();
        assert_eq!(d.warps_per_block(1), 1);
        assert_eq!(d.warps_per_block(32), 1);
        assert_eq!(d.warps_per_block(33), 2);
        assert_eq!(d.warps_per_block(1024), 32);
    }
}
