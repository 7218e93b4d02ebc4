//! Hardware event counters gathered during a simulated kernel launch.
//!
//! These mirror the NVIDIA Visual Profiler metrics the paper reports
//! (global load transactions in Fig. 2-bottom, atomic traffic in §3.1).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Sampling shift for the global-atomic address histogram: one in
/// `2^ATOMIC_SAMPLE_SHIFT` atomic operations records its target address.
pub(crate) const ATOMIC_SAMPLE_SHIFT: u32 = 5;

/// Event counts accumulated over one kernel launch (or a sequence of
/// launches — counters add).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Counters {
    /// Warp-level global load instructions issued.
    pub gld_instructions: u64,
    /// 32-byte global load sectors touched (the "load transactions" of
    /// Fig. 2-bottom). A fully coalesced f64 warp load costs 8 sectors;
    /// a fully scattered one costs 32.
    pub gld_transactions: u64,
    /// Warp-level global store instructions issued.
    pub gst_instructions: u64,
    /// 32-byte global store sectors touched.
    pub gst_transactions: u64,
    /// Bytes actually fetched from DRAM (cache-line fills on L2 misses).
    pub dram_read_bytes: u64,
    /// Bytes written back to DRAM (stores + atomics; write-through model).
    pub dram_write_bytes: u64,
    /// Bytes served from the L2 cache (hits).
    pub l2_read_bytes: u64,
    /// Bytes served from the per-SM read-only (texture) cache.
    pub tex_read_bytes: u64,
    /// 32-byte sectors requested through the read-only (texture) path —
    /// counted separately from `gld_transactions`, as NVVP does.
    pub tex_transactions: u64,
    /// Global-memory f64 atomic operations performed (CAS-loop class).
    pub global_atomics: u64,
    /// Global-memory integer atomic operations (native fetch-add class:
    /// histogram counts, scatter cursors).
    pub global_atomics_int: u64,
    /// Extra serialization events from multiple lanes of one warp updating
    /// the same address in one atomic instruction.
    pub global_atomic_warp_conflicts: u64,
    /// Shared-memory load/store operations (per lane).
    pub shared_accesses: u64,
    /// Shared-memory atomic operations.
    pub shared_atomics: u64,
    /// Extra cycles lost to shared-memory bank conflicts.
    pub shared_bank_conflicts: u64,
    /// Warp shuffle instructions (register-level reductions).
    pub shuffle_instructions: u64,
    /// Memory instructions issued with a partially active mask (lanes
    /// predicated off) — the warp-divergence signal NVVP reports and §2
    /// lists among the factors governing performance.
    pub divergent_instructions: u64,
    /// Sum of inactive lanes over all divergent instructions (the wasted
    /// SIMD slots).
    pub inactive_lanes: u64,
    /// Double-precision floating point operations.
    pub flops: u64,
    /// `__syncthreads()` barriers executed (per block).
    pub barriers: u64,
    /// Kernel launches folded into these counters.
    pub kernel_launches: u64,
    /// Sampled histogram of global-atomic target addresses, used by the
    /// timing model to estimate same-address serialization. Keys are
    /// element addresses; values are sampled hit counts. Ordered so that
    /// debug/serialized representations are deterministic.
    #[serde(skip)]
    pub atomic_addr_samples: BTreeMap<u64, u32>,
}

/// Where the reduction work of a launch landed in the paper's §3.1
/// aggregation hierarchy: registers (warp shuffles), shared memory, or
/// global-memory atomics. The fused kernels' speedup story is precisely
/// that work migrates *up* this hierarchy, so the benchmark reports carry
/// this breakdown per workload to make speedup changes attributable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggregationBreakdown {
    /// Register-level reduction ops (warp shuffle instructions).
    pub register_shuffle_ops: u64,
    /// Shared-memory atomic reduction ops.
    pub shared_atomic_ops: u64,
    /// Plain shared-memory traffic (staging loads/stores around the
    /// shared-tier reductions).
    pub shared_access_ops: u64,
    /// Global-memory atomics (f64 CAS-loop class + native integer).
    pub global_atomic_ops: u64,
}

impl AggregationBreakdown {
    /// Total reduction-hierarchy operations.
    pub fn total_ops(&self) -> u64 {
        self.register_shuffle_ops
            + self.shared_atomic_ops
            + self.shared_access_ops
            + self.global_atomic_ops
    }
}

impl Counters {
    pub fn new() -> Self {
        Self::default()
    }

    /// Classify this launch's reduction traffic by aggregation tier
    /// (register/shuffle vs. shared vs. global-atomic).
    pub fn aggregation_breakdown(&self) -> AggregationBreakdown {
        AggregationBreakdown {
            register_shuffle_ops: self.shuffle_instructions,
            shared_atomic_ops: self.shared_atomics,
            shared_access_ops: self.shared_accesses,
            global_atomic_ops: self.global_atomics + self.global_atomics_int,
        }
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Average SIMD efficiency of memory instructions: active lanes over
    /// issued lane slots, in (0, 1]. Returns 1.0 when nothing was issued.
    pub fn simd_efficiency(&self) -> f64 {
        let instrs = self.gld_instructions + self.gst_instructions;
        if instrs == 0 {
            return 1.0;
        }
        let slots = instrs * 32;
        1.0 - self.inactive_lanes as f64 / slots as f64
    }

    /// Merge another counter set into this one (used when per-worker
    /// accumulators are combined at the end of a launch).
    pub fn merge(&mut self, other: &Counters) {
        self.gld_instructions += other.gld_instructions;
        self.gld_transactions += other.gld_transactions;
        self.gst_instructions += other.gst_instructions;
        self.gst_transactions += other.gst_transactions;
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.l2_read_bytes += other.l2_read_bytes;
        self.tex_read_bytes += other.tex_read_bytes;
        self.tex_transactions += other.tex_transactions;
        self.global_atomics += other.global_atomics;
        self.global_atomics_int += other.global_atomics_int;
        self.global_atomic_warp_conflicts += other.global_atomic_warp_conflicts;
        self.shared_accesses += other.shared_accesses;
        self.shared_atomics += other.shared_atomics;
        self.shared_bank_conflicts += other.shared_bank_conflicts;
        self.shuffle_instructions += other.shuffle_instructions;
        self.divergent_instructions += other.divergent_instructions;
        self.inactive_lanes += other.inactive_lanes;
        self.flops += other.flops;
        self.barriers += other.barriers;
        self.kernel_launches += other.kernel_launches;
        for (addr, count) in &other.atomic_addr_samples {
            *self.atomic_addr_samples.entry(*addr).or_insert(0) += count;
        }
    }

    /// Record one global atomic targeting element address `addr`. `phase`
    /// is a per-SM running atomic counter, so sampling is deterministic no
    /// matter how simulated SMs are spread over host threads; it is hashed
    /// so the effective sampling stride cannot alias with periodic lane
    /// patterns (a fixed stride of 32 would always sample the same lane of
    /// every warp instruction).
    pub(crate) fn record_global_atomic(&mut self, addr: u64, phase: u64) {
        self.global_atomics += 1;
        self.sample_atomic_addr(addr, phase);
    }

    /// Record one integer global atomic (native fetch-add class).
    pub(crate) fn record_global_atomic_int(&mut self, addr: u64, phase: u64) {
        self.global_atomics_int += 1;
        self.sample_atomic_addr(addr, phase);
    }

    fn sample_atomic_addr(&mut self, addr: u64, phase: u64) {
        let h = phase.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if h >> (64 - ATOMIC_SAMPLE_SHIFT) == 0 {
            *self.atomic_addr_samples.entry(addr).or_insert(0) += 1;
        }
    }

    /// Estimated number of atomics hitting the most contended address,
    /// scaled back up from the sample rate. Returns 0 when no atomics
    /// were sampled.
    pub fn hottest_atomic_address_count(&self) -> u64 {
        self.atomic_addr_samples
            .values()
            .copied()
            .max()
            .map(|m| (m as u64) << ATOMIC_SAMPLE_SHIFT)
            .unwrap_or(0)
    }

    /// Estimated number of distinct addresses receiving atomics (from the
    /// sampled histogram; a lower bound).
    pub fn distinct_atomic_addresses(&self) -> u64 {
        self.atomic_addr_samples.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = Counters::new();
        a.gld_transactions = 10;
        a.flops = 5;
        a.atomic_addr_samples.insert(7, 2);
        let mut b = Counters::new();
        b.gld_transactions = 1;
        b.flops = 2;
        b.atomic_addr_samples.insert(7, 1);
        b.atomic_addr_samples.insert(9, 4);
        a.merge(&b);
        assert_eq!(a.gld_transactions, 11);
        assert_eq!(a.flops, 7);
        assert_eq!(a.atomic_addr_samples[&7], 3);
        assert_eq!(a.atomic_addr_samples[&9], 4);
    }

    #[test]
    fn atomic_sampling_estimates_hot_address() {
        let mut c = Counters::new();
        for i in 0..100_000 {
            c.record_global_atomic(42, i);
        }
        assert_eq!(c.global_atomics, 100_000);
        // Sampled at ~1/32: the estimate should land near the true count.
        let est = c.hottest_atomic_address_count();
        assert!((50_000..200_000).contains(&est), "estimate {est}");
        assert_eq!(c.distinct_atomic_addresses(), 1);
    }

    #[test]
    fn sampling_does_not_alias_with_warp_period() {
        // 32 addresses in round-robin (one warp's flush pattern repeated):
        // a strided sampler would pile every sample on one address.
        let mut c = Counters::new();
        for i in 0..100_000u64 {
            c.record_global_atomic((i % 32) * 8, i);
        }
        let hottest = c.hottest_atomic_address_count();
        let true_per_addr = 100_000 / 32;
        assert!(
            hottest < 4 * true_per_addr,
            "aliased sampler: hottest {hottest} vs true {true_per_addr}"
        );
        assert!(c.distinct_atomic_addresses() >= 16);
    }

    #[test]
    fn no_atomics_means_zero_estimates() {
        let c = Counters::new();
        assert_eq!(c.hottest_atomic_address_count(), 0);
        assert_eq!(c.distinct_atomic_addresses(), 0);
    }
}
