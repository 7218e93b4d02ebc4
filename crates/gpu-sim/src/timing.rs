//! Roofline-style timing model: converts counted hardware events into
//! simulated execution time.
//!
//! The kernels the paper studies are memory-bound (§3: ~1 FLOP per load for
//! matrix-vector products), so simulated time is dominated by DRAM traffic
//! divided by achievable bandwidth, where achievable bandwidth degrades when
//! occupancy is too low to hide latency. Global-atomic serialization — the
//! cost the hierarchical aggregation strategy exists to avoid — is modelled
//! from the sampled per-address histogram: the hottest address serializes.
//!
//! A matching analytical CPU model (`CpuSpec`) stands in for BIDMat-CPU /
//! Intel MKL in the comparative figures.

use crate::counters::Counters;
use crate::device::DeviceSpec;
use crate::occupancy::Occupancy;
use serde::{Deserialize, Serialize};

/// Occupancy below this fraction can no longer hide memory latency;
/// achievable bandwidth scales down proportionally (empirically ~50% on
/// Kepler for memory-bound kernels, cf. Volkov's occupancy studies).
/// Public because the launch-parameter tuner treats occupancy beyond the
/// knee as "maximum possible" when trading it against atomic traffic.
pub const LATENCY_HIDING_KNEE: f64 = 0.5;

/// Breakdown of one kernel's simulated time, all in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    pub launch_ms: f64,
    pub dram_ms: f64,
    pub l2_ms: f64,
    pub compute_ms: f64,
    pub shared_ms: f64,
    pub atomic_throughput_ms: f64,
    pub atomic_serial_ms: f64,
    /// Final simulated kernel time: launch overhead plus the max of the
    /// overlapping pipelines.
    pub total_ms: f64,
}

impl TimeBreakdown {
    /// Modeled core-clock cycles behind `total_ms` at `clock_ghz`. The
    /// timing model is pure f64 arithmetic over integer counters, so this
    /// value is bit-deterministic across hosts — the benchmark regression
    /// gate diffs it with tight thresholds, unlike wall-clock.
    pub fn modeled_cycles(&self, clock_ghz: f64) -> u64 {
        (self.total_ms * clock_ghz * 1e6).round() as u64
    }

    /// Scale every component by `factor` — used by the straggler fault
    /// class, which slows a launch down uniformly without touching its
    /// counters or numerics.
    pub fn scale(&mut self, factor: f64) {
        self.launch_ms *= factor;
        self.dram_ms *= factor;
        self.l2_ms *= factor;
        self.compute_ms *= factor;
        self.shared_ms *= factor;
        self.atomic_throughput_ms *= factor;
        self.atomic_serial_ms *= factor;
        self.total_ms *= factor;
    }

    /// Name of the dominating component (useful for diagnosing shapes).
    pub fn bottleneck(&self) -> &'static str {
        let items = [
            (self.dram_ms, "dram"),
            (self.l2_ms, "l2"),
            (self.compute_ms, "compute"),
            (self.shared_ms, "shared"),
            (self.atomic_throughput_ms, "atomic_throughput"),
            (self.atomic_serial_ms, "atomic_serialization"),
        ];
        items
            .into_iter()
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, n)| n)
            .unwrap_or("launch")
    }
}

/// Estimate the simulated time of one kernel launch from its counters.
///
/// * `ilp` — per-thread memory-level parallelism (1.0 when each thread has
///   one load in flight; TL for the paper's unrolled dense kernel);
///   latency hiding is the product of warp parallelism and ILP.
/// * `device_fill` — fraction of the device's resident-block capacity the
///   grid actually occupies (a 7-block grid on a 14-SM device leaves half
///   the SMs idle no matter how high per-SM occupancy is).
pub fn kernel_time(
    spec: &DeviceSpec,
    occ: &Occupancy,
    ilp: f64,
    device_fill: f64,
    c: &Counters,
) -> TimeBreakdown {
    let occ_eff = (occ.occupancy * device_fill.clamp(0.0, 1.0) * ilp.max(1.0)
        / LATENCY_HIDING_KNEE)
        .min(device_fill.clamp(0.02, 1.0))
        .max(0.02);

    let dram_ms = c.dram_bytes() as f64 / (spec.dram_bandwidth_gbps * occ_eff) * 1e-6;
    let l2_ms = c.l2_read_bytes as f64 / (spec.l2_bandwidth_gbps * occ_eff) * 1e-6;
    let compute_ms = c.flops as f64 / (spec.peak_dp_gflops * occ_eff) * 1e-6;

    // Shared memory: all SMs together retire `shared_ops_per_ns_per_sm`
    // accesses per ns; bank conflicts serialize whole warp accesses.
    let shared_ops = c.shared_accesses + c.shared_atomics + 32 * c.shared_bank_conflicts;
    let shared_ms =
        shared_ops as f64 / (spec.shared_ops_per_ns_per_sm * spec.num_sms as f64) * 1e-6;

    // Atomics: a throughput term over all atomics plus a serialization term
    // on the most contended address (atomic units process one update to a
    // given address at a time).
    let atomic_throughput_ms = (c.global_atomics as f64 / spec.atomic_ops_per_ns
        + c.global_atomics_int as f64 / spec.atomic_int_ops_per_ns)
        * 1e-6;
    let serialized = c.hottest_atomic_address_count() + c.global_atomic_warp_conflicts;
    let atomic_serial_ms = serialized as f64 * spec.atomic_serial_ns * 1e-6;

    let launch_ms = c.kernel_launches.max(1) as f64 * spec.launch_overhead_us * 1e-3;

    let body = [
        dram_ms,
        l2_ms,
        compute_ms,
        shared_ms,
        atomic_throughput_ms,
        atomic_serial_ms,
    ]
    .into_iter()
    .fold(0.0f64, f64::max);

    TimeBreakdown {
        launch_ms,
        dram_ms,
        l2_ms,
        compute_ms,
        shared_ms,
        atomic_throughput_ms,
        atomic_serial_ms,
        total_ms: launch_ms + body,
    }
}

/// Analytical CPU cost model standing in for BIDMat-CPU (Intel MKL, 8
/// hyper-threads on a core-i7 3.4 GHz) in the comparative experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    pub name: String,
    /// Hardware threads used.
    pub threads: usize,
    /// Sustained memory bandwidth in GB/s across all threads.
    pub bandwidth_gbps: f64,
    /// Peak double-precision GFLOP/s across all threads.
    pub peak_dp_gflops: f64,
    /// Per-operator dispatch overhead in microseconds (library call, loop
    /// setup, thread fork/join).
    pub op_overhead_us: f64,
    /// Fraction of peak bandwidth achievable on irregular (sparse gather)
    /// access patterns. MKL's sparse kernels are comparatively good, which
    /// is why the paper sees MKL beat the GPU baselines on sparse inputs.
    pub irregular_efficiency: f64,
}

impl CpuSpec {
    /// The evaluation host of §4: Intel core-i7 3.4 GHz, 4 cores / 8
    /// hyper-threads, dual-channel DDR3.
    pub fn core_i7_8threads() -> Self {
        CpuSpec {
            name: "core-i7 3.4GHz, 8 hyper-threads (modelled MKL)".to_string(),
            threads: 8,
            bandwidth_gbps: 25.6,
            peak_dp_gflops: 108.8,
            op_overhead_us: 8.0,
            irregular_efficiency: 0.55,
        }
    }

    /// Time for an operator that moves `bytes` of memory and performs
    /// `flops` double-precision operations. `irregular` marks gather /
    /// scatter-dominated access (sparse).
    pub fn op_time_ms(&self, bytes: u64, flops: u64, irregular: bool) -> f64 {
        let bw = if irregular {
            self.bandwidth_gbps * self.irregular_efficiency
        } else {
            self.bandwidth_gbps
        };
        let mem_ms = bytes as f64 / bw * 1e-6;
        let compute_ms = flops as f64 / self.peak_dp_gflops * 1e-6;
        self.op_overhead_us * 1e-3 + mem_ms.max(compute_ms)
    }
}

/// PCIe transfer model (host <-> device), used by the end-to-end
/// experiments (Tables 5 and 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcieSpec {
    /// Effective bandwidth in GB/s (paper: PCIe Gen3 x16, 32 GB/s quoted,
    /// ~12 GB/s achievable per direction in practice).
    pub bandwidth_gbps: f64,
    /// Per-transfer latency in microseconds.
    pub latency_us: f64,
}

impl PcieSpec {
    pub fn gen3_x16() -> Self {
        PcieSpec {
            bandwidth_gbps: 12.0,
            latency_us: 10.0,
        }
    }

    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        self.latency_us * 1e-3 + bytes as f64 / self.bandwidth_gbps * 1e-6
    }
}

/// Device-to-device interconnect model for multi-GPU groups. Transfers are
/// counted event-style, exactly like DRAM traffic: each transfer costs a
/// fixed latency plus bytes over bandwidth, and the group accumulates
/// per-link byte/time totals that feed the modeled (bit-deterministic)
/// metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterconnectSpec {
    /// Stable profile name recorded in reports ("pcie-gen3-x16", "nvlink2").
    pub name: String,
    /// Effective per-direction bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Per-transfer latency in microseconds.
    pub latency_us: f64,
}

impl InterconnectSpec {
    /// Peer-to-peer over the PCIe Gen3 x16 fabric: same achievable
    /// bandwidth as the host link ([`PcieSpec::gen3_x16`]).
    pub fn pcie_gen3_x16() -> Self {
        InterconnectSpec {
            name: "pcie-gen3-x16".to_string(),
            bandwidth_gbps: 12.0,
            latency_us: 10.0,
        }
    }

    /// NVLink 2.0-class link: ~48 GB/s per direction, sub-2 µs latency.
    pub fn nvlink2() -> Self {
        InterconnectSpec {
            name: "nvlink2".to_string(),
            bandwidth_gbps: 48.0,
            latency_us: 1.3,
        }
    }

    /// Look a profile up by its stable name (the inverse of `name`).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "pcie-gen3-x16" => Some(Self::pcie_gen3_x16()),
            "nvlink2" => Some(Self::nvlink2()),
            _ => None,
        }
    }

    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        self.latency_us * 1e-3 + bytes as f64 / self.bandwidth_gbps * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::{occupancy, Occupancy};

    fn full_occ() -> Occupancy {
        occupancy(&DeviceSpec::gtx_titan(), 256, 32, 0).unwrap()
    }

    #[test]
    fn memory_bound_kernel_hits_bandwidth() {
        let spec = DeviceSpec::gtx_titan();
        let mut c = Counters::new();
        c.dram_read_bytes = 288_000_000; // 1 GB/s-second worth => ~1 ms
        c.flops = 1000;
        let t = kernel_time(&spec, &full_occ(), 1.0, 1.0, &c);
        assert!((t.dram_ms - 1.0).abs() < 1e-9);
        assert_eq!(t.bottleneck(), "dram");
        assert!(t.total_ms > 1.0);
    }

    #[test]
    fn low_occupancy_degrades_bandwidth() {
        let spec = DeviceSpec::gtx_titan();
        let mut c = Counters::new();
        c.dram_read_bytes = 288_000_000;
        let lo = occupancy(&spec, 256, 255, 0).unwrap(); // register-starved
        assert!(lo.occupancy < 0.25);
        let t_lo = kernel_time(&spec, &lo, 1.0, 1.0, &c);
        let t_hi = kernel_time(&spec, &full_occ(), 1.0, 1.0, &c);
        assert!(t_lo.dram_ms > 1.5 * t_hi.dram_ms);
    }

    #[test]
    fn hot_atomic_address_serializes() {
        let spec = DeviceSpec::gtx_titan();
        let mut c = Counters::new();
        for i in 0..100_000 {
            c.record_global_atomic(0, i);
        }
        let t = kernel_time(&spec, &full_occ(), 1.0, 1.0, &c);
        assert_eq!(t.bottleneck(), "atomic_serialization");
        // 100k serialized atomics at 30ns each = 3 ms.
        assert!(t.atomic_serial_ms > 2.0);
    }

    #[test]
    fn spread_atomics_do_not_serialize() {
        let spec = DeviceSpec::gtx_titan();
        let mut c = Counters::new();
        for i in 0..100_000u64 {
            c.record_global_atomic(i * 8, i);
        }
        let t = kernel_time(&spec, &full_occ(), 1.0, 1.0, &c);
        assert!(t.atomic_serial_ms < t.atomic_throughput_ms * 10.0);
        assert_ne!(t.bottleneck(), "atomic_serialization");
    }

    #[test]
    fn launch_overhead_floors_empty_kernels() {
        let spec = DeviceSpec::gtx_titan();
        let t = kernel_time(&spec, &full_occ(), 1.0, 1.0, &Counters::new());
        assert!((t.total_ms - 0.005).abs() < 1e-9);
    }

    #[test]
    fn cpu_model_bandwidth_bound() {
        let cpu = CpuSpec::core_i7_8threads();
        // 25.6 MB at 25.6 GB/s = 1 ms (plus overhead).
        let t = cpu.op_time_ms(25_600_000, 1000, false);
        assert!((t - 1.008).abs() < 1e-3);
        // Irregular access is slower.
        assert!(cpu.op_time_ms(25_600_000, 1000, true) > t);
    }

    #[test]
    fn pcie_transfer_scales_with_bytes() {
        let p = PcieSpec::gen3_x16();
        let t1 = p.transfer_ms(12_000_000);
        assert!((t1 - 1.01).abs() < 1e-2);
        assert!(p.transfer_ms(24_000_000) > 1.9 * t1 - p.latency_us * 1e-3);
    }

    #[test]
    fn interconnect_profiles_roundtrip_and_order() {
        let pcie = InterconnectSpec::pcie_gen3_x16();
        let nv = InterconnectSpec::nvlink2();
        assert_eq!(InterconnectSpec::by_name(&pcie.name), Some(pcie.clone()));
        assert_eq!(InterconnectSpec::by_name(&nv.name), Some(nv.clone()));
        assert_eq!(InterconnectSpec::by_name("token-ring"), None);
        // NVLink beats PCIe on both axes for any transfer size.
        for bytes in [0u64, 1 << 10, 1 << 20, 1 << 28] {
            assert!(nv.transfer_ms(bytes) < pcie.transfer_ms(bytes));
        }
        // 12 MB over 12 GB/s = 1 ms + latency.
        assert!((pcie.transfer_ms(12_000_000) - 1.01).abs() < 1e-9);
    }

    #[test]
    fn time_breakdown_scales_uniformly() {
        let spec = DeviceSpec::gtx_titan();
        let mut c = Counters::new();
        c.dram_read_bytes = 288_000_000;
        let mut t = kernel_time(&spec, &full_occ(), 1.0, 1.0, &c);
        let base = t;
        t.scale(4.0);
        assert!((t.total_ms - 4.0 * base.total_ms).abs() < 1e-12);
        assert!((t.dram_ms - 4.0 * base.dram_ms).abs() < 1e-12);
        assert_eq!(t.bottleneck(), base.bottleneck());
    }
}
