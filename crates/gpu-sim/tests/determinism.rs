//! Byte-stability of the simulator's performance model: two identical
//! launches must produce identical counters and identical modeled time,
//! no matter how often or on which host they run. The CI perf-regression
//! gate (`fusedml-bench compare`) leans on this — modeled cycles are
//! diffed with tight thresholds precisely because they are deterministic.

use fusedml_gpu_sim::{Counters, DeviceSpec, Gpu, LaunchConfig, LaunchStats};

/// A small but representative kernel: strided loads (partial coalescing),
/// a shuffle reduction, shared traffic, and a global atomic flush.
fn reference_launch(host_threads: usize) -> LaunchStats {
    let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), host_threads);
    let n = 4096usize;
    let data: Vec<f64> = (0..n).map(|i| (i % 97) as f64 * 0.5).collect();
    let x = g.try_upload_f64("x", &data).unwrap();
    let out = g.try_alloc_f64("out", 64).unwrap();
    g.try_launch("reference", LaunchConfig::new(8, 128), |blk| {
        blk.each_warp(|w| {
            let base = (w.block_id() * 128 + w.warp_id() * 32) * 2;
            let mut v = w.load_f64(&x, |lane| {
                let idx = base + lane * 2; // stride-2: 16 sectors per warp
                (idx < n).then_some(idx)
            });
            w.shuffle_reduce_sum(&mut v, 32);
            let block = w.block_id();
            w.atomic_add_f64(&out, |lane| (lane == 0).then_some((block % 64, v[0])));
        });
    })
    .unwrap()
}

fn assert_stats_identical(a: &LaunchStats, b: &LaunchStats) {
    assert_eq!(a.counters, b.counters, "counters must be byte-stable");
    // Timing is pure f64 arithmetic over the counters: bitwise equal.
    assert_eq!(
        a.time.total_ms.to_bits(),
        b.time.total_ms.to_bits(),
        "modeled time must be bit-deterministic"
    );
    assert_eq!(a.time.dram_ms.to_bits(), b.time.dram_ms.to_bits());
    assert_eq!(
        a.time.atomic_serial_ms.to_bits(),
        b.time.atomic_serial_ms.to_bits()
    );
}

#[test]
fn identical_runs_produce_identical_counters_and_cycles() {
    let a = reference_launch(1);
    let b = reference_launch(1);
    assert_stats_identical(&a, &b);
    let clock = DeviceSpec::gtx_titan().clock_ghz;
    assert_eq!(
        a.time.modeled_cycles(clock),
        b.time.modeled_cycles(clock),
        "modeled cycle counts must be byte-stable"
    );
    assert!(a.time.modeled_cycles(clock) > 0);
}

#[test]
fn host_thread_count_does_not_perturb_the_model() {
    let a = reference_launch(1);
    let b = reference_launch(4);
    assert_stats_identical(&a, &b);
}

#[test]
fn aggregation_breakdown_classifies_all_reduction_tiers() {
    let s = reference_launch(1);
    let agg = s.counters.aggregation_breakdown();
    // The reference kernel reduces in registers then flushes globally.
    assert!(agg.register_shuffle_ops > 0, "shuffle tier used");
    assert!(agg.global_atomic_ops > 0, "global-atomic tier used");
    assert_eq!(agg.register_shuffle_ops, s.counters.shuffle_instructions);
    assert_eq!(
        agg.global_atomic_ops,
        s.counters.global_atomics + s.counters.global_atomics_int
    );
    assert_eq!(
        agg.total_ops(),
        agg.register_shuffle_ops
            + agg.shared_atomic_ops
            + agg.shared_access_ops
            + agg.global_atomic_ops
    );
}

#[test]
fn modeled_cycles_scale_with_clock() {
    let s = reference_launch(1);
    let lo = s.time.modeled_cycles(0.5);
    let hi = s.time.modeled_cycles(1.0);
    // Same modeled time at double the clock is double the cycles.
    assert!(hi >= 2 * lo - 1 && hi <= 2 * lo + 1, "{lo} vs {hi}");
}

#[test]
fn merged_counters_equal_sum_of_parts() {
    let a = reference_launch(1);
    let b = reference_launch(1);
    let mut merged = Counters::new();
    merged.merge(&a.counters);
    merged.merge(&b.counters);
    assert_eq!(
        merged.gld_transactions,
        a.counters.gld_transactions + b.counters.gld_transactions
    );
    assert_eq!(merged.flops, a.counters.flops + b.counters.flops);
    assert_eq!(merged.kernel_launches, 2);
}
