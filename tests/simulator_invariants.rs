//! Cross-crate invariants of the GPU simulator itself: counter sanity,
//! determinism, and the relationships the timing model depends on.

// Needs the real `proptest` crate: gated off in offline builds, where
// `proptest` resolves to a macro-less stub (see the workspace Cargo.toml).
#![cfg(feature = "proptest-tests")]

use fusedml::prelude::*;
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use proptest::prelude::*;

fn run_pattern(host_threads: usize, m: usize, n: usize, seed: u64) -> (Vec<f64>, u64, u64, f64) {
    let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), host_threads);
    let x = uniform_sparse(m, n, 0.05, seed);
    let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
    let yd = g.try_upload_f64("y", &random_vector(n, seed + 1)).unwrap();
    let wd = g.try_alloc_f64("w", n).unwrap();
    let mut ex = FusedExecutor::new(&g);
    ex.try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
        .unwrap();
    let c = &ex.launches.last().unwrap().counters;
    (
        wd.to_vec_f64(),
        c.gld_transactions,
        c.global_atomics,
        ex.total_sim_ms(),
    )
}

#[test]
fn host_parallelism_does_not_change_counters() {
    let (w1, t1, a1, ms1) = run_pattern(1, 3000, 256, 9);
    let (w2, t2, a2, ms2) = run_pattern(2, 3000, 256, 9);
    assert_eq!(t1, t2, "transactions must be deterministic");
    assert_eq!(a1, a2, "atomics must be deterministic");
    assert!((ms1 - ms2).abs() < 1e-9, "sim time must be deterministic");
    // Atomic float adds may reorder: tolerance-based comparison.
    assert!(fusedml_matrix::reference::rel_l2_error(&w1, &w2) < 1e-12);
}

#[test]
fn repeated_sequential_runs_are_bitwise_identical() {
    let a = run_pattern(1, 1500, 128, 4);
    let b = run_pattern(1, 1500, 128, 4);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.3, b.3);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn counter_sanity_on_random_patterns(
        m in 64usize..1500,
        n in 16usize..400,
        seed in 0u64..500,
    ) {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
        let x = uniform_sparse(m, n, 0.05, seed);
        let nnz = x.nnz() as u64;
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &random_vector(n, seed)).unwrap();
        let wd = g.try_alloc_f64("w", n).unwrap();
        g.flush_caches();
        let mut ex = FusedExecutor::new(&g);
        ex.try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &yd, None, &wd).unwrap();
        let c = &ex.launches.last().unwrap().counters;

        // Each non-zero is loaded twice (value) plus column indices: the
        // sector count is bounded by per-element worst case.
        prop_assert!(c.gld_transactions >= nnz / 32, "too few sectors");
        prop_assert!(
            c.gld_transactions <= 6 * nnz + 4 * (m as u64) + 1000,
            "sector count {} implausible for nnz {}",
            c.gld_transactions,
            nnz
        );
        // DRAM read traffic cannot exceed sectors * 128B (line fills) and
        // must at least cover one compulsory scan of the values.
        prop_assert!(c.dram_read_bytes <= (c.gld_transactions + c.global_atomics) * 128);
        prop_assert!(c.dram_read_bytes >= nnz * 8 / 2);
        // FLOPs: ~4 per nnz (two passes) plus reductions.
        prop_assert!(c.flops >= 4 * nnz);
        // Shared variant: per-nnz shared atomics, per-column global flush.
        prop_assert!(c.shared_atomics >= nnz);
        prop_assert!(c.global_atomics >= n as u64 / 32);
        // Time is positive and composed of its parts.
        let t = &ex.launches.last().unwrap().time;
        prop_assert!(t.total_ms > 0.0);
        prop_assert!(t.total_ms >= t.launch_ms);
    }

    #[test]
    fn more_data_never_simulates_faster(
        m in 40_000usize..60_000,
        seed in 0u64..100,
    ) {
        // Sizes where DRAM traffic dominates launch overhead and the
        // sampled-histogram noise in the atomic-serialization estimate.
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
        let n = 128;
        let small = uniform_sparse(m, n, 0.05, seed);
        let big = uniform_sparse(m * 4, n, 0.05, seed);
        let run = |x: &fusedml_matrix::CsrMatrix| {
            let xd = GpuCsr::try_upload(&g, "x", x).unwrap();
            let yd = g.try_upload_f64("y", &random_vector(n, seed)).unwrap();
            let wd = g.try_alloc_f64("w", n).unwrap();
            g.flush_caches();
            let mut ex = FusedExecutor::new(&g);
            ex.try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &yd, None, &wd).unwrap();
            ex.total_sim_ms()
        };
        prop_assert!(run(&big) > run(&small));
    }
}

#[test]
fn memory_accounting_tracks_allocations() {
    let g = Gpu::new(DeviceSpec::gtx_titan());
    let before = g.allocated_bytes();
    let a = g.try_alloc_f64("a", 1000).unwrap();
    let b = g.try_alloc_u32("b", 1000).unwrap();
    assert_eq!(g.allocated_bytes() - before, 8000 + 4000);
    g.free(&a);
    g.free(&b);
    assert_eq!(g.allocated_bytes(), before);
}

#[test]
fn lower_bandwidth_device_is_slower_when_bandwidth_bound() {
    // Big enough that DRAM bandwidth (288 vs 208 GB/s) is the bottleneck;
    // at tiny sizes a K20's *fewer SMs* can actually win by issuing fewer
    // per-block flush atomics — a real effect the model reproduces.
    let run = |spec: DeviceSpec| {
        let g = Gpu::with_host_threads(spec, 1);
        let x = uniform_sparse(50_000, 512, 0.02, 3);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &random_vector(512, 4)).unwrap();
        let wd = g.try_alloc_f64("w", 512).unwrap();
        let mut ex = FusedExecutor::new(&g);
        ex.try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
            .unwrap();
        ex.total_sim_ms()
    };
    let titan = run(DeviceSpec::gtx_titan());
    let k20 = run(DeviceSpec::tesla_k20());
    assert!(
        k20 > titan,
        "K20 ({k20} ms) should trail Titan ({titan} ms)"
    );
}
