//! Property tests on the §3.3 analytical launch-parameter model: every
//! plan it emits must be launchable on the device and must cover the
//! matrix, across the whole space of shapes and row statistics.

// Needs the real `proptest` crate: gated off in offline builds, where
// `proptest` resolves to a macro-less stub (see the workspace Cargo.toml).
#![cfg(feature = "proptest-tests")]

use fusedml_core::tuner::{
    dense_kernel_regs, fits_in_shared, manual_sparse_plan, try_plan_dense, try_plan_sparse, MAX_TL,
    SPARSE_KERNEL_REGS,
};
use fusedml_gpu_sim::{occupancy, DeviceSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn sparse_plans_are_launchable_and_cover(
        m in 1usize..2_000_000,
        n in 1usize..100_000,
        mu in 0.1f64..500.0,
    ) {
        let spec = DeviceSpec::gtx_titan();
        let p = try_plan_sparse(&spec, m, n, mu).unwrap();

        // Geometry invariants.
        prop_assert!(p.vs.is_power_of_two() && p.vs <= 32);
        prop_assert!(p.bs % p.vs == 0);
        prop_assert!(p.bs <= spec.max_threads_per_block);
        prop_assert!(p.grid >= 1);
        // Coverage: one pass of C rows per vector spans the matrix.
        prop_assert!(p.total_vectors() * p.c >= m);
        // Launchable: the occupancy calculator accepts the footprint.
        let occ = occupancy(&spec, p.bs, p.regs, p.shared_bytes);
        prop_assert!(occ.is_some());
        prop_assert_eq!(occ.unwrap().blocks_per_sm, p.occupancy.blocks_per_sm);
        // Aggregation strategy consistent with the shared-memory limit.
        if p.use_shared_w {
            prop_assert!(fits_in_shared(&spec, n, p.bs, p.vs));
        }
        prop_assert_eq!(p.regs, SPARSE_KERNEL_REGS);
    }

    #[test]
    fn dense_plans_are_launchable_and_cover(
        m in 1usize..2_000_000,
        n in 1usize..5_120,
    ) {
        let spec = DeviceSpec::gtx_titan();
        let p = try_plan_dense(&spec, m, n).unwrap();
        prop_assert!(p.tl >= 1 && p.tl <= MAX_TL);
        // The vector covers a full row.
        prop_assert!(p.vs * p.tl >= n, "vs={} tl={} n={}", p.vs, p.tl, n);
        // Register budget honoured (no spilling).
        prop_assert!(p.regs <= spec.max_regs_per_thread);
        prop_assert_eq!(p.regs, dense_kernel_regs(p.tl));
        // Coverage.
        prop_assert!(p.total_vectors() * p.c >= m);
        // Launchable.
        prop_assert!(occupancy(&spec, p.bs, p.regs, 0).is_some());
        // The n <= 32 special case (§3.3).
        if n <= 32 {
            prop_assert_eq!(p.bs, 1024);
            prop_assert_eq!(p.tl, 1);
        }
    }

    #[test]
    fn manual_plans_validated(
        m in 1usize..100_000,
        n in 1usize..4_000,
        vs_pow in 0u32..6,
        bs_mult in 1usize..33,
        c in 1usize..1_000,
    ) {
        let spec = DeviceSpec::gtx_titan();
        let vs = 1usize << vs_pow;
        let bs = 32 * bs_mult;
        if let Some(p) = manual_sparse_plan(&spec, m, n, vs, bs, c) {
            prop_assert!(p.total_vectors() * p.c >= m);
            prop_assert!(occupancy(&spec, p.bs, p.regs, p.shared_bytes).is_some());
            prop_assert!(fits_in_shared(&spec, n, bs, vs));
        } else {
            // Rejection must have a reason.
            let misaligned = bs % vs != 0 || bs > spec.max_threads_per_block;
            let no_shared = !fits_in_shared(&spec, n, bs, vs);
            let no_occ = occupancy(
                &spec,
                bs,
                SPARSE_KERNEL_REGS,
                (bs / vs.max(1) + n) * 8,
            )
            .is_none();
            prop_assert!(misaligned || no_shared || no_occ);
        }
    }

    #[test]
    fn dense_regs_monotone(tl in 1usize..=40) {
        prop_assert!(dense_kernel_regs(tl) >= dense_kernel_regs(1));
        if tl > 1 {
            prop_assert!(dense_kernel_regs(tl) >= dense_kernel_regs(tl - 1));
        }
        prop_assert!(dense_kernel_regs(tl) <= 255);
    }
}

#[test]
fn plans_scale_with_rows_not_columns() {
    // C grows linearly with m; the grid stays one resident wave.
    let spec = DeviceSpec::gtx_titan();
    let small = try_plan_sparse(&spec, 10_000, 1000, 10.0).unwrap();
    let large = try_plan_sparse(&spec, 1_000_000, 1000, 10.0).unwrap();
    assert_eq!(small.grid, large.grid);
    assert!(large.c > 50 * small.c.max(1) / 2);
}
