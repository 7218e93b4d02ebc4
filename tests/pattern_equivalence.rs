//! Property tests: every execution path of the generic pattern — fused
//! shared-memory, fused global-memory, dense monomorphized, and the
//! operator-by-operator baselines — computes the same `w` as the CPU
//! reference, across random shapes, densities, scalars and operand
//! combinations.

// Needs the real `proptest` crate: gated off in offline builds, where
// `proptest` resolves to a macro-less stub (see the workspace Cargo.toml).
#![cfg(feature = "proptest-tests")]

use fusedml::prelude::*;
use fusedml_core::tuner::manual_sparse_plan;
use fusedml_core::{sparse_fused, sparse_large, try_plan_dense};
use fusedml_matrix::gen::{dense_random, random_vector, uniform_sparse};
use fusedml_matrix::reference;
use proptest::prelude::*;

fn gpu() -> Gpu {
    Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
}

fn spec_strategy() -> impl Strategy<Value = PatternSpec> {
    (-2.0f64..2.0, any::<bool>(), -2.0f64..2.0, any::<bool>()).prop_map(
        |(alpha, with_v, beta, with_z)| PatternSpec {
            alpha,
            with_v,
            beta,
            with_z,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn fused_sparse_matches_reference(
        m in 16usize..300,
        n in 8usize..200,
        density in 0.02f64..0.3,
        seed in 0u64..1000,
        spec in spec_strategy(),
    ) {
        let g = gpu();
        let x = uniform_sparse(m, n, density, seed);
        let y = random_vector(n, seed + 1);
        let v = random_vector(m, seed + 2);
        let z = random_vector(n, seed + 3);

        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let vd = g.try_upload_f64("v", &v).unwrap();
        let zd = g.try_upload_f64("z", &z).unwrap();
        let wd = g.try_alloc_f64("w", n).unwrap();

        let mut ex = FusedExecutor::new(&g);
        ex.try_pattern_sparse(
            spec,
            &xd,
            spec.with_v.then_some(&vd),
            &yd,
            spec.with_z.then_some(&zd),
            &wd,
        ).unwrap();

        let expect = reference::pattern_csr(
            spec.alpha,
            &x,
            spec.with_v.then_some(v.as_slice()),
            &y,
            spec.beta,
            spec.with_z.then_some(z.as_slice()),
        );
        prop_assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-10);
    }

    #[test]
    fn both_sparse_variants_agree(
        m in 32usize..200,
        n in 16usize..150,
        vs_pow in 0u32..5,
        seed in 0u64..1000,
    ) {
        let g = gpu();
        let vs = 1usize << vs_pow;
        let x = uniform_sparse(m, n, 0.1, seed);
        let y = random_vector(n, seed + 1);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let spec = PatternSpec::xtxy();

        // Shared-memory variant with a manual plan.
        let shared_plan = manual_sparse_plan(g.spec(), m, n, vs, (vs * 8).min(256), 4)
            .expect("small matrix always fits shared memory");
        let w1 = g.try_alloc_f64("w1", n).unwrap();
        sparse_fused::try_fused_pattern_shared(&g, &shared_plan, spec, &xd, None, &yd, None, &w1).unwrap();

        // Global-memory variant with the same geometry.
        let mut global_plan = shared_plan;
        global_plan.use_shared_w = false;
        global_plan.shared_bytes = (global_plan.bs / global_plan.vs) * 8;
        let w2 = g.try_alloc_f64("w2", n).unwrap();
        sparse_large::try_fused_pattern_global(&g, &global_plan, spec, &xd, None, &yd, None, &w2).unwrap();

        prop_assert!(
            reference::rel_l2_error(&w1.to_vec_f64(), &w2.to_vec_f64()) < 1e-10
        );
    }

    #[test]
    fn fused_dense_matches_reference(
        m in 16usize..250,
        n in 4usize..300,
        seed in 0u64..1000,
        spec in spec_strategy(),
    ) {
        let g = gpu();
        let x = dense_random(m, n, seed);
        let y = random_vector(n, seed + 1);
        let v = random_vector(m, seed + 2);
        let z = random_vector(n, seed + 3);

        let xd = GpuDense::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let vd = g.try_upload_f64("v", &v).unwrap();
        let zd = g.try_upload_f64("z", &z).unwrap();
        let wd = g.try_alloc_f64("w", n).unwrap();

        let plan = try_plan_dense(g.spec(), m, n).unwrap();
        let mut ex = FusedExecutor::new(&g);
        ex.try_pattern_dense_with_plan(
            &plan,
            spec,
            &xd,
            spec.with_v.then_some(&vd),
            &yd,
            spec.with_z.then_some(&zd),
            &wd,
        ).unwrap();

        let expect = reference::pattern_dense(
            spec.alpha,
            &x,
            spec.with_v.then_some(v.as_slice()),
            &y,
            spec.beta,
            spec.with_z.then_some(z.as_slice()),
        );
        prop_assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-10);
    }

    #[test]
    fn baselines_match_reference(
        m in 16usize..200,
        n in 8usize..150,
        seed in 0u64..1000,
    ) {
        let g = gpu();
        let x = uniform_sparse(m, n, 0.1, seed);
        let y = random_vector(n, seed + 1);
        let expect = reference::pattern_csr(1.0, &x, None, &y, 0.0, None);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let pd = g.try_alloc_f64("p", m).unwrap();
        for flavor in [Flavor::CuLibs, Flavor::BidmatGpu] {
            let wd = g.try_alloc_f64("w", n).unwrap();
            let mut e = BaselineEngine::try_new(&g, flavor).unwrap();
            e.try_pattern_sparse(1.0, &xd, None, &yd, 0.0, None, &wd, &pd).unwrap();
            prop_assert!(
                reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-10,
                "flavor {:?}", flavor
            );
        }
    }
}
