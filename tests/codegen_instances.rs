//! Every monomorphized dense-kernel instance — the 40 "generated kernels"
//! of the code-generation layer — computes the correct result, across the
//! vector-size cases (intra-warp and block-wide vectors).

use fusedml::prelude::*;
use fusedml_blas::level1::try_fill;
use fusedml_core::codegen::try_launch_dense_fused;
use fusedml_core::tuner::{dense_kernel_regs, DensePlan, MAX_TL};
use fusedml_gpu_sim::occupancy;
use fusedml_matrix::gen::{dense_random, random_vector};
use fusedml_matrix::reference;

fn manual_dense_plan(gpu: &Gpu, m: usize, n: usize, vs: usize, tl: usize) -> DensePlan {
    assert!(vs * tl >= n, "vector must cover the row");
    let bs = if vs > 32 { vs } else { 128 };
    let regs = dense_kernel_regs(tl);
    let occ = occupancy(gpu.spec(), bs, regs, 512).expect("plan fits");
    let grid = (occ.blocks_per_sm * gpu.spec().num_sms).max(1);
    let total_vectors = grid * bs / vs;
    DensePlan {
        vs,
        bs,
        tl,
        grid,
        c: m.div_ceil(total_vectors).max(1),
        regs,
        occupancy: occ,
    }
}

#[test]
fn all_forty_thread_loads_compute_correctly() {
    let gpu = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
    let m = 160;
    let vs = 8;
    for tl in 1..=MAX_TL {
        // n exactly fills the vector's slots (no waste, no gap).
        let n = vs * tl;
        let x = dense_random(m, n, tl as u64);
        let y = random_vector(n, 100 + tl as u64);
        let xd = GpuDense::try_upload(&gpu, "x", &x).unwrap();
        let yd = gpu.try_upload_f64("y", &y).unwrap();
        let wd = gpu.try_alloc_f64("w", n).unwrap();
        try_fill(&gpu, &wd, 0.0).unwrap();
        let plan = manual_dense_plan(&gpu, m, n, vs, tl);
        try_launch_dense_fused(&gpu, &plan, PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
            .unwrap();
        let expect = reference::pattern_dense(1.0, &x, None, &y, 0.0, None);
        let err = reference::rel_l2_error(&wd.to_vec_f64(), &expect);
        assert!(err < 1e-10, "TL={tl}: rel error {err}");
    }
}

#[test]
fn block_wide_vectors_across_thread_loads() {
    let gpu = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
    let m = 64;
    for tl in [1usize, 2, 3, 5, 8] {
        let vs = 128; // VS == BS: the inter-warp reduction path
        let n = vs * tl - 3; // deliberately not a multiple: masked slots
        let x = dense_random(m, n, 200 + tl as u64);
        let y = random_vector(n, 300 + tl as u64);
        let xd = GpuDense::try_upload(&gpu, "x", &x).unwrap();
        let yd = gpu.try_upload_f64("y", &y).unwrap();
        let wd = gpu.try_alloc_f64("w", n).unwrap();
        try_fill(&gpu, &wd, 0.0).unwrap();
        let plan = manual_dense_plan(&gpu, m, n, vs, tl);
        try_launch_dense_fused(
            &gpu,
            &plan,
            PatternSpec {
                alpha: 1.5,
                with_v: false,
                beta: 0.0,
                with_z: false,
            },
            &xd,
            None,
            &yd,
            None,
            &wd,
        )
        .unwrap();
        let expect = reference::pattern_dense(1.5, &x, None, &y, 0.0, None);
        let err = reference::rel_l2_error(&wd.to_vec_f64(), &expect);
        assert!(err < 1e-10, "VS=BS TL={tl}: rel error {err}");
    }
}

#[test]
fn higher_thread_load_means_more_ilp_and_fewer_resident_warps() {
    let gpu = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
    let low = manual_dense_plan(&gpu, 1000, 8, 8, 1);
    let high = manual_dense_plan(&gpu, 1000, 8 * 40, 8, 40);
    assert!(dense_kernel_regs(40) > dense_kernel_regs(1));
    assert!(high.occupancy.warps_per_sm <= low.occupancy.warps_per_sm);
}
