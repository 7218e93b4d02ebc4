//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **hierarchical aggregation** — the shared-memory inter-vector stage
//!   vs aggregating every contribution directly in global memory;
//! * **coarsening** — the tuner's `C` vs no coarsening (one row per
//!   vector, many small blocks);
//! * **code generation** — monomorphized thread loads (register residency
//!   + ILP) vs the `TL = 1` un-unrolled kernel;
//! * **texture binding for `y`** — the paper binds the multiplicand vector
//!   to the read-only path.
//!
//! Like `paper.rs` these measure host wall-time of the simulation; the
//! simulated-millisecond ablation numbers are printed to stdout once per
//! bench so the effect on the modelled device is visible too.

use criterion::{criterion_group, criterion_main, Criterion};
use fusedml_blas::GpuCsr;
use fusedml_core::executor::FusedExecutor;
use fusedml_core::tuner::manual_sparse_plan;
use fusedml_core::{try_plan_dense, try_plan_sparse, PatternSpec};
use fusedml_gpu_sim::{DeviceSpec, Gpu};
use fusedml_matrix::gen::{dense_random, random_vector, uniform_sparse};
use std::hint::black_box;
use std::sync::Once;

const M: usize = 20_000;

/// Shared vs global aggregation on a matrix narrow enough for both.
fn ablation_aggregation(c: &mut Criterion) {
    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let n = 512;
    let x = uniform_sparse(M, n, 0.01, 1);
    let xd = GpuCsr::try_upload(&gpu, "x", &x).unwrap();
    let y = gpu.try_upload_f64("y", &random_vector(n, 2)).unwrap();
    let w = gpu.try_alloc_f64("w", n).unwrap();
    let spec = PatternSpec::xtxy();

    let shared_plan = try_plan_sparse(gpu.spec(), M, n, x.mean_nnz_per_row()).unwrap();
    assert!(shared_plan.use_shared_w);
    let mut global_plan = shared_plan;
    global_plan.use_shared_w = false;
    global_plan.shared_bytes = (global_plan.bs / global_plan.vs) * 8;

    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let mut a = FusedExecutor::new(&gpu);
        a.try_pattern_sparse_with_plan(&shared_plan, spec, &xd, None, &y, None, &w)
            .unwrap();
        let mut b = FusedExecutor::new(&gpu);
        b.try_pattern_sparse_with_plan(&global_plan, spec, &xd, None, &y, None, &w)
            .unwrap();
        println!(
            "[ablation] aggregation, simulated: shared {:.4} ms vs global {:.4} ms",
            a.total_sim_ms(),
            b.total_sim_ms()
        );
    });

    let mut g = c.benchmark_group("ablation_aggregation");
    g.sample_size(10);
    g.bench_function("hierarchical_shared", |b| {
        b.iter(|| {
            let mut ex = FusedExecutor::new(&gpu);
            ex.try_pattern_sparse_with_plan(&shared_plan, spec, &xd, None, &y, None, &w)
                .unwrap();
            black_box(ex.total_sim_ms())
        })
    });
    g.bench_function("all_global_atomics", |b| {
        b.iter(|| {
            let mut ex = FusedExecutor::new(&gpu);
            ex.try_pattern_sparse_with_plan(&global_plan, spec, &xd, None, &y, None, &w)
                .unwrap();
            black_box(ex.total_sim_ms())
        })
    });
    g.finish();
}

/// Tuned coarsening vs C = 1 (grid explodes, per-block flush repeats).
fn ablation_coarsening(c: &mut Criterion) {
    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let n = 512;
    let x = uniform_sparse(M, n, 0.01, 3);
    let xd = GpuCsr::try_upload(&gpu, "x", &x).unwrap();
    let y = gpu.try_upload_f64("y", &random_vector(n, 4)).unwrap();
    let w = gpu.try_alloc_f64("w", n).unwrap();
    let spec = PatternSpec::xtxy();

    let tuned = try_plan_sparse(gpu.spec(), M, n, x.mean_nnz_per_row()).unwrap();
    let uncoarsened = manual_sparse_plan(gpu.spec(), M, n, tuned.vs, tuned.bs, 1).expect("valid");

    let mut g = c.benchmark_group("ablation_coarsening");
    g.sample_size(10);
    g.bench_function("tuned_c", |b| {
        b.iter(|| {
            let mut ex = FusedExecutor::new(&gpu);
            ex.try_pattern_sparse_with_plan(&tuned, spec, &xd, None, &y, None, &w)
                .unwrap();
            black_box(ex.total_sim_ms())
        })
    });
    g.bench_function("c_equals_1", |b| {
        b.iter(|| {
            let mut ex = FusedExecutor::new(&gpu);
            ex.try_pattern_sparse_with_plan(&uncoarsened, spec, &xd, None, &y, None, &w)
                .unwrap();
            black_box(ex.total_sim_ms())
        })
    });
    g.finish();
}

/// Tuned thread load (unrolled registers, ILP) vs TL = 1.
fn ablation_thread_load(c: &mut Criterion) {
    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let n = 512;
    let x = dense_random(M / 2, n, 5);
    let xd = fusedml_blas::GpuDense::try_upload(&gpu, "x", &x).unwrap();
    let y = gpu.try_upload_f64("y", &random_vector(n, 6)).unwrap();
    let w = gpu.try_alloc_f64("w", n).unwrap();
    let spec = PatternSpec::xtxy();

    let tuned = try_plan_dense(gpu.spec(), M / 2, n).unwrap();
    // TL = 1 on a 512-column row forces a block-wide (512-thread) vector:
    // no register blocking, no ILP, two barriers per row.
    let mut tl1 = tuned;
    tl1.tl = 1;
    tl1.bs = n;
    tl1.vs = n;
    tl1.regs = fusedml_core::tuner::dense_kernel_regs(1);
    tl1.grid = gpu.spec().num_sms * 4;
    tl1.c = (M / 2).div_ceil(tl1.grid).max(1);
    assert!(tl1.vs * tl1.tl >= n);

    let mut g = c.benchmark_group("ablation_thread_load");
    g.sample_size(10);
    g.bench_function("tuned_tl", |b| {
        b.iter(|| {
            let mut ex = FusedExecutor::new(&gpu);
            ex.try_pattern_dense_with_plan(&tuned, spec, &xd, None, &y, None, &w)
                .unwrap();
            black_box(ex.total_sim_ms())
        })
    });
    g.bench_function("tl_equals_1", |b| {
        b.iter(|| {
            let mut ex = FusedExecutor::new(&gpu);
            ex.try_pattern_dense_with_plan(&tl1, spec, &xd, None, &y, None, &w)
                .unwrap();
            black_box(ex.total_sim_ms())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    ablation_aggregation,
    ablation_coarsening,
    ablation_thread_load
);
criterion_main!(benches);
