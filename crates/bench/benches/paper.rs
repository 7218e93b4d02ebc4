//! Criterion benchmarks, one group per table/figure of the paper.
//!
//! These measure the **host wall-time of the functional simulation**, which
//! is proportional to the data-movement work each engine performs — a
//! second, independent check of the relative shapes. The authoritative
//! reproduction numbers (simulated device milliseconds from the event
//! counters) come from `cargo run --release -p fusedml-bench --bin repro`.
//!
//! Workload sizes are deliberately small so `cargo bench` completes in
//! minutes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fusedml_blas::{try_csr2csc_device, BaselineEngine, Flavor, GpuCsr, GpuDense};
use fusedml_core::executor::FusedExecutor;
use fusedml_core::tuner::manual_sparse_plan;
use fusedml_core::{try_plan_sparse, PatternSpec};
use fusedml_gpu_sim::{DeviceSpec, Gpu};
use fusedml_matrix::gen::{dense_random, kdd2010_spec, random_vector, uniform_sparse};
use fusedml_ml::{try_lr_cg, BaselineBackend, FusedBackend, LrCgOptions};
use std::hint::black_box;

const SPARSE_ROWS: usize = 20_000;
const DENSE_ROWS: usize = 10_000;

/// Fig. 2: fused X^T y vs the transpose+SpMV path, across column counts.
fn fig2_xty_sparse(c: &mut Criterion) {
    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let mut g = c.benchmark_group("fig2_xty_sparse");
    g.sample_size(10);
    for n in [256usize, 1024] {
        let x = uniform_sparse(SPARSE_ROWS, n, 0.01, 1);
        let xd = GpuCsr::try_upload(&gpu, "x", &x).unwrap();
        let y = gpu
            .try_upload_f64("y", &random_vector(SPARSE_ROWS, 2))
            .unwrap();
        let w = gpu.try_alloc_f64("w", n).unwrap();
        g.bench_with_input(BenchmarkId::new("fused", n), &n, |b, _| {
            b.iter(|| {
                let mut ex = FusedExecutor::new(&gpu);
                ex.try_xt_y_sparse(1.0, &xd, &y, &w).unwrap();
                black_box(ex.total_sim_ms())
            })
        });
        g.bench_with_input(BenchmarkId::new("cusparse_transpose", n), &n, |b, _| {
            b.iter(|| {
                let (xt, launches) = try_csr2csc_device(&gpu, &xd).unwrap();
                gpu.free(&xt.row_off);
                gpu.free(&xt.col_idx);
                gpu.free(&xt.values);
                black_box(launches.len())
            })
        });
    }
    g.finish();
}

/// Figs. 3/4: the sparse pattern across engines.
fn fig3_fig4_sparse_pattern(c: &mut Criterion) {
    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let n = 512;
    let x = uniform_sparse(SPARSE_ROWS, n, 0.01, 3);
    let xd = GpuCsr::try_upload(&gpu, "x", &x).unwrap();
    let y = gpu.try_upload_f64("y", &random_vector(n, 4)).unwrap();
    let v = gpu
        .try_upload_f64("v", &random_vector(SPARSE_ROWS, 5))
        .unwrap();
    let z = gpu.try_upload_f64("z", &random_vector(n, 6)).unwrap();
    let w = gpu.try_alloc_f64("w", n).unwrap();
    let p = gpu.try_alloc_f64("p", SPARSE_ROWS).unwrap();
    let spec = PatternSpec::full(1.5, -0.5);

    let mut g = c.benchmark_group("fig3_fig4_sparse_pattern");
    g.sample_size(10);
    g.bench_function("fused", |b| {
        b.iter(|| {
            let mut ex = FusedExecutor::new(&gpu);
            ex.try_pattern_sparse(spec, &xd, Some(&v), &y, Some(&z), &w)
                .unwrap();
            black_box(ex.total_sim_ms())
        })
    });
    g.bench_function("cusparse", |b| {
        b.iter(|| {
            let mut e = BaselineEngine::try_new(&gpu, Flavor::CuLibs).unwrap();
            e.try_pattern_sparse(1.5, &xd, Some(&v), &y, -0.5, Some(&z), &w, &p)
                .unwrap();
            black_box(e.total_sim_ms())
        })
    });
    g.bench_function("bidmat_gpu", |b| {
        b.iter(|| {
            let mut e = BaselineEngine::try_new(&gpu, Flavor::BidmatGpu).unwrap();
            e.try_pattern_sparse(1.5, &xd, Some(&v), &y, -0.5, Some(&z), &w, &p)
                .unwrap();
            black_box(e.total_sim_ms())
        })
    });
    g.finish();
}

/// Fig. 5: the dense pattern across engines.
fn fig5_dense_pattern(c: &mut Criterion) {
    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let n = 256;
    let x = dense_random(DENSE_ROWS, n, 7);
    let xd = GpuDense::try_upload(&gpu, "x", &x).unwrap();
    let y = gpu.try_upload_f64("y", &random_vector(n, 8)).unwrap();
    let w = gpu.try_alloc_f64("w", n).unwrap();
    let p = gpu.try_alloc_f64("p", DENSE_ROWS).unwrap();

    let mut g = c.benchmark_group("fig5_dense_pattern");
    g.sample_size(10);
    g.bench_function("fused", |b| {
        b.iter(|| {
            let mut ex = FusedExecutor::new(&gpu);
            ex.try_pattern_dense(PatternSpec::xtxy(), &xd, None, &y, None, &w)
                .unwrap();
            black_box(ex.total_sim_ms())
        })
    });
    g.bench_function("cublas", |b| {
        b.iter(|| {
            let mut e = BaselineEngine::try_new(&gpu, Flavor::CuLibs).unwrap();
            e.try_pattern_dense(1.0, &xd, None, &y, 0.0, None, &w, &p)
                .unwrap();
            black_box(e.total_sim_ms())
        })
    });
    g.bench_function("bidmat_gpu", |b| {
        b.iter(|| {
            let mut e = BaselineEngine::try_new(&gpu, Flavor::BidmatGpu).unwrap();
            e.try_pattern_dense(1.0, &xd, None, &y, 0.0, None, &w, &p)
                .unwrap();
            black_box(e.total_sim_ms())
        })
    });
    g.finish();
}

/// Fig. 6: the analytical tuner itself (planning must be cheap — the
/// paper stresses "minimal overhead") plus one good and one bad manual
/// configuration executed.
fn fig6_tuning(c: &mut Criterion) {
    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let (m, n) = (SPARSE_ROWS, 1000);
    let x = uniform_sparse(m, n, 0.01, 9);
    let xd = GpuCsr::try_upload(&gpu, "x", &x).unwrap();
    let y = gpu.try_upload_f64("y", &random_vector(n, 10)).unwrap();
    let w = gpu.try_alloc_f64("w", n).unwrap();
    let spec = PatternSpec::xtxy();

    let mut g = c.benchmark_group("fig6_tuning");
    g.sample_size(10);
    g.bench_function("plan_sparse_model", |b| {
        b.iter(|| black_box(try_plan_sparse(gpu.spec(), m, n, x.mean_nnz_per_row()).unwrap()))
    });
    let model = try_plan_sparse(gpu.spec(), m, n, x.mean_nnz_per_row()).unwrap();
    let bad = manual_sparse_plan(gpu.spec(), m, n, model.vs, 32, 1).expect("valid");
    g.bench_function("execute_model_plan", |b| {
        b.iter(|| {
            let mut ex = FusedExecutor::new(&gpu);
            ex.try_pattern_sparse_with_plan(&model, spec, &xd, None, &y, None, &w)
                .unwrap();
            black_box(ex.total_sim_ms())
        })
    });
    g.bench_function("execute_worst_class_plan", |b| {
        b.iter(|| {
            let mut ex = FusedExecutor::new(&gpu);
            ex.try_pattern_sparse_with_plan(&bad, spec, &xd, None, &y, None, &w)
                .unwrap();
            black_box(ex.total_sim_ms())
        })
    });
    g.finish();
}

/// Table 4: the ultra-sparse (global-aggregation) regime.
fn table4_kdd_regime(c: &mut Criterion) {
    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let x = kdd2010_spec(0.03).build_sparse(11);
    let xd = GpuCsr::try_upload(&gpu, "kdd", &x).unwrap();
    let y = gpu
        .try_upload_f64("y", &random_vector(x.cols(), 12))
        .unwrap();
    let w = gpu.try_alloc_f64("w", x.cols()).unwrap();
    let p = gpu.try_alloc_f64("p", x.rows()).unwrap();

    let mut g = c.benchmark_group("table4_kdd_regime");
    g.sample_size(10);
    g.bench_function("fused_global_variant", |b| {
        b.iter(|| {
            let mut ex = FusedExecutor::new(&gpu);
            ex.try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &y, None, &w)
                .unwrap();
            black_box(ex.total_sim_ms())
        })
    });
    g.bench_function("cusparse", |b| {
        b.iter(|| {
            let mut e = BaselineEngine::try_new(&gpu, Flavor::CuLibs).unwrap();
            e.try_pattern_sparse(1.0, &xd, None, &y, 0.0, None, &w, &p)
                .unwrap();
            black_box(e.total_sim_ms())
        })
    });
    g.finish();
}

/// Tables 5/6: one LR-CG iteration loop, fused vs baseline pipelines.
fn table5_table6_end_to_end(c: &mut Criterion) {
    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let n = 128;
    let x = uniform_sparse(SPARSE_ROWS, n, 0.02, 13);
    let labels = random_vector(SPARSE_ROWS, 14);
    let opts = LrCgOptions {
        max_iterations: 5,
        tolerance: 0.0,
        ..Default::default()
    };

    let mut g = c.benchmark_group("table5_table6_lrcg");
    g.sample_size(10);
    g.bench_function("fused_backend", |b| {
        b.iter(|| {
            let mut be = FusedBackend::try_new_sparse(&gpu, &x).unwrap();
            black_box(try_lr_cg(&mut be, &labels, opts).unwrap().iterations)
        })
    });
    g.bench_function("baseline_backend", |b| {
        b.iter(|| {
            let mut be = BaselineBackend::try_new_sparse(&gpu, &x).unwrap();
            black_box(try_lr_cg(&mut be, &labels, opts).unwrap().iterations)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    fig2_xty_sparse,
    fig3_fig4_sparse_pattern,
    fig5_dense_pattern,
    fig6_tuning,
    table4_kdd_regime,
    table5_table6_end_to_end
);
criterion_main!(benches);
