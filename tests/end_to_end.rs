//! Cross-crate end-to-end tests: the five ML algorithms agree across all
//! three backends, and the runtime sessions preserve the paper's headline
//! relationships.

use fusedml::prelude::*;
use fusedml_matrix::gen::{random_labels, random_vector, uniform_sparse};
use fusedml_matrix::reference;
use fusedml_ml::{
    try_glm, try_hits, try_logreg, try_lr_cg, try_svm, Backend, Family, GlmOptions, HitsOptions,
    LogRegOptions, LrCgOptions, SvmOptions,
};
use fusedml_runtime::session::{run_device, DataSet, EngineKind, SessionConfig};

fn gpu() -> Gpu {
    Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
}

#[test]
fn all_five_algorithms_agree_across_backends() {
    let g = gpu();
    let (m, n) = (250, 40);
    let x = uniform_sparse(m, n, 0.15, 1);
    let w_true = random_vector(n, 2);
    let regression = reference::csr_mv(&x, &w_true);
    let labels = random_labels(m, 3);
    let counts: Vec<f64> = regression
        .iter()
        .map(|e| e.clamp(-2.0, 2.0).exp())
        .collect();

    macro_rules! compare {
        ($name:literal, $run:expr) => {{
            let mut cpu = CpuBackend::new_sparse(x.clone());
            let mut fused = FusedBackend::try_new_sparse(&g, &x).unwrap();
            let mut base = BaselineBackend::try_new_sparse(&g, &x).unwrap();
            let wc: Vec<f64> = $run(&mut cpu);
            let wf: Vec<f64> = $run(&mut fused);
            let wb: Vec<f64> = $run(&mut base);
            assert!(
                reference::rel_l2_error(&wf, &wc) < 1e-7,
                "{}: fused vs cpu {}",
                $name,
                reference::rel_l2_error(&wf, &wc)
            );
            assert!(
                reference::rel_l2_error(&wb, &wc) < 1e-7,
                "{}: baseline vs cpu {}",
                $name,
                reference::rel_l2_error(&wb, &wc)
            );
            // And the fused run launches fewer kernels than the baseline.
            assert!(fused.stats().launches < base.stats().launches, $name);
        }};
    }

    compare!("lr_cg", |b: &mut _| try_lr_cg(
        b,
        &regression,
        LrCgOptions {
            max_iterations: 8,
            ..Default::default()
        }
    )
    .unwrap()
    .weights);
    compare!("logreg", |b: &mut _| try_logreg(
        b,
        &labels,
        LogRegOptions {
            max_outer: 3,
            ..Default::default()
        }
    )
    .unwrap()
    .weights);
    compare!("svm", |b: &mut _| try_svm(
        b,
        &labels,
        SvmOptions {
            max_outer: 3,
            ..Default::default()
        }
    )
    .unwrap()
    .weights);
    compare!("glm", |b: &mut _| try_glm(
        b,
        &counts,
        GlmOptions {
            family: Family::Poisson,
            max_outer: 2,
            ..Default::default()
        }
    )
    .unwrap()
    .weights);
    compare!("hits", |b: &mut _| try_hits(
        b,
        HitsOptions {
            max_iterations: 5,
            ..Default::default()
        }
    )
    .unwrap()
    .authorities);
}

#[test]
fn fused_backend_is_faster_on_every_algorithm() {
    let g = gpu();
    let (m, n) = (2000, 300);
    let x = uniform_sparse(m, n, 0.03, 7);
    let labels = random_labels(m, 8);

    let mut fused = FusedBackend::try_new_sparse(&g, &x).unwrap();
    let mut base = BaselineBackend::try_new_sparse(&g, &x).unwrap();
    let opts = LogRegOptions {
        max_outer: 2,
        ..Default::default()
    };
    try_logreg(&mut fused, &labels, opts).unwrap();
    try_logreg(&mut base, &labels, opts).unwrap();
    let f = fused.stats();
    let b = base.stats();
    assert!(
        f.sim_ms < b.sim_ms,
        "fused {} ms vs baseline {} ms",
        f.sim_ms,
        b.sim_ms
    );
}

#[test]
fn runtime_session_cost_ordering() {
    let g = gpu();
    let x = uniform_sparse(3000, 400, 0.02, 11);
    let labels = random_vector(3000, 12);
    let data = DataSet::Sparse(x);

    // Native fused < native baseline.
    let nf = run_device(
        &g,
        &data,
        &labels,
        &SessionConfig::native(EngineKind::Fused, 8),
    )
    .unwrap();
    g.flush_caches();
    let nb = run_device(
        &g,
        &data,
        &labels,
        &SessionConfig::native(EngineKind::Baseline, 8),
    )
    .unwrap();
    assert!(nf.total_ms < nb.total_ms);

    // SystemML regime strictly costs more than native for the same engine.
    g.flush_caches();
    let sf = run_device(
        &g,
        &data,
        &labels,
        &SessionConfig::systemml(EngineKind::Fused, 8),
    )
    .unwrap();
    assert!(sf.total_ms > nf.total_ms);
    assert!(sf.dispatch_ms > 0.0 && sf.transfer_ms > nf.transfer_ms);
}

#[test]
fn pattern_instrumentation_is_consistent_across_backends() {
    let g = gpu();
    let x = uniform_sparse(300, 50, 0.1, 13);
    let labels = reference::csr_mv(&x, &random_vector(50, 14));
    let opts = LrCgOptions {
        max_iterations: 5,
        tolerance: 0.0,
        ..Default::default()
    };

    let mut fused = FusedBackend::try_new_sparse(&g, &x).unwrap();
    try_lr_cg(&mut fused, &labels, opts).unwrap();
    let mut cpu = CpuBackend::new_sparse(x);
    try_lr_cg(&mut cpu, &labels, opts).unwrap();

    // Identical algorithm -> identical pattern invocation counts.
    assert_eq!(fused.stats().pattern_counts, cpu.stats().pattern_counts);
}
