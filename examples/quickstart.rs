//! Quickstart: evaluate the paper's generic pattern
//! `w = alpha * X^T (v ⊙ (X y)) + beta * z` with the fused kernel and with
//! the operator-by-operator baseline, verify they agree with the CPU
//! reference, and report the simulated speedup.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fusedml::prelude::*;
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_matrix::reference;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 50k x 1k sparse matrix at 1% density, like the paper's sweep data.
    let (m, n) = (50_000, 1000);
    let x = uniform_sparse(m, n, 0.01, 42);
    println!("matrix: {m} x {n}, {} non-zeros", x.nnz());

    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let xd = GpuCsr::try_upload(&gpu, "X", &x)?;
    let y = random_vector(n, 1);
    let v = random_vector(m, 2);
    let z = random_vector(n, 3);
    let yd = gpu.try_upload_f64("y", &y)?;
    let vd = gpu.try_upload_f64("v", &v)?;
    let zd = gpu.try_upload_f64("z", &z)?;
    let (alpha, beta) = (2.0, -0.5);
    let spec = PatternSpec::full(alpha, beta);

    // Fused: one kernel, hierarchical aggregation.
    let w_fused = gpu.try_alloc_f64("w_fused", n)?;
    gpu.flush_caches();
    let mut fused = FusedExecutor::new(&gpu);
    fused.try_pattern_sparse(spec, &xd, Some(&vd), &yd, Some(&zd), &w_fused)?;
    let plan = fused.try_sparse_plan(&xd)?;
    println!(
        "fused plan: VS={} BS={} C={} grid={} (occupancy {:.2})",
        plan.vs, plan.bs, plan.c, plan.grid, plan.occupancy.occupancy
    );

    // Baseline: one kernel per operator, cuBLAS/cuSPARSE style.
    let w_base = gpu.try_alloc_f64("w_base", n)?;
    let p_tmp = gpu.try_alloc_f64("p", m)?;
    gpu.flush_caches();
    let mut baseline = BaselineEngine::try_new(&gpu, Flavor::CuLibs)?;
    baseline.try_pattern_sparse(alpha, &xd, Some(&vd), &yd, beta, Some(&zd), &w_base, &p_tmp)?;

    // Both must match the CPU reference.
    let expect = reference::pattern_csr(alpha, &x, Some(&v), &y, beta, Some(&z));
    let err_fused = reference::rel_l2_error(&w_fused.to_vec_f64(), &expect);
    let err_base = reference::rel_l2_error(&w_base.to_vec_f64(), &expect);
    assert!(err_fused < 1e-10, "fused result off by {err_fused}");
    assert!(err_base < 1e-10, "baseline result off by {err_base}");
    println!("numerics: fused rel-err {err_fused:.2e}, baseline rel-err {err_base:.2e}");

    println!(
        "simulated time: fused {:.3} ms in {} launches vs baseline {:.3} ms in {} launches",
        fused.total_sim_ms(),
        fused.launch_count(),
        baseline.total_sim_ms(),
        baseline.launch_count(),
    );
    println!(
        "==> fused kernel speedup: {:.1}x",
        baseline.total_sim_ms() / fused.total_sim_ms()
    );

    println!("\n--- simulated profiler report for the fused kernel ---");
    let fused_kernel = fused.launches.last().expect("launched");
    print!("{}", fusedml_gpu_sim::profile_report(fused_kernel));
    Ok(())
}
