//! End-to-end linear regression via conjugate gradient (the paper's
//! Listing 1) on a HIGGS-shaped dense data set, comparing the fused and
//! baseline pipelines and checking that both recover the planted weights.
//!
//! ```text
//! cargo run --release --example linear_regression
//! ```

use fusedml::prelude::*;
use fusedml_matrix::gen::{dense_random, random_vector};
use fusedml_matrix::reference;
use fusedml_ml::{try_lr_cg, LrCgOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // HIGGS-shaped: tall and 28 columns (scaled rows for a quick demo).
    let (m, n) = (100_000, 28);
    let x = dense_random(m, n, 7);
    let w_true = random_vector(n, 8);
    let labels = reference::dense_mv(&x, &w_true);
    println!("data: {m} x {n} dense; labels = X * w_true (noiseless)");

    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let opts = LrCgOptions {
        eps: 0.0,
        tolerance: 1e-8,
        max_iterations: 50,
    };

    let mut fused = FusedBackend::try_new_dense(&gpu, &x)?;
    let r_fused = try_lr_cg(&mut fused, &labels, opts)?;
    let fused_stats = fused.stats();

    gpu.flush_caches();
    let mut baseline = BaselineBackend::try_new_dense(&gpu, &x)?;
    let r_base = try_lr_cg(&mut baseline, &labels, opts)?;
    let base_stats = baseline.stats();

    let err_fused = reference::rel_l2_error(&r_fused.weights, &w_true);
    let err_base = reference::rel_l2_error(&r_base.weights, &w_true);
    println!(
        "fused:    {} iterations, weight rel-err {err_fused:.2e}, {:.2} ms simulated, {} launches",
        r_fused.iterations, fused_stats.sim_ms, fused_stats.launches
    );
    println!(
        "baseline: {} iterations, weight rel-err {err_base:.2e}, {:.2} ms simulated, {} launches",
        r_base.iterations, base_stats.sim_ms, base_stats.launches
    );
    assert!(err_fused < 1e-4 && err_base < 1e-4, "CG failed to converge");

    println!(
        "==> end-to-end kernel speedup: {:.2}x (pattern evaluations: {:?})",
        base_stats.sim_ms / fused_stats.sim_ms,
        fused_stats.pattern_counts
    );
    Ok(())
}
