//! L2-SVM trained in the primal by Newton's method (Chapelle, the paper's
//! SVM citation) — the Hessian-vector products run the generic pattern
//! with the support-vector indicator as `v`.
//!
//! ```text
//! cargo run --release --example svm
//! ```

use fusedml::prelude::*;
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_matrix::reference;
use fusedml_ml::{try_svm, SvmOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (m, n) = (30_000, 300);
    let x = uniform_sparse(m, n, 0.04, 33);
    let w_true = random_vector(n, 34);
    // Separable labels with a margin: drop points too close to the plane.
    let scores = reference::csr_mv(&x, &w_true);
    let labels: Vec<f64> = scores
        .iter()
        .map(|&s| if s >= 0.0 { 1.0 } else { -1.0 })
        .collect();
    println!("data: {m} x {n} sparse, {} nnz", x.nnz());

    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let mut fused = FusedBackend::try_new_sparse(&gpu, &x)?;
    let result = try_svm(&mut fused, &labels, SvmOptions::default())?;
    let stats = fused.stats();

    let predictions = reference::csr_mv(&x, &result.weights);
    let correct = predictions
        .iter()
        .zip(&labels)
        .filter(|(p, l)| (p.signum() - **l).abs() < 0.5)
        .count();
    println!(
        "converged in {} Newton steps / {} CG steps; {} support vectors of {m} points",
        result.iterations, result.cg_iterations, result.support_vectors
    );
    println!(
        "training accuracy {:.2}% | objective {:.4}",
        100.0 * correct as f64 / m as f64,
        result.objective
    );
    println!(
        "simulated GPU time {:.2} ms across {} launches; pattern evaluations: {:?}",
        stats.sim_ms, stats.launches, stats.pattern_counts
    );
    assert!(correct as f64 / m as f64 > 0.95);
    Ok(())
}
