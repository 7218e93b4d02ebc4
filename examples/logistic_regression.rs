//! Logistic regression by trust-region Newton-CG on sparse data — the
//! algorithm whose Hessian-vector products are the *full* instantiation of
//! the generic pattern, `X^T (v ⊙ (X s)) + lambda s`.
//!
//! ```text
//! cargo run --release --example logistic_regression
//! ```

use fusedml::prelude::*;
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_matrix::reference;
use fusedml_ml::{try_logreg, LogRegOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (m, n) = (20_000, 200);
    let x = uniform_sparse(m, n, 0.05, 17);
    let w_true = random_vector(n, 18);
    let labels: Vec<f64> = reference::csr_mv(&x, &w_true)
        .iter()
        .map(|&s| if s >= 0.0 { 1.0 } else { -1.0 })
        .collect();
    println!("data: {m} x {n} sparse ({} nnz), separable labels", x.nnz());

    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let mut backend = FusedBackend::try_new_sparse(&gpu, &x)?;
    let result = try_logreg(&mut backend, &labels, LogRegOptions::default())?;
    let stats = backend.stats();

    // Training accuracy.
    let scores = reference::csr_mv(&x, &result.weights);
    let correct = scores
        .iter()
        .zip(&labels)
        .filter(|(s, l)| (s.signum() - **l).abs() < 0.5)
        .count();
    let acc = correct as f64 / m as f64;

    println!(
        "converged in {} Newton steps / {} CG steps; objective {:.3}; accuracy {:.1}%",
        result.iterations,
        result.cg_iterations,
        result.objective,
        100.0 * acc
    );
    println!(
        "simulated GPU time {:.2} ms across {} launches",
        stats.sim_ms, stats.launches
    );
    println!("pattern instantiations used: {:#?}", stats.pattern_counts);
    assert!(acc > 0.95, "logistic regression failed to separate");
    Ok(())
}
