//! Run the paper's Listing 1 — a DML script — through the mini-DML
//! frontend on all three engines. The fused engine lowers each
//! expression's matrix-vector work to an operator DAG, and the fusion
//! compiler "transparently selects" the fused kernel (§4.4).
//!
//! ```text
//! cargo run --release --example dml_script
//! ```

use fusedml::prelude::*;
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_matrix::reference;
use fusedml_script::{EngineMode, Interpreter, Value, LISTING_1};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("--- the script (paper Listing 1) ---\n{LISTING_1}");

    let (m, n) = (30_000, 500);
    let x = uniform_sparse(m, n, 0.02, 21);
    let w_true = random_vector(n, 22);
    let labels = reference::csr_mv(&x, &w_true);
    println!("data: {m} x {n} sparse, {} nnz\n", x.nnz());

    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let mut results = Vec::new();

    for (name, mode) in [
        ("fused GPU   ", Some(EngineMode::FusedGpu)),
        ("baseline GPU", Some(EngineMode::BaselineGpu)),
        ("host only   ", None),
    ] {
        gpu.flush_caches();
        let mut interp = match mode {
            Some(mode) => Interpreter::on_gpu(&gpu, mode),
            None => Interpreter::host_only(),
        };
        interp.bind_sparse("V", x.clone());
        interp.bind_vector("y", labels.clone());
        interp.run(LISTING_1)?;
        let Some(Value::Vector(w)) = interp.outputs().get("w") else {
            return Err("the script wrote no weight vector".into());
        };
        results.push((name, (**w).clone(), interp.stats.clone()));
    }

    println!("engine        sim_ms   launches  fused_evals  matmul_evals  weight_err");
    for (name, w, stats) in &results {
        let err = reference::rel_l2_error(w, &w_true);
        println!(
            "{name}  {:>8.3}  {:>8}  {:>11}  {:>12}  {err:.2e}",
            stats.sim_ms, stats.launches, stats.fused_evals, stats.matmul_evals
        );
    }

    let fused_ms = results[0].2.sim_ms;
    let base_ms = results[1].2.sim_ms;
    println!(
        "\n==> transparent fusion speedup inside the script runtime: {:.1}x",
        base_ms / fused_ms
    );
    assert!(fused_ms < base_ms);
    Ok(())
}
