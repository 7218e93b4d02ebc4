//! Explore the launch-parameter space of the sparse fused kernel (the
//! Fig. 6 experiment, §3.3/§4.3): sweep block size and coarsening factor,
//! then compare the analytical model's pick against the empirical optimum.
//! Also prints the CUDA source the dense code generator would emit
//! (Listing 2 of the paper).
//!
//! ```text
//! cargo run --release --example tuning_explorer
//! ```

use fusedml::prelude::*;
use fusedml_core::tuner::manual_sparse_plan;
use fusedml_core::{generate_cuda_source, try_plan_dense, try_plan_sparse};
use fusedml_matrix::gen::{random_vector, uniform_sparse};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (m, n) = (60_000, 1000);
    let x = uniform_sparse(m, n, 0.01, 21);
    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let xd = GpuCsr::try_upload(&gpu, "X", &x)?;
    let y = gpu.try_upload_f64("y", &random_vector(n, 22))?;
    let w = gpu.try_alloc_f64("w", n)?;

    let model = try_plan_sparse(gpu.spec(), m, n, x.mean_nnz_per_row())?;
    println!(
        "analytical model: VS={} BS={} C={} grid={} occupancy={:.2}",
        model.vs, model.bs, model.c, model.grid, model.occupancy.occupancy
    );

    // Sweep BS x C with VS held at the model's Equation-4 choice.
    let spec = PatternSpec::xtxy();
    let mut results: Vec<(usize, usize, f64)> = Vec::new();
    for bs_mult in (2..=32).step_by(2) {
        let bs = 32 * bs_mult;
        for c in [1usize, 4, 16, 64, 256, 1024] {
            let Some(plan) = manual_sparse_plan(gpu.spec(), m, n, model.vs, bs, c) else {
                continue;
            };
            gpu.flush_caches();
            let mut ex = FusedExecutor::new(&gpu);
            ex.try_pattern_sparse_with_plan(&plan, spec, &xd, None, &y, None, &w)?;
            results.push((bs, c, ex.total_sim_ms()));
        }
    }
    results.sort_by(|a, b| a.2.total_cmp(&b.2));
    println!("\nswept {} configurations; five best:", results.len());
    for (bs, c, ms) in results.iter().take(5) {
        println!("  BS={bs:>5} C={c:>5}  {ms:.4} ms");
    }
    let worst = results.last().unwrap();
    println!(
        "  ...worst: BS={} C={}  {:.4} ms",
        worst.0, worst.1, worst.2
    );

    gpu.flush_caches();
    let mut ex = FusedExecutor::new(&gpu);
    ex.try_pattern_sparse_with_plan(&model, spec, &xd, None, &y, None, &w)?;
    let model_ms = ex.total_sim_ms();
    let best_ms = results[0].2;
    println!(
        "\nmodel choice: {model_ms:.4} ms — {:.1}% off the sweep optimum",
        100.0 * (model_ms / best_ms - 1.0).max(0.0)
    );

    // Bonus: the dense kernel's "generated" CUDA for the paper's example.
    let dense = try_plan_dense(gpu.spec(), m, 32)?;
    println!(
        "\ndense plan for n=32: VS={} TL={} BS={}; generated kernel:\n",
        dense.vs, dense.tl, dense.bs
    );
    println!("{}", generate_cuda_source(32, 16, 2));
    Ok(())
}
