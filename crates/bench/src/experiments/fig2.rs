//! Figure 2 — sparse `X^T x y`:
//! (top) speedup of the fused Algorithm-1 kernel over the cuSPARSE-style
//! path (explicit `csr2csc` + SpMV);
//! (bottom) global load transactions of both, whose ratio explains the
//! speedup (the paper measures cuSPARSE issuing ~3.5x more loads);
//! plus the second axis: iterations needed to amortize one explicit
//! transposition against reusing it for cheap products.

use crate::experiments::{Ctx, ExperimentResult};
use crate::table::{fmt_count, fmt_ms, fmt_x, Table};
use fusedml_blas::{try_csr2csc_device, try_csrmv_t_pretransposed, GpuCsr};
use fusedml_core::executor::FusedExecutor;
use fusedml_gpu_sim::Counters;
use fusedml_matrix::gen::{random_vector, uniform_sparse};

pub fn run(ctx: &Ctx) -> ExperimentResult {
    let m = ctx.sweep_rows();
    let mut t = Table::new(
        "fig2",
        "sparse X^T*y: fused kernel vs cuSPARSE (transpose + SpMV)",
        &[
            "n",
            "fused_ms",
            "cusparse_ms",
            "speedup",
            "fused_loads",
            "cusparse_loads",
            "loads_ratio",
            "amortize_iters",
        ],
    );
    t.note(format!(
        "m = {m} (paper: 500k, scale {}), sparsity 0.01; loads = 32B global sectors",
        ctx.scale
    ));
    t.note("paper: avg ~35x, up to 67x at small n; cuSPARSE ~3.5x more loads");

    for (i, n) in ctx.sparse_sweep_cols().into_iter().enumerate() {
        let x = uniform_sparse(m, n, 0.01, ctx.seed + i as u64);
        let xd = GpuCsr::try_upload(&ctx.gpu, "x", &x)?;
        let y = ctx
            .gpu
            .try_upload_f64("y", &random_vector(m, ctx.seed + 100))?;
        let w = ctx.gpu.try_alloc_f64("w", n)?;

        // Fused Algorithm 1.
        ctx.gpu.flush_caches();
        let mut ex = FusedExecutor::new(&ctx.gpu);
        ex.try_xt_y_sparse(1.0, &xd, &y, &w)?;
        let fused_ms = ex.total_sim_ms();
        let fused_loads: u64 = ex
            .launches
            .iter()
            .map(|l| l.counters.gld_transactions)
            .sum();

        // cuSPARSE path: transpose, then SpMV over X^T.
        ctx.gpu.flush_caches();
        let (xt, transpose_launches) = try_csr2csc_device(&ctx.gpu, &xd)?;
        let transpose_ms: f64 = transpose_launches.iter().map(|l| l.sim_ms()).sum();
        let spmv_stats = try_csrmv_t_pretransposed(&ctx.gpu, &xt, &y, &w)?;
        let spmv_xt_ms = spmv_stats.sim_ms();
        let cusparse_ms = transpose_ms + spmv_xt_ms;
        let mut cu_counters = Counters::new();
        for l in &transpose_launches {
            cu_counters.merge(&l.counters);
        }
        cu_counters.merge(&spmv_stats.counters);
        ctx.gpu.free(&xt.row_off);
        ctx.gpu.free(&xt.col_idx);
        ctx.gpu.free(&xt.values);

        // Amortization: transposing once then running the cheap SpMV
        // repeatedly beats the fused kernel only after this many products.
        let saving_per_product = fused_ms - spmv_xt_ms;
        let amortize = if saving_per_product > 1e-9 {
            format!("{:.0}", transpose_ms / saving_per_product)
        } else {
            "never".to_string()
        };

        t.row(vec![
            n.to_string(),
            fmt_ms(fused_ms),
            fmt_ms(cusparse_ms),
            fmt_x(cusparse_ms / fused_ms),
            fmt_count(fused_loads),
            fmt_count(cu_counters.gld_transactions),
            format!(
                "{:.2}",
                cu_counters.gld_transactions as f64 / fused_loads as f64
            ),
            amortize,
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shape_holds_at_small_scale() {
        let ctx = Ctx::new(0.02); // 10k rows: fast smoke run
        let t = run(&ctx).unwrap();
        assert_eq!(t.rows.len(), 7);
        // Fused wins everywhere and cuSPARSE issues more loads.
        for row in &t.rows {
            let speedup: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(speedup > 1.0, "n={} speedup {}", row[0], speedup);
            let ratio: f64 = row[6].parse().unwrap();
            assert!(ratio > 1.5, "n={} loads ratio {}", row[0], ratio);
        }
        // Average speedup in the paper's class (~35x at full scale; the
        // small-n decay shape only emerges at realistic row counts, so it
        // is asserted by the full-scale run in EXPERIMENTS.md, not here).
        let speedups: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[3].trim_end_matches('x').parse().unwrap())
            .collect();
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        assert!((4.0..150.0).contains(&avg), "average speedup {avg}");
    }
}
