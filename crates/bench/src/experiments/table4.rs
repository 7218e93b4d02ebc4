//! Table 4 — the KDD 2010 regime: ultra-sparse input whose 30M-column
//! output forces the fused kernel's global-memory aggregation variant.
//! Execution time (ms) of the proposed kernels against the
//! cuBLAS/cuSPARSE composition for the three pattern instantiations.

use crate::experiments::{Ctx, ExperimentResult};
use crate::table::{fmt_ms, fmt_x, Table};
use fusedml_blas::{BaselineEngine, Flavor, GpuCsr};
use fusedml_core::executor::FusedExecutor;
use fusedml_core::PatternSpec;
use fusedml_matrix::gen::{kdd2010_spec, random_vector};

pub fn run(ctx: &Ctx) -> ExperimentResult {
    let spec = kdd2010_spec(ctx.scale);
    let x = spec.build_sparse(ctx.seed);
    let (m, n) = (x.rows(), x.cols());
    let xd = GpuCsr::try_upload(&ctx.gpu, "kdd", &x)?;

    let mut t = Table::new(
        "table4",
        "KDD2010-like ultra-sparse: execution time, proposed vs cuBLAS/cuSPARSE",
        &["pattern", "proposed_ms", "culibs_ms", "speedup"],
    );
    t.note(format!(
        "{m} x {n}, {} nnz — the real set is ~40x larger in every dimension \
         (scale {} of the 1/40 stand-in; see DESIGN.md)",
        x.nnz(),
        ctx.scale
    ));
    t.note("paper (full scale): 50.5 vs 5552.1 | 78.3 vs 5683.1 | 85.2 vs 5704.1 ms");

    // Row 1: X^T y.
    {
        let y = ctx
            .gpu
            .try_upload_f64("y", &random_vector(m, ctx.seed + 1))?;
        let w = ctx.gpu.try_alloc_f64("w", n)?;
        ctx.gpu.flush_caches();
        let mut ex = FusedExecutor::new(&ctx.gpu);
        ex.try_xt_y_sparse(1.0, &xd, &y, &w)?;
        let fused = ex.total_sim_ms();
        ctx.gpu.flush_caches();
        let mut cu = BaselineEngine::try_new(&ctx.gpu, Flavor::CuLibs)?;
        cu.try_csrmv_t(&xd, &y, &w)?;
        let base = cu.total_sim_ms();
        t.row(vec![
            "X^T x y".into(),
            fmt_ms(fused),
            fmt_ms(base),
            fmt_x(base / fused),
        ]);
    }

    // Rows 2-3: X^T(Xy) and the full pattern.
    for (label, pattern) in [
        ("X^T x (X x y)", PatternSpec::xtxy()),
        ("full pattern", PatternSpec::full(1.5, -0.5)),
    ] {
        let y = ctx
            .gpu
            .try_upload_f64("y", &random_vector(n, ctx.seed + 2))?;
        let v = pattern
            .with_v
            .then(|| ctx.gpu.try_upload_f64("v", &random_vector(m, ctx.seed + 3)))
            .transpose()?;
        let z = pattern
            .with_z
            .then(|| ctx.gpu.try_upload_f64("z", &random_vector(n, ctx.seed + 4)))
            .transpose()?;
        let w = ctx.gpu.try_alloc_f64("w", n)?;
        let p = ctx.gpu.try_alloc_f64("p", m)?;

        ctx.gpu.flush_caches();
        let mut ex = FusedExecutor::new(&ctx.gpu);
        ex.try_pattern_sparse(pattern, &xd, v.as_ref(), &y, z.as_ref(), &w)?;
        let fused = ex.total_sim_ms();
        // The plan must have chosen the global-aggregation variant.
        assert!(
            !ex.try_sparse_plan(&xd)?.use_shared_w,
            "KDD-like n={n} should exceed the shared-memory limit"
        );

        ctx.gpu.flush_caches();
        let mut cu = BaselineEngine::try_new(&ctx.gpu, Flavor::CuLibs)?;
        cu.try_pattern_sparse(
            pattern.alpha,
            &xd,
            v.as_ref(),
            &y,
            pattern.beta,
            z.as_ref(),
            &w,
            &p,
        )?;
        let base = cu.total_sim_ms();
        t.row(vec![
            label.into(),
            fmt_ms(fused),
            fmt_ms(base),
            fmt_x(base / fused),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kdd_regime_fused_wins_every_pattern() {
        let ctx = Ctx::new(0.05);
        let t = run(&ctx).unwrap();
        assert_eq!(t.rows.len(), 3);
        let xty_speedup: f64 = t.rows[0][3].trim_end_matches('x').parse().unwrap();
        // The paper reports 110x here, dominated by closed-source cuSPARSE
        // behaviour it can only speculate about ("may be due to ... the
        // use of semaphores"); our mechanistic model reproduces the
        // direction and a material factor, not the black-box magnitude
        // (see EXPERIMENTS.md).
        assert!(xty_speedup > 1.5, "X^T y speedup only {xty_speedup}");
        let full_speedup: f64 = t.rows[2][3].trim_end_matches('x').parse().unwrap();
        assert!(full_speedup > 1.3, "full-pattern speedup {full_speedup}");
    }
}
