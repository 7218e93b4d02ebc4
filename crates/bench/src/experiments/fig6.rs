//! Figure 6 — the launch-parameter space: sweep `BS x C` (with `VS` fixed
//! at the Equation-4 choice) for `X^T(Xy)` on the 500k x 1k sparse matrix,
//! and place the analytical model's pick inside the distribution. The paper
//! finds the model within 2% of the optimum and inside the best 1% of all
//! configurations.

use crate::experiments::{Ctx, ExperimentResult};
use crate::table::{fmt_ms, Table};
use fusedml_blas::GpuCsr;
use fusedml_core::executor::FusedExecutor;
use fusedml_core::tuner::manual_sparse_plan;
use fusedml_core::{try_plan_sparse, PatternSpec};
use fusedml_gpu_sim::DeviceError;
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use serde::Serialize;

/// One evaluated configuration.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    pub bs: usize,
    pub c: usize,
    pub grid: usize,
    pub occupancy: f64,
    pub sim_ms: f64,
    pub is_model_choice: bool,
}

/// Run the sweep; returns all points sorted fastest-first plus the model's
/// own timing.
pub fn sweep(ctx: &Ctx, m: usize, n: usize) -> Result<(Vec<SweepPoint>, SweepPoint), DeviceError> {
    let x = uniform_sparse(m, n, 0.01, ctx.seed);
    let xd = GpuCsr::try_upload(&ctx.gpu, "x", &x)?;
    let y = ctx
        .gpu
        .try_upload_f64("y", &random_vector(n, ctx.seed + 1))?;
    let w = ctx.gpu.try_alloc_f64("w", n)?;
    let spec_pattern = PatternSpec::xtxy();

    let model_plan = try_plan_sparse(ctx.gpu.spec(), m, n, x.mean_nnz_per_row())?;
    let vs = model_plan.vs;

    // C candidates around the model's choice (paper: "set to possible
    // numbers around what our model selects"), log-spaced.
    let c_model = model_plan.c;
    let c_candidates: Vec<usize> = [
        c_model / 16,
        c_model / 8,
        c_model / 4,
        c_model / 2,
        (c_model * 3) / 4,
        c_model,
        (c_model * 3) / 2,
        c_model * 2,
        c_model * 4,
        c_model * 8,
        c_model * 16,
        c_model * 64,
    ]
    .iter()
    .map(|&c| c.max(1))
    .collect();

    let mut points = Vec::new();
    for bs_mult in 1..=32 {
        let bs = 32 * bs_mult;
        for &c in &c_candidates {
            let Some(plan) = manual_sparse_plan(ctx.gpu.spec(), m, n, vs, bs, c) else {
                continue;
            };
            ctx.gpu.flush_caches();
            let mut ex = FusedExecutor::new(&ctx.gpu);
            ex.try_pattern_sparse_with_plan(&plan, spec_pattern, &xd, None, &y, None, &w)?;
            points.push(SweepPoint {
                bs,
                c,
                grid: plan.grid,
                occupancy: plan.occupancy.occupancy,
                sim_ms: ex.total_sim_ms(),
                is_model_choice: false,
            });
        }
    }

    ctx.gpu.flush_caches();
    let mut ex = FusedExecutor::new(&ctx.gpu);
    ex.try_pattern_sparse_with_plan(&model_plan, spec_pattern, &xd, None, &y, None, &w)?;
    let model_point = SweepPoint {
        bs: model_plan.bs,
        c: model_plan.c,
        grid: model_plan.grid,
        occupancy: model_plan.occupancy.occupancy,
        sim_ms: ex.total_sim_ms(),
        is_model_choice: true,
    };

    points.sort_by(|a, b| a.sim_ms.total_cmp(&b.sim_ms));
    Ok((points, model_point))
}

pub fn run(ctx: &Ctx) -> ExperimentResult {
    let m = ctx.sweep_rows();
    let n = 1000;
    let (points, model) = sweep(ctx, m, n)?;
    let (Some(best), Some(worst)) = (points.first(), points.last()) else {
        return Err(
            format!("no launch configuration of the {m} x {n} sweep fits the device").into(),
        );
    };
    let rank = points.iter().filter(|p| p.sim_ms < model.sim_ms).count();
    let percentile = 100.0 * rank as f64 / points.len() as f64;

    let mut t = Table::new(
        "fig6",
        "launch-parameter sweep (VS fixed by Eq. 4) vs the analytical model's choice",
        &["config", "BS", "C", "grid", "occupancy", "sim_ms"],
    );
    t.note(format!(
        "{} configurations swept on a {m} x {n} sparse matrix (sparsity 0.01)",
        points.len()
    ));
    for (label, p) in [
        ("best", best),
        ("model", &model),
        ("median", &points[points.len() / 2]),
        ("worst", worst),
    ] {
        t.row(vec![
            label.to_string(),
            p.bs.to_string(),
            p.c.to_string(),
            p.grid.to_string(),
            format!("{:.2}", p.occupancy),
            fmt_ms(p.sim_ms),
        ]);
    }
    t.note(format!(
        "model is {:.1}% slower than the sweep optimum and ranks in the best {:.1}% \
         of configurations (paper: <2% off optimum, best 1%)",
        100.0 * (model.sim_ms / best.sim_ms - 1.0),
        percentile.max(100.0 / points.len() as f64)
    ));
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_choice_is_near_optimal() {
        let ctx = Ctx::new(0.02);
        let (points, model) = sweep(&ctx, 10_000, 512).unwrap();
        assert!(points.len() > 100, "sweep too small: {}", points.len());
        let best = points[0].sim_ms;
        let worst = points.last().unwrap().sim_ms;
        assert!(worst > 1.5 * best, "sweep has no spread: {best}..{worst}");
        // Model within 25% of optimum and in the top quartile at this
        // reduced scale (paper achieves 2% / top 1% at full scale).
        assert!(
            model.sim_ms < 1.25 * best,
            "model {} vs best {best}",
            model.sim_ms
        );
        let rank = points.iter().filter(|p| p.sim_ms < model.sim_ms).count();
        assert!(
            (rank as f64) < 0.25 * points.len() as f64,
            "model rank {rank}/{}",
            points.len()
        );
    }
}
