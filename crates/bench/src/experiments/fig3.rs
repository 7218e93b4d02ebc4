//! Figure 3 — sparse `X^T x (X x y)`: fused-kernel speedup against
//! cuSPARSE, BIDMat-GPU and BIDMat-CPU (modelled MKL with 8 hyper-threads).

use crate::experiments::{Ctx, ExperimentResult};
use crate::table::{fmt_ms, fmt_x, Table};
use fusedml_blas::{BaselineEngine, CpuEngine, Flavor, GpuCsr};
use fusedml_core::executor::FusedExecutor;
use fusedml_core::PatternSpec;
use fusedml_gpu_sim::DeviceError;
use fusedml_matrix::gen::{random_vector, uniform_sparse};

/// Measured times of the four engines at one sweep point.
pub struct EnginePoint {
    pub n: usize,
    pub fused_ms: f64,
    pub cusparse_ms: f64,
    pub bidmat_gpu_ms: f64,
    pub bidmat_cpu_ms: f64,
}

/// Evaluate one sweep point for a pattern selected by `spec`.
pub fn measure_point(
    ctx: &Ctx,
    m: usize,
    n: usize,
    seed: u64,
    spec: PatternSpec,
) -> Result<EnginePoint, DeviceError> {
    let x = uniform_sparse(m, n, 0.01, seed);
    let xd = GpuCsr::try_upload(&ctx.gpu, "x", &x)?;
    let y = ctx.gpu.try_upload_f64("y", &random_vector(n, seed + 1))?;
    let v = spec
        .with_v
        .then(|| ctx.gpu.try_upload_f64("v", &random_vector(m, seed + 2)))
        .transpose()?;
    let z = spec
        .with_z
        .then(|| ctx.gpu.try_upload_f64("z", &random_vector(n, seed + 3)))
        .transpose()?;
    let w = ctx.gpu.try_alloc_f64("w", n)?;
    let p = ctx.gpu.try_alloc_f64("p", m)?;

    ctx.gpu.flush_caches();
    let mut ex = FusedExecutor::new(&ctx.gpu);
    ex.try_pattern_sparse(spec, &xd, v.as_ref(), &y, z.as_ref(), &w)?;
    let fused_ms = ex.total_sim_ms();

    ctx.gpu.flush_caches();
    let mut cu = BaselineEngine::try_new(&ctx.gpu, Flavor::CuLibs)?;
    cu.try_pattern_sparse(
        spec.alpha,
        &xd,
        v.as_ref(),
        &y,
        spec.beta,
        z.as_ref(),
        &w,
        &p,
    )?;
    let cusparse_ms = cu.total_sim_ms();

    ctx.gpu.flush_caches();
    let mut bg = BaselineEngine::try_new(&ctx.gpu, Flavor::BidmatGpu)?;
    bg.try_pattern_sparse(
        spec.alpha,
        &xd,
        v.as_ref(),
        &y,
        spec.beta,
        z.as_ref(),
        &w,
        &p,
    )?;
    let bidmat_gpu_ms = bg.total_sim_ms();

    let mut cpu = CpuEngine::mkl_8threads();
    let bidmat_cpu_ms =
        cpu.pattern_sparse_ms(m, n, x.nnz(), spec.with_v, spec.with_z, spec.alpha != 1.0);

    Ok(EnginePoint {
        n,
        fused_ms,
        cusparse_ms,
        bidmat_gpu_ms,
        bidmat_cpu_ms,
    })
}

pub(crate) fn sweep_table(
    ctx: &Ctx,
    id: &str,
    title: &str,
    spec: PatternSpec,
    paper_note: &str,
) -> ExperimentResult {
    let m = ctx.sweep_rows();
    let mut t = Table::new(
        id,
        title,
        &[
            "n",
            "fused_ms",
            "vs_cusparse",
            "vs_bidmat_gpu",
            "vs_bidmat_cpu",
        ],
    );
    t.note(format!(
        "m = {m} (paper: 500k, scale {}), sparsity 0.01",
        ctx.scale
    ));
    t.note(paper_note.to_string());
    for (i, n) in ctx.sparse_sweep_cols().into_iter().enumerate() {
        let pt = measure_point(ctx, m, n, ctx.seed + 10 * i as u64, spec)?;
        t.row(vec![
            n.to_string(),
            fmt_ms(pt.fused_ms),
            fmt_x(pt.cusparse_ms / pt.fused_ms),
            fmt_x(pt.bidmat_gpu_ms / pt.fused_ms),
            fmt_x(pt.bidmat_cpu_ms / pt.fused_ms),
        ]);
    }
    Ok(t)
}

pub fn run(ctx: &Ctx) -> ExperimentResult {
    sweep_table(
        ctx,
        "fig3",
        "sparse X^T(Xy): fused vs cuSPARSE / BIDMat-GPU / BIDMat-CPU",
        PatternSpec::xtxy(),
        "paper averages: 20.33x (cuSPARSE), 14.66x (BIDMat-GPU), 9.28x (BIDMat-CPU)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_engine_ordering() {
        let ctx = Ctx::new(0.02);
        let pt = measure_point(&ctx, 10_000, 512, 1, PatternSpec::xtxy()).unwrap();
        // The paper's ordering: fused < CPU <= BIDMat-GPU < cuSPARSE.
        assert!(pt.fused_ms < pt.bidmat_cpu_ms);
        assert!(pt.fused_ms < pt.bidmat_gpu_ms);
        assert!(
            pt.bidmat_gpu_ms < pt.cusparse_ms,
            "BIDMat {} vs cuSPARSE {}",
            pt.bidmat_gpu_ms,
            pt.cusparse_ms
        );
    }
}
