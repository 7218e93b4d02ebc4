//! Figure 5 — dense `X^T x (X x y)`: fused-kernel speedup against cuBLAS,
//! BIDMat-GPU and BIDMat-CPU across column counts up to 2K.

use crate::experiments::{Ctx, ExperimentResult};
use crate::table::{fmt_ms, fmt_x, Table};
use fusedml_blas::{BaselineEngine, CpuEngine, Flavor, GpuDense};
use fusedml_core::executor::FusedExecutor;
use fusedml_core::PatternSpec;
use fusedml_gpu_sim::DeviceError;
use fusedml_matrix::gen::{dense_random, random_vector};

pub struct DensePoint {
    pub n: usize,
    pub fused_ms: f64,
    pub cublas_ms: f64,
    pub bidmat_gpu_ms: f64,
    pub bidmat_cpu_ms: f64,
}

pub fn measure_point(ctx: &Ctx, m: usize, n: usize, seed: u64) -> Result<DensePoint, DeviceError> {
    let x = dense_random(m, n, seed);
    let xd = GpuDense::try_upload(&ctx.gpu, "x", &x)?;
    let y = ctx.gpu.try_upload_f64("y", &random_vector(n, seed + 1))?;
    let w = ctx.gpu.try_alloc_f64("w", n)?;
    let p = ctx.gpu.try_alloc_f64("p", m)?;
    let spec = PatternSpec::xtxy();

    ctx.gpu.flush_caches();
    let mut ex = FusedExecutor::new(&ctx.gpu);
    ex.try_pattern_dense(spec, &xd, None, &y, None, &w)?;
    let fused_ms = ex.total_sim_ms();

    ctx.gpu.flush_caches();
    let mut cu = BaselineEngine::try_new(&ctx.gpu, Flavor::CuLibs)?;
    cu.try_pattern_dense(1.0, &xd, None, &y, 0.0, None, &w, &p)?;
    let cublas_ms = cu.total_sim_ms();

    ctx.gpu.flush_caches();
    let mut bg = BaselineEngine::try_new(&ctx.gpu, Flavor::BidmatGpu)?;
    bg.try_pattern_dense(1.0, &xd, None, &y, 0.0, None, &w, &p)?;
    let bidmat_gpu_ms = bg.total_sim_ms();

    let mut cpu = CpuEngine::mkl_8threads();
    let bidmat_cpu_ms = cpu.pattern_dense_ms(m, n, false, false, false);

    Ok(DensePoint {
        n,
        fused_ms,
        cublas_ms,
        bidmat_gpu_ms,
        bidmat_cpu_ms,
    })
}

pub fn run(ctx: &Ctx) -> ExperimentResult {
    let m = ctx.dense_sweep_rows();
    let mut t = Table::new(
        "fig5",
        "dense X^T(Xy): fused vs cuBLAS / BIDMat-GPU / BIDMat-CPU",
        &[
            "n",
            "fused_ms",
            "vs_cublas",
            "vs_bidmat_gpu",
            "vs_bidmat_cpu",
        ],
    );
    t.note(format!("m = {m} dense (scale {})", ctx.scale));
    t.note("paper averages: 4.27x (cuBLAS), 2.18x (BIDMat-GPU), 15.33x (BIDMat-CPU)");
    for (i, n) in ctx.dense_sweep_cols().into_iter().enumerate() {
        let pt = measure_point(ctx, m, n, ctx.seed + 20 * i as u64)?;
        t.row(vec![
            n.to_string(),
            fmt_ms(pt.fused_ms),
            fmt_x(pt.cublas_ms / pt.fused_ms),
            fmt_x(pt.bidmat_gpu_ms / pt.fused_ms),
            fmt_x(pt.bidmat_cpu_ms / pt.fused_ms),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_engine_ordering() {
        let ctx = Ctx::new(0.02);
        let pt = measure_point(&ctx, 10_000, 256, 3).unwrap();
        // Paper's dense ordering: fused < BIDMat-GPU < cuBLAS < CPU.
        assert!(pt.fused_ms < pt.bidmat_gpu_ms);
        assert!(pt.bidmat_gpu_ms < pt.cublas_ms);
        assert!(pt.cublas_ms < pt.bidmat_cpu_ms);
        // Dense gains are modest, far below the sparse ones.
        let cublas_speedup = pt.cublas_ms / pt.fused_ms;
        assert!(
            (1.2..12.0).contains(&cublas_speedup),
            "dense cuBLAS speedup {cublas_speedup}"
        );
    }
}
