//! Extension experiment (not in the paper): storage-format choice for the
//! fused kernel — CSR (the paper's format) vs ELLPACK vs HYB — on uniform
//! and power-law row-length distributions.
//!
//! Expected shape: on uniform rows, ELL matches or beats CSR (perfect
//! coalescing, no intra-vector reductions, zero padding); on power-law
//! rows, ELL's padding explodes its traffic and CSR wins decisively, with
//! HYB's bounded-width ELL part in between.

use crate::experiments::{Ctx, ExperimentResult};
use crate::table::{fmt_ms, Table};
use fusedml_blas::ellmv::{GpuEll, GpuHyb};
use fusedml_blas::{try_hybmv, GpuCsr};
use fusedml_core::ell_fused::{plan_ell, try_fused_pattern_ell};
use fusedml_core::executor::FusedExecutor;
use fusedml_core::PatternSpec;
use fusedml_gpu_sim::{DeviceError, Gpu};
use fusedml_matrix::gen::{powerlaw_sparse, random_vector, uniform_sparse};
use fusedml_matrix::{CsrMatrix, EllMatrix, HybMatrix};

struct FormatPoint {
    csr_fused_ms: f64,
    ell_fused_ms: f64,
    hyb_spmv_ms: f64,
    ell_padding: f64,
    hyb_overflow: f64,
}

fn measure(gpu: &Gpu, x: &CsrMatrix, seed: u64) -> Result<FormatPoint, DeviceError> {
    let (m, n) = (x.rows(), x.cols());
    let y = random_vector(n, seed);
    let yd = gpu.try_upload_f64("y", &y)?;
    let wd = gpu.try_alloc_f64("w", n)?;
    let spec = PatternSpec::xtxy();

    // CSR fused (the paper's kernel).
    let xd = GpuCsr::try_upload(gpu, "csr", x)?;
    gpu.flush_caches();
    let mut ex = FusedExecutor::new(gpu);
    ex.try_pattern_sparse(spec, &xd, None, &yd, None, &wd)?;
    let csr_fused_ms = ex.total_sim_ms();

    // ELL fused (extension kernel).
    let ell = EllMatrix::from_csr(x);
    let eld = GpuEll::try_upload(gpu, "ell", &ell)?;
    gpu.flush_caches();
    let plan = plan_ell(gpu, m, n);
    fusedml_blas::level1::try_fill(gpu, &wd, 0.0)?;
    let s = try_fused_pattern_ell(gpu, &plan, spec, &eld, None, &yd, None, &wd)?;
    let ell_fused_ms = s.sim_ms();

    // HYB SpMV (the X*y half only — HYB has no transposed-scan fusion, its
    // COO tail cannot be rescanned cheaply; reported for SpMV context).
    let k = HybMatrix::suggested_width(x, 1.0 / 3.0);
    let hyb = HybMatrix::from_csr(x, k);
    let hd = GpuHyb::try_upload(gpu, "hyb", &hyb)?;
    let pd = gpu.try_alloc_f64("p", m)?;
    gpu.flush_caches();
    let hyb_spmv_ms: f64 = try_hybmv(gpu, &hd, &yd, &pd)?
        .iter()
        .map(|l| l.sim_ms())
        .sum();

    Ok(FormatPoint {
        csr_fused_ms,
        ell_fused_ms,
        hyb_spmv_ms,
        ell_padding: ell.padding_ratio(),
        hyb_overflow: hyb.overflow_ratio(),
    })
}

pub fn run(ctx: &Ctx) -> ExperimentResult {
    let m = ctx.sweep_rows() / 2;
    let n = 1024;
    let mut t = Table::new(
        "ext_ell",
        "EXTENSION: fused-kernel storage formats (CSR vs ELL vs HYB)",
        &[
            "distribution",
            "csr_fused_ms",
            "ell_fused_ms",
            "ell/csr",
            "ell_padding",
            "hyb_spmv_ms",
            "hyb_overflow",
        ],
    );
    t.note(format!(
        "m = {m}, n = {n}; pattern X^T(Xy); not a paper artifact"
    ));

    let uniform = uniform_sparse(m, n, 0.01, ctx.seed);
    let skewed = powerlaw_sparse(m, n, 10.0, 0.8, ctx.seed + 1);
    for (name, x) in [("uniform", &uniform), ("power-law", &skewed)] {
        let p = measure(&ctx.gpu, x, ctx.seed + 2)?;
        t.row(vec![
            name.to_string(),
            fmt_ms(p.csr_fused_ms),
            fmt_ms(p.ell_fused_ms),
            format!("{:.2}", p.ell_fused_ms / p.csr_fused_ms),
            format!("{:.2}", p.ell_padding),
            fmt_ms(p.hyb_spmv_ms),
            format!("{:.2}", p.hyb_overflow),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_tradeoff_shape() {
        let ctx = Ctx::new(0.05);
        let gpu = &ctx.gpu;
        let m = 8000;
        let uniform = uniform_sparse(m, 512, 0.02, 61);
        let skewed = powerlaw_sparse(m, 512, 10.0, 0.8, 62);

        let u = measure(gpu, &uniform, 63).unwrap();
        let s = measure(gpu, &skewed, 64).unwrap();

        // Uniform rows: no padding, ELL competitive (within 2x of CSR).
        assert!(u.ell_padding < 0.01, "uniform padding {}", u.ell_padding);
        assert!(
            u.ell_fused_ms < 2.0 * u.csr_fused_ms,
            "uniform: ell {} vs csr {}",
            u.ell_fused_ms,
            u.csr_fused_ms
        );

        // Skewed rows: padding blows up and CSR wins by more than the
        // uniform gap.
        assert!(s.ell_padding > 0.3, "skewed padding {}", s.ell_padding);
        let uniform_gap = u.ell_fused_ms / u.csr_fused_ms;
        let skewed_gap = s.ell_fused_ms / s.csr_fused_ms;
        assert!(
            skewed_gap > uniform_gap,
            "skew should hurt ELL: {skewed_gap} vs {uniform_gap}"
        );
        // HYB bounds the damage relative to full-width ELL traffic.
        assert!(s.hyb_overflow > 0.0 && s.hyb_overflow < 1.0);
    }
}
