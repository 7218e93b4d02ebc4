//! Transposed sparse matrix-vector multiplication baselines
//! (`w = X^T * p` with `X` in CSR).
//!
//! This is the operation the paper identifies as cuSPARSE's weak spot (§3.1):
//! the access pattern is column-major but the storage is row-major, so the
//! library either (a) scatters with global atomics straight from the CSR
//! rows — uncoalesced stores and heavy contention when `n` is small — or
//! (b) explicitly transposes with `csr2csc` first (see [`crate::transpose`])
//! and runs a regular SpMV, paying the transposition and double storage.

use crate::csrmv::{capped_grid, try_csrmv, SpmvStyle};
use crate::dev::GpuCsr;
use crate::level1::try_fill;
use fusedml_gpu_sim::{DeviceError, Gpu, GpuBuffer, LaunchConfig, LaunchStats, WARP_LANES};

/// `w += X^T * p` by row-wise atomic scatter (cuSPARSE
/// `csrmv(OP_TRANSPOSE)`-style). `w` must be zeroed first — use
/// [`try_csrmv_t_atomic`] for the zero-and-scatter composition.
pub fn try_csrmv_t_scatter(
    gpu: &Gpu,
    x: &GpuCsr,
    p: &GpuBuffer,
    w: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    assert_eq!(p.len(), x.rows, "p length mismatch");
    assert_eq!(w.len(), x.cols, "w length mismatch");
    let m = x.rows;
    let vs = crate::csrmv::vector_size_for_mean_nnz(x.mean_nnz_per_row());
    let bs = 256;
    let grid = capped_grid(gpu, m * vs, bs);
    let cfg = LaunchConfig::new(grid, bs).with_regs(26);

    gpu.try_launch("csrmv_t_scatter", cfg, |blk| {
        let grid_vectors = blk.grid_dim() * blk.block_dim() / vs;
        blk.each_warp(|w_ctx| {
            let base_vid = w_ctx.gtid(0) / vs;
            let mut row0 = base_vid;
            while row0 < m {
                let row_of = |lane: usize| {
                    let r = row0 + lane / vs;
                    (r < m).then_some(r)
                };
                let start = w_ctx.load_u32(&x.row_off, row_of);
                let end = w_ctx.load_u32(&x.row_off, |l| row_of(l).map(|r| r + 1));
                // p[row] broadcast to the vector's lanes via texture.
                let pr = w_ctx.load_f64_tex(p, row_of);

                let mut iter = 0usize;
                let mut idx = [None; WARP_LANES];
                loop {
                    let mut active = 0u64;
                    for lane in 0..WARP_LANES {
                        idx[lane] = row_of(lane).and_then(|_| {
                            let i = start[lane] as usize + (lane % vs) + iter * vs;
                            (i < end[lane] as usize).then_some(i)
                        });
                        active += idx[lane].is_some() as u64;
                    }
                    if active == 0 {
                        break;
                    }
                    let cols = w_ctx.load_u32(&x.col_idx, |l| idx[l]);
                    let vals = w_ctx.load_f64(&x.values, |l| idx[l]);
                    w_ctx.flops(2 * active);
                    // Uncoalesced atomic scatter into w — the baseline's cost.
                    w_ctx.atomic_add_f64(w, |lane| {
                        idx[lane].map(|_| (cols[lane] as usize, vals[lane] * pr[lane]))
                    });
                    iter += 1;
                }
                row0 += grid_vectors;
            }
        });
    })
}

/// `w = X^T * p`: zero `w`, then atomic scatter. Returns the two launches'
/// stats in order.
pub fn try_csrmv_t_atomic(
    gpu: &Gpu,
    x: &GpuCsr,
    p: &GpuBuffer,
    w: &GpuBuffer,
) -> Result<Vec<LaunchStats>, DeviceError> {
    let zero = try_fill(gpu, w, 0.0)?;
    let scatter = try_csrmv_t_scatter(gpu, x, p, w)?;
    Ok(vec![zero, scatter])
}

/// `w = X^T * p` via a pre-transposed matrix: a plain CSR-vector SpMV over
/// `X^T` (the explicit-transpose strategy whose amortization Fig. 2
/// studies). The caller produces `xt` once with
/// [`crate::transpose::try_csr2csc_device`].
pub fn try_csrmv_t_pretransposed(
    gpu: &Gpu,
    xt: &GpuCsr,
    p: &GpuBuffer,
    w: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    let vs = crate::csrmv::vector_size_for_mean_nnz(xt.mean_nnz_per_row());
    try_csrmv(gpu, xt, p, w, SpmvStyle::Vector { vs: vs.max(1) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    #[test]
    fn atomic_scatter_matches_reference() {
        let g = gpu();
        let x = uniform_sparse(200, 90, 0.08, 11);
        let p = random_vector(200, 3);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let pd = g.try_upload_f64("p", &p).unwrap();
        let wd = g.try_alloc_f64("w", 90).unwrap();
        try_csrmv_t_atomic(&g, &xd, &pd, &wd).unwrap();
        let expect = reference::csr_tmv(&x, &p);
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn pretransposed_matches_reference() {
        let g = gpu();
        let x = uniform_sparse(150, 60, 0.1, 13);
        let xt = x.transpose();
        let p = random_vector(150, 5);
        let xtd = GpuCsr::try_upload(&g, "xt", &xt).unwrap();
        let pd = g.try_upload_f64("p", &p).unwrap();
        let wd = g.try_alloc_f64("w", 60).unwrap();
        try_csrmv_t_pretransposed(&g, &xtd, &pd, &wd).unwrap();
        let expect = reference::csr_tmv(&x, &p);
        assert!(reference::max_abs_diff(&wd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn narrow_output_contends_harder_than_wide() {
        let g = gpu();
        // Same nnz scattered into 16 vs 4096 output columns.
        let narrow = uniform_sparse(2000, 16, 0.25, 17); // 4 nnz/row
        let wide = uniform_sparse(2000, 4096, 4.0 / 4096.0, 17);
        let p = random_vector(2000, 1);
        let pd = g.try_upload_f64("p", &p).unwrap();

        let nd = GpuCsr::try_upload(&g, "narrow", &narrow).unwrap();
        let wn = g.try_alloc_f64("wn", 16).unwrap();
        let sn = try_csrmv_t_atomic(&g, &nd, &pd, &wn)
            .unwrap()
            .pop()
            .unwrap();

        let wd_m = GpuCsr::try_upload(&g, "wide", &wide).unwrap();
        let ww = g.try_alloc_f64("ww", 4096).unwrap();
        let sw = try_csrmv_t_atomic(&g, &wd_m, &pd, &ww)
            .unwrap()
            .pop()
            .unwrap();

        assert!(
            sn.counters.hottest_atomic_address_count()
                > 8 * sw.counters.hottest_atomic_address_count().max(1),
            "narrow {} vs wide {}",
            sn.counters.hottest_atomic_address_count(),
            sw.counters.hottest_atomic_address_count()
        );
        assert!(sn.time.atomic_serial_ms > sw.time.atomic_serial_ms);
    }
}
