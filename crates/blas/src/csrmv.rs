//! Sparse matrix-vector multiplication kernels (`p = X * y`), the building
//! block the paper's baselines launch as standalone operators.
//!
//! Two styles are provided:
//! * **CSR-vector** (Bell & Garland \[3\]) — `VS` cooperating threads per row
//!   with a shuffle-based segmented reduction; this is the cuSPARSE-class
//!   baseline and also the first stage of the fused kernels.
//! * **CSR-scalar** — one thread per row, the simpler scheme BIDMat-style
//!   libraries use; its per-lane row marching produces uncoalesced loads.

use crate::dev::GpuCsr;
use fusedml_gpu_sim::{DeviceError, Gpu, GpuBuffer, LaunchConfig, LaunchStats, WARP_LANES};

/// SpMV kernel flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpmvStyle {
    /// CSR-vector with the given vector size (power of two in [1, 32]).
    Vector { vs: usize },
    /// CSR-scalar: one thread per row.
    Scalar,
}

/// Choose the vector size from the mean row length, Equation 4 of the
/// paper: `VS = 32` if `mu > 32`, otherwise the enclosing power of two.
pub fn vector_size_for_mean_nnz(mu: f64) -> usize {
    if mu > 32.0 {
        return 32;
    }
    // Largest 2^i in [1, 16] with 2^i < mu (2^{i+1} >= mu > 2^i), else 1.
    let mut vs = 16;
    while vs > 1 && vs as f64 >= mu {
        vs /= 2;
    }
    vs
}

/// Grid size covering `work_items` items with `per_block` items per block,
/// capped so the simulator does not crawl through millions of tiny blocks
/// (a grid-stride loop picks up the remainder, as real kernels do).
pub(crate) fn capped_grid(gpu: &Gpu, work_items: usize, per_block: usize) -> usize {
    let cap = gpu.spec().num_sms * gpu.spec().max_blocks_per_sm * 4;
    work_items.div_ceil(per_block.max(1)).clamp(1, cap)
}

/// `p = X * y` on the device. `p.len() == X.rows`.
pub fn try_csrmv(
    gpu: &Gpu,
    x: &GpuCsr,
    y: &GpuBuffer,
    p: &GpuBuffer,
    style: SpmvStyle,
) -> Result<LaunchStats, DeviceError> {
    assert_eq!(y.len(), x.cols, "y length mismatch");
    assert_eq!(p.len(), x.rows, "p length mismatch");
    match style {
        SpmvStyle::Vector { vs } => csrmv_vector(gpu, x, y, p, vs),
        SpmvStyle::Scalar => csrmv_scalar(gpu, x, y, p),
    }
}

fn csrmv_vector(
    gpu: &Gpu,
    x: &GpuCsr,
    y: &GpuBuffer,
    p: &GpuBuffer,
    vs: usize,
) -> Result<LaunchStats, DeviceError> {
    assert!(
        vs.is_power_of_two() && (1..=WARP_LANES).contains(&vs),
        "vector size must be a power of two in [1, 32], got {vs}"
    );
    let m = x.rows;
    let bs = 256;
    let grid = capped_grid(gpu, m * vs, bs);
    let cfg = LaunchConfig::new(grid, bs).with_regs(28);

    gpu.try_launch("csrmv_vector", cfg, |blk| {
        let grid_vectors = blk.grid_dim() * blk.block_dim() / vs;
        blk.each_warp(|w| {
            let base_vid = w.gtid(0) / vs;
            // Lane `l` below `lanes` handles row `row0 + l / vs` when the
            // warp's first vector is at `row0`; the other lanes, past the
            // matrix end, read empty rows.
            let mut row0 = base_vid;
            while row0 < m {
                let lanes = ((m - row0) * vs).min(WARP_LANES);
                let start = w.load_u32_grouped(&x.row_off, row0, lanes, vs);
                let end = w.load_u32_grouped(&x.row_off, row0 + 1, lanes, vs);

                let mut sum = [0.0f64; WARP_LANES];
                let mut iter = 0usize;
                let mut idx = [None; WARP_LANES];
                loop {
                    let mut active = 0u64;
                    for lane in 0..WARP_LANES {
                        let i = start[lane] as usize + (lane & (vs - 1)) + iter * vs;
                        idx[lane] = (i < end[lane] as usize).then_some(i);
                        active += idx[lane].is_some() as u64;
                    }
                    if active == 0 {
                        break;
                    }
                    let cols = w.load_u32(&x.col_idx, |l| idx[l]);
                    let vals = w.load_f64(&x.values, |l| idx[l]);
                    let ys = w.load_f64_tex(y, |l| idx[l].map(|_| cols[l] as usize));
                    for lane in 0..WARP_LANES {
                        if idx[lane].is_some() {
                            sum[lane] += vals[lane] * ys[lane];
                        }
                    }
                    w.flops(2 * active);
                    iter += 1;
                }
                w.shuffle_reduce_sum(&mut sum, vs);
                // The first lane of each vector stores its row's sum: a
                // run over the warp's rows.
                let mut leads = [0.0f64; WARP_LANES];
                for (lead, s) in leads.iter_mut().zip(sum.iter().step_by(vs)) {
                    *lead = *s;
                }
                let vectors = lanes.min(w.active_lanes()).div_ceil(vs);
                w.store_f64_run(p, row0, vectors, &leads);
                row0 += grid_vectors;
            }
        });
    })
}

fn csrmv_scalar(
    gpu: &Gpu,
    x: &GpuCsr,
    y: &GpuBuffer,
    p: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    let m = x.rows;
    let bs = 256;
    let grid = capped_grid(gpu, m, bs);
    let cfg = LaunchConfig::new(grid, bs).with_regs(20);

    gpu.try_launch("csrmv_scalar", cfg, |blk| {
        let grid_threads = blk.grid_dim() * blk.block_dim();
        blk.each_warp(|w| {
            // Lane `l` below `lanes` handles row `row0 + l`; the other
            // lanes, past the matrix end, read empty rows.
            let mut row0 = w.gtid(0);
            while row0 < m {
                let lanes = (m - row0).min(WARP_LANES);
                let start = w.load_u32_grouped(&x.row_off, row0, lanes, 1);
                let end = w.load_u32_grouped(&x.row_off, row0 + 1, lanes, 1);
                let mut sum = [0.0f64; WARP_LANES];
                let mut iter = 0usize;
                let mut idx = [None; WARP_LANES];
                loop {
                    let mut active = 0u64;
                    for lane in 0..WARP_LANES {
                        let i = start[lane] as usize + iter;
                        idx[lane] = (i < end[lane] as usize).then_some(i);
                        active += idx[lane].is_some() as u64;
                    }
                    if active == 0 {
                        break;
                    }
                    let cols = w.load_u32(&x.col_idx, |l| idx[l]);
                    let vals = w.load_f64(&x.values, |l| idx[l]);
                    let ys = w.load_f64_tex(y, |l| idx[l].map(|_| cols[l] as usize));
                    for lane in 0..WARP_LANES {
                        if idx[lane].is_some() {
                            sum[lane] += vals[lane] * ys[lane];
                        }
                    }
                    w.flops(2 * active);
                    iter += 1;
                }
                w.store_f64_run(p, row0, lanes, &sum);
                row0 += grid_threads;
            }
        });
    })
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
    fn eq4_vector_size() {
        assert_eq!(vector_size_for_mean_nnz(50.0), 32);
        assert_eq!(vector_size_for_mean_nnz(33.0), 32);
        assert_eq!(vector_size_for_mean_nnz(32.0), 16);
        assert_eq!(vector_size_for_mean_nnz(20.0), 16);
        assert_eq!(vector_size_for_mean_nnz(16.0), 8);
        assert_eq!(vector_size_for_mean_nnz(5.0), 4);
        assert_eq!(vector_size_for_mean_nnz(3.0), 2);
        assert_eq!(vector_size_for_mean_nnz(2.0), 1);
        assert_eq!(vector_size_for_mean_nnz(0.5), 1);
    }

    #[test]
    fn vector_spmv_matches_reference() {
        let g = gpu();
        let x = uniform_sparse(300, 120, 0.05, 42);
        let y = random_vector(120, 1);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let pd = g.try_alloc_f64("p", 300).unwrap();
        for vs in [1usize, 2, 4, 8, 16, 32] {
            try_csrmv(&g, &xd, &yd, &pd, SpmvStyle::Vector { vs }).unwrap();
            let expect = reference::csr_mv(&x, &y);
            let got = pd.to_vec_f64();
            assert!(
                reference::max_abs_diff(&got, &expect) < 1e-12,
                "vs={vs} mismatch"
            );
        }
    }

    #[test]
    fn scalar_spmv_matches_reference() {
        let g = gpu();
        let x = uniform_sparse(257, 64, 0.1, 7);
        let y = random_vector(64, 2);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let pd = g.try_alloc_f64("p", 257).unwrap();
        try_csrmv(&g, &xd, &yd, &pd, SpmvStyle::Scalar).unwrap();
        assert!(reference::max_abs_diff(&pd.to_vec_f64(), &reference::csr_mv(&x, &y)) < 1e-12);
    }

    #[test]
    fn scalar_style_costs_more_transactions_than_vector() {
        let g = gpu();
        // Long rows make per-lane marching badly uncoalesced.
        let x = uniform_sparse(128, 2048, 0.05, 3); // ~102 nnz/row
        let y = random_vector(2048, 2);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let pd = g.try_alloc_f64("p", 128).unwrap();
        let v = try_csrmv(&g, &xd, &yd, &pd, SpmvStyle::Vector { vs: 32 }).unwrap();
        g.flush_caches();
        let s = try_csrmv(&g, &xd, &yd, &pd, SpmvStyle::Scalar).unwrap();
        assert!(
            s.counters.gld_transactions > 2 * v.counters.gld_transactions,
            "scalar {} vs vector {}",
            s.counters.gld_transactions,
            v.counters.gld_transactions
        );
    }

    #[test]
    fn empty_rows_yield_zero() {
        let g = gpu();
        let x = fusedml_matrix::CsrMatrix::try_from_parts(
            3,
            4,
            vec![0, 0, 2, 2],
            vec![1, 3],
            vec![2.0, -1.0],
        )
        .unwrap();
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &[1.0, 1.0, 1.0, 1.0]).unwrap();
        let pd = g.try_alloc_f64("p", 3).unwrap();
        try_csrmv(&g, &xd, &yd, &pd, SpmvStyle::Vector { vs: 2 }).unwrap();
        assert_eq!(pd.to_vec_f64(), vec![0.0, 1.0, 0.0]);
    }
}
