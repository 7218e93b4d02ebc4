//! ELL and HYB SpMV device kernels (Bell & Garland's formats).
//!
//! ELL's column-major slot layout makes one-thread-per-row loads perfectly
//! coalesced: at slot `s`, lane `l` reads `data[s * rows + row0 + l]` —
//! 32 consecutive elements. The price is that every padding slot is still
//! a load. HYB adds a COO tail processed with row atomics.

use crate::csrmv::capped_grid;
use fusedml_gpu_sim::{DeviceError, Gpu, GpuBuffer, LaunchConfig, LaunchStats, WARP_LANES};
use fusedml_matrix::ell::ELL_PAD;
use fusedml_matrix::{EllMatrix, HybMatrix};

/// Device-resident ELL matrix.
#[derive(Debug, Clone)]
pub struct GpuEll {
    pub rows: usize,
    pub cols: usize,
    pub width: usize,
    /// Slot-major `width * rows` columns (`ELL_PAD` in padding).
    pub col_idx: GpuBuffer,
    pub values: GpuBuffer,
}

impl GpuEll {
    /// Upload a host ELL matrix, reporting allocation/transfer faults.
    pub fn try_upload(gpu: &Gpu, name: &str, x: &EllMatrix) -> Result<Self, DeviceError> {
        Ok(GpuEll {
            rows: x.rows(),
            cols: x.cols(),
            width: x.width(),
            col_idx: gpu.try_upload_u32(&format!("{name}.col_idx"), x.col_idx())?,
            values: gpu.try_upload_f64(&format!("{name}.values"), x.values())?,
        })
    }

    pub fn size_bytes(&self) -> u64 {
        self.col_idx.size_bytes() + self.values.size_bytes()
    }
}

/// Device-resident HYB matrix: ELL part + COO tail as three arrays.
#[derive(Debug, Clone)]
pub struct GpuHyb {
    pub ell: GpuEll,
    pub coo_rows: GpuBuffer,
    pub coo_cols: GpuBuffer,
    pub coo_vals: GpuBuffer,
    pub coo_nnz: usize,
}

impl GpuHyb {
    /// Upload a host HYB matrix, reporting allocation/transfer faults.
    pub fn try_upload(gpu: &Gpu, name: &str, x: &HybMatrix) -> Result<Self, DeviceError> {
        let rows: Vec<u32> = x.coo().iter().map(|t| t.0).collect();
        let cols: Vec<u32> = x.coo().iter().map(|t| t.1).collect();
        let vals: Vec<f64> = x.coo().iter().map(|t| t.2).collect();
        Ok(GpuHyb {
            ell: GpuEll::try_upload(gpu, name, x.ell())?,
            coo_rows: gpu.try_upload_u32(&format!("{name}.coo_rows"), &rows)?,
            coo_cols: gpu.try_upload_u32(&format!("{name}.coo_cols"), &cols)?,
            coo_vals: gpu.try_upload_f64(&format!("{name}.coo_vals"), &vals)?,
            coo_nnz: x.coo().len(),
        })
    }
}

/// `p = X * y` over ELL: one thread per row, slot loop, coalesced.
pub fn try_ellmv(
    gpu: &Gpu,
    x: &GpuEll,
    y: &GpuBuffer,
    p: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    assert_eq!(y.len(), x.cols, "y length mismatch");
    assert_eq!(p.len(), x.rows, "p length mismatch");
    let (m, width) = (x.rows, x.width);
    let bs = 256;
    let grid = capped_grid(gpu, m, bs);
    let cfg = LaunchConfig::new(grid, bs).with_regs(20).with_ilp(2.0);

    gpu.try_launch("ellmv", cfg, |blk| {
        let grid_threads = blk.grid_dim() * blk.block_dim();
        blk.each_warp(|w| {
            let mut row0 = w.gtid(0);
            while row0 < m {
                let mut sum = [0.0f64; WARP_LANES];
                for slot in 0..width {
                    let cols = w.load_u32(&x.col_idx, |lane| {
                        (row0 + lane < m).then(|| slot * m + row0 + lane)
                    });
                    let vals = w.load_f64(&x.values, |lane| {
                        (row0 + lane < m).then(|| slot * m + row0 + lane)
                    });
                    let ys = w.load_f64_tex(y, |lane| {
                        (row0 + lane < m && cols[lane] != ELL_PAD).then(|| cols[lane] as usize)
                    });
                    let mut active = 0u64;
                    for lane in 0..WARP_LANES {
                        if row0 + lane < m && cols[lane] != ELL_PAD {
                            sum[lane] += vals[lane] * ys[lane];
                            active += 1;
                        }
                    }
                    w.flops(2 * active);
                }
                w.store_f64(p, |lane| {
                    (row0 + lane < m).then(|| (row0 + lane, sum[lane]))
                });
                row0 += grid_threads;
            }
        });
    })
}

/// COO tail: `p[row] += v * y[col]` with row atomics.
fn coo_tail(
    gpu: &Gpu,
    x: &GpuHyb,
    y: &GpuBuffer,
    p: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    let nnz = x.coo_nnz;
    let bs = 256;
    let grid = capped_grid(gpu, nnz.max(1), bs);
    let cfg = LaunchConfig::new(grid, bs).with_regs(18);
    gpu.try_launch("hyb_coo_tail", cfg, |blk| {
        let grid_threads = blk.grid_dim() * blk.block_dim();
        blk.each_warp(|w| {
            let mut base = w.gtid(0);
            while base < nnz {
                let rows = w.load_u32(&x.coo_rows, |l| (base + l < nnz).then_some(base + l));
                let cols = w.load_u32(&x.coo_cols, |l| (base + l < nnz).then_some(base + l));
                let vals = w.load_f64(&x.coo_vals, |l| (base + l < nnz).then_some(base + l));
                let ys = w.load_f64_tex(y, |l| (base + l < nnz).then(|| cols[l] as usize));
                w.flops((nnz - base).min(WARP_LANES) as u64 * 2);
                w.atomic_add_f64(p, |l| {
                    (base + l < nnz).then(|| (rows[l] as usize, vals[l] * ys[l]))
                });
                base += grid_threads;
            }
        });
    })
}

/// `p = X * y` over HYB (ELL pass, then the COO tail).
pub fn try_hybmv(
    gpu: &Gpu,
    x: &GpuHyb,
    y: &GpuBuffer,
    p: &GpuBuffer,
) -> Result<Vec<LaunchStats>, DeviceError> {
    let mut launches = vec![try_ellmv(gpu, &x.ell, y, p)?];
    if x.coo_nnz > 0 {
        launches.push(coo_tail(gpu, x, y, p)?);
    }
    Ok(launches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::gen::{powerlaw_sparse, random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    #[test]
    fn ellmv_matches_reference() {
        let g = gpu();
        let x = uniform_sparse(200, 100, 0.08, 21);
        let ell = EllMatrix::from_csr(&x);
        let y = random_vector(100, 1);
        let xd = GpuEll::try_upload(&g, "x", &ell).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let pd = g.try_alloc_f64("p", 200).unwrap();
        try_ellmv(&g, &xd, &yd, &pd).unwrap();
        let expect = reference::csr_mv(&x, &y);
        assert!(reference::max_abs_diff(&pd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn hybmv_matches_reference_on_skewed_rows() {
        let g = gpu();
        let x = powerlaw_sparse(300, 150, 6.0, 0.8, 22);
        let hyb = HybMatrix::from_csr(&x, 4);
        assert!(hyb.overflow_ratio() > 0.0, "need a COO tail to test");
        let y = random_vector(150, 2);
        let xd = GpuHyb::try_upload(&g, "x", &hyb).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let pd = g.try_alloc_f64("p", 300).unwrap();
        let launches = try_hybmv(&g, &xd, &yd, &pd).unwrap();
        assert_eq!(launches.len(), 2);
        let expect = reference::csr_mv(&x, &y);
        assert!(reference::rel_l2_error(&pd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn ell_loads_are_coalesced() {
        let g = gpu();
        // Uniform 8 nnz/row: ELL stores exactly nnz slots.
        let x = uniform_sparse(2048, 256, 8.0 / 256.0, 23);
        let ell = EllMatrix::from_csr(&x);
        assert_eq!(ell.padding_ratio(), 0.0);
        let xd = GpuEll::try_upload(&g, "x", &ell).unwrap();
        let yd = g.try_upload_f64("y", &random_vector(256, 3)).unwrap();
        let pd = g.try_alloc_f64("p", 2048).unwrap();
        g.flush_caches();
        let stats = try_ellmv(&g, &xd, &yd, &pd).unwrap();
        // Values: nnz/32 instructions * 8 sectors; cols: * 4 sectors.
        let nnz = ell.nnz() as u64;
        let ideal = nnz / 32 * 8 + nnz / 32 * 4;
        assert!(
            stats.counters.gld_transactions < ideal + ideal / 2 + (2048 / 32) * 8,
            "transactions {} vs ideal {}",
            stats.counters.gld_transactions,
            ideal
        );
    }

    #[test]
    fn empty_tail_is_one_launch() {
        let g = gpu();
        let x = uniform_sparse(64, 64, 0.1, 24);
        let k = (0..64).map(|r| x.row_nnz(r)).max().unwrap();
        let hyb = HybMatrix::from_csr(&x, k);
        assert_eq!(hyb.overflow_ratio(), 0.0);
        let xd = GpuHyb::try_upload(&g, "x", &hyb).unwrap();
        let yd = g.try_upload_f64("y", &random_vector(64, 4)).unwrap();
        let pd = g.try_alloc_f64("p", 64).unwrap();
        assert_eq!(try_hybmv(&g, &xd, &yd, &pd).unwrap().len(), 1);
    }
}
