//! Device-resident matrix representations: the CSR triple
//! (`values`, `col_idx`, `row_off`) and row-major dense storage, mirroring
//! what cuSPARSE/cuBLAS operate on.

use crate::strips::StripTables;
use fusedml_gpu_sim::{DeviceError, Gpu, GpuBuffer};
use fusedml_matrix::{CsrMatrix, DenseMatrix};

/// CSR matrix uploaded to the simulated device.
#[derive(Debug, Clone)]
pub struct GpuCsr {
    pub rows: usize,
    pub cols: usize,
    pub nnz: usize,
    /// `rows + 1` offsets (u32 like cuSPARSE's `int` offsets).
    pub row_off: GpuBuffer,
    pub col_idx: GpuBuffer,
    pub values: GpuBuffer,
    /// Set when row indices within a column are not sorted (output of the
    /// device `csr2csc`, whose scatter order is nondeterministic). SpMV is
    /// order-insensitive so this only matters for host downloads.
    pub unsorted: bool,
    /// The strip tables of the fused kernels' launches on this matrix
    /// (see [`GpuCsr::strip_table`]), shared by its clones.
    pub(crate) strips: StripTables,
}

impl GpuCsr {
    /// Upload a host CSR matrix (simulated `cudaMemcpy` H2D; transfer cost
    /// is the runtime crate's concern), reporting allocation/transfer faults.
    pub fn try_upload(gpu: &Gpu, name: &str, x: &CsrMatrix) -> Result<Self, DeviceError> {
        assert!(
            x.nnz() <= u32::MAX as usize,
            "device CSR uses u32 offsets; nnz {} too large",
            x.nnz()
        );
        let row_off: Vec<u32> = x.row_off().iter().map(|&o| o as u32).collect();
        // A failed part gives back the parts already uploaded. The part
        // names live until the end, as the temporaries of a single struct
        // expression would: the host allocator then sees the same sequence
        // of allocations and frees, which peak RSS is sensitive to.
        let row_off_name = format!("{name}.row_off");
        let row_off = gpu.try_upload_u32(&row_off_name, &row_off)?;
        let col_idx_name = format!("{name}.col_idx");
        let col_idx = gpu
            .try_upload_u32(&col_idx_name, x.col_idx())
            .inspect_err(|_| gpu.free(&row_off))?;
        let values_name = format!("{name}.values");
        let values = gpu
            .try_upload_f64(&values_name, x.values())
            .inspect_err(|_| {
                gpu.free(&row_off);
                gpu.free(&col_idx);
            })?;
        Ok(GpuCsr {
            rows: x.rows(),
            cols: x.cols(),
            nnz: x.nnz(),
            row_off,
            col_idx,
            values,
            unsorted: false,
            strips: StripTables::default(),
        })
    }

    /// Total device bytes held by this matrix.
    pub fn size_bytes(&self) -> u64 {
        self.row_off.size_bytes() + self.col_idx.size_bytes() + self.values.size_bytes()
    }

    /// Mean non-zeros per row (`mu` of Equation 4).
    pub fn mean_nnz_per_row(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nnz as f64 / self.rows as f64
        }
    }
}

/// Dense row-major matrix uploaded to the simulated device.
#[derive(Debug, Clone)]
pub struct GpuDense {
    pub rows: usize,
    pub cols: usize,
    pub data: GpuBuffer,
}

impl GpuDense {
    /// Upload a host dense matrix, reporting allocation/transfer faults.
    pub fn try_upload(gpu: &Gpu, name: &str, x: &DenseMatrix) -> Result<Self, DeviceError> {
        Ok(GpuDense {
            rows: x.rows(),
            cols: x.cols(),
            data: gpu.try_upload_f64(name, x.data())?,
        })
    }

    pub fn size_bytes(&self) -> u64 {
        self.data.size_bytes()
    }

    /// Linear element index of `(row, col)`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> usize {
        row * self.cols + col
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::{DeviceSpec, FaultProfile};
    use fusedml_matrix::gen::uniform_sparse;

    #[test]
    fn csr_upload_roundtrip() {
        let gpu = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
        let x = uniform_sparse(10, 20, 0.2, 1);
        let d = GpuCsr::try_upload(&gpu, "x", &x).unwrap();
        assert_eq!(d.nnz, x.nnz());
        assert_eq!(d.values.to_vec_f64(), x.values());
        assert_eq!(d.col_idx.to_vec_u32(), x.col_idx());
        assert_eq!(
            d.row_off.to_vec_u32(),
            x.row_off().iter().map(|&o| o as u32).collect::<Vec<_>>()
        );
        assert_eq!(d.size_bytes(), (x.nnz() * 12 + 11 * 4) as u64);
    }

    #[test]
    fn a_failed_csr_upload_gives_back_its_uploaded_parts() {
        let x = uniform_sparse(10, 20, 0.2, 1);
        // Memory pressure with a full reserve fails every allocation after
        // the first `n`: the row offsets, column indices or values.
        for n in 0..3 {
            let profile = FaultProfile::seeded(1).with_memory_pressure(n, 1.0);
            let gpu =
                Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1).with_fault_profile(profile);
            assert!(GpuCsr::try_upload(&gpu, "x", &x).is_err(), "part {n}");
            assert_eq!(gpu.allocated_bytes(), 0, "failing at part {n} leaked");
        }
    }

    #[test]
    fn dense_upload_roundtrip() {
        let gpu = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
        let x = fusedml_matrix::gen::dense_random(5, 7, 2);
        let d = GpuDense::try_upload(&gpu, "x", &x).unwrap();
        assert_eq!(d.data.to_vec_f64(), x.data());
        assert_eq!(d.at(2, 3), 17);
    }
}
