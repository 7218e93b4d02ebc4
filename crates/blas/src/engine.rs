//! Operator-by-operator evaluation of the paper's generic pattern — the
//! baseline every figure compares the fused kernel against.
//!
//! `w = alpha * X^T (v ⊙ (X y)) + beta * z` is computed exactly the way a
//! cuBLAS/cuSPARSE (or BIDMat-GPU) composition would: one kernel launch per
//! operator, intermediates materialized in global memory.

use crate::csrmv::{vector_size_for_mean_nnz, SpmvStyle};
use crate::dev::{GpuCsr, GpuDense};
use crate::level1;
use fusedml_gpu_sim::{Counters, DeviceError, Gpu, GpuBuffer, LaunchStats};

/// Which library's composition style the engine mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// cuSPARSE (sparse) / cuBLAS (dense): CSR-vector SpMV, shared-tile
    /// transposed GEMV, every Level-1 op a separate launch.
    CuLibs,
    /// BIDMat-GPU: CSR-scalar SpMV, register-direct transposed GEMV.
    BidmatGpu,
}

/// A baseline execution engine. Accumulates the [`LaunchStats`] of every
/// kernel it launches so experiments can report simulated time and event
/// totals.
pub struct BaselineEngine<'g> {
    gpu: &'g Gpu,
    flavor: Flavor,
    /// Every launch performed since the last [`BaselineEngine::reset`].
    pub launches: Vec<LaunchStats>,
    scalar: GpuBuffer,
}

impl<'g> BaselineEngine<'g> {
    /// Construct the engine, reporting a device fault if the scratch
    /// scalar cannot be allocated.
    pub fn try_new(gpu: &'g Gpu, flavor: Flavor) -> Result<Self, DeviceError> {
        Ok(BaselineEngine {
            gpu,
            flavor,
            launches: Vec::new(),
            scalar: gpu.try_alloc_f64("engine.scalar", 1)?,
        })
    }

    pub fn gpu(&self) -> &'g Gpu {
        self.gpu
    }

    pub fn flavor(&self) -> Flavor {
        self.flavor
    }

    /// The one-element buffer `dot` and `nrm2_sq` reduce into.
    pub fn scalar(&self) -> &GpuBuffer {
        &self.scalar
    }

    /// Total simulated milliseconds since the last reset.
    pub fn total_sim_ms(&self) -> f64 {
        self.launches.iter().map(|l| l.sim_ms()).sum()
    }

    /// Total kernel launches since the last reset.
    pub fn launch_count(&self) -> usize {
        self.launches.len()
    }

    /// Hardware event counters merged across every launch since the last
    /// reset (the per-phase export the benchmark reports aggregate).
    pub fn counters_total(&self) -> Counters {
        let mut total = Counters::new();
        for l in &self.launches {
            total.merge(&l.counters);
        }
        total
    }

    pub fn reset(&mut self) {
        self.launches.clear();
    }

    fn spmv_style(&self, x: &GpuCsr) -> SpmvStyle {
        match self.flavor {
            Flavor::CuLibs => SpmvStyle::Vector {
                vs: vector_size_for_mean_nnz(x.mean_nnz_per_row()),
            },
            Flavor::BidmatGpu => SpmvStyle::Scalar,
        }
    }

    // ---------------- recorded operator launches ----------------

    /// `p = X * y` (sparse).
    pub fn try_csrmv(
        &mut self,
        x: &GpuCsr,
        y: &GpuBuffer,
        p: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        let s = crate::csrmv::try_csrmv(self.gpu, x, y, p, self.spmv_style(x))?;
        self.launches.push(s);
        Ok(())
    }

    /// `w = X^T * p` (sparse) — the library's slow path.
    ///
    /// * `CuLibs`: explicit `csr2csc` followed by a regular SpMV, the
    ///   behaviour the paper infers from cuSPARSE's 3.5x-higher load count
    ///   ("this may be due to explicit construction of X^T", §4.1). The
    ///   transpose is rebuilt on every call, as an opaque library kernel
    ///   must.
    /// * `BidmatGpu`: row-wise atomic scatter.
    pub fn try_csrmv_t(
        &mut self,
        x: &GpuCsr,
        p: &GpuBuffer,
        w: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        match self.flavor {
            Flavor::CuLibs => {
                let (xt, launches) = crate::transpose::try_csr2csc_device(self.gpu, x)?;
                self.launches.extend(launches);
                let s = crate::csrmv_t::try_csrmv_t_pretransposed(self.gpu, &xt, p, w);
                self.gpu.free(&xt.row_off);
                self.gpu.free(&xt.col_idx);
                self.gpu.free(&xt.values);
                self.launches.push(s?);
            }
            Flavor::BidmatGpu => {
                self.launches
                    .extend(crate::csrmv_t::try_csrmv_t_atomic(self.gpu, x, p, w)?);
            }
        }
        Ok(())
    }

    /// `p = X * y` (dense).
    pub fn try_gemv(
        &mut self,
        x: &GpuDense,
        y: &GpuBuffer,
        p: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        let s = crate::gemv::try_gemv(self.gpu, x, y, p)?;
        self.launches.push(s);
        Ok(())
    }

    /// `w = X^T * p` (dense).
    pub fn try_gemv_t(
        &mut self,
        x: &GpuDense,
        p: &GpuBuffer,
        w: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        let ls = match self.flavor {
            Flavor::CuLibs => crate::gemv::try_gemv_t(self.gpu, x, p, w)?,
            Flavor::BidmatGpu => crate::gemv::try_gemv_t_direct(self.gpu, x, p, w)?,
        };
        self.launches.extend(ls);
        Ok(())
    }

    pub fn try_fill(&mut self, buf: &GpuBuffer, v: f64) -> Result<(), DeviceError> {
        self.launches.push(level1::try_fill(self.gpu, buf, v)?);
        Ok(())
    }

    pub fn try_copy(&mut self, src: &GpuBuffer, dst: &GpuBuffer) -> Result<(), DeviceError> {
        self.launches.push(level1::try_copy(self.gpu, src, dst)?);
        Ok(())
    }

    pub fn try_axpy(&mut self, a: f64, x: &GpuBuffer, y: &GpuBuffer) -> Result<(), DeviceError> {
        self.launches.push(level1::try_axpy(self.gpu, a, x, y)?);
        Ok(())
    }

    pub fn try_scal(&mut self, a: f64, x: &GpuBuffer) -> Result<(), DeviceError> {
        self.launches.push(level1::try_scal(self.gpu, a, x)?);
        Ok(())
    }

    pub fn try_ewmul(
        &mut self,
        x: &GpuBuffer,
        y: &GpuBuffer,
        out: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        self.launches.push(level1::try_ewmul(self.gpu, x, y, out)?);
        Ok(())
    }

    pub fn try_dot(&mut self, x: &GpuBuffer, y: &GpuBuffer) -> Result<f64, DeviceError> {
        let (v, s) = level1::try_dot(self.gpu, x, y, &self.scalar)?;
        self.launches.push(s);
        Ok(v)
    }

    pub fn try_nrm2_sq(&mut self, x: &GpuBuffer) -> Result<f64, DeviceError> {
        let (v, s) = level1::try_nrm2_sq(self.gpu, x, &self.scalar)?;
        self.launches.push(s);
        Ok(v)
    }

    // ---------------- pattern composition ----------------

    /// Evaluate the full generic pattern on sparse input, operator by
    /// operator: `w = alpha * X^T (v ⊙ (X y)) + beta * z`.
    ///
    /// `tmp_p` is scratch of length `X.rows` (reused across iterations the
    /// way Listing 1's intermediates are).
    #[allow(clippy::too_many_arguments)]
    pub fn try_pattern_sparse(
        &mut self,
        alpha: f64,
        x: &GpuCsr,
        v: Option<&GpuBuffer>,
        y: &GpuBuffer,
        beta: f64,
        z: Option<&GpuBuffer>,
        w: &GpuBuffer,
        tmp_p: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        self.try_csrmv(x, y, tmp_p)?;
        if let Some(v) = v {
            self.try_ewmul(tmp_p, v, tmp_p)?;
        }
        self.try_csrmv_t(x, tmp_p, w)?;
        if alpha != 1.0 {
            self.try_scal(alpha, w)?;
        }
        if let Some(z) = z {
            self.try_axpy(beta, z, w)?;
        }
        Ok(())
    }

    /// Dense counterpart of [`BaselineEngine::try_pattern_sparse`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_pattern_dense(
        &mut self,
        alpha: f64,
        x: &GpuDense,
        v: Option<&GpuBuffer>,
        y: &GpuBuffer,
        beta: f64,
        z: Option<&GpuBuffer>,
        w: &GpuBuffer,
        tmp_p: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        self.try_gemv(x, y, tmp_p)?;
        if let Some(v) = v {
            self.try_ewmul(tmp_p, v, tmp_p)?;
        }
        self.try_gemv_t(x, tmp_p, w)?;
        if alpha != 1.0 {
            self.try_scal(alpha, w)?;
        }
        if let Some(z) = z {
            self.try_axpy(beta, z, w)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::gen::{dense_random, random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    #[test]
    fn sparse_pattern_both_flavors_match_reference() {
        let g = gpu();
        let x = uniform_sparse(180, 96, 0.07, 31);
        let y = random_vector(96, 1);
        let v = random_vector(180, 2);
        let z = random_vector(96, 3);
        let expect = reference::pattern_csr(1.5, &x, Some(&v), &y, -0.25, Some(&z));

        for flavor in [Flavor::CuLibs, Flavor::BidmatGpu] {
            let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
            let yd = g.try_upload_f64("y", &y).unwrap();
            let vd = g.try_upload_f64("v", &v).unwrap();
            let zd = g.try_upload_f64("z", &z).unwrap();
            let wd = g.try_alloc_f64("w", 96).unwrap();
            let pd = g.try_alloc_f64("p", 180).unwrap();
            let mut e = BaselineEngine::try_new(&g, flavor).unwrap();
            e.try_pattern_sparse(1.5, &xd, Some(&vd), &yd, -0.25, Some(&zd), &wd, &pd)
                .unwrap();
            assert!(
                reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12,
                "{flavor:?}"
            );
            match flavor {
                // spmv, ewmul, fill, scatter, scal, axpy.
                Flavor::BidmatGpu => assert_eq!(e.launch_count(), 6),
                // The transposed product alone is a multi-kernel
                // transposition plus an SpMV.
                Flavor::CuLibs => assert!(e.launch_count() > 8),
            }
            assert!(e.total_sim_ms() > 0.0);
        }
    }

    #[test]
    fn dense_pattern_matches_reference() {
        let g = gpu();
        let x = dense_random(120, 48, 33);
        let y = random_vector(48, 4);
        let expect = reference::pattern_dense(1.0, &x, None, &y, 0.0, None);

        for flavor in [Flavor::CuLibs, Flavor::BidmatGpu] {
            let xd = GpuDense::try_upload(&g, "x", &x).unwrap();
            let yd = g.try_upload_f64("y", &y).unwrap();
            let wd = g.try_alloc_f64("w", 48).unwrap();
            let pd = g.try_alloc_f64("p", 120).unwrap();
            let mut e = BaselineEngine::try_new(&g, flavor).unwrap();
            e.try_pattern_dense(1.0, &xd, None, &yd, 0.0, None, &wd, &pd)
                .unwrap();
            assert!(
                reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12,
                "{flavor:?}"
            );
            // No v/z and alpha=1: gemv + (fill + gemv_t) only.
            assert_eq!(e.launch_count(), 3, "{flavor:?}");
        }
    }

    #[test]
    fn reset_clears_accounting() {
        let g = gpu();
        let x = g.try_upload_f64("x", &random_vector(64, 5)).unwrap();
        let mut e = BaselineEngine::try_new(&g, Flavor::CuLibs).unwrap();
        e.try_scal(2.0, &x).unwrap();
        assert_eq!(e.launch_count(), 1);
        e.reset();
        assert_eq!(e.launch_count(), 0);
        assert_eq!(e.total_sim_ms(), 0.0);
    }

    #[test]
    fn dot_returns_value_and_records() {
        let g = gpu();
        let xh = random_vector(300, 6);
        let x = g.try_upload_f64("x", &xh).unwrap();
        let mut e = BaselineEngine::try_new(&g, Flavor::CuLibs).unwrap();
        let d = e.try_dot(&x, &x).unwrap();
        assert!((d - reference::norm2_sq(&xh)).abs() < 1e-9);
        assert_eq!(e.launch_count(), 1);
    }
}
