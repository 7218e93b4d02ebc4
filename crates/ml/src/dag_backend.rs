//! DAG-compiled execution backend.
//!
//! [`DagBackend`] routes the Equation-1 pattern and `alpha * X^T y`
//! evaluations through the operator-DAG fusion compiler
//! ([`fusedml_core::fusion`]) instead of calling the hand-fused kernels
//! directly: each evaluation is expressed as a [`Dag`], the compiler
//! enumerates and prices candidate fusion plans, and the selected plan is
//! memoized in the plan cache under the DAG's structural fingerprint. For
//! the Equation-1 chain the selected plan drives the exact same fused
//! kernels as [`FusedBackend`](crate::ops::FusedBackend), so solvers are
//! numerically identical across the two backends; what changes is *who
//! decides* the kernel grouping — a cost model over the DAG rather than a
//! hard-coded pattern match.

use crate::ops::{BackendStats, DeviceMatrix};
use fusedml_blas::{level1, GpuCsr, GpuDense, SpmvStyle};
use fusedml_core::{Dag, DagExecutor, DagInputs, DagMatrix, PatternInstance, PatternSpec};
use fusedml_gpu_sim::{DeviceError, Gpu, GpuBuffer, PoolStats};
use fusedml_matrix::{CsrMatrix, DenseMatrix};

use crate::ops::Backend;

/// Pattern and transpose-MV evaluations through the DAG fusion compiler;
/// BLAS-1 stays operator-level (the `ours-end2end` shape with a compiler
/// in the loop).
pub struct DagBackend<'g> {
    gpu: &'g Gpu,
    matrix: DeviceMatrix,
    exec: DagExecutor<'g>,
    scalar: GpuBuffer,
    stats: BackendStats,
    /// Pool snapshot at construction / last reset (see `FusedBackend`).
    pool_base: PoolStats,
}

impl<'g> DagBackend<'g> {
    /// Upload and wrap a sparse matrix, reporting device faults.
    pub fn try_new_sparse(gpu: &'g Gpu, x: &CsrMatrix) -> Result<Self, DeviceError> {
        Self::try_from_matrix(gpu, DeviceMatrix::Sparse(GpuCsr::try_upload(gpu, "X", x)?))
    }

    /// Upload and wrap a dense matrix, reporting device faults.
    pub fn try_new_dense(gpu: &'g Gpu, x: &DenseMatrix) -> Result<Self, DeviceError> {
        Self::try_from_matrix(gpu, DeviceMatrix::Dense(GpuDense::try_upload(gpu, "X", x)?))
    }

    pub fn try_from_matrix(gpu: &'g Gpu, matrix: DeviceMatrix) -> Result<Self, DeviceError> {
        Ok(DagBackend {
            gpu,
            matrix,
            exec: DagExecutor::try_new(gpu)?,
            scalar: gpu.try_alloc_f64("dagbackend.scalar", 1)?,
            stats: BackendStats::default(),
            pool_base: gpu.pool_stats(),
        })
    }

    pub fn new_sparse(gpu: &'g Gpu, x: &CsrMatrix) -> Self {
        Self::try_new_sparse(gpu, x).unwrap_or_else(|e| panic!("{e}"))
    }

    pub fn new_dense(gpu: &'g Gpu, x: &DenseMatrix) -> Self {
        Self::try_new_dense(gpu, x).unwrap_or_else(|e| panic!("{e}"))
    }

    pub fn from_matrix(gpu: &'g Gpu, matrix: DeviceMatrix) -> Self {
        Self::try_from_matrix(gpu, matrix).unwrap_or_else(|e| panic!("{e}"))
    }

    pub fn matrix(&self) -> &DeviceMatrix {
        &self.matrix
    }

    /// Hit/miss accounting for the DAG fusion-plan cache alone (the
    /// `stats().plan` field merges it with the launch-plan sides).
    pub fn dag_plan_stats(&self) -> fusedml_core::PlanCacheStats {
        self.exec.dag_plan_stats()
    }

    fn absorb_exec(&mut self) {
        self.stats.sim_ms += self.exec.total_sim_ms();
        self.stats.launches += self.exec.launch_count();
        self.stats.counters.merge(&self.exec.counters_total());
        for l in self.exec.launches() {
            self.stats.occupancy_ms += l.occupancy.occupancy * l.sim_ms();
        }
        self.exec.reset();
    }

    fn charge(&mut self, s: fusedml_gpu_sim::LaunchStats) {
        self.stats.sim_ms += s.sim_ms();
        self.stats.launches += 1;
        self.stats.counters.merge(&s.counters);
        self.stats.occupancy_ms += s.occupancy.occupancy * s.sim_ms();
    }
}

impl<'g> Backend for DagBackend<'g> {
    type Vector = GpuBuffer;

    fn rows(&self) -> usize {
        self.matrix.rows()
    }

    fn cols(&self) -> usize {
        self.matrix.cols()
    }

    fn try_from_host(&mut self, name: &str, data: &[f64]) -> Result<GpuBuffer, DeviceError> {
        self.gpu.try_upload_f64(name, data)
    }

    fn try_zeros(&mut self, name: &str, len: usize) -> Result<GpuBuffer, DeviceError> {
        self.gpu.try_alloc_f64(name, len)
    }

    fn to_host(&self, v: &GpuBuffer) -> Vec<f64> {
        v.to_vec_f64()
    }

    fn try_pattern(
        &mut self,
        spec: PatternSpec,
        v: Option<&GpuBuffer>,
        y: &GpuBuffer,
        z: Option<&GpuBuffer>,
        w: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        assert_eq!(
            spec.with_v,
            v.is_some(),
            "spec.with_v disagrees with the v operand"
        );
        assert_eq!(
            spec.with_z,
            z.is_some(),
            "spec.with_z disagrees with the z operand"
        );
        let dag = Dag::equation1(spec);
        let mut inputs = DagInputs::new().vector("y", y);
        if let Some(v) = v {
            inputs = inputs.vector("v", v);
        }
        if let Some(z) = z {
            inputs = inputs.vector("z", z);
        }
        let matrix = match &self.matrix {
            DeviceMatrix::Sparse(x) => DagMatrix::Sparse(x),
            DeviceMatrix::Dense(x) => DagMatrix::Dense(x),
        };
        let res = self.exec.try_run(&dag, &matrix, &inputs, w);
        // Launches performed before a fault still cost simulated time.
        self.absorb_exec();
        res?;
        self.stats.record_instance(spec.instance());
        Ok(())
    }

    fn try_mv(&mut self, y: &GpuBuffer, out: &mut GpuBuffer) -> Result<(), DeviceError> {
        let s = match &self.matrix {
            DeviceMatrix::Sparse(x) => fusedml_blas::try_csrmv(
                self.gpu,
                x,
                y,
                out,
                SpmvStyle::Vector {
                    vs: fusedml_blas::vector_size_for_mean_nnz(x.mean_nnz_per_row()),
                },
            )?,
            DeviceMatrix::Dense(x) => fusedml_blas::try_gemv(self.gpu, x, y, out)?,
        };
        self.charge(s);
        Ok(())
    }

    fn try_tmv(
        &mut self,
        alpha: f64,
        u: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        let dag = Dag::xt_y(alpha);
        let inputs = DagInputs::new().vector("y", u);
        let matrix = match &self.matrix {
            DeviceMatrix::Sparse(x) => DagMatrix::Sparse(x),
            DeviceMatrix::Dense(x) => DagMatrix::Dense(x),
        };
        let res = self.exec.try_run(&dag, &matrix, &inputs, out);
        self.absorb_exec();
        res?;
        self.stats.record_instance(PatternInstance::XtY);
        Ok(())
    }

    fn try_axpy(&mut self, a: f64, x: &GpuBuffer, y: &mut GpuBuffer) -> Result<(), DeviceError> {
        let s = level1::try_axpy(self.gpu, a, x, y)?;
        self.charge(s);
        Ok(())
    }

    fn try_scal(&mut self, a: f64, x: &mut GpuBuffer) -> Result<(), DeviceError> {
        let s = level1::try_scal(self.gpu, a, x)?;
        self.charge(s);
        Ok(())
    }

    fn try_copy(&mut self, src: &GpuBuffer, dst: &mut GpuBuffer) -> Result<(), DeviceError> {
        let s = level1::try_copy(self.gpu, src, dst)?;
        self.charge(s);
        Ok(())
    }

    fn try_ewmul(
        &mut self,
        x: &GpuBuffer,
        y: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        let s = level1::try_ewmul(self.gpu, x, y, out)?;
        self.charge(s);
        Ok(())
    }

    fn try_dot(&mut self, x: &GpuBuffer, y: &GpuBuffer) -> Result<f64, DeviceError> {
        let (d, s) = level1::try_dot(self.gpu, x, y, &self.scalar)?;
        self.charge(s);
        Ok(d)
    }

    fn try_nrm2_sq(&mut self, x: &GpuBuffer) -> Result<f64, DeviceError> {
        let (d, s) = level1::try_nrm2_sq(self.gpu, x, &self.scalar)?;
        self.charge(s);
        Ok(d)
    }

    fn try_map2(
        &mut self,
        x: &GpuBuffer,
        y: &GpuBuffer,
        out: &mut GpuBuffer,
        f: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> Result<(), DeviceError> {
        let s = crate::ops::try_device_map2(self.gpu, x, y, out, f)?;
        self.charge(s);
        Ok(())
    }

    fn stats(&self) -> BackendStats {
        let mut s = self.stats.clone();
        s.plan = self.exec.plan_stats();
        s.pool = self.gpu.pool_stats().delta_since(&self.pool_base);
        s
    }

    fn reset_stats(&mut self) {
        self.stats = BackendStats::default();
        self.exec.reset_plan_stats();
        self.pool_base = self.gpu.pool_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lr_cg::{try_lr_cg, LrCgOptions};
    use crate::ops::FusedBackend;
    use fusedml_gpu_sim::{DeviceSpec, Gpu};
    use fusedml_matrix::gen::{random_vector, uniform_sparse};

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    #[test]
    fn lr_cg_through_the_dag_compiler_matches_the_hand_fused_backend() {
        let x = uniform_sparse(1_500, 128, 0.03, 21);
        let y = random_vector(1_500, 22);
        let opts = LrCgOptions {
            max_iterations: 8,
            ..Default::default()
        };

        let g1 = gpu();
        let mut fused = FusedBackend::new_sparse(&g1, &x);
        let r_fused = try_lr_cg(&mut fused, &y, opts).unwrap();

        let g2 = gpu();
        let mut dag = DagBackend::new_sparse(&g2, &x);
        let r_dag = try_lr_cg(&mut dag, &y, opts).unwrap();

        // The compiler selects the hand-fused kernels, so the solve is
        // numerically identical, launch for launch.
        assert_eq!(r_dag.weights, r_fused.weights);
        assert_eq!(r_dag.iterations, r_fused.iterations);
        assert_eq!(
            dag.stats().launches,
            fused.stats().launches,
            "same kernels, same launch count"
        );
    }

    #[test]
    fn solver_iterations_share_one_memoized_plan() {
        let g = gpu();
        let x = uniform_sparse(800, 96, 0.04, 23);
        let y = random_vector(800, 24);
        let iters = 6;
        let mut dag = DagBackend::new_sparse(&g, &x);
        try_lr_cg(
            &mut dag,
            &y,
            LrCgOptions {
                max_iterations: iters,
                tolerance: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        let s = dag.dag_plan_stats();
        // One plan for the init X^T y DAG, one for the iteration DAG.
        assert_eq!(s.misses, 2, "dag stats: {s:?}");
        assert_eq!(s.hits as usize, iters - 1, "dag stats: {s:?}");
    }

    #[test]
    fn dense_tmv_goes_through_the_dag_path() -> Result<(), DeviceError> {
        let g = gpu();
        let xh = fusedml_matrix::gen::dense_random(300, 40, 31);
        let mut dag = DagBackend::new_dense(&g, &xh);
        let u = dag.try_from_host("u", &random_vector(300, 32))?;
        let mut out = dag.try_zeros("out", 40)?;
        dag.try_tmv(2.5, &u, &mut out)?;
        let expect = {
            let mut t = fusedml_matrix::reference::dense_tmv(&xh, &u.to_vec_f64());
            fusedml_matrix::reference::scal(2.5, &mut t);
            t
        };
        assert!(
            fusedml_matrix::reference::rel_l2_error(&out.to_vec_f64(), &expect) < 1e-12,
            "dense alpha*X^T u through the DAG compiler"
        );
        assert!(dag.dag_plan_stats().misses >= 1);
        Ok(())
    }
}
