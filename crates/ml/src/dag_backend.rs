//! DAG-compiled execution backend.
//!
//! [`DagEngine`], the matrix engine of [`DagBackend`], routes the
//! Equation-1 pattern and `alpha * X^T y` evaluations through the operator-DAG fusion compiler
//! ([`fusedml_core::fusion`]) instead of calling the hand-fused kernels
//! directly: each evaluation is expressed as a [`Dag`], the compiler
//! enumerates and prices candidate fusion plans, and the selected plan is
//! memoized in the plan cache under the DAG's structural fingerprint. For
//! the Equation-1 chain the selected plan drives the exact same fused
//! kernels as [`FusedBackend`](crate::ops::FusedBackend), so solvers are
//! numerically identical across the two backends; what changes is *who
//! decides* the kernel grouping — a cost model over the DAG rather than a
//! hard-coded pattern match.

use crate::ops::{BackendStats, DeviceBackend, DeviceMatrix, MatrixEngine, UploadEngine};
use fusedml_core::{Dag, DagExecutor, DagInputs, DagMatrix, PatternSpec, PlanCacheStats};
use fusedml_gpu_sim::{DeviceError, Gpu, GpuBuffer};

/// Pattern and transpose-MV evaluations through the DAG fusion compiler;
/// `X y` stays operator-level (the `ours-end2end` shape with a compiler
/// in the loop).
pub struct DagEngine<'g> {
    matrix: DeviceMatrix,
    exec: DagExecutor<'g>,
}

/// The device backend whose products go through the DAG compiler.
pub type DagBackend<'g> = DeviceBackend<'g, DagEngine<'g>>;

impl<'g> UploadEngine<'g> for DagEngine<'g> {
    fn try_build(gpu: &'g Gpu, matrix: DeviceMatrix) -> Result<(Self, GpuBuffer), DeviceError> {
        let exec = DagExecutor::try_new(gpu)?;
        Ok((
            DagEngine { matrix, exec },
            gpu.try_alloc_f64("dagbackend.scalar", 1)?,
        ))
    }
}

impl DagEngine<'_> {
    /// Compile and run `dag` over the matrix, charging its launches as
    /// one batch.
    fn try_run(
        &mut self,
        stats: &mut BackendStats,
        dag: &Dag,
        inputs: &DagInputs,
        out: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        let matrix = match &self.matrix {
            DeviceMatrix::Sparse(x) => DagMatrix::Sparse(x),
            DeviceMatrix::Dense(x) => DagMatrix::Dense(x),
        };
        let res = self.exec.try_run(dag, &matrix, inputs, out);
        stats.absorb(self.exec.total_sim_ms(), self.exec.launches());
        self.exec.reset();
        res.map(drop)
    }
}

impl MatrixEngine for DagEngine<'_> {
    fn rows(&self) -> usize {
        self.matrix.rows()
    }

    fn cols(&self) -> usize {
        self.matrix.cols()
    }

    fn try_pattern(
        &mut self,
        stats: &mut BackendStats,
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
        let mut inputs = DagInputs::new().vector("y", y);
        if let Some(v) = v {
            inputs = inputs.vector("v", v);
        }
        if let Some(z) = z {
            inputs = inputs.vector("z", z);
        }
        self.try_run(stats, &Dag::equation1(spec), &inputs, w)
    }

    fn try_mv(
        &mut self,
        stats: &mut BackendStats,
        y: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        stats.charge(&self.matrix.try_mv(self.exec.gpu(), y, out)?);
        Ok(())
    }

    fn try_tmv(
        &mut self,
        stats: &mut BackendStats,
        alpha: f64,
        u: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        let inputs = DagInputs::new().vector("y", u);
        self.try_run(stats, &Dag::xt_y(alpha), &inputs, out)
    }

    fn plan_stats(&self) -> PlanCacheStats {
        self.exec.plan_stats()
    }

    fn reset_plan_stats(&mut self) {
        self.exec.reset_plan_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lr_cg::{try_lr_cg, LrCgOptions};
    use crate::ops::{Backend, FusedBackend};
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
        let mut fused = FusedBackend::try_new_sparse(&g1, &x).unwrap();
        let r_fused = try_lr_cg(&mut fused, &y, opts).unwrap();

        let g2 = gpu();
        let mut dag = DagBackend::try_new_sparse(&g2, &x).unwrap();
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
        let mut dag = DagBackend::try_new_sparse(&g, &x).unwrap();
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
        let s = dag.engine().exec.dag_plan_stats();
        // One plan for the init X^T y DAG, one for the iteration DAG.
        assert_eq!(s.misses, 2, "dag stats: {s:?}");
        assert_eq!(s.hits as usize, iters - 1, "dag stats: {s:?}");
    }

    #[test]
    fn dense_tmv_goes_through_the_dag_path() -> Result<(), DeviceError> {
        let g = gpu();
        let xh = fusedml_matrix::gen::dense_random(300, 40, 31);
        let mut dag = DagBackend::try_new_dense(&g, &xh).unwrap();
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
        assert!(dag.engine().exec.dag_plan_stats().misses >= 1);
        Ok(())
    }
}
