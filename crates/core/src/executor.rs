//! One-call API for evaluating the generic pattern with fused kernels:
//! plans launch parameters from matrix statistics (§3.3), picks the
//! shared-memory or global-memory aggregation variant by the column count,
//! and dispatches to the monomorphized dense kernel ("code generation").

use crate::codegen::try_launch_dense_fused;
use crate::pattern::PatternSpec;
use crate::plancache::{Invalidation, PlanCache, PlanCacheStats};
use crate::sparse_fused::{try_fused_pattern_shared, try_fused_xt_p_shared};
use crate::sparse_large::{try_fused_pattern_global, try_fused_xt_p_global};
use crate::tuner::{try_plan_dense, try_plan_sparse, DensePlan, SparsePlan};
use fusedml_blas::level1::try_fill;
use fusedml_blas::{vector_size_for_mean_nnz, GpuCsr, GpuDense};
use fusedml_gpu_sim::{Counters, DeviceError, Gpu, GpuBuffer, LaunchStats};
use std::cell::RefCell;

/// Fused-kernel execution engine; the counterpart of
/// [`fusedml_blas::BaselineEngine`] with identical accounting so
/// experiments can compare simulated time and events one-to-one.
///
/// ```
/// use fusedml_core::{FusedExecutor, PatternSpec};
/// use fusedml_blas::GpuCsr;
/// use fusedml_gpu_sim::{DeviceSpec, Gpu};
/// use fusedml_matrix::gen::{random_vector, uniform_sparse};
///
/// let gpu = Gpu::new(DeviceSpec::gtx_titan());
/// let x = uniform_sparse(1000, 128, 0.05, 1);
/// let xd = GpuCsr::try_upload(&gpu, "X", &x)?;
/// let y = gpu.try_upload_f64("y", &random_vector(128, 2))?;
/// let w = gpu.try_alloc_f64("w", 128)?;
///
/// let mut exec = FusedExecutor::new(&gpu);
/// exec.try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &y, None, &w)?;
/// assert_eq!(exec.launch_count(), 2); // fill + ONE fused kernel
/// assert!(exec.total_sim_ms() > 0.0);
/// # Ok::<(), fusedml_gpu_sim::DeviceError>(())
/// ```
pub struct FusedExecutor<'g> {
    gpu: &'g Gpu,
    /// Every launch performed since the last [`FusedExecutor::reset`].
    pub launches: Vec<LaunchStats>,
    /// Memoized tuner results (see [`crate::plancache`]); interior
    /// mutability because planning is conceptually a read-only query.
    plan_cache: RefCell<PlanCache>,
}

impl<'g> FusedExecutor<'g> {
    pub fn new(gpu: &'g Gpu) -> Self {
        FusedExecutor {
            gpu,
            launches: Vec::new(),
            plan_cache: RefCell::new(PlanCache::new()),
        }
    }

    pub fn gpu(&self) -> &'g Gpu {
        self.gpu
    }

    /// Total simulated milliseconds since the last reset.
    pub fn total_sim_ms(&self) -> f64 {
        self.launches.iter().map(|l| l.sim_ms()).sum()
    }

    pub fn launch_count(&self) -> usize {
        self.launches.len()
    }

    /// Hardware event counters merged across every launch since the last
    /// reset — the per-phase export benchmark rows aggregate to attribute
    /// speedup changes to a reduction tier.
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

    /// Enable or disable plan memoization on this executor (does not drop
    /// already-cached plans; see [`FusedExecutor::invalidate_plan_cache`]).
    pub fn set_plan_cache(&self, enabled: bool) {
        self.plan_cache.borrow_mut().set_enabled(enabled);
    }

    /// The shared plan cache, so sibling executors layered on top of this
    /// one (the DAG executor) memoize into the same store.
    pub(crate) fn plan_cache_ref(&self) -> &RefCell<PlanCache> {
        &self.plan_cache
    }

    /// Cumulative plan-cache traffic (sparse + dense), independent of
    /// [`FusedExecutor::reset`].
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plan_cache.borrow().stats()
    }

    /// Drop every memoized plan, recording the typed reason.
    pub fn invalidate_plan_cache(&self, reason: Invalidation) {
        self.plan_cache.borrow_mut().invalidate(reason);
    }

    /// Zero the plan-cache counters (cached plans stay valid).
    pub fn reset_plan_stats(&self) {
        self.plan_cache.borrow_mut().reset_stats();
    }

    /// The launch plan the tuner would pick for this sparse matrix, or a
    /// typed (permanent) [`DeviceError`] when the device's resource limits
    /// admit no configuration — the recovery ladder degrades instead of
    /// aborting.
    ///
    /// Memoized: repeated calls for the same shape/VS-bucket return
    /// the cached plan without re-running the BS×C tuner sweep, so an
    /// iterative solver plans once per solve instead of once per
    /// iteration. Planning errors are never cached.
    pub fn try_sparse_plan(&self, x: &GpuCsr) -> Result<SparsePlan, DeviceError> {
        let spec = self.gpu.spec();
        let mu = x.mean_nnz_per_row();
        let (plan, cached) = self
            .plan_cache
            .borrow_mut()
            .sparse_plan(x.rows, x.cols, vector_size_for_mean_nnz(mu), || {
                try_plan_sparse(spec, x.rows, x.cols, mu)
            })
            .map_err(DeviceError::from)?;
        if cached {
            if fusedml_trace::is_enabled() {
                fusedml_trace::instant(
                    "plan",
                    "plan.cache_hit",
                    "host",
                    &[
                        ("kind", "sparse".into()),
                        ("rows", x.rows.into()),
                        ("cols", x.cols.into()),
                        ("vs", plan.vs.into()),
                    ],
                );
            }
            return Ok(plan);
        }
        if fusedml_trace::is_enabled() {
            let why = if plan.use_shared_w {
                format!(
                    "w ({} cols) fits the shared-memory aggregation buffer; \
                     VS={} from mean nnz/row {:.1}",
                    x.cols,
                    plan.vs,
                    x.mean_nnz_per_row()
                )
            } else {
                format!(
                    "w ({} cols) exceeds shared memory; aggregating in global memory",
                    x.cols
                )
            };
            fusedml_trace::instant(
                "plan",
                "plan.sparse",
                "host",
                &[
                    ("vs", plan.vs.into()),
                    ("bs", plan.bs.into()),
                    ("grid", plan.grid.into()),
                    ("c", plan.c.into()),
                    ("use_shared_w", plan.use_shared_w.into()),
                    ("occupancy", plan.occupancy.occupancy.into()),
                    ("why", why.as_str().into()),
                ],
            );
        }
        Ok(plan)
    }

    /// The launch plan the tuner would pick for this dense matrix, or a
    /// typed (permanent) [`DeviceError`]. Memoized like
    /// [`FusedExecutor::try_sparse_plan`], keyed by shape.
    pub fn try_dense_plan(&self, x: &GpuDense) -> Result<DensePlan, DeviceError> {
        let spec = self.gpu.spec();
        let (plan, cached) = self
            .plan_cache
            .borrow_mut()
            .dense_plan(x.rows, x.cols, || try_plan_dense(spec, x.rows, x.cols))
            .map_err(DeviceError::from)?;
        if cached {
            if fusedml_trace::is_enabled() {
                fusedml_trace::instant(
                    "plan",
                    "plan.cache_hit",
                    "host",
                    &[
                        ("kind", "dense".into()),
                        ("rows", x.rows.into()),
                        ("cols", x.cols.into()),
                        ("tl", plan.tl.into()),
                    ],
                );
            }
            return Ok(plan);
        }
        if fusedml_trace::is_enabled() {
            let why = if x.cols <= self.gpu.spec().warp_size {
                format!(
                    "n={} <= warp size: maximum block, TL=1 (no sync overhead)",
                    x.cols
                )
            } else {
                format!(
                    "TL={} maximizes resident warps net of wasted-warp and \
                     inter-vector sync penalties",
                    plan.tl
                )
            };
            fusedml_trace::instant(
                "plan",
                "plan.dense",
                "host",
                &[
                    ("vs", plan.vs.into()),
                    ("bs", plan.bs.into()),
                    ("tl", plan.tl.into()),
                    ("grid", plan.grid.into()),
                    ("c", plan.c.into()),
                    ("occupancy", plan.occupancy.occupancy.into()),
                    ("why", why.as_str().into()),
                ],
            );
        }
        Ok(plan)
    }

    /// `w = alpha * X^T (v ⊙ (X y)) + beta * z`, sparse, fully fused
    /// (zero-fill + one fused kernel).
    pub fn try_pattern_sparse(
        &mut self,
        spec: PatternSpec,
        x: &GpuCsr,
        v: Option<&GpuBuffer>,
        y: &GpuBuffer,
        z: Option<&GpuBuffer>,
        w: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        let plan = self.try_sparse_plan(x)?;
        self.try_pattern_sparse_with_plan(&plan, spec, x, v, y, z, w)
    }

    /// Like [`FusedExecutor::try_pattern_sparse`] with an explicit plan (the
    /// Fig. 6 sweep drives this directly).
    #[allow(clippy::too_many_arguments)]
    pub fn try_pattern_sparse_with_plan(
        &mut self,
        plan: &SparsePlan,
        spec: PatternSpec,
        x: &GpuCsr,
        v: Option<&GpuBuffer>,
        y: &GpuBuffer,
        z: Option<&GpuBuffer>,
        w: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        self.launches.push(try_fill(self.gpu, w, 0.0)?);
        let stats = if plan.use_shared_w {
            try_fused_pattern_shared(self.gpu, plan, spec, x, v, y, z, w)?
        } else {
            try_fused_pattern_global(self.gpu, plan, spec, x, v, y, z, w)?
        };
        self.launches.push(stats);
        Ok(())
    }

    /// `w = alpha * X^T y` (Table 1's first instantiation; `y` has row
    /// dimension), fused.
    pub fn try_xt_y_sparse(
        &mut self,
        alpha: f64,
        x: &GpuCsr,
        y: &GpuBuffer,
        w: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        let plan = self.try_sparse_plan(x)?;
        self.launches.push(try_fill(self.gpu, w, 0.0)?);
        let stats = if plan.use_shared_w {
            try_fused_xt_p_shared(self.gpu, &plan, alpha, x, y, w)?
        } else {
            try_fused_xt_p_global(self.gpu, &plan, alpha, x, y, w)?
        };
        self.launches.push(stats);
        Ok(())
    }

    /// `w = alpha * X^T (v ⊙ (X y)) + beta * z`, dense, fused through the
    /// monomorphized (generated) kernel.
    pub fn try_pattern_dense(
        &mut self,
        spec: PatternSpec,
        x: &GpuDense,
        v: Option<&GpuBuffer>,
        y: &GpuBuffer,
        z: Option<&GpuBuffer>,
        w: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        let plan = self.try_dense_plan(x)?;
        self.try_pattern_dense_with_plan(&plan, spec, x, v, y, z, w)
    }

    /// Dense pattern with an explicit plan.
    #[allow(clippy::too_many_arguments)]
    pub fn try_pattern_dense_with_plan(
        &mut self,
        plan: &DensePlan,
        spec: PatternSpec,
        x: &GpuDense,
        v: Option<&GpuBuffer>,
        y: &GpuBuffer,
        z: Option<&GpuBuffer>,
        w: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        self.launches.push(try_fill(self.gpu, w, 0.0)?);
        self.launches
            .push(try_launch_dense_fused(self.gpu, plan, spec, x, v, y, z, w)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::gen::{dense_random, powerlaw_sparse, random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    #[test]
    fn executor_sparse_pattern_end_to_end() {
        let g = gpu();
        let x = uniform_sparse(600, 300, 0.04, 81);
        let y = random_vector(300, 1);
        let v = random_vector(600, 2);
        let z = random_vector(300, 3);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let vd = g.try_upload_f64("v", &v).unwrap();
        let zd = g.try_upload_f64("z", &z).unwrap();
        let wd = g.try_alloc_f64("w", 300).unwrap();
        let mut ex = FusedExecutor::new(&g);
        ex.try_pattern_sparse(
            PatternSpec::full(2.0, 0.5),
            &xd,
            Some(&vd),
            &yd,
            Some(&zd),
            &wd,
        )
        .unwrap();
        let expect = reference::pattern_csr(2.0, &x, Some(&v), &y, 0.5, Some(&z));
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12);
        // Fused path: fill + ONE kernel, versus the baseline's six.
        assert_eq!(ex.launch_count(), 2);
    }

    #[test]
    fn executor_picks_global_variant_for_wide_matrices() {
        let g = gpu();
        let x = powerlaw_sparse(800, 40_000, 6.0, 0.8, 82);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let plan = FusedExecutor::new(&g).try_sparse_plan(&xd).unwrap();
        assert!(!plan.use_shared_w);
        let y = random_vector(40_000, 4);
        let yd = g.try_upload_f64("y", &y).unwrap();
        let wd = g.try_alloc_f64("w", 40_000).unwrap();
        let mut ex = FusedExecutor::new(&g);
        ex.try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
            .unwrap();
        let expect = reference::pattern_csr(1.0, &x, None, &y, 0.0, None);
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-11);
    }

    #[test]
    fn executor_xt_y_matches_reference() {
        let g = gpu();
        let x = uniform_sparse(500, 120, 0.06, 83);
        let yh = random_vector(500, 5);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &yh).unwrap();
        let wd = g.try_alloc_f64("w", 120).unwrap();
        let mut ex = FusedExecutor::new(&g);
        ex.try_xt_y_sparse(3.0, &xd, &yd, &wd).unwrap();
        let mut expect = reference::csr_tmv(&x, &yh);
        reference::scal(3.0, &mut expect);
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn executor_dense_pattern_end_to_end() {
        let g = gpu();
        let x = dense_random(1200, 28, 84);
        let y = random_vector(28, 6);
        let xd = GpuDense::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let wd = g.try_alloc_f64("w", 28).unwrap();
        let mut ex = FusedExecutor::new(&g);
        ex.try_pattern_dense(PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
            .unwrap();
        let expect = reference::pattern_dense(1.0, &x, None, &y, 0.0, None);
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12);
        assert_eq!(ex.launch_count(), 2);
    }

    #[test]
    fn fused_beats_baseline_on_simulated_time() {
        // The headline claim, in miniature: fused sparse X^T(Xy) runs
        // faster in simulated time than the cuSPARSE-style composition.
        let g = gpu();
        let x = uniform_sparse(4000, 512, 0.02, 85);
        let y = random_vector(512, 7);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();

        let wd1 = g.try_alloc_f64("w1", 512).unwrap();
        let mut fused = FusedExecutor::new(&g);
        g.flush_caches();
        fused
            .try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &yd, None, &wd1)
            .unwrap();

        let wd2 = g.try_alloc_f64("w2", 512).unwrap();
        let pd = g.try_alloc_f64("p", 4000).unwrap();
        let mut base =
            fusedml_blas::BaselineEngine::try_new(&g, fusedml_blas::Flavor::CuLibs).unwrap();
        g.flush_caches();
        base.try_pattern_sparse(1.0, &xd, None, &yd, 0.0, None, &wd2, &pd)
            .unwrap();

        assert!(
            fused.total_sim_ms() < base.total_sim_ms(),
            "fused {} ms vs baseline {} ms",
            fused.total_sim_ms(),
            base.total_sim_ms()
        );
        // And the results agree.
        assert!(reference::rel_l2_error(&wd1.to_vec_f64(), &wd2.to_vec_f64()) < 1e-11);
    }

    #[test]
    fn repeated_pattern_calls_plan_once() {
        let g = gpu();
        let x = uniform_sparse(2000, 256, 0.03, 90);
        let y = random_vector(256, 8);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let wd = g.try_alloc_f64("w", 256).unwrap();
        let mut ex = FusedExecutor::new(&g);
        ex.set_plan_cache(true); // independent of the process default
        let iterations = 10;
        for _ in 0..iterations {
            ex.try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
                .unwrap();
        }
        let s = ex.plan_stats();
        assert_eq!(s.plans_computed(), 1, "O(1) tuner runs per solve");
        assert_eq!(s.hits, iterations - 1);
        assert_eq!(ex.launch_count(), 2 * iterations as usize);
    }

    #[test]
    fn cached_plan_is_bit_identical_to_fresh_plan() {
        let g = gpu();
        let x = uniform_sparse(3000, 400, 0.02, 91);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let ex = FusedExecutor::new(&g);
        ex.set_plan_cache(true);
        let first = ex.try_sparse_plan(&xd).unwrap();
        let cached = ex.try_sparse_plan(&xd).unwrap();
        ex.set_plan_cache(false);
        let fresh = ex.try_sparse_plan(&xd).unwrap();
        assert_eq!(first, cached);
        assert_eq!(cached, fresh, "a cache hit must equal a fresh tuner run");
    }

    #[test]
    fn disabled_executor_cache_replans_every_call() {
        let g = gpu();
        let x = dense_random(900, 24, 92);
        let xd = GpuDense::try_upload(&g, "x", &x).unwrap();
        let ex = FusedExecutor::new(&g);
        ex.set_plan_cache(false);
        for _ in 0..3 {
            ex.try_dense_plan(&xd).unwrap();
        }
        let s = ex.plan_stats();
        assert_eq!((s.hits, s.plans_computed()), (0, 3));
    }

    #[test]
    fn invalidation_forces_replan() {
        let g = gpu();
        let x = uniform_sparse(1000, 200, 0.04, 93);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let ex = FusedExecutor::new(&g);
        ex.set_plan_cache(true);
        ex.try_sparse_plan(&xd).unwrap();
        ex.invalidate_plan_cache(crate::plancache::Invalidation::MatrixChanged);
        ex.try_sparse_plan(&xd).unwrap();
        let s = ex.plan_stats();
        assert_eq!(s.misses, 2, "post-invalidation call re-runs the tuner");
        assert!(s.invalidations > 0);
    }
}
