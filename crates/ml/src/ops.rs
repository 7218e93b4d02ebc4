//! Execution backends for the ML algorithms.
//!
//! Every algorithm in this crate (Listing 1's LR-CG, logistic regression,
//! SVM, GLM, HITS) is written once against the [`Backend`] trait and can
//! run on:
//! * [`FusedBackend`] — pattern evaluations go through the paper's fused
//!   kernels; BLAS-1 stays operator-level (exactly the `ours-end2end`
//!   configuration of §4.4);
//! * [`BaselineBackend`] — everything operator-level through the
//!   cuBLAS/cuSPARSE-style engine (`cu-end2end`);
//! * [`CpuBackend`] — single-address-space reference implementation with an
//!   analytical MKL-style clock (the CPU rows of Tables 5/6).
//!
//! Backends instrument which Table-1 pattern instantiations execute, which
//! is how the Table 1 experiment regenerates the paper's matrix.

use fusedml_blas::{level1, BaselineEngine, CpuEngine, Flavor, GpuCsr, GpuDense, SpmvStyle};
use fusedml_core::{CpuFusedPattern, FusedExecutor, PatternInstance, PatternSpec, PlanCacheStats};
use fusedml_gpu_sim::{AggregationBreakdown, Counters, DeviceError, Gpu, GpuBuffer, PoolStats};
use fusedml_matrix::{reference, CsrMatrix, DenseMatrix};
use std::collections::BTreeMap;

/// Cumulative execution statistics of a backend.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackendStats {
    /// Simulated (or modelled) milliseconds of device/CPU compute.
    pub sim_ms: f64,
    /// Kernel launches (0 for the CPU backend).
    pub launches: usize,
    /// How many times each Table-1 instantiation was evaluated.
    pub pattern_counts: BTreeMap<&'static str, usize>,
    /// Hardware event counters merged over every launch (all-zero for the
    /// CPU backend, which has no counted microarchitecture).
    pub counters: Counters,
    /// Time-weighted achieved-occupancy integral in milliseconds: the sum
    /// of `occupancy * sim_ms` over launches. Divide by [`Self::sim_ms`]
    /// (see [`Self::mean_occupancy`]) for the mean occupancy of the run.
    pub occupancy_ms: f64,
    /// Launch-plan cache traffic of the run (all-zero for backends without
    /// a memoizing planner: the baseline engine and the CPU tier).
    pub plan: PlanCacheStats,
    /// Device buffer-pool traffic attributable to this backend since its
    /// construction or last `reset_stats` (all-zero on the CPU tier).
    pub pool: PoolStats,
}

impl BackendStats {
    pub(crate) fn record_instance(&mut self, inst: PatternInstance) {
        *self.pattern_counts.entry(inst.formula()).or_insert(0) += 1;
    }

    /// Where this run's reduction work landed in the §3.1 aggregation
    /// hierarchy (register/shuffle vs. shared vs. global-atomic).
    pub fn aggregation_breakdown(&self) -> AggregationBreakdown {
        self.counters.aggregation_breakdown()
    }

    /// Time-weighted mean achieved occupancy over the run's launches, in
    /// [0, 1]; 0 for the CPU backend (no occupancy concept).
    pub fn mean_occupancy(&self) -> f64 {
        if self.sim_ms > 0.0 {
            (self.occupancy_ms / self.sim_ms).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// A device- (or host-) resident matrix plus the vector arithmetic needed
/// by the iterative algorithms.
///
/// Every device operation is fallible: it surfaces [`DeviceError`]s
/// (injected faults, capacity exhaustion, watchdog trips) to the caller,
/// which is how the runtime's recovery driver learns to retry or degrade.
/// The CPU backend never fails.
pub trait Backend {
    /// Backend-native vector handle.
    type Vector;

    fn rows(&self) -> usize;
    fn cols(&self) -> usize;

    fn try_from_host(&mut self, name: &str, data: &[f64]) -> Result<Self::Vector, DeviceError>;
    fn try_zeros(&mut self, name: &str, len: usize) -> Result<Self::Vector, DeviceError>;
    fn to_host(&self, v: &Self::Vector) -> Vec<f64>;

    /// `w = alpha * X^T (v ⊙ (X y)) + beta * z` — Equation 1.
    fn try_pattern(
        &mut self,
        spec: PatternSpec,
        v: Option<&Self::Vector>,
        y: &Self::Vector,
        z: Option<&Self::Vector>,
        w: &mut Self::Vector,
    ) -> Result<(), DeviceError>;

    /// `out = X * y` (length m).
    fn try_mv(&mut self, y: &Self::Vector, out: &mut Self::Vector) -> Result<(), DeviceError>;

    /// `out = alpha * X^T * u` (length n) — Table 1's `alpha * X^T y`.
    fn try_tmv(
        &mut self,
        alpha: f64,
        u: &Self::Vector,
        out: &mut Self::Vector,
    ) -> Result<(), DeviceError>;

    fn try_axpy(
        &mut self,
        a: f64,
        x: &Self::Vector,
        y: &mut Self::Vector,
    ) -> Result<(), DeviceError>;
    fn try_scal(&mut self, a: f64, x: &mut Self::Vector) -> Result<(), DeviceError>;
    fn try_copy(&mut self, src: &Self::Vector, dst: &mut Self::Vector) -> Result<(), DeviceError>;
    fn try_ewmul(
        &mut self,
        x: &Self::Vector,
        y: &Self::Vector,
        out: &mut Self::Vector,
    ) -> Result<(), DeviceError>;
    fn try_dot(&mut self, x: &Self::Vector, y: &Self::Vector) -> Result<f64, DeviceError>;
    fn try_nrm2_sq(&mut self, x: &Self::Vector) -> Result<f64, DeviceError>;

    /// Element-wise map `out[i] = f(x[i], y[i])` — the per-element link /
    /// loss-derivative computations of LogReg/SVM/GLM (a single fused
    /// element-wise kernel on device backends).
    fn try_map2(
        &mut self,
        x: &Self::Vector,
        y: &Self::Vector,
        out: &mut Self::Vector,
        f: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> Result<(), DeviceError>;

    fn stats(&self) -> BackendStats;
    fn reset_stats(&mut self);
}

/// The matrix a device backend operates on.
pub enum DeviceMatrix {
    Sparse(GpuCsr),
    Dense(GpuDense),
}

impl DeviceMatrix {
    pub fn rows(&self) -> usize {
        match self {
            DeviceMatrix::Sparse(x) => x.rows,
            DeviceMatrix::Dense(x) => x.rows,
        }
    }

    pub fn cols(&self) -> usize {
        match self {
            DeviceMatrix::Sparse(x) => x.cols,
            DeviceMatrix::Dense(x) => x.cols,
        }
    }

    pub fn size_bytes(&self) -> u64 {
        match self {
            DeviceMatrix::Sparse(x) => x.size_bytes(),
            DeviceMatrix::Dense(x) => x.size_bytes(),
        }
    }
}

// ---------------------------------------------------------------------
// Fused backend
// ---------------------------------------------------------------------

/// Pattern evaluations through the fused kernels; BLAS-1 operator-level.
pub struct FusedBackend<'g> {
    gpu: &'g Gpu,
    matrix: DeviceMatrix,
    exec: FusedExecutor<'g>,
    scalar: GpuBuffer,
    stats: BackendStats,
    /// Pool snapshot at construction / last reset; `stats()` reports the
    /// delta so backends sharing one device don't claim each other's
    /// traffic.
    pool_base: PoolStats,
}

impl<'g> FusedBackend<'g> {
    /// Upload and wrap a sparse matrix, reporting device faults (the
    /// runtime's degradation ladder catches these at construction).
    pub fn try_new_sparse(gpu: &'g Gpu, x: &CsrMatrix) -> Result<Self, DeviceError> {
        Self::try_from_matrix(gpu, DeviceMatrix::Sparse(GpuCsr::try_upload(gpu, "X", x)?))
    }

    /// Upload and wrap a dense matrix, reporting device faults.
    pub fn try_new_dense(gpu: &'g Gpu, x: &DenseMatrix) -> Result<Self, DeviceError> {
        Self::try_from_matrix(gpu, DeviceMatrix::Dense(GpuDense::try_upload(gpu, "X", x)?))
    }

    pub fn try_from_matrix(gpu: &'g Gpu, matrix: DeviceMatrix) -> Result<Self, DeviceError> {
        Ok(FusedBackend {
            gpu,
            matrix,
            exec: FusedExecutor::new(gpu),
            scalar: gpu.try_alloc_f64("fused.scalar", 1)?,
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

    fn absorb_exec(&mut self) {
        self.stats.sim_ms += self.exec.total_sim_ms();
        self.stats.launches += self.exec.launch_count();
        self.stats.counters.merge(&self.exec.counters_total());
        for l in &self.exec.launches {
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

impl<'g> Backend for FusedBackend<'g> {
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
        let res = match &self.matrix {
            DeviceMatrix::Sparse(x) => self.exec.try_pattern_sparse(spec, x, v, y, z, w),
            DeviceMatrix::Dense(x) => self.exec.try_pattern_dense(spec, x, v, y, z, w),
        };
        // Launches performed before the fault still cost simulated time.
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
        match &self.matrix {
            DeviceMatrix::Sparse(x) => {
                let res = self.exec.try_xt_y_sparse(alpha, x, u, out);
                self.absorb_exec();
                res?;
            }
            DeviceMatrix::Dense(x) => {
                // The paper does not fuse dense X^T y (cuBLAS is already
                // good there, §4): operator-level.
                for s in fusedml_blas::try_gemv_t(self.gpu, x, u, out)? {
                    self.charge(s);
                }
                if alpha != 1.0 {
                    let s = level1::try_scal(self.gpu, alpha, out)?;
                    self.charge(s);
                }
            }
        }
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
        let s = try_device_map2(self.gpu, x, y, out, f)?;
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

/// Element-wise `out[i] = f(x[i], y[i])` device kernel shared by the GPU
/// backends (models the single fused element-wise kernel a real system
/// would generate for link functions). `pub` so out-of-crate backends —
/// the runtime's streamed backend — reuse the same kernel instead of
/// forking it.
pub fn try_device_map2(
    gpu: &Gpu,
    x: &GpuBuffer,
    y: &GpuBuffer,
    out: &GpuBuffer,
    f: &(dyn Fn(f64, f64) -> f64 + Sync),
) -> Result<fusedml_gpu_sim::LaunchStats, DeviceError> {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), out.len());
    let n = x.len();
    let grid = n.div_ceil(256).clamp(1, 1024);
    gpu.try_launch(
        "map2",
        fusedml_gpu_sim::LaunchConfig::new(grid, 256).with_regs(20),
        |blk| {
            let grid_threads = blk.grid_dim() * blk.block_dim();
            blk.each_warp(|w| {
                let mut base = w.gtid(0);
                while base < n {
                    let xs = w.load_f64(x, |lane| (base + lane < n).then_some(base + lane));
                    let ys = w.load_f64(y, |lane| (base + lane < n).then_some(base + lane));
                    w.flops(4 * (n - base).min(32) as u64);
                    w.store_f64(out, |lane| {
                        (base + lane < n).then(|| (base + lane, f(xs[lane], ys[lane])))
                    });
                    base += grid_threads;
                }
            });
        },
    )
}

// ---------------------------------------------------------------------
// Baseline backend
// ---------------------------------------------------------------------

/// How the baseline handles the transposed products inside an iterative
/// algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransposePolicy {
    /// Opaque library semantics: the transposed SpMV rebuilds `X^T` on
    /// every call (what the pattern-level figures measure).
    PerCall,
    /// The hand-optimized pipeline: `csr2csc` once, keep both `X` and
    /// `X^T` on the device (paying the memory), reuse across iterations —
    /// the amortization strategy Fig. 2's second axis studies.
    CachedOnce,
}

/// Everything operator-level through [`BaselineEngine`] (`cu-end2end`).
pub struct BaselineBackend<'g> {
    gpu: &'g Gpu,
    matrix: DeviceMatrix,
    engine: BaselineEngine<'g>,
    policy: TransposePolicy,
    /// Cached `X^T` under [`TransposePolicy::CachedOnce`].
    xt: Option<GpuCsr>,
    /// Scratch of length m for pattern intermediates.
    tmp_p: GpuBuffer,
    stats: BackendStats,
    /// Pool snapshot at construction / last reset (see `FusedBackend`).
    pool_base: PoolStats,
}

impl<'g> BaselineBackend<'g> {
    /// Upload and wrap a sparse matrix, reporting device faults.
    pub fn try_new_sparse(gpu: &'g Gpu, x: &CsrMatrix) -> Result<Self, DeviceError> {
        Self::try_from_matrix(gpu, DeviceMatrix::Sparse(GpuCsr::try_upload(gpu, "X", x)?))
    }

    /// Upload and wrap a dense matrix, reporting device faults.
    pub fn try_new_dense(gpu: &'g Gpu, x: &DenseMatrix) -> Result<Self, DeviceError> {
        Self::try_from_matrix(gpu, DeviceMatrix::Dense(GpuDense::try_upload(gpu, "X", x)?))
    }

    pub fn try_from_matrix(gpu: &'g Gpu, matrix: DeviceMatrix) -> Result<Self, DeviceError> {
        let tmp_p = gpu.try_alloc_f64("baseline.tmp_p", matrix.rows())?;
        Ok(BaselineBackend {
            gpu,
            matrix,
            engine: BaselineEngine::try_new(gpu, Flavor::CuLibs)?,
            policy: TransposePolicy::PerCall,
            xt: None,
            tmp_p,
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

    /// Switch the transposed-product strategy (see [`TransposePolicy`]).
    pub fn with_transpose_policy(mut self, policy: TransposePolicy) -> Self {
        self.policy = policy;
        self
    }

    fn absorb(&mut self) {
        self.stats.sim_ms += self.engine.total_sim_ms();
        self.stats.launches += self.engine.launch_count();
        self.stats.counters.merge(&self.engine.counters_total());
        for l in &self.engine.launches {
            self.stats.occupancy_ms += l.occupancy.occupancy * l.sim_ms();
        }
        self.engine.reset();
    }

    /// `w = X^T * u` for the sparse matrix, honoring the policy.
    fn sparse_tmv_into(&mut self, u: &GpuBuffer, w: &GpuBuffer) -> Result<(), DeviceError> {
        let DeviceMatrix::Sparse(x) = &self.matrix else {
            unreachable!("sparse_tmv_into on dense matrix")
        };
        let x = x.clone();
        match self.policy {
            TransposePolicy::PerCall => {
                self.engine.try_csrmv_t(&x, u, w)?;
            }
            TransposePolicy::CachedOnce => {
                let xt = if let Some(xt) = &self.xt {
                    xt.clone()
                } else {
                    let (xt, launches) = fusedml_blas::try_csr2csc_device(self.gpu, &x)?;
                    for l in &launches {
                        self.stats.sim_ms += l.sim_ms();
                        self.stats.launches += 1;
                        self.stats.counters.merge(&l.counters);
                        self.stats.occupancy_ms += l.occupancy.occupancy * l.sim_ms();
                    }
                    self.xt.insert(xt).clone()
                };
                let s = fusedml_blas::try_csrmv_t_pretransposed(self.gpu, &xt, u, w)?;
                self.stats.sim_ms += s.sim_ms();
                self.stats.launches += 1;
                self.stats.counters.merge(&s.counters);
                self.stats.occupancy_ms += s.occupancy.occupancy * s.sim_ms();
            }
        }
        Ok(())
    }
}

impl<'g> Backend for BaselineBackend<'g> {
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
        let tmp = self.tmp_p.clone();
        let res = (|| -> Result<(), DeviceError> {
            match &self.matrix {
                DeviceMatrix::Sparse(x) => {
                    let x = x.clone();
                    self.engine.try_csrmv(&x, y, &tmp)?;
                    if let Some(v) = v {
                        self.engine.try_ewmul(&tmp, v, &tmp)?;
                    }
                    self.absorb();
                    self.sparse_tmv_into(&tmp, w)?;
                    if spec.alpha != 1.0 {
                        self.engine.try_scal(spec.alpha, w)?;
                    }
                    if let Some(z) = z {
                        self.engine.try_axpy(spec.beta, z, w)?;
                    }
                }
                DeviceMatrix::Dense(x) => {
                    let x = x.clone();
                    self.engine
                        .try_pattern_dense(spec.alpha, &x, v, y, spec.beta, z, w, &tmp)?;
                }
            }
            Ok(())
        })();
        self.absorb();
        res?;
        self.stats.record_instance(spec.instance());
        Ok(())
    }

    fn try_mv(&mut self, y: &GpuBuffer, out: &mut GpuBuffer) -> Result<(), DeviceError> {
        let res = match &self.matrix {
            DeviceMatrix::Sparse(x) => {
                let x = x.clone();
                self.engine.try_csrmv(&x, y, out)
            }
            DeviceMatrix::Dense(x) => {
                let x = x.clone();
                self.engine.try_gemv(&x, y, out)
            }
        };
        self.absorb();
        res
    }

    fn try_tmv(
        &mut self,
        alpha: f64,
        u: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        let res = (|| -> Result<(), DeviceError> {
            match &self.matrix {
                DeviceMatrix::Sparse(_) => {
                    self.sparse_tmv_into(u, out)?;
                }
                DeviceMatrix::Dense(x) => {
                    let x = x.clone();
                    self.engine.try_gemv_t(&x, u, out)?;
                }
            }
            if alpha != 1.0 {
                self.engine.try_scal(alpha, out)?;
            }
            Ok(())
        })();
        self.absorb();
        res?;
        self.stats.record_instance(PatternInstance::XtY);
        Ok(())
    }

    fn try_axpy(&mut self, a: f64, x: &GpuBuffer, y: &mut GpuBuffer) -> Result<(), DeviceError> {
        let res = self.engine.try_axpy(a, x, y);
        self.absorb();
        res
    }

    fn try_scal(&mut self, a: f64, x: &mut GpuBuffer) -> Result<(), DeviceError> {
        let res = self.engine.try_scal(a, x);
        self.absorb();
        res
    }

    fn try_copy(&mut self, src: &GpuBuffer, dst: &mut GpuBuffer) -> Result<(), DeviceError> {
        let res = self.engine.try_copy(src, dst);
        self.absorb();
        res
    }

    fn try_ewmul(
        &mut self,
        x: &GpuBuffer,
        y: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        let res = self.engine.try_ewmul(x, y, out);
        self.absorb();
        res
    }

    fn try_dot(&mut self, x: &GpuBuffer, y: &GpuBuffer) -> Result<f64, DeviceError> {
        let res = self.engine.try_dot(x, y);
        self.absorb();
        res
    }

    fn try_nrm2_sq(&mut self, x: &GpuBuffer) -> Result<f64, DeviceError> {
        let res = self.engine.try_nrm2_sq(x);
        self.absorb();
        res
    }

    fn try_map2(
        &mut self,
        x: &GpuBuffer,
        y: &GpuBuffer,
        out: &mut GpuBuffer,
        f: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> Result<(), DeviceError> {
        let s = try_device_map2(self.gpu, x, y, out, f)?;
        self.stats.sim_ms += s.sim_ms();
        self.stats.launches += 1;
        self.stats.counters.merge(&s.counters);
        self.stats.occupancy_ms += s.occupancy.occupancy * s.sim_ms();
        Ok(())
    }

    fn stats(&self) -> BackendStats {
        let mut s = self.stats.clone();
        s.pool = self.gpu.pool_stats().delta_since(&self.pool_base);
        s
    }

    fn reset_stats(&mut self) {
        self.stats = BackendStats::default();
        self.pool_base = self.gpu.pool_stats();
    }
}

// ---------------------------------------------------------------------
// CPU backend
// ---------------------------------------------------------------------

/// Host matrix for the CPU backend.
pub enum HostMatrix {
    Sparse(CsrMatrix),
    Dense(DenseMatrix),
}

/// Reference CPU execution with an analytical MKL-style clock.
///
/// By default pattern evaluations run the two-scan operator-by-operator
/// reference path. [`Self::with_fused_execution`] opts the backend into
/// the real fused CPU kernels (`fusedml_core::CpuFusedPattern`: SIMD
/// dispatch + deterministic multithreading), which is how the runtime's
/// recovery ladder can run its Cpu tier fused.
pub struct CpuBackend {
    matrix: HostMatrix,
    clock: CpuEngine,
    stats: BackendStats,
    fused: Option<CpuFusedPattern>,
}

impl CpuBackend {
    pub fn new_sparse(x: CsrMatrix) -> Self {
        CpuBackend {
            matrix: HostMatrix::Sparse(x),
            clock: CpuEngine::mkl_8threads(),
            stats: BackendStats::default(),
            fused: None,
        }
    }

    pub fn new_dense(x: DenseMatrix) -> Self {
        CpuBackend {
            matrix: HostMatrix::Dense(x),
            clock: CpuEngine::mkl_8threads(),
            stats: BackendStats::default(),
            fused: None,
        }
    }

    /// Run pattern evaluations through the fused single-pass CPU kernels
    /// with `threads` worker threads (runtime-dispatched executor; results
    /// are deterministic across thread counts). The analytical clock
    /// charges the one-pass fused roofline instead of the two-scan one.
    pub fn with_fused_execution(mut self, threads: usize) -> Self {
        self.fused = Some(CpuFusedPattern::new(threads));
        self
    }

    /// Name of the fused executor in use ("scalar", "avx2"), `None` when
    /// the backend runs the unfused reference path.
    pub fn fused_executor_name(&self) -> Option<&'static str> {
        self.fused.map(|f| f.executor_name())
    }

    fn absorb(&mut self) {
        self.stats.sim_ms += self.clock.total_ms;
        self.clock.reset();
    }
}

impl Backend for CpuBackend {
    type Vector = Vec<f64>;

    fn rows(&self) -> usize {
        match &self.matrix {
            HostMatrix::Sparse(x) => x.rows(),
            HostMatrix::Dense(x) => x.rows(),
        }
    }

    fn cols(&self) -> usize {
        match &self.matrix {
            HostMatrix::Sparse(x) => x.cols(),
            HostMatrix::Dense(x) => x.cols(),
        }
    }

    fn try_from_host(&mut self, _name: &str, data: &[f64]) -> Result<Vec<f64>, DeviceError> {
        Ok(data.to_vec())
    }

    fn try_zeros(&mut self, _name: &str, len: usize) -> Result<Vec<f64>, DeviceError> {
        Ok(vec![0.0; len])
    }

    fn to_host(&self, v: &Vec<f64>) -> Vec<f64> {
        v.clone()
    }

    fn try_pattern(
        &mut self,
        spec: PatternSpec,
        v: Option<&Vec<f64>>,
        y: &Vec<f64>,
        z: Option<&Vec<f64>>,
        w: &mut Vec<f64>,
    ) -> Result<(), DeviceError> {
        if let Some(fused) = self.fused {
            match &self.matrix {
                HostMatrix::Sparse(x) => {
                    self.clock.pattern_sparse_fused_ms(
                        x.rows(),
                        x.cols(),
                        x.nnz(),
                        spec.with_v,
                        spec.with_z,
                        spec.alpha != 1.0,
                    );
                    w.resize(x.cols(), 0.0);
                    fused.pattern_csr(
                        spec,
                        x,
                        v.map(|v| v.as_slice()),
                        y,
                        z.map(|z| z.as_slice()),
                        w,
                    );
                }
                HostMatrix::Dense(x) => {
                    self.clock.pattern_dense_fused_ms(
                        x.rows(),
                        x.cols(),
                        spec.with_v,
                        spec.with_z,
                        spec.alpha != 1.0,
                    );
                    w.resize(x.cols(), 0.0);
                    fused.pattern_dense(
                        spec,
                        x,
                        v.map(|v| v.as_slice()),
                        y,
                        z.map(|z| z.as_slice()),
                        w,
                    );
                }
            }
            self.absorb();
            self.stats.record_instance(spec.instance());
            return Ok(());
        }
        *w = match &self.matrix {
            HostMatrix::Sparse(x) => {
                self.clock.pattern_sparse_ms(
                    x.rows(),
                    x.cols(),
                    x.nnz(),
                    spec.with_v,
                    spec.with_z,
                    spec.alpha != 1.0,
                );
                reference::pattern_csr(
                    spec.alpha,
                    x,
                    v.map(|v| v.as_slice()),
                    y,
                    spec.beta,
                    z.map(|z| z.as_slice()),
                )
            }
            HostMatrix::Dense(x) => {
                self.clock.pattern_dense_ms(
                    x.rows(),
                    x.cols(),
                    spec.with_v,
                    spec.with_z,
                    spec.alpha != 1.0,
                );
                reference::pattern_dense(
                    spec.alpha,
                    x,
                    v.map(|v| v.as_slice()),
                    y,
                    spec.beta,
                    z.map(|z| z.as_slice()),
                )
            }
        };
        self.absorb();
        self.stats.record_instance(spec.instance());
        Ok(())
    }

    fn try_mv(&mut self, y: &Vec<f64>, out: &mut Vec<f64>) -> Result<(), DeviceError> {
        *out = match &self.matrix {
            HostMatrix::Sparse(x) => {
                self.clock.csrmv_ms(x.nnz(), x.rows());
                reference::csr_mv(x, y)
            }
            HostMatrix::Dense(x) => {
                self.clock.gemv_ms(x.rows(), x.cols());
                reference::dense_mv(x, y)
            }
        };
        self.absorb();
        Ok(())
    }

    fn try_tmv(&mut self, alpha: f64, u: &Vec<f64>, out: &mut Vec<f64>) -> Result<(), DeviceError> {
        let mut w = match &self.matrix {
            HostMatrix::Sparse(x) => {
                self.clock.csrmv_t_ms(x.nnz(), x.rows(), x.cols());
                reference::csr_tmv(x, u)
            }
            HostMatrix::Dense(x) => {
                self.clock.gemv_t_ms(x.rows(), x.cols());
                reference::dense_tmv(x, u)
            }
        };
        if alpha != 1.0 {
            reference::scal(alpha, &mut w);
        }
        *out = w;
        self.absorb();
        self.stats.record_instance(PatternInstance::XtY);
        Ok(())
    }

    fn try_axpy(&mut self, a: f64, x: &Vec<f64>, y: &mut Vec<f64>) -> Result<(), DeviceError> {
        self.clock.axpy_ms(x.len());
        reference::axpy(a, x, y);
        self.absorb();
        Ok(())
    }

    fn try_scal(&mut self, a: f64, x: &mut Vec<f64>) -> Result<(), DeviceError> {
        self.clock.scal_ms(x.len());
        reference::scal(a, x);
        self.absorb();
        Ok(())
    }

    fn try_copy(&mut self, src: &Vec<f64>, dst: &mut Vec<f64>) -> Result<(), DeviceError> {
        self.clock.axpy_ms(src.len());
        dst.clone_from(src);
        self.absorb();
        Ok(())
    }

    fn try_ewmul(
        &mut self,
        x: &Vec<f64>,
        y: &Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<(), DeviceError> {
        self.clock.ewmul_ms(x.len());
        *out = x.iter().zip(y).map(|(a, b)| a * b).collect();
        self.absorb();
        Ok(())
    }

    fn try_dot(&mut self, x: &Vec<f64>, y: &Vec<f64>) -> Result<f64, DeviceError> {
        self.clock.dot_ms(x.len());
        let d = reference::dot(x, y);
        self.absorb();
        Ok(d)
    }

    fn try_nrm2_sq(&mut self, x: &Vec<f64>) -> Result<f64, DeviceError> {
        self.clock.dot_ms(x.len());
        let d = reference::norm2_sq(x);
        self.absorb();
        Ok(d)
    }

    fn try_map2(
        &mut self,
        x: &Vec<f64>,
        y: &Vec<f64>,
        out: &mut Vec<f64>,
        f: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> Result<(), DeviceError> {
        self.clock.ewmul_ms(x.len());
        *out = x.iter().zip(y).map(|(a, b)| f(*a, *b)).collect();
        self.absorb();
        Ok(())
    }

    fn stats(&self) -> BackendStats {
        self.stats.clone()
    }

    fn reset_stats(&mut self) {
        self.stats = BackendStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::gen::{random_vector, uniform_sparse};

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    #[test]
    fn backends_agree_on_pattern() -> Result<(), DeviceError> {
        let g = gpu();
        let x = uniform_sparse(150, 80, 0.1, 91);
        let y = random_vector(80, 1);
        let v = random_vector(150, 2);
        let spec = PatternSpec::xtvxy();

        let mut fused = FusedBackend::new_sparse(&g, &x);
        let yd = fused.try_from_host("y", &y)?;
        let vd = fused.try_from_host("v", &v)?;
        let mut wd = fused.try_zeros("w", 80)?;
        fused.try_pattern(spec, Some(&vd), &yd, None, &mut wd)?;
        let w_fused = fused.to_host(&wd);

        let mut base = BaselineBackend::new_sparse(&g, &x);
        let yd = base.try_from_host("y", &y)?;
        let vd = base.try_from_host("v", &v)?;
        let mut wd = base.try_zeros("w", 80)?;
        base.try_pattern(spec, Some(&vd), &yd, None, &mut wd)?;
        let w_base = base.to_host(&wd);

        let mut cpu = CpuBackend::new_sparse(x);
        let yv = cpu.try_from_host("y", &y)?;
        let vv = cpu.try_from_host("v", &v)?;
        let mut wv = cpu.try_zeros("w", 80)?;
        cpu.try_pattern(spec, Some(&vv), &yv, None, &mut wv)?;

        assert!(reference::rel_l2_error(&w_fused, &wv) < 1e-11);
        assert!(reference::rel_l2_error(&w_base, &wv) < 1e-11);
        assert_eq!(fused.stats().pattern_counts[spec.instance().formula()], 1);
        assert!(fused.stats().sim_ms > 0.0);
        assert!(cpu.stats().sim_ms > 0.0);
        Ok(())
    }

    #[test]
    fn fused_cpu_backend_matches_reference_and_models_cheaper() -> Result<(), DeviceError> {
        let x = uniform_sparse(200, 90, 0.1, 95);
        let y = random_vector(90, 6);
        let v = random_vector(200, 7);
        let spec = PatternSpec::xtvxy();

        let mut plain = CpuBackend::new_sparse(x.clone());
        assert!(plain.fused_executor_name().is_none());
        let yv = plain.try_from_host("y", &y)?;
        let vv = plain.try_from_host("v", &v)?;
        let mut wp = plain.try_zeros("w", 90)?;
        plain.try_pattern(spec, Some(&vv), &yv, None, &mut wp)?;

        let mut fused = CpuBackend::new_sparse(x).with_fused_execution(4);
        assert!(fused.fused_executor_name().is_some());
        let yv = fused.try_from_host("y", &y)?;
        let vv = fused.try_from_host("v", &v)?;
        let mut wf = fused.try_zeros("w", 90)?;
        fused.try_pattern(spec, Some(&vv), &yv, None, &mut wf)?;

        assert!(reference::rel_l2_error(&wf, &wp) < 1e-12);
        // The analytical clock charges the one-pass roofline: strictly
        // cheaper than the two-scan reference path.
        assert!(fused.stats().sim_ms < plain.stats().sim_ms);
        Ok(())
    }

    #[test]
    fn fused_cpu_backend_runs_lr_cg_to_the_same_answer() {
        let x = uniform_sparse(120, 40, 0.15, 96);
        let labels = random_vector(120, 8);
        let opts = crate::LrCgOptions {
            eps: 0.001,
            tolerance: 0.0,
            max_iterations: 8,
        };
        let mut plain = CpuBackend::new_sparse(x.clone());
        let a = crate::lr_cg(&mut plain, &labels, opts);
        let mut fused = CpuBackend::new_sparse(x).with_fused_execution(2);
        let b = crate::lr_cg(&mut fused, &labels, opts);
        assert_eq!(a.iterations, b.iterations);
        assert!(reference::rel_l2_error(&b.weights, &a.weights) < 1e-9);
    }

    #[test]
    fn blas1_roundtrip_on_all_backends() -> Result<(), DeviceError> {
        let g = gpu();
        let x = uniform_sparse(20, 10, 0.3, 92);

        fn exercise<B: Backend>(b: &mut B) -> Result<(f64, Vec<f64>), DeviceError> {
            let xs = b.try_from_host("x", &[1.0, 2.0, 3.0, 4.0])?;
            let mut ys = b.try_from_host("y", &[4.0, 3.0, 2.0, 1.0])?;
            b.try_axpy(2.0, &xs, &mut ys)?; // [6,7,8,9]
            b.try_scal(0.5, &mut ys)?; // [3,3.5,4,4.5]
            let d = b.try_dot(&xs, &ys)?; // 3+7+12+18=40
            let mut prod = b.try_zeros("p", 4)?;
            b.try_ewmul(&xs, &ys, &mut prod)?;
            let mut mapped = b.try_zeros("m", 4)?;
            b.try_map2(&xs, &ys, &mut mapped, &|a, b| a - b)?;
            Ok((d, b.to_host(&mapped)))
        }

        let mut fused = FusedBackend::new_sparse(&g, &x);
        let mut cpu = CpuBackend::new_sparse(x.clone());
        let mut base = BaselineBackend::new_sparse(&g, &x);
        let (df, mf) = exercise(&mut fused)?;
        let (dc, mc) = exercise(&mut cpu)?;
        let (db, mb) = exercise(&mut base)?;
        assert_eq!(df, 40.0);
        assert_eq!(dc, 40.0);
        assert_eq!(db, 40.0);
        assert_eq!(mf, mc);
        assert_eq!(mb, mc);
        Ok(())
    }

    #[test]
    fn mv_and_tmv_match_reference() -> Result<(), DeviceError> {
        let g = gpu();
        let x = uniform_sparse(60, 40, 0.15, 93);
        let y = random_vector(40, 3);
        let u = random_vector(60, 4);

        let mut fused = FusedBackend::new_sparse(&g, &x);
        let yd = fused.try_from_host("y", &y)?;
        let ud = fused.try_from_host("u", &u)?;
        let mut p = fused.try_zeros("p", 60)?;
        let mut w = fused.try_zeros("w", 40)?;
        fused.try_mv(&yd, &mut p)?;
        fused.try_tmv(2.0, &ud, &mut w)?;
        assert!(reference::rel_l2_error(&fused.to_host(&p), &reference::csr_mv(&x, &y)) < 1e-12);
        let mut expect = reference::csr_tmv(&x, &u);
        reference::scal(2.0, &mut expect);
        assert!(reference::rel_l2_error(&fused.to_host(&w), &expect) < 1e-12);
        // tmv counted as the X^T y instantiation.
        assert_eq!(
            fused.stats().pattern_counts[PatternInstance::XtY.formula()],
            1
        );
        Ok(())
    }

    #[test]
    fn backend_stats_surface_plan_and_pool_traffic() -> Result<(), DeviceError> {
        let g = gpu();
        let x = uniform_sparse(400, 128, 0.05, 94);
        let y = random_vector(128, 5);
        let mut b = FusedBackend::new_sparse(&g, &x);
        b.exec.set_plan_cache(true); // independent of the process default
        let yd = b.try_from_host("y", &y)?;
        let mut wd = b.try_zeros("w", 128)?;
        for _ in 0..5 {
            b.try_pattern(PatternSpec::xtxy(), None, &yd, None, &mut wd)?;
        }
        let s = b.stats();
        assert_eq!(
            s.plan.plans_computed(),
            1,
            "five evaluations, one tuner run"
        );
        assert_eq!(s.plan.hits, 4);

        // A dropped scratch buffer recycles through the pool and the reuse
        // lands in this backend's accounting window.
        drop(b.try_zeros("scratch", 300)?);
        let _again = b.try_zeros("scratch2", 300)?;
        assert!(b.stats().pool.hits >= 1);

        b.reset_stats();
        let s = b.stats();
        assert_eq!(s.plan.plans_computed(), 0);
        assert_eq!(s.plan.hits, 0);
        assert_eq!((s.pool.hits, s.pool.misses), (0, 0));
        Ok(())
    }
}
