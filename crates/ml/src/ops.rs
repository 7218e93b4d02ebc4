//! Execution backends for the ML algorithms.
//!
//! Every algorithm in this crate (Listing 1's LR-CG, logistic regression,
//! SVM, GLM, HITS) is written once against the [`Backend`] trait, which
//! has two implementations:
//! * [`DeviceBackend`] keeps the solver's vectors and BLAS-1 on one
//!   simulated device and runs the matrix products through a
//!   [`MatrixEngine`]. The engines, by backend name:
//!   * [`FusedBackend`] — pattern evaluations go through the paper's
//!     fused kernels (exactly the `ours-end2end` configuration of §4.4);
//!   * [`DagBackend`](crate::DagBackend) — the same kernels, selected by
//!     the DAG fusion compiler;
//!   * [`BaselineBackend`] — everything operator-level through the
//!     cuBLAS/cuSPARSE-style engine (`cu-end2end`);
//!   * [`ShardedBackend`](crate::ShardedBackend) — row shards across a
//!     device group;
//!   * `StreamedBackend` (in `fusedml-runtime`) — row chunks streamed
//!     through the copy engine.
//! * [`CpuBackend`] — single-address-space reference implementation with an
//!   analytical MKL-style clock (the CPU rows of Tables 5/6).
//!
//! Backends instrument which Table-1 pattern instantiations execute, which
//! is how the Table 1 experiment regenerates the paper's matrix.

use fusedml_blas::{level1, BaselineEngine, CpuEngine, Flavor, GpuCsr, GpuDense, SpmvStyle};
use fusedml_core::{
    CpuFusedPattern, FusedExecutor, PatternInstance, PatternSpec, PlanCacheStats, RowRangeExecutor,
    RowRanges,
};
use fusedml_gpu_sim::{
    AggregationBreakdown, Counters, DeviceError, Gpu, GpuBuffer, LaunchStats, PoolStats,
};
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

    /// Charge one launch.
    pub fn charge(&mut self, launch: &LaunchStats) {
        self.absorb(launch.sim_ms(), std::slice::from_ref(launch));
    }

    /// Charge a batch of launches that took `ms` in total: their kernel
    /// sum, or the wall time of a pipelined or concurrent batch. `ms` is
    /// added once, so the batch's own summation order is kept.
    pub fn absorb(&mut self, ms: f64, launches: &[LaunchStats]) {
        self.sim_ms += ms;
        self.launches += launches.len();
        for l in launches {
            self.counters.merge(&l.counters);
            self.occupancy_ms += l.occupancy.occupancy * l.sim_ms();
        }
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

// ---------------------------------------------------------------------
// Device backend
// ---------------------------------------------------------------------

/// The matrix half of a device backend: the three matrix products a
/// solver needs, in one execution strategy.
///
/// Vectors are device buffers on the backend's device. Every method
/// charges its launches to `stats` through [`BackendStats::charge`] or
/// [`BackendStats::absorb`], also when it fails: launches performed before
/// a fault still cost simulated time.
pub trait MatrixEngine {
    fn rows(&self) -> usize;
    fn cols(&self) -> usize;

    /// `w = alpha * X^T (v ⊙ (X y)) + beta * z` — Equation 1.
    fn try_pattern(
        &mut self,
        stats: &mut BackendStats,
        spec: PatternSpec,
        v: Option<&GpuBuffer>,
        y: &GpuBuffer,
        z: Option<&GpuBuffer>,
        w: &mut GpuBuffer,
    ) -> Result<(), DeviceError>;

    /// `out = X * y` (length m).
    fn try_mv(
        &mut self,
        stats: &mut BackendStats,
        y: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError>;

    /// `out = alpha * X^T * u` (length n).
    fn try_tmv(
        &mut self,
        stats: &mut BackendStats,
        alpha: f64,
        u: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError>;

    /// Plan-cache traffic since construction or the last
    /// [`Self::reset_plan_stats`] (all-zero without a memoizing planner).
    fn plan_stats(&self) -> PlanCacheStats {
        PlanCacheStats::default()
    }

    fn reset_plan_stats(&mut self) {}
}

/// A device [`Backend`]: the solver's vectors and BLAS-1 live on one
/// device, and the matrix products run through a [`MatrixEngine`].
pub struct DeviceBackend<'g, E> {
    gpu: &'g Gpu,
    engine: E,
    /// Result cell of `dot` and `nrm2_sq`.
    scalar: GpuBuffer,
    stats: BackendStats,
    /// Pool snapshot at construction / last reset; `stats()` reports the
    /// delta so backends sharing one device don't claim each other's
    /// traffic.
    pool_base: PoolStats,
}

impl<'g, E: MatrixEngine> DeviceBackend<'g, E> {
    /// Wrap `engine`, keeping vectors on `gpu`. `scalar` is a one-element
    /// buffer on `gpu`, allocated after the engine so buffer addresses,
    /// which the cache models see, follow a fixed order. It is freed on
    /// drop.
    pub fn new(gpu: &'g Gpu, engine: E, scalar: GpuBuffer) -> Self {
        DeviceBackend {
            gpu,
            engine,
            scalar,
            stats: BackendStats::default(),
            pool_base: gpu.pool_stats(),
        }
    }

    pub fn engine(&self) -> &E {
        &self.engine
    }

    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Charge a launch, or pass on its failure.
    fn try_charge(&mut self, launch: Result<LaunchStats, DeviceError>) -> Result<(), DeviceError> {
        self.stats.charge(&launch?);
        Ok(())
    }
}

impl<E> Drop for DeviceBackend<'_, E> {
    fn drop(&mut self) {
        self.gpu.free(&self.scalar);
    }
}

impl<E: MatrixEngine> Backend for DeviceBackend<'_, E> {
    type Vector = GpuBuffer;

    fn rows(&self) -> usize {
        self.engine.rows()
    }

    fn cols(&self) -> usize {
        self.engine.cols()
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
        self.engine.try_pattern(&mut self.stats, spec, v, y, z, w)?;
        self.stats.record_instance(spec.instance());
        Ok(())
    }

    fn try_mv(&mut self, y: &GpuBuffer, out: &mut GpuBuffer) -> Result<(), DeviceError> {
        self.engine.try_mv(&mut self.stats, y, out)
    }

    fn try_tmv(
        &mut self,
        alpha: f64,
        u: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        self.engine.try_tmv(&mut self.stats, alpha, u, out)?;
        self.stats.record_instance(PatternInstance::XtY);
        Ok(())
    }

    fn try_axpy(&mut self, a: f64, x: &GpuBuffer, y: &mut GpuBuffer) -> Result<(), DeviceError> {
        self.try_charge(level1::try_axpy(self.gpu, a, x, y))
    }

    fn try_scal(&mut self, a: f64, x: &mut GpuBuffer) -> Result<(), DeviceError> {
        self.try_charge(level1::try_scal(self.gpu, a, x))
    }

    fn try_copy(&mut self, src: &GpuBuffer, dst: &mut GpuBuffer) -> Result<(), DeviceError> {
        self.try_charge(level1::try_copy(self.gpu, src, dst))
    }

    fn try_ewmul(
        &mut self,
        x: &GpuBuffer,
        y: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        self.try_charge(level1::try_ewmul(self.gpu, x, y, out))
    }

    fn try_dot(&mut self, x: &GpuBuffer, y: &GpuBuffer) -> Result<f64, DeviceError> {
        let (d, s) = level1::try_dot(self.gpu, x, y, &self.scalar)?;
        self.stats.charge(&s);
        Ok(d)
    }

    fn try_nrm2_sq(&mut self, x: &GpuBuffer) -> Result<f64, DeviceError> {
        let (d, s) = level1::try_nrm2_sq(self.gpu, x, &self.scalar)?;
        self.stats.charge(&s);
        Ok(d)
    }

    fn try_map2(
        &mut self,
        x: &GpuBuffer,
        y: &GpuBuffer,
        out: &mut GpuBuffer,
        f: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> Result<(), DeviceError> {
        self.try_charge(try_device_map2(self.gpu, x, y, out, f))
    }

    fn stats(&self) -> BackendStats {
        let mut s = self.stats.clone();
        s.plan = self.engine.plan_stats();
        s.pool = self.gpu.pool_stats().delta_since(&self.pool_base);
        s
    }

    fn reset_stats(&mut self) {
        self.stats = BackendStats::default();
        self.engine.reset_plan_stats();
        self.pool_base = self.gpu.pool_stats();
    }
}

/// Every row-range executor (`core::ShardedExecutor`,
/// `runtime::SparseStreamer`) is a matrix engine. The executor takes host
/// slices, so each product copies its operands off the device and its
/// result back. After every product, failed or not, the executor's
/// recorded launches move into `stats` as one batch that took the
/// executor's modeled wall time: the slowest shard plus fabric time, or
/// the streaming pipeline's wall, not the kernel sum.
impl<T: RowRangeExecutor> MatrixEngine for T {
    fn rows(&self) -> usize {
        self.ranges().rows()
    }

    fn cols(&self) -> usize {
        self.ranges().cols()
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
        let vh = v.map(GpuBuffer::to_vec_f64);
        let zh = z.map(GpuBuffer::to_vec_f64);
        let mut wh = vec![0.0; self.ranges().cols()];
        let res =
            self.try_pattern_host(spec, vh.as_deref(), &y.to_vec_f64(), zh.as_deref(), &mut wh);
        drain_ranges(self.ranges_mut(), stats);
        res?;
        w.copy_from_f64(&wh);
        Ok(())
    }

    fn try_mv(
        &mut self,
        stats: &mut BackendStats,
        y: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        let mut ph = vec![0.0; self.ranges().rows()];
        let res = self.try_mv_host(&y.to_vec_f64(), &mut ph);
        drain_ranges(self.ranges_mut(), stats);
        res?;
        out.copy_from_f64(&ph);
        Ok(())
    }

    fn try_tmv(
        &mut self,
        stats: &mut BackendStats,
        alpha: f64,
        u: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        let mut wh = vec![0.0; self.ranges().cols()];
        let res = self.try_tmv_host(alpha, &u.to_vec_f64(), &mut wh);
        drain_ranges(self.ranges_mut(), stats);
        res?;
        out.copy_from_f64(&wh);
        Ok(())
    }

    fn plan_stats(&self) -> PlanCacheStats {
        self.ranges().plan_stats()
    }

    fn reset_plan_stats(&mut self) {
        self.ranges_mut().reset_plan_stats();
    }
}

/// Move a row-range ledger into `stats` and clear it.
fn drain_ranges(ranges: &mut RowRanges, stats: &mut BackendStats) {
    stats.absorb(ranges.wall_ms(), &ranges.launches);
    ranges.reset();
}

/// Element-wise `out[i] = f(x[i], y[i])` device kernel (models the single
/// fused element-wise kernel a real system would generate for link
/// functions).
fn try_device_map2(
    gpu: &Gpu,
    x: &GpuBuffer,
    y: &GpuBuffer,
    out: &GpuBuffer,
    f: &(dyn Fn(f64, f64) -> f64 + Sync),
) -> Result<LaunchStats, DeviceError> {
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

/// A [`MatrixEngine`] over one matrix uploaded to the backend's device:
/// the fused, DAG and operator engines.
pub trait UploadEngine<'g>: MatrixEngine + Sized {
    /// Build the engine over `matrix`, then allocate the backend's scalar
    /// (see [`DeviceBackend::new`]).
    fn try_build(gpu: &'g Gpu, matrix: DeviceMatrix) -> Result<(Self, GpuBuffer), DeviceError>;
}

impl<'g, E: UploadEngine<'g>> DeviceBackend<'g, E> {
    /// Upload and wrap a sparse matrix, reporting device faults (the
    /// runtime's degradation ladder catches these at construction).
    pub fn try_new_sparse(gpu: &'g Gpu, x: &CsrMatrix) -> Result<Self, DeviceError> {
        Self::try_from_matrix(gpu, DeviceMatrix::Sparse(GpuCsr::try_upload(gpu, "X", x)?))
    }

    /// Upload and wrap a dense matrix, reporting device faults.
    pub fn try_new_dense(gpu: &'g Gpu, x: &DenseMatrix) -> Result<Self, DeviceError> {
        Self::try_from_matrix(gpu, DeviceMatrix::Dense(GpuDense::try_upload(gpu, "X", x)?))
    }

    /// [`DeviceBackend::try_new_sparse`] that panics on a device fault.
    /// Its one caller is a unit test of the repository benchmark
    /// (`benchmark/src/timed.rs`); everything else calls the fallible form.
    /// It goes when that test moves to `try_new_sparse`.
    ///
    /// # Panics
    /// On any device fault while uploading `x`.
    // Kept only so the benchmark package builds unchanged; see above.
    #[allow(clippy::panic)]
    pub fn new_sparse(gpu: &'g Gpu, x: &CsrMatrix) -> Self {
        Self::try_new_sparse(gpu, x).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_from_matrix(gpu: &'g Gpu, matrix: DeviceMatrix) -> Result<Self, DeviceError> {
        let (engine, scalar) = E::try_build(gpu, matrix)?;
        Ok(Self::new(gpu, engine, scalar))
    }
}

/// The matrix of a single-device engine.
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

    /// `out = X * y` as one library launch: vector-CSR SpMV at the
    /// Equation-4 vector size, or GEMV.
    pub(crate) fn try_mv(
        &self,
        gpu: &Gpu,
        y: &GpuBuffer,
        out: &GpuBuffer,
    ) -> Result<LaunchStats, DeviceError> {
        match self {
            DeviceMatrix::Sparse(x) => {
                let vs = fusedml_blas::vector_size_for_mean_nnz(x.mean_nnz_per_row());
                fusedml_blas::try_csrmv(gpu, x, y, out, SpmvStyle::Vector { vs })
            }
            DeviceMatrix::Dense(x) => fusedml_blas::try_gemv(gpu, x, y, out),
        }
    }
}

// ---------------------------------------------------------------------
// Fused engine
// ---------------------------------------------------------------------

/// Pattern evaluations and sparse `X^T y` through the fused kernels;
/// `X y` and dense `X^T y` operator-level (`ours-end2end`, §4.4).
pub struct FusedEngine<'g> {
    matrix: DeviceMatrix,
    exec: FusedExecutor<'g>,
}

/// The `ours-end2end` backend.
pub type FusedBackend<'g> = DeviceBackend<'g, FusedEngine<'g>>;

impl<'g> UploadEngine<'g> for FusedEngine<'g> {
    fn try_build(gpu: &'g Gpu, matrix: DeviceMatrix) -> Result<(Self, GpuBuffer), DeviceError> {
        let exec = FusedExecutor::new(gpu);
        Ok((
            FusedEngine { matrix, exec },
            gpu.try_alloc_f64("fused.scalar", 1)?,
        ))
    }
}

impl FusedEngine<'_> {
    /// Move the executor's recorded launches into `stats` as one batch.
    fn drain_launches(&mut self, stats: &mut BackendStats) {
        stats.absorb(self.exec.total_sim_ms(), &self.exec.launches);
        self.exec.reset();
    }
}

impl MatrixEngine for FusedEngine<'_> {
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
        let res = match &self.matrix {
            DeviceMatrix::Sparse(x) => self.exec.try_pattern_sparse(spec, x, v, y, z, w),
            DeviceMatrix::Dense(x) => self.exec.try_pattern_dense(spec, x, v, y, z, w),
        };
        self.drain_launches(stats);
        res
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
        match &self.matrix {
            DeviceMatrix::Sparse(x) => {
                let res = self.exec.try_xt_y_sparse(alpha, x, u, out);
                self.drain_launches(stats);
                res
            }
            DeviceMatrix::Dense(x) => {
                // The paper does not fuse dense X^T y (cuBLAS is already
                // good there, §4): operator-level, charged per launch.
                let gpu = self.exec.gpu();
                for s in fusedml_blas::try_gemv_t(gpu, x, u, out)? {
                    stats.charge(&s);
                }
                if alpha != 1.0 {
                    stats.charge(&level1::try_scal(gpu, alpha, out)?);
                }
                Ok(())
            }
        }
    }

    fn plan_stats(&self) -> PlanCacheStats {
        self.exec.plan_stats()
    }

    fn reset_plan_stats(&mut self) {
        self.exec.reset_plan_stats();
    }
}

// ---------------------------------------------------------------------
// Operator (baseline) engine
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

/// Every product operator by operator through [`BaselineEngine`]
/// (`cu-end2end`).
pub struct OperatorEngine<'g> {
    matrix: DeviceMatrix,
    ops: BaselineEngine<'g>,
    policy: TransposePolicy,
    /// Cached `X^T` under [`TransposePolicy::CachedOnce`].
    xt: Option<GpuCsr>,
    /// Scratch of length m for pattern intermediates.
    tmp_p: GpuBuffer,
}

/// The `cu-end2end` backend.
pub type BaselineBackend<'g> = DeviceBackend<'g, OperatorEngine<'g>>;

impl<'g> UploadEngine<'g> for OperatorEngine<'g> {
    /// The backend shares the operator engine's own scalar.
    fn try_build(gpu: &'g Gpu, matrix: DeviceMatrix) -> Result<(Self, GpuBuffer), DeviceError> {
        let tmp_p = gpu.try_alloc_f64("baseline.tmp_p", matrix.rows())?;
        let ops = BaselineEngine::try_new(gpu, Flavor::CuLibs)?;
        let scalar = ops.scalar().clone();
        let engine = OperatorEngine {
            matrix,
            ops,
            policy: TransposePolicy::PerCall,
            xt: None,
            tmp_p,
        };
        Ok((engine, scalar))
    }
}

impl BaselineBackend<'_> {
    /// Switch the transposed-product strategy (see [`TransposePolicy`]).
    pub fn with_transpose_policy(mut self, policy: TransposePolicy) -> Self {
        self.engine_mut().policy = policy;
        self
    }
}

impl OperatorEngine<'_> {
    /// Move the operator engine's recorded launches into `stats` as one
    /// batch.
    fn drain_launches(&mut self, stats: &mut BackendStats) {
        stats.absorb(self.ops.total_sim_ms(), &self.ops.launches);
        self.ops.reset();
    }

    /// `w = X^T * u` for the sparse matrix, honoring the policy. The
    /// cached-transpose launches are charged one at a time.
    fn sparse_tmv_into(
        &mut self,
        stats: &mut BackendStats,
        u: &GpuBuffer,
        w: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        let DeviceMatrix::Sparse(x) = &self.matrix else {
            unreachable!("sparse_tmv_into on dense matrix")
        };
        match self.policy {
            TransposePolicy::PerCall => self.ops.try_csrmv_t(x, u, w),
            TransposePolicy::CachedOnce => {
                let gpu = self.ops.gpu();
                let xt = match &self.xt {
                    Some(xt) => xt.clone(),
                    None => {
                        let (xt, launches) = fusedml_blas::try_csr2csc_device(gpu, x)?;
                        for l in &launches {
                            stats.charge(l);
                        }
                        self.xt.insert(xt).clone()
                    }
                };
                stats.charge(&fusedml_blas::try_csrmv_t_pretransposed(gpu, &xt, u, w)?);
                Ok(())
            }
        }
    }

    /// The pattern operator by operator; the caller charges what is left
    /// in `ops`.
    fn try_pattern_ops(
        &mut self,
        stats: &mut BackendStats,
        spec: PatternSpec,
        v: Option<&GpuBuffer>,
        y: &GpuBuffer,
        z: Option<&GpuBuffer>,
        w: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        let tmp = self.tmp_p.clone();
        match &self.matrix {
            DeviceMatrix::Sparse(x) => {
                self.ops.try_csrmv(x, y, &tmp)?;
                if let Some(v) = v {
                    self.ops.try_ewmul(&tmp, v, &tmp)?;
                }
            }
            DeviceMatrix::Dense(x) => {
                return self
                    .ops
                    .try_pattern_dense(spec.alpha, x, v, y, spec.beta, z, w, &tmp);
            }
        }
        self.drain_launches(stats);
        self.sparse_tmv_into(stats, &tmp, w)?;
        if spec.alpha != 1.0 {
            self.ops.try_scal(spec.alpha, w)?;
        }
        if let Some(z) = z {
            self.ops.try_axpy(spec.beta, z, w)?;
        }
        Ok(())
    }

    /// `alpha * X^T u` operator by operator; the caller charges what is
    /// left in `ops`.
    fn try_tmv_ops(
        &mut self,
        stats: &mut BackendStats,
        alpha: f64,
        u: &GpuBuffer,
        out: &GpuBuffer,
    ) -> Result<(), DeviceError> {
        match &self.matrix {
            DeviceMatrix::Sparse(_) => self.sparse_tmv_into(stats, u, out)?,
            DeviceMatrix::Dense(x) => self.ops.try_gemv_t(x, u, out)?,
        }
        if alpha != 1.0 {
            self.ops.try_scal(alpha, out)?;
        }
        Ok(())
    }
}

impl MatrixEngine for OperatorEngine<'_> {
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
        let res = self.try_pattern_ops(stats, spec, v, y, z, w);
        self.drain_launches(stats);
        res
    }

    fn try_mv(
        &mut self,
        stats: &mut BackendStats,
        y: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        let res = match &self.matrix {
            DeviceMatrix::Sparse(x) => self.ops.try_csrmv(x, y, out),
            DeviceMatrix::Dense(x) => self.ops.try_gemv(x, y, out),
        };
        self.drain_launches(stats);
        res
    }

    fn try_tmv(
        &mut self,
        stats: &mut BackendStats,
        alpha: f64,
        u: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        let res = self.try_tmv_ops(stats, alpha, u, out);
        self.drain_launches(stats);
        res
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

        let mut fused = FusedBackend::try_new_sparse(&g, &x).unwrap();
        let yd = fused.try_from_host("y", &y)?;
        let vd = fused.try_from_host("v", &v)?;
        let mut wd = fused.try_zeros("w", 80)?;
        fused.try_pattern(spec, Some(&vd), &yd, None, &mut wd)?;
        let w_fused = fused.to_host(&wd);

        let mut base = BaselineBackend::try_new_sparse(&g, &x).unwrap();
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
        let a = crate::try_lr_cg(&mut plain, &labels, opts).unwrap();
        let mut fused = CpuBackend::new_sparse(x).with_fused_execution(2);
        let b = crate::try_lr_cg(&mut fused, &labels, opts).unwrap();
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

        let mut fused = FusedBackend::try_new_sparse(&g, &x).unwrap();
        let mut cpu = CpuBackend::new_sparse(x.clone());
        let mut base = BaselineBackend::try_new_sparse(&g, &x).unwrap();
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

        let mut fused = FusedBackend::try_new_sparse(&g, &x).unwrap();
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
        let mut b = FusedBackend::try_new_sparse(&g, &x).unwrap();
        b.engine().exec.set_plan_cache(true); // independent of the process default
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
