//! The row-range core that sharded and streamed execution share.
//!
//! The fused sparse kernel runs over contiguous row ranges of one host
//! matrix in two placements: across the devices of a group
//! ([`crate::ShardedExecutor`]) and chunk by chunk through a copy-engine
//! pipeline (the runtime's `SparseStreamer`). Both rest on one
//! bit-identity contract:
//!
//! * VS (Equation 4) is pinned from the *full* matrix's mean nnz/row, so
//!   the intra-row reduction order never depends on the partition;
//! * the range kernels store only the per-row values, and the host
//!   applies the epilogue `w[c] (+)= alpha * u_r * X[r,c]` in ascending
//!   global row order after `w = beta * z`, which sums every `w[c]` in
//!   the same order for any contiguous row partition.
//!
//! [`RowRanges`] owns that contract and what both placements need around
//! it: each range's global start and host slice, the per-range
//! launch-plan memo, and the launch ledger with its modeled wall clock.
//! The executors keep only their placement: where ranges run, what
//! crosses which link, which buffers they allocate when, and how range
//! costs compose into wall time. They differ at every one of those
//! steps, and the cache models see the allocation addresses, so the
//! executors stay two loops over one core rather than one loop that
//! branches on its caller.

use crate::pattern::PatternSpec;
use crate::plancache::{PlanCache, PlanCacheStats};
use crate::tuner::{try_plan_sparse_with_vs, SparsePlan};
use fusedml_blas::vector_size_for_mean_nnz;
use fusedml_gpu_sim::{Counters, DeviceError, DeviceSpec, LaunchStats};
use fusedml_matrix::CsrMatrix;
use std::ops::{Index, Range};

/// One contiguous row range of the full matrix.
pub struct RowRange {
    /// Global index of the range's first row.
    pub start: usize,
    /// Host copy of the range's rows: placements upload it, and the
    /// canonical epilogue walks it.
    pub host: CsrMatrix,
}

impl RowRange {
    /// The range's global rows.
    pub fn rows(&self) -> Range<usize> {
        self.start..self.start + self.host.rows()
    }

    /// Add this range to the canonical epilogue: `w[c] += alpha * u[r] *
    /// X[r, c]` for each of its rows `r`, in ascending order, where `u`
    /// holds the range's row values. Applied range by range in ascending
    /// global row order, after [`RowRanges::epilogue_init`], it sums every
    /// `w[c]` in the same order for any contiguous row partition, so the
    /// bits of `w` never depend on it.
    pub fn epilogue_rows(&self, w: &mut [f64], alpha: f64, u: &[f64]) {
        assert_eq!(u.len(), self.host.rows(), "one row value per row");
        for (r, &ur) in u.iter().enumerate() {
            for (c, xv) in self.host.row_entries(r) {
                w[c as usize] += alpha * ur * xv;
            }
        }
    }
}

/// A matrix split into ascending, contiguous row ranges, plus what every
/// placement of them shares (see the module docs).
pub struct RowRanges {
    rows: usize,
    cols: usize,
    /// Equation-4 VS from the full matrix's mean nnz/row, pinned for every
    /// range.
    base_vs: usize,
    ranges: Vec<RowRange>,
    /// Launch plans by range row count.
    plans: PlanCache,
    /// Every launch since the last [`Self::reset`].
    pub launches: Vec<LaunchStats>,
    /// Modeled elapsed milliseconds since the last reset, as the placement
    /// composes them.
    wall_ms: f64,
}

impl RowRanges {
    /// No ranges yet over `x`; VS is pinned from `x` as a whole.
    pub fn new(x: &CsrMatrix) -> Self {
        RowRanges {
            rows: x.rows(),
            cols: x.cols(),
            base_vs: vector_size_for_mean_nnz(x.mean_nnz_per_row()),
            ranges: Vec::new(),
            plans: PlanCache::new(),
            launches: Vec::new(),
            wall_ms: 0.0,
        }
    }

    /// Append rows `start..end` of `x`, which must follow the last range.
    pub fn push(&mut self, x: &CsrMatrix, start: usize, end: usize) -> &RowRange {
        assert_eq!(start, self.ranges.last().map_or(0, |r| r.rows().end));
        let i = self.ranges.len();
        self.ranges.push(RowRange {
            start,
            host: x.slice_rows(start, end),
        });
        &self.ranges[i]
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The vector size every range plans and runs with.
    pub fn base_vs(&self) -> usize {
        self.base_vs
    }

    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, RowRange> {
        self.ranges.iter()
    }

    /// The launch plan for a range of `rows` rows on `spec`: tuned for the
    /// range's row count with the pinned VS, so ranges of equal length
    /// share one memoized plan.
    pub fn plan(&mut self, spec: &DeviceSpec, rows: usize) -> Result<SparsePlan, DeviceError> {
        let (cols, vs) = (self.cols, self.base_vs);
        let (plan, _cached) = self
            .plans
            .sparse_plan(rows, cols, vs, || {
                try_plan_sparse_with_vs(spec, rows, cols, vs)
            })
            .map_err(DeviceError::from)?;
        Ok(plan)
    }

    /// Start the canonical epilogue: `w = beta * z`, or zero without `z`,
    /// before any range contributes.
    pub fn epilogue_init(&self, w: &mut [f64], beta: f64, z: Option<&[f64]>) {
        match z {
            Some(z) => {
                for (wc, zc) in w.iter_mut().zip(z) {
                    *wc = beta * zc;
                }
            }
            None => w.fill(0.0),
        }
    }

    /// The whole epilogue of `out = alpha * X^T * u`: every range in
    /// order, each with its rows of `u`.
    pub fn epilogue_tmv(&self, out: &mut [f64], alpha: f64, u: &[f64]) {
        self.epilogue_init(out, 0.0, None);
        for range in &self.ranges {
            range.epilogue_rows(out, alpha, &u[range.rows()]);
        }
    }

    /// Add `ms` to the modeled wall clock.
    pub fn add_wall_ms(&mut self, ms: f64) {
        self.wall_ms += ms;
    }

    /// Modeled elapsed milliseconds since the last [`Self::reset`].
    pub fn wall_ms(&self) -> f64 {
        self.wall_ms
    }

    pub fn launch_count(&self) -> usize {
        self.launches.len()
    }

    /// Hardware counters merged over every launch since the last reset.
    pub fn counters_total(&self) -> Counters {
        let mut total = Counters::new();
        for l in &self.launches {
            total.merge(&l.counters);
        }
        total
    }

    /// Clear the ledger (launches and wall time). Ranges and plans
    /// persist: they are cross-iteration state.
    pub fn reset(&mut self) {
        self.launches.clear();
        self.wall_ms = 0.0;
    }

    /// Enable or disable launch-plan memoization (the default follows the
    /// process-wide setting).
    pub fn set_plan_cache(&mut self, enabled: bool) {
        self.plans.set_enabled(enabled);
    }

    /// Cumulative plan-cache traffic, independent of [`Self::reset`].
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Zero the plan-cache counters (cached plans stay valid).
    pub fn reset_plan_stats(&mut self) {
        self.plans.reset_stats();
    }
}

impl Index<usize> for RowRanges {
    type Output = RowRange;

    fn index(&self, i: usize) -> &RowRange {
        &self.ranges[i]
    }
}

/// An executor that places the ranges of a [`RowRanges`] core and runs
/// the three matrix products a solver needs over them, on host slices.
/// `fusedml-ml` implements its `MatrixEngine` once for every such
/// executor.
pub trait RowRangeExecutor {
    fn ranges(&self) -> &RowRanges;

    fn ranges_mut(&mut self) -> &mut RowRanges;

    /// `w = alpha * X^T (v (.) (X y)) + beta * z`.
    fn try_pattern_host(
        &mut self,
        spec: PatternSpec,
        v: Option<&[f64]>,
        y: &[f64],
        z: Option<&[f64]>,
        w: &mut [f64],
    ) -> Result<(), DeviceError>;

    /// `out = X * y` (length m): row-local, so trivially partition-invariant.
    fn try_mv_host(&mut self, y: &[f64], out: &mut [f64]) -> Result<(), DeviceError>;

    /// `out = alpha * X^T * u` (length n).
    fn try_tmv_host(&mut self, alpha: f64, u: &[f64], out: &mut [f64]) -> Result<(), DeviceError>;
}
