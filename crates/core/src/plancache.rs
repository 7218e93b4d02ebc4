//! Memoization of the §3.3 launch-parameter model.
//!
//! An iterative solver evaluates the generic pattern hundreds of times on
//! the *same* matrix, and every evaluation used to re-run the full BS×C
//! tuner sweep with occupancy evaluation. The SystemML fusion-plan line of
//! work decides a fusion plan once per program and reuses it across
//! iterations; this cache gives the reproduction the same property: a
//! 500-iteration CG solve plans once, not 500 times.
//!
//! ## Cache key derivation
//!
//! A plan is a pure function of the device and a small set of matrix
//! statistics. Every cache belongs to one executor, and that executor is
//! bound to one device, or to a device group whose devices share one
//! spec, for its whole life (a reshard builds a new executor). So the
//! device never varies inside one cache, and the key holds only what
//! does:
//!
//! * **Shape** (`rows`, `cols`): `rows` drives the coarsening factor C and
//!   grid, `cols` drives the shared-vs-global aggregation choice. A
//!   row-range executor plans each range at its own row count.
//! * **Bucketed mean-nnz/row** (sparse only): the tuner consumes the mean
//!   nnz/row `mu` *only* through the Equation 4 vector size
//!   `VS = vector_size_for_mean_nnz(mu)`, so the key stores the VS bucket.
//!   Two matrices whose `mu` falls in the same bucket genuinely share a
//!   plan — a cached hit is bit-identical to a fresh tuner run — while a
//!   bucket-boundary crossing (say `mu` 32 → 33) misses and replans.
//!   Row-range executors pass the VS pinned from the full matrix.
//!
//! Planning *errors* are never cached: [`PlanError::NoFeasibleConfig`](crate::tuner::PlanError) and
//! empty-matrix rejections re-run the tuner on every call, so a transient
//! mis-sized request cannot poison the cache.

use crate::fusion::FusionPlan;
use crate::tuner::{DensePlan, SparsePlan};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Process-wide default for plan caching, read once per [`PlanCache`]
/// construction. The bench CLI flips this to A/B host overhead with
/// caching on vs. off (`fusedml-bench run --no-plan-cache`); modeled
/// counters are bit-identical either way.
static PLAN_CACHE_ENABLED: AtomicBool = AtomicBool::new(true);

/// Set the process-wide default for plan caching in newly constructed
/// executors (existing executors are unaffected).
pub fn set_plan_cache_enabled(enabled: bool) {
    PLAN_CACHE_ENABLED.store(enabled, Ordering::Relaxed);
}

/// The process-wide plan-caching default.
pub fn plan_cache_enabled() -> bool {
    PLAN_CACHE_ENABLED.load(Ordering::Relaxed)
}

/// Why a plan cache was invalidated (recorded in [`PlanCacheStats`] and the
/// trace stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invalidation {
    /// The executor was pointed at a different device.
    DeviceChanged,
    /// The caller knows its matrix population changed enough to re-tune
    /// (the shape/VS key already isolates most changes; this is for
    /// explicit "start over" requests).
    MatrixChanged,
    /// Unconditional flush.
    All,
}

impl Invalidation {
    fn as_str(self) -> &'static str {
        match self {
            Invalidation::DeviceChanged => "device_changed",
            Invalidation::MatrixChanged => "matrix_changed",
            Invalidation::All => "all",
        }
    }
}

/// Hit/miss accounting for one cache (cumulative until
/// [`PlanCache::reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plans served from the cache without running the tuner.
    pub hits: u64,
    /// Tuner runs whose result was inserted into the cache.
    pub misses: u64,
    /// Tuner runs performed while caching was disabled (never inserted).
    pub uncached: u64,
    /// Planning errors (never cached; the tuner re-runs on every call).
    pub errors: u64,
    /// Explicit invalidations.
    pub invalidations: u64,
}

impl PlanCacheStats {
    /// Total times the tuner actually ran (the work the cache exists to
    /// avoid).
    pub fn plans_computed(&self) -> u64 {
        self.misses + self.uncached + self.errors
    }

    fn merge(&mut self, other: &PlanCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.uncached += other.uncached;
        self.errors += other.errors;
        self.invalidations += other.invalidations;
    }
}

/// One side of the cache: plans by key, plus that side's traffic.
#[derive(Debug)]
struct Memo<K, V> {
    plans: BTreeMap<K, V>,
    stats: PlanCacheStats,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            plans: BTreeMap::new(),
            stats: PlanCacheStats::default(),
        }
    }
}

impl<K: Ord, V: Clone> Memo<K, V> {
    /// The plan under `key`, computing and (when `enabled`) inserting it
    /// on a miss; the flag reports a cache hit. `enabled = false` bypasses
    /// the map but still counts the tuner run.
    fn get_or_try<E>(
        &mut self,
        enabled: bool,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        if enabled {
            if let Some(plan) = self.plans.get(&key) {
                self.stats.hits += 1;
                return Ok((plan.clone(), true));
            }
        }
        match compute() {
            Ok(plan) => {
                if enabled {
                    self.plans.insert(key, plan.clone());
                    self.stats.misses += 1;
                } else {
                    self.stats.uncached += 1;
                }
                Ok((plan, false))
            }
            Err(e) => {
                self.stats.errors += 1;
                Err(e)
            }
        }
    }

    fn clear(&mut self) {
        self.plans.clear();
        self.stats.invalidations += 1;
    }
}

/// Memoized sparse and dense launch plans for one executor, plus traffic
/// counters and the executor's caching switch. Owned by
/// [`crate::FusedExecutor`] and [`crate::RowRanges`]; the owner consults
/// it before every tuner run. The `dag` side memoizes whole fusion plans
/// (candidate enumeration + cost-based selection) keyed by DAG
/// fingerprint.
#[derive(Debug)]
pub struct PlanCache {
    /// Whether lookups use the map, seeded from the process default.
    enabled: bool,
    /// Key `(rows, cols, vs)`: the Equation 4 vector size is the only
    /// channel through which mean nnz/row reaches the sparse tuner.
    sparse: Memo<(usize, usize, usize), SparsePlan>,
    /// Key `(rows, cols)`.
    dense: Memo<(usize, usize), DensePlan>,
    /// Key `(dag fingerprint, rows, cols, nnz, dense)`: `nnz` enters
    /// directly (not VS-bucketed) because candidate costs scale with the
    /// exact nonzero count.
    dag: Memo<(u64, usize, usize, u64, bool), Arc<FusionPlan>>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// An empty cache, enabled per the process default
    /// ([`plan_cache_enabled`]).
    pub fn new() -> Self {
        PlanCache {
            enabled: plan_cache_enabled(),
            sparse: Memo::default(),
            dense: Memo::default(),
            dag: Memo::default(),
        }
    }

    /// Enable or disable memoization (does not drop cached plans).
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Memoize `compute` under the sparse key `(rows, cols, vs)`.
    pub(crate) fn sparse_plan<E>(
        &mut self,
        rows: usize,
        cols: usize,
        vs: usize,
        compute: impl FnOnce() -> Result<SparsePlan, E>,
    ) -> Result<(SparsePlan, bool), E> {
        self.sparse
            .get_or_try(self.enabled, (rows, cols, vs), compute)
    }

    /// Memoize `compute` under the dense key `(rows, cols)`.
    pub(crate) fn dense_plan<E>(
        &mut self,
        rows: usize,
        cols: usize,
        compute: impl FnOnce() -> Result<DensePlan, E>,
    ) -> Result<(DensePlan, bool), E> {
        self.dense.get_or_try(self.enabled, (rows, cols), compute)
    }

    /// Memoize a whole DAG fusion plan under
    /// `(dag fingerprint, rows, cols, nnz, dense)`.
    pub(crate) fn dag_plan<E>(
        &mut self,
        dag_fingerprint: u64,
        rows: usize,
        cols: usize,
        nnz: u64,
        dense: bool,
        compute: impl FnOnce() -> Result<FusionPlan, E>,
    ) -> Result<(Arc<FusionPlan>, bool), E> {
        let key = (dag_fingerprint, rows, cols, nnz, dense);
        self.dag
            .get_or_try(self.enabled, key, || compute().map(Arc::new))
    }

    /// Drop every cached plan, recording the typed reason.
    pub fn invalidate(&mut self, reason: Invalidation) {
        self.sparse.clear();
        self.dense.clear();
        self.dag.clear();
        if fusedml_trace::is_enabled() {
            fusedml_trace::instant(
                "plan",
                "plan.cache_invalidate",
                "host",
                &[("reason", reason.as_str().into())],
            );
        }
    }

    /// Cached entries: `(sparse, dense)`.
    pub fn len(&self) -> (usize, usize) {
        (self.sparse.plans.len(), self.dense.plans.len())
    }

    /// Cached DAG fusion plans.
    pub fn dag_len(&self) -> usize {
        self.dag.plans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0) && self.dag_len() == 0
    }

    /// Sparse, dense and DAG counters merged.
    pub fn stats(&self) -> PlanCacheStats {
        let mut s = self.sparse.stats;
        s.merge(&self.dense.stats);
        s.merge(&self.dag.stats);
        s
    }

    pub fn dag_stats(&self) -> PlanCacheStats {
        self.dag.stats
    }

    pub fn reset_stats(&mut self) {
        self.sparse.stats = PlanCacheStats::default();
        self.dense.stats = PlanCacheStats::default();
        self.dag.stats = PlanCacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::{try_plan_dense, try_plan_sparse, PlanError};
    use fusedml_blas::vector_size_for_mean_nnz;
    use fusedml_gpu_sim::DeviceSpec;

    fn titan() -> DeviceSpec {
        DeviceSpec::gtx_titan()
    }

    /// A device whose register file is too small for any sparse
    /// configuration (mirrors the tuner's own NoFeasibleConfig tests).
    fn register_starved() -> DeviceSpec {
        DeviceSpec {
            registers_per_sm: 1024,
            ..DeviceSpec::gtx_titan()
        }
    }

    fn plan_sparse_via_cache(
        cache: &mut PlanCache,
        spec: &DeviceSpec,
        m: usize,
        n: usize,
        mu: f64,
    ) -> Result<(SparsePlan, bool), PlanError> {
        let vs = vector_size_for_mean_nnz(mu);
        cache.sparse_plan(m, n, vs, || try_plan_sparse(spec, m, n, mu))
    }

    #[test]
    fn second_identical_request_hits() {
        let mut cache = PlanCache::new();
        cache.set_enabled(true);
        let spec = titan();
        let (p1, hit1) = plan_sparse_via_cache(&mut cache, &spec, 10_000, 512, 20.0).unwrap();
        let (p2, hit2) = plan_sparse_via_cache(&mut cache, &spec, 10_000, 512, 20.0).unwrap();
        assert!(!hit1 && hit2);
        assert_eq!(p1, p2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.plans_computed(), 1);
    }

    #[test]
    fn mean_nnz_bucket_boundary_crossing_replans() {
        let mut cache = PlanCache::new();
        cache.set_enabled(true);
        let spec = titan();
        // VS buckets per Equation 4: mu in (16, 32] -> VS 16, mu > 32 -> 32.
        assert_eq!(vector_size_for_mean_nnz(20.0), 16);
        assert_eq!(vector_size_for_mean_nnz(32.0), 16);
        assert_eq!(vector_size_for_mean_nnz(33.0), 32);
        let (_, h1) = plan_sparse_via_cache(&mut cache, &spec, 10_000, 512, 20.0).unwrap();
        let (_, h2) = plan_sparse_via_cache(&mut cache, &spec, 10_000, 512, 32.0).unwrap();
        let (_, h3) = plan_sparse_via_cache(&mut cache, &spec, 10_000, 512, 33.0).unwrap();
        assert!(!h1, "first request computes");
        assert!(h2, "same VS bucket shares the plan");
        assert!(!h3, "crossing the bucket boundary must replan");
        assert_eq!(cache.len(), (2, 0));
    }

    #[test]
    fn planning_errors_are_not_cached_as_success() {
        let mut cache = PlanCache::new();
        cache.set_enabled(true);
        let starved = register_starved();
        for _ in 0..2 {
            let err = plan_sparse_via_cache(&mut cache, &starved, 10_000, 512, 20.0)
                .expect_err("register-starved device cannot plan");
            assert!(matches!(err, PlanError::NoFeasibleConfig { .. }));
        }
        assert!(cache.is_empty(), "errors must never enter the cache");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.errors), (0, 0, 2));
        assert_eq!(s.plans_computed(), 2, "the tuner re-ran on each call");
    }

    #[test]
    fn disabled_cache_always_recomputes() {
        let mut cache = PlanCache::new();
        cache.set_enabled(false);
        let spec = titan();
        for _ in 0..3 {
            let (_, hit) = cache
                .dense_plan(5_000, 128, || try_plan_dense(&spec, 5_000, 128))
                .unwrap();
            assert!(!hit);
        }
        assert!(cache.is_empty());
        let s = cache.stats();
        assert_eq!((s.hits, s.uncached), (0, 3));
        assert_eq!(s.plans_computed(), 3);
    }

    #[test]
    fn invalidation_flushes_and_counts() {
        let mut cache = PlanCache::new();
        cache.set_enabled(true);
        let spec = titan();
        plan_sparse_via_cache(&mut cache, &spec, 10_000, 512, 20.0).unwrap();
        cache
            .dense_plan(5_000, 128, || try_plan_dense(&spec, 5_000, 128))
            .unwrap();
        assert_eq!(cache.len(), (1, 1));
        cache.invalidate(Invalidation::DeviceChanged);
        assert!(cache.is_empty());
        let (_, hit) = plan_sparse_via_cache(&mut cache, &spec, 10_000, 512, 20.0).unwrap();
        assert!(!hit, "invalidation forces a replan");
        // sparse + dense + dag sides each record the flush.
        assert_eq!(cache.stats().invalidations, 3);
    }
}
