//! The deterministic workload matrix behind `fusedml-bench run`.
//!
//! Two layers, mirroring the paper's evaluation:
//!
//! * **kernel-level** workloads: one evaluation of the generic pattern
//!   (or its `X^T y` instantiation) on the fused executor vs. the
//!   cuBLAS/cuSPARSE-style operator composition — CSR uniform, CSR
//!   power-law, ELL, and dense storage;
//! * **algorithm-level** workloads: full solver loops (LR-CG, GLM,
//!   logistic regression, SVM, HITS) on [`FusedBackend`] vs.
//!   [`BaselineBackend`] — the `ours-end2end` / `cu-end2end`
//!   configurations of §4.4.
//!
//! Every dataset is seeded, every variant runs on a freshly constructed
//! simulated device, and all modeled metrics are bit-deterministic across
//! hosts; only `wall_ms` depends on the machine running the suite.

use super::report::{
    current_git_sha, BenchReport, ConfigFingerprint, HostPerf, VariantMetrics, WorkloadResult,
    SCHEMA_VERSION,
};
use fusedml_blas::ellmv::GpuEll;
use fusedml_blas::{level1, BaselineEngine, Flavor, GpuCsr, GpuDense};
use fusedml_core::ell_fused::{plan_ell, try_fused_pattern_ell};
use fusedml_core::{FusedExecutor, PatternSpec};
use fusedml_gpu_sim::{Counters, DevicePool, DeviceSpec, Gpu, LaunchStats};
use fusedml_matrix::gen::{
    dense_random, powerlaw_sparse, random_labels, random_vector, uniform_sparse,
};
use fusedml_matrix::{reference, CsrMatrix, DenseMatrix, EllMatrix};
use fusedml_ml::{
    try_glm, try_hits, try_logreg, try_lr_cg, try_pagerank, try_svm, Backend, BackendStats,
    BaselineBackend, FusedBackend, GlmOptions, HitsOptions, LogRegOptions, LrCgOptions,
    PagerankOptions, PagerankPlan, SolverError, SvmOptions,
};
use std::sync::Arc;
use std::time::Instant;

/// Suite depth. `Quick` is the CI gate (seconds of host time); `Full`
/// approaches the paper's scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Quick,
    Full,
}

impl Mode {
    pub fn as_str(&self) -> &'static str {
        match self {
            Mode::Quick => "quick",
            Mode::Full => "full",
        }
    }

    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "quick" => Ok(Mode::Quick),
            "full" => Ok(Mode::Full),
            other => Err(format!("unknown mode '{other}' (expected quick or full)")),
        }
    }
}

/// Everything `run_suite` needs; becomes the report's fingerprint.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    pub mode: Mode,
    /// Multiplies every workload's row count, in (0, 1].
    pub scale: f64,
    pub seed: u64,
    /// Shared device spec: every per-variant `Gpu` construction bumps the
    /// refcount instead of cloning the 28-field struct.
    pub device: Arc<DeviceSpec>,
}

impl SuiteOptions {
    pub fn quick() -> Self {
        SuiteOptions {
            mode: Mode::Quick,
            scale: 1.0,
            seed: 0x5EED,
            device: Arc::new(DeviceSpec::gtx_titan()),
        }
    }

    pub fn full() -> Self {
        SuiteOptions {
            mode: Mode::Full,
            ..Self::quick()
        }
    }

    pub fn fingerprint(&self) -> ConfigFingerprint {
        ConfigFingerprint {
            device: self.device.name.clone(),
            clock_ghz: self.device.clock_ghz,
            scale: self.scale,
            seed: self.seed,
            mode: self.mode.as_str().to_string(),
        }
    }
}

/// Row-length distribution of a synthetic sparse matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dist {
    Uniform,
    PowerLaw,
}

/// Which solver an algorithm-level workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Algo {
    LrCg,
    Glm,
    LogReg,
    Svm,
    Hits,
}

impl Algo {
    fn name(&self) -> &'static str {
        match self {
            Algo::LrCg => "lr_cg",
            Algo::Glm => "glm",
            Algo::LogReg => "logreg",
            Algo::Svm => "svm",
            Algo::Hits => "hits",
        }
    }
}

/// One entry of the workload matrix, before any data is generated.
pub(crate) enum Kind {
    /// One full-pattern evaluation, CSR storage.
    PatternCsr { dist: Dist },
    /// One `X^T y` evaluation (fused scan vs. cuSPARSE transposed SpMV).
    XtY,
    /// One `X^T(Xy)` evaluation, ELL storage (fused) vs. the CSR
    /// operator composition.
    PatternEll,
    /// One full-pattern evaluation, dense storage.
    PatternDense,
    /// A solver loop on sparse CSR input.
    AlgoCsr(Algo),
    /// A solver loop on dense input.
    AlgoDense(Algo),
    /// PageRank power iteration on a square link matrix, defined as an
    /// operator DAG: cost-selected fusion plan vs. the unfused
    /// one-kernel-per-operator plan of the same DAG.
    Pagerank,
}

pub(crate) struct WorkloadSpec {
    pub(crate) kind: Kind,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// Fill fraction for sparse workloads (unused for dense).
    pub(crate) sparsity: f64,
    /// Solver iterations (0 for kernel-level workloads).
    pub(crate) iterations: u64,
}

impl WorkloadSpec {
    fn algorithm(&self) -> &'static str {
        match &self.kind {
            Kind::PatternCsr { .. } | Kind::PatternEll | Kind::PatternDense => "pattern",
            Kind::XtY => "xty",
            Kind::AlgoCsr(a) | Kind::AlgoDense(a) => a.name(),
            Kind::Pagerank => "pagerank",
        }
    }

    fn format(&self) -> &'static str {
        match &self.kind {
            Kind::PatternCsr { .. } | Kind::XtY | Kind::AlgoCsr(_) | Kind::Pagerank => "csr",
            Kind::PatternEll => "ell",
            Kind::PatternDense | Kind::AlgoDense(_) => "dense",
        }
    }

    pub(crate) fn id(&self) -> String {
        let variant = match &self.kind {
            Kind::PatternCsr {
                dist: Dist::Uniform,
            } => "/uniform",
            Kind::PatternCsr {
                dist: Dist::PowerLaw,
            } => "/powerlaw",
            _ => "",
        };
        format!(
            "{}/{}{variant}/{}x{}",
            self.algorithm(),
            self.format(),
            self.rows,
            self.cols
        )
    }
}

/// The matrix itself. Row counts are pre-`scale`; everything here must stay
/// deterministic — ids feed the compare gate.
pub(crate) fn matrix(mode: Mode, scale: f64) -> Vec<WorkloadSpec> {
    let rows = |base: usize| ((base as f64 * scale).round() as usize).max(64);
    let mut specs = Vec::new();
    let (kern_m, kern_n, algo_m, algo_n, algo_iters, outer) = match mode {
        Mode::Quick => (20_000, 1024, 6_000, 512, 3u64, 2u64),
        Mode::Full => (100_000, 2048, 25_000, 1024, 8, 3),
    };

    specs.push(WorkloadSpec {
        kind: Kind::PatternCsr {
            dist: Dist::Uniform,
        },
        rows: rows(kern_m),
        cols: kern_n,
        sparsity: 0.01,
        iterations: 0,
    });
    specs.push(WorkloadSpec {
        kind: Kind::PatternCsr {
            dist: Dist::PowerLaw,
        },
        rows: rows(kern_m),
        cols: kern_n,
        sparsity: 0.01,
        iterations: 0,
    });
    specs.push(WorkloadSpec {
        kind: Kind::XtY,
        rows: rows(kern_m),
        cols: kern_n,
        sparsity: 0.01,
        iterations: 0,
    });
    specs.push(WorkloadSpec {
        kind: Kind::PatternEll,
        rows: rows(kern_m / 2),
        cols: kern_n / 2,
        sparsity: 0.02,
        iterations: 0,
    });
    specs.push(WorkloadSpec {
        kind: Kind::PatternDense,
        rows: rows(kern_m / 4),
        cols: 256,
        sparsity: 1.0,
        iterations: 0,
    });

    for algo in [Algo::LrCg, Algo::Glm, Algo::LogReg, Algo::Svm, Algo::Hits] {
        let iterations = match algo {
            Algo::LrCg | Algo::Hits => algo_iters,
            _ => outer,
        };
        specs.push(WorkloadSpec {
            kind: Kind::AlgoCsr(algo),
            rows: rows(algo_m),
            cols: algo_n,
            sparsity: 0.01,
            iterations,
        });
    }
    specs.push(WorkloadSpec {
        kind: Kind::AlgoDense(Algo::LrCg),
        rows: rows(algo_m / 2),
        cols: 128,
        sparsity: 1.0,
        iterations: algo_iters,
    });
    // PageRank needs a square link matrix, so both dims scale together.
    let pr_n = match mode {
        Mode::Quick => 4_000,
        Mode::Full => 20_000,
    };
    specs.push(WorkloadSpec {
        kind: Kind::Pagerank,
        rows: rows(pr_n),
        cols: rows(pr_n),
        sparsity: 0.002,
        iterations: algo_iters,
    });
    specs
}

/// Workload ids for the given options, without running anything
/// (`fusedml-bench list`).
pub fn workload_ids(opts: &SuiteOptions) -> Vec<String> {
    matrix(opts.mode, opts.scale)
        .iter()
        .map(|s| s.id())
        .collect()
}

/// Aggregate a launch list into (modeled_ms, counters, launches,
/// time-weighted occupancy).
fn fold_launches(launches: &[LaunchStats]) -> (f64, Counters, u64, f64) {
    let mut counters = Counters::new();
    let mut ms = 0.0;
    let mut occ_ms = 0.0;
    for l in launches {
        counters.merge(&l.counters);
        ms += l.sim_ms();
        occ_ms += l.occupancy.occupancy * l.sim_ms();
    }
    let occ = if ms > 0.0 { occ_ms / ms } else { 0.0 };
    (ms, counters, launches.len() as u64, occ)
}

fn variant_from_launches(launches: &[LaunchStats], wall_ms: f64, clock_ghz: f64) -> VariantMetrics {
    let (ms, counters, n, occ) = fold_launches(launches);
    VariantMetrics::new(ms, clock_ghz, wall_ms, n, occ, &counters)
}

fn variant_from_stats(
    stats: &BackendStats,
    wall_ms: f64,
    clock_ghz: f64,
    iters: u64,
) -> VariantMetrics {
    VariantMetrics::new(
        stats.sim_ms,
        clock_ghz,
        wall_ms,
        stats.launches as u64,
        stats.mean_occupancy(),
        &stats.counters,
    )
    .with_host(HostPerf {
        plans_computed: stats.plan.plans_computed(),
        plan_cache_hits: stats.plan.hits,
        pool_hits: stats.pool.hits,
        pool_misses: stats.pool.misses,
        pool_bytes_recycled: stats.pool.bytes_recycled,
        host_ms_per_iter: wall_ms / iters.max(1) as f64,
    })
}

fn wall_ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Per-variant device on the suite's shared buffer pool. Each variant gets
/// its own `Gpu` (isolated counters, caches, and address space) but blocks
/// freed by earlier workloads warm up later ones — the caching-allocator
/// model, and what makes the pool hit rate meaningful across a matrix of
/// same-shaped workloads.
fn suite_gpu(opts: &SuiteOptions, pool: &DevicePool) -> Gpu {
    Gpu::new(opts.device.clone()).with_shared_pool(pool)
}

/// Full pattern with every term, exercising v-scaling and the z-axpy tail.
pub(crate) fn full_spec() -> PatternSpec {
    PatternSpec::full(1.5, -0.5)
}

/// Kernel-level CSR workload: fused executor vs. operator composition.
fn run_pattern_csr(
    opts: &SuiteOptions,
    pool: &DevicePool,
    x: &CsrMatrix,
) -> Result<(VariantMetrics, VariantMetrics), SolverError> {
    let (m, n) = (x.rows(), x.cols());
    let spec = full_spec();
    let seed = opts.seed;

    let fused = {
        let gpu = suite_gpu(opts, pool);
        let xd = GpuCsr::try_upload(&gpu, "X", x)?;
        let yd = gpu.try_upload_f64("y", &random_vector(n, seed + 1))?;
        let vd = gpu.try_upload_f64("v", &random_vector(m, seed + 2))?;
        let zd = gpu.try_upload_f64("z", &random_vector(n, seed + 3))?;
        let wd = gpu.try_alloc_f64("w", n)?;
        gpu.flush_caches();
        let t0 = Instant::now();
        let mut ex = FusedExecutor::new(&gpu);
        ex.try_pattern_sparse(spec, &xd, Some(&vd), &yd, Some(&zd), &wd)?;
        variant_from_launches(&ex.launches, wall_ms_since(t0), opts.device.clock_ghz)
    };

    let baseline = {
        let gpu = suite_gpu(opts, pool);
        let xd = GpuCsr::try_upload(&gpu, "X", x)?;
        let yd = gpu.try_upload_f64("y", &random_vector(n, seed + 1))?;
        let vd = gpu.try_upload_f64("v", &random_vector(m, seed + 2))?;
        let zd = gpu.try_upload_f64("z", &random_vector(n, seed + 3))?;
        let wd = gpu.try_alloc_f64("w", n)?;
        let pd = gpu.try_alloc_f64("p", m)?;
        gpu.flush_caches();
        let t0 = Instant::now();
        let mut cu = BaselineEngine::try_new(&gpu, Flavor::CuLibs)?;
        cu.try_pattern_sparse(
            spec.alpha,
            &xd,
            Some(&vd),
            &yd,
            spec.beta,
            Some(&zd),
            &wd,
            &pd,
        )?;
        variant_from_launches(&cu.launches, wall_ms_since(t0), opts.device.clock_ghz)
    };
    Ok((fused, baseline))
}

/// `X^T y`: the fused transposed scan vs. the cuSPARSE-style transposed
/// SpMV (which rebuilds `X^T` per call).
fn run_xty(
    opts: &SuiteOptions,
    pool: &DevicePool,
    x: &CsrMatrix,
) -> Result<(VariantMetrics, VariantMetrics), SolverError> {
    let (m, n) = (x.rows(), x.cols());
    let seed = opts.seed;

    let fused = {
        let gpu = suite_gpu(opts, pool);
        let xd = GpuCsr::try_upload(&gpu, "X", x)?;
        let yd = gpu.try_upload_f64("y", &random_vector(m, seed + 4))?;
        let wd = gpu.try_alloc_f64("w", n)?;
        gpu.flush_caches();
        let t0 = Instant::now();
        let mut ex = FusedExecutor::new(&gpu);
        ex.try_xt_y_sparse(1.0, &xd, &yd, &wd)?;
        variant_from_launches(&ex.launches, wall_ms_since(t0), opts.device.clock_ghz)
    };

    let baseline = {
        let gpu = suite_gpu(opts, pool);
        let xd = GpuCsr::try_upload(&gpu, "X", x)?;
        let yd = gpu.try_upload_f64("y", &random_vector(m, seed + 4))?;
        let wd = gpu.try_alloc_f64("w", n)?;
        gpu.flush_caches();
        let t0 = Instant::now();
        let mut cu = BaselineEngine::try_new(&gpu, Flavor::CuLibs)?;
        cu.try_csrmv_t(&xd, &yd, &wd)?;
        variant_from_launches(&cu.launches, wall_ms_since(t0), opts.device.clock_ghz)
    };
    Ok((fused, baseline))
}

/// ELL-stored fused kernel vs. the CSR operator composition on the same
/// logical matrix — the storage-format extension workload.
fn run_pattern_ell(
    opts: &SuiteOptions,
    pool: &DevicePool,
    x: &CsrMatrix,
) -> Result<(VariantMetrics, VariantMetrics), SolverError> {
    let (m, n) = (x.rows(), x.cols());
    let spec = PatternSpec::xtxy();
    let seed = opts.seed;

    let fused = {
        let gpu = suite_gpu(opts, pool);
        let ell = EllMatrix::from_csr(x);
        let eld = GpuEll::try_upload(&gpu, "ell", &ell)?;
        let yd = gpu.try_upload_f64("y", &random_vector(n, seed + 5))?;
        let wd = gpu.try_alloc_f64("w", n)?;
        gpu.flush_caches();
        let t0 = Instant::now();
        let plan = plan_ell(&gpu, m, n);
        let launches = vec![
            level1::try_fill(&gpu, &wd, 0.0)?,
            try_fused_pattern_ell(&gpu, &plan, spec, &eld, None, &yd, None, &wd)?,
        ];
        variant_from_launches(&launches, wall_ms_since(t0), opts.device.clock_ghz)
    };

    let baseline = {
        let gpu = suite_gpu(opts, pool);
        let xd = GpuCsr::try_upload(&gpu, "X", x)?;
        let yd = gpu.try_upload_f64("y", &random_vector(n, seed + 5))?;
        let wd = gpu.try_alloc_f64("w", n)?;
        let pd = gpu.try_alloc_f64("p", m)?;
        gpu.flush_caches();
        let t0 = Instant::now();
        let mut cu = BaselineEngine::try_new(&gpu, Flavor::CuLibs)?;
        cu.try_pattern_sparse(spec.alpha, &xd, None, &yd, spec.beta, None, &wd, &pd)?;
        variant_from_launches(&cu.launches, wall_ms_since(t0), opts.device.clock_ghz)
    };
    Ok((fused, baseline))
}

/// Dense full pattern: generated fused kernel vs. cuBLAS-style composition.
fn run_pattern_dense(
    opts: &SuiteOptions,
    pool: &DevicePool,
    x: &DenseMatrix,
) -> Result<(VariantMetrics, VariantMetrics), SolverError> {
    let (m, n) = (x.rows(), x.cols());
    let spec = full_spec();
    let seed = opts.seed;

    let fused = {
        let gpu = suite_gpu(opts, pool);
        let xd = GpuDense::try_upload(&gpu, "X", x)?;
        let yd = gpu.try_upload_f64("y", &random_vector(n, seed + 6))?;
        let vd = gpu.try_upload_f64("v", &random_vector(m, seed + 7))?;
        let zd = gpu.try_upload_f64("z", &random_vector(n, seed + 8))?;
        let wd = gpu.try_alloc_f64("w", n)?;
        gpu.flush_caches();
        let t0 = Instant::now();
        let mut ex = FusedExecutor::new(&gpu);
        ex.try_pattern_dense(spec, &xd, Some(&vd), &yd, Some(&zd), &wd)?;
        variant_from_launches(&ex.launches, wall_ms_since(t0), opts.device.clock_ghz)
    };

    let baseline = {
        let gpu = suite_gpu(opts, pool);
        let xd = GpuDense::try_upload(&gpu, "X", x)?;
        let yd = gpu.try_upload_f64("y", &random_vector(n, seed + 6))?;
        let vd = gpu.try_upload_f64("v", &random_vector(m, seed + 7))?;
        let zd = gpu.try_upload_f64("z", &random_vector(n, seed + 8))?;
        let wd = gpu.try_alloc_f64("w", n)?;
        let pd = gpu.try_alloc_f64("p", m)?;
        gpu.flush_caches();
        let t0 = Instant::now();
        let mut cu = BaselineEngine::try_new(&gpu, Flavor::CuLibs)?;
        cu.try_pattern_dense(
            spec.alpha,
            &xd,
            Some(&vd),
            &yd,
            spec.beta,
            Some(&zd),
            &wd,
            &pd,
        )?;
        variant_from_launches(&cu.launches, wall_ms_since(t0), opts.device.clock_ghz)
    };
    Ok((fused, baseline))
}

/// Drive one solver on any backend with deterministic labels/targets.
fn drive_algo<B: Backend>(
    b: &mut B,
    algo: Algo,
    iters: u64,
    seed: u64,
    x_csr: Option<&CsrMatrix>,
    x_dense: Option<&DenseMatrix>,
) -> Result<(), SolverError> {
    let m = b.rows();
    let n = b.cols();
    let w_true = random_vector(n, seed + 10);
    let targets = match (x_csr, x_dense) {
        (Some(x), _) => reference::csr_mv(x, &w_true),
        (_, Some(x)) => reference::dense_mv(x, &w_true),
        _ => unreachable!("algo workload without a matrix"),
    };
    match algo {
        Algo::LrCg => {
            try_lr_cg(
                b,
                &targets,
                LrCgOptions {
                    max_iterations: iters as usize,
                    ..Default::default()
                },
            )?;
        }
        Algo::Glm => {
            let counts: Vec<f64> = targets.iter().map(|&e| e.clamp(-3.0, 3.0).exp()).collect();
            try_glm(
                b,
                &counts,
                GlmOptions {
                    max_outer: iters as usize,
                    ..Default::default()
                },
            )?;
        }
        Algo::LogReg => {
            let labels = random_labels(m, seed + 11);
            try_logreg(
                b,
                &labels,
                LogRegOptions {
                    max_outer: iters as usize,
                    ..Default::default()
                },
            )?;
        }
        Algo::Svm => {
            let labels = random_labels(m, seed + 11);
            try_svm(
                b,
                &labels,
                SvmOptions {
                    max_outer: iters as usize,
                    ..Default::default()
                },
            )?;
        }
        Algo::Hits => {
            try_hits(
                b,
                HitsOptions {
                    max_iterations: iters as usize,
                    ..Default::default()
                },
            )?;
        }
    }
    Ok(())
}

/// Algorithm-level workload on CSR input: `ours-end2end` vs. `cu-end2end`.
fn run_algo_csr(
    opts: &SuiteOptions,
    pool: &DevicePool,
    algo: Algo,
    iters: u64,
    x: &CsrMatrix,
) -> Result<(VariantMetrics, VariantMetrics), SolverError> {
    let fused = {
        let gpu = suite_gpu(opts, pool);
        let t0 = Instant::now();
        let mut b = FusedBackend::try_new_sparse(&gpu, x)?;
        drive_algo(&mut b, algo, iters, opts.seed, Some(x), None)?;
        variant_from_stats(&b.stats(), wall_ms_since(t0), opts.device.clock_ghz, iters)
    };
    let baseline = {
        let gpu = suite_gpu(opts, pool);
        let t0 = Instant::now();
        let mut b = BaselineBackend::try_new_sparse(&gpu, x)?;
        drive_algo(&mut b, algo, iters, opts.seed, Some(x), None)?;
        variant_from_stats(&b.stats(), wall_ms_since(t0), opts.device.clock_ghz, iters)
    };
    Ok((fused, baseline))
}

/// Algorithm-level workload on dense input.
fn run_algo_dense(
    opts: &SuiteOptions,
    pool: &DevicePool,
    algo: Algo,
    iters: u64,
    x: &DenseMatrix,
) -> Result<(VariantMetrics, VariantMetrics), SolverError> {
    let fused = {
        let gpu = suite_gpu(opts, pool);
        let t0 = Instant::now();
        let mut b = FusedBackend::try_new_dense(&gpu, x)?;
        drive_algo(&mut b, algo, iters, opts.seed, None, Some(x))?;
        variant_from_stats(&b.stats(), wall_ms_since(t0), opts.device.clock_ghz, iters)
    };
    let baseline = {
        let gpu = suite_gpu(opts, pool);
        let t0 = Instant::now();
        let mut b = BaselineBackend::try_new_dense(&gpu, x)?;
        drive_algo(&mut b, algo, iters, opts.seed, None, Some(x))?;
        variant_from_stats(&b.stats(), wall_ms_since(t0), opts.device.clock_ghz, iters)
    };
    Ok((fused, baseline))
}

/// PageRank workload: the DAG compiler's cost-selected plan vs. the
/// unfused one-kernel-per-operator plan of the *same* DAG. Both run the
/// identical solver loop, so the speedup isolates what fusion buys.
fn run_pagerank(
    opts: &SuiteOptions,
    pool: &DevicePool,
    iters: u64,
    links: &CsrMatrix,
) -> Result<(VariantMetrics, VariantMetrics), SolverError> {
    let run = |plan: PagerankPlan| -> Result<VariantMetrics, SolverError> {
        let gpu = suite_gpu(opts, pool);
        let pool_base = gpu.pool_stats();
        let t0 = Instant::now();
        let res = try_pagerank(
            &gpu,
            links,
            PagerankOptions {
                max_iterations: iters as usize,
                // Fixed iteration count: the gate compares modeled
                // counters, which must not depend on a convergence race.
                tolerance: 0.0,
                plan,
                ..Default::default()
            },
        )?;
        let wall = wall_ms_since(t0);
        let pool_delta = gpu.pool_stats().delta_since(&pool_base);
        Ok(VariantMetrics::new(
            res.sim_ms,
            opts.device.clock_ghz,
            wall,
            res.launches as u64,
            res.occupancy,
            &res.counters,
        )
        .with_host(HostPerf {
            plans_computed: res.plan_stats.plans_computed(),
            plan_cache_hits: res.plan_stats.hits,
            pool_hits: pool_delta.hits,
            pool_misses: pool_delta.misses,
            pool_bytes_recycled: pool_delta.bytes_recycled,
            host_ms_per_iter: wall / iters.max(1) as f64,
        }))
    };
    Ok((run(PagerankPlan::Selected)?, run(PagerankPlan::Unfused)?))
}

/// Run the whole matrix and assemble the report. `progress` receives the
/// id of each workload as it starts (pass `|_| {}` to silence).
pub fn run_suite(
    opts: &SuiteOptions,
    mut progress: impl FnMut(&str),
) -> Result<BenchReport, SolverError> {
    let mut workloads = Vec::new();
    // One buffer pool for the whole matrix: freed blocks from one variant
    // serve the next variant's allocations (many workloads share size
    // classes), so only the first touch of each size class ever misses.
    let pool = DevicePool::new();
    for spec in matrix(opts.mode, opts.scale) {
        let id = spec.id();
        progress(&id);
        let (m, n) = (spec.rows, spec.cols);
        let (nnz, fused, baseline) = match &spec.kind {
            Kind::PatternCsr { dist } => {
                let x = match dist {
                    Dist::Uniform => uniform_sparse(m, n, spec.sparsity, opts.seed),
                    Dist::PowerLaw => powerlaw_sparse(m, n, 10.0, 0.8, opts.seed),
                };
                let (f, b) = run_pattern_csr(opts, &pool, &x)?;
                (x.nnz() as u64, f, b)
            }
            Kind::XtY => {
                let x = uniform_sparse(m, n, spec.sparsity, opts.seed);
                let (f, b) = run_xty(opts, &pool, &x)?;
                (x.nnz() as u64, f, b)
            }
            Kind::PatternEll => {
                let x = uniform_sparse(m, n, spec.sparsity, opts.seed);
                let (f, b) = run_pattern_ell(opts, &pool, &x)?;
                (x.nnz() as u64, f, b)
            }
            Kind::PatternDense => {
                let x = dense_random(m, n, opts.seed);
                let (f, b) = run_pattern_dense(opts, &pool, &x)?;
                ((m * n) as u64, f, b)
            }
            Kind::AlgoCsr(algo) => {
                let x = uniform_sparse(m, n, spec.sparsity, opts.seed);
                let (f, b) = run_algo_csr(opts, &pool, *algo, spec.iterations, &x)?;
                (x.nnz() as u64, f, b)
            }
            Kind::AlgoDense(algo) => {
                let x = dense_random(m, n, opts.seed);
                let (f, b) = run_algo_dense(opts, &pool, *algo, spec.iterations, &x)?;
                ((m * n) as u64, f, b)
            }
            Kind::Pagerank => {
                let x = uniform_sparse(m, n, spec.sparsity, opts.seed);
                let (f, b) = run_pagerank(opts, &pool, spec.iterations, &x)?;
                (x.nnz() as u64, f, b)
            }
        };
        let speedup = if fused.modeled_ms > 0.0 {
            baseline.modeled_ms / fused.modeled_ms
        } else {
            0.0
        };
        workloads.push(WorkloadResult {
            id,
            algorithm: spec.algorithm().to_string(),
            format: spec.format().to_string(),
            rows: m as u64,
            cols: n as u64,
            nnz,
            iterations: spec.iterations,
            fused,
            baseline,
            speedup,
        });
    }
    Ok(BenchReport {
        schema_version: SCHEMA_VERSION,
        git_sha: current_git_sha(),
        fingerprint: opts.fingerprint(),
        workloads,
    })
}
