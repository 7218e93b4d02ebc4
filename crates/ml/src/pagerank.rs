//! PageRank power iteration, defined as an operator DAG and executed
//! through the fusion compiler.
//!
//! One iteration over a square link matrix `L` (`L[i][j] != 0` when page
//! `i` links to page `j`) is
//!
//! ```text
//! r' = d * L^T (r ⊙ inv_deg) + teleport * ones,   teleport = (1 - d) / n
//! ```
//!
//! — exactly [`Dag::pagerank`]. The damping factor and teleport mass are
//! bound as scalar *parameters*, so the DAG's structural fingerprint (and
//! therefore the memoized fusion plan) is shared by every iteration. The
//! compiler folds the `d *` scale into the fused `alpha * L^T u` kernel
//! (the `tmv-fold` candidate), which is the whole point of running the
//! solver through the DAG layer rather than op by op.
//!
//! Dangling pages (zero out-degree) get `inv_deg = 0`: their rank mass
//! leaves the system instead of being redistributed, the simplest of the
//! standard variants and adequate for a kernel-fusion benchmark.

use crate::checkpoint::{CheckpointHandle, SolverCheckpoint};
use crate::error::SolverError;
use crate::ops::Backend;
use fusedml_blas::{level1, GpuCsr};
use fusedml_core::{unfused_plan, Dag, DagExecutor, DagInputs, DagMatrix, FusionPlan};
use fusedml_gpu_sim::{Counters, Gpu};
use fusedml_matrix::CsrMatrix;
use std::sync::Arc;

/// Which fusion plan the solver executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagerankPlan {
    /// The compiler's cost-selected plan (normally `tmv-fold+ew`).
    #[default]
    Selected,
    /// The unfused one-kernel-per-operator reference plan — the bench
    /// suite's operator-composition baseline for this workload.
    Unfused,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PagerankOptions {
    /// Damping factor `d` (the classic 0.85).
    pub damping: f64,
    pub max_iterations: usize,
    /// Convergence threshold on the L2 change of the rank vector.
    pub tolerance: f64,
    pub plan: PagerankPlan,
}

impl Default for PagerankOptions {
    fn default() -> Self {
        PagerankOptions {
            damping: 0.85,
            max_iterations: 100,
            tolerance: 1e-10,
            plan: PagerankPlan::Selected,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct PagerankResult {
    /// Final rank vector (length n).
    pub ranks: Vec<f64>,
    pub iterations: usize,
    /// Final L2 change between successive rank vectors.
    pub delta: f64,
    /// The fusion plan the compiler selected for the iteration DAG.
    pub plan: Arc<FusionPlan>,
    /// Simulated device milliseconds of the whole solve.
    pub sim_ms: f64,
    /// Kernel launches of the whole solve.
    pub launches: usize,
    /// Merged hardware counters of every launch in the solve.
    pub counters: Counters,
    /// Time-weighted mean occupancy across all launches.
    pub occupancy: f64,
    /// DAG-side plan-cache traffic of the solve (one miss, then hits).
    pub plan_stats: fusedml_core::PlanCacheStats,
}

/// Run PageRank on `links` through the DAG fusion compiler. Device faults
/// propagate as [`SolverError::Device`]; a non-finite rank delta aborts
/// with [`SolverError::NumericalBreakdown`].
pub fn try_pagerank(
    gpu: &Gpu,
    links: &CsrMatrix,
    opts: PagerankOptions,
) -> Result<PagerankResult, SolverError> {
    const SOLVER: &str = "pagerank";
    assert_eq!(
        links.rows(),
        links.cols(),
        "PageRank needs a square link matrix"
    );
    let n = links.rows();
    let d = opts.damping;
    let teleport = (1.0 - d) / n.max(1) as f64;

    // Reciprocal out-degrees (0 for dangling pages), computed host-side
    // once: they are a property of the graph, not of the iteration.
    let inv_deg_host: Vec<f64> = (0..n)
        .map(|r| {
            let deg: f64 = links.row_entries(r).map(|(_, v)| v).sum();
            if deg > 0.0 {
                1.0 / deg
            } else {
                0.0
            }
        })
        .collect();

    let ld = GpuCsr::try_upload(gpu, "L", links)?;
    let r = gpu.try_upload_f64("pagerank.r", &vec![1.0 / n.max(1) as f64; n])?;
    let r_next = gpu.try_alloc_f64("pagerank.r_next", n)?;
    let delta_buf = gpu.try_alloc_f64("pagerank.delta", n)?;
    let scalar = gpu.try_alloc_f64("pagerank.scalar", 1)?;
    let inv_deg = gpu.try_upload_f64("pagerank.inv_deg", &inv_deg_host)?;
    let ones = gpu.try_upload_f64("pagerank.ones", &vec![1.0; n])?;

    let dag = Dag::pagerank();
    let mut dexec = DagExecutor::try_new(gpu)?;
    let matrix = DagMatrix::Sparse(&ld);
    // An explicitly unfused run bypasses selection (and the plan cache):
    // the reference plan is compiled once and pinned for every iteration.
    let forced: Option<Arc<FusionPlan>> = match opts.plan {
        PagerankPlan::Selected => None,
        PagerankPlan::Unfused => Some(Arc::new(unfused_plan(gpu.spec(), &dag, matrix.shape())?)),
    };

    // BLAS-1 convergence bookkeeping is charged alongside the DAG runs.
    let mut extra_ms = 0.0;
    let mut extra_launches = 0usize;
    let mut extra_counters = Counters::new();
    let mut extra_occ_ms = 0.0;
    let mut charge = |s: fusedml_gpu_sim::LaunchStats| {
        extra_ms += s.sim_ms();
        extra_launches += 1;
        extra_occ_ms += s.occupancy.occupancy * s.sim_ms();
        extra_counters.merge(&s.counters);
    };

    let mut plan: Option<Arc<FusionPlan>> = None;
    let mut iters = 0usize;
    let mut delta = f64::INFINITY;
    while iters < opts.max_iterations && delta > opts.tolerance {
        let mut span = fusedml_trace::wall_span("solver", "pagerank.iter", "host");
        span.arg("iter", iters);
        let inputs = DagInputs::new()
            .vector("r", &r)
            .vector("inv_deg", &inv_deg)
            .vector("ones", &ones)
            .scalar("d", d)
            .scalar("teleport", teleport);
        match &forced {
            Some(p) => {
                dexec.try_run_with_plan(p, &dag, &matrix, &inputs, &r_next)?;
                plan.get_or_insert_with(|| p.clone());
            }
            None => {
                let run = dexec.try_run(&dag, &matrix, &inputs, &r_next)?;
                plan.get_or_insert(run.plan);
            }
        }

        // delta = ||r' - r||
        charge(level1::try_copy(gpu, &r_next, &delta_buf)?);
        charge(level1::try_axpy(gpu, -1.0, &r, &delta_buf)?);
        let (d2, s) = level1::try_nrm2_sq(gpu, &delta_buf, &scalar)?;
        charge(s);
        delta = d2.sqrt();
        if !delta.is_finite() {
            return Err(SolverError::breakdown(
                SOLVER,
                iters,
                format!("rank delta is {delta}"),
            ));
        }
        span.arg("delta", delta);

        charge(level1::try_copy(gpu, &r_next, &r)?);
        iters += 1;
    }

    let plan = match plan {
        Some(p) => p,
        // Zero iterations requested: still compile the plan so callers
        // (the bench plan dump) always get one.
        None => dexec.try_plan(&dag, &matrix)?.0,
    };
    let mut counters = dexec.counters_total();
    counters.merge(&extra_counters);
    let mut occ_ms = extra_occ_ms;
    for l in dexec.launches() {
        occ_ms += l.occupancy.occupancy * l.sim_ms();
    }
    let sim_ms = dexec.total_sim_ms() + extra_ms;
    Ok(PagerankResult {
        ranks: r.to_vec_f64(),
        iterations: iters,
        delta,
        plan,
        sim_ms,
        launches: dexec.launch_count() + extra_launches,
        counters,
        occupancy: if sim_ms > 0.0 { occ_ms / sim_ms } else { 0.0 },
        plan_stats: dexec.dag_plan_stats(),
    })
}

/// Result of the backend-generic power iteration
/// ([`try_pagerank_backend`]): just the solver state, no plan/counter
/// introspection — cost accounting comes from the backend's own stats.
#[derive(Debug, Clone, PartialEq)]
pub struct PagerankPowerResult {
    /// Final rank vector (length n).
    pub ranks: Vec<f64>,
    pub iterations: usize,
    /// Final L2 change between successive rank vectors.
    pub delta: f64,
}

/// Reciprocal out-degrees of `links` (0 for dangling pages), the
/// host-side graph property [`try_pagerank_backend`] takes as input.
pub fn inv_out_degrees(links: &CsrMatrix) -> Vec<f64> {
    (0..links.rows())
        .map(|r| {
            let deg: f64 = links.row_entries(r).map(|(_, v)| v).sum();
            if deg > 0.0 {
                1.0 / deg
            } else {
                0.0
            }
        })
        .collect()
}

/// [`try_pagerank_backend_ckpt`] without checkpointing.
pub fn try_pagerank_backend<B: Backend>(
    backend: &mut B,
    inv_deg: &[f64],
    opts: PagerankOptions,
) -> Result<PagerankPowerResult, SolverError> {
    try_pagerank_backend_ckpt(backend, inv_deg, opts, None)
}

/// PageRank power iteration written against the [`Backend`] trait, so the
/// same solve runs on the fused, baseline, streamed and CPU engines — the
/// entry point the multi-tenant serving ladder degrades through. One
/// iteration is `r' = d * L^T (r ⊙ inv_deg) + teleport * ones`, the same
/// dangling-page variant as [`try_pagerank`] (`opts.plan` is ignored: plan
/// selection belongs to the DAG path).
///
/// With `ckpt` the normalized rank vector is snapshotted every
/// `ckpt.every()` iterations and a later run resumes the power iteration
/// from that vector bit-identically — the rank vector is the entire
/// iteration state.
pub fn try_pagerank_backend_ckpt<B: Backend>(
    backend: &mut B,
    inv_deg: &[f64],
    opts: PagerankOptions,
    ckpt: Option<&CheckpointHandle>,
) -> Result<PagerankPowerResult, SolverError> {
    const SOLVER: &str = "pagerank";
    let n = backend.cols();
    if backend.rows() != n {
        return Err(SolverError::breakdown(
            SOLVER,
            0,
            format!("link matrix must be square, got {}x{n}", backend.rows()),
        ));
    }
    if inv_deg.len() != n {
        return Err(SolverError::breakdown(
            SOLVER,
            0,
            format!("inv_deg has {} entries for {n} pages", inv_deg.len()),
        ));
    }
    let d = opts.damping;
    let teleport = (1.0 - d) / n.max(1) as f64;

    let resume = ckpt.and_then(|h| h.latest()).and_then(|c| match c {
        SolverCheckpoint::Pagerank {
            iteration,
            delta,
            ranks,
        } if ranks.len() == n && delta.is_finite() => Some((iteration, delta, ranks)),
        _ => None,
    });
    let (mut r, mut iters, mut delta) = match resume {
        Some((iteration, delta, ranks)) => {
            let r = backend.try_from_host("pagerank.r", &ranks)?;
            if let Some(h) = ckpt {
                h.note_resume(iteration);
            }
            (r, iteration, delta)
        }
        None => (
            backend.try_from_host("pagerank.r", &vec![1.0 / n.max(1) as f64; n])?,
            0,
            f64::INFINITY,
        ),
    };
    let inv = backend.try_from_host("pagerank.inv_deg", inv_deg)?;
    let ones = backend.try_from_host("pagerank.ones", &vec![1.0; n])?;
    let mut u = backend.try_zeros("pagerank.u", n)?;
    let mut r_next = backend.try_zeros("pagerank.r_next", n)?;
    let mut delta_buf = backend.try_zeros("pagerank.delta", n)?;

    while iters < opts.max_iterations && delta > opts.tolerance {
        let mut span = fusedml_trace::wall_span("solver", "pagerank.iter", "host");
        span.arg("iter", iters);
        // u = r ⊙ inv_deg; r' = d * L^T u + teleport * ones.
        backend.try_ewmul(&r, &inv, &mut u)?;
        backend.try_tmv(d, &u, &mut r_next)?;
        backend.try_axpy(teleport, &ones, &mut r_next)?;

        // delta = ||r' - r||
        backend.try_copy(&r_next, &mut delta_buf)?;
        backend.try_axpy(-1.0, &r, &mut delta_buf)?;
        delta = backend.try_nrm2_sq(&delta_buf)?.sqrt();
        if !delta.is_finite() {
            return Err(SolverError::breakdown(
                SOLVER,
                iters,
                format!("rank delta is {delta}"),
            ));
        }
        span.arg("delta", delta);

        backend.try_copy(&r_next, &mut r)?;
        iters += 1;

        if let Some(h) = ckpt {
            if h.due(iters) {
                h.save(SolverCheckpoint::Pagerank {
                    iteration: iters,
                    delta,
                    ranks: backend.to_host(&r),
                });
            }
        }
    }

    Ok(PagerankPowerResult {
        ranks: backend.to_host(&r),
        iterations: iters,
        delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::CpuBackend;
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::{reference, Coo};

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    /// Host reference of the same iteration (same dangling-page variant).
    fn host_pagerank(links: &CsrMatrix, opts: PagerankOptions) -> (Vec<f64>, usize) {
        let n = links.rows();
        let teleport = (1.0 - opts.damping) / n as f64;
        let inv_deg: Vec<f64> = (0..n)
            .map(|r| {
                let deg: f64 = links.row_entries(r).map(|(_, v)| v).sum();
                if deg > 0.0 {
                    1.0 / deg
                } else {
                    0.0
                }
            })
            .collect();
        let mut r = vec![1.0 / n as f64; n];
        let mut iters = 0;
        let mut delta = f64::INFINITY;
        while iters < opts.max_iterations && delta > opts.tolerance {
            let scaled: Vec<f64> = r.iter().zip(&inv_deg).map(|(a, b)| a * b).collect();
            let mut next = reference::csr_tmv(links, &scaled);
            for v in &mut next {
                *v = opts.damping * *v + teleport;
            }
            delta = next
                .iter()
                .zip(&r)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            r = next;
            iters += 1;
        }
        (r, iters)
    }

    fn ring_with_hub(n: usize) -> CsrMatrix {
        // i -> i+1 ring, plus every page links to page 0.
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, (i + 1) % n, 1.0);
            if i != 0 {
                coo.push(i, 0, 1.0);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn matches_the_host_reference_and_favors_the_hub() {
        let links = ring_with_hub(64);
        let opts = PagerankOptions {
            max_iterations: 60,
            tolerance: 1e-12,
            ..Default::default()
        };
        let g = gpu();
        let res = try_pagerank(&g, &links, opts).unwrap();
        let (expect, host_iters) = host_pagerank(&links, opts);
        assert_eq!(res.iterations, host_iters);
        assert!(
            reference::rel_l2_error(&res.ranks, &expect) < 1e-9,
            "device PageRank diverged from the host reference"
        );
        let hub = res.ranks[0];
        assert!(
            res.ranks[1..].iter().all(|&v| v < hub),
            "page 0 receives every page's link and must rank highest"
        );
        assert!(res.sim_ms > 0.0 && res.launches > 0);
    }

    #[test]
    fn compiler_folds_the_damping_scale_into_the_tmv_kernel() {
        let g = gpu();
        let res = try_pagerank(
            &g,
            &ring_with_hub(32),
            PagerankOptions {
                max_iterations: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            res.plan
                .groups
                .iter()
                .any(|kg| kg.desc.starts_with("tmv-fold")),
            "plan: {:?}",
            res.plan.desc
        );
        assert!(
            res.plan.rejected.iter().any(|r| r.desc == "unfused"),
            "the unfused candidate must have been priced"
        );
    }

    #[test]
    fn unfused_plan_reproduces_the_ranks_at_a_higher_modeled_cost() {
        let links = ring_with_hub(64);
        let opts = PagerankOptions {
            max_iterations: 8,
            tolerance: 0.0,
            ..Default::default()
        };
        let fused = try_pagerank(&gpu(), &links, opts).unwrap();
        let unfused = try_pagerank(
            &gpu(),
            &links,
            PagerankOptions {
                plan: PagerankPlan::Unfused,
                ..opts
            },
        )
        .unwrap();
        // Fusion here only folds the damping scale into the transposed
        // scan's final multiply — the accumulation order is untouched, so
        // the ranks agree to the bit.
        assert_eq!(fused.ranks, unfused.ranks);
        assert_eq!(unfused.plan.desc, "unfused");
        assert!(
            unfused.launches > fused.launches,
            "unfused {} vs fused {} launches",
            unfused.launches,
            fused.launches
        );
        assert!(
            unfused.sim_ms > fused.sim_ms,
            "unfused {} vs fused {} modeled ms",
            unfused.sim_ms,
            fused.sim_ms
        );
        // The pinned plan never touches the cache.
        assert_eq!(unfused.plan_stats.misses + unfused.plan_stats.hits, 0);
    }

    #[test]
    fn backend_power_iteration_matches_dag_solver_and_host_reference() {
        let links = ring_with_hub(64);
        let opts = PagerankOptions {
            max_iterations: 40,
            tolerance: 1e-12,
            ..Default::default()
        };
        let mut cpu = CpuBackend::new_sparse(links.clone());
        let res = try_pagerank_backend(&mut cpu, &inv_out_degrees(&links), opts).unwrap();
        let (expect, host_iters) = host_pagerank(&links, opts);
        assert_eq!(res.iterations, host_iters);
        assert!(reference::rel_l2_error(&res.ranks, &expect) < 1e-9);
        // The fused device backend agrees with the CPU backend.
        let g = gpu();
        let mut fused = crate::ops::FusedBackend::try_new_sparse(&g, &links).unwrap();
        let dev = try_pagerank_backend(&mut fused, &inv_out_degrees(&links), opts).unwrap();
        assert_eq!(dev.iterations, res.iterations);
        assert!(reference::rel_l2_error(&dev.ranks, &res.ranks) < 1e-9);
    }

    #[test]
    fn backend_checkpoint_resume_is_bit_identical() {
        use crate::checkpoint::CheckpointHandle;
        let links = ring_with_hub(48);
        let opts = PagerankOptions {
            max_iterations: 8,
            tolerance: 0.0,
            ..Default::default()
        };
        let inv = inv_out_degrees(&links);
        let mut full_b = CpuBackend::new_sparse(links.clone());
        let full = try_pagerank_backend(&mut full_b, &inv, opts).unwrap();

        let h = CheckpointHandle::new(4);
        let mut first = CpuBackend::new_sparse(links.clone());
        let partial = try_pagerank_backend_ckpt(
            &mut first,
            &inv,
            PagerankOptions {
                max_iterations: 4,
                ..opts
            },
            Some(&h),
        )
        .unwrap();
        assert_eq!(partial.iterations, 4);
        let mut second = CpuBackend::new_sparse(links);
        let resumed = try_pagerank_backend_ckpt(&mut second, &inv, opts, Some(&h)).unwrap();
        assert_eq!(h.last_resume(), Some(4));
        assert_eq!(h.resumes(), vec![4]);
        assert_eq!(resumed.iterations, full.iterations);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&resumed.ranks), bits(&full.ranks));
    }

    #[test]
    fn backend_rejects_non_square_graphs_with_a_typed_error() {
        let mut cpu = CpuBackend::new_sparse(fusedml_matrix::gen::uniform_sparse(8, 4, 0.5, 1));
        let err = try_pagerank_backend(&mut cpu, &[0.0; 4], PagerankOptions::default())
            .expect_err("rectangular link matrix must be rejected");
        assert_eq!(err.kind(), "numerical-breakdown");
    }

    #[test]
    fn iterations_share_one_memoized_plan() {
        let g = gpu();
        let links = ring_with_hub(48);
        let res = try_pagerank(
            &g,
            &links,
            PagerankOptions {
                max_iterations: 5,
                tolerance: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(res.iterations, 5);
        // One compile, four cache hits — scalar parameters are bound per
        // run, so the fingerprint (and plan) is iteration-invariant.
        assert_eq!(res.plan_stats.misses, 1, "stats: {:?}", res.plan_stats);
        assert_eq!(res.plan_stats.hits, 4, "stats: {:?}", res.plan_stats);
    }
}
