//! `solver-small`: one op is a round of six fixed-budget solves — LR-CG
//! through the DAG fusion compiler (`DagBackend`, 8 iterations), GLM,
//! logistic regression and SVM (one outer iteration of at most 6 inner CG
//! steps each, the budgets `runtime::serve` gives these classes) and HITS
//! (6) on `FusedBackend`, and PageRank through `pagerank()` (6) — with
//! every tolerance at 0 so each solve does the same work every time.
//!
//! The solver matrix is CSR 3000×512 at 1% (~0.2 MB, inside the modeled
//! L2) and PageRank runs on a 2000×2000 link matrix: the opposite regime to
//! `kernel-large`. Many small launches, plan-cache lookups, pool traffic
//! and host solver math dominate, and the L2-hit path does the device work.

use super::dev_err;
use crate::harness::{check, check_rel_l2, timed, Count, Harness, OpRecord, Params, Phase, SETUPS};
use crate::span::{self, span};
use crate::timed::TimedBackend;
use fusedml_gpu_sim::{DeviceSpec, Gpu};
use fusedml_matrix::gen::{random_labels, random_vector, uniform_sparse};
use fusedml_matrix::{reference, CsrMatrix};
use fusedml_ml::{
    inv_out_degrees, try_glm, try_hits, try_logreg, try_lr_cg, try_pagerank, try_pagerank_backend,
    try_svm, Backend, BackendStats, BaselineBackend, CpuBackend, DagBackend, FusedBackend,
    GlmOptions, HitsOptions, LogRegOptions, LrCgOptions, PagerankOptions, PagerankPlan, SvmOptions,
};
use std::sync::Arc;

/// Solver weights vs. `CpuBackend`.
const REL_L2_TOL: f64 = 1e-6;
/// Inner CG steps of the Newton-type solvers' one outer iteration.
const INNER_CG: usize = 6;

/// The five backend-generic solves of a round, in order.
#[derive(Debug, Clone, Copy)]
enum Solve {
    LrCg,
    Glm,
    LogReg,
    Svm,
    Hits,
}

const SOLVES: [Solve; 5] = [
    Solve::LrCg,
    Solve::Glm,
    Solve::LogReg,
    Solve::Svm,
    Solve::Hits,
];

impl Solve {
    fn name(self) -> &'static str {
        match self {
            Solve::LrCg => "try_lr_cg",
            Solve::Glm => "try_glm",
            Solve::LogReg => "try_logreg",
            Solve::Svm => "try_svm",
            Solve::Hits => "try_hits",
        }
    }
}

struct Inputs {
    x: CsrMatrix,
    /// LR-CG targets `X w*`, GLM counts `exp(clamp(X w*))`, ±1 labels.
    targets: Vec<f64>,
    counts: Vec<f64>,
    labels: Vec<f64>,
    links: CsrMatrix,
}

impl Inputs {
    /// The `fusedml-bench run` suite's algorithm-level inputs, at half its
    /// row count.
    fn generate(p: Params) -> Inputs {
        let (m, n) = (p.rows(3_000), 512);
        let x = {
            let _s = span("matrix", "gen::uniform_sparse");
            uniform_sparse(m, n, 0.01, p.seed)
        };
        let targets = {
            let _s = span("matrix", "reference::csr_mv");
            reference::csr_mv(&x, &random_vector(n, p.seed_plus(10)))
        };
        let counts = targets.iter().map(|t| t.clamp(-3.0, 3.0).exp()).collect();
        let labels = {
            let _s = span("matrix", "gen::random_labels");
            random_labels(m, p.seed_plus(11))
        };
        let pr = p.rows(2_000);
        let links = {
            let _s = span("matrix", "gen::uniform_sparse");
            uniform_sparse(pr, pr, 0.002, p.seed)
        };
        Inputs {
            x,
            targets,
            counts,
            labels,
            links,
        }
    }
}

fn pagerank_options(plan: PagerankPlan) -> PagerankOptions {
    PagerankOptions {
        max_iterations: 6,
        tolerance: 0.0,
        plan,
        ..PagerankOptions::default()
    }
}

/// Run one solve on any backend; returns the solution vector the checks
/// compare (weights, or HITS authorities).
fn solve<B: Backend>(b: &mut B, which: Solve, d: &Inputs) -> Result<Vec<f64>, String> {
    let _s = span("ml", which.name());
    match which {
        Solve::LrCg => try_lr_cg(
            b,
            &d.targets,
            LrCgOptions {
                max_iterations: 8,
                tolerance: 0.0,
                ..LrCgOptions::default()
            },
        )
        .map(|r| r.weights),
        Solve::Glm => try_glm(
            b,
            &d.counts,
            GlmOptions {
                max_outer: 1,
                max_inner_cg: INNER_CG,
                grad_tol: 0.0,
                ..GlmOptions::default()
            },
        )
        .map(|r| r.weights),
        Solve::LogReg => try_logreg(
            b,
            &d.labels,
            LogRegOptions {
                max_outer: 1,
                max_inner_cg: INNER_CG,
                grad_tol: 0.0,
                ..LogRegOptions::default()
            },
        )
        .map(|r| r.weights),
        Solve::Svm => try_svm(
            b,
            &d.labels,
            SvmOptions {
                max_outer: 1,
                max_inner_cg: INNER_CG,
                grad_tol: 0.0,
                ..SvmOptions::default()
            },
        )
        .map(|r| r.weights),
        Solve::Hits => try_hits(
            b,
            HitsOptions {
                max_iterations: 6,
                tolerance: 0.0,
            },
        )
        .map(|r| r.authorities),
    }
    .map_err(|e| format!("{}: {e}", which.name()))
}

/// A solve on a device backend from cold caches and zeroed stats; traced
/// ops route the backend's calls through [`TimedBackend`].
fn device_solve<B: Backend>(
    gpu: &Gpu,
    b: &mut B,
    which: Solve,
    d: &Inputs,
    rec: &mut OpRecord,
) -> Result<(Vec<f64>, BackendStats), String> {
    gpu.flush_caches();
    b.reset_stats();
    let w = if span::enabled() {
        timed(rec, || solve(&mut TimedBackend::new(b), which, d))?
    } else {
        timed(rec, || solve(b, which, d))?
    };
    Ok((w, b.stats()))
}

fn add_stats(rec: &mut OpRecord, s: &BackendStats) {
    rec.add(Count::Launches, s.launches as f64);
    rec.add(Count::LaunchMs, s.sim_ms);
    rec.add(Count::OccupancyMs, s.occupancy_ms);
    rec.add_counters(&s.counters);
    rec.add(Count::PoolHits, s.pool.hits as f64);
    rec.add(Count::PoolMisses, s.pool.misses as f64);
    rec.add(Count::PlanHits, s.plan.hits as f64);
    rec.add(Count::PlansComputed, s.plan.plans_computed() as f64);
}

pub fn run(h: &mut Harness) -> Result<(), String> {
    let device = Arc::new(DeviceSpec::gtx_titan());
    let p = h.params();
    for _ in 0..SETUPS {
        h.begin_setup();
        let d = h.phase(Phase::Inputs, || Inputs::generate(p));
        let gpu = h.phase(Phase::State, || {
            let _s = span("gpu_sim", "Gpu::new");
            Gpu::new(device.clone())
        });
        let (mut dag, mut fused) = h.phase(Phase::State, || -> Result<_, String> {
            let dag = {
                let _s = span("ml", "DagBackend::try_new_sparse");
                DagBackend::try_new_sparse(&gpu, &d.x).map_err(dev_err)?
            };
            let _s = span("ml", "FusedBackend::try_new_sparse");
            let fused = FusedBackend::try_new_sparse(&gpu, &d.x).map_err(dev_err)?;
            Ok((dag, fused))
        })?;
        let inv_deg = inv_out_degrees(&d.links);
        let (expected, baseline_ms) = h.phase(Phase::Reference, || -> Result<_, String> {
            let mut cpu = CpuBackend::new_sparse(d.x.clone());
            let mut expected = SOLVES
                .iter()
                .map(|&s| solve(&mut cpu, s, &d))
                .collect::<Result<Vec<_>, _>>()?;
            let mut cpu_links = CpuBackend::new_sparse(d.links.clone());
            let ranks = {
                let _s = span("ml", "try_pagerank_backend");
                try_pagerank_backend(
                    &mut cpu_links,
                    &inv_deg,
                    pagerank_options(PagerankPlan::Selected),
                )
                .map_err(dev_err)?
                .ranks
            };
            expected.push(ranks);

            let base_gpu = Gpu::new(device.clone());
            let mut base = {
                let _s = span("ml", "BaselineBackend::try_new_sparse");
                BaselineBackend::try_new_sparse(&base_gpu, &d.x).map_err(dev_err)?
            };
            let mut baseline_ms = 0.0;
            for &s in &SOLVES {
                base_gpu.flush_caches();
                base.reset_stats();
                solve(&mut base, s, &d)?;
                baseline_ms += base.stats().sim_ms;
            }
            base_gpu.flush_caches();
            let _s = span("ml", "try_pagerank");
            baseline_ms +=
                try_pagerank(&base_gpu, &d.links, pagerank_options(PagerankPlan::Unfused))
                    .map_err(dev_err)?
                    .sim_ms;
            Ok((expected, baseline_ms))
        })?;

        let mut op = |_: usize| -> Result<OpRecord, String> {
            let mut rec = OpRecord::default();
            let mut got = Vec::with_capacity(SOLVES.len() + 1);
            let mut modeled = 0.0;
            for &s in &SOLVES {
                let (w, stats) = match s {
                    Solve::LrCg => device_solve(&gpu, &mut dag, s, &d, &mut rec)?,
                    _ => device_solve(&gpu, &mut fused, s, &d, &mut rec)?,
                };
                add_stats(&mut rec, &stats);
                modeled += stats.sim_ms;
                got.push(w);
            }
            gpu.flush_caches();
            let pool_before = gpu.pool_stats();
            let pr = timed(&mut rec, || {
                let _s = span("ml", "try_pagerank");
                try_pagerank(&gpu, &d.links, pagerank_options(PagerankPlan::Selected))
            })
            .map_err(dev_err)?;
            let pool = gpu.pool_stats().delta_since(&pool_before);
            rec.add(Count::Launches, pr.launches as f64);
            rec.add(Count::LaunchMs, pr.sim_ms);
            rec.add(Count::OccupancyMs, pr.occupancy * pr.sim_ms);
            rec.add_counters(&pr.counters);
            rec.add(Count::PoolHits, pool.hits as f64);
            rec.add(Count::PoolMisses, pool.misses as f64);
            rec.add(Count::PlanHits, pr.plan_stats.hits as f64);
            rec.add(Count::PlansComputed, pr.plan_stats.plans_computed() as f64);
            modeled += pr.sim_ms;
            got.push(pr.ranks);

            rec.add(Count::ModeledMs, modeled);
            rec.add(Count::ComparedMs, modeled);
            rec.add(Count::ComparatorMs, baseline_ms);
            rec.add(Count::GoodUnits, got.len() as f64);
            rec.modeled_samples.push(modeled);
            check(&mut rec, || {
                got.iter()
                    .zip(&expected)
                    .zip(SOLVES.iter().map(|s| s.name()).chain(["try_pagerank"]))
                    .try_for_each(|((g, want), what)| check_rel_l2(what, g, want, REL_L2_TOL))
            })?;
            Ok(rec)
        };
        // Every op is the same round.
        h.finish_setup(1, &mut op);
    }
    Ok(())
}
