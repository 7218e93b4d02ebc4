//! `fusedml-bench plans` — the data source of the CI plan-regression
//! gate.
//!
//! For every bench workload that executes through the DAG fusion
//! compiler, compile the cost-selected plan against the workload's exact
//! matrix shape and render it as deterministic JSON: which ops fused into
//! which kernel group, how many intermediates materialize in DRAM vs.
//! stay in registers, the modeled cost, and every rejected candidate with
//! the cost that killed it. CI diffs the dump against the committed
//! golden under `results/baselines/`; any drift — a different candidate
//! winning, a cost shift, a DAG fingerprint change — fails the gate.
//!
//! Planning is pure host work on [`select_plan`] (no simulated device is
//! constructed), so the dump takes milliseconds plus dataset generation.
//! Floats render through Rust's shortest-roundtrip `Display`, so string
//! equality of two dumps is *bit* equality of the modeled costs — the
//! gate pins the cost model, not an approximation of it.

use super::json::Json;
use super::suite::{full_spec, matrix, Algo, Dist, Kind, SuiteOptions, WorkloadSpec};
use fusedml_core::{select_plan, Dag, FusionPlan, MatrixShape, PatternSpec};
use fusedml_matrix::gen::{powerlaw_sparse, uniform_sparse};
use fusedml_ml::LrCgOptions;

/// Bumped when the dump's structure changes incompatibly.
pub const PLANS_SCHEMA_VERSION: u64 = 1;

/// One DAG a workload compiles: a stable name, the definition, and the
/// matrix shape it is planned against.
struct Compilation {
    name: &'static str,
    dag: Dag,
    shape: MatrixShape,
}

/// The DAG compilations a workload performs, mirroring exactly what its
/// suite runner executes. Workloads outside the DAG layer (the hand-fused
/// kernel benchmarks' baselines, the ELL planner, the non-LR-CG solvers)
/// contribute nothing.
fn compilations(spec: &WorkloadSpec, seed: u64) -> Vec<Compilation> {
    let (m, n) = (spec.rows, spec.cols);
    let sparse = |nnz: u64| MatrixShape {
        rows: m,
        cols: n,
        nnz,
        dense: false,
    };
    let dense = MatrixShape {
        rows: m,
        cols: n,
        nnz: m as u64 * n as u64,
        dense: true,
    };
    // The iteration pattern LR-CG hands the backend (`X^T(Xp) + eps*p`).
    let lr_cg_iter = || Dag::equation1(PatternSpec::xtxy_plus_bz(LrCgOptions::default().eps));
    match &spec.kind {
        Kind::PatternCsr { dist } => {
            let x = match dist {
                Dist::Uniform => uniform_sparse(m, n, spec.sparsity, seed),
                Dist::PowerLaw => powerlaw_sparse(m, n, 10.0, 0.8, seed),
            };
            vec![Compilation {
                name: "equation1",
                dag: Dag::equation1(full_spec()),
                shape: sparse(x.nnz() as u64),
            }]
        }
        Kind::XtY => {
            let x = uniform_sparse(m, n, spec.sparsity, seed);
            vec![Compilation {
                name: "xt_y",
                dag: Dag::xt_y(1.0),
                shape: sparse(x.nnz() as u64),
            }]
        }
        // ELL storage is planned by `plan_ell`, outside the DAG compiler.
        Kind::PatternEll => Vec::new(),
        Kind::PatternDense => vec![Compilation {
            name: "equation1",
            dag: Dag::equation1(full_spec()),
            shape: dense,
        }],
        Kind::AlgoCsr(Algo::LrCg) => {
            let x = uniform_sparse(m, n, spec.sparsity, seed);
            let shape = sparse(x.nnz() as u64);
            vec![
                Compilation {
                    name: "lr_cg.init",
                    dag: Dag::xt_y(-1.0),
                    shape,
                },
                Compilation {
                    name: "lr_cg.iter",
                    dag: lr_cg_iter(),
                    shape,
                },
            ]
        }
        Kind::AlgoDense(Algo::LrCg) => vec![
            Compilation {
                name: "lr_cg.init",
                dag: Dag::xt_y(-1.0),
                shape: dense,
            },
            Compilation {
                name: "lr_cg.iter",
                dag: lr_cg_iter(),
                shape: dense,
            },
        ],
        // The remaining solvers run on the hand-fused backend.
        Kind::AlgoCsr(_) | Kind::AlgoDense(_) => Vec::new(),
        Kind::Pagerank => {
            let x = uniform_sparse(m, n, spec.sparsity, seed);
            vec![Compilation {
                name: "pagerank.iter",
                dag: Dag::pagerank(),
                shape: sparse(x.nnz() as u64),
            }]
        }
    }
}

fn compilation_to_json(c: &Compilation, plan: &FusionPlan) -> Json {
    Json::obj(vec![
        ("name", Json::str(c.name)),
        (
            "dag_fingerprint",
            Json::str(format!("{:016x}", plan.dag_fingerprint)),
        ),
        ("rows", Json::u64(c.shape.rows as u64)),
        ("cols", Json::u64(c.shape.cols as u64)),
        ("nnz", Json::u64(c.shape.nnz)),
        ("dense", Json::Bool(c.shape.dense)),
        ("selected", Json::str(plan.desc.clone())),
        ("modeled_ms", Json::num(plan.modeled_ms)),
        (
            "groups",
            Json::Arr(
                plan.groups
                    .iter()
                    .map(|g| {
                        Json::obj(vec![
                            ("kernel", Json::str(g.desc.clone())),
                            ("modeled_ms", Json::num(g.modeled_ms)),
                            ("dram_bytes", Json::u64(g.dram_bytes)),
                            ("launches", Json::u64(g.launches)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("materialized", Json::u64(plan.materialized.len() as u64)),
        ("in_registers", Json::u64(plan.in_registers.len() as u64)),
        (
            "rejected",
            Json::Arr(
                plan.rejected
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("candidate", Json::str(r.desc.clone())),
                            ("modeled_ms", Json::num(r.modeled_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Compile every DAG workload's plan and assemble the dump. No git sha:
/// the file must be byte-diffable against the committed golden.
pub fn plan_report(opts: &SuiteOptions) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for spec in matrix(opts.mode, opts.scale) {
        let comps = compilations(&spec, opts.seed);
        if comps.is_empty() {
            continue;
        }
        let mut dags = Vec::new();
        for c in comps {
            let plan = select_plan(&opts.device, &c.dag, c.shape)
                .map_err(|e| format!("planning {} for {}: {e}", c.name, spec.id()))?;
            dags.push(compilation_to_json(&c, &plan));
        }
        workloads.push(Json::obj(vec![
            ("id", Json::str(spec.id())),
            ("dags", Json::Arr(dags)),
        ]));
    }
    Ok(Json::obj(vec![
        ("schema_version", Json::u64(PLANS_SCHEMA_VERSION)),
        ("fingerprint", opts.fingerprint().to_json()),
        ("workloads", Json::Arr(workloads)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_is_deterministic_and_covers_the_dag_workloads() {
        let opts = SuiteOptions::quick();
        let a = plan_report(&opts).unwrap();
        let b = plan_report(&opts).unwrap();
        assert_eq!(a.render(), b.render(), "two dumps of one config must match");

        let ids: Vec<&str> = a
            .field("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.field_str("id").unwrap())
            .collect();
        for needle in [
            "pattern/csr",
            "xty/csr",
            "lr_cg/csr",
            "lr_cg/dense",
            "pagerank/csr",
        ] {
            assert!(
                ids.iter().any(|id| id.starts_with(needle)),
                "dump is missing a {needle} workload: {ids:?}"
            );
        }
        // Non-DAG workloads must not sneak in.
        assert!(ids.iter().all(|id| !id.contains("ell")));
        assert!(ids.iter().all(|id| !id.starts_with("hits")));
    }

    #[test]
    fn fused_dags_price_and_reject_the_unfused_candidate() {
        let report = plan_report(&SuiteOptions::quick()).unwrap();
        let mut headline_dags = 0;
        for w in report.field("workloads").unwrap().as_arr().unwrap() {
            for d in w.field("dags").unwrap().as_arr().unwrap() {
                assert!(
                    d.field_f64("modeled_ms").unwrap() > 0.0,
                    "modeled cost must be positive"
                );
                // The multi-op DAGs must select a fused candidate with
                // at least one priced-and-rejected alternative. (Sparser
                // DAGs like `xt_y` or the v-less LR-CG iteration collapse
                // several feature choices to the same grouping, so their
                // unfused tier can be deduped under an earlier candidate
                // name — only the full-spec Equation-1 and PageRank DAGs
                // keep every tier distinct.)
                let name = d.field_str("name").unwrap();
                if !(name == "equation1" || name.ends_with(".iter")) {
                    continue;
                }
                headline_dags += 1;
                let selected = d.field_str("selected").unwrap();
                let rejected: Vec<&str> = d
                    .field("rejected")
                    .unwrap()
                    .as_arr()
                    .unwrap()
                    .iter()
                    .map(|r| r.field_str("candidate").unwrap())
                    .collect();
                let id = w.field_str("id").unwrap();
                assert_ne!(selected, "unfused", "{id}/{name}: fusion must win");
                assert!(
                    !rejected.is_empty(),
                    "{id}/{name}: no alternative was priced"
                );
                if name == "pagerank.iter" || (name == "equation1" && id.starts_with("pattern")) {
                    assert!(
                        rejected.contains(&"unfused"),
                        "{id}/{name}: unfused never priced (rejected {rejected:?})"
                    );
                }
            }
        }
        assert!(
            headline_dags >= 5,
            "expected the eq1/iter DAGs, saw {headline_dags}"
        );
    }

    #[test]
    fn drift_detection_flags_a_cost_change_and_a_lost_workload() {
        use crate::regress::{gate, Severity, PLANS_RULES};
        let report = plan_report(&SuiteOptions::quick()).unwrap();
        assert!(gate(PLANS_RULES, &report, &report, false)
            .findings
            .is_empty());

        let mut tampered = report.clone();
        let mut lost = String::new();
        if let Json::Obj(m) = &mut tampered {
            m.insert("schema_version".into(), Json::u64(99));
            if let Some(Json::Arr(ws)) = m.get_mut("workloads") {
                lost = ws.pop().unwrap().field_str("id").unwrap().to_string();
            }
        }
        let drift = gate(PLANS_RULES, &report, &tampered, false);
        assert_eq!(
            drift.at("schema_version"),
            Some(Severity::Regression),
            "{}",
            drift.render()
        );
        assert_eq!(
            drift.at(&format!("workloads[{lost}]")),
            Some(Severity::Regression),
            "{}",
            drift.render()
        );
        // The array length changed too.
        assert_eq!(drift.at("workloads"), Some(Severity::Regression));
    }
}
