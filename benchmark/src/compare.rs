//! `benchmark compare A.json B.json`: gate result B against result A with
//! the bounds `BENCHMARK.json` declares.
//!
//! One row per (workload, end-to-end metric) pair present in A. A row
//! regresses when B is worse than A, in the metric's `better` direction,
//! by more than the metric's `bound` (a share of A's value), or when B
//! lacks the pair. Exit status: 0 no regression, 1 regression, 2 usage
//! error (bad arguments, unreadable or malformed files, nothing to
//! compare).

use fusedml_bench::regress::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark compare A.json B.json [--spec BENCHMARK.json]";

/// One end-to-end metric's gate, as declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// One compared (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    /// `None` when B lacks the pair.
    pub b: Option<f64>,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse: f64,
    pub bound: f64,
    pub regressed: bool,
}

fn default_spec() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The end-to-end gates of a `BENCHMARK.json` document.
pub fn gates(spec: &Json) -> Result<Vec<Gate>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let better = m.field_str("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("better must be lower or higher, got {better:?}"));
            }
            Ok(Gate {
                name: m.field_str("name")?.to_string(),
                lower_is_better: better == "lower",
                bound: m.field_f64("bound")?,
            })
        })
        .collect()
}

/// `(workload, [(metric, value)])` pairs of a result file.
type Values = Vec<(String, Vec<(String, f64)>)>;

fn values(result: &Json, what: &str) -> Result<Values, String> {
    let Some(Json::Obj(workloads)) = result.get("workloads") else {
        return Err(format!("{what}: no workloads object"));
    };
    workloads
        .iter()
        .map(|(w, r)| {
            let Some(Json::Obj(metrics)) = r.get("metrics") else {
                return Err(format!("{what}: {w} has no metrics object"));
            };
            let vals = metrics
                .iter()
                .map(|(m, v)| Ok((m.clone(), v.field_f64("value")?)))
                .collect::<Result<Vec<_>, String>>()
                .map_err(|e| format!("{what}: {w}: {e}"))?;
            Ok((w.clone(), vals))
        })
        .collect()
}

/// Compare every end-to-end (workload, metric) pair of `a` against `b`.
pub fn compare(gates: &[Gate], a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let (a, b) = (values(a, "A")?, values(b, "B")?);
    let mut rows = Vec::new();
    for (workload, a_vals) in &a {
        let b_vals = b.iter().find(|(w, _)| w == workload).map(|(_, v)| v);
        for gate in gates {
            let Some(&(_, av)) = a_vals.iter().find(|(m, _)| *m == gate.name) else {
                continue;
            };
            let bv = b_vals.and_then(|v| v.iter().find(|(m, _)| *m == gate.name).map(|p| p.1));
            let worse = match bv {
                Some(bv) if av != 0.0 => {
                    let rel = (bv - av) / av.abs();
                    if gate.lower_is_better {
                        rel
                    } else {
                        -rel
                    }
                }
                Some(bv) if bv == av => 0.0,
                _ => f64::INFINITY,
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: gate.name.clone(),
                a: av,
                b: bv,
                worse,
                bound: gate.bound,
                regressed: worse > gate.bound,
            });
        }
    }
    if rows.is_empty() {
        return Err("no end-to-end metric in A to compare".to_string());
    }
    Ok(rows)
}

pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut spec = default_spec();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => match it.next() {
                Some(p) => spec = PathBuf::from(p),
                None => return usage("--spec needs a value"),
            },
            flag if flag.starts_with("--") => return usage(&format!("unknown argument {flag:?}")),
            file => files.push(PathBuf::from(file)),
        }
    }
    let [a, b] = files.as_slice() else {
        return usage("expected two result files");
    };
    let rows = load(&spec)
        .and_then(|s| gates(&s))
        .and_then(|g| compare(&g, &load(a)?, &load(b)?));
    let rows = match rows {
        Ok(rows) => rows,
        Err(e) => return usage(&e),
    };
    println!(
        "{:<16} {:<16} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for r in &rows {
        let b = r.b.map_or("missing".to_string(), |v| format!("{v:.6}"));
        println!(
            "{:<16} {:<16} {:>16.6} {:>16} {:>8.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            b,
            r.worse * 100.0,
            r.bound * 100.0,
            if r.regressed { "REGRESSION" } else { "ok" }
        );
    }
    if rows.iter().any(|r| r.regressed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("benchmark compare: {msg}\n{USAGE}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(workload: &str, pairs: &[(&str, f64)]) -> Json {
        let metrics = pairs
            .iter()
            .map(|&(m, v)| (m, Json::obj(vec![("value", Json::num(v))])))
            .collect();
        Json::obj(vec![(
            "workloads",
            Json::obj(vec![(
                workload,
                Json::obj(vec![("metrics", Json::obj(metrics))]),
            )]),
        )])
    }

    #[test]
    fn bounds_apply_in_each_metric_direction() {
        let gates = vec![
            Gate {
                name: "host_ms_p10".into(),
                lower_is_better: true,
                bound: 0.1,
            },
            Gate {
                name: "modeled_speedup".into(),
                lower_is_better: false,
                bound: 0.05,
            },
        ];
        let a = result("w", &[("host_ms_p10", 10.0), ("modeled_speedup", 2.0)]);
        // Within bounds both ways, and improvements never regress.
        let b = result("w", &[("host_ms_p10", 10.9), ("modeled_speedup", 1.95)]);
        assert!(compare(&gates, &a, &b)
            .unwrap()
            .iter()
            .all(|r| !r.regressed));
        let better = result("w", &[("host_ms_p10", 5.0), ("modeled_speedup", 4.0)]);
        assert!(compare(&gates, &a, &better)
            .unwrap()
            .iter()
            .all(|r| !r.regressed));
        // Past the bound, and a missing pair, regress.
        let worse = result("w", &[("host_ms_p10", 11.5)]);
        let rows = compare(&gates, &a, &worse).unwrap();
        assert!(rows.iter().all(|r| r.regressed), "{rows:?}");
        assert_eq!(rows[1].b, None);
        // Nothing in common is a usage error, not a pass.
        assert!(compare(&gates, &result("w", &[("other", 1.0)]), &b).is_err());
    }

    #[test]
    fn gates_come_from_the_repository_spec() {
        let spec = load(&default_spec()).unwrap();
        let gates = gates(&spec).unwrap();
        let names: Vec<&str> = gates.iter().map(|g| g.name.as_str()).collect();
        let declared: Vec<&str> = crate::harness::END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, declared);
        assert!(gates.iter().all(|g| g.bound > 0.0 && g.bound <= 0.25));
    }
}
