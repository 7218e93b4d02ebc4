//! The benchmark's workloads. Each drives the library crates' public APIs
//! from outside, records what every op did, and checks every op's output.

mod kernel;
mod serve;
mod solver;
mod stream;

use crate::harness::{Harness, Outcome, RunOptions};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "kernel-large",
    "solver-small",
    "stream-resident",
    "serve-mixed",
];

/// Run one workload in this process.
pub fn run(name: &str, opts: RunOptions) -> Result<Outcome, String> {
    let mut h = Harness::new(opts);
    match name {
        "kernel-large" => kernel::run(&mut h)?,
        "solver-small" => solver::run(&mut h)?,
        "stream-resident" => stream::run(&mut h)?,
        "serve-mixed" => serve::run(&mut h)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {})",
                NAMES.join(", ")
            ))
        }
    }
    Ok(h.finish())
}

/// Typed library errors become op failures.
fn dev_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{END_TO_END, PER_LAYER};
    use fusedml_bench::regress::json::Json;
    use std::collections::BTreeSet;

    fn tiny(seed: u64, trace: bool) -> RunOptions {
        RunOptions {
            seed,
            seconds: 0.0,
            trace,
            scale: 0.02,
        }
    }

    /// Metric names a `BENCHMARK.json` list declares.
    fn declared(key: &str) -> BTreeSet<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.field_str("name").unwrap().to_string())
            .collect()
    }

    fn names(out: &Outcome, trace: bool) -> BTreeSet<String> {
        out.printed(trace)
            .iter()
            .map(|m| m.name.to_string())
            .collect()
    }

    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        // As `main` does: on one CPU every device simulates on one host
        // thread, and only then do two runs model bit-identical numbers.
        crate::host::pin_to_one_cpu();
        let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
        assert_eq!(e2e.len(), END_TO_END.len());
        assert_eq!(layers.len(), PER_LAYER.len());
        for name in NAMES {
            let plain = run(name, tiny(7, false)).unwrap();
            let traced = run(name, tiny(7, true)).unwrap();
            assert_eq!(names(&plain, false), e2e, "{name}: end-to-end set");
            assert_eq!(names(&traced, true), layers, "{name}: per-layer set");
            for out in [&plain, &traced] {
                assert_eq!(out.failed, 0, "{name}: {:?}", out.failures);
                assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{name}");
            }
            for m in plain.printed(false) {
                assert!(
                    m.value > 0.0,
                    "{name}: end-to-end {} is {}",
                    m.name,
                    m.value
                );
            }
            // The traced run repeats the untraced run's work: its modeled
            // and count metrics are the same numbers.
            for m in &plain.metrics {
                let modeled = m.name.starts_with("modeled_");
                let counted = m.unit == "count" || m.unit == "B";
                if (modeled || counted)
                    && !m.name.starts_with("bench.")
                    && !m.name.starts_with("ml.")
                {
                    assert_eq!(
                        Some(m.value),
                        traced.metric(m.name),
                        "{name}: {} differs when traced",
                        m.name
                    );
                }
            }
            assert!(!traced.spans.is_empty() && plain.spans.is_empty(), "{name}");
        }
    }

    #[test]
    fn another_seed_changes_inputs_not_the_metric_set() {
        crate::host::pin_to_one_cpu();
        let a = run("kernel-large", tiny(1, false)).unwrap();
        let b = run("kernel-large", tiny(2, false)).unwrap();
        assert_eq!(names(&a, false), names(&b, false));
        assert_ne!(
            a.metric("modeled_speedup"),
            b.metric("modeled_speedup"),
            "different seeds must model different inputs"
        );
    }
}
