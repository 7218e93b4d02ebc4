//! Table 5 — end-to-end Linear Regression Conjugate Gradient: fused-kernel
//! pipeline vs pure cuBLAS/cuSPARSE pipeline, including PCIe transfer time
//! amortized over the ML iterations (HIGGS: 32 iterations, KDD: 100).

use crate::experiments::{Ctx, ExperimentResult};
use crate::table::{fmt_ms, fmt_x, Table};
use fusedml_matrix::gen::{higgs_spec, kdd2010_spec, random_vector};
use fusedml_matrix::reference;
use fusedml_ml::ops::TransposePolicy;
use fusedml_runtime::session::{run_device_extrapolated, DataSet, EngineKind, SessionConfig};

pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut t = Table::new(
        "table5",
        "end-to-end LR-CG speedup, fused vs pure cuBLAS/cuSPARSE (incl. PCIe)",
        &[
            "data_set",
            "iters",
            "fused_total_ms",
            "culibs_total_ms",
            "speedup",
            "transfer_ms",
        ],
    );
    t.note(
        "paper: HIGGS 4.8x (32 iters), KDD2010 9x (100 iters); KDD transfer 939 ms at full scale",
    );
    t.note("baseline uses library semantics (transpose per call); the amortized variant is reported below");

    let cases = [
        ("HIGGS-like (dense)", higgs_dataset(ctx), 32usize),
        ("KDD2010-like (sparse)", kdd_dataset(ctx), 100usize),
    ];

    let mut amortized_notes = Vec::new();
    for (name, (data, labels), iters) in cases {
        let fused = run_device_extrapolated(
            &ctx.gpu,
            &data,
            &labels,
            &SessionConfig::native(EngineKind::Fused, iters),
            3,
        )?;
        ctx.gpu.flush_caches();
        let base = run_device_extrapolated(
            &ctx.gpu,
            &data,
            &labels,
            &SessionConfig::native(EngineKind::Baseline, iters),
            3,
        )?;
        ctx.gpu.flush_caches();
        let base_amortized = run_device_extrapolated(
            &ctx.gpu,
            &data,
            &labels,
            &SessionConfig::native(EngineKind::Baseline, iters)
                .with_transpose_policy(TransposePolicy::CachedOnce),
            3,
        )?;
        t.row(vec![
            name.to_string(),
            iters.to_string(),
            fmt_ms(fused.total_ms),
            fmt_ms(base.total_ms),
            fmt_x(base.total_ms / fused.total_ms),
            fmt_ms(fused.transfer_ms),
        ]);
        amortized_notes.push(format!(
            "{name}: with the baseline caching X^T once (keeping both on device), \
             speedup is {}",
            fmt_x(base_amortized.total_ms / fused.total_ms)
        ));
    }
    for n in amortized_notes {
        t.note(n);
    }
    Ok(t)
}

pub(crate) fn higgs_dataset(ctx: &Ctx) -> (DataSet, Vec<f64>) {
    let x = higgs_spec(ctx.scale).build_dense(ctx.seed);
    let w = random_vector(x.cols(), ctx.seed + 1);
    let labels = reference::dense_mv(&x, &w);
    (DataSet::Dense(x), labels)
}

pub(crate) fn kdd_dataset(ctx: &Ctx) -> (DataSet, Vec<f64>) {
    // The end-to-end KDD run is the heaviest simulation; use half the
    // stand-in scale (still hundreds of thousands of columns).
    let x = kdd2010_spec(0.5 * ctx.scale).build_sparse(ctx.seed + 2);
    let w = random_vector(x.cols(), ctx.seed + 3);
    let labels = reference::csr_mv(&x, &w);
    (DataSet::Sparse(x), labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_fused_wins_both_datasets() {
        let ctx = Ctx::new(0.02);
        let t = run(&ctx).unwrap();
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let speedup: f64 = row[4].trim_end_matches('x').parse().unwrap();
            assert!(speedup > 1.1, "{}: end-to-end speedup {speedup}", row[0]);
        }
        // Sparse (KDD) gains more than dense (HIGGS), as in the paper
        // (9x vs 4.8x).
        let higgs: f64 = t.rows[0][4].trim_end_matches('x').parse().unwrap();
        let kdd: f64 = t.rows[1][4].trim_end_matches('x').parse().unwrap();
        assert!(kdd > higgs, "kdd {kdd} <= higgs {higgs}");
    }
}
