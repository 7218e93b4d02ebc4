//! Table 2 — breakdown of single-threaded CPU compute time for LR-CG:
//! what fraction goes to the generic pattern vs BLAS-1 vector arithmetic.
//! Unlike the other experiments this one *measures wall time* of the real
//! single-threaded reference implementation on this host.

use crate::experiments::{Ctx, ExperimentResult};
use crate::table::Table;
use fusedml_blas::cpu::{measure_lrcg_iteration_dense, measure_lrcg_iteration_sparse};
use fusedml_matrix::gen::{higgs_spec, kdd2010_spec};

pub fn run(ctx: &Ctx) -> ExperimentResult {
    // Table 2 only needs the time *shares*, which are scale-stable; use a
    // modest slice of the stand-in data sets so the measured run is quick.
    let kdd = kdd2010_spec(0.2 * ctx.scale.max(0.1)).build_sparse(ctx.seed);
    let higgs = higgs_spec(0.2 * ctx.scale.max(0.1)).build_dense(ctx.seed + 1);

    let mut t = Table::new(
        "table2",
        "share of single-threaded CPU time in LR-CG (measured wall clock)",
        &["data_set", "pattern_%", "blas1_%", "total_%"],
    );
    t.note("paper: KDD 82.9% / 16.9% / 99.8%; HIGGS 99.4% / 0.1% / 99.5%");

    // Min-over-3-repeats after an untimed warm-up (the measure functions'
    // methodology).
    let (kp, kb) = measure_lrcg_iteration_sparse(&kdd, 3)?;
    let ktot = kp + kb;
    t.row(vec![
        format!("KDD2010-like {}x{}", kdd.rows(), kdd.cols()),
        format!("{:.1}", 100.0 * kp / ktot),
        format!("{:.1}", 100.0 * kb / ktot),
        "100.0".to_string(),
    ]);

    let (hp, hb) = measure_lrcg_iteration_dense(&higgs, 3)?;
    let htot = hp + hb;
    t.row(vec![
        format!("HIGGS-like {}x{}", higgs.rows(), higgs.cols()),
        format!("{:.1}", 100.0 * hp / htot),
        format!("{:.1}", 100.0 * hb / htot),
        "100.0".to_string(),
    ]);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_dominates_cpu_time() {
        let ctx = Ctx::new(0.05);
        let t = run(&ctx).unwrap();
        for row in &t.rows {
            let pattern_pct: f64 = row[1].parse().unwrap();
            assert!(
                pattern_pct > 60.0,
                "{}: pattern share only {pattern_pct}%",
                row[0]
            );
        }
        // Dense (HIGGS) is even more pattern-dominated than sparse, as in
        // the paper (99.4% vs 82.9%).
        let kdd: f64 = t.rows[0][1].parse().unwrap();
        let higgs: f64 = t.rows[1][1].parse().unwrap();
        assert!(higgs > kdd - 10.0, "kdd {kdd}% vs higgs {higgs}%");
    }
}
