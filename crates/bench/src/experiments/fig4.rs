//! Figure 4 — the complete pattern
//! `alpha * X^T (v ⊙ (X y)) + beta * z` on sparse input: fused-kernel
//! speedups against cuBLAS/cuSPARSE, BIDMat-GPU and BIDMat-CPU. The paper
//! expects results similar to or slightly better than Fig. 3 since the
//! computation is bottlenecked by `X^T(Xy)`.

use crate::experiments::fig3::sweep_table;
use crate::experiments::{Ctx, ExperimentResult};
use fusedml_core::PatternSpec;

pub fn run(ctx: &Ctx) -> ExperimentResult {
    sweep_table(
        ctx,
        "fig4",
        "full pattern a*X^T(v.(Xy)) + b*z sparse: fused vs the three engines",
        PatternSpec::full(1.5, -0.5),
        "paper averages: 26.21x (cuBLAS/cuSPARSE), 19.62x (BIDMat-GPU), 13.41x (BIDMat-CPU)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig3::measure_point;

    #[test]
    fn full_pattern_at_least_as_good_as_bare() {
        let ctx = Ctx::new(0.02);
        let bare = measure_point(&ctx, 10_000, 512, 7, PatternSpec::xtxy()).unwrap();
        let full = measure_point(&ctx, 10_000, 512, 7, PatternSpec::full(1.5, -0.5)).unwrap();
        let bare_speedup = bare.cusparse_ms / bare.fused_ms;
        let full_speedup = full.cusparse_ms / full.fused_ms;
        // "similar or slightly better" — allow 25% slack downward.
        assert!(
            full_speedup > bare_speedup * 0.75,
            "full {full_speedup} vs bare {bare_speedup}"
        );
    }
}
