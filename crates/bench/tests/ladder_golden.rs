//! Golden recovery-ladder decisions: the first 60 scenarios of the
//! default chaos campaign, with the tier each one finished on, its outcome,
//! its error class, its attempt count and the faults it drew.
//!
//! The chaos suite's own tests check invariants and in-process replay,
//! which a change that shifts every run the same way passes. This table
//! pins the decisions themselves. The 60 scenarios reach every ladder path:
//! single-device retries and CPU fallbacks, sharded retries after a device
//! loss and CPU fallbacks, and serving requests that retry and degrade
//! (see `the_golden_slice_reaches_every_ladder_path`).

use fusedml_bench::regress::chaos::{run_campaign, ChaosOptions, ScenarioResult};

const SCENARIOS: usize = 60;

/// One scenario's expected ladder decisions. `faults` is `[kernel, alloc,
/// transfer, watchdog, corruptions, pressure_rejections, device_losses,
/// stragglers]`.
struct Row {
    class: &'static str,
    tier: &'static str,
    outcome: &'static str,
    error_kind: Option<&'static str>,
    attempts: usize,
    faults: [u64; 8],
}

const fn row(
    class: &'static str,
    tier: &'static str,
    outcome: &'static str,
    error_kind: Option<&'static str>,
    attempts: usize,
    faults: [u64; 8],
) -> Row {
    Row {
        class,
        tier,
        outcome,
        error_kind,
        attempts,
        faults,
    }
}

#[rustfmt::skip]
const GOLDEN: [Row; SCENARIOS] = [
    row("pressure", "cpu", "converged", None, 2, [0, 0, 0, 0, 0, 1, 0, 0]),
    row("straggler", "sharded", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("alloc", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("pressure", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("kernel", "cpu", "converged", None, 5, [4, 0, 0, 0, 0, 0, 0, 0]),
    row("pressure", "cpu", "converged", None, 2, [0, 0, 0, 0, 0, 1, 0, 0]),
    row("transfer", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("corruption", "cpu", "converged", None, 5, [0, 0, 0, 0, 4, 0, 0, 0]),
    row("transfer", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("alloc", "cpu", "converged", None, 5, [0, 4, 0, 0, 0, 0, 0, 0]),
    row("corruption", "cpu", "converged", None, 5, [0, 0, 0, 0, 4, 0, 0, 0]),
    row("kernel", "cpu", "converged", None, 5, [4, 0, 0, 0, 0, 0, 0, 0]),
    row("corruption", "fused", "converged", None, 2, [0, 0, 0, 0, 1, 0, 0, 0]),
    row("mixed", "serve", "converged", None, 7, [1, 6, 0, 0, 5, 0, 0, 0]),
    row("device-loss", "cpu", "converged", None, 5, [0, 0, 0, 0, 0, 0, 4, 0]),
    row("transfer", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("mixed", "fused", "converged", None, 2, [1, 0, 0, 0, 0, 0, 0, 0]),
    row("transfer", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("device-loss", "sharded", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("pressure", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("mixed", "cpu", "converged", None, 5, [2, 1, 0, 0, 1, 0, 0, 0]),
    row("pressure", "cpu", "converged", None, 2, [0, 0, 0, 0, 0, 1, 0, 0]),
    row("straggler", "sharded", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 1]),
    row("device-loss", "cpu", "converged", None, 3, [0, 0, 0, 0, 0, 0, 2, 0]),
    row("kernel", "cpu", "converged", None, 5, [4, 0, 0, 0, 0, 0, 0, 0]),
    row("device-loss", "sharded", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("transfer", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("mixed", "cpu", "converged", None, 5, [2, 1, 0, 0, 1, 0, 0, 0]),
    row("straggler", "sharded", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 19]),
    row("corruption", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("transfer", "serve", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("kernel", "cpu", "converged", None, 5, [4, 0, 0, 0, 0, 0, 0, 0]),
    row("device-loss", "sharded", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("pressure", "cpu", "converged", None, 2, [0, 0, 0, 0, 0, 1, 0, 0]),
    row("transfer", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("corruption", "serve", "converged", None, 7, [0, 0, 0, 0, 12, 0, 0, 0]),
    row("kernel", "cpu", "converged", None, 5, [4, 0, 0, 0, 0, 0, 0, 0]),
    row("alloc", "cpu", "converged", None, 5, [0, 4, 0, 0, 0, 0, 0, 0]),
    row("mixed", "serve", "converged", None, 2, [1, 0, 0, 0, 0, 0, 0, 0]),
    row("device-loss", "sharded", "converged", None, 2, [0, 0, 0, 0, 0, 0, 1, 0]),
    row("mixed", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("device-loss", "cpu", "converged", None, 3, [0, 0, 0, 0, 0, 0, 2, 0]),
    row("kernel", "serve", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("straggler", "sharded", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 2]),
    row("device-loss", "sharded", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("mixed", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("device-loss", "sharded", "converged", None, 2, [0, 0, 0, 0, 0, 0, 1, 0]),
    row("corruption", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("corruption", "cpu", "converged", None, 5, [0, 0, 0, 0, 4, 0, 0, 0]),
    row("pressure", "cpu", "converged", None, 2, [0, 0, 0, 0, 0, 1, 0, 0]),
    row("device-loss", "cpu", "converged", None, 4, [0, 0, 0, 0, 0, 0, 3, 0]),
    row("straggler", "sharded", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("kernel", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("transfer", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("transfer", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("transfer", "fused", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
    row("mixed", "cpu", "converged", None, 5, [0, 3, 0, 0, 1, 0, 0, 0]),
    row("alloc", "serve", "converged", None, 7, [0, 6, 0, 0, 0, 0, 0, 0]),
    row("pressure", "cpu", "converged", None, 2, [0, 0, 0, 0, 0, 1, 0, 0]),
    row("straggler", "sharded", "converged", None, 1, [0, 0, 0, 0, 0, 0, 0, 0]),
];

fn campaign() -> Vec<ScenarioResult> {
    let opts = ChaosOptions {
        scenarios: SCENARIOS,
        ..ChaosOptions::default()
    };
    run_campaign(&opts, |_| {}).results
}

fn fault_array(r: &ScenarioResult) -> [u64; 8] {
    let f = &r.faults;
    [
        f.kernel_faults,
        f.alloc_faults,
        f.transfer_timeouts,
        f.watchdog_timeouts,
        f.corruptions,
        f.pressure_rejections,
        f.device_losses,
        f.stragglers,
    ]
}

#[test]
fn ladder_decisions_match_the_golden_table() {
    let results = campaign();
    assert_eq!(results.len(), SCENARIOS);
    for (i, (r, want)) in results.iter().zip(&GOLDEN).enumerate() {
        assert_eq!(r.scenario.class.name(), want.class, "scenario {i}: class");
        assert_eq!(r.tier, want.tier, "scenario {i}: tier");
        assert_eq!(r.outcome, want.outcome, "scenario {i}: outcome");
        assert_eq!(
            r.error_kind.as_deref(),
            want.error_kind,
            "scenario {i}: error kind"
        );
        assert_eq!(r.attempts, want.attempts, "scenario {i}: attempts");
        assert_eq!(fault_array(r), want.faults, "scenario {i}: fault counts");
        assert!(r.pass(), "scenario {i}: invariants {:?}", r.invariants);
    }
}

/// The table is only a pin on the ladders if it exercises them: count the
/// paths it reaches, per ladder.
#[test]
fn the_golden_slice_reaches_every_ladder_path() {
    let sharded = |r: &Row| matches!(r.class, "device-loss" | "straggler");
    let count = |f: &dyn Fn(&Row) -> bool| GOLDEN.iter().filter(|r| f(r)).count();
    // Single device: CPU fallbacks, and fused completions after a retry.
    assert_eq!(count(&|r| !sharded(r) && r.tier == "cpu"), 19);
    assert_eq!(count(&|r| r.tier == "fused" && r.attempts > 1), 2);
    // Sharded: CPU fallbacks, and sharded completions after a retry.
    assert_eq!(count(&|r| sharded(r) && r.tier == "cpu"), 4);
    assert_eq!(count(&|r| r.tier == "sharded" && r.attempts > 1), 2);
    // Serving: grids whose busiest request needed more than one attempt.
    assert_eq!(count(&|r| r.tier == "serve" && r.attempts > 1), 4);
}
