//! Replay of historical proptest failure cases as plain tests.
//!
//! `simulator_invariants.proptest-regressions` records the shrunk inputs
//! of property failures found (and since fixed) by proptest. The corpus
//! is only replayed when the `proptest` dependency is present and the
//! generation strategy still covers the recorded values — neither is
//! guaranteed (offline builds stub proptest out, and the
//! `more_data_never_simulates_faster` range has since moved past the
//! shrunk values). This file pins each recorded case as an ordinary
//! `#[test]`, so the exact historical inputs run in every build,
//! dependency-free; a meta-test keeps the two files in sync. See
//! DESIGN.md ("Proptest regression corpus").

use fusedml::prelude::*;
use fusedml_matrix::gen::{random_vector, uniform_sparse};

/// Body of `more_data_never_simulates_faster` from
/// `simulator_invariants.rs`, at an explicit (m, seed) — with the
/// *non-strict* comparison.
///
/// Below ~40k rows at n = 128, the fused kernel's modeled time sits on a
/// row-count-independent floor: the planned grid is fixed by the device's
/// resident-block capacity, so the per-block global-atomic flush (and its
/// serialization estimate on the hottest address) doesn't grow with `m`,
/// and it dominates until DRAM traffic overtakes it. The historical
/// failures recorded in the corpus are exactly this regime — 4x the data,
/// *equal* modeled time — which is why the property's generation range
/// was moved to 40k..60k where the strict inequality holds. What must
/// hold at every size is the property's name: more data never simulates
/// strictly FASTER.
fn more_data_never_simulates_faster_at(m: usize, seed: u64) {
    let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
    let n = 128;
    let small = uniform_sparse(m, n, 0.05, seed);
    let big = uniform_sparse(m * 4, n, 0.05, seed);
    let run = |x: &fusedml_matrix::CsrMatrix| {
        let xd = GpuCsr::try_upload(&g, "x", x).unwrap();
        let yd = g.try_upload_f64("y", &random_vector(n, seed)).unwrap();
        let wd = g.try_alloc_f64("w", n).unwrap();
        g.flush_caches();
        let mut ex = FusedExecutor::new(&g);
        ex.try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
            .unwrap();
        ex.total_sim_ms()
    };
    let (big_ms, small_ms) = (run(&big), run(&small));
    assert!(
        big_ms >= small_ms,
        "4x data simulated faster: {big_ms} ms vs {small_ms} ms (m = {m}, seed = {seed})"
    );
}

/// Corpus line `shrinks to m = 200, seed = 0`.
#[test]
fn corpus_more_data_never_simulates_faster_m200() {
    more_data_never_simulates_faster_at(200, 0);
}

/// Corpus line `shrinks to m = 10000, seed = 0`.
#[test]
fn corpus_more_data_never_simulates_faster_m10000() {
    more_data_never_simulates_faster_at(10_000, 0);
}

/// Every shrunk case recorded in the proptest corpus must have a mirror
/// test above. If proptest finds (and you fix) a new failure, add the
/// shrunk input here before committing the corpus line.
#[test]
fn corpus_entries_are_mirrored() {
    let corpus = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/simulator_invariants.proptest-regressions"
    ))
    .expect("read proptest corpus");
    let mirrored = ["m = 200, seed = 0", "m = 10000, seed = 0"];
    for line in corpus.lines() {
        let Some((_, shrunk)) = line.split_once("# shrinks to ") else {
            continue;
        };
        assert!(
            mirrored.contains(&shrunk.trim()),
            "corpus case '{}' has no mirror test in simulator_regressions.rs",
            shrunk.trim()
        );
    }
}
