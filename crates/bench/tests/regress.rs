//! End-to-end tests of the continuous-benchmarking subsystem: suite
//! determinism, report round-tripping, and the regression gate's exit
//! semantics — plus the paper-level invariant that fused sparse kernels
//! move strictly less DRAM traffic than the operator composition.

use fusedml_bench::regress::{
    gate, run_suite, workload_ids, BenchReport, Json, Severity, SuiteOptions, BENCH_RULES,
    SCHEMA_VERSION,
};

/// A scaled-down quick suite that keeps this test in the seconds range.
fn tiny_opts() -> SuiteOptions {
    SuiteOptions {
        scale: 0.05,
        ..SuiteOptions::quick()
    }
}

/// Every deterministic field of the two reports must agree; only
/// `wall_ms` (host-dependent) may differ between identical runs.
fn assert_modeled_identical(a: &BenchReport, b: &BenchReport) {
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.workloads.len(), b.workloads.len());
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        assert_eq!(wa.id, wb.id);
        assert_eq!(wa.nnz, wb.nnz);
        assert_eq!(wa.speedup.to_bits(), wb.speedup.to_bits(), "{}", wa.id);
        for (va, vb) in [(&wa.fused, &wb.fused), (&wa.baseline, &wb.baseline)] {
            assert_eq!(
                va.modeled_ms.to_bits(),
                vb.modeled_ms.to_bits(),
                "{} modeled_ms",
                wa.id
            );
            assert_eq!(va.modeled_cycles, vb.modeled_cycles, "{}", wa.id);
            assert_eq!(va.launches, vb.launches, "{}", wa.id);
            assert_eq!(va.gld_transactions, vb.gld_transactions, "{}", wa.id);
            assert_eq!(va.gst_transactions, vb.gst_transactions, "{}", wa.id);
            assert_eq!(va.dram_read_bytes, vb.dram_read_bytes, "{}", wa.id);
            assert_eq!(va.dram_write_bytes, vb.dram_write_bytes, "{}", wa.id);
            assert_eq!(va.l2_read_bytes, vb.l2_read_bytes, "{}", wa.id);
            assert_eq!(va.flops, vb.flops, "{}", wa.id);
            assert_eq!(
                va.register_shuffle_ops, vb.register_shuffle_ops,
                "{}",
                wa.id
            );
            assert_eq!(va.shared_atomic_ops, vb.shared_atomic_ops, "{}", wa.id);
            assert_eq!(va.shared_access_ops, vb.shared_access_ops, "{}", wa.id);
            assert_eq!(va.global_atomic_ops, vb.global_atomic_ops, "{}", wa.id);
            assert_eq!(va.occupancy.to_bits(), vb.occupancy.to_bits(), "{}", wa.id);
        }
    }
}

#[test]
fn suite_is_deterministic_and_gate_passes_on_self() {
    let opts = tiny_opts();
    let a = run_suite(&opts, |_| {}).unwrap();
    let b = run_suite(&opts, |_| {}).unwrap();
    assert_modeled_identical(&a, &b);

    // Two identical runs must sail through the gate with the tight
    // default thresholds (wall-clock included: same machine, and the
    // loose wall tolerance absorbs scheduler noise).
    let outcome = gate(BENCH_RULES, &a.to_json(), &b.to_json(), false);
    assert!(outcome.passed(), "{}", outcome.render());
    assert!(outcome.compared > a.workloads.len());
}

#[test]
fn report_roundtrips_through_disk() {
    let opts = tiny_opts();
    let report = run_suite(&opts, |_| {}).unwrap();
    let dir = std::env::temp_dir().join("fusedml_bench_regress_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_fusion.json").to_string_lossy().into_owned();
    report.save(&path).unwrap();
    let loaded = BenchReport::load(&path).unwrap();
    assert_eq!(report, loaded);
    // The file is real JSON: it must re-parse structurally too.
    let text = std::fs::read_to_string(&path).unwrap();
    let j = Json::parse(&text).unwrap();
    assert_eq!(j.field_u64("schema_version").unwrap(), SCHEMA_VERSION);
    std::fs::remove_file(&path).ok();
}

#[test]
fn injected_modeled_regression_trips_the_gate() {
    let opts = tiny_opts();
    let base = run_suite(&opts, |_| {}).unwrap();
    let mut cand = base.clone();
    // Synthetic 10% modeled-cycle regression on one workload — the
    // acceptance scenario for the CI gate.
    {
        let w = &mut cand.workloads[0];
        w.fused.modeled_ms *= 1.10;
        w.fused.modeled_cycles = (w.fused.modeled_cycles as f64 * 1.10) as u64;
        w.speedup = w.baseline.modeled_ms / w.fused.modeled_ms;
    }
    let outcome = gate(BENCH_RULES, &base.to_json(), &cand.to_json(), false);
    assert!(!outcome.passed());
    let path = format!("workloads[{}].fused.modeled_ms", cand.workloads[0].id);
    assert_eq!(outcome.at(&path), Some(Severity::Regression));
}

#[test]
fn fused_sparse_beats_baseline_on_traffic_and_time() {
    let report = run_suite(&tiny_opts(), |_| {}).unwrap();
    let mut sparse_seen = 0;
    for w in &report.workloads {
        if w.format == "dense" {
            continue;
        }
        sparse_seen += 1;
        // The paper's core claim, as a hard invariant of the simulator:
        // fusing eliminates the materialized intermediate, so the fused
        // pipeline performs strictly fewer global transactions than the
        // operator composition.
        assert!(
            w.fused.gld_transactions + w.fused.gst_transactions
                < w.baseline.gld_transactions + w.baseline.gst_transactions,
            "{}: fused transactions not below baseline",
            w.id
        );
        // DRAM bytes are strictly lower for the kernel-level workloads
        // (one pattern evaluation). End-to-end solver loops at this tiny
        // test scale can hide the win in L2 — their intermediates fit in
        // cache — so the byte-level claim is scoped to the kernels.
        if w.iterations == 0 {
            assert!(
                w.fused.dram_bytes() < w.baseline.dram_bytes(),
                "{}: fused DRAM bytes {} vs baseline {}",
                w.id,
                w.fused.dram_bytes(),
                w.baseline.dram_bytes()
            );
        }
        assert!(w.speedup > 1.0, "{}: speedup {}", w.id, w.speedup);
    }
    assert!(sparse_seen >= 6, "matrix lost its sparse workloads");
}

#[test]
fn workload_ids_are_stable_and_unique() {
    let ids = workload_ids(&SuiteOptions::quick());
    assert_eq!(ids.len(), 12);
    let mut dedup = ids.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), ids.len(), "duplicate workload ids");
    // The gate matches rows by id: list and run must agree.
    let report = run_suite(&tiny_opts(), |_| {}).unwrap();
    let run_ids: Vec<String> = report.workloads.iter().map(|w| w.id.clone()).collect();
    assert_eq!(run_ids, workload_ids(&tiny_opts()));
    // Full mode covers at least the quick matrix's breadth.
    assert!(workload_ids(&SuiteOptions::full()).len() >= ids.len());
}

#[test]
fn aggregation_tiers_shift_between_fused_and_baseline() {
    let report = run_suite(&tiny_opts(), |_| {}).unwrap();
    // The per-workload breakdown is the §3.1 attribution axis: every CSR
    // workload's fused run must land its reduction work somewhere in the
    // hierarchy, and the full-pattern kernels specifically aggregate at
    // the register tier (warp shuffles).
    let mut register_tier_seen = false;
    for w in &report.workloads {
        if w.format != "csr" {
            continue;
        }
        let total = w.fused.register_shuffle_ops
            + w.fused.shared_atomic_ops
            + w.fused.shared_access_ops
            + w.fused.global_atomic_ops;
        assert!(
            total > 0,
            "{}: fused run recorded no aggregation-hierarchy work",
            w.id
        );
        register_tier_seen |= w.fused.register_shuffle_ops > 0;
    }
    assert!(
        register_tier_seen,
        "no sparse workload recorded register-tier reductions"
    );
}
