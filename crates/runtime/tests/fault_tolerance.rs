//! End-to-end fault-tolerance tests: deterministic injection, bounded
//! retry, and the Fused -> Baseline -> Cpu degradation ladder.

use fusedml_gpu_sim::{DeviceSpec, FaultProfile, Gpu};
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_ml::{try_lr_cg, CpuBackend, LrCgOptions};
use fusedml_runtime::{
    run_device_fault_tolerant, BackendTier, DataSet, EngineKind, RecoveryAction, RecoveryPolicy,
    SessionConfig,
};

fn problem(seed: u64) -> (DataSet, Vec<f64>) {
    let x = uniform_sparse(400, 64, 0.05, seed);
    let w = random_vector(64, seed + 1);
    let labels = fusedml_matrix::reference::csr_mv(&x, &w);
    (DataSet::Sparse(x), labels)
}

fn cpu_reference(data: &DataSet, labels: &[f64], iterations: usize) -> Vec<f64> {
    let DataSet::Sparse(x) = data else {
        panic!("sparse problem expected")
    };
    let mut b = CpuBackend::new_sparse(x.clone());
    try_lr_cg(
        &mut b,
        labels,
        LrCgOptions {
            eps: 0.001,
            tolerance: 0.0,
            max_iterations: iterations,
        },
    )
    .unwrap()
    .weights
}

#[test]
fn clean_run_stays_on_fused_tier() {
    let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
    let (data, labels) = problem(301);
    let cfg = SessionConfig::native(EngineKind::Fused, 8);
    let r = run_device_fault_tolerant(&g, &data, &labels, &cfg, &RecoveryPolicy::default())
        .expect("clean run succeeds");
    assert_eq!(r.tier, BackendTier::Fused);
    assert_eq!(r.attempts, 1);
    assert!(r.events.is_empty());
    assert_eq!(r.retry_backoff_ms, 0.0);
    assert_eq!(r.faults, Default::default());
    let reference = cpu_reference(&data, &labels, 8);
    let err = fusedml_matrix::reference::rel_l2_error(&r.weights, &reference);
    assert!(err < 1e-6, "clean fused run off by {err}");
}

#[test]
fn transient_faults_are_retried_on_the_same_tier() {
    // A low kernel-fault rate: some attempt fails, a retry completes.
    // Scan a few seeds for a profile that faults at least once but
    // recovers within the retry budget on the fused tier.
    let mut exercised = false;
    for seed in 0..20u64 {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
            .with_fault_profile(FaultProfile::seeded(seed).with_kernel_fault_rate(0.002));
        let (data, labels) = problem(302);
        let cfg = SessionConfig::native(EngineKind::Fused, 6);
        let policy = RecoveryPolicy {
            max_retries: 10,
            ..Default::default()
        };
        let r = run_device_fault_tolerant(&g, &data, &labels, &cfg, &policy)
            .expect("retries must recover");
        if r.events.is_empty() {
            continue;
        }
        exercised = true;
        assert_eq!(r.tier, BackendTier::Fused, "seed {seed} should not degrade");
        assert!(r.attempts > 1);
        assert!(r.retry_backoff_ms > 0.0);
        assert!(r
            .events
            .iter()
            .all(|e| e.action == RecoveryAction::Retry && e.error_kind == "transient-fault"));
        let reference = cpu_reference(&data, &labels, 6);
        let err = fusedml_matrix::reference::rel_l2_error(&r.weights, &reference);
        assert!(err < 1e-6, "seed {seed}: retried run off by {err}");
        break;
    }
    assert!(exercised, "no seed produced a recoverable transient fault");
}

#[test]
fn saturated_faults_degrade_to_cpu_and_match_reference() {
    // Alloc failure + certain kernel faults: both device tiers are
    // unusable, the ladder must land on the CPU and still produce the
    // right answer — the acceptance scenario of the fault model.
    let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1).with_fault_profile(
        FaultProfile::seeded(7)
            .with_kernel_fault_rate(1.0)
            .with_alloc_fault_rate(1.0),
    );
    let (data, labels) = problem(303);
    let cfg = SessionConfig::native(EngineKind::Fused, 10);
    let r = run_device_fault_tolerant(&g, &data, &labels, &cfg, &RecoveryPolicy::default())
        .expect("cpu tier cannot fault");
    assert_eq!(r.tier, BackendTier::Cpu);
    assert!(
        r.events
            .iter()
            .filter(|e| e.action == RecoveryAction::Degrade)
            .count()
            == 2,
        "expected Fused->Baseline and Baseline->Cpu degradations, got {:?}",
        r.events
    );
    assert!(r.faults.kernel_faults + r.faults.alloc_faults > 0);
    let reference = cpu_reference(&data, &labels, 10);
    let err = fusedml_matrix::reference::rel_l2_error(&r.weights, &reference);
    assert!(err < 1e-6, "degraded run off by {err}");
    // CPU tier pays no device readback/dispatch, but the up-front
    // transfer was already charged.
    assert_eq!(r.report.readback_ms, 0.0);
    assert!(r.report.transfer_ms > 0.0);
}

#[test]
fn cpu_tier_can_run_the_fused_kernels() {
    // Same saturated-fault scenario, but the policy opts the Cpu rung
    // into the fused single-pass SIMD/multithreaded kernels. The ladder
    // must land on Cpu and still match the unfused reference.
    let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1).with_fault_profile(
        FaultProfile::seeded(7)
            .with_kernel_fault_rate(1.0)
            .with_alloc_fault_rate(1.0),
    );
    let (data, labels) = problem(303);
    let cfg = SessionConfig::native(EngineKind::Fused, 10);
    let policy = RecoveryPolicy {
        cpu_fused_threads: 2,
        ..Default::default()
    };
    let r = run_device_fault_tolerant(&g, &data, &labels, &cfg, &policy)
        .expect("fused cpu tier cannot fault");
    assert_eq!(r.tier, BackendTier::Cpu);
    let reference = cpu_reference(&data, &labels, 10);
    let err = fusedml_matrix::reference::rel_l2_error(&r.weights, &reference);
    assert!(err < 1e-6, "fused cpu tier off by {err}");
}

#[test]
fn same_seed_yields_identical_reports() {
    // The injector is a pure function of (seed, class, draw index), so
    // two sessions over the same data with the same profile must agree
    // byte for byte — the reproducibility contract of the fault harness.
    let run = || {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1).with_fault_profile(
            FaultProfile::seeded(42)
                .with_kernel_fault_rate(0.01)
                .with_alloc_fault_rate(0.05),
        );
        let (data, labels) = problem(304);
        let cfg = SessionConfig::native(EngineKind::Fused, 5);
        run_device_fault_tolerant(&g, &data, &labels, &cfg, &RecoveryPolicy::default())
            .expect("degradation enabled")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "debug repr must match byte for byte"
    );
}

#[test]
fn different_seeds_can_change_the_fault_trail() {
    // Not a hard guarantee for any fixed pair, so scan: some seed must
    // differ from seed 0's trail under a rate that faults regularly.
    let run = |seed: u64| {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
            .with_fault_profile(FaultProfile::seeded(seed).with_kernel_fault_rate(0.005));
        let (data, labels) = problem(305);
        let cfg = SessionConfig::native(EngineKind::Fused, 5);
        let policy = RecoveryPolicy {
            max_retries: 20,
            ..Default::default()
        };
        run_device_fault_tolerant(&g, &data, &labels, &cfg, &policy).expect("recovers")
    };
    let base = run(0);
    assert!(
        (1..10).any(|s| run(s).events != base.events),
        "ten seeds with identical fault trails"
    );
}

#[test]
fn transient_fault_resumes_from_checkpoint_not_iteration_zero() {
    // With checkpointing on, a mid-run transient fault must restart the
    // solver from the last snapshot rather than iteration 0, and the
    // report must say so. Scan seeds for a run that faults *after* the
    // first snapshot was taken.
    let mut exercised = false;
    for seed in 0..60u64 {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
            .with_fault_profile(FaultProfile::seeded(seed).with_kernel_fault_rate(0.002));
        let (data, labels) = problem(307);
        let cfg = SessionConfig::native(EngineKind::Fused, 12);
        let policy = RecoveryPolicy {
            max_retries: 10,
            checkpoint_every: 2,
            ..Default::default()
        };
        let r = run_device_fault_tolerant(&g, &data, &labels, &cfg, &policy)
            .expect("retries must recover");
        let Some(resumed_at) = r.resumed_at else {
            continue; // no fault, or it hit before the first snapshot
        };
        exercised = true;
        assert!(resumed_at > 0, "resume point must be a real iteration");
        assert_eq!(resumed_at % 2, 0, "snapshots are taken every 2 iterations");
        assert!(!r.events.is_empty(), "a resume implies a failed attempt");
        let reference = cpu_reference(&data, &labels, 12);
        let err = fusedml_matrix::reference::rel_l2_error(&r.weights, &reference);
        assert!(err < 1e-6, "seed {seed}: resumed run off by {err}");
        break;
    }
    assert!(exercised, "no seed faulted after the first checkpoint");
}

#[test]
fn checkpoint_survives_degradation_to_a_lower_tier() {
    // Snapshots live on the host, so a Fused-tier fault after the first
    // save must let the *Baseline or Cpu* attempt pick the run up
    // mid-flight. max_retries: 0 forces every fault to degrade.
    let mut exercised = false;
    for seed in 0..80u64 {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
            .with_fault_profile(FaultProfile::seeded(seed).with_kernel_fault_rate(0.003));
        let (data, labels) = problem(308);
        let cfg = SessionConfig::native(EngineKind::Fused, 12);
        let policy = RecoveryPolicy {
            max_retries: 0,
            checkpoint_every: 2,
            ..Default::default()
        };
        let r = run_device_fault_tolerant(&g, &data, &labels, &cfg, &policy)
            .expect("degradation enabled");
        let Some(resumed_at) = r.resumed_at else {
            continue;
        };
        if r.tier == BackendTier::Fused {
            continue; // resumed, but not across a tier boundary
        }
        exercised = true;
        assert!(resumed_at > 0);
        assert!(r.events.iter().any(|e| e.action == RecoveryAction::Degrade));
        let reference = cpu_reference(&data, &labels, 12);
        let err = fusedml_matrix::reference::rel_l2_error(&r.weights, &reference);
        assert!(err < 1e-6, "seed {seed}: cross-tier resume off by {err}");
        break;
    }
    assert!(exercised, "no seed degraded after the first checkpoint");
}

#[test]
fn injected_bit_flip_is_detected_not_silently_converged_through() {
    // Corruption + integrity checks on: every fired bit flip must surface
    // as a typed data-corruption event that the ladder recovers from —
    // never a silently wrong answer.
    let mut exercised = false;
    for seed in 0..40u64 {
        let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
            .with_fault_profile(FaultProfile::seeded(seed).with_corruption_rate(0.02))
            .with_integrity_checks(true);
        let (data, labels) = problem(309);
        let cfg = SessionConfig::native(EngineKind::Fused, 8);
        let policy = RecoveryPolicy {
            max_retries: 10,
            ..Default::default()
        };
        let r = run_device_fault_tolerant(&g, &data, &labels, &cfg, &policy)
            .expect("corruption is transient; retries or the ladder recover");
        if r.faults.corruptions == 0 {
            continue;
        }
        exercised = true;
        assert!(
            r.events.iter().any(|e| e.error_kind == "data-corruption"),
            "seed {seed}: {} corruption(s) fired but none was reported: {:?}",
            r.faults.corruptions,
            r.events
        );
        let reference = cpu_reference(&data, &labels, 8);
        let err = fusedml_matrix::reference::rel_l2_error(&r.weights, &reference);
        assert!(
            err < 1e-6,
            "seed {seed}: post-corruption answer off by {err}"
        );
        break;
    }
    assert!(exercised, "no seed fired a corruption draw");
}

#[test]
fn memory_pressure_degrades_to_cpu_with_typed_accounting() {
    // reserve_fraction 1.0: after the first few allocations every later
    // request is rejected, on both device tiers — the ladder must land on
    // the CPU and the report must count the rejections as pressure, not
    // as injected alloc faults.
    let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
        .with_fault_profile(FaultProfile::seeded(11).with_memory_pressure(6, 1.0));
    let (data, labels) = problem(310);
    let cfg = SessionConfig::native(EngineKind::Fused, 8);
    let r = run_device_fault_tolerant(&g, &data, &labels, &cfg, &RecoveryPolicy::default())
        .expect("cpu tier is immune to device memory pressure");
    assert_eq!(r.tier, BackendTier::Cpu);
    assert!(r.faults.pressure_rejections > 0);
    assert_eq!(r.faults.alloc_faults, 0, "no alloc faults were injected");
    let reference = cpu_reference(&data, &labels, 8);
    let err = fusedml_matrix::reference::rel_l2_error(&r.weights, &reference);
    assert!(err < 1e-6, "pressure-degraded run off by {err}");
}

#[test]
fn exhausted_ladder_reports_the_last_error_per_tier() {
    // NaN labels break the solver on *every* tier — the one failure mode
    // even the CPU cannot absorb. The ladder must walk
    // Fused -> Baseline -> Cpu and hand back the per-tier error trail.
    let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
    let (data, mut labels) = problem(311);
    for i in [3usize, 17, 40] {
        labels[i] = f64::NAN;
    }
    let cfg = SessionConfig::native(EngineKind::Fused, 6);
    let err = run_device_fault_tolerant(&g, &data, &labels, &cfg, &RecoveryPolicy::default())
        .expect_err("NaN labels must not converge on any tier");
    assert_eq!(err.kind(), "numerical-breakdown");
    assert!(!err.is_transient(), "a breakdown is not retryable");
    let tiers: Vec<BackendTier> = err.tier_errors.iter().map(|(t, _)| *t).collect();
    assert_eq!(
        tiers,
        [BackendTier::Fused, BackendTier::Baseline, BackendTier::Cpu],
        "one last-error per tier, in ladder order"
    );
    assert!(err
        .tier_errors
        .iter()
        .all(|(_, e)| e.kind() == "numerical-breakdown"));
    // Event trail: Fused degrade, Baseline degrade, Cpu abort — no
    // retries, since a breakdown is permanent.
    let actions: Vec<RecoveryAction> = err.events.iter().map(|e| e.action).collect();
    assert_eq!(
        actions,
        [
            RecoveryAction::Degrade,
            RecoveryAction::Degrade,
            RecoveryAction::Abort
        ]
    );
    assert_eq!(err.attempts, 3);
    let msg = err.to_string();
    for tier in ["fused", "baseline", "cpu"] {
        assert!(msg.contains(tier), "{msg:?} must name the {tier} tier");
    }
}

#[test]
fn degradation_disabled_surfaces_the_error() {
    let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
        .with_fault_profile(FaultProfile::seeded(9).with_kernel_fault_rate(1.0));
    let (data, labels) = problem(306);
    let cfg = SessionConfig::native(EngineKind::Fused, 4);
    let policy = RecoveryPolicy {
        allow_degradation: false,
        max_retries: 1,
        ..Default::default()
    };
    let err = run_device_fault_tolerant(&g, &data, &labels, &cfg, &policy)
        .expect_err("must abort without degradation");
    assert!(err.is_transient(), "kernel faults are transient: {err}");
}
