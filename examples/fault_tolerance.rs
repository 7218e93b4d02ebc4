//! The fault-tolerant execution layer in action: run LR-CG under
//! deterministic device-fault injection and watch the recovery policy
//! retry transient faults and walk the `Fused -> Baseline -> Cpu`
//! degradation ladder, while the answer stays correct.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use fusedml_gpu_sim::{DeviceSpec, FaultProfile, Gpu};
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_matrix::reference;
use fusedml_ml::{try_lr_cg, CpuBackend, LrCgOptions};
use fusedml_runtime::{
    run_device_fault_tolerant, DataSet, EngineKind, FaultTolerantReport, RecoveryPolicy,
    SessionConfig,
};

fn show(label: &str, r: &FaultTolerantReport, reference_w: &[f64]) {
    let err = reference::rel_l2_error(&r.weights, reference_w);
    println!(
        "{label}: tier={} attempts={} backoff={:.1}ms restarts={} rel_err={err:.2e}",
        r.tier.name(),
        r.attempts,
        r.retry_backoff_ms,
        r.restarts
    );
    println!(
        "  faults: kernel={} alloc={} transfer={} watchdog={}",
        r.faults.kernel_faults,
        r.faults.alloc_faults,
        r.faults.transfer_timeouts,
        r.faults.watchdog_timeouts
    );
    for e in &r.events {
        println!(
            "  [{}#{}] {:?} on {}: {}",
            e.tier.name(),
            e.attempt,
            e.action,
            e.error_kind,
            e.detail
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let x = uniform_sparse(2_000, 128, 0.05, 11);
    let w_true = random_vector(128, 12);
    let labels = reference::csr_mv(&x, &w_true);
    let data = DataSet::Sparse(x.clone());
    let cfg = SessionConfig::native(EngineKind::Fused, 12);
    let policy = RecoveryPolicy::default();

    // Ground truth from the host reference implementation.
    let mut cpu = CpuBackend::new_sparse(x);
    let reference_w = try_lr_cg(
        &mut cpu,
        &labels,
        LrCgOptions {
            eps: 0.001,
            tolerance: 0.0,
            max_iterations: 12,
        },
    )?
    .weights;

    // 1. No injection: the fused tier completes on the first attempt.
    let gpu = Gpu::new(DeviceSpec::gtx_titan());
    let r = run_device_fault_tolerant(&gpu, &data, &labels, &cfg, &policy)?;
    show("clean device", &r, &reference_w);

    // 2. Occasional transient kernel faults: retried on the same tier.
    let gpu = Gpu::new(DeviceSpec::gtx_titan())
        .with_fault_profile(FaultProfile::seeded(3).with_kernel_fault_rate(0.03));
    let policy_retry = RecoveryPolicy {
        max_retries: 8,
        ..policy
    };
    let r = run_device_fault_tolerant(&gpu, &data, &labels, &cfg, &policy_retry)?;
    show("flaky device", &r, &reference_w);

    // 3. Saturated faults: both device tiers are unusable, the ladder
    //    lands on the CPU and the answer is still right.
    let gpu = Gpu::new(DeviceSpec::gtx_titan()).with_fault_profile(
        FaultProfile::seeded(7)
            .with_kernel_fault_rate(1.0)
            .with_alloc_fault_rate(1.0),
    );
    let r = run_device_fault_tolerant(&gpu, &data, &labels, &cfg, &policy)?;
    show("broken device", &r, &reference_w);

    // 4. Same seed, same trail: the injector is deterministic.
    let rerun = |seed: u64| {
        let gpu = Gpu::new(DeviceSpec::gtx_titan())
            .with_fault_profile(FaultProfile::seeded(seed).with_kernel_fault_rate(0.01));
        let policy = RecoveryPolicy {
            max_retries: 20,
            ..RecoveryPolicy::default()
        };
        run_device_fault_tolerant(&gpu, &data, &labels, &cfg, &policy)
    };
    let (a, b) = (rerun(42)?, rerun(42)?);
    println!(
        "determinism: seed 42 twice -> identical reports: {}",
        a == b
    );

    // 5. Degradation disabled: the fault surfaces as a typed error
    //    instead of a silent fallback.
    let gpu = Gpu::new(DeviceSpec::gtx_titan())
        .with_fault_profile(FaultProfile::seeded(9).with_kernel_fault_rate(1.0));
    let strict = RecoveryPolicy {
        allow_degradation: false,
        max_retries: 1,
        ..RecoveryPolicy::default()
    };
    match run_device_fault_tolerant(&gpu, &data, &labels, &cfg, &strict) {
        Ok(_) => println!("strict policy: unexpectedly succeeded"),
        Err(e) => println!(
            "strict policy: error kind={} transient={}\n  {e}",
            e.kind(),
            e.is_transient()
        ),
    }
    Ok(())
}
