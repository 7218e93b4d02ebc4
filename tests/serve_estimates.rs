//! The slot estimates of `runtime::serve`: every admitted request reserves
//! the fault-free `clean_run` cost of its class on its admitted tier, and
//! that cost is memoized once per process, keyed by class, tier and the
//! whole `ServeConfig`. These tests hold the memo to the uncached
//! `clean_run` reference. Each test serves under a
//! `per_launch_overhead_ms` no other test uses, so its first `serve` call
//! finds the memo cold for its config.

use fusedml_gpu_sim::{DeviceSpec, FaultProfile};
use fusedml_runtime::{
    clean_run, serve, RequestStatus, ServeConfig, ServeError, ServeReport, ServeRequest, ServeTier,
    TenantSpec, TransferModel, WorkloadClass,
};

const ROOMY_QUOTA: u64 = 64 << 20;

fn cfg_with_overhead(per_launch_overhead_ms: f64) -> ServeConfig {
    ServeConfig {
        per_launch_overhead_ms,
        ..ServeConfig::default()
    }
}

/// Serve one request of `class` from a tenant with byte quota `quota`.
fn serve_one(class: WorkloadClass, quota: u64, cfg: &ServeConfig) -> ServeReport {
    serve(
        &[TenantSpec::new("t0", 1, quota)],
        &[ServeRequest::new(0, class, 0.0)],
        cfg,
    )
    .unwrap()
}

/// The tier admission placed the report's one request on.
fn admitted_tier(rep: &ServeReport) -> ServeTier {
    match &rep.outcomes[0].status {
        RequestStatus::Completed { admitted_tier, .. } => *admitted_tier,
        other => panic!("expected a completion, got {other:?}"),
    }
}

/// Assert the report's one request reserved exactly the clean-run cost of
/// `class` on `tier` under `cfg`, to the bit.
fn assert_reserved_clean_cost(
    rep: &ServeReport,
    class: WorkloadClass,
    tier: ServeTier,
    cfg: &ServeConfig,
) {
    assert_eq!(admitted_tier(rep), tier, "{}", class.name());
    let clean = clean_run(class, tier, cfg).unwrap().modeled_ms;
    assert_eq!(
        rep.tenants[0].busy_ms.to_bits(),
        clean.to_bits(),
        "{} on {}: reserved {} ms, clean run {clean} ms",
        class.name(),
        tier.name(),
        rep.tenants[0].busy_ms
    );
}

#[test]
fn one_request_reserves_its_clean_run_cost_on_each_tier() {
    let cfg = cfg_with_overhead(0.0123);
    for class in WorkloadClass::ALL {
        let rep = serve_one(class, ROOMY_QUOTA, &cfg);
        assert_reserved_clean_cost(&rep, class, ServeTier::Fused, &cfg);
    }
    for class in [
        WorkloadClass::LrCg,
        WorkloadClass::Glm,
        WorkloadClass::Tron,
        WorkloadClass::Svm,
    ] {
        // A 1-byte quota refuses the request and names its streamed
        // footprint; a quota of exactly that admits it streamed.
        let needed = match &serve_one(class, 1, &cfg).outcomes[0].status {
            RequestStatus::Rejected {
                error: ServeError::QuotaExceeded { needed_bytes, .. },
            } => *needed_bytes,
            other => panic!(
                "{}: expected a quota rejection, got {other:?}",
                class.name()
            ),
        };
        let rep = serve_one(class, needed, &cfg);
        assert_reserved_clean_cost(&rep, class, ServeTier::Streamed, &cfg);
    }
}

#[test]
fn a_mixed_grid_serves_the_same_report_cold_and_warm() {
    let cfg = cfg_with_overhead(0.0124);
    let tenants = vec![
        TenantSpec::new("chaotic", 4, ROOMY_QUOTA)
            .with_faults(FaultProfile::seeded(11).with_kernel_fault_rate(0.05)),
        TenantSpec::new("bursty", 1, ROOMY_QUOTA),
        // Between the streamed and fused footprints of the solver classes.
        TenantSpec::new("metered", 4, 9_500),
    ];
    let requests: Vec<ServeRequest> = (0..12)
        .map(|i| {
            let req = ServeRequest::new(i % 3, WorkloadClass::ALL[i % 6], i as f64 * 0.75);
            if i % 4 == 3 {
                req.with_deadline(i as f64 * 0.75 + 4.5)
            } else {
                req
            }
        })
        .collect();
    let cold = serve(&tenants, &requests, &cfg).unwrap();
    let warm = serve(&tenants, &requests, &cfg).unwrap();
    assert_eq!(cold, warm);
    // The grid exercises both device tiers' estimates.
    let tiers: Vec<ServeTier> = cold
        .outcomes
        .iter()
        .filter_map(|o| match o.status {
            RequestStatus::Completed { admitted_tier, .. } => Some(admitted_tier),
            _ => None,
        })
        .collect();
    assert!(tiers.contains(&ServeTier::Fused) && tiers.contains(&ServeTier::Streamed));
}

#[test]
fn a_config_differing_in_one_estimate_input_reserves_its_own_cost() {
    let base = cfg_with_overhead(0.0125);
    let class = WorkloadClass::LrCg;
    let variants: [(&str, ServeConfig); 5] = [
        (
            "device",
            ServeConfig {
                device: DeviceSpec::tesla_k20(),
                ..base.clone()
            },
        ),
        (
            "transfer",
            ServeConfig {
                transfer: TransferModel::systemml(),
                ..base.clone()
            },
        ),
        ("per_launch_overhead_ms", cfg_with_overhead(0.0126)),
        ("policy.checkpoint_every", {
            let mut cfg = base.clone();
            cfg.policy.checkpoint_every += 1;
            cfg
        }),
        ("policy.cpu_fused_threads", {
            let mut cfg = base.clone();
            cfg.policy.cpu_fused_threads = 2;
            cfg
        }),
    ];
    let base_ms = clean_run(class, ServeTier::Fused, &base)
        .unwrap()
        .modeled_ms;
    for (field, cfg) in &variants {
        // The base config's estimate is in the memo before each variant
        // is served; a key that left `field` out would hand it back.
        let rep = serve_one(class, ROOMY_QUOTA, &base);
        assert_eq!(rep.tenants[0].busy_ms.to_bits(), base_ms.to_bits());
        let rep = serve_one(class, ROOMY_QUOTA, cfg);
        assert_reserved_clean_cost(&rep, class, ServeTier::Fused, cfg);
        // Device, transfer and dispatch costs enter the fused estimate, so
        // those variants tell a stale estimate apart. Checkpoints and the
        // CPU tier's threads do not change it (the CPU tier is never an
        // admitted tier), but they stay in the key, as does every field.
        let ms = clean_run(class, ServeTier::Fused, cfg).unwrap().modeled_ms;
        if matches!(*field, "device" | "transfer" | "per_launch_overhead_ms") {
            assert_ne!(ms.to_bits(), base_ms.to_bits(), "{field}");
        }
    }
}
