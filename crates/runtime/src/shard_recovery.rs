//! The multi-device degradation ladder
//! `ShardRetry -> Reshard -> SingleDevice -> Cpu`, driven by
//! [`run_with_recovery`](crate::recovery::run_with_recovery) from
//! [`run_sharded_fault_tolerant`](crate::session::run_sharded_fault_tolerant).
//!
//! * **ShardRetry** — rebuild the sharded job on every alive device and
//!   retry transient faults with backoff (same-tier retries, like the
//!   single-device ladder).
//! * **Reshard** — after a device loss (non-transient), redistribute the
//!   lost device's rows across the survivors and resume from the last
//!   [`fusedml_ml::SolverCheckpoint`] snapshot — never iteration 0.
//! * **SingleDevice** — pin the job to the first surviving device, still
//!   through the sharded executor (one shard), so the canonical reduction
//!   keeps the numerics bit-identical to the multi-device run.
//! * **Cpu** — host execution, the tier of last resort; never faults.

use crate::recovery::RecoveryTier;
use serde::{Deserialize, Serialize};

/// Rung of the multi-device degradation ladder, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardTier {
    /// All alive devices; transient faults retried in place.
    ShardRetry,
    /// Redistribute lost rows across the survivors, resume from the last
    /// checkpoint.
    Reshard,
    /// One surviving device carries the whole matrix (still the sharded
    /// executor, so numerics stay bit-identical).
    SingleDevice,
    /// Host execution; never faults.
    Cpu,
}

impl ShardTier {
    /// The multi-device ladder, fastest first.
    pub const LADDER: [ShardTier; 4] = [
        ShardTier::ShardRetry,
        ShardTier::Reshard,
        ShardTier::SingleDevice,
        ShardTier::Cpu,
    ];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ShardTier::ShardRetry => "shard-retry",
            ShardTier::Reshard => "reshard",
            ShardTier::SingleDevice => "single-device",
            ShardTier::Cpu => "cpu",
        }
    }
}

impl RecoveryTier for ShardTier {
    fn name(&self) -> &'static str {
        ShardTier::name(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::RecoveryPolicy;
    use crate::session::{run_sharded_fault_tolerant, EngineKind, SessionConfig};
    use fusedml_gpu_sim::{DeviceGroup, DeviceSpec, FaultProfile, InterconnectSpec};
    use fusedml_matrix::gen::{random_vector, uniform_sparse};

    /// 30 fixed iterations (tolerance disabled).
    fn cfg() -> SessionConfig {
        SessionConfig::native(EngineKind::Fused, 30)
    }

    fn group(n: usize, profile: FaultProfile) -> DeviceGroup {
        DeviceGroup::new(
            DeviceSpec::gtx_titan(),
            n,
            InterconnectSpec::pcie_gen3_x16(),
            &profile,
        )
    }

    #[test]
    fn shard_ladder_order_and_names() {
        let names: Vec<&str> = ShardTier::LADDER.iter().map(|t| t.name()).collect();
        assert_eq!(names, ["shard-retry", "reshard", "single-device", "cpu"]);
    }

    #[test]
    fn clean_group_finishes_on_shard_retry() {
        let x = uniform_sparse(120, 16, 0.2, 7);
        let labels = random_vector(120, 8);
        let g = group(3, FaultProfile::disabled());
        let out =
            run_sharded_fault_tolerant(&g, &x, &labels, &cfg(), 3.0, &RecoveryPolicy::default())
                .unwrap();
        assert_eq!(out.tier, ShardTier::ShardRetry);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.devices_used, 3);
        assert!(out.events.is_empty());
        assert_eq!(out.resumed_at, None);
    }

    #[test]
    fn device_loss_reshards_resumes_and_stays_bit_identical() {
        let x = uniform_sparse(160, 24, 0.15, 9);
        let labels = random_vector(160, 10);
        let policy = RecoveryPolicy {
            checkpoint_every: 2,
            ..RecoveryPolicy::default()
        };

        // Baseline: unfaulted single device through the same executor.
        let clean = {
            let g = group(1, FaultProfile::disabled());
            run_sharded_fault_tolerant(&g, &x, &labels, &cfg(), 3.0, &policy).unwrap()
        };
        assert_eq!(clean.tier, ShardTier::ShardRetry);

        // Seeded device loss mid-solve: found by scanning seeds offline;
        // this one kills exactly one of three devices within 30 iterations.
        let mut hit = None;
        for seed in 0..64u64 {
            let g = group(3, FaultProfile::seeded(seed).with_device_loss_rate(0.0015));
            let out = run_sharded_fault_tolerant(&g, &x, &labels, &cfg(), 3.0, &policy).unwrap();
            if out.tier == ShardTier::Reshard && g.alive_count() == 2 {
                hit = Some((out, seed));
                break;
            }
        }
        let (out, seed) = hit.expect("no seed in 0..64 lost exactly one device mid-solve");

        // The loss trail: shard-retry failed with a device loss, resharded,
        // resumed past iteration 0.
        assert!(
            out.events.iter().any(|e| e.error_kind == "device-lost"),
            "seed {seed}: no device-lost event in the trail"
        );
        assert_eq!(out.devices_used, 2, "seed {seed}");
        let resumed = out.resumed_at.unwrap_or(0);
        assert!(resumed > 0, "seed {seed}: resumed at iteration 0");

        // And the survivors' result is bit-identical to the unfaulted run.
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&out.weights),
            bits(&clean.weights),
            "seed {seed}: reshard changed the numerics"
        );
    }

    #[test]
    fn dead_group_falls_through_to_cpu_with_full_trail() {
        let x = uniform_sparse(80, 12, 0.25, 11);
        let labels = random_vector(80, 12);
        let g = group(2, FaultProfile::disabled());
        g.mark_lost(0);
        g.mark_lost(1);
        let out =
            run_sharded_fault_tolerant(&g, &x, &labels, &cfg(), 3.0, &RecoveryPolicy::default())
                .unwrap();
        assert_eq!(out.tier, ShardTier::Cpu);
        assert_eq!(out.devices_used, 0);
        // Every device tier left a device-lost event in the trail.
        let tiers: Vec<&str> = out.events.iter().map(|e| e.tier.name()).collect();
        assert_eq!(tiers, vec!["shard-retry", "reshard", "single-device"]);
        assert!(out.events.iter().all(|e| e.error_kind == "device-lost"));
    }

    #[test]
    fn degradation_disabled_aborts_with_tier_errors() {
        let x = uniform_sparse(40, 8, 0.3, 13);
        let labels = random_vector(40, 14);
        let g = group(2, FaultProfile::seeded(1).with_device_loss_rate(1.0));
        let policy = RecoveryPolicy {
            allow_degradation: false,
            ..RecoveryPolicy::default()
        };
        let err = run_sharded_fault_tolerant(&g, &x, &labels, &cfg(), 3.0, &policy).unwrap_err();
        assert_eq!(err.kind(), "device-lost");
        assert_eq!(err.tier_errors.len(), 1);
        assert_eq!(err.tier_errors[0].0, ShardTier::ShardRetry);
        assert!(err.to_string().contains("shard-retry tier"));
    }
}
