//! Multi-device backend: the matrix products run row-sharded across a
//! [`DeviceGroup`] through [`ShardedExecutor`], the backend's matrix
//! engine; BLAS-1 stays operator-level on the executor's root (first
//! alive) device, like a real data-parallel solver keeping its scalars and
//! search directions on one rank.
//!
//! Solver-visible numerics are **bit-identical for any shard count** (the
//! row-range core's canonical epilogue reduction — see
//! `fusedml_core::rowranges`), which is what lets the runtime reshard
//! across survivors after a device loss and resume from a checkpoint
//! without perturbing convergence.

use crate::ops::DeviceBackend;
use fusedml_core::ShardedExecutor;
use fusedml_gpu_sim::{DeviceError, DeviceGroup};
use fusedml_matrix::CsrMatrix;

/// [`Backend`](crate::Backend) over a sharded multi-device group (sparse
/// matrices only — the paper's multi-device regime is the large sparse
/// one).
pub type ShardedBackend<'g> = DeviceBackend<'g, ShardedExecutor<'g>>;

impl<'g> ShardedBackend<'g> {
    /// Shard `x` across the group's alive devices. Fails typed when no
    /// device is alive (the recovery ladder degrades instead of aborting).
    pub fn try_new_sparse(group: &'g DeviceGroup, x: &CsrMatrix) -> Result<Self, DeviceError> {
        Self::try_new(ShardedExecutor::try_new(group, x)?)
    }

    /// Wrap an executor; the solver's vectors live on its root device.
    pub fn try_new(exec: ShardedExecutor<'g>) -> Result<Self, DeviceError> {
        let root = exec.root();
        let scalar = root.try_alloc_f64("sharded.scalar", 1)?;
        Ok(DeviceBackend::new(root, exec, scalar))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lr_cg::{try_lr_cg_ckpt, LrCgOptions};
    use crate::ops::{Backend, CpuBackend};
    use fusedml_core::PatternSpec;
    use fusedml_gpu_sim::{DeviceSpec, FaultProfile, InterconnectSpec};
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn group(n: usize) -> DeviceGroup {
        DeviceGroup::new(
            DeviceSpec::gtx_titan(),
            n,
            InterconnectSpec::nvlink2(),
            &FaultProfile::disabled(),
        )
    }

    #[test]
    fn sharded_backend_matches_reference_and_accounts() -> Result<(), DeviceError> {
        let g = group(3);
        let x = uniform_sparse(150, 80, 0.1, 91);
        let y = random_vector(80, 1);
        let v = random_vector(150, 2);
        let spec = PatternSpec::xtvxy();

        let mut b = ShardedBackend::try_new_sparse(&g, &x)?;
        assert_eq!(b.engine().shard_count(), 3);
        let yd = b.try_from_host("y", &y)?;
        let vd = b.try_from_host("v", &v)?;
        let mut wd = b.try_zeros("w", 80)?;
        b.try_pattern(spec, Some(&vd), &yd, None, &mut wd)?;
        let w = b.to_host(&wd);

        let expect = reference::pattern_csr(1.0, &x, Some(&v), &y, 0.0, None);
        assert!(reference::rel_l2_error(&w, &expect) < 1e-11);
        let s = b.stats();
        assert_eq!(s.pattern_counts[spec.instance().formula()], 1);
        assert!(s.sim_ms > 0.0);
        assert!(s.launches >= 2 * 3, "fill + kernel per shard");
        // The broadcast and the fused-epilogue reduction went over the
        // fabric.
        assert!(g.interconnect_stats().transfers >= 4);
        Ok(())
    }

    #[test]
    fn lr_cg_weights_are_bit_identical_across_device_counts() {
        let x = uniform_sparse(120, 16, 0.2, 92);
        let labels = random_vector(120, 3);
        let opts = LrCgOptions {
            eps: 0.001,
            tolerance: 0.0,
            max_iterations: 8,
        };
        let solve = |n: usize| {
            let g = group(n);
            let mut b = ShardedBackend::try_new_sparse(&g, &x).unwrap();
            let r = try_lr_cg_ckpt(&mut b, &labels, opts, None).unwrap_or_else(|e| panic!("{e}"));
            r.weights
        };
        let w1 = solve(1);
        let w2 = solve(2);
        let w4 = solve(4);
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&w1), bits(&w2));
        assert_eq!(bits(&w1), bits(&w4));

        // And the solution itself is right (CPU reference solve).
        let mut cpu = CpuBackend::new_sparse(x);
        let rc = try_lr_cg_ckpt(&mut cpu, &labels, opts, None).unwrap_or_else(|e| panic!("{e}"));
        assert!(reference::rel_l2_error(&w1, &rc.weights) < 1e-9);
    }

    #[test]
    fn device_loss_mid_solve_surfaces_typed() {
        let x = uniform_sparse(100, 16, 0.2, 93);
        let labels = random_vector(100, 4);
        let g = DeviceGroup::new(
            DeviceSpec::gtx_titan(),
            2,
            InterconnectSpec::pcie_gen3_x16(),
            &FaultProfile::seeded(0x10557).with_device_loss_rate(0.05),
        );
        let mut b = ShardedBackend::try_new_sparse(&g, &x).unwrap();
        let opts = LrCgOptions {
            eps: 0.001,
            tolerance: 0.0,
            max_iterations: 50,
        };
        let err = match try_lr_cg_ckpt(&mut b, &labels, opts, None) {
            Err(e) => e,
            Ok(_) => panic!("loss rate 0.05 over 50 iterations must kill a device"),
        };
        assert_eq!(err.device_error().map(|e| e.kind()), Some("device-lost"));
        assert!(g.alive_count() < 2);
    }
}
