//! Multi-device backend: the pattern runs row-sharded across a
//! [`DeviceGroup`] through [`ShardedExecutor`]; BLAS-1 stays
//! operator-level on the group's root (first alive) device, like a real
//! data-parallel solver keeping its scalars and search directions on one
//! rank.
//!
//! Solver-visible numerics are **bit-identical for any shard count** (the
//! executor's canonical epilogue reduction — see `fusedml_core::sharded`),
//! which is what lets the runtime reshard across survivors after a device
//! loss and resume from a checkpoint without perturbing convergence.

use crate::ops::{try_device_map2, Backend, BackendStats};
use fusedml_blas::level1;
use fusedml_core::{PatternInstance, PatternSpec, ShardedExecutor};
use fusedml_gpu_sim::{DeviceError, DeviceGroup, Gpu, GpuBuffer, LaunchStats, PoolStats};
use fusedml_matrix::CsrMatrix;

/// [`Backend`] over a sharded multi-device group (sparse matrices only —
/// the paper's multi-device regime is the large sparse one).
pub struct ShardedBackend<'g> {
    group: &'g DeviceGroup,
    /// First alive device at construction: holds the solver's vectors and
    /// runs BLAS-1.
    root: &'g Gpu,
    exec: ShardedExecutor<'g>,
    scalar: GpuBuffer,
    stats: BackendStats,
    /// Root-device pool snapshot at construction / last reset.
    pool_base: PoolStats,
}

impl<'g> ShardedBackend<'g> {
    /// Shard `x` across the group's alive devices. Fails typed when no
    /// device is alive (the recovery ladder degrades instead of aborting).
    pub fn try_new_sparse(group: &'g DeviceGroup, x: &CsrMatrix) -> Result<Self, DeviceError> {
        let alive = group.alive_ordinals();
        Self::try_new_sparse_on(group, x, &alive)
    }

    /// Shard `x` across the given device ordinals only (lost ones are
    /// skipped) — how the runtime pins a job to one survivor while keeping
    /// the canonical sharded numerics.
    pub fn try_new_sparse_on(
        group: &'g DeviceGroup,
        x: &CsrMatrix,
        ordinals: &[usize],
    ) -> Result<Self, DeviceError> {
        let exec = ShardedExecutor::try_new_on(group, x, ordinals)?;
        let root_ordinal = match ordinals.iter().copied().find(|&o| group.alive(o)) {
            Some(o) => o,
            // `try_new` above already failed in this case; keep the error
            // typed rather than unreachable!-ing on a race with fault
            // injection.
            None => {
                return Err(DeviceError::DeviceLost {
                    device: group.len().saturating_sub(1),
                    fault_index: 0,
                })
            }
        };
        let root = group.device(root_ordinal);
        Ok(ShardedBackend {
            group,
            root,
            exec,
            scalar: root.try_alloc_f64("sharded.scalar", 1)?,
            stats: BackendStats::default(),
            pool_base: root.pool_stats(),
        })
    }

    pub fn new_sparse(group: &'g DeviceGroup, x: &CsrMatrix) -> Self {
        Self::try_new_sparse(group, x).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Override the executor's straggler deadline policy.
    pub fn with_straggler_policy(mut self, factor: f64, speculation: bool) -> Self {
        self.exec = self.exec.with_straggler_policy(factor, speculation);
        self
    }

    /// The group this backend runs on.
    pub fn group(&self) -> &'g DeviceGroup {
        self.group
    }

    /// Devices actually holding a shard (empty shards are skipped).
    pub fn shard_count(&self) -> usize {
        self.exec.shard_count()
    }

    /// Shards whose first attempt missed the straggler deadline.
    pub fn stragglers_detected(&self) -> usize {
        self.exec.stragglers_detected()
    }

    /// Speculative re-executions launched for straggling shards.
    pub fn speculative_reexecs(&self) -> usize {
        self.exec.speculative_reexecs()
    }

    /// Fold the executor's accumulated wall time and launches into the
    /// backend stats. Called after every matrix op, error or not, so
    /// launches performed before a fault still cost simulated time.
    fn absorb_exec(&mut self) {
        self.stats.sim_ms += self.exec.wall_ms();
        self.stats.launches += self.exec.launch_count();
        self.stats.counters.merge(&self.exec.counters_total());
        for l in &self.exec.launches {
            self.stats.occupancy_ms += l.occupancy.occupancy * l.sim_ms();
        }
        self.exec.reset();
    }

    fn charge(&mut self, s: LaunchStats) {
        self.stats.sim_ms += s.sim_ms();
        self.stats.launches += 1;
        self.stats.counters.merge(&s.counters);
        self.stats.occupancy_ms += s.occupancy.occupancy * s.sim_ms();
    }
}

impl<'g> Backend for ShardedBackend<'g> {
    type Vector = GpuBuffer;

    fn rows(&self) -> usize {
        self.exec.rows()
    }

    fn cols(&self) -> usize {
        self.exec.cols()
    }

    fn try_from_host(&mut self, name: &str, data: &[f64]) -> Result<GpuBuffer, DeviceError> {
        self.root.try_upload_f64(name, data)
    }

    fn try_zeros(&mut self, name: &str, len: usize) -> Result<GpuBuffer, DeviceError> {
        self.root.try_alloc_f64(name, len)
    }

    fn to_host(&self, v: &GpuBuffer) -> Vec<f64> {
        v.to_vec_f64()
    }

    fn try_pattern(
        &mut self,
        spec: PatternSpec,
        v: Option<&GpuBuffer>,
        y: &GpuBuffer,
        z: Option<&GpuBuffer>,
        w: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        let vh = v.map(|v| v.to_vec_f64());
        let yh = y.to_vec_f64();
        let zh = z.map(|z| z.to_vec_f64());
        let mut wh = vec![0.0; self.exec.cols()];
        let res = self
            .exec
            .try_pattern_host(spec, vh.as_deref(), &yh, zh.as_deref(), &mut wh);
        self.absorb_exec();
        res?;
        w.copy_from_f64(&wh);
        self.stats.record_instance(spec.instance());
        Ok(())
    }

    fn try_mv(&mut self, y: &GpuBuffer, out: &mut GpuBuffer) -> Result<(), DeviceError> {
        let yh = y.to_vec_f64();
        let mut ph = vec![0.0; self.exec.rows()];
        let res = self.exec.try_mv_host(&yh, &mut ph);
        self.absorb_exec();
        res?;
        out.copy_from_f64(&ph);
        Ok(())
    }

    fn try_tmv(
        &mut self,
        alpha: f64,
        u: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        let uh = u.to_vec_f64();
        let mut wh = vec![0.0; self.exec.cols()];
        let res = self.exec.try_tmv_host(alpha, &uh, &mut wh);
        self.absorb_exec();
        res?;
        out.copy_from_f64(&wh);
        self.stats.record_instance(PatternInstance::XtY);
        Ok(())
    }

    fn try_axpy(&mut self, a: f64, x: &GpuBuffer, y: &mut GpuBuffer) -> Result<(), DeviceError> {
        let s = level1::try_axpy(self.root, a, x, y)?;
        self.charge(s);
        Ok(())
    }

    fn try_scal(&mut self, a: f64, x: &mut GpuBuffer) -> Result<(), DeviceError> {
        let s = level1::try_scal(self.root, a, x)?;
        self.charge(s);
        Ok(())
    }

    fn try_copy(&mut self, src: &GpuBuffer, dst: &mut GpuBuffer) -> Result<(), DeviceError> {
        let s = level1::try_copy(self.root, src, dst)?;
        self.charge(s);
        Ok(())
    }

    fn try_ewmul(
        &mut self,
        x: &GpuBuffer,
        y: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        let s = level1::try_ewmul(self.root, x, y, out)?;
        self.charge(s);
        Ok(())
    }

    fn try_dot(&mut self, x: &GpuBuffer, y: &GpuBuffer) -> Result<f64, DeviceError> {
        let (d, s) = level1::try_dot(self.root, x, y, &self.scalar)?;
        self.charge(s);
        Ok(d)
    }

    fn try_nrm2_sq(&mut self, x: &GpuBuffer) -> Result<f64, DeviceError> {
        let (d, s) = level1::try_nrm2_sq(self.root, x, &self.scalar)?;
        self.charge(s);
        Ok(d)
    }

    fn try_map2(
        &mut self,
        x: &GpuBuffer,
        y: &GpuBuffer,
        out: &mut GpuBuffer,
        f: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> Result<(), DeviceError> {
        let s = try_device_map2(self.root, x, y, out, f)?;
        self.charge(s);
        Ok(())
    }

    fn stats(&self) -> BackendStats {
        let mut s = self.stats.clone();
        s.plan = self.exec.plan_stats();
        s.pool = self.root.pool_stats().delta_since(&self.pool_base);
        s
    }

    fn reset_stats(&mut self) {
        self.stats = BackendStats::default();
        self.exec.reset_plan_stats();
        self.pool_base = self.root.pool_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lr_cg::{try_lr_cg_ckpt, LrCgOptions};
    use crate::ops::CpuBackend;
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

        let mut b = ShardedBackend::new_sparse(&g, &x);
        assert_eq!(b.shard_count(), 3);
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
            let mut b = ShardedBackend::new_sparse(&g, &x);
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
        let mut b = ShardedBackend::new_sparse(&g, &x);
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
