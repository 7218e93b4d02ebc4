//! Out-of-core solver backend: the matrix products run through the
//! streaming pipeline ([`SparseStreamer`] — multi-queue copy engine,
//! depth-`d` overlap, byte-budgeted chunk residency) while the solver's
//! vectors and BLAS-1 stay device-resident, like a real out-of-core
//! solver keeping its iterate and search directions on the accelerator.
//!
//! Because the streamer follows the sharded executor's canonical
//! epilogue reduction, solver-visible numerics are **bit-identical for
//! any chunk size, pipeline depth, queue count or residency budget** —
//! including the single-chunk configuration, which *is* the non-streamed
//! fused path. Streaming is purely a cost/capacity decision; it never
//! perturbs convergence.
//!
//! The backend keeps one streamer alive for the whole solve, which is
//! what makes consecutive iterations cheap: resident chunks admitted in
//! iteration `k` are served from device memory in iteration `k + 1`, and
//! the chunk launch plans (and the cost-searched configuration itself)
//! are memoized once, not per iteration.

use crate::streaming::{SparseStreamer, StreamConfig, StreamError, StreamReport};
use crate::transfer::TransferModel;
use fusedml_blas::level1;
use fusedml_core::{PatternInstance, PatternSpec};
use fusedml_gpu_sim::{DeviceError, Gpu, GpuBuffer, LaunchStats, PoolStats};
use fusedml_matrix::CsrMatrix;
use fusedml_ml::{try_device_map2, Backend, BackendStats};

/// [`Backend`] whose matrix lives on the host and streams through the
/// copy-engine pipeline chunk by chunk (sparse matrices only — the
/// out-of-core regime is the large sparse one).
pub struct StreamedBackend<'g> {
    gpu: &'g Gpu,
    streamer: SparseStreamer<'g>,
    scalar: GpuBuffer,
    stats: BackendStats,
    /// Pool snapshot at construction / last reset.
    pool_base: PoolStats,
    /// Report of the most recent streamed matrix op.
    last_report: Option<StreamReport>,
}

impl<'g> StreamedBackend<'g> {
    /// Chunk `x` for streaming under `cfg` (use [`StreamConfig::auto`]
    /// for the cost-searched configuration).
    pub fn try_new_sparse(
        gpu: &'g Gpu,
        x: &CsrMatrix,
        transfer: TransferModel,
        cfg: StreamConfig,
    ) -> Result<Self, StreamError> {
        let streamer = SparseStreamer::try_new(gpu, x, transfer, cfg)?;
        Ok(StreamedBackend {
            gpu,
            streamer,
            scalar: gpu.try_alloc_f64("stream.scalar", 1)?,
            stats: BackendStats::default(),
            pool_base: gpu.pool_stats(),
            last_report: None,
        })
    }

    pub fn new_sparse(
        gpu: &'g Gpu,
        x: &CsrMatrix,
        transfer: TransferModel,
        cfg: StreamConfig,
    ) -> Self {
        Self::try_new_sparse(gpu, x, transfer, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The streaming executor (chunk schedule, residency and copy-engine
    /// introspection).
    pub fn streamer(&self) -> &SparseStreamer<'g> {
        &self.streamer
    }

    /// Report of the most recent streamed matrix op, if any.
    pub fn last_report(&self) -> Option<&StreamReport> {
        self.last_report.as_ref()
    }

    /// Fold the streamer's accumulated pipeline wall and launches into
    /// the backend stats. Called after every matrix op, error or not, so
    /// chunks processed before a fault still cost modeled time. The time
    /// charged is the *pipeline* wall (transfer/compute overlapped), not
    /// the kernel sum — streaming's cost is the schedule, not the kernels.
    fn absorb_streamer(&mut self) {
        self.stats.sim_ms += self.streamer.wall_ms();
        self.stats.launches += self.streamer.launch_count();
        self.stats.counters.merge(&self.streamer.counters_total());
        for l in &self.streamer.launches {
            self.stats.occupancy_ms += l.occupancy.occupancy * l.sim_ms();
        }
        self.streamer.reset();
    }

    fn charge(&mut self, s: LaunchStats) {
        self.stats.sim_ms += s.sim_ms();
        self.stats.launches += 1;
        self.stats.counters.merge(&s.counters);
        self.stats.occupancy_ms += s.occupancy.occupancy * s.sim_ms();
    }

    fn record_instance(&mut self, inst: PatternInstance) {
        *self.stats.pattern_counts.entry(inst.formula()).or_insert(0) += 1;
    }

    /// Map a streaming failure onto the backend error surface. Device
    /// faults pass through (the recovery ladder consumes them); shape and
    /// configuration errors from inside a backend call are caller bugs,
    /// reported the way the other device backends report them — a panic.
    fn device_err(e: StreamError) -> DeviceError {
        match e {
            StreamError::Device(e) => e,
            other => panic!("streamed backend misuse: {other}"),
        }
    }
}

impl<'g> Backend for StreamedBackend<'g> {
    type Vector = GpuBuffer;

    fn rows(&self) -> usize {
        self.streamer.rows()
    }

    fn cols(&self) -> usize {
        self.streamer.cols()
    }

    fn try_from_host(&mut self, name: &str, data: &[f64]) -> Result<GpuBuffer, DeviceError> {
        self.gpu.try_upload_f64(name, data)
    }

    fn try_zeros(&mut self, name: &str, len: usize) -> Result<GpuBuffer, DeviceError> {
        self.gpu.try_alloc_f64(name, len)
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
        let mut wh = vec![0.0; self.streamer.cols()];
        let res = self
            .streamer
            .try_pattern_host(spec, vh.as_deref(), &yh, zh.as_deref(), &mut wh);
        self.absorb_streamer();
        self.last_report = Some(res.map_err(Self::device_err)?);
        w.copy_from_f64(&wh);
        self.record_instance(spec.instance());
        Ok(())
    }

    fn try_mv(&mut self, y: &GpuBuffer, out: &mut GpuBuffer) -> Result<(), DeviceError> {
        let yh = y.to_vec_f64();
        let mut ph = vec![0.0; self.streamer.rows()];
        let res = self.streamer.try_mv_host(&yh, &mut ph);
        self.absorb_streamer();
        self.last_report = Some(res.map_err(Self::device_err)?);
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
        let mut wh = vec![0.0; self.streamer.cols()];
        let res = self.streamer.try_tmv_host(alpha, &uh, &mut wh);
        self.absorb_streamer();
        self.last_report = Some(res.map_err(Self::device_err)?);
        out.copy_from_f64(&wh);
        self.record_instance(PatternInstance::XtY);
        Ok(())
    }

    fn try_axpy(&mut self, a: f64, x: &GpuBuffer, y: &mut GpuBuffer) -> Result<(), DeviceError> {
        let s = level1::try_axpy(self.gpu, a, x, y)?;
        self.charge(s);
        Ok(())
    }

    fn try_scal(&mut self, a: f64, x: &mut GpuBuffer) -> Result<(), DeviceError> {
        let s = level1::try_scal(self.gpu, a, x)?;
        self.charge(s);
        Ok(())
    }

    fn try_copy(&mut self, src: &GpuBuffer, dst: &mut GpuBuffer) -> Result<(), DeviceError> {
        let s = level1::try_copy(self.gpu, src, dst)?;
        self.charge(s);
        Ok(())
    }

    fn try_ewmul(
        &mut self,
        x: &GpuBuffer,
        y: &GpuBuffer,
        out: &mut GpuBuffer,
    ) -> Result<(), DeviceError> {
        let s = level1::try_ewmul(self.gpu, x, y, out)?;
        self.charge(s);
        Ok(())
    }

    fn try_dot(&mut self, x: &GpuBuffer, y: &GpuBuffer) -> Result<f64, DeviceError> {
        let (d, s) = level1::try_dot(self.gpu, x, y, &self.scalar)?;
        self.charge(s);
        Ok(d)
    }

    fn try_nrm2_sq(&mut self, x: &GpuBuffer) -> Result<f64, DeviceError> {
        let (d, s) = level1::try_nrm2_sq(self.gpu, x, &self.scalar)?;
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
        let s = try_device_map2(self.gpu, x, y, out, f)?;
        self.charge(s);
        Ok(())
    }

    fn stats(&self) -> BackendStats {
        let mut s = self.stats.clone();
        s.plan = self.streamer.plan_stats();
        s.pool = self.gpu.pool_stats().delta_since(&self.pool_base);
        s
    }

    fn reset_stats(&mut self) {
        self.stats = BackendStats::default();
        self.streamer.reset_plan_stats();
        self.pool_base = self.gpu.pool_stats();
    }
}

impl Drop for StreamedBackend<'_> {
    fn drop(&mut self) {
        self.gpu.free(&self.scalar);
        // The streamer's own Drop releases the persistent vectors and
        // resident chunks.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;
    use fusedml_ml::{try_lr_cg_ckpt, CpuBackend, LrCgOptions};

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    #[test]
    fn streamed_backend_matches_reference_and_accounts() -> Result<(), DeviceError> {
        let g = gpu();
        let x = uniform_sparse(600, 80, 0.08, 201);
        let y = random_vector(80, 1);
        let v = random_vector(600, 2);
        let spec = PatternSpec::xtvxy();

        let mut b = StreamedBackend::new_sparse(
            &g,
            &x,
            TransferModel::native(),
            StreamConfig::fixed(128, 3),
        );
        let yd = b.try_from_host("y", &y)?;
        let vd = b.try_from_host("v", &v)?;
        let mut wd = b.try_zeros("w", 80)?;
        b.try_pattern(spec, Some(&vd), &yd, None, &mut wd)?;
        let w = b.to_host(&wd);

        let expect = reference::pattern_csr(1.0, &x, Some(&v), &y, 0.0, None);
        assert!(reference::rel_l2_error(&w, &expect) < 1e-10);
        let s = b.stats();
        assert_eq!(s.pattern_counts[spec.instance().formula()], 1);
        assert!(s.sim_ms > 0.0);
        assert!(s.launches >= 2 * 5, "fill + fused kernel per chunk");
        let r = b.last_report().unwrap_or_else(|| panic!("no report"));
        assert_eq!(r.chunks, 5);
        assert_eq!(r.depth, 3);
        // The backend charges the overlapped pipeline wall, which covers
        // the transfers the kernels hid under.
        assert!(s.sim_ms >= r.overlapped_ms);
        Ok(())
    }

    /// The headline contract: an lr_cg solve is bit-identical whether the
    /// matrix streams (any depth, chunking or residency budget) or sits
    /// on the device in one piece (the non-streamed fused path).
    #[test]
    fn lr_cg_weights_are_bit_identical_across_stream_configs() {
        let x = uniform_sparse(240, 16, 0.2, 202);
        let labels = random_vector(240, 3);
        let opts = LrCgOptions {
            eps: 0.001,
            tolerance: 0.0,
            max_iterations: 8,
        };
        let solve = |cfg: StreamConfig| {
            let g = gpu();
            let mut b = StreamedBackend::new_sparse(&g, &x, TransferModel::native(), cfg);
            let r = try_lr_cg_ckpt(&mut b, &labels, opts, None).unwrap_or_else(|e| panic!("{e}"));
            r.weights
        };
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        // Single chunk, no pipeline: the non-streamed fused path.
        let w_ref = solve(StreamConfig::fixed(240, 1));
        for cfg in [
            StreamConfig::fixed(37, 2),
            StreamConfig::fixed(37, 4)
                .with_queues(2)
                .with_residency(u64::MAX),
            StreamConfig::fixed(64, 3).with_residency(1 << 13),
        ] {
            let w = solve(cfg);
            assert_eq!(bits(&w_ref), bits(&w), "{cfg:?}");
        }

        // And the solution itself is right (CPU reference solve).
        let mut cpu = CpuBackend::new_sparse(x);
        let rc = try_lr_cg_ckpt(&mut cpu, &labels, opts, None).unwrap_or_else(|e| panic!("{e}"));
        assert!(reference::rel_l2_error(&w_ref, &rc.weights) < 1e-9);
    }

    /// A persistent backend fuses across iterations: residency admitted in
    /// iteration k serves iteration k+1, and the solve plans each chunk
    /// shape once, not once per iteration.
    #[test]
    fn solver_iterations_reuse_residency_and_plans() {
        let g = gpu();
        let x = uniform_sparse(500, 24, 0.15, 203);
        let labels = random_vector(500, 4);
        let mut b = StreamedBackend::new_sparse(
            &g,
            &x,
            TransferModel::native(),
            StreamConfig::fixed(120, 3).with_residency(u64::MAX),
        );
        b.streamer.set_plan_cache(true); // deterministic regardless of global toggle
        let opts = LrCgOptions {
            eps: 0.001,
            tolerance: 0.0,
            max_iterations: 6,
        };
        try_lr_cg_ckpt(&mut b, &labels, opts, None).unwrap_or_else(|e| panic!("{e}"));
        let hits = b.streamer().residency_hits_total();
        let chunks = b.streamer().chunk_count() as u64;
        assert!(
            hits >= chunks,
            "later iterations must stream zero matrix bytes (hits {hits}, chunks {chunks})"
        );
        assert_eq!(
            b.streamer().chunk_plan_stats().plans_computed(),
            2,
            "5 chunks x many iterations, 2 distinct shapes, 2 tuner runs"
        );
        // Copy-engine traffic reflects the reuse: total H2D bytes stay
        // bounded by one cold pass of the matrix plus vector lead-ins.
        let moved = b.streamer().copy_stats().bytes;
        assert!(moved < 2 * x.size_bytes());
    }

    #[test]
    fn backend_releases_device_memory_on_drop() -> Result<(), DeviceError> {
        let g = gpu();
        let x = uniform_sparse(300, 32, 0.1, 204);
        let y = random_vector(32, 5);
        let before = g.allocated_bytes();
        {
            let mut b = StreamedBackend::new_sparse(
                &g,
                &x,
                TransferModel::native(),
                StreamConfig::fixed(64, 2).with_residency(u64::MAX),
            );
            let yd = b.try_from_host("y", &y)?;
            let mut wd = b.try_zeros("w", 32)?;
            b.try_pattern(PatternSpec::xtxy(), None, &yd, None, &mut wd)?;
            assert!(b.streamer().resident_bytes() > 0);
            g.free(&yd);
            g.free(&wd);
        }
        assert_eq!(g.allocated_bytes(), before, "backend leaked device bytes");
        Ok(())
    }
}
