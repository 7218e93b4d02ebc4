//! Out-of-core solver backend: the matrix products run through the
//! streaming pipeline ([`SparseStreamer`] — multi-queue copy engine,
//! depth-`d` overlap, byte-budgeted chunk residency) while the solver's
//! vectors and BLAS-1 stay device-resident, like a real out-of-core
//! solver keeping its iterate and search directions on the accelerator.
//!
//! Because the streamer follows the row-range core's canonical epilogue
//! reduction, solver-visible numerics are **bit-identical for any chunk
//! size, pipeline depth, queue count or residency budget** — including
//! the single-chunk configuration, which *is* the non-streamed fused
//! path. Streaming is purely a cost/capacity decision; it never perturbs
//! convergence.
//!
//! The backend keeps one streamer alive for the whole solve, which is
//! what makes consecutive iterations cheap: resident chunks admitted in
//! iteration `k` are served from device memory in iteration `k + 1`, and
//! the chunk launch plans (and the cost-searched configuration itself)
//! are computed once, not per iteration. The matrix engine is the one
//! `ml` implements for every row-range executor: it charges the pipeline
//! wall (transfer and compute overlapped), not the kernel sum.

use crate::streaming::{SparseStreamer, StreamError};
use fusedml_ml::DeviceBackend;

/// [`Backend`](fusedml_ml::Backend) whose matrix lives on the host and
/// streams through the copy-engine pipeline chunk by chunk (sparse
/// matrices only — the out-of-core regime is the large sparse one). Build
/// one with [`SparseStreamer::try_into_backend`].
pub type StreamedBackend<'g> = DeviceBackend<'g, SparseStreamer<'g>>;

impl<'g> SparseStreamer<'g> {
    /// Wrap this streamer as a solver backend on its device.
    pub fn try_into_backend(self) -> Result<StreamedBackend<'g>, StreamError> {
        let gpu = self.gpu();
        let scalar = gpu.try_alloc_f64("stream.scalar", 1)?;
        Ok(DeviceBackend::new(gpu, self, scalar))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::StreamConfig;
    use crate::transfer::TransferModel;
    use fusedml_core::PatternSpec;
    use fusedml_gpu_sim::{DeviceError, DeviceSpec, Gpu};
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::{reference, CsrMatrix};
    use fusedml_ml::{try_lr_cg_ckpt, Backend, CpuBackend, LrCgOptions};

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    fn backend<'g>(g: &'g Gpu, x: &CsrMatrix, cfg: StreamConfig) -> StreamedBackend<'g> {
        SparseStreamer::try_new(g, x, TransferModel::native(), cfg)
            .and_then(SparseStreamer::try_into_backend)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn streamed_backend_matches_reference_and_accounts() -> Result<(), DeviceError> {
        let g = gpu();
        let x = uniform_sparse(600, 80, 0.08, 201);
        let y = random_vector(80, 1);
        let v = random_vector(600, 2);
        let spec = PatternSpec::xtvxy();

        let mut b = backend(&g, &x, StreamConfig::fixed(128, 3));
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
        assert_eq!(b.engine().chunk_count(), 5);
        assert_eq!(b.engine().depth(), 3);
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
            let mut b = backend(&g, &x, cfg);
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
        let mut b = backend(&g, &x, StreamConfig::fixed(120, 3).with_residency(u64::MAX));
        b.engine_mut().set_plan_cache(true); // deterministic regardless of global toggle
        let opts = LrCgOptions {
            eps: 0.001,
            tolerance: 0.0,
            max_iterations: 6,
        };
        try_lr_cg_ckpt(&mut b, &labels, opts, None).unwrap_or_else(|e| panic!("{e}"));
        let hits = b.engine().residency_hits_total();
        let chunks = b.engine().chunk_count() as u64;
        assert!(
            hits >= chunks,
            "later iterations must stream zero matrix bytes (hits {hits}, chunks {chunks})"
        );
        assert_eq!(
            b.engine().chunk_plan_stats().plans_computed(),
            2,
            "5 chunks x many iterations, 2 distinct shapes, 2 tuner runs"
        );
        // Copy-engine traffic reflects the reuse: total H2D bytes stay
        // bounded by one cold pass of the matrix plus vector lead-ins.
        let moved = b.engine().copy_stats().bytes;
        assert!(moved < 2 * x.size_bytes());
    }

    #[test]
    fn backend_releases_device_memory_on_drop() -> Result<(), DeviceError> {
        let g = gpu();
        let x = uniform_sparse(300, 32, 0.1, 204);
        let y = random_vector(32, 5);
        let before = g.allocated_bytes();
        {
            let mut b = backend(&g, &x, StreamConfig::fixed(64, 2).with_residency(u64::MAX));
            let yd = b.try_from_host("y", &y)?;
            let mut wd = b.try_zeros("w", 32)?;
            b.try_pattern(PatternSpec::xtxy(), None, &yd, None, &mut wd)?;
            assert!(b.engine().resident_bytes() > 0);
            g.free(&yd);
            g.free(&wd);
        }
        assert_eq!(g.allocated_bytes(), before, "backend leaked device bytes");
        Ok(())
    }
}
