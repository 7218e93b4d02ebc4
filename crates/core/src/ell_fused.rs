//! Fused pattern kernel over ELLPACK storage — an extension beyond the
//! paper (which fuses CSR and dense): the same two-scan temporal-locality
//! structure, but with one *thread* per row instead of one vector, because
//! ELL's column-major slots already coalesce per-thread row marching.
//!
//! Trade-off measured by the `repro ell` extension experiment: on uniform
//! rows ELL removes the intra-vector reduction entirely (no shuffles, no
//! lane masking); on power-law rows padding makes it read far more slots
//! than CSR reads non-zeros.

use crate::pattern::PatternSpec;
use fusedml_blas::ellmv::GpuEll;
use fusedml_gpu_sim::{DeviceError, Gpu, GpuBuffer, LaunchConfig, LaunchStats, WARP_LANES};
use fusedml_matrix::ell::ELL_PAD;

/// Launch plan for the ELL fused kernel (one thread per row; `C` rows per
/// thread via grid-stride).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EllPlan {
    pub bs: usize,
    pub grid: usize,
    pub use_shared_w: bool,
    pub shared_bytes: usize,
}

/// Plan for an `m x n` ELL matrix: one resident wave, shared-memory
/// aggregation when `w` fits (same limit as the CSR kernel).
///
/// # Panics
/// If no block of 128 to 1024 threads at the kernel's 32 registers fits
/// the device.
// Every built-in spec fits a 128-thread block; a device too small for one
// cannot run the ELL kernel at all.
#[allow(clippy::panic)]
pub fn plan_ell(gpu: &Gpu, m: usize, n: usize) -> EllPlan {
    let spec = gpu.spec();
    let use_shared_w = n * 8 <= spec.shared_mem_per_block / 2;
    let shared_bytes = if use_shared_w { n * 8 } else { 0 };
    // Like the CSR tuner: once occupancy passes the latency-hiding knee,
    // prefer the largest block size — fewer resident blocks means fewer
    // per-block flushes of the shared accumulator.
    let knee =
        (spec.max_warps_per_sm() as f64 * fusedml_gpu_sim::LATENCY_HIDING_KNEE).ceil() as usize;
    let mut best: Option<(usize, fusedml_gpu_sim::Occupancy)> = None;
    for bs in [128usize, 256, 512, 768, 1024] {
        if bs > spec.max_threads_per_block {
            continue;
        }
        if let Some(occ) = fusedml_gpu_sim::occupancy(spec, bs, 32, shared_bytes) {
            let eff = occ.warps_per_sm.min(knee);
            let better = match &best {
                None => true,
                Some((_, b)) => eff >= b.warps_per_sm.min(knee),
            };
            if better {
                best = Some((bs, occ));
            }
        }
    }
    let (bs, occ) = best.unwrap_or_else(|| panic!("some block size fits"));
    let grid = (occ.blocks_per_sm * spec.num_sms)
        .max(1)
        .min(m.div_ceil(bs).max(1));
    EllPlan {
        bs,
        grid,
        use_shared_w,
        shared_bytes,
    }
}

/// `w = alpha * X^T (v ⊙ (X y)) + beta z` over ELL, fused.
/// `w` must be zeroed by the caller.
#[allow(clippy::too_many_arguments)] // mirrors the CUDA kernel signature
pub fn try_fused_pattern_ell(
    gpu: &Gpu,
    plan: &EllPlan,
    spec: PatternSpec,
    x: &GpuEll,
    v: Option<&GpuBuffer>,
    y: &GpuBuffer,
    z: Option<&GpuBuffer>,
    w: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    assert_eq!(spec.with_v, v.is_some(), "v presence mismatch");
    assert_eq!(spec.with_z, z.is_some(), "z presence mismatch");
    assert_eq!(y.len(), x.cols, "y length mismatch");
    assert_eq!(w.len(), x.cols, "w length mismatch");
    let (m, n, width) = (x.rows, x.cols, x.width);
    let (alpha, beta) = (spec.alpha, spec.beta);
    let use_shared = plan.use_shared_w;
    let cfg = LaunchConfig::new(plan.grid, plan.bs)
        .with_regs(32)
        .with_shared_bytes(plan.shared_bytes)
        .with_ilp(2.0);

    gpu.try_launch("fused_ell", cfg, |blk| {
        let grid_threads = blk.grid_dim() * blk.block_dim();
        let sd = use_shared.then(|| blk.shared_f64(n));

        if let Some(sd) = sd {
            crate::sparse_fused::zero_shared(blk, sd, n);
        }
        if let Some(z) = z {
            crate::sparse_fused::beta_z_init(blk, w, z, beta, n);
        }
        blk.sync();

        blk.each_warp(|wc| {
            let mut row0 = wc.gtid(0);
            while row0 < m {
                // Pass 1: p[r] = X[r,:] . y per lane, slot loop. Slots are
                // column-major, so the warp's rows read one run per slot.
                let mut sum = [0.0f64; WARP_LANES];
                for slot in 0..width {
                    let cols = wc.load_u32_grouped(&x.col_idx, slot * m + row0, m - row0, 1);
                    let vals = wc.load_f64_run(&x.values, slot * m + row0, m - row0);
                    let ys = wc.load_f64_tex(y, |l| {
                        (row0 + l < m && cols[l] != ELL_PAD).then(|| cols[l] as usize)
                    });
                    let mut active = 0u64;
                    for lane in 0..WARP_LANES {
                        if row0 + lane < m && cols[lane] != ELL_PAD {
                            sum[lane] += vals[lane] * ys[lane];
                            active += 1;
                        }
                    }
                    wc.flops(2 * active);
                }
                // v scaling.
                if let Some(v) = v {
                    let vr = wc.load_f64_tex(v, |l| (row0 + l < m).then_some(row0 + l));
                    for lane in 0..WARP_LANES {
                        sum[lane] *= vr[lane];
                    }
                    wc.flops(WARP_LANES as u64);
                }
                // Pass 2: scatter X[r,:]^T * p[r]; slots now cache-hot.
                for slot in 0..width {
                    let cols = wc.load_u32_grouped(&x.col_idx, slot * m + row0, m - row0, 1);
                    let vals = wc.load_f64_run(&x.values, slot * m + row0, m - row0);
                    let mut active = 0u64;
                    for lane in 0..WARP_LANES {
                        if row0 + lane < m && cols[lane] != ELL_PAD {
                            active += 1;
                        }
                    }
                    wc.flops(2 * active);
                    if let Some(sd) = sd {
                        wc.shared_atomic_add(sd, |l| {
                            (row0 + l < m && cols[l] != ELL_PAD)
                                .then(|| (cols[l] as usize, vals[l] * sum[l]))
                        });
                    } else {
                        wc.atomic_add_f64(w, |l| {
                            (row0 + l < m && cols[l] != ELL_PAD)
                                .then(|| (cols[l] as usize, alpha * vals[l] * sum[l]))
                        });
                    }
                }
                row0 += grid_threads;
            }
        });

        if let Some(sd) = sd {
            blk.sync();
            crate::sparse_fused::flush_shared(blk, sd, w, alpha, n);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_blas::level1::try_fill;
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::gen::{powerlaw_sparse, random_vector, uniform_sparse};
    use fusedml_matrix::{reference, EllMatrix};

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    fn run(
        g: &Gpu,
        x: &fusedml_matrix::CsrMatrix,
        spec: PatternSpec,
        seed: u64,
    ) -> (Vec<f64>, LaunchStats) {
        let ell = EllMatrix::from_csr(x);
        let (m, n) = (x.rows(), x.cols());
        let y = random_vector(n, seed);
        let v = random_vector(m, seed + 1);
        let z = random_vector(n, seed + 2);
        let xd = GpuEll::try_upload(g, "x", &ell).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let vd = g.try_upload_f64("v", &v).unwrap();
        let zd = g.try_upload_f64("z", &z).unwrap();
        let wd = g.try_alloc_f64("w", n).unwrap();
        try_fill(g, &wd, 0.0).unwrap();
        let plan = plan_ell(g, m, n);
        let stats = try_fused_pattern_ell(
            g,
            &plan,
            spec,
            &xd,
            spec.with_v.then_some(&vd),
            &yd,
            spec.with_z.then_some(&zd),
            &wd,
        )
        .unwrap();
        let expect = reference::pattern_csr(
            spec.alpha,
            x,
            spec.with_v.then_some(v.as_slice()),
            &y,
            spec.beta,
            spec.with_z.then_some(z.as_slice()),
        );
        assert!(
            reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-10,
            "spec {spec:?}"
        );
        (wd.to_vec_f64(), stats)
    }

    #[test]
    fn matches_reference_all_specs() {
        let g = gpu();
        let x = uniform_sparse(500, 200, 0.05, 51);
        for spec in [
            PatternSpec::xtxy(),
            PatternSpec::xtvxy(),
            PatternSpec::xtxy_plus_bz(-0.5),
            PatternSpec::full(2.0, 0.25),
        ] {
            run(&g, &x, spec, 52);
        }
    }

    #[test]
    fn global_variant_on_wide_matrix() {
        let g = gpu();
        let x = powerlaw_sparse(400, 40_000, 5.0, 0.8, 53);
        let plan = plan_ell(&g, 400, 40_000);
        assert!(!plan.use_shared_w);
        run(&g, &x, PatternSpec::xtxy(), 54);
    }

    #[test]
    fn no_shuffles_needed() {
        // One thread per row: the register-level reduction disappears.
        let g = gpu();
        let x = uniform_sparse(1000, 256, 0.04, 55);
        let (_, stats) = run(&g, &x, PatternSpec::xtxy(), 56);
        assert_eq!(stats.counters.shuffle_instructions, 0);
    }
}
