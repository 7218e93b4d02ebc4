//! The large-`n` variant of the sparse fused kernel (§3.1's extension):
//! when `w` cannot fit in shared memory (n beyond ~6K columns on a 48KB
//! device — e.g. the KDD 2010 matrix with ~30M columns), the inter-vector
//! aggregation moves from shared memory to global memory. The final
//! inter-block flush disappears, occupancy rises (no shared footprint), and
//! the atomic pressure on any single `w` element stays low because
//! ultra-sparse data rarely collides on a column.

use crate::pattern::PatternSpec;
use crate::sparse_fused::{
    beta_z_init, each_row_warp, fused_row_step, lane_rows, strip_table, RowStrips,
};
use crate::tuner::SparsePlan;
use fusedml_blas::GpuCsr;
use fusedml_gpu_sim::{DeviceError, Gpu, GpuBuffer, LaunchConfig, LaunchStats};

/// Algorithm 2 with global-memory aggregation. Requires
/// `!plan.use_shared_w`. `w` must be zeroed by the caller.
#[allow(clippy::too_many_arguments)] // mirrors the CUDA kernel signature
pub fn try_fused_pattern_global(
    gpu: &Gpu,
    plan: &SparsePlan,
    spec: PatternSpec,
    x: &GpuCsr,
    v: Option<&GpuBuffer>,
    y: &GpuBuffer,
    z: Option<&GpuBuffer>,
    w: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    assert!(
        !plan.use_shared_w,
        "plan is for the shared-memory variant; use fused_pattern_shared"
    );
    assert_eq!(spec.with_v, v.is_some(), "v presence mismatch");
    assert_eq!(spec.with_z, z.is_some(), "z presence mismatch");
    assert_eq!(y.len(), x.cols, "y length mismatch");
    assert_eq!(w.len(), x.cols, "w length mismatch");
    let (m, n) = (x.rows, x.cols);
    let (vs, c) = (plan.vs, plan.c);
    let nv = plan.vectors_per_block();
    let total_vectors = plan.total_vectors();
    let cfg = LaunchConfig::new(plan.grid, plan.bs)
        .with_regs(plan.regs)
        .with_shared_bytes(plan.shared_bytes);
    let alpha = spec.alpha;
    let beta = spec.beta;
    let table = strip_table(gpu, x, plan);

    gpu.try_launch("fused_sparse_global", cfg, |blk| {
        if let Some(z) = z {
            beta_z_init(blk, w, z, beta, n);
        }
        let block_id = blk.block_id();
        each_row_warp(blk, nv, vs, m, |wc| {
            let tid0 = wc.tid(0);
            for ci in 0..c {
                let Some(rows) = lane_rows(block_id, nv, total_vectors, vs, tid0, ci, m) else {
                    break;
                };
                fused_row_step(wc, x, &table, y, v, None, rows, |wc, s, cols, contrib| {
                    // Inter-vector aggregation straight to global memory.
                    wc.atomic_add_f64(w, |lane| {
                        s.has(lane)
                            .then(|| (cols[lane] as usize, alpha * contrib[lane]))
                    });
                    wc.flops(s.active());
                });
            }
        });
    })
}

/// Algorithm 1 with global-memory aggregation: `w += alpha * X^T p` for
/// matrices whose column count exceeds the shared-memory limit.
/// `w` must be zeroed by the caller.
pub fn try_fused_xt_p_global(
    gpu: &Gpu,
    plan: &SparsePlan,
    alpha: f64,
    x: &GpuCsr,
    p: &GpuBuffer,
    w: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    assert!(!plan.use_shared_w, "plan is for the shared-memory variant");
    assert_eq!(p.len(), x.rows, "p length mismatch");
    assert_eq!(w.len(), x.cols, "w length mismatch");
    let m = x.rows;
    let (vs, c) = (plan.vs, plan.c);
    let nv = plan.vectors_per_block();
    let total_vectors = plan.total_vectors();
    let cfg = LaunchConfig::new(plan.grid, plan.bs)
        .with_regs(32)
        .with_shared_bytes(plan.shared_bytes);
    let table = strip_table(gpu, x, plan);

    gpu.try_launch("fused_xt_p_global", cfg, |blk| {
        let block_id = blk.block_id();
        each_row_warp(blk, nv, vs, m, |wc| {
            let tid0 = wc.tid(0);
            for ci in 0..c {
                let Some(rows) = lane_rows(block_id, nv, total_vectors, vs, tid0, ci, m) else {
                    break;
                };
                let strips = RowStrips::load(wc, x, &table, rows);
                let pr = wc.load_f64_tex_grouped(p, rows.first, rows.lanes, vs);
                for s in strips.strips() {
                    let (cols, vals) = strips.cells(wc, x, &s);
                    wc.flops(3 * s.active());
                    wc.atomic_add_f64(w, |lane| {
                        s.has(lane)
                            .then(|| (cols[lane] as usize, alpha * vals[lane] * pr[lane]))
                    });
                }
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::{try_plan_sparse, try_plan_sparse_with_vs};
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::gen::{powerlaw_sparse, random_vector};
    use fusedml_matrix::reference;

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    /// A matrix wide enough to force the global variant on a tiny device
    /// is huge; instead, force the plan with `use_shared_w = false`.
    fn global_plan(g: &Gpu, m: usize, n: usize, vs: usize) -> SparsePlan {
        let mut p = try_plan_sparse_with_vs(g.spec(), m, n, vs).unwrap();
        if p.use_shared_w {
            p.use_shared_w = false;
            p.shared_bytes = (p.bs / p.vs) * 8;
        }
        p
    }

    #[test]
    fn global_pattern_matches_reference() {
        let g = gpu();
        let x = powerlaw_sparse(500, 300, 6.0, 0.8, 61);
        let y = random_vector(300, 1);
        let v = random_vector(500, 2);
        let z = random_vector(300, 3);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let vd = g.try_upload_f64("v", &v).unwrap();
        let zd = g.try_upload_f64("z", &z).unwrap();
        let wd = g.try_alloc_f64("w", 300).unwrap();
        let plan = global_plan(&g, 500, 300, 4);
        let spec = PatternSpec::full(0.75, 2.0);
        try_fused_pattern_global(&g, &plan, spec, &xd, Some(&vd), &yd, Some(&zd), &wd).unwrap();
        let expect = reference::pattern_csr(0.75, &x, Some(&v), &y, 2.0, Some(&z));
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn global_xt_p_matches_reference() {
        let g = gpu();
        let x = powerlaw_sparse(400, 250, 5.0, 0.8, 62);
        let p = random_vector(400, 4);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let pd = g.try_upload_f64("p", &p).unwrap();
        let wd = g.try_alloc_f64("w", 250).unwrap();
        let plan = global_plan(&g, 400, 250, 4);
        try_fused_xt_p_global(&g, &plan, -1.5, &xd, &pd, &wd).unwrap();
        let mut expect = reference::csr_tmv(&x, &p);
        reference::scal(-1.5, &mut expect);
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn wide_matrix_auto_plans_global_variant() {
        let g = gpu();
        // 50k columns cannot fit in 48KB shared memory.
        let plan = try_plan_sparse(g.spec(), 1000, 50_000, 8.0).unwrap();
        assert!(!plan.use_shared_w);
        let x = powerlaw_sparse(1000, 50_000, 8.0, 0.8, 63);
        let y = random_vector(50_000, 5);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let wd = g.try_alloc_f64("w", 50_000).unwrap();
        try_fused_pattern_global(&g, &plan, PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
            .unwrap();
        let expect = reference::pattern_csr(1.0, &x, None, &y, 0.0, None);
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-11);
    }

    #[test]
    fn global_variant_atomics_scale_with_nnz() {
        let g = gpu();
        let x = powerlaw_sparse(300, 10_000, 4.0, 0.8, 64);
        let y = random_vector(10_000, 6);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let wd = g.try_alloc_f64("w", 10_000).unwrap();
        let plan = global_plan(&g, 300, 10_000, 4);
        let stats =
            try_fused_pattern_global(&g, &plan, PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
                .unwrap();
        // One global atomic per non-zero (no shared pre-aggregation).
        assert_eq!(stats.counters.global_atomics, x.nnz() as u64);
        assert_eq!(stats.counters.shared_atomics, 0);
    }
}
