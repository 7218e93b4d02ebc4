//! The sparse fused kernels — Algorithms 1 and 2 of the paper, in the
//! shared-memory (small `n`) configuration.
//!
//! One kernel evaluates the entire pattern: every CSR row is scanned by a
//! *vector* of `VS` cooperating threads; the dot product `X[r,:] x y`
//! reduces in registers (warp shuffles), is scaled by `v[r]`, and the row is
//! immediately re-scanned — now cache-resident (temporal locality) — to
//! scatter partial results of `w` into a shared-memory accumulator
//! (inter-vector aggregation). After a single barrier, each block flushes
//! its accumulator to global `w` with one atomic per column (inter-block
//! aggregation). The `beta * z` term is folded in as an atomic
//! initialization pass, exactly as Algorithm 2 lines 3-4 discuss.

use crate::pattern::PatternSpec;
use crate::tuner::SparsePlan;
use fusedml_blas::{GpuCsr, Strip, StripTable, Strips};
use fusedml_gpu_sim::{
    for_each_lane, BlockCtx, DeviceError, Gpu, GpuBuffer, LaunchConfig, LaunchStats, Shared,
    WarpCtx, WARP_LANES,
};
use std::sync::Arc;

/// Zero the shared accumulator (Algorithm 1 line 6), block-stride.
pub(crate) fn zero_shared(blk: &mut BlockCtx, sd: Shared, n: usize) {
    let bs = blk.block_dim();
    blk.each_warp_below(n, |wc| {
        let mut base = wc.tid(0);
        while base < n {
            wc.shared_store_run(sd, base, n - base, &[0.0; WARP_LANES]);
            base += bs;
        }
    });
}

/// The `beta * z` initialization (Algorithm 2 lines 3-4): grid-stride
/// atomic adds into global `w`, which CUDA's lack of inter-block barriers
/// forces to be atomic.
pub(crate) fn beta_z_init(blk: &mut BlockCtx, w: &GpuBuffer, z: &GpuBuffer, beta: f64, n: usize) {
    let grid_threads = blk.grid_dim() * blk.block_dim();
    let threads = n.saturating_sub(blk.block_id() * blk.block_dim());
    blk.each_warp_below(threads, |wc| {
        let mut base = wc.gtid(0);
        while base < n {
            let zs = wc.load_f64_run(z, base, n - base);
            wc.flops((n - base).min(WARP_LANES) as u64);
            wc.atomic_add_f64_run(w, base, n - base, &zs.map(|z| beta * z));
            base += grid_threads;
        }
    });
}

/// Final inter-block aggregation (Algorithm 1 lines 15-16 / Algorithm 2
/// lines 17-18): `w[i] += alpha * SD[i]`, block-stride, one global atomic
/// per column per block.
pub(crate) fn flush_shared(blk: &mut BlockCtx, sd: Shared, w: &GpuBuffer, alpha: f64, n: usize) {
    let bs = blk.block_dim();
    blk.each_warp_below(n, |wc| {
        let mut base = wc.tid(0);
        while base < n {
            let s = wc.shared_load_run(sd, base, n - base);
            wc.flops((n - base).min(WARP_LANES) as u64);
            wc.atomic_add_f64_run(w, base, n - base, &s.map(|s| alpha * s));
            base += bs;
        }
    });
}

/// The rows of one warp's lanes in a coarsening step: lane `l` below
/// `lanes` works on row `first + l / VS`, and the lanes from `lanes` up on
/// none.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneRows {
    pub(crate) first: usize,
    pub(crate) lanes: usize,
}

impl LaneRows {
    /// Each lane's row (`None` from `lanes` up), stepped rather than
    /// divided per lane.
    pub(crate) fn per_lane(self, vs: usize) -> [Option<usize>; WARP_LANES] {
        let mut rows = [None; WARP_LANES];
        let (mut r, mut pos) = (self.first, 0);
        for row in &mut rows[..self.lanes] {
            *row = Some(r);
            pos += 1;
            if pos == vs {
                (r, pos) = (r + 1, 0);
            }
        }
        rows
    }
}

/// Rows of the 32 lanes of the warp starting at thread `tid0` during
/// coarsening step `ci`, per the paper's schedule `row = block_ID x NV +
/// vid`, advancing by `gridSize / VS`. `VS` is a power of two of at most 32
/// (Equation 4), so a warp starts on a vector boundary and its vectors
/// hold consecutive rows, up to the last row; the whole warp is idle —
/// `None` — once its first lane's row is past `m`.
pub(crate) fn lane_rows(
    block_id: usize,
    nv: usize,
    total_vectors: usize,
    vs: usize,
    tid0: usize,
    ci: usize,
    m: usize,
) -> Option<LaneRows> {
    debug_assert!(
        vs.is_power_of_two() && tid0 & (vs - 1) == 0,
        "vector size {vs} at thread {tid0}"
    );
    let first = block_id * nv + ci * total_vectors + (tid0 >> vs.trailing_zeros());
    (first < m).then(|| LaneRows {
        first,
        lanes: ((m - first) * vs).min(WARP_LANES),
    })
}

/// Run `f` on each warp of `blk` whose first lane has a row in the first
/// coarsening step (see [`lane_rows`]). Rows rise with the step, so the
/// later warps have none in any step and issue nothing: this skips them.
pub(crate) fn each_row_warp<F>(blk: &mut BlockCtx, nv: usize, vs: usize, m: usize, f: F)
where
    F: FnMut(&mut WarpCtx),
{
    let rows = m.saturating_sub(blk.block_id() * nv);
    blk.each_warp_below(rows.saturating_mul(vs), f);
}

/// The strip table of `x` for `plan`'s launches: its row groups are the
/// rows of one warp, so a block must be one warp or a whole number of
/// them.
pub(crate) fn strip_table(gpu: &Gpu, x: &GpuCsr, plan: &SparsePlan) -> Arc<StripTable> {
    let lanes = plan.bs.min(WARP_LANES);
    assert!(
        plan.bs % lanes == 0,
        "a fused CSR kernel runs blocks of at most {WARP_LANES} threads or a multiple of \
         {WARP_LANES}, not {}",
        plan.bs
    );
    x.strip_table(gpu.spec(), plan.vs, lanes)
}

/// The CSR strips one warp scans during a coarsening step: lane `l` of a
/// vector reads its row's elements `row_off[r] + l % VS`, then every `VS`-th
/// one up to `row_off[r + 1]`. Which lanes each strip holds, and what its
/// loads touch, come from the matrix's [`StripTable`]; only each lane's
/// first element comes from the row offsets the warp loads.
pub(crate) struct RowStrips<'t> {
    first: [usize; WARP_LANES],
    table: &'t StripTable,
    row: usize,
}

impl<'t> RowStrips<'t> {
    /// Issue the two `row_off` loads for the lanes' `rows`: the `VS` lanes
    /// of a vector share their row's offsets, so each load is a grouped
    /// run. The row ends bound each lane's strips, which the table's lane
    /// masks record, so only the loads' counts are kept.
    pub(crate) fn load(
        wc: &mut WarpCtx,
        x: &GpuCsr,
        table: &'t StripTable,
        rows: LaneRows,
    ) -> Self {
        let vs = table.vs();
        let start = wc.load_u32_grouped(&x.row_off, rows.first, rows.lanes, vs);
        wc.load_u32_grouped(&x.row_off, rows.first + 1, rows.lanes, vs);
        RowStrips {
            first: std::array::from_fn(|lane| start[lane] as usize + (lane & (vs - 1))),
            table,
            row: rows.first,
        }
    }

    /// The warp's strips, in order.
    pub(crate) fn strips(&self) -> Strips<'t> {
        self.table.strips(self.row)
    }

    /// The `col_idx` and `values` loads of `strip`, replayed from its
    /// footprints: lane `l` of the strip's lanes reads element `first[l] +
    /// strip.offset`.
    #[inline]
    pub(crate) fn cells(
        &self,
        wc: &mut WarpCtx,
        x: &GpuCsr,
        s: &Strip,
    ) -> ([u32; WARP_LANES], [f64; WARP_LANES]) {
        let elem = |l: usize| self.first[l] + s.offset;
        let cols = wc.load_u32_replay(&x.col_idx, s.col_idx, s.mask, elem);
        let vals = wc.load_f64_replay(&x.values, s.values, s.mask, elem);
        (cols, vals)
    }
}

/// One coarsening step of the fused computation for one warp: dot product
/// with `y`, intra-vector shuffle reduction, optional `v[row]` scaling, and
/// the scatter of `X[r,:]^T * p[r]` into the aggregation target. Both
/// scans replay `table`, the strip table of `x`.
///
/// With `u`, the first lane of each vector also stores its row's `p[r]` to
/// `u[r]` before the scatter (the sharded kernel's epilogue input).
///
/// `scatter` receives `(warp, strip, col_of_lane, contribution_of_lane)`
/// once per strip so both the shared-memory and global-memory variants can
/// reuse the scan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fused_row_step<S>(
    wc: &mut WarpCtx,
    x: &GpuCsr,
    table: &StripTable,
    y: &GpuBuffer,
    v: Option<&GpuBuffer>,
    u: Option<&GpuBuffer>,
    rows: LaneRows,
    mut scatter: S,
) where
    S: FnMut(&mut WarpCtx, &Strip, &[u32; WARP_LANES], &[f64; WARP_LANES]),
{
    let vs = table.vs();
    let strips = RowStrips::load(wc, x, table, rows);

    // ---- pass 1: p[r] = X[r,:] . y, reduced in registers ----
    let mut sum = [0.0f64; WARP_LANES];
    for s in strips.strips() {
        let (cols, vals) = strips.cells(wc, x, &s);
        let ys = wc.load_f64_tex_replay(y, s.y, s.mask, |l| cols[l] as usize);
        for_each_lane(s.mask, |lane| sum[lane] += vals[lane] * ys[lane]);
        wc.flops(2 * s.active());
    }
    wc.shuffle_reduce_sum(&mut sum, vs);

    // ---- v[row] scaling (Algorithm 2 line 12) ----
    let p_r = if let Some(v) = v {
        let vr = wc.load_f64_tex_grouped(v, rows.first, rows.lanes, vs);
        let mut p = [0.0f64; WARP_LANES];
        for lane in 0..WARP_LANES {
            p[lane] = sum[lane] * vr[lane];
        }
        wc.flops(WARP_LANES as u64 / vs as u64);
        p
    } else {
        sum
    };

    if let Some(u) = u {
        // The first lane of each vector stores its row's value: a run over
        // the warp's rows.
        let mut leads = [0.0f64; WARP_LANES];
        for (lead, p) in leads.iter_mut().zip(p_r.iter().step_by(vs)) {
            *lead = *p;
        }
        let vectors = rows.lanes.min(wc.active_lanes()).div_ceil(vs);
        wc.store_f64_run(u, rows.first, vectors, &leads);
    }

    // ---- pass 2: scatter X[r,:]^T * p[r]; row now cache-resident ----
    for s in strips.strips() {
        let (cols, vals) = strips.cells(wc, x, &s);
        let mut contrib = [0.0f64; WARP_LANES];
        for_each_lane(s.mask, |lane| contrib[lane] = vals[lane] * p_r[lane]);
        wc.flops(2 * s.active());
        scatter(wc, &s, &cols, &contrib);
    }
}

/// Algorithm 2 (and, with `y` of row dimension, Algorithm 1): the complete
/// fused pattern with shared-memory inter-vector aggregation. Requires
/// `plan.use_shared_w`.
///
/// `w` must be zeroed by the caller (the executor charges a `fill`).
#[allow(clippy::too_many_arguments)] // mirrors the CUDA kernel signature
pub fn try_fused_pattern_shared(
    gpu: &Gpu,
    plan: &SparsePlan,
    spec: PatternSpec,
    x: &GpuCsr,
    v: Option<&GpuBuffer>,
    y: &GpuBuffer,
    z: Option<&GpuBuffer>,
    w: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    assert!(plan.use_shared_w, "plan is for the global-memory variant");
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

    gpu.try_launch("fused_sparse_shared", cfg, |blk| {
        let sd = blk.shared_f64(n);
        zero_shared(blk, sd, n);
        if let Some(z) = z {
            beta_z_init(blk, w, z, beta, n);
        }
        blk.sync();

        let block_id = blk.block_id();
        each_row_warp(blk, nv, vs, m, |wc| {
            let tid0 = wc.tid(0);
            for ci in 0..c {
                let Some(rows) = lane_rows(block_id, nv, total_vectors, vs, tid0, ci, m) else {
                    break;
                };
                fused_row_step(wc, x, &table, y, v, None, rows, |wc, s, cols, contrib| {
                    wc.shared_atomic_add_replay(sd, s.conflicts, s.mask, |lane| {
                        (cols[lane] as usize, contrib[lane])
                    });
                });
            }
        });

        blk.sync();
        flush_shared(blk, sd, w, alpha, n);
    })
}

/// Algorithm 1: `w += alpha * X^T * p` with shared-memory aggregation.
/// `p` has row dimension (`m`); this is the `alpha * X^T y` instantiation
/// of Table 1 that Fig. 2 measures. `w` must be zeroed by the caller.
pub fn try_fused_xt_p_shared(
    gpu: &Gpu,
    plan: &SparsePlan,
    alpha: f64,
    x: &GpuCsr,
    p: &GpuBuffer,
    w: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    assert!(plan.use_shared_w, "plan is for the global-memory variant");
    assert_eq!(p.len(), x.rows, "p length mismatch");
    assert_eq!(w.len(), x.cols, "w length mismatch");
    let (m, n) = (x.rows, x.cols);
    let (vs, c) = (plan.vs, plan.c);
    let nv = plan.vectors_per_block();
    let total_vectors = plan.total_vectors();
    let cfg = LaunchConfig::new(plan.grid, plan.bs)
        .with_regs(32)
        .with_shared_bytes(plan.shared_bytes);
    let table = strip_table(gpu, x, plan);

    gpu.try_launch("fused_xt_p_shared", cfg, |blk| {
        let sd = blk.shared_f64(n);
        zero_shared(blk, sd, n);
        blk.sync();

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
                    wc.flops(2 * s.active());
                    wc.shared_atomic_add_replay(sd, s.conflicts, s.mask, |lane| {
                        (cols[lane] as usize, vals[lane] * pr[lane])
                    });
                }
            }
        });

        blk.sync();
        flush_shared(blk, sd, w, alpha, n);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::try_plan_sparse;
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    #[test]
    fn fused_xt_p_matches_reference() {
        let g = gpu();
        let x = uniform_sparse(400, 150, 0.06, 51);
        let p = random_vector(400, 1);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let pd = g.try_upload_f64("p", &p).unwrap();
        let wd = g.try_alloc_f64("w", 150).unwrap();
        let plan = try_plan_sparse(g.spec(), 400, 150, x.mean_nnz_per_row()).unwrap();
        try_fused_xt_p_shared(&g, &plan, 2.0, &xd, &pd, &wd).unwrap();
        let mut expect = reference::csr_tmv(&x, &p);
        reference::scal(2.0, &mut expect);
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn fused_full_pattern_matches_reference() {
        let g = gpu();
        let x = uniform_sparse(350, 200, 0.05, 52);
        let y = random_vector(200, 2);
        let v = random_vector(350, 3);
        let z = random_vector(200, 4);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let vd = g.try_upload_f64("v", &v).unwrap();
        let zd = g.try_upload_f64("z", &z).unwrap();
        let wd = g.try_alloc_f64("w", 200).unwrap();
        let plan = try_plan_sparse(g.spec(), 350, 200, x.mean_nnz_per_row()).unwrap();
        let spec = PatternSpec::full(1.25, -0.5);
        try_fused_pattern_shared(&g, &plan, spec, &xd, Some(&vd), &yd, Some(&zd), &wd).unwrap();
        let expect = reference::pattern_csr(1.25, &x, Some(&v), &y, -0.5, Some(&z));
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn fused_xtxy_without_v_z() {
        let g = gpu();
        let x = uniform_sparse(300, 128, 0.08, 53);
        let y = random_vector(128, 5);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let wd = g.try_alloc_f64("w", 128).unwrap();
        let plan = try_plan_sparse(g.spec(), 300, 128, x.mean_nnz_per_row()).unwrap();
        try_fused_pattern_shared(&g, &plan, PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
            .unwrap();
        let expect = reference::pattern_csr(1.0, &x, None, &y, 0.0, None);
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12);
    }

    /// One row of 600 elements among short ones: its row step replays
    /// hundreds of strips in each scan.
    #[test]
    fn a_long_row_step_matches_the_reference() {
        let mut coo = fusedml_matrix::Coo::new(200, 600);
        for c in 0..600 {
            coo.push(0, c, 0.25 + c as f64 * 1e-3);
        }
        for r in 1..200 {
            for k in 0..3 {
                coo.push(r, (r * 7 + k * 211) % 600, 1.0 + (r + k) as f64 * 0.01);
            }
        }
        let x = fusedml_matrix::CsrMatrix::from_coo(&coo);
        let g = gpu();
        let y = random_vector(600, 8);
        let v = random_vector(200, 9);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let (yd, vd) = (
            g.try_upload_f64("y", &y).unwrap(),
            g.try_upload_f64("v", &v).unwrap(),
        );
        let wd = g.try_alloc_f64("w", 600).unwrap();
        let plan = try_plan_sparse(g.spec(), 200, 600, x.mean_nnz_per_row()).unwrap();
        let spec = PatternSpec::xtvxy();
        try_fused_pattern_shared(&g, &plan, spec, &xd, Some(&vd), &yd, None, &wd).unwrap();
        let expect = reference::pattern_csr(1.0, &x, Some(&v), &y, 0.0, None);
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn second_scan_hits_cache() {
        let g = gpu();
        // Rows short enough to stay resident between the two scans; the
        // matrix is large enough that per-SM replication of y and w is
        // noise against the X traffic.
        let x = uniform_sparse(8000, 512, 0.02, 54);
        let y = random_vector(512, 6);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let wd = g.try_alloc_f64("w", 512).unwrap();
        let plan = try_plan_sparse(g.spec(), 8000, 512, x.mean_nnz_per_row()).unwrap();
        g.flush_caches();
        let stats =
            try_fused_pattern_shared(&g, &plan, PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
                .unwrap();
        // The second scan re-reads values+col_idx; if temporal locality
        // works, DRAM traffic is much closer to one scan than two.
        let one_scan_bytes = (x.nnz() * 12) as u64;
        assert!(
            stats.counters.dram_read_bytes < (one_scan_bytes * 3) / 2,
            "dram {} vs one-scan {}",
            stats.counters.dram_read_bytes,
            one_scan_bytes
        );
        assert!(stats.counters.l2_read_bytes > one_scan_bytes / 2);
    }

    #[test]
    fn global_atomics_bounded_by_blocks_times_columns() {
        let g = gpu();
        let x = uniform_sparse(1000, 100, 0.1, 55);
        let y = random_vector(100, 7);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let wd = g.try_alloc_f64("w", 100).unwrap();
        let plan = try_plan_sparse(g.spec(), 1000, 100, x.mean_nnz_per_row()).unwrap();
        let stats =
            try_fused_pattern_shared(&g, &plan, PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
                .unwrap();
        // Hierarchical aggregation: global atomics only in the final flush
        // (grid * n), never per non-zero.
        assert_eq!(
            stats.counters.global_atomics,
            (plan.grid * 100) as u64,
            "plan {plan:?}"
        );
        assert!(stats.counters.shared_atomics >= x.nnz() as u64);
    }

    #[test]
    #[should_panic(expected = "global-memory variant")]
    fn shared_kernel_rejects_global_plan() {
        let g = gpu();
        let x = uniform_sparse(10, 5, 0.5, 1);
        let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
        let pd = g.try_upload_f64("p", &random_vector(10, 1)).unwrap();
        let wd = g.try_alloc_f64("w", 5).unwrap();
        let mut plan = try_plan_sparse(g.spec(), 10, 5, 2.0).unwrap();
        plan.use_shared_w = false;
        try_fused_xt_p_shared(&g, &plan, 1.0, &xd, &pd, &wd).unwrap();
    }
}
