//! The dense fused kernel — Algorithm 3 of the paper.
//!
//! Each row is processed by a *vector* of `VS` threads; each thread owns
//! `TL` elements of the row (`TL` = thread load). The elements of `y` are
//! read once into registers (`l_y`), each row's elements are read once into
//! registers (`l_X`), the dot product reduces through shuffles (plus an
//! inter-warp shared-memory step when the vector spans the whole block),
//! and the `X[r,:]^T * p[r]` contribution accumulates in registers (`l_w`)
//! — no memory traffic at all for the second use of `X`. Only when a vector
//! has exhausted its rows does it flush `l_w` to global `w` with atomics.
//!
//! `TL` is a **const generic**: the Rust analog of the paper's CUDA code
//! generator, which emits a kernel with `TL`-way unrolled loops and named
//! registers (Listing 2). Monomorphization gives exactly that — fixed-size
//! arrays that live in "registers" with no indexed local memory. The
//! dispatch table lives in [`crate::codegen`].

use crate::pattern::PatternSpec;
use crate::sparse_fused::{beta_z_init, each_row_warp, lane_rows};
use crate::tuner::DensePlan;
use fusedml_blas::GpuDense;
use fusedml_gpu_sim::{
    DeviceError, Gpu, GpuBuffer, LaunchConfig, LaunchStats, WarpCtx, WARP_LANES,
};

/// Launch the dense fused kernel with compile-time thread load `TL`.
/// Use [`crate::codegen::try_launch_dense_fused`] for runtime dispatch.
///
/// `w` must be zeroed by the caller.
#[allow(clippy::too_many_arguments)]
pub fn try_dense_fused_kernel<const TL: usize>(
    gpu: &Gpu,
    plan: &DensePlan,
    spec: PatternSpec,
    x: &GpuDense,
    v: Option<&GpuBuffer>,
    y: &GpuBuffer,
    z: Option<&GpuBuffer>,
    w: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    assert_eq!(TL, plan.tl, "dispatched TL does not match the plan");
    assert_eq!(spec.with_v, v.is_some(), "v presence mismatch");
    assert_eq!(spec.with_z, z.is_some(), "z presence mismatch");
    assert_eq!(y.len(), x.cols, "y length mismatch");
    assert_eq!(w.len(), x.cols, "w length mismatch");
    let (m, n) = (x.rows, x.cols);
    let (vs, bs, c) = (plan.vs, plan.bs, plan.c);
    assert!(
        vs * TL >= n,
        "vector ({vs} threads x {TL}) cannot cover a {n}-column row"
    );
    let nv = plan.vectors_per_block();
    let total_vectors = plan.total_vectors();
    let alpha = spec.alpha;
    let beta = spec.beta;

    // Shared memory: inter-warp reduction scratch (one slot per warp plus
    // the broadcast slot), only needed when the vector spans warps.
    let nwarps = bs / WARP_LANES;
    let shared_bytes = if vs > WARP_LANES { (nwarps + 1) * 8 } else { 0 };
    // TL independent loads in flight per thread: the unrolling's ILP,
    // which is what lets the kernel run well at register-limited occupancy.
    let cfg = LaunchConfig::new(plan.grid, bs)
        .with_regs(plan.regs)
        .with_shared_bytes(shared_bytes)
        .with_ilp(TL as f64);

    gpu.try_launch("fused_dense", cfg, |blk| {
        let block_id = blk.block_id();
        let bs = blk.block_dim();

        if let Some(z) = z {
            beta_z_init(blk, w, z, beta, n);
            blk.sync();
        }

        // Per-thread register files (l_y, l_w), living across phases.
        let mut ly = vec![[0.0f64; TL]; bs];
        let mut lw = vec![[0.0f64; TL]; bs];

        // Column of the i-th element owned by the thread at position `lid`
        // of its vector.
        let col_of = |lid: usize, i: usize| {
            let col = lid + i * vs;
            (col < n).then_some(col)
        };
        // Vector positions of the 32 lanes of the warp starting at `tid0`,
        // stepped rather than divided per lane.
        let lane_lids = |tid0: usize| -> [usize; WARP_LANES] {
            let mut lids = [0; WARP_LANES];
            let mut lid = tid0 % vs;
            for slot in &mut lids {
                *slot = lid;
                lid += 1;
                if lid == vs {
                    lid = 0;
                }
            }
            lids
        };

        // ---- lines 4-5: load y into registers, once ----
        blk.each_warp(|wc| {
            let tid0 = wc.tid(0);
            let lids = lane_lids(tid0);
            for i in 0..TL {
                let ys = wc.load_f64_tex(y, |lane| col_of(lids[lane], i));
                for lane in 0..wc.active_lanes() {
                    ly[tid0 + lane][i] = ys[lane];
                }
            }
        });

        if vs <= WARP_LANES {
            // ---- intra-warp vectors: the whole row pipeline per warp ----
            each_row_warp(blk, nv, vs, m, |wc| {
                let tid0 = wc.tid(0);
                let lids = lane_lids(tid0);
                for ci in 0..c {
                    let Some(step) = lane_rows(block_id, nv, total_vectors, vs, tid0, ci, m) else {
                        break;
                    };
                    let rows = step.per_lane(vs);
                    // lines 11-13: read the row, dot with l_y.
                    let mut lx = [[0.0f64; TL]; WARP_LANES];
                    let mut sum = [0.0f64; WARP_LANES];
                    let mut active = 0u64;
                    for i in 0..TL {
                        let xs = wc.load_f64(&x.data, |lane| {
                            rows[lane].and_then(|r| col_of(lids[lane], i).map(|col| r * n + col))
                        });
                        for lane in 0..WARP_LANES {
                            if rows[lane].is_some() {
                                lx[lane][i] = xs[lane];
                                sum[lane] += xs[lane] * ly[tid0 + lane][i];
                                active += 1;
                            }
                        }
                    }
                    wc.flops(2 * active);
                    // lines 14-15: single-step intra-vector reduction.
                    wc.shuffle_reduce_sum(&mut sum, vs);
                    // line 20's v[row] scaling (done by one thread, broadcast
                    // free through the shuffle result).
                    let p_r = if let Some(v) = v {
                        let vr = wc.load_f64_tex_grouped(v, step.first, step.lanes, vs);
                        let mut p = [0.0f64; WARP_LANES];
                        for lane in 0..WARP_LANES {
                            p[lane] = sum[lane] * vr[lane];
                        }
                        p
                    } else {
                        sum
                    };
                    // lines 23-24: accumulate into l_w registers.
                    let mut acc = 0u64;
                    for lane in 0..WARP_LANES {
                        if rows[lane].is_some() {
                            let tid = tid0 + lane;
                            for i in 0..TL {
                                if col_of(lids[lane], i).is_some() {
                                    lw[tid][i] += lx[lane][i] * p_r[lane];
                                    acc += 1;
                                }
                            }
                        }
                    }
                    wc.flops(2 * acc);
                }
            });
        } else {
            // ---- block-wide vector (VS == BS): inter-warp reduction ----
            debug_assert_eq!(vs, bs, "a vector wider than a warp spans the block");
            let red = blk.shared_f64(nwarps + 1);
            let mut lx_file = vec![[0.0f64; TL]; bs];
            // The vector is the block, so lane `l` of the warp at `tid0`
            // sits at position `tid0 + l`: its element `i` is column
            // `tid0 + l + i * vs`, the warp reads each `i` as one run, and
            // the lanes with a column in the row are a prefix of the warp.
            let in_row = |wc: &WarpCtx, col0: usize| n.saturating_sub(col0).min(wc.active_lanes());
            for ci in 0..c {
                let row = block_id + ci * total_vectors;
                if row >= m {
                    break;
                }
                // Pass A: per-warp partial dot products.
                blk.each_warp(|wc| {
                    let tid0 = wc.tid(0);
                    let mut sum = [0.0f64; WARP_LANES];
                    let mut active = 0u64;
                    for i in 0..TL {
                        let col0 = tid0 + i * vs;
                        let xs = wc.load_f64_run(&x.data, row * n + col0, n.saturating_sub(col0));
                        let lanes = in_row(wc, col0);
                        for lane in 0..lanes {
                            let tid = tid0 + lane;
                            lx_file[tid][i] = xs[lane];
                            sum[lane] += xs[lane] * ly[tid][i];
                        }
                        active += lanes as u64;
                    }
                    wc.flops(2 * active);
                    wc.shuffle_reduce_sum(&mut sum, 32);
                    let wid = wc.warp_id();
                    wc.shared_store(red, |lane| (lane == 0).then_some((wid, sum[0])));
                });
                blk.sync(); // line 19
                            // Inter-warp reduction + v[row] scaling by warp 0 (line 20).
                blk.each_warp(|wc| {
                    if wc.warp_id() == 0 {
                        let mut sums = wc.shared_load(red, |lane| (lane < nwarps).then_some(lane));
                        let width = nwarps.next_power_of_two().min(32);
                        wc.shuffle_reduce_sum(&mut sums, width);
                        let p_r = if let Some(v) = v {
                            let vr = wc.load_f64_tex(v, |lane| (lane == 0).then_some(row));
                            sums[0] * vr[0]
                        } else {
                            sums[0]
                        };
                        wc.shared_store(red, |lane| (lane == 0).then_some((nwarps, p_r)));
                    }
                });
                blk.sync(); // line 22
                            // Pass B: broadcast p_r, accumulate l_w.
                blk.each_warp(|wc| {
                    let tid0 = wc.tid(0);
                    let p = wc.shared_load(red, |lane| (lane == 0).then_some(nwarps));
                    let mut acc = 0u64;
                    for i in 0..TL {
                        let lanes = in_row(wc, tid0 + i * vs);
                        for tid in tid0..tid0 + lanes {
                            lw[tid][i] += lx_file[tid][i] * p[0];
                        }
                        acc += lanes as u64;
                    }
                    wc.flops(2 * acc);
                });
            }
        }

        // ---- lines 26-27: flush l_w to global w with atomics ----
        blk.each_warp(|wc| {
            let tid0 = wc.tid(0);
            let lids = lane_lids(tid0);
            for i in 0..TL {
                wc.atomic_add_f64(w, |lane| {
                    col_of(lids[lane], i).map(|col| (col, alpha * lw[tid0 + lane][i]))
                });
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::{try_plan_dense, DensePlan};
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::gen::{dense_random, random_vector};
    use fusedml_matrix::reference;

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    fn run_with_plan(plan: &DensePlan, m: usize, n: usize, seed: u64) -> f64 {
        let g = gpu();
        let x = dense_random(m, n, seed);
        let y = random_vector(n, seed + 1);
        let v = random_vector(m, seed + 2);
        let z = random_vector(n, seed + 3);
        let xd = GpuDense::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let vd = g.try_upload_f64("v", &v).unwrap();
        let zd = g.try_upload_f64("z", &z).unwrap();
        let wd = g.try_alloc_f64("w", n).unwrap();
        let spec = PatternSpec::full(1.5, -2.0);
        crate::codegen::try_launch_dense_fused(&g, plan, spec, &xd, Some(&vd), &yd, Some(&zd), &wd)
            .unwrap();
        let expect = reference::pattern_dense(1.5, &x, Some(&v), &y, -2.0, Some(&z));
        reference::rel_l2_error(&wd.to_vec_f64(), &expect)
    }

    #[test]
    fn higgs_shape_small_n() {
        // n = 28 triggers the BS=1024/TL=1 special case.
        let g = gpu();
        let plan = try_plan_dense(g.spec(), 5000, 28).unwrap();
        assert_eq!(plan.tl, 1);
        assert!(run_with_plan(&plan, 5000, 28, 71) < 1e-12);
    }

    #[test]
    fn mid_width_intra_warp_vectors() {
        let g = gpu();
        let plan = try_plan_dense(g.spec(), 2000, 200).unwrap();
        assert!(plan.vs * plan.tl >= 200);
        assert!(run_with_plan(&plan, 2000, 200, 72) < 1e-12);
    }

    #[test]
    fn wide_rows_block_vector_path() {
        let g = gpu();
        // Force the VS == BS path with a hand-built plan.
        let mut plan = try_plan_dense(g.spec(), 500, 1024).unwrap();
        if plan.vs <= 32 {
            plan.vs = plan.bs;
            plan.tl = 1024usize.div_ceil(plan.bs);
            plan.regs = crate::tuner::dense_kernel_regs(plan.tl);
            let total_vectors = plan.grid; // one vector per block
            plan.c = 500usize.div_ceil(total_vectors).max(1);
        }
        assert!(plan.vs > 32);
        assert!(run_with_plan(&plan, 500, 1024, 73) < 1e-12);
    }

    #[test]
    fn xtxy_without_options() {
        let g = gpu();
        let m = 1500;
        let n = 96;
        let x = dense_random(m, n, 74);
        let y = random_vector(n, 75);
        let plan = try_plan_dense(g.spec(), m, n).unwrap();
        let xd = GpuDense::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let wd = g.try_alloc_f64("w", n).unwrap();
        crate::codegen::try_launch_dense_fused(
            &g,
            &plan,
            PatternSpec::xtxy(),
            &xd,
            None,
            &yd,
            None,
            &wd,
        )
        .unwrap();
        let expect = reference::pattern_dense(1.0, &x, None, &y, 0.0, None);
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn x_is_read_once_from_dram() {
        let g = gpu();
        let m = 4000;
        let n = 256; // 8 MB matrix, far beyond the per-SM L2 slice
        let x = dense_random(m, n, 76);
        let y = random_vector(n, 77);
        let plan = try_plan_dense(g.spec(), m, n).unwrap();
        let xd = GpuDense::try_upload(&g, "x", &x).unwrap();
        let yd = g.try_upload_f64("y", &y).unwrap();
        let wd = g.try_alloc_f64("w", n).unwrap();
        g.flush_caches();
        let stats = crate::codegen::try_launch_dense_fused(
            &g,
            &plan,
            PatternSpec::xtxy(),
            &xd,
            None,
            &yd,
            None,
            &wd,
        )
        .unwrap();
        let one_scan = (m * n * 8) as u64;
        assert!(
            stats.counters.dram_read_bytes < one_scan + one_scan / 4,
            "dram {} vs one scan {}",
            stats.counters.dram_read_bytes,
            one_scan
        );
    }
}
