//! Every fused CSR kernel against a lane-form reference kernel kept here:
//! a row step whose two scans load `col_idx` and `values` lane by lane,
//! find every load's lines and count every scatter's bank conflicts. The
//! kernels replay the matrix's strip table instead
//! (`GpuCsr::strip_table`); they must count exactly what the lane form
//! counts.
//!
//! Each case runs one kernel on one device and its reference on a twin
//! with the same allocations, and compares every `Counters` field, the
//! sampled atomic addresses, the modeled time, each SM's L2 and texture
//! hits and the output bits, on one host worker and on two. The kernels
//! are the shared-memory, global-memory and both shard variants of the
//! pattern, and `X^T p` with shared and global aggregation. The sweep
//! covers `VS` from 1 to 32 and blocks of 16 and 24 threads, rows of 0, 1,
//! `VS - 1`, `VS`, 600 and 5000 elements, a partial last row group, and
//! besides the GTX Titan, 4-byte sectors with 16 and with 64 banks. The
//! matrix values are multiples of 1/4 and the vectors' of 1/2, so every
//! sum is exact and the outputs do not depend on the order two workers
//! add in.

use fusedml_blas::GpuCsr;
use fusedml_core::sparse_fused::{try_fused_pattern_shared, try_fused_xt_p_shared};
use fusedml_core::sparse_large::{try_fused_pattern_global, try_fused_xt_p_global};
use fusedml_core::tuner::{manual_sparse_plan, try_plan_sparse_with_vs, SparsePlan};
use fusedml_core::{try_fused_pattern_shard, PatternSpec};
use fusedml_gpu_sim::{
    BlockCtx, Counters, DeviceSpec, FaultProfile, Gpu, GpuBuffer, LaunchConfig, LaunchStats,
    Shared, WarpCtx, WARP_LANES,
};
use fusedml_matrix::{Coo, CsrMatrix};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Columns of every test matrix: a 5000-element row fits, and so does a
/// shared-memory `w` beside a 256-thread block's vectors.
const COLS: usize = 5120;
const ALPHA: f64 = 1.5;
const BETA: f64 = -0.5;

// ---------------- the lane-form reference kernels ----------------

/// Rows of warp `tid0`'s lanes in coarsening step `ci`: the first row and
/// the lanes that have one.
fn lane_rows(
    plan: &SparsePlan,
    block_id: usize,
    tid0: usize,
    ci: usize,
    m: usize,
) -> Option<(usize, usize)> {
    let (vs, nv) = (plan.vs, plan.vectors_per_block());
    let first = block_id * nv + ci * plan.total_vectors() + tid0 / vs;
    (first < m).then(|| (first, ((m - first) * vs).min(WARP_LANES)))
}

/// Each warp of `blk` with a row in the first coarsening step, with the
/// lanes' rows of each step.
fn each_row_step(
    blk: &mut BlockCtx,
    plan: &SparsePlan,
    m: usize,
    mut f: impl FnMut(&mut WarpCtx, (usize, usize)),
) {
    let block_id = blk.block_id();
    let rows = m.saturating_sub(block_id * plan.vectors_per_block());
    blk.each_warp_below(rows.saturating_mul(plan.vs), |wc| {
        let tid0 = wc.tid(0);
        for ci in 0..plan.c {
            let Some(rows) = lane_rows(plan, block_id, tid0, ci, m) else {
                break;
            };
            f(wc, rows);
        }
    });
}

fn zero_shared(blk: &mut BlockCtx, sd: Shared, n: usize) {
    let bs = blk.block_dim();
    blk.each_warp_below(n, |wc| {
        let mut base = wc.tid(0);
        while base < n {
            wc.shared_store_run(sd, base, n - base, &[0.0; WARP_LANES]);
            base += bs;
        }
    });
}

fn beta_z_init(blk: &mut BlockCtx, w: &GpuBuffer, z: &GpuBuffer, n: usize) {
    let grid_threads = blk.grid_dim() * blk.block_dim();
    let threads = n.saturating_sub(blk.block_id() * blk.block_dim());
    blk.each_warp_below(threads, |wc| {
        let mut base = wc.gtid(0);
        while base < n {
            let zs = wc.load_f64_run(z, base, n - base);
            wc.flops((n - base).min(WARP_LANES) as u64);
            wc.atomic_add_f64_run(w, base, n - base, &zs.map(|z| BETA * z));
            base += grid_threads;
        }
    });
}

fn flush_shared(blk: &mut BlockCtx, sd: Shared, w: &GpuBuffer, n: usize) {
    let bs = blk.block_dim();
    blk.each_warp_below(n, |wc| {
        let mut base = wc.tid(0);
        while base < n {
            let s = wc.shared_load_run(sd, base, n - base);
            wc.flops((n - base).min(WARP_LANES) as u64);
            wc.atomic_add_f64_run(w, base, n - base, &s.map(|s| ALPHA * s));
            base += bs;
        }
    });
}

/// Each lane's element in every strip of a row step: lane `l` of a vector
/// reads `row_off[r] + l % VS`, then every `VS`-th element of its row.
struct LaneStrips {
    first: [usize; WARP_LANES],
    end: [usize; WARP_LANES],
    vs: usize,
}

impl LaneStrips {
    fn load(wc: &mut WarpCtx, x: &GpuCsr, (first, lanes): (usize, usize), vs: usize) -> Self {
        let start = wc.load_u32_grouped(&x.row_off, first, lanes, vs);
        let end = wc.load_u32_grouped(&x.row_off, first + 1, lanes, vs);
        LaneStrips {
            first: std::array::from_fn(|l| start[l] as usize + l % vs),
            end: end.map(|e| e as usize),
            vs,
        }
    }

    /// Strip `k`'s element of each lane, and how many lanes have one.
    fn strip(&self, k: usize) -> (Idx, u64) {
        let idx: Idx = std::array::from_fn(|l| {
            let i = self.first[l] + k * self.vs;
            (i < self.end[l]).then_some(i)
        });
        let active = idx.iter().flatten().count() as u64;
        (idx, active)
    }
}

/// Each lane's element in one strip.
type Idx = [Option<usize>; WARP_LANES];

/// A row step's scatter of one strip: its lanes' elements, columns and
/// contributions.
type Scatter<'a> = dyn FnMut(&mut WarpCtx, &Idx, &[u32; WARP_LANES], &[f64; WARP_LANES]) + 'a;

/// The row step in lane form: both scans load `col_idx` and `values` lane
/// by lane.
#[allow(clippy::too_many_arguments)]
fn lane_row_step(
    wc: &mut WarpCtx,
    x: &GpuCsr,
    y: &GpuBuffer,
    v: Option<&GpuBuffer>,
    u: Option<&GpuBuffer>,
    vs: usize,
    rows: (usize, usize),
    scatter: &mut Scatter,
) {
    let strips = LaneStrips::load(wc, x, rows, vs);
    let mut sum = [0.0f64; WARP_LANES];
    let mut scanned = 0;
    loop {
        let (idx, active) = strips.strip(scanned);
        if active == 0 {
            break;
        }
        let cols = wc.load_u32(&x.col_idx, |l| idx[l]);
        let vals = wc.load_f64(&x.values, |l| idx[l]);
        let ys = wc.load_f64_tex(y, |l| idx[l].map(|_| cols[l] as usize));
        for l in 0..WARP_LANES {
            if idx[l].is_some() {
                sum[l] += vals[l] * ys[l];
            }
        }
        wc.flops(2 * active);
        scanned += 1;
    }
    wc.shuffle_reduce_sum(&mut sum, vs);
    let p_r = if let Some(v) = v {
        let vr = wc.load_f64_tex_grouped(v, rows.0, rows.1, vs);
        wc.flops(WARP_LANES as u64 / vs as u64);
        std::array::from_fn(|l| sum[l] * vr[l])
    } else {
        sum
    };
    if let Some(u) = u {
        let mut leads = [0.0f64; WARP_LANES];
        for (lead, p) in leads.iter_mut().zip(p_r.iter().step_by(vs)) {
            *lead = *p;
        }
        let vectors = rows.1.min(wc.active_lanes()).div_ceil(vs);
        wc.store_f64_run(u, rows.0, vectors, &leads);
    }
    for k in 0..scanned {
        let (idx, active) = strips.strip(k);
        let cols = wc.load_u32(&x.col_idx, |l| idx[l]);
        let vals = wc.load_f64(&x.values, |l| idx[l]);
        let mut contrib = [0.0f64; WARP_LANES];
        for l in 0..WARP_LANES {
            if idx[l].is_some() {
                contrib[l] = vals[l] * p_r[l];
            }
        }
        wc.flops(2 * active);
        scatter(wc, &idx, &cols, &contrib);
    }
}

/// The six fused CSR kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kernel {
    PatternShared,
    PatternGlobal,
    ShardShared,
    ShardGlobal,
    XtpShared,
    XtpGlobal,
}

const KERNELS: [Kernel; 6] = [
    Kernel::PatternShared,
    Kernel::PatternGlobal,
    Kernel::ShardShared,
    Kernel::ShardGlobal,
    Kernel::XtpShared,
    Kernel::XtpGlobal,
];

impl Kernel {
    fn shared(self) -> bool {
        matches!(
            self,
            Kernel::PatternShared | Kernel::ShardShared | Kernel::XtpShared
        )
    }

    /// `plan` with this kernel's aggregation.
    fn plan(self, mut plan: SparsePlan) -> SparsePlan {
        if !self.shared() {
            plan.use_shared_w = false;
            plan.shared_bytes = (plan.bs / plan.vs) * 8;
        }
        plan
    }
}

/// One device with the inputs and outputs of every kernel, allocated in a
/// fixed order.
struct Device {
    gpu: Gpu,
    x: GpuCsr,
    y: GpuBuffer,
    v: GpuBuffer,
    z: GpuBuffer,
    p: GpuBuffer,
    w: GpuBuffer,
    u: GpuBuffer,
}

impl Device {
    fn new(spec: &DeviceSpec, workers: usize, x: &CsrMatrix) -> Self {
        let gpu = Gpu::with_host_threads(spec.clone(), workers);
        let m = x.rows();
        let y: Vec<f64> = (0..COLS).map(|j| (j % 11) as f64 * 0.5 - 2.0).collect();
        let v: Vec<f64> = (0..m).map(|r| (r % 5) as f64 - 1.5).collect();
        let z: Vec<f64> = (0..COLS).map(|j| (j % 3) as f64).collect();
        let p: Vec<f64> = (0..m).map(|r| (r % 7) as f64 * 0.5 - 1.0).collect();
        Device {
            x: GpuCsr::try_upload(&gpu, "x", x).unwrap(),
            y: gpu.try_upload_f64("y", &y).unwrap(),
            v: gpu.try_upload_f64("v", &v).unwrap(),
            z: gpu.try_upload_f64("z", &z).unwrap(),
            p: gpu.try_upload_f64("p", &p).unwrap(),
            w: gpu.try_alloc_f64("w", COLS).unwrap(),
            u: gpu.try_alloc_f64("u", m).unwrap(),
            gpu,
        }
    }

    /// Run `kernel` as the library has it.
    fn run(&self, kernel: Kernel, plan: &SparsePlan) -> LaunchStats {
        let (g, x) = (&self.gpu, &self.x);
        let (v, z) = (Some(&self.v), Some(&self.z));
        let spec = PatternSpec::full(ALPHA, BETA);
        match kernel {
            Kernel::PatternShared => {
                try_fused_pattern_shared(g, plan, spec, x, v, &self.y, z, &self.w)
            }
            Kernel::PatternGlobal => {
                try_fused_pattern_global(g, plan, spec, x, v, &self.y, z, &self.w)
            }
            Kernel::ShardShared | Kernel::ShardGlobal => {
                try_fused_pattern_shard(g, plan, x, v, &self.y, &self.u, &self.w, ALPHA)
            }
            Kernel::XtpShared => try_fused_xt_p_shared(g, plan, ALPHA, x, &self.p, &self.w),
            Kernel::XtpGlobal => try_fused_xt_p_global(g, plan, ALPHA, x, &self.p, &self.w),
        }
        .unwrap()
    }

    /// Run `kernel`'s lane-form reference.
    fn run_reference(&self, kernel: Kernel, plan: &SparsePlan) -> LaunchStats {
        let (x, m, n, vs) = (&self.x, self.x.rows, self.x.cols, plan.vs);
        let (y, v, z, p, w, u) = (&self.y, &self.v, &self.z, &self.p, &self.w, &self.u);
        let cfg = LaunchConfig::new(plan.grid, plan.bs)
            .with_regs(plan.regs)
            .with_shared_bytes(plan.shared_bytes);
        let shared_scatter = |sd: Shared| {
            move |wc: &mut WarpCtx,
                  idx: &Idx,
                  cols: &[u32; WARP_LANES],
                  contrib: &[f64; WARP_LANES]| {
                wc.shared_atomic_add(sd, |l| idx[l].map(|_| (cols[l] as usize, contrib[l])));
            }
        };
        let global_scatter =
            |wc: &mut WarpCtx, idx: &Idx, cols: &[u32; WARP_LANES], contrib: &[f64; WARP_LANES]| {
                wc.atomic_add_f64(w, |l| {
                    idx[l].map(|_| (cols[l] as usize, ALPHA * contrib[l]))
                });
            };
        let stats = match kernel {
            Kernel::PatternShared => self.gpu.try_launch("reference", cfg, |blk| {
                let sd = blk.shared_f64(n);
                zero_shared(blk, sd, n);
                beta_z_init(blk, w, z, n);
                blk.sync();
                each_row_step(blk, plan, m, |wc, rows| {
                    lane_row_step(wc, x, y, Some(v), None, vs, rows, &mut shared_scatter(sd));
                });
                blk.sync();
                flush_shared(blk, sd, w, n);
            }),
            Kernel::PatternGlobal => self.gpu.try_launch("reference", cfg, |blk| {
                beta_z_init(blk, w, z, n);
                each_row_step(blk, plan, m, |wc, rows| {
                    lane_row_step(
                        wc,
                        x,
                        y,
                        Some(v),
                        None,
                        vs,
                        rows,
                        &mut |wc, idx, cols, contrib| {
                            global_scatter(wc, idx, cols, contrib);
                            wc.flops(idx.iter().flatten().count() as u64);
                        },
                    );
                });
            }),
            Kernel::ShardShared => self.gpu.try_launch("reference", cfg, |blk| {
                let sd = blk.shared_f64(n);
                zero_shared(blk, sd, n);
                blk.sync();
                each_row_step(blk, plan, m, |wc, rows| {
                    lane_row_step(
                        wc,
                        x,
                        y,
                        Some(v),
                        Some(u),
                        vs,
                        rows,
                        &mut shared_scatter(sd),
                    );
                });
                blk.sync();
                flush_shared(blk, sd, w, n);
            }),
            Kernel::ShardGlobal => self.gpu.try_launch("reference", cfg, |blk| {
                each_row_step(blk, plan, m, |wc, rows| {
                    lane_row_step(
                        wc,
                        x,
                        y,
                        Some(v),
                        Some(u),
                        vs,
                        rows,
                        &mut |wc, idx, cols, contrib| global_scatter(wc, idx, cols, contrib),
                    );
                });
            }),
            Kernel::XtpShared | Kernel::XtpGlobal => {
                let cfg = cfg.with_regs(32);
                self.gpu.try_launch("reference", cfg, |blk| {
                    let sd = kernel.shared().then(|| {
                        let sd = blk.shared_f64(n);
                        zero_shared(blk, sd, n);
                        blk.sync();
                        sd
                    });
                    each_row_step(blk, plan, m, |wc, rows| {
                        let strips = LaneStrips::load(wc, x, rows, vs);
                        let pr = wc.load_f64_tex_grouped(p, rows.0, rows.1, vs);
                        for k in 0.. {
                            let (idx, active) = strips.strip(k);
                            if active == 0 {
                                break;
                            }
                            let cols = wc.load_u32(&x.col_idx, |l| idx[l]);
                            let vals = wc.load_f64(&x.values, |l| idx[l]);
                            if let Some(sd) = sd {
                                wc.flops(2 * active);
                                wc.shared_atomic_add(sd, |l| {
                                    idx[l].map(|_| (cols[l] as usize, vals[l] * pr[l]))
                                });
                            } else {
                                wc.flops(3 * active);
                                wc.atomic_add_f64(w, |l| {
                                    idx[l].map(|_| (cols[l] as usize, ALPHA * vals[l] * pr[l]))
                                });
                            }
                        }
                    });
                    if let Some(sd) = sd {
                        blk.sync();
                        flush_shared(blk, sd, w, n);
                    }
                })
            }
        };
        stats.unwrap()
    }

    /// The same buffers on the device `f` makes of this one: a builder,
    /// such as `with_fault_profile`, that keeps its allocations.
    fn with_gpu(self, f: impl FnOnce(Gpu) -> Gpu) -> Self {
        Device {
            gpu: f(self.gpu),
            ..self
        }
    }

    /// The output bits a kernel leaves.
    fn outputs(&self) -> (Vec<u64>, Vec<u64>) {
        let bits = |b: &GpuBuffer| b.to_vec_f64().iter().map(|v| v.to_bits()).collect();
        (bits(&self.w), bits(&self.u))
    }

    fn clear_outputs(&self) {
        self.w.zero();
        self.u.zero();
    }
}

// ---------------- the comparison ----------------

/// Every scalar `Counters` field by name, and the sampled atomic-address
/// histogram.
type Fields = (Vec<(&'static str, u64)>, Vec<(u64, u32)>);

/// The [`Fields`] of `c`. The destructuring has no `..`, so a new field
/// fails to compile here until it is compared too.
fn fields(c: &Counters) -> Fields {
    let Counters {
        gld_instructions,
        gld_transactions,
        gst_instructions,
        gst_transactions,
        dram_read_bytes,
        dram_write_bytes,
        l2_read_bytes,
        tex_read_bytes,
        tex_transactions,
        global_atomics,
        global_atomics_int,
        global_atomic_warp_conflicts,
        shared_accesses,
        shared_atomics,
        shared_bank_conflicts,
        shuffle_instructions,
        divergent_instructions,
        inactive_lanes,
        flops,
        barriers,
        kernel_launches,
        atomic_addr_samples,
    } = c;
    let scalars = vec![
        ("gld_instructions", *gld_instructions),
        ("gld_transactions", *gld_transactions),
        ("gst_instructions", *gst_instructions),
        ("gst_transactions", *gst_transactions),
        ("dram_read_bytes", *dram_read_bytes),
        ("dram_write_bytes", *dram_write_bytes),
        ("l2_read_bytes", *l2_read_bytes),
        ("tex_read_bytes", *tex_read_bytes),
        ("tex_transactions", *tex_transactions),
        ("global_atomics", *global_atomics),
        ("global_atomics_int", *global_atomics_int),
        (
            "global_atomic_warp_conflicts",
            *global_atomic_warp_conflicts,
        ),
        ("shared_accesses", *shared_accesses),
        ("shared_atomics", *shared_atomics),
        ("shared_bank_conflicts", *shared_bank_conflicts),
        ("shuffle_instructions", *shuffle_instructions),
        ("divergent_instructions", *divergent_instructions),
        ("inactive_lanes", *inactive_lanes),
        ("flops", *flops),
        ("barriers", *barriers),
        ("kernel_launches", *kernel_launches),
    ];
    let samples = atomic_addr_samples.iter().map(|(&a, &n)| (a, n)).collect();
    (scalars, samples)
}

/// A matrix whose rows have, in turn, 0, 1, `VS - 1`, `VS`, 600 and a few
/// elements, with one 5000-element row, over `rows` rows: with `rows` not a
/// multiple of `32 / VS`, the last row group is partial. Values are
/// multiples of 1/4.
fn matrix(rows: usize, vs: usize) -> CsrMatrix {
    let mut coo = Coo::new(rows, COLS);
    for r in 0..rows {
        let len = match r % 9 {
            _ if r == rows / 2 => 5000,
            0 => 0,
            1 => 1,
            2 => vs - 1,
            3 => vs,
            4 => 600,
            k => k + r % 4,
        };
        for k in 0..len {
            let value = ((r + 3 * k) % 7 + 1) as f64 * if (r + k) % 3 == 0 { -0.25 } else { 0.25 };
            coo.push(r, (r * 131 + k * 977) % COLS, value);
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// The specs of the sweep: the GTX Titan, and 4-byte sectors with 16 and
/// with 64 banks.
fn specs() -> [DeviceSpec; 3] {
    let narrow = |banks| DeviceSpec {
        sector_bytes: 4,
        shared_banks: banks,
        ..DeviceSpec::gtx_titan()
    };
    [DeviceSpec::gtx_titan(), narrow(16), narrow(64)]
}

/// Every kernel at every `VS` (and at a 16-thread block) on twin devices
/// of `spec` with `workers` host workers each, each kernel after the one
/// before, so the caches carry over as they do on the twin.
fn sweep(spec: &DeviceSpec, workers: usize) {
    for vs in [1, 2, 4, 8, 16, 32] {
        let rows = 45 + 32 / vs * 3;
        let x = matrix(rows, vs);
        let (lib, reference) = (
            Device::new(spec, workers, &x),
            Device::new(spec, workers, &x),
        );
        // Besides the tuner's plan, a one-warp block of fewer than 32
        // threads: a power of two, and not.
        let mut plans = vec![try_plan_sparse_with_vs(spec, rows, COLS, vs).unwrap()];
        match vs {
            2 => plans.extend(manual_sparse_plan(spec, rows, COLS, vs, 16, 3)),
            8 => plans.extend(manual_sparse_plan(spec, rows, COLS, vs, 24, 3)),
            _ => {}
        }
        let plans_run = plans.len();
        for (i, plan) in plans.into_iter().enumerate() {
            assert!(plan.use_shared_w, "{plan:?}");
            for kernel in KERNELS {
                let plan = kernel.plan(plan);
                let case = format!(
                    "{} at {workers} workers: {kernel:?}, VS {vs}, {} threads, plan {i}",
                    spec.name, plan.bs
                );
                for d in [&lib, &reference] {
                    d.clear_outputs();
                }
                let got = lib.run(kernel, &plan);
                let want = reference.run_reference(kernel, &plan);
                assert_eq!(
                    fields(&got.counters),
                    fields(&want.counters),
                    "{case}: counters"
                );
                assert_eq!(
                    got.sim_ms().to_bits(),
                    want.sim_ms().to_bits(),
                    "{case}: time"
                );
                assert_eq!(
                    lib.gpu.cache_hits(),
                    reference.gpu.cache_hits(),
                    "{case}: hits"
                );
                assert_eq!(lib.outputs(), reference.outputs(), "{case}: outputs");
            }
        }
        assert_eq!(lib.x.strip_tables(), plans_run, "VS {vs}");
    }
}

#[test]
fn every_fused_csr_kernel_counts_what_its_lane_form_counts() {
    for spec in specs() {
        sweep(&spec, 1);
    }
}

#[test]
fn every_fused_csr_kernel_counts_what_its_lane_form_counts_on_two_workers() {
    for spec in specs() {
        sweep(&spec, 2);
    }
}

/// A matrix builds one table per vector size it is launched with, on its
/// first launch: later launches and clones share it.
#[test]
fn a_matrix_builds_one_strip_table_per_vector_size() {
    let spec = DeviceSpec::gtx_titan();
    let x = matrix(100, 4);
    let d = Device::new(&spec, 1, &x);
    assert_eq!(d.x.strip_tables(), 0);
    let plan4 = try_plan_sparse_with_vs(&spec, 100, COLS, 4).unwrap();
    let table = d.x.strip_table(&spec, 4, 32);
    d.run(Kernel::PatternShared, &plan4);
    assert_eq!(d.x.strip_tables(), 1);
    let clone = d.x.clone();
    assert!(std::sync::Arc::ptr_eq(
        &table,
        &clone.strip_table(&spec, 4, 32)
    ));
    d.run(Kernel::XtpGlobal, &Kernel::XtpGlobal.plan(plan4));
    assert_eq!(d.x.strip_tables(), 1);
    d.run(
        Kernel::PatternShared,
        &try_plan_sparse_with_vs(&spec, 100, COLS, 8).unwrap(),
    );
    assert_eq!((d.x.strip_tables(), clone.strip_tables()), (2, 2));
}

/// Building a table is host work: on twin devices that draw kernel faults,
/// one building three tables the other never builds, the same launches
/// fault alike, and the allocated bytes stay where they were.
#[test]
fn building_a_strip_table_allocates_nothing_and_draws_no_fault() {
    let spec = DeviceSpec::gtx_titan();
    let x = matrix(100, 4);
    let faulty =
        |gpu: Gpu| gpu.with_fault_profile(FaultProfile::seeded(5).with_kernel_fault_rate(0.5));
    let (a, b) = (Device::new(&spec, 1, &x), Device::new(&spec, 1, &x));
    let (a, b) = (a.with_gpu(faulty), b.with_gpu(faulty));
    let bytes = a.gpu.allocated_bytes();
    for (vs, lanes) in [(1, 32), (8, 32), (4, 16)] {
        a.x.strip_table(&spec, vs, lanes);
    }
    assert_eq!((a.x.strip_tables(), a.gpu.allocated_bytes()), (3, bytes));
    let plan = try_plan_sparse_with_vs(&spec, 100, COLS, 2).unwrap();
    let outcomes = |d: &Device| -> Vec<bool> {
        (0..16)
            .map(|_| try_fused_xt_p_shared(&d.gpu, &plan, ALPHA, &d.x, &d.p, &d.w).is_ok())
            .collect()
    };
    let (oa, ob) = (outcomes(&a), outcomes(&b));
    assert_eq!(oa, ob);
    assert!(oa.contains(&true) && oa.contains(&false), "{oa:?}");
    assert_eq!(a.gpu.allocated_bytes(), b.gpu.allocated_bytes());
}

/// Nothing may write a matrix's `col_idx` or `row_off` after its table is
/// built: debug builds digest both at every launch, and panic.
#[cfg(debug_assertions)]
#[test]
fn writing_col_idx_after_a_launch_panics_in_debug_builds() {
    let spec = DeviceSpec::gtx_titan();
    let x = matrix(100, 4);
    let plan = try_plan_sparse_with_vs(&spec, 100, COLS, 4).unwrap();
    let d = Device::new(&spec, 1, &x);
    d.run(Kernel::PatternShared, &plan);
    let col = d.x.col_idx.host_read_u32(7);
    d.x.col_idx.host_write_u32(7, col);
    d.run(Kernel::PatternShared, &plan);
    d.x.col_idx.host_write_u32(7, (col + 1) % COLS as u32);
    let panic = catch_unwind(AssertUnwindSafe(|| d.run(Kernel::PatternShared, &plan)))
        .expect_err("a launch after col_idx changed");
    let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert_eq!(
        msg,
        "x.row_off or x.col_idx changed after its strip table was built"
    );
}
