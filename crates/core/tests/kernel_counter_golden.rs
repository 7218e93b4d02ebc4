//! Pinned counter values for every fused kernel on fixed inputs.
//! `fusedml-gpu-sim`'s `counter_golden.rs` pins the `WarpCtx` primitives on
//! a synthetic launch mix; this file pins what the fused kernels issue
//! through them: the sparse shared- and global-memory variants of
//! Algorithms 1 and 2, the dense kernel on both its intra-warp (VS <= 32)
//! and block-wide (VS = BS) paths, the ELL kernel, both variants of the
//! shard kernel, and a small matrix on its one-wave plan, where most warps
//! find no row. Every `Counters` field, a digest of the sampled
//! atomic-address histogram and the bit pattern of every `TimeBreakdown`
//! component must match exactly, at one and at two host threads.
//!
//! Host-side optimisations of the simulator or of the kernels must leave
//! this file untouched. A deliberate change to the performance model is the
//! only reason to edit the expected tables; on a mismatch the test prints
//! the observed table in the same syntax.

use fusedml_blas::ellmv::GpuEll;
use fusedml_blas::{GpuCsr, GpuDense};
use fusedml_core::tuner::dense_kernel_regs;
use fusedml_core::{
    codegen::try_launch_dense_fused, ell_fused::try_fused_pattern_ell, plan_ell, sparse_fused,
    sparse_large, try_fused_pattern_shard, try_plan_dense, try_plan_sparse, PatternSpec,
};
use fusedml_gpu_sim::{Counters, DeviceSpec, Gpu, LaunchStats, TimeBreakdown};
use fusedml_matrix::gen::{dense_random, powerlaw_sparse, random_vector, uniform_sparse};
use fusedml_matrix::{CsrMatrix, EllMatrix};

/// One launch's expected outcome.
struct Golden {
    case: &'static str,
    counters: [(&'static str, u64); 21],
    /// `(entries, sampled hits, FNV-1a over (address, hits))` of the
    /// atomic-address histogram.
    atomic_samples: (u64, u64, u64),
    time_bits: [(&'static str, u64); 8],
}

/// Every scalar `Counters` field by name. The destructuring has no `..`, so
/// a new field fails to compile here until it is pinned too.
fn counter_fields(c: &Counters) -> [(&'static str, u64); 21] {
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
        atomic_addr_samples: _,
    } = c;
    [
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
    ]
}

/// The atomic-address histogram in ascending address order, digested.
fn sample_digest(c: &Counters) -> (u64, u64, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut hits = 0u64;
    for (&addr, &n) in &c.atomic_addr_samples {
        hits += u64::from(n);
        for b in addr.to_le_bytes().into_iter().chain(n.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (c.atomic_addr_samples.len() as u64, hits, h)
}

/// Bit patterns of every `TimeBreakdown` component, likewise exhaustive.
fn time_fields(t: &TimeBreakdown) -> [(&'static str, u64); 8] {
    let TimeBreakdown {
        launch_ms,
        dram_ms,
        l2_ms,
        compute_ms,
        shared_ms,
        atomic_throughput_ms,
        atomic_serial_ms,
        total_ms,
    } = t;
    [
        ("launch_ms", launch_ms.to_bits()),
        ("dram_ms", dram_ms.to_bits()),
        ("l2_ms", l2_ms.to_bits()),
        ("compute_ms", compute_ms.to_bits()),
        ("shared_ms", shared_ms.to_bits()),
        ("atomic_throughput_ms", atomic_throughput_ms.to_bits()),
        ("atomic_serial_ms", atomic_serial_ms.to_bits()),
        ("total_ms", total_ms.to_bits()),
    ]
}

/// The observed outcome of one case, rendered as a `Golden` literal.
fn render(case: &str, s: &LaunchStats) -> String {
    let mut out = format!("    Golden {{\n        case: {case:?},\n        counters: [\n");
    for (k, v) in counter_fields(&s.counters) {
        out += &format!("            ({k:?}, {v}),\n");
    }
    let (entries, hits, digest) = sample_digest(&s.counters);
    out += &format!("        ],\n        atomic_samples: ({entries}, {hits}, {digest:#018x}),\n");
    out += "        time_bits: [\n";
    for (k, v) in time_fields(&s.time) {
        out += &format!("            ({k:?}, {v:#018x}),\n");
    }
    out += "        ],\n    },\n";
    out
}

fn device(spec: DeviceSpec, host_threads: usize) -> Gpu {
    Gpu::with_host_threads(spec, host_threads)
}

/// Equation 1 with every operand: `w = 1.25 X^T (v . (X y)) - 0.5 z`.
fn full_spec() -> PatternSpec {
    PatternSpec::full(1.25, -0.5)
}

/// The full sparse pattern on `g` through the shared- or global-memory
/// kernel its natural plan selects; `expect_shared` pins which one.
fn sparse_pattern(g: &Gpu, x: &CsrMatrix, expect_shared: bool) -> LaunchStats {
    let (m, n) = (x.rows(), x.cols());
    let plan = try_plan_sparse(g.spec(), m, n, x.mean_nnz_per_row()).unwrap();
    assert_eq!(plan.use_shared_w, expect_shared, "plan {plan:?}");
    let xd = GpuCsr::try_upload(g, "x", x).unwrap();
    let y = g.try_upload_f64("y", &random_vector(n, 2)).unwrap();
    let v = g.try_upload_f64("v", &random_vector(m, 3)).unwrap();
    let z = g.try_upload_f64("z", &random_vector(n, 4)).unwrap();
    let w = g.try_alloc_f64("w", n).unwrap();
    let run = if expect_shared {
        sparse_fused::try_fused_pattern_shared
    } else {
        sparse_large::try_fused_pattern_global
    };
    run(g, &plan, full_spec(), &xd, Some(&v), &y, Some(&z), &w).unwrap()
}

/// Algorithm 1, `w = -0.75 X^T p`, through the kernel the plan selects.
fn sparse_xt_p(g: &Gpu, x: &CsrMatrix, expect_shared: bool) -> LaunchStats {
    let (m, n) = (x.rows(), x.cols());
    let plan = try_plan_sparse(g.spec(), m, n, x.mean_nnz_per_row()).unwrap();
    assert_eq!(plan.use_shared_w, expect_shared, "plan {plan:?}");
    let xd = GpuCsr::try_upload(g, "x", x).unwrap();
    let p = g.try_upload_f64("p", &random_vector(m, 5)).unwrap();
    let w = g.try_alloc_f64("w", n).unwrap();
    let run = if expect_shared {
        sparse_fused::try_fused_xt_p_shared
    } else {
        sparse_large::try_fused_xt_p_global
    };
    run(g, &plan, -0.75, &xd, &p, &w).unwrap()
}

/// The dense kernel with the planner's choice, or forced onto the
/// block-wide vector path (VS = BS) the planner picks only for wide rows.
fn dense_pattern(g: &Gpu, m: usize, n: usize, block_wide: bool) -> LaunchStats {
    let mut plan = try_plan_dense(g.spec(), m, n).unwrap();
    if block_wide && plan.vs <= 32 {
        plan.vs = plan.bs;
        plan.tl = n.div_ceil(plan.bs);
        plan.regs = dense_kernel_regs(plan.tl);
        plan.c = m.div_ceil(plan.grid).max(1);
    }
    assert_eq!(plan.vs > 32, block_wide, "plan {plan:?}");
    let x = dense_random(m, n, 21);
    let xd = GpuDense::try_upload(g, "x", &x).unwrap();
    let y = g.try_upload_f64("y", &random_vector(n, 22)).unwrap();
    let v = g.try_upload_f64("v", &random_vector(m, 23)).unwrap();
    let z = g.try_upload_f64("z", &random_vector(n, 24)).unwrap();
    let w = g.try_alloc_f64("w", n).unwrap();
    try_launch_dense_fused(g, &plan, full_spec(), &xd, Some(&v), &y, Some(&z), &w).unwrap()
}

fn ell_pattern(g: &Gpu, x: &CsrMatrix) -> LaunchStats {
    let e = EllMatrix::from_csr(x);
    let plan = plan_ell(g, e.rows(), e.cols());
    let xd = GpuEll::try_upload(g, "x", &e).unwrap();
    let y = g.try_upload_f64("y", &random_vector(e.cols(), 31)).unwrap();
    let v = g.try_upload_f64("v", &random_vector(e.rows(), 32)).unwrap();
    let z = g.try_upload_f64("z", &random_vector(e.cols(), 33)).unwrap();
    let w = g.try_alloc_f64("w", e.cols()).unwrap();
    try_fused_pattern_ell(g, &plan, full_spec(), &xd, Some(&v), &y, Some(&z), &w).unwrap()
}

/// The shard kernel over one shard's rows, storing `p_r` to `u`.
fn shard(g: &Gpu, x: &CsrMatrix, expect_shared: bool) -> LaunchStats {
    let (m, n) = (x.rows(), x.cols());
    let plan = try_plan_sparse(g.spec(), m, n, x.mean_nnz_per_row()).unwrap();
    assert_eq!(plan.use_shared_w, expect_shared, "plan {plan:?}");
    let xd = GpuCsr::try_upload(g, "x", x).unwrap();
    let y = g.try_upload_f64("y", &random_vector(n, 41)).unwrap();
    let v = g.try_upload_f64("v", &random_vector(m, 42)).unwrap();
    let u = g.try_alloc_f64("u", m).unwrap();
    let w = g.try_alloc_f64("w", n).unwrap();
    try_fused_pattern_shard(g, &plan, &xd, Some(&v), &y, &u, &w, 0.5).unwrap()
}

/// Every case on a fresh device, in table order.
fn launches(host_threads: usize) -> Vec<(&'static str, LaunchStats)> {
    let tiny = || device(DeviceSpec::tiny_test_device(), host_threads);
    // ~12k non-zeros: the 140 KiB of values and column indices overflow
    // the tiny device's 64 KiB L2.
    let narrow = uniform_sparse(2000, 300, 0.02, 11);
    // 4000 columns do not fit the tiny device's 16 KiB of shared memory.
    let wide = powerlaw_sparse(900, 4000, 9.0, 0.8, 12);
    vec![
        ("pattern_shared", sparse_pattern(&tiny(), &narrow, true)),
        ("xt_p_shared", sparse_xt_p(&tiny(), &narrow, true)),
        ("pattern_global", sparse_pattern(&tiny(), &wide, false)),
        ("xt_p_global", sparse_xt_p(&tiny(), &wide, false)),
        ("dense_intra_warp", dense_pattern(&tiny(), 700, 200, false)),
        ("dense_block_wide", dense_pattern(&tiny(), 150, 600, true)),
        ("ell", ell_pattern(&tiny(), &narrow)),
        ("shard_shared", shard(&tiny(), &narrow, true)),
        ("shard_global", shard(&tiny(), &wide, false)),
        // 40 rows against a one-wave GTX Titan grid: almost every warp
        // of every block finds no row on its first coarsening step.
        (
            "one_wave_small",
            sparse_pattern(
                &device(DeviceSpec::gtx_titan(), host_threads),
                &uniform_sparse(40, 64, 0.1, 13),
                true,
            ),
        ),
    ]
}

const GOLDEN: &[Golden] = &[
    Golden {
        case: "pattern_shared",
        counters: [
            ("gld_instructions", 3260),
            ("gld_transactions", 16825),
            ("gst_instructions", 0),
            ("gst_transactions", 0),
            ("dram_read_bytes", 180256),
            ("dram_write_bytes", 28800),
            ("l2_read_bytes", 405216),
            ("tex_read_bytes", 300864),
            ("tex_transactions", 9972),
            ("global_atomics", 900),
            ("global_atomics_int", 0),
            ("global_atomic_warp_conflicts", 0),
            ("shared_accesses", 1200),
            ("shared_atomics", 12000),
            ("shared_bank_conflicts", 1511),
            ("shuffle_instructions", 500),
            ("divergent_instructions", 1251),
            ("inactive_lanes", 20020),
            ("flops", 66900),
            ("barriers", 4),
            ("kernel_launches", 1),
        ],
        atomic_samples: (18, 26, 0x164d19936586ea27),
        time_bits: [
            ("launch_ms", 0x3f747ae147ae147b),
            ("dram_ms", 0x3f63075b9d85cf41),
            ("l2_ms", 0x3f61b443a52c8601),
            ("compute_ms", 0x3f2595a3ff7fb805),
            ("shared_ms", 0x3f4f83be6601bc98),
            ("atomic_throughput_ms", 0x3f43a92a30553261),
            ("atomic_serial_ms", 0x3f64f8b588e368f0),
            ("total_ms", 0x3f7ef73c0c1fc8f3),
        ],
    },
    Golden {
        case: "xt_p_shared",
        counters: [
            ("gld_instructions", 1750),
            ("gld_transactions", 8750),
            ("gst_instructions", 0),
            ("gst_transactions", 0),
            ("dram_read_bytes", 172352),
            ("dram_write_bytes", 19200),
            ("l2_read_bytes", 141216),
            ("tex_read_bytes", 8000),
            ("tex_transactions", 500),
            ("global_atomics", 600),
            ("global_atomics_int", 0),
            ("global_atomic_warp_conflicts", 0),
            ("shared_accesses", 1200),
            ("shared_atomics", 12000),
            ("shared_bank_conflicts", 1511),
            ("shuffle_instructions", 0),
            ("divergent_instructions", 500),
            ("inactive_lanes", 8000),
            ("flops", 24600),
            ("barriers", 4),
            ("kernel_launches", 1),
        ],
        atomic_samples: (8, 16, 0xb72c5806781bda17),
        time_bits: [
            ("launch_ms", 0x3f747ae147ae147b),
            ("dram_ms", 0x3f616f7c302bffd9),
            ("l2_ms", 0x3f48ade59abdcac0),
            ("compute_ms", 0x3f0fbf664f9f27eb),
            ("shared_ms", 0x3f4f83be6601bc98),
            ("atomic_throughput_ms", 0x3f3a36e2eb1c432c),
            ("atomic_serial_ms", 0x3f64f8b588e368f0),
            ("total_ms", 0x3f7ef73c0c1fc8f3),
        ],
    },
    Golden {
        case: "pattern_global",
        counters: [
            ("gld_instructions", 2401),
            ("gld_transactions", 6098),
            ("gst_instructions", 0),
            ("gst_transactions", 0),
            ("dram_read_bytes", 180160),
            ("dram_write_bytes", 210720),
            ("l2_read_bytes", 195968),
            ("tex_read_bytes", 7424),
            ("tex_transactions", 2794),
            ("global_atomics", 6593),
            ("global_atomics_int", 0),
            ("global_atomic_warp_conflicts", 8),
            ("shared_accesses", 0),
            ("shared_atomics", 0),
            ("shared_bank_conflicts", 0),
            ("shuffle_instructions", 57),
            ("divergent_instructions", 2108),
            ("inactive_lanes", 54467),
            ("flops", 19701),
            ("barriers", 0),
            ("kernel_launches", 1),
        ],
        atomic_samples: (203, 205, 0x66041a4d7659541f),
        time_bits: [
            ("launch_ms", 0x3f747ae147ae147b),
            ("dram_ms", 0x3f71ca1502f63ca9),
            ("l2_ms", 0x3f511fbade3ab637),
            ("compute_ms", 0x3f096cdb953e8e24),
            ("shared_ms", 0x0000000000000000),
            ("atomic_throughput_ms", 0x3f7200d74ebf391e),
            ("atomic_serial_ms", 0x3f6797cc39ffd60e),
            ("total_ms", 0x3f833ddc4b36a6cc),
        ],
    },
    Golden {
        case: "xt_p_global",
        counters: [
            ("gld_instructions", 1013),
            ("gld_transactions", 2690),
            ("gst_instructions", 0),
            ("gst_transactions", 0),
            ("dram_read_bytes", 60096),
            ("dram_write_bytes", 82720),
            ("l2_read_bytes", 64800),
            ("tex_read_bytes", 0),
            ("tex_transactions", 225),
            ("global_atomics", 2593),
            ("global_atomics_int", 0),
            ("global_atomic_warp_conflicts", 8),
            ("shared_accesses", 0),
            ("shared_atomics", 0),
            ("shared_bank_conflicts", 0),
            ("shuffle_instructions", 0),
            ("divergent_instructions", 845),
            ("inactive_lanes", 21830),
            ("flops", 7779),
            ("barriers", 0),
            ("kernel_launches", 1),
        ],
        atomic_samples: (79, 80, 0xcb54cd78ed48941a),
        time_bits: [
            ("launch_ms", 0x3f747ae147ae147b),
            ("dram_ms", 0x3f59ffb53f88dbc4),
            ("l2_ms", 0x3f36a634b28f33e5),
            ("compute_ms", 0x3ef41415af5bda3f),
            ("shared_ms", 0x0000000000000000),
            ("atomic_throughput_ms", 0x3f5c528db3231f31),
            ("atomic_serial_ms", 0x3f6797cc39ffd60e),
            ("total_ms", 0x3f802363b256ffc1),
        ],
    },
    Golden {
        case: "dense_intra_warp",
        counters: [
            ("gld_instructions", 5719),
            ("gld_transactions", 35050),
            ("gst_instructions", 0),
            ("gst_transactions", 0),
            ("dram_read_bytes", 1240608),
            ("dram_write_bytes", 108800),
            ("l2_read_bytes", 140448),
            ("tex_read_bytes", 19200),
            ("tex_transactions", 1500),
            ("global_atomics", 3400),
            ("global_atomics_int", 0),
            ("global_atomic_warp_conflicts", 0),
            ("shared_accesses", 0),
            ("shared_atomics", 0),
            ("shared_bank_conflicts", 0),
            ("shuffle_instructions", 3500),
            ("divergent_instructions", 717),
            ("inactive_lanes", 17208),
            ("flops", 705800),
            ("barriers", 4),
            ("kernel_launches", 1),
        ],
        atomic_samples: (67, 106, 0xe77ebddd574faefd),
        time_bits: [
            ("launch_ms", 0x3f747ae147ae147b),
            ("dram_ms", 0x3f73310b6a7f7129),
            ("l2_ms", 0x3f2eae6be3a8dc58),
            ("compute_ms", 0x3f41ca5e6e084ce6),
            ("shared_ms", 0x0000000000000000),
            ("atomic_throughput_ms", 0x3f62918b66895a3f),
            ("atomic_serial_ms", 0x3f64f8b588e368f0),
            ("total_ms", 0x3f83d5f65916c2d2),
        ],
    },
    Golden {
        case: "dense_block_wide",
        counters: [
            ("gld_instructions", 3249),
            ("gld_transactions", 22650),
            ("gst_instructions", 0),
            ("gst_transactions", 0),
            ("dram_read_bytes", 764608),
            ("dram_write_bytes", 96000),
            ("l2_read_bytes", 86400),
            ("tex_read_bytes", 3520),
            ("tex_transactions", 750),
            ("global_atomics", 3000),
            ("global_atomics_int", 0),
            ("global_atomic_warp_conflicts", 0),
            ("shared_accesses", 1950),
            ("shared_atomics", 0),
            ("shared_bank_conflicts", 0),
            ("shuffle_instructions", 3300),
            ("divergent_instructions", 459),
            ("inactive_lanes", 10818),
            ("flops", 466200),
            ("barriers", 304),
            ("kernel_launches", 1),
        ],
        atomic_samples: (91, 93, 0x98559c9f3a0f41fe),
        time_bits: [
            ("launch_ms", 0x3f747ae147ae147b),
            ("dram_ms", 0x3f687ac196f6c878),
            ("l2_ms", 0x3f22dfd694ccab3f),
            ("compute_ms", 0x3f3780915948b2c6),
            ("shared_ms", 0x3efff2e48e8a71de),
            ("atomic_throughput_ms", 0x3f60624dd2f1a9fc),
            ("atomic_serial_ms", 0x3f64f8b588e368f0),
            ("total_ms", 0x3f805c210994bc5c),
        ],
    },
    Golden {
        case: "ell",
        counters: [
            ("gld_instructions", 1963),
            ("gld_transactions", 9075),
            ("gst_instructions", 0),
            ("gst_transactions", 0),
            ("dram_read_bytes", 170400),
            ("dram_write_bytes", 28800),
            ("l2_read_bytes", 155328),
            ("tex_read_bytes", 255328),
            ("tex_transactions", 8552),
            ("global_atomics", 900),
            ("global_atomics_int", 0),
            ("global_atomic_warp_conflicts", 0),
            ("shared_accesses", 1200),
            ("shared_atomics", 12000),
            ("shared_bank_conflicts", 1969),
            ("shuffle_instructions", 0),
            ("divergent_instructions", 32),
            ("inactive_lanes", 516),
            ("flops", 50916),
            ("barriers", 4),
            ("kernel_launches", 1),
        ],
        atomic_samples: (18, 26, 0xb754681988029887),
        time_bits: [
            ("launch_ms", 0x3f747ae147ae147b),
            ("dram_ms", 0x3f46aa1edb45c4be),
            ("l2_ms", 0x3f30f7492232dac8),
            ("compute_ms", 0x3f0488cacc8d8978),
            ("shared_ms", 0x3f53825e13b18dac),
            ("atomic_throughput_ms", 0x3f43a92a30553261),
            ("atomic_serial_ms", 0x3f64f8b588e368f0),
            ("total_ms", 0x3f7ef73c0c1fc8f3),
        ],
    },
    Golden {
        case: "shard_shared",
        counters: [
            ("gld_instructions", 3250),
            ("gld_transactions", 16750),
            ("gst_instructions", 250),
            ("gst_transactions", 500),
            ("dram_read_bytes", 177216),
            ("dram_write_bytes", 35200),
            ("l2_read_bytes", 405216),
            ("tex_read_bytes", 300864),
            ("tex_transactions", 9972),
            ("global_atomics", 600),
            ("global_atomics_int", 0),
            ("global_atomic_warp_conflicts", 0),
            ("shared_accesses", 1200),
            ("shared_atomics", 12000),
            ("shared_bank_conflicts", 1511),
            ("shuffle_instructions", 500),
            ("divergent_instructions", 1250),
            ("inactive_lanes", 20000),
            ("flops", 66600),
            ("barriers", 4),
            ("kernel_launches", 1),
        ],
        atomic_samples: (8, 16, 0x9d22450e4ee70d07),
        time_bits: [
            ("launch_ms", 0x3f747ae147ae147b),
            ("dram_ms", 0x3f6355a6cbc92040),
            ("l2_ms", 0x3f61b443a52c8601),
            ("compute_ms", 0x3f257cdca96709d9),
            ("shared_ms", 0x3f4f83be6601bc98),
            ("atomic_throughput_ms", 0x3f3a36e2eb1c432c),
            ("atomic_serial_ms", 0x3f64f8b588e368f0),
            ("total_ms", 0x3f7ef73c0c1fc8f3),
        ],
    },
    Golden {
        case: "shard_global",
        counters: [
            ("gld_instructions", 2276),
            ("gld_transactions", 5098),
            ("gst_instructions", 57),
            ("gst_transactions", 225),
            ("dram_read_bytes", 148256),
            ("dram_write_bytes", 89920),
            ("l2_read_bytes", 195456),
            ("tex_read_bytes", 7424),
            ("tex_transactions", 2794),
            ("global_atomics", 2593),
            ("global_atomics_int", 0),
            ("global_atomic_warp_conflicts", 8),
            ("shared_accesses", 0),
            ("shared_atomics", 0),
            ("shared_bank_conflicts", 0),
            ("shuffle_instructions", 57),
            ("divergent_instructions", 2108),
            ("inactive_lanes", 54467),
            ("flops", 13108),
            ("barriers", 0),
            ("kernel_launches", 1),
        ],
        atomic_samples: (79, 80, 0xffbed8f7cced21a4),
        time_bits: [
            ("launch_ms", 0x3f747ae147ae147b),
            ("dram_ms", 0x3f65ade72e77e290),
            ("l2_ms", 0x3f511446d64a9c53),
            ("compute_ms", 0x3f00eaa60835a0ad),
            ("shared_ms", 0x0000000000000000),
            ("atomic_throughput_ms", 0x3f5c528db3231f31),
            ("atomic_serial_ms", 0x3f6797cc39ffd60e),
            ("total_ms", 0x3f802363b256ffc1),
        ],
    },
    Golden {
        case: "one_wave_small",
        counters: [
            ("gld_instructions", 67),
            ("gld_transactions", 351),
            ("gst_instructions", 0),
            ("gst_transactions", 0),
            ("dram_read_bytes", 6400),
            ("dram_write_bytes", 30720),
            ("l2_read_bytes", 7904),
            ("tex_read_bytes", 2816),
            ("tex_transactions", 105),
            ("global_atomics", 960),
            ("global_atomics_int", 0),
            ("global_atomic_warp_conflicts", 0),
            ("shared_accesses", 1792),
            ("shared_atomics", 240),
            ("shared_bank_conflicts", 69),
            ("shuffle_instructions", 10),
            ("divergent_instructions", 25),
            ("inactive_lanes", 400),
            ("flops", 2280),
            ("barriers", 28),
            ("kernel_launches", 1),
        ],
        atomic_samples: (4, 17, 0x4e393e5e16ed688a),
        time_bits: [
            ("launch_ms", 0x3f747ae147ae147b),
            ("dram_ms", 0x3f20e4cb200c8650),
            ("l2_ms", 0x3eeba06125a67465),
            ("compute_ms", 0x3ebd6cb63d4ed3d4),
            ("shared_ms", 0x3ee3d91986205ebe),
            ("atomic_throughput_ms", 0x3f44f8b588e368f0),
            ("atomic_serial_ms", 0x3f92599ed7c6fbd2),
            ("total_ms", 0x3f97785729b280f1),
        ],
    },
];

fn check(host_threads: usize) {
    let runs = launches(host_threads);
    let rendered: String = runs.iter().map(|(case, s)| render(case, s)).collect();
    assert_eq!(runs.len(), GOLDEN.len(), "observed:\n{rendered}");
    for ((case, s), want) in runs.iter().zip(GOLDEN) {
        let ctx = format!("case {case} at {host_threads} host thread(s); observed:\n{rendered}");
        assert_eq!(*case, want.case, "{ctx}");
        assert_eq!(counter_fields(&s.counters), want.counters, "{ctx}");
        assert_eq!(sample_digest(&s.counters), want.atomic_samples, "{ctx}");
        assert_eq!(time_fields(&s.time), want.time_bits, "{ctx}");
    }
}

#[test]
fn kernel_counters_match_pinned_values_on_one_host_thread() {
    check(1);
}

#[test]
fn kernel_counters_match_pinned_values_on_two_host_threads() {
    check(2);
}
