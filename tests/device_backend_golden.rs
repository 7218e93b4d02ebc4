//! Pinned end-to-end numbers of every device `Backend` configuration.
//!
//! Each case builds one device backend on a new one-thread GTX Titan (a
//! one-thread `DeviceGroup` for the sharded backend) and runs, in order,
//! an 8-iteration LR-CG solve at tolerance 0, one outer logistic-regression
//! iteration and one element-wise product. Pinned per case:
//!
//! * a digest of the bits of both weight vectors and of the product;
//! * every `BackendStats` field: the bits of `sim_ms` and `occupancy_ms`,
//!   `launches`, `pattern_counts`, every `Counters` field, a digest of the
//!   sampled atomic-address histogram, and the plan and pool traffic;
//! * the base address of a buffer allocated after the solves, which moves
//!   if any device allocation is added, dropped or reordered.
//!
//! The faulted cases inject a seeded kernel fault mid-solve, one per matrix
//! engine, and pin the error kind and the stats charged up to the fault.
//!
//! Refactors of the backends must leave this file untouched. A deliberate
//! change to the performance model is the only reason to edit the expected
//! tables; on a mismatch the test prints the observed table.

use fusedml_gpu_sim::{
    Counters, DeviceGroup, DeviceSpec, FaultProfile, Gpu, GpuBuffer, InterconnectSpec,
};
use fusedml_matrix::gen::{dense_random, random_labels, random_vector, uniform_sparse};
use fusedml_matrix::CsrMatrix;
use fusedml_ml::ops::TransposePolicy;
use fusedml_ml::{
    try_logreg, try_lr_cg, Backend, BackendStats, BaselineBackend, DagBackend, FusedBackend,
    LogRegOptions, LrCgOptions, ShardedBackend, SolverError,
};
use fusedml_runtime::{SparseStreamer, StreamConfig, StreamedBackend, TransferModel};

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
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

/// `(entries, sampled hits, FNV-1a over (address, hits))` of the
/// atomic-address histogram, in ascending address order.
fn sample_digest(c: &Counters) -> (usize, u64, u64) {
    let hits = c.atomic_addr_samples.values().map(|&n| u64::from(n)).sum();
    let words = c
        .atomic_addr_samples
        .iter()
        .flat_map(|(&addr, &n)| [addr, u64::from(n)]);
    (c.atomic_addr_samples.len(), hits, fnv(words))
}

/// One case's outcome as a block of text lines.
fn render(case: &str, outcome: &str, s: &BackendStats, probe_addr: u64) -> String {
    let BackendStats {
        sim_ms,
        launches,
        pattern_counts,
        counters,
        occupancy_ms,
        plan,
        pool,
    } = s;
    let mut out = format!("{case}: {outcome}\n");
    out += &format!(
        "  sim_ms {:#018x} occupancy_ms {:#018x} launches {launches} probe_addr {probe_addr}\n",
        sim_ms.to_bits(),
        occupancy_ms.to_bits()
    );
    out += &format!("  patterns {pattern_counts:?}\n");
    let fields: Vec<String> = counter_fields(counters)
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    out += &format!("  counters {}\n", fields.join(" "));
    out += &format!("  atomic_samples {:?}\n", sample_digest(counters));
    out += &format!("  plan {plan:?}\n");
    out += &format!("  pool {pool:?}\n");
    out
}

/// LR-CG, one logistic-regression Newton step, then one `ewmul`; returns
/// the digest of every output bit.
fn solve<B: Backend<Vector = GpuBuffer>>(b: &mut B) -> Result<u64, SolverError> {
    let m = b.rows();
    let lr_opts = LrCgOptions {
        eps: 0.001,
        tolerance: 0.0,
        max_iterations: 8,
    };
    let lr = try_lr_cg(b, &random_vector(m, 7), lr_opts)?;
    let lg_opts = LogRegOptions {
        max_outer: 1,
        ..LogRegOptions::default()
    };
    let lg = try_logreg(b, &random_labels(m, 8), lg_opts)?;
    let x = b.try_from_host("ew.x", &random_vector(m, 9))?;
    let y = b.try_from_host("ew.y", &random_vector(m, 10))?;
    let mut xy = b.try_zeros("ew.xy", m)?;
    b.try_ewmul(&x, &y, &mut xy)?;
    let bits = lr
        .weights
        .iter()
        .chain(&lg.weights)
        .chain(&b.to_host(&xy))
        .map(|v| v.to_bits())
        .collect::<Vec<_>>();
    Ok(fnv(bits))
}

fn observe<B: Backend<Vector = GpuBuffer>>(case: &str, b: &mut B) -> String {
    let outcome = match solve(b) {
        Ok(digest) => format!("weights {digest:#018x}"),
        Err(e) => format!("error {}", e.kind()),
    };
    let probe = b
        .try_zeros("probe", 3)
        .unwrap_or_else(|e| panic!("{case}: probe allocation failed: {e}"));
    render(case, &outcome, &b.stats(), probe.base_addr())
}

fn titan() -> Gpu {
    Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
}

/// `DeviceGroup` devices are one-thread Titans.
fn group(n: usize, profile: FaultProfile) -> DeviceGroup {
    DeviceGroup::new(
        DeviceSpec::gtx_titan(),
        n,
        InterconnectSpec::nvlink2(),
        &profile,
    )
}

fn streamed<'g>(g: &'g Gpu, x: &CsrMatrix, cfg: StreamConfig) -> StreamedBackend<'g> {
    SparseStreamer::try_new(g, x, TransferModel::native(), cfg)
        .and_then(SparseStreamer::try_into_backend)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// 37-row chunks, three in flight over two queues, and room for about half
/// the matrix on the device.
fn chunked(x: &CsrMatrix) -> StreamConfig {
    StreamConfig::fixed(37, 3)
        .with_queues(2)
        .with_residency(x.size_bytes() / 2)
}

fn sparse() -> CsrMatrix {
    uniform_sparse(240, 24, 0.15, 0x601d)
}

fn ok<T>(r: Result<T, fusedml_gpu_sim::DeviceError>) -> T {
    r.unwrap_or_else(|e| panic!("{e}"))
}

fn clean_cases() -> String {
    let xs = sparse();
    let xd = dense_random(120, 16, 0x601e);
    let mut out = String::new();
    let g = titan();
    out += &observe(
        "fused sparse",
        &mut ok(FusedBackend::try_new_sparse(&g, &xs)),
    );
    let g = titan();
    out += &observe("fused dense", &mut ok(FusedBackend::try_new_dense(&g, &xd)));
    let g = titan();
    out += &observe("dag sparse", &mut ok(DagBackend::try_new_sparse(&g, &xs)));
    let g = titan();
    out += &observe("dag dense", &mut ok(DagBackend::try_new_dense(&g, &xd)));
    let g = titan();
    out += &observe(
        "baseline sparse",
        &mut ok(BaselineBackend::try_new_sparse(&g, &xs)),
    );
    let g = titan();
    out += &observe(
        "baseline dense",
        &mut ok(BaselineBackend::try_new_dense(&g, &xd)),
    );
    let g = titan();
    out += &observe(
        "baseline sparse cached-once",
        &mut ok(BaselineBackend::try_new_sparse(&g, &xs))
            .with_transpose_policy(TransposePolicy::CachedOnce),
    );
    let g = group(1, FaultProfile::disabled());
    out += &observe(
        "sharded 1",
        &mut ok(ShardedBackend::try_new_sparse(&g, &xs)),
    );
    let g = group(3, FaultProfile::disabled());
    out += &observe(
        "sharded 3",
        &mut ok(ShardedBackend::try_new_sparse(&g, &xs)),
    );
    let g = titan();
    let whole = StreamConfig::fixed(xs.rows(), 1);
    out += &observe("streamed whole", &mut streamed(&g, &xs, whole));
    let g = titan();
    out += &observe("streamed chunked", &mut streamed(&g, &xs, chunked(&xs)));
    out
}

fn faulted_cases() -> String {
    let xs = sparse();
    let profile = FaultProfile::seeded(0xa).with_kernel_fault_rate(0.01);
    let faulty_titan = || titan().with_fault_profile(profile.clone());
    let mut out = String::new();
    let g = faulty_titan();
    out += &observe(
        "fused fault",
        &mut ok(FusedBackend::try_new_sparse(&g, &xs)),
    );
    let g = faulty_titan();
    out += &observe("dag fault", &mut ok(DagBackend::try_new_sparse(&g, &xs)));
    let g = faulty_titan();
    out += &observe(
        "baseline fault",
        &mut ok(BaselineBackend::try_new_sparse(&g, &xs)),
    );
    let g = group(3, profile.clone());
    out += &observe(
        "sharded fault",
        &mut ok(ShardedBackend::try_new_sparse(&g, &xs)),
    );
    let g = faulty_titan();
    out += &observe("streamed fault", &mut streamed(&g, &xs, chunked(&xs)));
    out
}

fn check(observed: &str, want: &str) {
    assert!(
        observed == want,
        "device backend golden mismatch; observed:\n{observed}"
    );
}

const CLEAN: &str = r#"fused sparse: weights 0x97cfa40152e5a700
  sim_ms 0x3fe9318ae4e84e5d occupancy_ms 0x3fe5c164e21f4643 launches 121 probe_addr 34944
  patterns {"X^T x (X x y) + b * z": 8, "X^T x (v . (X x y)) + b * z": 4, "a * X^T x y": 2}
  counters gld_instructions=2915 gld_transactions=22950 gst_instructions=141 gst_transactions=846 dram_read_bytes=31648 dram_write_bytes=187744 l2_read_bytes=712512 tex_read_bytes=70144 tex_transactions=2348 global_atomics=5021 global_atomics_int=0 global_atomic_warp_conflicts=0 shared_accesses=9437 shared_atomics=13672 shared_bank_conflicts=7364 shuffle_instructions=1370 divergent_instructions=175 inactive_lanes=1480 flops=111184 barriers=421 kernel_launches=121
  atomic_samples (24, 150, 880978845420034777)
  plan PlanCacheStats { hits: 13, misses: 1, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 8, misses: 12, bytes_recycled: 8448, reclaimed: 19, retained_bytes: 9984, attached_devices: 0, outstanding_bytes: 18472, peak_outstanding_bytes: 28424 }
fused dense: weights 0x2882e92c650809a8
  sim_ms 0x4002228170149bec occupancy_ms 0x4001ff4ced56102b launches 130 probe_addr 29184
  patterns {"X^T x (X x y) + b * z": 8, "X^T x (v . (X x y)) + b * z": 5, "a * X^T x y": 2}
  counters gld_instructions=14754 gld_transactions=9172 gst_instructions=337 gst_transactions=698 dram_read_bytes=44064 dram_write_bytes=6059296 l2_read_bytes=260544 tex_read_bytes=1533696 tex_transactions=48212 global_atomics=188655 global_atomics_int=0 global_atomic_warp_conflicts=0 shared_accesses=18719 shared_atomics=376 shared_bank_conflicts=3968 shuffle_instructions=10880 divergent_instructions=14118 inactive_lanes=225792 flops=518600 barriers=411 kernel_launches=130
  atomic_samples (40, 5882, 8040576700271296134)
  plan PlanCacheStats { hits: 12, misses: 1, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 8, misses: 12, bytes_recycled: 4352, reclaimed: 19, retained_bytes: 4992, attached_devices: 0, outstanding_bytes: 16424, peak_outstanding_bytes: 21384 }
dag sparse: weights 0x97cfa40152e5a700
  sim_ms 0x3fe9318ae4e84e5d occupancy_ms 0x3fe5c164e21f4643 launches 121 probe_addr 35072
  patterns {"X^T x (X x y) + b * z": 8, "X^T x (v . (X x y)) + b * z": 4, "a * X^T x y": 2}
  counters gld_instructions=2915 gld_transactions=22950 gst_instructions=141 gst_transactions=846 dram_read_bytes=31648 dram_write_bytes=187744 l2_read_bytes=712512 tex_read_bytes=70144 tex_transactions=2348 global_atomics=5021 global_atomics_int=0 global_atomic_warp_conflicts=0 shared_accesses=9437 shared_atomics=13672 shared_bank_conflicts=7364 shuffle_instructions=1370 divergent_instructions=175 inactive_lanes=1480 flops=111184 barriers=421 kernel_launches=121
  atomic_samples (24, 150, 10852123376293366573)
  plan PlanCacheStats { hits: 23, misses: 5, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 8, misses: 12, bytes_recycled: 8448, reclaimed: 19, retained_bytes: 9984, attached_devices: 0, outstanding_bytes: 18480, peak_outstanding_bytes: 28432 }
dag dense: weights 0x2882e92c650809a8
  sim_ms 0x4002228170149bec occupancy_ms 0x4001ff4ced56102b launches 130 probe_addr 29440
  patterns {"X^T x (X x y) + b * z": 8, "X^T x (v . (X x y)) + b * z": 5, "a * X^T x y": 2}
  counters gld_instructions=14754 gld_transactions=9172 gst_instructions=337 gst_transactions=698 dram_read_bytes=44064 dram_write_bytes=6059296 l2_read_bytes=260544 tex_read_bytes=1533696 tex_transactions=48212 global_atomics=188655 global_atomics_int=0 global_atomic_warp_conflicts=0 shared_accesses=18719 shared_atomics=376 shared_bank_conflicts=3968 shuffle_instructions=10880 divergent_instructions=14118 inactive_lanes=225792 flops=518600 barriers=411 kernel_launches=130
  atomic_samples (40, 5882, 17326498381197080111)
  plan PlanCacheStats { hits: 23, misses: 5, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 9, misses: 12, bytes_recycled: 4480, reclaimed: 20, retained_bytes: 4992, attached_devices: 0, outstanding_bytes: 16432, peak_outstanding_bytes: 21392 }
baseline sparse: weights 0xbb31f8caa1109230
  sim_ms 0x400242ab30c9eea7 occupancy_ms 0x400242ab30c9eea5 launches 290 probe_addr 207104
  patterns {"X^T x (X x y) + b * z": 8, "X^T x (v . (X x y)) + b * z": 4, "a * X^T x y": 2}
  counters gld_instructions=6580 gld_transactions=49426 gst_instructions=1724 gst_transactions=16248 dram_read_bytes=155552 dram_write_bytes=867616 l2_read_bytes=1486400 tex_read_bytes=385824 tex_transactions=12390 global_atomics=29 global_atomics_int=26880 global_atomic_warp_conflicts=16044 shared_accesses=29 shared_atomics=232 shared_bank_conflicts=0 shuffle_instructions=3050 divergent_instructions=1568 inactive_lanes=28690 flops=160552 barriers=29 kernel_launches=290
  atomic_samples (485, 840, 6717063799375432812)
  plan PlanCacheStats { hits: 0, misses: 0, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 100, misses: 18, bytes_recycled: 220904, reclaimed: 117, retained_bytes: 27392, attached_devices: 0, outstanding_bytes: 20520, peak_outstanding_bytes: 47880 }
baseline dense: weights 0x26ee6c7b6d4f0941
  sim_ms 0x3ff09ca8aed3735b occupancy_ms 0x3feda2ca32a4da6c launches 161 probe_addr 30208
  patterns {"X^T x (X x y) + b * z": 8, "X^T x (v . (X x y)) + b * z": 5, "a * X^T x y": 2}
  counters gld_instructions=5731 gld_transactions=15764 gst_instructions=1930 gst_transactions=2460 dram_read_bytes=45600 dram_write_bytes=571232 l2_read_bytes=470976 tex_read_bytes=234752 tex_transactions=7650 global_atomics=15391 global_atomics_int=0 global_atomic_warp_conflicts=0 shared_accesses=140191 shared_atomics=1208 shared_bank_conflicts=29760 shuffle_instructions=15040 divergent_instructions=5626 inactive_lanes=89736 flops=605936 barriers=151 kernel_launches=161
  atomic_samples (36, 471, 9777752058839273319)
  plan PlanCacheStats { hits: 0, misses: 0, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 8, misses: 12, bytes_recycled: 4352, reclaimed: 19, retained_bytes: 4992, attached_devices: 0, outstanding_bytes: 17448, peak_outstanding_bytes: 22408 }
baseline sparse cached-once: weights 0xbb31f8caa1109230
  sim_ms 0x3feae7e3628f92b2 occupancy_ms 0x3feae7e3628f92b2 launches 147 probe_addr 49024
  patterns {"X^T x (X x y) + b * z": 8, "X^T x (v . (X x y)) + b * z": 4, "a * X^T x y": 2}
  counters gld_instructions=4747 gld_transactions=22230 gst_instructions=762 gst_transactions=3144 dram_read_bytes=49056 dram_write_bytes=126304 l2_read_bytes=683936 tex_read_bytes=385824 tex_transactions=12390 global_atomics=29 global_atomics_int=1920 global_atomic_warp_conflicts=1146 shared_accesses=29 shared_atomics=232 shared_bank_conflicts=0 shuffle_instructions=3050 divergent_instructions=1191 inactive_lanes=23607 flops=160552 barriers=29 kernel_launches=147
  atomic_samples (36, 60, 4251335665389817917)
  plan PlanCacheStats { hits: 0, misses: 0, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 12, misses: 15, bytes_recycled: 9216, reclaimed: 23, retained_bytes: 9984, attached_devices: 0, outstanding_bytes: 37160, peak_outstanding_bytes: 47112 }
sharded 1: weights 0x999c0167769629ef
  sim_ms 0x3fe9332d76d5c9f0 occupancy_ms 0x3fe5c845a16efab1 launches 121 probe_addr 41216
  patterns {"X^T x (X x y) + b * z": 8, "X^T x (v . (X x y)) + b * z": 4, "a * X^T x y": 2}
  counters gld_instructions=2903 gld_transactions=22878 gst_instructions=321 gst_transactions=1566 dram_read_bytes=31200 dram_write_bytes=201568 l2_read_bytes=705728 tex_read_bytes=72832 tex_transactions=2348 global_atomics=4733 global_atomics_int=0 global_atomic_warp_conflicts=0 shared_accesses=9437 shared_atomics=13672 shared_bank_conflicts=7364 shuffle_instructions=1370 divergent_instructions=163 inactive_lanes=1384 flops=110896 barriers=421 kernel_launches=121
  atomic_samples (13, 141, 2965221941232474753)
  plan PlanCacheStats { hits: 13, misses: 1, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 8, misses: 12, bytes_recycled: 8448, reclaimed: 19, retained_bytes: 9984, attached_devices: 0, outstanding_bytes: 25128, peak_outstanding_bytes: 35080 }
sharded 3: weights 0x999c0167769629ef
  sim_ms 0x3fec8b0320c0ea66 occupancy_ms 0x3ff1ece12cefd426 launches 181 probe_addr 29056
  patterns {"X^T x (X x y) + b * z": 8, "X^T x (v . (X x y)) + b * z": 4, "a * X^T x y": 2}
  counters gld_instructions=2903 gld_transactions=22878 gst_instructions=349 gst_transactions=1734 dram_read_bytes=27360 dram_write_bytes=508000 l2_read_bytes=711168 tex_read_bytes=72704 tex_transactions=2348 global_atomics=14141 global_atomics_int=0 global_atomic_warp_conflicts=0 shared_accesses=28253 shared_atomics=13672 shared_bank_conflicts=7364 shuffle_instructions=1370 divergent_instructions=163 inactive_lanes=1384 flops=120304 barriers=1205 kernel_launches=181
  atomic_samples (13, 421, 9104190079258268076)
  plan PlanCacheStats { hits: 41, misses: 1, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 8, misses: 12, bytes_recycled: 8448, reclaimed: 19, retained_bytes: 9984, attached_devices: 0, outstanding_bytes: 12840, peak_outstanding_bytes: 22792 }
streamed whole: weights 0x999c0167769629ef
  sim_ms 0x3ff1b4e01cc5ea2e occupancy_ms 0x3fe5d32ff818fbb8 launches 121 probe_addr 262016
  patterns {"X^T x (X x y) + b * z": 8, "X^T x (v . (X x y)) + b * z": 4, "a * X^T x y": 2}
  counters gld_instructions=2903 gld_transactions=22878 gst_instructions=321 gst_transactions=1566 dram_read_bytes=223328 dram_write_bytes=201568 l2_read_bytes=534016 tex_read_bytes=63232 tex_transactions=2348 global_atomics=4733 global_atomics_int=0 global_atomic_warp_conflicts=0 shared_accesses=9437 shared_atomics=13672 shared_bank_conflicts=7364 shuffle_instructions=1370 divergent_instructions=163 inactive_lanes=1384 flops=110896 barriers=421 kernel_launches=121
  atomic_samples (13, 141, 16694495657209004356)
  plan PlanCacheStats { hits: 13, misses: 1, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 71, misses: 17, bytes_recycled: 302320, reclaimed: 87, retained_bytes: 32512, attached_devices: 0, outstanding_bytes: 552, peak_outstanding_bytes: 32776 }
streamed chunked: weights 0x999c0167769629ef
  sim_ms 0x4007003ea54c39b5 occupancy_ms 0x3fffe8f4df6c1c30 launches 301 probe_addr 203520
  patterns {"X^T x (X x y) + b * z": 8, "X^T x (v . (X x y)) + b * z": 4, "a * X^T x y": 2}
  counters gld_instructions=3793 gld_transactions=23110 gst_instructions=475 gst_transactions=2140 dram_read_bytes=155360 dram_write_bytes=1123104 l2_read_bytes=619360 tex_read_bytes=77760 tex_transactions=2826 global_atomics=32957 global_atomics_int=0 global_atomic_warp_conflicts=0 shared_accesses=65885 shared_atomics=13672 shared_bank_conflicts=6860 shuffle_instructions=1440 divergent_instructions=1409 inactive_lanes=29864 flops=141680 barriers=2773 kernel_launches=301
  atomic_samples (25, 1022, 6852268349042012023)
  plan PlanCacheStats { hits: 96, misses: 2, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 331, misses: 30, bytes_recycled: 192976, reclaimed: 351, retained_bytes: 18176, attached_devices: 0, outstanding_bytes: 14376, peak_outstanding_bytes: 29704 }
"#;

const FAULTED: &str = r#"fused fault: error transient-fault
  sim_ms 0x3fdadcee812a19b0 occupancy_ms 0x3fd64e640f4bb002 launches 63 probe_addr 19712
  patterns {"X^T x (X x y) + b * z": 8, "a * X^T x y": 1}
  counters gld_instructions=1634 gld_transactions=13449 gst_instructions=39 gst_transactions=234 dram_read_bytes=16416 dram_write_bytes=110880 l2_read_bytes=418560 tex_read_bytes=36160 tex_transactions=1196 global_atomics=3231 global_atomics_int=0 global_atomic_warp_conflicts=0 shared_accesses=6063 shared_atomics=8760 shared_bank_conflicts=4734 shuffle_instructions=720 divergent_instructions=89 inactive_lanes=712 flops=60816 barriers=267 kernel_launches=63
  atomic_samples (15, 90, 2000366897323312203)
  plan PlanCacheStats { hits: 8, misses: 1, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 0, misses: 6, bytes_recycled: 0, reclaimed: 5, retained_bytes: 3072, attached_devices: 0, outstanding_bytes: 18472, peak_outstanding_bytes: 21512 }
dag fault: error transient-fault
  sim_ms 0x3fdadcee812a19b0 occupancy_ms 0x3fd64e640f4bb002 launches 63 probe_addr 19840
  patterns {"X^T x (X x y) + b * z": 8, "a * X^T x y": 1}
  counters gld_instructions=1634 gld_transactions=13449 gst_instructions=39 gst_transactions=234 dram_read_bytes=16416 dram_write_bytes=110880 l2_read_bytes=418560 tex_read_bytes=36160 tex_transactions=1196 global_atomics=3231 global_atomics_int=0 global_atomic_warp_conflicts=0 shared_accesses=6063 shared_atomics=8760 shared_bank_conflicts=4734 shuffle_instructions=720 divergent_instructions=89 inactive_lanes=712 flops=60816 barriers=267 kernel_launches=63
  atomic_samples (15, 90, 242668073467731687)
  plan PlanCacheStats { hits: 15, misses: 3, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 0, misses: 6, bytes_recycled: 0, reclaimed: 5, retained_bytes: 3072, attached_devices: 0, outstanding_bytes: 18480, peak_outstanding_bytes: 21520 }
baseline fault: error transient-fault
  sim_ms 0x3fddaff4b5baeee7 occupancy_ms 0x3fddaff4b5baeee8 launches 57 probe_addr 58624
  patterns {"X^T x (X x y) + b * z": 2, "a * X^T x y": 1}
  counters gld_instructions=1372 gld_transactions=10317 gst_instructions=352 gst_transactions=3354 dram_read_bytes=53408 dram_write_bytes=181792 l2_read_bytes=297952 tex_read_bytes=78496 tex_transactions=2655 global_atomics=5 global_atomics_int=5760 global_atomic_warp_conflicts=3438 shared_accesses=5 shared_atomics=40 shared_bank_conflicts=0 shuffle_instructions=605 divergent_instructions=325 inactive_lanes=6029 flops=31600 barriers=5 kernel_launches=57
  atomic_samples (103, 180, 12244829436304782773)
  plan PlanCacheStats { hits: 0, misses: 0, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 18, misses: 13, bytes_recycled: 33432, reclaimed: 30, retained_bytes: 20736, attached_devices: 0, outstanding_bytes: 20520, peak_outstanding_bytes: 41224 }
sharded fault: error transient-fault
  sim_ms 0x3fde5cecdf9922f4 occupancy_ms 0x3fe31f7fa3998f37 launches 99 probe_addr 13824
  patterns {"X^T x (X x y) + b * z": 8, "a * X^T x y": 1}
  counters gld_instructions=1626 gld_transactions=13401 gst_instructions=177 gst_transactions=822 dram_read_bytes=18656 dram_write_bytes=317088 l2_read_bytes=416352 tex_read_bytes=35840 tex_transactions=1196 global_atomics=9087 global_atomics_int=0 global_atomic_warp_conflicts=0 shared_accesses=18159 shared_atomics=8760 shared_bank_conflicts=4734 shuffle_instructions=720 divergent_instructions=81 inactive_lanes=648 flops=66672 barriers=771 kernel_launches=99
  atomic_samples (8, 252, 13505851306188678563)
  plan PlanCacheStats { hits: 26, misses: 1, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 0, misses: 6, bytes_recycled: 0, reclaimed: 5, retained_bytes: 3072, attached_devices: 0, outstanding_bytes: 12840, peak_outstanding_bytes: 15880 }
streamed fault: error transient-fault
  sim_ms 0x3fe25da7371a3ba8 occupancy_ms 0x3fdd26593774800d launches 63 probe_addr 48640
  patterns {"X^T x (X x y) + b * z": 2, "a * X^T x y": 1}
  counters gld_instructions=754 gld_transactions=4731 gst_instructions=83 gst_transactions=364 dram_read_bytes=34016 dram_write_bytes=269856 l2_read_bytes=125376 tex_read_bytes=13440 tex_transactions=491 global_atomics=8069 global_atomics_int=0 global_atomic_warp_conflicts=0 shared_accesses=16133 shared_atomics=3364 shared_bank_conflicts=1702 shuffle_instructions=249 divergent_instructions=279 inactive_lanes=5960 flops=28008 barriers=677 kernel_launches=63
  atomic_samples (15, 238, 10531127341717250264)
  plan PlanCacheStats { hits: 23, misses: 2, uncached: 0, errors: 0, invalidations: 0 }
  pool PoolStats { hits: 56, misses: 23, bytes_recycled: 33272, reclaimed: 69, retained_bytes: 10752, attached_devices: 0, outstanding_bytes: 14376, peak_outstanding_bytes: 22536 }
"#;

#[test]
fn device_backends_match_pinned_stats() {
    check(&clean_cases(), CLEAN);
}

#[test]
fn faulted_device_backends_match_pinned_stats() {
    check(&faulted_cases(), FAULTED);
}
