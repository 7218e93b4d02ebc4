//! Sharded and streamed execution are two placements of one row-range
//! core (`fusedml_core::RowRanges`), so they must agree bit for bit.
//!
//! A 997×64 matrix at 5% runs the three products a solver needs: the
//! full pattern (`v`, `z`, `alpha` ≠ 1, `beta` ≠ 0), `X y` and
//! `alpha X^T u`. They run on the sharded executor over 1, 2 and 3
//! devices, and on the streamer at four chunk sizes (333 and 100 leave a
//! short last chunk, 41 a long tail of chunks, 997 is one chunk), at
//! pipeline depths 1–3, with residency on and off. Every output's bits
//! must match across all of them.
//!
//! Each executor runs the products twice, with a `reset` between the
//! passes. The reset clears the launch ledger and the modeled wall clock
//! but keeps the plans, so the second pass computes no plan.

use fusedml_core::{PatternSpec, PlanCacheStats, RowRangeExecutor, ShardedExecutor};
use fusedml_gpu_sim::{DeviceError, DeviceGroup, DeviceSpec, FaultProfile, Gpu, InterconnectSpec};
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_matrix::{reference, CsrMatrix};
use fusedml_runtime::{SparseStreamer, StreamConfig, TransferModel};

const ROWS: usize = 997;
const COLS: usize = 64;
const PRODUCTS: [&str; 3] = ["pattern", "X y", "alpha X^T u"];

struct Operands {
    x: CsrMatrix,
    v: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    u: Vec<f64>,
}

fn ok(r: Result<(), DeviceError>) {
    r.unwrap_or_else(|e| panic!("{e}"));
}

/// The three products, in [`PRODUCTS`] order.
fn products<E: RowRangeExecutor>(ex: &mut E, ops: &Operands) -> [Vec<f64>; 3] {
    let mut w = vec![0.0; COLS];
    let spec = PatternSpec::full(1.25, -0.5);
    ok(ex.try_pattern_host(spec, Some(&ops.v), &ops.y, Some(&ops.z), &mut w));
    let mut p = vec![0.0; ROWS];
    ok(ex.try_mv_host(&ops.y, &mut p));
    let mut t = vec![0.0; COLS];
    ok(ex.try_tmv_host(0.75, &ops.u, &mut t));
    [w, p, t]
}

fn bits(out: &[Vec<f64>; 3]) -> [Vec<u64>; 3] {
    out.clone().map(|v| v.iter().map(|x| x.to_bits()).collect())
}

/// Both passes' products on `ex`; asserts what `reset` clears and keeps.
fn two_passes<E: RowRangeExecutor>(ex: &mut E, ops: &Operands, name: &str) -> [Vec<f64>; 3] {
    ex.ranges_mut().set_plan_cache(true);
    let first = products(ex, ops);
    let ranges = ex.ranges();
    assert!(
        ranges.launch_count() > 0 && ranges.wall_ms() > 0.0,
        "{name}"
    );
    let before = ranges.plan_stats();
    assert!(before.misses > 0, "{name}: the first pass plans");

    ex.ranges_mut().reset();
    assert_eq!(
        ex.ranges().launch_count(),
        0,
        "{name}: reset clears launches"
    );
    assert_eq!(ex.ranges().wall_ms(), 0.0, "{name}: reset clears wall time");
    let second = products(ex, ops);
    let after = ex.ranges().plan_stats();
    assert_eq!(
        after.plans_computed(),
        before.plans_computed(),
        "{name}: the pass after reset planned again"
    );
    assert_eq!(
        after.hits - before.hits,
        before.hits + before.misses,
        "{name}: every plan lookup after reset hits"
    );
    assert_eq!(bits(&first), bits(&second), "{name}: passes differ");
    first
}

#[test]
fn shards_and_chunks_agree_bit_for_bit() {
    let ops = Operands {
        x: uniform_sparse(ROWS, COLS, 0.05, 0x5EED),
        v: random_vector(ROWS, 1),
        y: random_vector(COLS, 2),
        z: random_vector(COLS, 3),
        u: random_vector(ROWS, 4),
    };

    let mut runs: Vec<(String, [Vec<f64>; 3])> = Vec::new();
    for devices in 1..=3 {
        let g = DeviceGroup::new(
            DeviceSpec::gtx_titan(),
            devices,
            InterconnectSpec::pcie_gen3_x16(),
            &FaultProfile::disabled(),
        );
        let mut ex = ShardedExecutor::try_new(&g, &ops.x).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(ex.shard_count(), devices);
        let name = format!("{devices} shards");
        let out = two_passes(&mut ex, &ops, &name);
        runs.push((name, out));
    }
    for chunk in [333, 100, 41, 997] {
        for depth in 1..=3 {
            for cap in [0, u64::MAX] {
                let g = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
                let cfg = StreamConfig::fixed(chunk, depth).with_residency(cap);
                let mut s = SparseStreamer::try_new(&g, &ops.x, TransferModel::native(), cfg)
                    .unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(s.chunk_count(), ROWS.div_ceil(chunk));
                let name = format!("chunks of {chunk} at depth {depth}, residency cap {cap}");
                let out = two_passes(&mut s, &ops, &name);
                runs.push((name, out));
            }
        }
    }

    let (first, want) = &runs[0];
    for (name, got) in &runs[1..] {
        for (k, product) in PRODUCTS.iter().enumerate() {
            assert_eq!(
                bits(got)[k],
                bits(want)[k],
                "{product}: {name} differs from {first}"
            );
        }
    }

    // All of them agree on the right answer, not on a wrong one.
    let [w, p, t] = want;
    let expect_w = reference::pattern_csr(1.25, &ops.x, Some(&ops.v), &ops.y, -0.5, Some(&ops.z));
    assert!(reference::rel_l2_error(w, &expect_w) < 1e-12);
    assert!(reference::rel_l2_error(p, &reference::csr_mv(&ops.x, &ops.y)) < 1e-12);
    let mut expect_t = reference::csr_tmv(&ops.x, &ops.u);
    reference::scal(0.75, &mut expect_t);
    assert!(reference::rel_l2_error(t, &expect_t) < 1e-12);
}

/// `X y` runs the CSR-vector kernel, which takes no launch plan, so a
/// sharded `X y` makes none. A GTX Titan that allows 32 registers per
/// thread launches that kernel (28 registers) but cannot plan the fused
/// kernels (43): there `X y` runs and gives the bits it gives on a Titan,
/// while `alpha X^T u` fails to plan.
#[test]
fn a_sharded_x_y_makes_no_plan() {
    let x = uniform_sparse(ROWS, COLS, 0.05, 0x5EED);
    let (y, u) = (random_vector(COLS, 2), random_vector(ROWS, 4));
    let titan = DeviceSpec::gtx_titan();
    let few_registers = DeviceSpec {
        max_regs_per_thread: 32,
        ..DeviceSpec::gtx_titan()
    };
    let mut outs = Vec::new();
    for spec in [titan, few_registers.clone()] {
        let g = DeviceGroup::new(
            spec,
            3,
            InterconnectSpec::pcie_gen3_x16(),
            &FaultProfile::disabled(),
        );
        let mut ex = ShardedExecutor::try_new(&g, &x).unwrap_or_else(|e| panic!("{e}"));
        let mut p = vec![0.0; ROWS];
        ok(ex.try_mv_host(&y, &mut p));
        assert_eq!(ex.ranges().plan_stats(), PlanCacheStats::default());
        assert_eq!(ex.ranges().launch_count(), 3);
        outs.push(p.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }
    assert_eq!(outs[0], outs[1]);

    let g = DeviceGroup::new(
        few_registers,
        3,
        InterconnectSpec::pcie_gen3_x16(),
        &FaultProfile::disabled(),
    );
    let mut ex = ShardedExecutor::try_new(&g, &x).unwrap_or_else(|e| panic!("{e}"));
    let err = ex
        .try_tmv_host(0.75, &u, &mut vec![0.0; COLS])
        .expect_err("the fused kernel has no plan on this spec");
    assert!(
        err.to_string().contains("no feasible sparse launch plan"),
        "{err}"
    );
}
