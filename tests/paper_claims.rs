//! The paper's headline claims, asserted at reduced scale. These are the
//! *shape* guarantees the reproduction commits to: who wins, by roughly
//! what class of factor, and where behaviour switches.

use fusedml::prelude::*;
use fusedml_matrix::gen::{powerlaw_sparse, random_vector, uniform_sparse};
use fusedml_matrix::reference;

fn gpu() -> Gpu {
    Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
}

/// Abstract: "speedups ranging from 2x to 67x for different instances of
/// the generic pattern compared to launching multiple operator-level
/// kernels".
#[test]
fn abstract_speedup_range() {
    let g = gpu();
    let (m, n) = (20_000, 512);
    let x = uniform_sparse(m, n, 0.01, 1);
    let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
    let yd = g.try_upload_f64("y", &random_vector(n, 2)).unwrap();
    let vd = g.try_upload_f64("v", &random_vector(m, 3)).unwrap();
    let zd = g.try_upload_f64("z", &random_vector(n, 4)).unwrap();
    let wd = g.try_alloc_f64("w", n).unwrap();
    let pd = g.try_alloc_f64("p", m).unwrap();

    for spec in [
        PatternSpec::xtxy(),
        PatternSpec::xtvxy(),
        PatternSpec::xtxy_plus_bz(0.5),
        PatternSpec::full(1.5, -0.5),
    ] {
        g.flush_caches();
        let mut fused = FusedExecutor::new(&g);
        fused
            .try_pattern_sparse(
                spec,
                &xd,
                spec.with_v.then_some(&vd),
                &yd,
                spec.with_z.then_some(&zd),
                &wd,
            )
            .unwrap();
        g.flush_caches();
        let mut base = BaselineEngine::try_new(&g, Flavor::CuLibs).unwrap();
        base.try_pattern_sparse(
            spec.alpha,
            &xd,
            spec.with_v.then_some(&vd),
            &yd,
            spec.beta,
            spec.with_z.then_some(&zd),
            &wd,
            &pd,
        )
        .unwrap();
        let speedup = base.total_sim_ms() / fused.total_sim_ms();
        assert!(
            (2.0..=120.0).contains(&speedup),
            "{:?}: speedup {speedup} outside the paper's class",
            spec.instance()
        );
    }
}

/// §3: the fused kernel's entire point — X is loaded from DRAM once, not
/// twice, because the second scan hits cache.
#[test]
fn temporal_locality_halves_matrix_traffic() {
    let g = gpu();
    let (m, n) = (30_000, 512);
    let x = uniform_sparse(m, n, 0.01, 5);
    let one_scan = (x.nnz() * 12) as u64;
    let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
    let yd = g.try_upload_f64("y", &random_vector(n, 6)).unwrap();
    let wd = g.try_alloc_f64("w", n).unwrap();
    let pd = g.try_alloc_f64("p", m).unwrap();

    g.flush_caches();
    let mut fused = FusedExecutor::new(&g);
    fused
        .try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
        .unwrap();
    let fused_dram: u64 = fused
        .launches
        .iter()
        .map(|l| l.counters.dram_read_bytes)
        .sum();

    g.flush_caches();
    let mut base = BaselineEngine::try_new(&g, Flavor::BidmatGpu).unwrap();
    base.try_pattern_sparse(1.0, &xd, None, &yd, 0.0, None, &wd, &pd)
        .unwrap();
    let base_dram: u64 = base
        .launches
        .iter()
        .map(|l| l.counters.dram_read_bytes)
        .sum();

    assert!(
        fused_dram < one_scan + one_scan / 2,
        "fused reads {} vs one scan {}",
        fused_dram,
        one_scan
    );
    assert!(
        base_dram > fused_dram + one_scan / 3,
        "baseline {} should re-read X vs fused {}",
        base_dram,
        fused_dram
    );
}

/// §3.1: the hierarchical aggregation bound — global atomics are per
/// block-column, never per non-zero, in the shared-memory variant.
#[test]
fn hierarchical_aggregation_bounds_global_atomics() {
    let g = gpu();
    let (m, n) = (20_000, 256);
    let x = uniform_sparse(m, n, 0.05, 7); // ~256k nnz
    let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
    let yd = g.try_upload_f64("y", &random_vector(n, 8)).unwrap();
    let wd = g.try_alloc_f64("w", n).unwrap();
    let mut ex = FusedExecutor::new(&g);
    ex.try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
        .unwrap();
    let k = ex.launches.last().unwrap();
    let plan = ex.try_sparse_plan(&xd).unwrap();
    assert!(plan.use_shared_w);
    assert_eq!(
        k.counters.global_atomics,
        (plan.grid * n) as u64,
        "global atomics must equal grid x columns"
    );
    assert!(k.counters.global_atomics < x.nnz() as u64 / 10);
}

/// §3.1 extension: very wide matrices switch to global aggregation and
/// still win because ultra-sparse columns rarely collide.
#[test]
fn wide_matrices_use_global_variant_and_win() {
    let g = gpu();
    let x = powerlaw_sparse(8_000, 50_000, 10.0, 0.8, 9);
    let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
    let yd = g.try_upload_f64("y", &random_vector(50_000, 10)).unwrap();
    let wd = g.try_alloc_f64("w", 50_000).unwrap();
    let pd = g.try_alloc_f64("p", 8_000).unwrap();

    g.flush_caches();
    let mut fused = FusedExecutor::new(&g);
    assert!(!fused.try_sparse_plan(&xd).unwrap().use_shared_w);
    fused
        .try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
        .unwrap();

    g.flush_caches();
    let mut base = BaselineEngine::try_new(&g, Flavor::CuLibs).unwrap();
    base.try_pattern_sparse(1.0, &xd, None, &yd, 0.0, None, &wd, &pd)
        .unwrap();
    assert!(fused.total_sim_ms() < base.total_sim_ms());

    // Contention stays negligible: the hottest w element sees well under
    // 1% of all atomics.
    let c = &fused.launches.last().unwrap().counters;
    assert!(c.hottest_atomic_address_count() < c.global_atomics / 50);
}

/// §4.2: dense gains are much smaller than sparse gains, "most of the
/// gain we achieve comes from loading X only once".
#[test]
fn dense_gains_smaller_than_sparse_gains() {
    let g = gpu();
    let (m, n) = (10_000, 512);

    let xs = uniform_sparse(m, n, 0.01, 11);
    let xsd = GpuCsr::try_upload(&g, "xs", &xs).unwrap();
    let yd = g.try_upload_f64("y", &random_vector(n, 12)).unwrap();
    let wd = g.try_alloc_f64("w", n).unwrap();
    let pd = g.try_alloc_f64("p", m).unwrap();
    g.flush_caches();
    let mut f1 = FusedExecutor::new(&g);
    f1.try_pattern_sparse(PatternSpec::xtxy(), &xsd, None, &yd, None, &wd)
        .unwrap();
    g.flush_caches();
    let mut b1 = BaselineEngine::try_new(&g, Flavor::CuLibs).unwrap();
    b1.try_pattern_sparse(1.0, &xsd, None, &yd, 0.0, None, &wd, &pd)
        .unwrap();
    let sparse_speedup = b1.total_sim_ms() / f1.total_sim_ms();

    let xdense = fusedml_matrix::gen::dense_random(m, n, 13);
    let xdd = GpuDense::try_upload(&g, "xd", &xdense).unwrap();
    g.flush_caches();
    let mut f2 = FusedExecutor::new(&g);
    f2.try_pattern_dense(PatternSpec::xtxy(), &xdd, None, &yd, None, &wd)
        .unwrap();
    g.flush_caches();
    let mut b2 = BaselineEngine::try_new(&g, Flavor::CuLibs).unwrap();
    b2.try_pattern_dense(1.0, &xdd, None, &yd, 0.0, None, &wd, &pd)
        .unwrap();
    let dense_speedup = b2.total_sim_ms() / f2.total_sim_ms();

    assert!(
        sparse_speedup > 2.0 * dense_speedup,
        "sparse {sparse_speedup}x should dwarf dense {dense_speedup}x"
    );
    assert!(dense_speedup > 1.3, "dense speedup {dense_speedup}");
}

/// Both fused results remain numerically equal to the baseline results —
/// speed never trades correctness.
#[test]
fn all_engines_agree_numerically_at_scale() {
    let g = gpu();
    let (m, n) = (5000, 300);
    let x = uniform_sparse(m, n, 0.02, 15);
    let y = random_vector(n, 16);
    let expect = reference::pattern_csr(1.0, &x, None, &y, 0.0, None);
    let xd = GpuCsr::try_upload(&g, "x", &x).unwrap();
    let yd = g.try_upload_f64("y", &y).unwrap();
    let pd = g.try_alloc_f64("p", m).unwrap();

    let wd = g.try_alloc_f64("w", n).unwrap();
    let mut fused = FusedExecutor::new(&g);
    fused
        .try_pattern_sparse(PatternSpec::xtxy(), &xd, None, &yd, None, &wd)
        .unwrap();
    assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-10);

    for flavor in [Flavor::CuLibs, Flavor::BidmatGpu] {
        let wb = g.try_alloc_f64("wb", n).unwrap();
        let mut e = BaselineEngine::try_new(&g, flavor).unwrap();
        e.try_pattern_sparse(1.0, &xd, None, &yd, 0.0, None, &wb, &pd)
            .unwrap();
        assert!(reference::rel_l2_error(&wb.to_vec_f64(), &expect) < 1e-10);
    }
}
