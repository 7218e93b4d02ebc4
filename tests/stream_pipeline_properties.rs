//! Seeded property tests on the copy-engine streaming pipeline, written
//! as plain `#[test]`s over a hand-rolled SplitMix64 generator so they
//! run in offline builds where `proptest` is a compile-surface stub.
//!
//! The properties streaming must uphold:
//!
//! 1. **Bit-identity**: the streamed pattern — and every solver built on
//!    it — produces exactly the bits of the non-streamed fused path
//!    (single chunk, depth 1) for any chunk size, pipeline depth 1-4,
//!    queue count and residency budget, budget 0 included. Streaming is
//!    a cost/capacity decision, never a numerical one.
//! 2. **Schedule sanity**: the modeled pipeline wall is the serial model
//!    exactly at depth 1, never exceeds the serial model, and is
//!    non-increasing in pipeline depth.
//! 3. **Plan hoisting**: a streamed pass computes launch plans per
//!    distinct chunk *shape* (body + remainder, at most two), not per
//!    chunk, no matter how the row count decomposes.

use fusedml_core::PatternSpec;
use fusedml_gpu_sim::{DeviceError, DeviceSpec, Gpu};
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_matrix::reference::csr_mv;
use fusedml_matrix::{Coo, CsrMatrix};
use fusedml_ml::{
    try_glm, try_hits, try_logreg, try_lr_cg, try_svm, Backend, Family, GlmOptions, HitsOptions,
    LogRegOptions, LrCgOptions, SvmOptions,
};
use fusedml_runtime::{SparseStreamer, StreamConfig, StreamedBackend, TransferModel};

/// SplitMix64: tiny, seedable, and good enough to sweep configurations.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn gpu() -> Gpu {
    Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
}

fn bits(w: &[f64]) -> Vec<u64> {
    w.iter().map(|x| x.to_bits()).collect()
}

const DEPTHS: [usize; 4] = [1, 2, 3, 4];

/// Three residency regimes: re-stream everything, keep roughly half the
/// matrix resident, keep all of it resident.
fn budgets(x: &CsrMatrix) -> [u64; 3] {
    [0, x.size_bytes() / 2, u64::MAX]
}

/// Property 1 at the operator level: random matrices, random (mostly
/// non-dividing) chunk sizes, all depths, all residency regimes — the
/// streamed pattern's bits never move, warm residency passes included.
#[test]
fn streamed_pattern_bits_are_invariant_across_configs() {
    let mut rng = Rng::new(0x57_12EA);
    for seed in [11u64, 12, 13] {
        let m = 200 + rng.below(400);
        let n = 16 + rng.below(80);
        let x = uniform_sparse(m, n, 0.06, seed);
        let y = random_vector(n, seed + 1);
        let v = random_vector(m, seed + 2);
        let z = random_vector(n, seed + 3);
        let spec = PatternSpec::full(1.25, -0.5);
        let g = gpu();

        let run = |cfg: StreamConfig, passes: usize| {
            let mut s = SparseStreamer::try_new(&g, &x, TransferModel::native(), cfg)
                .unwrap_or_else(|e| panic!("{e}"));
            let mut w = vec![0.0; n];
            for _ in 0..passes {
                s.try_pattern_host(spec, Some(&v), &y, Some(&z), &mut w)
                    .unwrap_or_else(|e| panic!("{e}"));
            }
            w
        };
        // The non-streamed fused path: one chunk, no pipeline.
        let reference = run(StreamConfig::fixed(m, 1), 1);

        for depth in DEPTHS {
            for cap in budgets(&x) {
                let chunk = 1 + rng.below(m + 50); // non-dividing in general
                let queues = 1 + rng.below(3);
                let cfg = StreamConfig::fixed(chunk, depth)
                    .with_queues(queues)
                    .with_residency(cap);
                // Two passes so warm residency serves the second.
                let w = run(cfg, 2);
                assert_eq!(
                    bits(&reference),
                    bits(&w),
                    "seed={seed} chunk={chunk} depth={depth} queues={queues} cap={cap}"
                );
            }
        }
    }
}

/// Property 2: depth 1 is the serial model exactly; deeper pipelines only
/// help; nothing ever beats the serial model's own components or exceeds
/// their sum.
#[test]
fn overlap_model_is_monotone_in_depth_and_bounded_by_serial() {
    let mut rng = Rng::new(0xB0BB1E5);
    for seed in [21u64, 22, 23, 24] {
        let m = 400 + rng.below(3000);
        let n = 32 + rng.below(160);
        let x = uniform_sparse(m, n, 0.05, seed);
        let y = random_vector(n, seed + 1);
        let chunk = 1 + rng.below(m);
        let mut prev = f64::INFINITY;
        for depth in DEPTHS {
            // Fresh device per depth: the simulator keeps its L2 warm
            // across launches, so back-to-back runs on one device see
            // different kernel costs — the property under test is the
            // schedule, not cache weather.
            let g = gpu();
            let mut s = SparseStreamer::try_new(
                &g,
                &x,
                TransferModel::native(),
                StreamConfig::fixed(chunk, depth),
            )
            .unwrap_or_else(|e| panic!("{e}"));
            let mut w = vec![0.0; n];
            let r = s
                .try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(
                r.overlapped_ms <= r.serial_ms + 1e-9,
                "seed={seed} depth={depth}: overlap {} > serial {}",
                r.overlapped_ms,
                r.serial_ms
            );
            if depth == 1 {
                assert!(
                    (r.overlapped_ms - r.serial_ms).abs() < 1e-9,
                    "seed={seed}: depth 1 must equal serial ({} vs {})",
                    r.overlapped_ms,
                    r.serial_ms
                );
            }
            assert!(
                r.overlapped_ms <= prev + 1e-9,
                "seed={seed}: wall grew from {prev} to {} at depth {depth}",
                r.overlapped_ms
            );
            prev = r.overlapped_ms;
        }
    }
}

/// Property 3: launch-plan work scales with distinct chunk shapes (one
/// when the chunking divides the rows, two otherwise), never with the
/// chunk count, and repeat passes plan nothing.
#[test]
fn chunk_plans_scale_with_shapes_not_chunks() {
    let mut rng = Rng::new(0x9_1A75);
    for seed in [31u64, 32, 33] {
        let m = 300 + rng.below(900);
        let n = 24 + rng.below(60);
        let x = uniform_sparse(m, n, 0.08, seed);
        let y = random_vector(n, seed + 1);
        let chunk = 1 + rng.below(m - 1);
        let g = gpu();
        let mut s = SparseStreamer::try_new(
            &g,
            &x,
            TransferModel::native(),
            StreamConfig::fixed(chunk, 2),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        s.set_plan_cache(true);
        let mut w = vec![0.0; n];
        for _ in 0..3 {
            s.try_pattern_host(PatternSpec::xtxy(), None, &y, None, &mut w)
                .unwrap_or_else(|e| panic!("{e}"));
        }
        let distinct_shapes = if m % chunk == 0 { 1 } else { 2 };
        let stats = s.chunk_plan_stats();
        assert_eq!(
            stats.plans_computed(),
            distinct_shapes,
            "seed={seed} m={m} chunk={chunk}: {} chunks, stats {stats:?}",
            s.chunk_count()
        );
    }
}

// ---------------------------------------------------------------------
// Solver-level bit-identity: the five iterative solvers + PageRank.
// ---------------------------------------------------------------------

/// Run `solve` against a `StreamedBackend` at the given configuration.
fn with_backend<R>(
    x: &CsrMatrix,
    cfg: StreamConfig,
    solve: impl FnOnce(&mut StreamedBackend) -> R,
) -> R {
    let g = gpu();
    let mut b = SparseStreamer::try_new(&g, x, TransferModel::native(), cfg)
        .and_then(SparseStreamer::try_into_backend)
        .unwrap_or_else(|e| panic!("{e}"));
    solve(&mut b)
}

/// Sweep depths 1-4 x three residency budgets and assert the solver's
/// result bits equal the non-streamed (single-chunk, depth-1) run.
fn assert_solver_bit_identical(
    name: &str,
    x: &CsrMatrix,
    chunk: usize,
    solve: &dyn Fn(&mut StreamedBackend) -> Vec<f64>,
) {
    let reference = with_backend(x, StreamConfig::fixed(x.rows(), 1), solve);
    for depth in DEPTHS {
        for cap in budgets(x) {
            let cfg = StreamConfig::fixed(chunk, depth).with_residency(cap);
            let w = with_backend(x, cfg, solve);
            assert_eq!(
                bits(&reference),
                bits(&w),
                "{name}: chunk={chunk} depth={depth} cap={cap}"
            );
        }
    }
}

/// ±1 labels from a noiseless linear score (the solver crates' idiom).
fn sign_labels(x: &CsrMatrix, seed: u64) -> Vec<f64> {
    let w_true = random_vector(x.cols(), seed);
    csr_mv(x, &w_true)
        .iter()
        .map(|&s| if s >= 0.0 { 1.0 } else { -1.0 })
        .collect()
}

#[test]
fn lr_cg_streams_bit_identically() {
    let x = uniform_sparse(240, 20, 0.15, 41);
    let labels = random_vector(240, 42);
    let opts = LrCgOptions {
        eps: 0.001,
        tolerance: 0.0,
        max_iterations: 6,
    };
    assert_solver_bit_identical("lr_cg", &x, 71, &|b| {
        try_lr_cg(b, &labels, opts)
            .unwrap_or_else(|e| panic!("{e}"))
            .weights
    });
}

#[test]
fn logreg_streams_bit_identically() {
    let x = uniform_sparse(220, 18, 0.18, 43);
    let labels = sign_labels(&x, 44);
    let opts = LogRegOptions {
        lambda: 1e-3,
        max_outer: 3,
        max_inner_cg: 5,
        grad_tol: 0.0,
    };
    assert_solver_bit_identical("logreg", &x, 63, &|b| {
        try_logreg(b, &labels, opts)
            .unwrap_or_else(|e| panic!("{e}"))
            .weights
    });
}

#[test]
fn svm_streams_bit_identically() {
    let x = uniform_sparse(200, 16, 0.2, 45);
    let labels = sign_labels(&x, 46);
    let opts = SvmOptions {
        lambda: 1e-2,
        max_outer: 3,
        max_inner_cg: 5,
        grad_tol: 0.0,
    };
    assert_solver_bit_identical("svm", &x, 59, &|b| {
        try_svm(b, &labels, opts)
            .unwrap_or_else(|e| panic!("{e}"))
            .weights
    });
}

#[test]
fn glm_streams_bit_identically() {
    let x = uniform_sparse(200, 16, 0.2, 47);
    // Deterministic non-negative pseudo-counts around the linear score.
    let targets: Vec<f64> = {
        let w_true = random_vector(16, 48);
        csr_mv(&x, &w_true)
            .iter()
            .map(|&s| (2.0 * s.abs()).round())
            .collect()
    };
    let opts = GlmOptions {
        family: Family::Poisson,
        lambda: 1e-3,
        max_outer: 3,
        max_inner_cg: 5,
        grad_tol: 0.0,
    };
    assert_solver_bit_identical("glm", &x, 47, &|b| {
        try_glm(b, &targets, opts)
            .unwrap_or_else(|e| panic!("{e}"))
            .weights
    });
}

#[test]
fn hits_streams_bit_identically() {
    // Rectangular bipartite-style adjacency: hubs x authorities.
    let x = uniform_sparse(150, 90, 0.06, 49);
    let opts = HitsOptions {
        max_iterations: 8,
        tolerance: 0.0,
    };
    assert_solver_bit_identical("hits", &x, 44, &|b| {
        let r = try_hits(b, opts).unwrap_or_else(|e| panic!("{e}"));
        let mut out = r.authorities;
        out.extend_from_slice(&r.hubs);
        out
    });
}

/// PageRank's iteration through the backend surface (the DAG solver is
/// device-whole by construction): `r' = d * L^T (r (.) inv_deg) +
/// teleport * ones`, each product streamed.
fn pagerank_streamed(
    b: &mut StreamedBackend,
    inv_deg: &[f64],
    damping: f64,
    iters: usize,
) -> Result<Vec<f64>, DeviceError> {
    let n = b.cols();
    let teleport = (1.0 - damping) / n as f64;
    let invd = b.try_from_host("pr.invdeg", inv_deg)?;
    let ones = b.try_from_host("pr.ones", &vec![1.0; n])?;
    let r = b.try_from_host("pr.r", &vec![1.0 / n as f64; n])?;
    let mut scaled = b.try_zeros("pr.scaled", n)?;
    let mut next = b.try_zeros("pr.next", n)?;
    let mut cur = r;
    for _ in 0..iters {
        b.try_ewmul(&cur, &invd, &mut scaled)?;
        b.try_tmv(damping, &scaled, &mut next)?;
        b.try_axpy(teleport, &ones, &mut next)?;
        b.try_copy(&next, &mut cur)?;
    }
    Ok(b.to_host(&cur))
}

#[test]
fn pagerank_streams_bit_identically() {
    // i -> i+1 ring plus every page linking page 0.
    let n = 96;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, (i + 1) % n, 1.0);
        if i != 0 {
            coo.push(i, 0, 1.0);
        }
    }
    let links = CsrMatrix::from_coo(&coo);
    let inv_deg: Vec<f64> = (0..n)
        .map(|r| {
            let deg: f64 = links.row_entries(r).map(|(_, v)| v).sum();
            if deg > 0.0 {
                1.0 / deg
            } else {
                0.0
            }
        })
        .collect();
    assert_solver_bit_identical("pagerank", &links, 29, &|b| {
        pagerank_streamed(b, &inv_deg, 0.85, 10).unwrap_or_else(|e| panic!("{e}"))
    });
}
