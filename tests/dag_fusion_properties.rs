//! Seeded property tests on the DAG fusion compiler, written as plain
//! `#[test]`s over a hand-rolled SplitMix64 generator so they run in
//! offline builds where `proptest` is a compile-surface stub.
//!
//! The two properties the compiler must uphold:
//!
//! 1. **Bit-identity**: for random small operator DAGs, the cost-selected
//!    fused plan computes exactly the same output vector and dot scalars
//!    as the unfused one-kernel-per-operator reference plan — fusion only
//!    changes *where* intermediates live, never the arithmetic order.
//! 2. **Determinism**: plan selection for a fixed [`DeviceSpec`] and
//!    matrix shape is a pure function — repeated compilations agree on
//!    the winner, every group's modeled cost to the bit, and the full
//!    rejected-candidate ledger. This is what lets the CI plan-regression
//!    gate diff dumps byte-for-byte.

use fusedml_blas::{GpuCsr, GpuDense};
use fusedml_core::{
    select_plan, unfused_plan, Dag, DagBuilder, DagExecutor, DagInputs, DagMatrix, Dim,
    MatrixShape, ScalarRef,
};
use fusedml_gpu_sim::{DeviceSpec, Gpu};
use fusedml_matrix::gen::{dense_random, random_vector, uniform_sparse};

/// SplitMix64: tiny, seedable, and good enough to sweep DAG space.
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

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Build a random well-formed DAG: two external inputs, one matrix
/// product as the anchor (so a computed vector output always exists),
/// then a handful of dimension-respecting random operators. Scalars are
/// literals most of the time and named parameters occasionally, so both
/// resolution paths get exercised.
fn random_dag(rng: &mut Rng) -> Dag {
    let mut b = DagBuilder::new();
    let y0 = b.input("y0", Dim::Cols);
    let u0 = b.input("u0", Dim::Rows);
    let mut vectors: Vec<(usize, Dim)> = vec![(y0, Dim::Cols), (u0, Dim::Rows)];
    let mut computed: Vec<(usize, Dim)> = Vec::new();

    let push =
        |vectors: &mut Vec<(usize, Dim)>, computed: &mut Vec<(usize, Dim)>, n: usize, d: Dim| {
            vectors.push((n, d));
            computed.push((n, d));
        };

    let anchor = if rng.below(2) == 0 {
        (b.mv(y0), Dim::Rows)
    } else {
        (b.tmv(u0), Dim::Cols)
    };
    push(&mut vectors, &mut computed, anchor.0, anchor.1);

    let extra_ops = 2 + rng.below(5);
    for _ in 0..extra_ops {
        let same_dim = |vectors: &[(usize, Dim)], d: Dim| -> Vec<usize> {
            vectors
                .iter()
                .filter(|&&(_, dd)| dd == d)
                .map(|&(n, _)| n)
                .collect()
        };
        match rng.below(6) {
            0 => {
                let cols = same_dim(&vectors, Dim::Cols);
                let a = cols[rng.below(cols.len())];
                let n = b.mv(a);
                push(&mut vectors, &mut computed, n, Dim::Rows);
            }
            1 => {
                let rows = same_dim(&vectors, Dim::Rows);
                let a = rows[rng.below(rows.len())];
                let n = b.tmv(a);
                push(&mut vectors, &mut computed, n, Dim::Cols);
            }
            2 => {
                let (a, d) = vectors[rng.below(vectors.len())];
                let peers = same_dim(&vectors, d);
                let c = peers[rng.below(peers.len())];
                let n = b.ewmul(a, c);
                push(&mut vectors, &mut computed, n, d);
            }
            3 => {
                let (a, d) = vectors[rng.below(vectors.len())];
                let alpha = if rng.below(4) == 0 {
                    ScalarRef::Param("alpha")
                } else {
                    ScalarRef::Lit(rng.f64() * 3.0 - 1.5)
                };
                let n = b.scale(a, alpha);
                push(&mut vectors, &mut computed, n, d);
            }
            4 => {
                let (a, d) = vectors[rng.below(vectors.len())];
                let peers = same_dim(&vectors, d);
                let c = peers[rng.below(peers.len())];
                let beta = if rng.below(4) == 0 {
                    ScalarRef::Param("beta")
                } else {
                    ScalarRef::Lit(rng.f64() * 2.0 - 1.0)
                };
                let n = b.axpy(a, beta, c);
                push(&mut vectors, &mut computed, n, d);
            }
            _ => {
                let (a, d) = vectors[rng.below(vectors.len())];
                let peers = same_dim(&vectors, d);
                let c = peers[rng.below(peers.len())];
                b.dot(a, c);
            }
        }
    }

    let out = computed[rng.below(computed.len())].0;
    b.finish(out)
}

/// Run one DAG under the cost-selected plan and under the unfused
/// reference plan on the same device, and demand bit-identical results.
fn assert_fused_matches_unfused(gpu: &Gpu, dag: &Dag, x: &DagMatrix<'_>, seed: u64) {
    let shape = x.shape();
    let (m, n) = (shape.rows, shape.cols);
    let y0 = gpu
        .try_upload_f64("y0", &random_vector(n, seed + 10))
        .unwrap();
    let u0 = gpu
        .try_upload_f64("u0", &random_vector(m, seed + 11))
        .unwrap();
    let inputs = DagInputs::new()
        .vector("y0", &y0)
        .vector("u0", &u0)
        .scalar("alpha", 0.75)
        .scalar("beta", -1.25);
    let out_dim = dag.dim(dag.output()).expect("output is a vector");
    let out_len = shape.dim_len(out_dim);

    let mut dexec = DagExecutor::try_new(gpu).unwrap();
    let fused_out = gpu.try_alloc_f64("out.fused", out_len).unwrap();
    let run = dexec
        .try_run(dag, x, &inputs, &fused_out)
        .expect("selected plan must execute");

    let reference = unfused_plan(gpu.spec(), dag, shape).expect("unfused plan must build");
    let unfused_out = gpu.try_alloc_f64("out.unfused", out_len).unwrap();
    let ref_scalars = dexec
        .try_run_with_plan(&reference, dag, x, &inputs, &unfused_out)
        .expect("unfused plan must execute");

    // The unfused grouping is always in the candidate set, so the
    // cost-based winner can never model slower than it.
    assert!(
        run.plan.modeled_ms <= reference.modeled_ms,
        "seed {seed}: selected '{}' ({} ms) models slower than unfused ({} ms)",
        run.plan.desc,
        run.plan.modeled_ms,
        reference.modeled_ms
    );

    for i in 0..out_len {
        assert_eq!(
            fused_out.host_read_f64(i).to_bits(),
            unfused_out.host_read_f64(i).to_bits(),
            "seed {seed}: plan '{}' diverges from unfused at out[{i}] ({} vs {})",
            run.plan.desc,
            fused_out.host_read_f64(i),
            unfused_out.host_read_f64(i)
        );
    }
    assert_eq!(
        run.scalars.keys().collect::<Vec<_>>(),
        ref_scalars.keys().collect::<Vec<_>>(),
        "seed {seed}: the two plans computed different dot nodes"
    );
    for (node, v) in &run.scalars {
        assert_eq!(
            v.to_bits(),
            ref_scalars[node].to_bits(),
            "seed {seed}: dot node {node} diverges ({v} vs {})",
            ref_scalars[node]
        );
    }
}

#[test]
fn random_sparse_dags_match_the_unfused_reference_bit_for_bit() {
    let gpu = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
    for seed in 0..24u64 {
        let mut rng = Rng::new(0xda6f051 ^ seed.wrapping_mul(0x9e37));
        let m = 24 + rng.below(80);
        let n = 16 + rng.below(64);
        let dag = random_dag(&mut rng);
        let x = uniform_sparse(m, n, 0.05 + rng.f64() * 0.15, seed);
        let xd = GpuCsr::try_upload(&gpu, "x", &x).unwrap();
        assert_fused_matches_unfused(&gpu, &dag, &DagMatrix::Sparse(&xd), seed);
    }
}

#[test]
fn random_dense_dags_match_the_unfused_reference_bit_for_bit() {
    let gpu = Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1);
    for seed in 0..8u64 {
        let mut rng = Rng::new(0xde_57ed ^ seed.wrapping_mul(0x51f7));
        let m = 24 + rng.below(48);
        let n = 16 + rng.below(40);
        let dag = random_dag(&mut rng);
        let x = dense_random(m, n, seed);
        let xd = GpuDense::try_upload(&gpu, "X", &x).unwrap();
        assert_fused_matches_unfused(&gpu, &dag, &DagMatrix::Dense(&xd), seed);
    }
}

#[test]
fn plan_selection_is_deterministic_for_a_fixed_device() {
    for seed in 0..16u64 {
        let mut rng = Rng::new(0x5e1ec7 ^ seed.wrapping_mul(0xabcd));
        let dag = random_dag(&mut rng);
        let shape = MatrixShape {
            rows: 500 + rng.below(4000),
            cols: 300 + rng.below(2000),
            nnz: 10_000 + rng.next() % 100_000,
            dense: false,
        };
        // Two independently constructed specs: determinism must come from
        // the spec's *values*, not from shared state.
        let a = select_plan(&DeviceSpec::gtx_titan(), &dag, shape).expect("plan");
        let b = select_plan(&DeviceSpec::gtx_titan(), &dag, shape).expect("plan");
        assert_eq!(a.dag_fingerprint, b.dag_fingerprint);
        assert_eq!(a.desc, b.desc, "seed {seed}: different winner");
        assert_eq!(
            a.modeled_ms.to_bits(),
            b.modeled_ms.to_bits(),
            "seed {seed}: modeled cost drifted between compilations"
        );
        assert_eq!(a.groups.len(), b.groups.len());
        for (ga, gb) in a.groups.iter().zip(&b.groups) {
            assert_eq!(ga.desc, gb.desc, "seed {seed}");
            assert_eq!(
                ga.modeled_ms.to_bits(),
                gb.modeled_ms.to_bits(),
                "seed {seed}"
            );
            assert_eq!(ga.dram_bytes, gb.dram_bytes, "seed {seed}");
            assert_eq!(ga.launches, gb.launches, "seed {seed}");
        }
        assert_eq!(a.materialized, b.materialized, "seed {seed}");
        assert_eq!(a.in_registers, b.in_registers, "seed {seed}");
        assert_eq!(a.rejected.len(), b.rejected.len(), "seed {seed}");
        for (ra, rb) in a.rejected.iter().zip(&b.rejected) {
            assert_eq!(ra.desc, rb.desc, "seed {seed}");
            assert_eq!(
                ra.modeled_ms.to_bits(),
                rb.modeled_ms.to_bits(),
                "seed {seed}"
            );
        }
        // The fingerprint is structural: rebuilding the same random DAG
        // from the same seed must reproduce it.
        let again = random_dag(&mut Rng::new(0x5e1ec7 ^ seed.wrapping_mul(0xabcd)));
        assert_eq!(dag.fingerprint(), again.fingerprint(), "seed {seed}");
    }
}
