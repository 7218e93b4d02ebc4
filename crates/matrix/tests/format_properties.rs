//! Property tests on the sparse-format invariants: CSR/CSC/COO round
//! trips, transpose involution, and generator guarantees.

// Needs the real `proptest` crate: gated off in offline builds, where
// `proptest` resolves to a macro-less stub (see the workspace Cargo.toml).
#![cfg(feature = "proptest-tests")]

use fusedml_matrix::gen::{powerlaw_sparse, uniform_sparse};
use fusedml_matrix::{Coo, CsrMatrix, SparseStats};
use proptest::prelude::*;

/// Random COO triplets (with possible duplicates) for structural tests.
fn coo_strategy() -> impl Strategy<Value = Coo> {
    (1usize..40, 1usize..40).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec((0..rows, 0..cols, -10.0f64..10.0), 0..200).prop_map(
            move |triplets| {
                let mut coo = Coo::new(rows, cols);
                for (r, c, v) in triplets {
                    coo.push(r, c, v);
                }
                coo
            },
        )
    })
}

proptest! {
    #[test]
    fn coo_to_csr_preserves_sums(coo in coo_strategy()) {
        let csr = CsrMatrix::from_coo(&coo);
        // Sum of all entries is preserved under duplicate folding.
        let coo_sum: f64 = coo.triplets().iter().map(|(_, _, v)| v).sum();
        let csr_sum: f64 = csr.values().iter().sum();
        prop_assert!((coo_sum - csr_sum).abs() < 1e-9);
        // Invariants hold by construction (from_parts re-validates).
        let _ = CsrMatrix::try_from_parts(
            csr.rows(),
            csr.cols(),
            csr.row_off().to_vec(),
            csr.col_idx().to_vec(),
            csr.values().to_vec(),
        ).unwrap();
    }

    #[test]
    fn transpose_is_an_involution(coo in coo_strategy()) {
        let csr = CsrMatrix::from_coo(&coo);
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn transpose_swaps_dense_entries(coo in coo_strategy()) {
        let csr = CsrMatrix::from_coo(&coo);
        let d = csr.to_dense();
        let t = csr.transpose().to_dense();
        for r in 0..csr.rows() {
            for c in 0..csr.cols() {
                prop_assert_eq!(d.get(r, c), t.get(c, r));
            }
        }
    }

    #[test]
    fn csc_roundtrip_preserves_matrix(coo in coo_strategy()) {
        let csr = CsrMatrix::from_coo(&coo);
        let csc = csr.to_csc();
        prop_assert_eq!(csc.nnz(), csr.nnz());
        prop_assert_eq!(csc.to_dense(), csr.to_dense());
    }

    #[test]
    fn dense_roundtrip(coo in coo_strategy()) {
        let csr = CsrMatrix::from_coo(&coo);
        // from_dense drops explicit zeros; compare through dense form.
        prop_assert_eq!(
            CsrMatrix::from_dense(&csr.to_dense()).to_dense(),
            csr.to_dense()
        );
    }

    #[test]
    fn uniform_generator_is_exact(
        rows in 1usize..200,
        cols in 4usize..200,
        seed in 0u64..1000,
    ) {
        let density = 0.1;
        let x = uniform_sparse(rows, cols, density, seed);
        let per_row = ((cols as f64 * density).round() as usize).min(cols);
        prop_assert_eq!(x.nnz(), rows * per_row);
        let stats = SparseStats::compute(&x);
        prop_assert_eq!(stats.max_nnz_per_row, per_row);
        prop_assert_eq!(stats.min_nnz_per_row, per_row);
    }

    #[test]
    fn powerlaw_generator_bounds(
        rows in 10usize..300,
        seed in 0u64..1000,
    ) {
        let x = powerlaw_sparse(rows, 1000, 6.0, 0.8, seed);
        let stats = SparseStats::compute(&x);
        prop_assert!(stats.min_nnz_per_row >= 1);
        prop_assert!(stats.mean_nnz_per_row >= 1.0);
        // Columns are in range by CSR construction; check determinism.
        prop_assert_eq!(x.clone(), powerlaw_sparse(rows, 1000, 6.0, 0.8, seed));
    }
}
