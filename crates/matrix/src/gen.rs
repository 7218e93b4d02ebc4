//! Synthetic data generators standing in for the paper's workloads.
//!
//! * [`uniform_sparse`] — the synthetic sweep data of §4.1/§4.2: fixed row
//!   count, varying column count, uniform sparsity 0.01.
//! * [`powerlaw_sparse`] — the KDD-2010-shaped ultra-sparse matrix (skewed
//!   row lengths, enormous column space) used where the paper reads the real
//!   KDD Cup 2010 data set; see DESIGN.md for the substitution rationale.
//! * [`dense_random`] — the HIGGS-shaped tall dense matrix (n = 28).

use crate::coo::Coo;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};

/// Uniform-sparsity CSR matrix: each row draws `round(density * cols)`
/// distinct columns uniformly at random. Mirrors the paper's synthetic
/// setup ("number of rows 500k ... sparsity 0.01").
pub fn uniform_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
    assert!((0.0..=1.0).contains(&density));
    let mut rng = StdRng::seed_from_u64(seed);
    let per_row = ((cols as f64 * density).round() as usize).min(cols);
    let mut coo = Coo::with_capacity(rows, cols, rows * per_row);
    let mut picked: Vec<u32> = Vec::with_capacity(per_row);
    for r in 0..rows {
        picked.clear();
        while picked.len() < per_row {
            let c = rng.gen_range(0..cols as u32);
            if !picked.contains(&c) {
                picked.push(c);
            }
        }
        for &c in &picked {
            coo.push(r, c as usize, rng.gen_range(-1.0..1.0));
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Ultra-sparse power-law matrix: each row length is a Zipf draw over
/// `1..=max(4 * mean_nnz_per_row, 2)` with exponent `1 + skew`, less the
/// columns the row draws twice, and column popularity is also skewed (a
/// few very hot features) — the shape of the KDD 2010 data set (mean ~28
/// nnz/row over a 30M-column space). Nothing scales the draw to
/// `mean_nnz_per_row`, which only sets its range, so rows come out much
/// shorter on average: 20000 rows over 1024 columns asking for 10 nnz per
/// row at skew 0.8 get 3.32 (seed `0x5EED`).
pub fn powerlaw_sparse(
    rows: usize,
    cols: usize,
    mean_nnz_per_row: f64,
    skew: f64,
    seed: u64,
) -> CsrMatrix {
    assert!(mean_nnz_per_row >= 1.0);
    assert!(skew > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    // Row lengths: a Zipf draw over 1..=4x the requested mean, unscaled.
    // Column popularity: a mild Zipf over the column space (exponent well
    // below 1 — sparse feature spaces like KDD's 30M n-gram columns have a
    // heavy tail of rare features; even the hottest column holds well
    // under 1% of all non-zeros), scattered across the index range.
    let (Ok(zipf_rows), Ok(zipf_cols)) = (
        Zipf::new((4.0 * mean_nnz_per_row).max(2.0) as u64, 1.0 + skew),
        Zipf::new(cols as u64, 0.3 + skew / 4.0),
    ) else {
        // The asserts above leave a request with no columns as the only one
        // without a Zipf; every row of such a matrix is empty.
        return CsrMatrix::from_coo(&Coo::new(rows, cols));
    };

    let mut coo = Coo::with_capacity(rows, cols, rows * mean_nnz_per_row as usize);
    // Cheap bijective scatter of the popularity rank onto column ids.
    let scatter = |rank: u64| -> usize {
        let h = rank
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            .wrapping_add(seed);
        (h % cols as u64) as usize
    };
    let mut row_cols: Vec<usize> = Vec::new();
    for r in 0..rows {
        let len = (zipf_rows.sample(&mut rng) as usize).max(1);
        row_cols.clear();
        for _ in 0..len {
            let rank = zipf_cols.sample(&mut rng) as u64;
            let c = scatter(rank);
            if !row_cols.contains(&c) {
                row_cols.push(c);
            }
        }
        for &c in &row_cols {
            coo.push(r, c, rng.gen_range(-1.0..1.0));
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Dense random matrix with entries in `[-1, 1)`.
pub fn dense_random(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    DenseMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// Random vector with entries in `[-1, 1)`.
pub fn random_vector(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Random binary label vector in `{-1, +1}` (for the classifiers).
pub fn random_labels(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
        .collect()
}

/// Parameters describing the scaled stand-in for a named real data set.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    pub name: &'static str,
    pub rows: usize,
    pub cols: usize,
    /// For sparse sets: target mean nnz/row. Unused for dense.
    pub mean_nnz_per_row: f64,
    pub sparse: bool,
}

/// KDD Cup 2010 stand-in, scaled by `scale` (1.0 = 1/40 of the real set;
/// see DESIGN.md). Real: 15,009,374 x 29,890,095 with 423,865,484 nnz.
pub fn kdd2010_spec(scale: f64) -> DatasetSpec {
    DatasetSpec {
        name: "KDD2010 (synthetic stand-in)",
        rows: (375_000.0 * scale) as usize,
        cols: (747_000.0 * scale) as usize,
        mean_nnz_per_row: 28.2,
        sparse: true,
    }
}

/// HIGGS stand-in, scaled by `scale` (1.0 = 1/8 of the real set).
/// Real: 11,000,000 x 28 dense.
pub fn higgs_spec(scale: f64) -> DatasetSpec {
    DatasetSpec {
        name: "HIGGS (synthetic stand-in)",
        rows: (1_375_000.0 * scale) as usize,
        cols: 28,
        mean_nnz_per_row: 28.0,
        sparse: false,
    }
}

impl DatasetSpec {
    /// Materialize the sparse variant.
    pub fn build_sparse(&self, seed: u64) -> CsrMatrix {
        assert!(self.sparse, "{} is dense", self.name);
        powerlaw_sparse(self.rows, self.cols, self.mean_nnz_per_row, 0.8, seed)
    }

    /// Materialize the dense variant.
    pub fn build_dense(&self, seed: u64) -> DenseMatrix {
        assert!(!self.sparse, "{} is sparse", self.name);
        dense_random(self.rows, self.cols, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sparse_has_requested_density() {
        let m = uniform_sparse(100, 200, 0.05, 7);
        assert_eq!(m.rows(), 100);
        assert_eq!(m.cols(), 200);
        // 5% of 200 = 10 nnz per row exactly (we draw without replacement).
        assert_eq!(m.nnz(), 1000);
        for r in 0..100 {
            assert_eq!(m.row_nnz(r), 10);
        }
    }

    #[test]
    fn uniform_sparse_deterministic_by_seed() {
        assert_eq!(
            uniform_sparse(50, 64, 0.1, 3),
            uniform_sparse(50, 64, 0.1, 3)
        );
        assert_ne!(
            uniform_sparse(50, 64, 0.1, 3),
            uniform_sparse(50, 64, 0.1, 4)
        );
    }

    #[test]
    fn powerlaw_rows_are_skewed() {
        let m = powerlaw_sparse(2000, 10_000, 8.0, 0.8, 11);
        let mu = m.mean_nnz_per_row();
        assert!(mu >= 1.0, "mean {mu} below minimum");
        let max_row = (0..m.rows()).map(|r| m.row_nnz(r)).max().unwrap();
        let min_row = (0..m.rows()).map(|r| m.row_nnz(r)).min().unwrap();
        assert!(min_row >= 1);
        assert!(
            max_row as f64 > 3.0 * mu,
            "expected skew: max {max_row} vs mean {mu}"
        );
    }

    #[test]
    fn dense_random_in_range() {
        let m = dense_random(10, 10, 5);
        assert!(m.data().iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn dataset_specs_scale() {
        let kdd = kdd2010_spec(0.1);
        assert_eq!(kdd.rows, 37_500);
        let higgs = higgs_spec(0.01);
        assert_eq!(higgs.cols, 28);
        assert_eq!(higgs.rows, 13_750);
    }

    #[test]
    fn labels_are_plus_minus_one() {
        let l = random_labels(100, 1);
        assert!(l.iter().all(|&v| v == 1.0 || v == -1.0));
        assert!(l.contains(&1.0) && l.iter().any(|&v| v == -1.0));
    }
}
