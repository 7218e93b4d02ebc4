//! Compressed Sparse Column storage — the output of cuSPARSE's `csr2csc`,
//! needed for the explicit-transpose baseline the paper measures against
//! (Fig. 2's amortization study).

use crate::dense::DenseMatrix;
use serde::{Deserialize, Serialize};

/// CSC sparse matrix of f64 with u32 row indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_off: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Build from raw parts, validating the CSC invariants.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        col_off: Vec<usize>,
        row_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(col_off.len(), cols + 1, "col_off must have cols+1 entries");
        assert_eq!(col_off[0], 0);
        assert_eq!(col_off[cols], row_idx.len());
        assert_eq!(row_idx.len(), values.len());
        for c in 0..cols {
            assert!(col_off[c] <= col_off[c + 1], "col_off must be monotone");
        }
        for c in 0..cols {
            let rows_of_col = &row_idx[col_off[c]..col_off[c + 1]];
            for w in rows_of_col.windows(2) {
                assert!(
                    w[0] < w[1],
                    "rows within a column must be strictly increasing"
                );
            }
            if let Some(&last) = rows_of_col.last() {
                assert!((last as usize) < rows, "row index {last} out of range");
            }
        }
        CscMatrix {
            rows,
            cols,
            col_off,
            row_idx,
            values,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    pub fn col_off(&self) -> &[usize] {
        &self.col_off
    }

    pub fn row_idx(&self) -> &[u32] {
        &self.row_idx
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `(row, value)` pairs of column `c`.
    pub fn col_entries(&self, c: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let span = self.col_off[c]..self.col_off[c + 1];
        self.row_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for c in 0..self.cols {
            for (r, v) in self.col_entries(c) {
                d.set(r as usize, c, v);
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;

    #[test]
    fn csc_from_csr_matches() {
        let csr =
            CsrMatrix::try_from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![5.0, 6.0, 7.0])
                .unwrap();
        let csc = csr.to_csc();
        assert_eq!(csc.col_entries(0).collect::<Vec<_>>(), vec![(0, 5.0)]);
        assert_eq!(csc.col_entries(1).collect::<Vec<_>>(), vec![(1, 7.0)]);
        assert_eq!(csc.col_entries(2).collect::<Vec<_>>(), vec![(0, 6.0)]);
        assert_eq!(csc.to_dense(), csr.to_dense());
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn rejects_bad_offsets() {
        CscMatrix::from_parts(2, 2, vec![0, 2, 0], vec![], vec![]);
    }
}
