//! Compressed Sparse Row storage — the device format of the paper's sparse
//! kernels (`values`, `col_idx`, `row_off` in Algorithms 1 and 2).

use crate::coo::Coo;
use crate::csc::CscMatrix;
use crate::dense::DenseMatrix;
use crate::error::FormatError;
use serde::{Deserialize, Serialize};

/// CSR sparse matrix of f64 with u32 column indices.
///
/// ```
/// use fusedml_matrix::CsrMatrix;
///
/// // [1 0 2]
/// // [0 3 0]
/// let x = CsrMatrix::try_from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])?;
/// assert_eq!(x.nnz(), 3);
/// assert_eq!(x.row_entries(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
/// assert_eq!(x.transpose().to_dense(), x.to_dense().transpose());
/// # Ok::<(), fusedml_matrix::FormatError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `rows + 1` offsets into `col_idx`/`values`.
    row_off: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from raw parts, reporting the first violated CSR invariant:
    /// wrong offset length, non-monotone offsets, column index out of
    /// range, or unsorted columns within a row.
    ///
    /// ```
    /// use fusedml_matrix::{CsrMatrix, FormatError};
    ///
    /// let err = CsrMatrix::try_from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
    /// assert_eq!(err, Err(FormatError::ColumnOutOfRange { row: 0, col: 5, cols: 2 }));
    /// ```
    pub fn try_from_parts(
        rows: usize,
        cols: usize,
        row_off: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, FormatError> {
        if row_off.len() != rows + 1 {
            return Err(FormatError::OffsetLength {
                rows,
                len: row_off.len(),
            });
        }
        if row_off[0] != 0 {
            return Err(FormatError::OffsetStart { first: row_off[0] });
        }
        if row_off[rows] != col_idx.len() {
            return Err(FormatError::OffsetEnd {
                last: row_off[rows],
                nnz: col_idx.len(),
            });
        }
        if col_idx.len() != values.len() {
            return Err(FormatError::LengthMismatch {
                col_idx: col_idx.len(),
                values: values.len(),
            });
        }
        for r in 0..rows {
            if row_off[r] > row_off[r + 1] {
                return Err(FormatError::NonMonotoneOffsets {
                    row: r,
                    prev: row_off[r],
                    next: row_off[r + 1],
                });
            }
        }
        for r in 0..rows {
            let cols_of_row = &col_idx[row_off[r]..row_off[r + 1]];
            for w in cols_of_row.windows(2) {
                if w[0] >= w[1] {
                    return Err(FormatError::UnsortedColumns {
                        row: r,
                        prev: w[0],
                        next: w[1],
                    });
                }
            }
            if let Some(&last) = cols_of_row.last() {
                if last as usize >= cols {
                    return Err(FormatError::ColumnOutOfRange {
                        row: r,
                        col: last,
                        cols,
                    });
                }
            }
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_off,
            col_idx,
            values,
        })
    }

    /// An empty matrix with no stored entries.
    pub fn empty(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_off: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
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

    pub fn row_off(&self) -> &[usize] {
        &self.row_off
    }

    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `(col, value)` pairs of row `r`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let span = self.row_off[r]..self.row_off[r + 1];
        self.col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_off[r + 1] - self.row_off[r]
    }

    /// Mean non-zeros per row (the `mu = NNZ / m` of Equation 4).
    pub fn mean_nnz_per_row(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.rows as f64
        }
    }

    /// Sparsity = nnz / (rows * cols).
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Device byte footprint in CSR form (values f64 + col_idx u32 +
    /// row_off u32).
    pub fn size_bytes(&self) -> u64 {
        (self.nnz() * (8 + 4) + (self.rows + 1) * 4) as u64
    }

    /// Convert to CSC (column-compressed), i.e. compute the explicit
    /// transpose layout — what cuSPARSE's `csr2csc` does.
    pub fn to_csc(&self) -> CscMatrix {
        let mut col_counts = vec![0usize; self.cols];
        for &c in &self.col_idx {
            col_counts[c as usize] += 1;
        }
        let mut col_off = vec![0usize; self.cols + 1];
        for c in 0..self.cols {
            col_off[c + 1] = col_off[c] + col_counts[c];
        }
        let mut row_idx = vec![0u32; self.nnz()];
        let mut vals = vec![0.0f64; self.nnz()];
        let mut cursor = col_off.clone();
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                let dst = cursor[c as usize];
                row_idx[dst] = r as u32;
                vals[dst] = v;
                cursor[c as usize] += 1;
            }
        }
        CscMatrix::from_parts(self.rows, self.cols, col_off, row_idx, vals)
    }

    /// The transposed matrix, still in CSR form (CSR of `X^T` == CSC of `X`).
    pub fn transpose(&self) -> CsrMatrix {
        let csc = self.to_csc();
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_off: csc.col_off().to_vec(),
            col_idx: csc.row_idx().to_vec(),
            values: csc.values().to_vec(),
        }
    }

    /// Densify (for testing and small reference computations).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                d.set(r, c as usize, v);
            }
        }
        d
    }

    /// Build from a dense matrix, keeping entries with `|v| > 0`.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let mut row_off = Vec::with_capacity(d.rows() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_off.push(0);
        for r in 0..d.rows() {
            for c in 0..d.cols() {
                let v = d.get(r, c);
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_off.push(col_idx.len());
        }
        CsrMatrix {
            rows: d.rows(),
            cols: d.cols(),
            row_off,
            col_idx,
            values,
        }
    }

    /// The contiguous row range `[start, end)` as its own CSR matrix with
    /// rebased offsets — the shard a row-partitioned multi-device layout
    /// places on one device. The column dimension is preserved (row
    /// sharding splits only the row space), and entries are moved
    /// bit-exactly: no reordering, no re-rounding.
    pub fn slice_rows(&self, start: usize, end: usize) -> CsrMatrix {
        assert!(
            start <= end && end <= self.rows,
            "row slice [{start}, {end}) out of bounds for {} rows",
            self.rows
        );
        let base = self.row_off[start];
        let row_off = self.row_off[start..=end]
            .iter()
            .map(|&o| o - base)
            .collect();
        let span = self.row_off[start]..self.row_off[end];
        CsrMatrix {
            rows: end - start,
            cols: self.cols,
            row_off,
            col_idx: self.col_idx[span.clone()].to_vec(),
            values: self.values[span].to_vec(),
        }
    }

    /// Build from COO triplets (sorted and de-duplicated by summing).
    pub fn from_coo(coo: &Coo) -> Self {
        let mut triplets: Vec<(u32, u32, f64)> = coo.triplets().to_vec();
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_off = vec![0usize; coo.rows() + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(triplets.len());
        let mut values: Vec<f64> = Vec::with_capacity(triplets.len());
        let mut i = 0;
        while i < triplets.len() {
            let (r, c, mut v) = triplets[i];
            i += 1;
            // Duplicate coordinates accumulate.
            while i < triplets.len() && triplets[i].0 == r && triplets[i].1 == c {
                v += triplets[i].2;
                i += 1;
            }
            col_idx.push(c);
            values.push(v);
            row_off[r as usize + 1] = col_idx.len();
        }
        // Empty rows inherit the previous offset.
        for r in 0..coo.rows() {
            row_off[r + 1] = row_off[r + 1].max(row_off[r]);
        }
        CsrMatrix {
            rows: coo.rows(),
            cols: coo.cols(),
            row_off,
            col_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        CsrMatrix::try_from_parts(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(
            m.row_entries(2).collect::<Vec<_>>(),
            vec![(0, 3.0), (1, 4.0)]
        );
        assert!((m.mean_nnz_per_row() - 4.0 / 3.0).abs() < 1e-12);
        assert!((m.density() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        assert_eq!(CsrMatrix::from_dense(&m.to_dense()), m);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        assert_eq!(m.transpose().to_dense(), m.to_dense().transpose());
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn csc_preserves_entries() {
        let m = sample();
        let csc = m.to_csc();
        assert_eq!(csc.nnz(), m.nnz());
        assert_eq!(csc.to_dense(), m.to_dense());
    }

    #[test]
    fn rejects_unsorted_columns() {
        assert_eq!(
            CsrMatrix::try_from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]),
            Err(FormatError::UnsortedColumns {
                row: 0,
                prev: 2,
                next: 0
            })
        );
    }

    #[test]
    fn rejects_out_of_range_column() {
        assert_eq!(
            CsrMatrix::try_from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]),
            Err(FormatError::ColumnOutOfRange {
                row: 0,
                col: 5,
                cols: 2
            })
        );
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::empty(4, 7);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.transpose().rows(), 7);
        assert_eq!(m.mean_nnz_per_row(), 0.0);
    }

    #[test]
    fn slice_rows_rebases_offsets_bit_exactly() {
        let m = sample();
        // Middle slice including the empty row.
        let s = m.slice_rows(1, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 3);
        assert_eq!(s.row_off(), &[0, 0, 2]);
        assert_eq!(
            s.row_entries(1).collect::<Vec<_>>(),
            vec![(0, 3.0), (1, 4.0)]
        );
        // Degenerate slices.
        assert_eq!(m.slice_rows(0, 0).nnz(), 0);
        assert_eq!(m.slice_rows(3, 3).rows(), 0);
        // Full slice is the identity.
        assert_eq!(m.slice_rows(0, 3), m);
        // Concatenating slices covers every entry exactly once.
        let total: usize = (0..3).map(|r| m.slice_rows(r, r + 1).nnz()).sum();
        assert_eq!(total, m.nnz());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_rows_rejects_bad_range() {
        sample().slice_rows(2, 5);
    }

    #[test]
    fn try_from_parts_accepts_valid_input() {
        let m = CsrMatrix::try_from_parts(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap();
        assert_eq!(m, sample());
    }

    #[test]
    fn try_from_parts_reports_each_violation() {
        use crate::error::FormatError as E;
        // Wrong offset length.
        assert_eq!(
            CsrMatrix::try_from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]),
            Err(E::OffsetLength { rows: 2, len: 2 })
        );
        // First offset nonzero.
        assert_eq!(
            CsrMatrix::try_from_parts(1, 2, vec![1, 1], vec![], vec![]),
            Err(E::OffsetStart { first: 1 })
        );
        // Last offset disagrees with nnz.
        assert_eq!(
            CsrMatrix::try_from_parts(1, 2, vec![0, 2], vec![0], vec![1.0]),
            Err(E::OffsetEnd { last: 2, nnz: 1 })
        );
        // col_idx / values mismatch.
        assert_eq!(
            CsrMatrix::try_from_parts(1, 2, vec![0, 1], vec![0], vec![1.0, 2.0]),
            Err(E::LengthMismatch {
                col_idx: 1,
                values: 2
            })
        );
        // Decreasing offsets, located at the offending row.
        assert_eq!(
            CsrMatrix::try_from_parts(2, 2, vec![0, 2, 1], vec![0], vec![1.0]),
            Err(E::NonMonotoneOffsets {
                row: 1,
                prev: 2,
                next: 1
            })
        );
        // Duplicate column (not strictly increasing).
        assert_eq!(
            CsrMatrix::try_from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]),
            Err(E::UnsortedColumns {
                row: 0,
                prev: 1,
                next: 1
            })
        );
        // Column index out of range, located at the offending row.
        assert_eq!(
            CsrMatrix::try_from_parts(2, 2, vec![0, 1, 2], vec![0, 7], vec![1.0, 2.0]),
            Err(E::ColumnOutOfRange {
                row: 1,
                col: 7,
                cols: 2
            })
        );
    }
}
