//! ELLPACK (ELL) sparse storage — the other format of Bell & Garland \[3\],
//! whose CSR-vector kernel the paper's fused kernels build on.
//!
//! Every row is padded to a fixed width `K`; slots are stored
//! **column-major** (`data[slot * rows + row]`), so one-thread-per-row
//! SpMV reads perfectly coalesced. The cost is padding: ELL is great for
//! uniform row lengths (the paper's synthetic sweeps) and terrible for
//! power-law rows (the KDD regime) — which is exactly the trade the
//! extension experiment `repro ell` measures.

use crate::csr::CsrMatrix;
use crate::error::FormatError;
use serde::{Deserialize, Serialize};

/// Column sentinel marking a padding slot.
pub const ELL_PAD: u32 = u32::MAX;

/// An ELLPACK matrix with column-major slot storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EllMatrix {
    rows: usize,
    cols: usize,
    /// Slots per row.
    width: usize,
    /// `width * rows` column indices, slot-major; `ELL_PAD` in padding.
    col_idx: Vec<u32>,
    /// `width * rows` values, slot-major; 0.0 in padding.
    values: Vec<f64>,
    /// True non-zeros (excluding padding).
    nnz: usize,
}

impl EllMatrix {
    /// Convert from CSR with `K = max row length`.
    pub fn from_csr(x: &CsrMatrix) -> Self {
        let width = (0..x.rows()).map(|r| x.row_nnz(r)).max().unwrap_or(0);
        Self::pack(x, width)
    }

    /// Convert from CSR with an explicit width; `None` if any row exceeds
    /// it (use [`crate::hyb::HybMatrix`] to spill instead).
    pub fn from_csr_with_width(x: &CsrMatrix, width: usize) -> Option<Self> {
        Self::try_from_csr_with_width(x, width).ok()
    }

    /// Convert from CSR with an explicit width, reporting *which* row
    /// overflowed when the width is too small — for callers picking a
    /// width from external configuration rather than from the matrix.
    pub fn try_from_csr_with_width(x: &CsrMatrix, width: usize) -> Result<Self, FormatError> {
        if let Some(row) = (0..x.rows()).find(|&r| x.row_nnz(r) > width) {
            return Err(FormatError::RowTooWide {
                row,
                row_nnz: x.row_nnz(row),
                width,
            });
        }
        Ok(Self::pack(x, width))
    }

    /// Lay `x` out in `width` slots per row. Every row must fit.
    pub(crate) fn pack(x: &CsrMatrix, width: usize) -> Self {
        let rows = x.rows();
        let mut col_idx = vec![ELL_PAD; width * rows];
        let mut values = vec![0.0; width * rows];
        for r in 0..rows {
            for (slot, (c, v)) in x.row_entries(r).enumerate() {
                col_idx[slot * rows + r] = c;
                values[slot * rows + r] = v;
            }
        }
        EllMatrix {
            rows,
            cols: x.cols(),
            width,
            col_idx,
            values,
            nnz: x.nnz(),
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn nnz(&self) -> usize {
        self.nnz
    }

    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Stored slots (including padding).
    pub fn slots(&self) -> usize {
        self.width * self.rows
    }

    /// Fraction of stored slots that are padding, in [0, 1).
    pub fn padding_ratio(&self) -> f64 {
        if self.slots() == 0 {
            0.0
        } else {
            1.0 - self.nnz as f64 / self.slots() as f64
        }
    }

    /// Device byte footprint (values + column indices, padding included).
    pub fn size_bytes(&self) -> u64 {
        (self.slots() * (8 + 4)) as u64
    }

    /// Entry at `(row, slot)`, `None` for padding.
    #[inline]
    pub fn entry(&self, row: usize, slot: usize) -> Option<(u32, f64)> {
        let i = slot * self.rows + row;
        let c = self.col_idx[i];
        (c != ELL_PAD).then(|| (c, self.values[i]))
    }

    /// Reference SpMV `p = X * y`.
    pub fn spmv_ref(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.cols);
        (0..self.rows)
            .map(|r| {
                (0..self.width)
                    .filter_map(|s| self.entry(r, s))
                    .map(|(c, v)| v * y[c as usize])
                    .sum()
            })
            .collect()
    }

    /// Back to CSR (exact; drops padding).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = crate::coo::Coo::with_capacity(self.rows, self.cols, self.nnz);
        for r in 0..self.rows {
            for s in 0..self.width {
                if let Some((c, v)) = self.entry(r, s) {
                    coo.push(r, c as usize, v);
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{powerlaw_sparse, random_vector, uniform_sparse};
    use crate::reference;

    #[test]
    fn csr_roundtrip() {
        let x = uniform_sparse(50, 40, 0.1, 3);
        let ell = EllMatrix::from_csr(&x);
        assert_eq!(ell.nnz(), x.nnz());
        assert_eq!(ell.to_csr(), x);
        // Uniform rows: zero padding.
        assert_eq!(ell.padding_ratio(), 0.0);
    }

    #[test]
    fn spmv_matches_csr() {
        let x = powerlaw_sparse(120, 80, 5.0, 0.8, 4);
        let ell = EllMatrix::from_csr(&x);
        let y = random_vector(80, 5);
        let a = ell.spmv_ref(&y);
        let b = reference::csr_mv(&x, &y);
        assert!(reference::max_abs_diff(&a, &b) < 1e-12);
    }

    #[test]
    fn powerlaw_pads_heavily() {
        let x = powerlaw_sparse(500, 2000, 4.0, 0.8, 6);
        let ell = EllMatrix::from_csr(&x);
        assert!(
            ell.padding_ratio() > 0.4,
            "skewed rows should pad: ratio {}",
            ell.padding_ratio()
        );
        assert!(ell.size_bytes() > x.size_bytes());
    }

    #[test]
    fn bounded_width_rejects_long_rows() {
        let x = powerlaw_sparse(100, 200, 6.0, 0.8, 7);
        let max = (0..100).map(|r| x.row_nnz(r)).max().unwrap();
        assert!(EllMatrix::from_csr_with_width(&x, max).is_some());
        assert!(EllMatrix::from_csr_with_width(&x, max - 1).is_none());
    }

    #[test]
    fn bounded_width_error_names_the_overflowing_row() {
        let x =
            CsrMatrix::try_from_parts(2, 3, vec![0, 1, 4], vec![0, 0, 1, 2], vec![1.0; 4]).unwrap();
        let err = EllMatrix::try_from_csr_with_width(&x, 2).unwrap_err();
        assert_eq!(
            err,
            crate::error::FormatError::RowTooWide {
                row: 1,
                row_nnz: 3,
                width: 2
            }
        );
        assert!(err.to_string().contains("row 1"));
        assert!(EllMatrix::try_from_csr_with_width(&x, 3).is_ok());
    }

    #[test]
    fn column_major_layout() {
        // [10 20; 30 0]: slot 0 holds rows' first entries adjacently.
        let x =
            CsrMatrix::try_from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 0], vec![10.0, 20.0, 30.0])
                .unwrap();
        let ell = EllMatrix::from_csr(&x);
        assert_eq!(ell.width(), 2);
        assert_eq!(&ell.values()[0..2], &[10.0, 30.0]); // slot 0, rows 0..2
        assert_eq!(ell.values()[2], 20.0); // slot 1, row 0
        assert_eq!(ell.col_idx()[3], ELL_PAD); // slot 1, row 1: padding
    }

    #[test]
    fn empty_matrix() {
        let x = CsrMatrix::empty(5, 5);
        let ell = EllMatrix::from_csr(&x);
        assert_eq!(ell.width(), 0);
        assert_eq!(ell.spmv_ref(&[0.0; 5]), vec![0.0; 5]);
    }
}
