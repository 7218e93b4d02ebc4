//! HYB (hybrid ELL + COO) storage, Bell & Garland's remedy for ELL's
//! padding blow-up on skewed rows: the typical prefix of every row lives
//! in a fixed-width ELL part (coalesced, padding-bounded) and the long
//! tail spills into a COO list processed with atomics.

use crate::csr::CsrMatrix;
use crate::ell::EllMatrix;
use serde::{Deserialize, Serialize};

/// A hybrid ELL + COO matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybMatrix {
    ell: EllMatrix,
    /// Overflow triplets `(row, col, value)`, row-sorted.
    coo: Vec<(u32, u32, f64)>,
    cols: usize,
}

impl HybMatrix {
    /// Split `x` at `width` slots per row; entries beyond spill to COO.
    pub fn from_csr(x: &CsrMatrix, width: usize) -> Self {
        let rows = x.rows();
        // Truncate each row to `width` for the ELL part.
        let mut ell_coo = crate::coo::Coo::with_capacity(rows, x.cols(), rows * width);
        let mut overflow = Vec::new();
        for r in 0..rows {
            for (slot, (c, v)) in x.row_entries(r).enumerate() {
                if slot < width {
                    ell_coo.push(r, c as usize, v);
                } else {
                    overflow.push((r as u32, c, v));
                }
            }
        }
        let ell_csr = CsrMatrix::from_coo(&ell_coo);
        // Every row was truncated to `width` above.
        let ell = EllMatrix::pack(&ell_csr, width);
        HybMatrix {
            ell,
            coo: overflow,
            cols: x.cols(),
        }
    }

    /// The width that keeps the expected padding bounded: Bell & Garland
    /// suggest the largest `K` such that at least `fraction` of rows have
    /// `>= K` entries (they use 1/3).
    pub fn suggested_width(x: &CsrMatrix, fraction: f64) -> usize {
        assert!((0.0..=1.0).contains(&fraction));
        let mut lens: Vec<usize> = (0..x.rows()).map(|r| x.row_nnz(r)).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        let idx = ((x.rows() as f64 * fraction) as usize).min(lens.len().saturating_sub(1));
        lens.get(idx).copied().unwrap_or(0).max(1)
    }

    pub fn ell(&self) -> &EllMatrix {
        &self.ell
    }

    pub fn coo(&self) -> &[(u32, u32, f64)] {
        &self.coo
    }

    pub fn rows(&self) -> usize {
        self.ell.rows()
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn nnz(&self) -> usize {
        self.ell.nnz() + self.coo.len()
    }

    /// Fraction of non-zeros in the COO tail.
    pub fn overflow_ratio(&self) -> f64 {
        if self.nnz() == 0 {
            0.0
        } else {
            self.coo.len() as f64 / self.nnz() as f64
        }
    }

    pub fn size_bytes(&self) -> u64 {
        self.ell.size_bytes() + (self.coo.len() * (4 + 4 + 8)) as u64
    }

    /// Reference SpMV `p = X * y`.
    pub fn spmv_ref(&self, y: &[f64]) -> Vec<f64> {
        let mut p = self.ell.spmv_ref(y);
        for &(r, c, v) in &self.coo {
            p[r as usize] += v * y[c as usize];
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{powerlaw_sparse, random_vector, uniform_sparse};
    use crate::reference;

    #[test]
    fn split_preserves_spmv() {
        let x = powerlaw_sparse(300, 150, 6.0, 0.8, 8);
        for width in [1usize, 2, 4, 8] {
            let hyb = HybMatrix::from_csr(&x, width);
            assert_eq!(hyb.nnz(), x.nnz(), "width {width}");
            let y = random_vector(150, 9);
            let a = hyb.spmv_ref(&y);
            let b = reference::csr_mv(&x, &y);
            assert!(
                reference::max_abs_diff(&a, &b) < 1e-12,
                "width {width} mismatch"
            );
        }
    }

    #[test]
    fn overflow_shrinks_with_width() {
        let x = powerlaw_sparse(400, 300, 8.0, 0.8, 10);
        let narrow = HybMatrix::from_csr(&x, 2);
        let wide = HybMatrix::from_csr(&x, 16);
        assert!(narrow.overflow_ratio() > wide.overflow_ratio());
    }

    #[test]
    fn hyb_stores_less_than_ell_on_skewed_data() {
        let x = powerlaw_sparse(1000, 4000, 4.0, 0.8, 11);
        let full_ell = EllMatrix::from_csr(&x);
        let k = HybMatrix::suggested_width(&x, 1.0 / 3.0);
        let hyb = HybMatrix::from_csr(&x, k);
        assert!(
            hyb.size_bytes() < full_ell.size_bytes(),
            "hyb {} vs ell {}",
            hyb.size_bytes(),
            full_ell.size_bytes()
        );
    }

    #[test]
    fn uniform_rows_have_no_overflow_at_their_width() {
        let x = uniform_sparse(100, 200, 0.05, 12); // 10 nnz/row exactly
        let hyb = HybMatrix::from_csr(&x, 10);
        assert_eq!(hyb.overflow_ratio(), 0.0);
        assert_eq!(hyb.ell().padding_ratio(), 0.0);
    }

    #[test]
    fn suggested_width_is_sane() {
        let x = powerlaw_sparse(500, 300, 6.0, 0.8, 13);
        let k = HybMatrix::suggested_width(&x, 1.0 / 3.0);
        assert!(k >= 1);
        let hyb = HybMatrix::from_csr(&x, k);
        // The heuristic keeps both padding and overflow moderate.
        assert!(hyb.ell().padding_ratio() < 0.8);
        assert!(hyb.overflow_ratio() < 0.7);
    }
}
