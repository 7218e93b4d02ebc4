//! Structural validation errors for the sparse formats.
//!
//! Construction from untrusted parts (raw CSR arrays, width-bounded ELL
//! conversion) reports *which* invariant broke and *where*, so loaders can
//! surface actionable diagnostics.

use std::fmt;

/// A violated storage-format invariant, located as precisely as the
/// check allows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// `row_off` does not hold exactly `rows + 1` offsets.
    OffsetLength { rows: usize, len: usize },
    /// The first offset is not 0.
    OffsetStart { first: usize },
    /// The final offset disagrees with the entry count.
    OffsetEnd { last: usize, nnz: usize },
    /// `col_idx` and `values` differ in length.
    LengthMismatch { col_idx: usize, values: usize },
    /// Offsets decrease between a row and its successor.
    NonMonotoneOffsets {
        row: usize,
        prev: usize,
        next: usize,
    },
    /// Column indices within a row are not strictly increasing.
    UnsortedColumns { row: usize, prev: u32, next: u32 },
    /// A column index is `>= cols`.
    ColumnOutOfRange { row: usize, col: u32, cols: usize },
    /// A row holds more entries than the requested ELL width.
    RowTooWide {
        row: usize,
        row_nnz: usize,
        width: usize,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::OffsetLength { rows, len } => write!(
                f,
                "row_off must have rows+1 entries: {len} offsets for {rows} rows"
            ),
            FormatError::OffsetStart { first } => {
                write!(f, "row_off must start at 0, found {first}")
            }
            FormatError::OffsetEnd { last, nnz } => write!(
                f,
                "row_off must end at nnz: last offset {last}, {nnz} entries"
            ),
            FormatError::LengthMismatch { col_idx, values } => {
                write!(f, "col_idx/values length mismatch: {col_idx} vs {values}")
            }
            FormatError::NonMonotoneOffsets { row, prev, next } => write!(
                f,
                "row_off must be monotone: row {row} spans {prev}..{next}"
            ),
            FormatError::UnsortedColumns { row, prev, next } => write!(
                f,
                "columns within a row must be strictly increasing: row {row} has {prev} before {next}"
            ),
            FormatError::ColumnOutOfRange { row, col, cols } => write!(
                f,
                "column index {col} out of range for {cols} columns (row {row})"
            ),
            FormatError::RowTooWide {
                row,
                row_nnz,
                width,
            } => write!(
                f,
                "row {row} holds {row_nnz} entries, more than the ELL width {width}"
            ),
        }
    }
}

impl std::error::Error for FormatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_keep_the_legacy_panic_substrings() {
        // The messages keep the substrings of the asserts they replaced,
        // which logs and scripts may match on.
        let cases: Vec<(FormatError, &str)> = vec![
            (
                FormatError::OffsetLength { rows: 2, len: 2 },
                "row_off must have rows+1 entries",
            ),
            (
                FormatError::OffsetStart { first: 3 },
                "row_off must start at 0",
            ),
            (
                FormatError::OffsetEnd { last: 4, nnz: 5 },
                "row_off must end at nnz",
            ),
            (
                FormatError::LengthMismatch {
                    col_idx: 1,
                    values: 2,
                },
                "col_idx/values length mismatch",
            ),
            (
                FormatError::NonMonotoneOffsets {
                    row: 0,
                    prev: 2,
                    next: 1,
                },
                "row_off must be monotone",
            ),
            (
                FormatError::UnsortedColumns {
                    row: 0,
                    prev: 2,
                    next: 0,
                },
                "strictly increasing",
            ),
            (
                FormatError::ColumnOutOfRange {
                    row: 0,
                    col: 9,
                    cols: 3,
                },
                "column index 9 out of range",
            ),
            (
                FormatError::RowTooWide {
                    row: 1,
                    row_nnz: 5,
                    width: 3,
                },
                "more than the ELL width",
            ),
        ];
        for (e, needle) in cases {
            assert!(
                e.to_string().contains(needle),
                "{e} should contain {needle:?}"
            );
        }
    }
}
