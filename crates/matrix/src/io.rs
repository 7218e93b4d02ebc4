//! Matrix Market (`.mtx`) I/O — the exchange format the paper's real data
//! sets (KDD 2010, HIGGS) circulate in, so the harness can run on the
//! actual inputs when they are available instead of the synthetic
//! stand-ins.
//!
//! Supports the `matrix coordinate real/integer/pattern general|symmetric`
//! and `matrix array real general` headers, which covers the UF/SuiteSparse
//! collection's common cases.

use crate::coo::Coo;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MtxError {
    Io(std::io::Error),
    /// Malformed or unsupported header line.
    BadHeader(String),
    /// Malformed entry at the given 1-based line number.
    BadEntry {
        line: usize,
        reason: String,
    },
    /// Entry count or coordinates disagree with the size line.
    Inconsistent(String),
}

impl fmt::Display for MtxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MtxError::Io(e) => write!(f, "I/O error: {e}"),
            MtxError::BadHeader(h) => write!(f, "unsupported MatrixMarket header: {h}"),
            MtxError::BadEntry { line, reason } => {
                write!(f, "bad entry on line {line}: {reason}")
            }
            MtxError::Inconsistent(m) => write!(f, "inconsistent matrix: {m}"),
        }
    }
}

impl std::error::Error for MtxError {}

impl From<std::io::Error> for MtxError {
    fn from(e: std::io::Error) -> Self {
        MtxError::Io(e)
    }
}

/// The most entries a reader reserves before reading any. A size line is
/// untrusted: entries arrive one at a time and the final count check
/// rejects a file that promised more than it holds, so the reservation
/// only has to be a good start, not the declared size.
const MAX_RESERVE: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

/// Read a sparse matrix in MatrixMarket coordinate format.
pub fn read_sparse_mtx<R: Read>(reader: R) -> Result<CsrMatrix, MtxError> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    let (_, header) = lines
        .next()
        .ok_or_else(|| MtxError::BadHeader("empty file".into()))?;
    let header = header?;
    let toks: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_lowercase())
        .collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(MtxError::BadHeader(header));
    }
    if toks[2] != "coordinate" {
        return Err(MtxError::BadHeader(format!(
            "{header} (use read_dense_mtx for array format)"
        )));
    }
    let field = match toks[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(MtxError::BadHeader(format!("field '{other}'"))),
    };
    let symmetry = match toks[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => return Err(MtxError::BadHeader(format!("symmetry '{other}'"))),
    };

    // Size line (after comments).
    let mut size_line = None;
    for (idx, line) in lines.by_ref() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some((idx + 1, trimmed.to_string()));
        break;
    }
    let (size_lineno, size) =
        size_line.ok_or_else(|| MtxError::Inconsistent("missing size line".into()))?;
    let dims: Vec<usize> = size
        .split_whitespace()
        .map(|t| {
            t.parse().map_err(|_| MtxError::BadEntry {
                line: size_lineno,
                reason: format!("non-integer size token '{t}'"),
            })
        })
        .collect::<Result<_, _>>()?;
    let [rows, cols, nnz] = dims[..] else {
        return Err(MtxError::BadEntry {
            line: size_lineno,
            reason: "size line must be 'rows cols nnz'".into(),
        });
    };
    if rows > u32::MAX as usize || cols > u32::MAX as usize {
        return Err(MtxError::Inconsistent(format!(
            "{rows} x {cols} exceeds the u32 index space"
        )));
    }
    if symmetry == Symmetry::Symmetric && rows != cols {
        return Err(MtxError::Inconsistent(format!(
            "symmetric matrix must be square, got {rows} x {cols}"
        )));
    }

    let mut coo = Coo::with_capacity(rows, cols, nnz.min(MAX_RESERVE));
    let mut seen = 0usize;
    for (idx, line) in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut toks = trimmed.split_whitespace();
        let (Some(rt), Some(ct)) = (toks.next(), toks.next()) else {
            return Err(MtxError::BadEntry {
                line: idx + 1,
                reason: "expected 'row col [value]'".into(),
            });
        };
        let parse_idx = |t: &str| {
            t.parse::<usize>().map_err(|_| MtxError::BadEntry {
                line: idx + 1,
                reason: format!("bad index '{t}'"),
            })
        };
        let (r1, c1) = (parse_idx(rt)?, parse_idx(ct)?);
        if r1 == 0 || c1 == 0 || r1 > rows || c1 > cols {
            return Err(MtxError::Inconsistent(format!(
                "coordinate ({r1}, {c1}) outside {rows} x {cols} (1-based)"
            )));
        }
        let v = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => {
                let vt = toks.next().ok_or_else(|| MtxError::BadEntry {
                    line: idx + 1,
                    reason: "missing value".into(),
                })?;
                vt.parse::<f64>().map_err(|_| MtxError::BadEntry {
                    line: idx + 1,
                    reason: format!("bad value '{vt}'"),
                })?
            }
        };
        coo.push(r1 - 1, c1 - 1, v);
        if symmetry == Symmetry::Symmetric && r1 != c1 {
            coo.push(c1 - 1, r1 - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(MtxError::Inconsistent(format!(
            "size line promised {nnz} entries, found {seen}"
        )));
    }
    Ok(CsrMatrix::from_coo(&coo))
}

/// Read a dense matrix in MatrixMarket array format (column-major on disk,
/// per the specification).
pub fn read_dense_mtx<R: Read>(reader: R) -> Result<DenseMatrix, MtxError> {
    let mut lines = BufReader::new(reader).lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| MtxError::BadHeader("empty file".into()))?;
    let header = header?;
    let toks: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_lowercase())
        .collect();
    if toks.len() < 5
        || toks[0] != "%%matrixmarket"
        || toks[2] != "array"
        || toks[3] != "real"
        || toks[4] != "general"
    {
        return Err(MtxError::BadHeader(header));
    }

    let mut values: Vec<f64> = Vec::new();
    let mut dims: Option<(usize, usize)> = None;
    for (idx, line) in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        if dims.is_none() {
            let d: Vec<usize> = trimmed
                .split_whitespace()
                .map(|t| {
                    t.parse().map_err(|_| MtxError::BadEntry {
                        line: idx + 1,
                        reason: format!("bad size token '{t}'"),
                    })
                })
                .collect::<Result<_, _>>()?;
            let [rows, cols] = d[..] else {
                return Err(MtxError::BadEntry {
                    line: idx + 1,
                    reason: "array size line must be 'rows cols'".into(),
                });
            };
            let Some(total) = rows.checked_mul(cols) else {
                return Err(MtxError::Inconsistent(format!(
                    "{rows} x {cols} overflows the addressable size"
                )));
            };
            dims = Some((rows, cols));
            values.reserve(total.min(MAX_RESERVE));
            continue;
        }
        for t in trimmed.split_whitespace() {
            values.push(t.parse::<f64>().map_err(|_| MtxError::BadEntry {
                line: idx + 1,
                reason: format!("bad value '{t}'"),
            })?);
        }
    }
    let (rows, cols) = dims.ok_or_else(|| MtxError::Inconsistent("missing size line".into()))?;
    if values.len() != rows * cols {
        return Err(MtxError::Inconsistent(format!(
            "expected {} values, found {}",
            rows * cols,
            values.len()
        )));
    }
    // Column-major on disk -> row-major in memory.
    Ok(DenseMatrix::from_fn(rows, cols, |r, c| {
        values[c * rows + r]
    }))
}

/// Write a CSR matrix as MatrixMarket `coordinate real general`.
pub fn write_sparse_mtx<W: Write>(w: &mut W, x: &CsrMatrix) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by fusedml")?;
    writeln!(w, "{} {} {}", x.rows(), x.cols(), x.nnz())?;
    for r in 0..x.rows() {
        for (c, v) in x.row_entries(r) {
            writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::uniform_sparse;

    #[test]
    fn sparse_roundtrip() {
        let x = uniform_sparse(30, 20, 0.2, 5);
        let mut buf = Vec::new();
        write_sparse_mtx(&mut buf, &x).unwrap();
        let back = read_sparse_mtx(buf.as_slice()).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn parses_pattern_and_comments() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n\
                   % a comment\n\
                   \n\
                   3 4 2\n\
                   1 1\n\
                   3 4\n";
        let x = read_sparse_mtx(src.as_bytes()).unwrap();
        assert_eq!(x.rows(), 3);
        assert_eq!(x.cols(), 4);
        assert_eq!(x.nnz(), 2);
        assert_eq!(x.row_entries(0).collect::<Vec<_>>(), vec![(0, 1.0)]);
        assert_eq!(x.row_entries(2).collect::<Vec<_>>(), vec![(3, 1.0)]);
    }

    #[test]
    fn symmetric_mirrors_off_diagonal() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n\
                   3 3 2\n\
                   2 1 5.0\n\
                   3 3 7.0\n";
        let x = read_sparse_mtx(src.as_bytes()).unwrap();
        assert_eq!(x.nnz(), 3); // (1,0), (0,1), (2,2)
        assert_eq!(x.to_dense().get(0, 1), 5.0);
        assert_eq!(x.to_dense().get(1, 0), 5.0);
        assert_eq!(x.to_dense().get(2, 2), 7.0);
    }

    #[test]
    fn dense_array_is_column_major() {
        let src = "%%MatrixMarket matrix array real general\n\
                   2 3\n\
                   1\n2\n3\n4\n5\n6\n";
        let x = read_dense_mtx(src.as_bytes()).unwrap();
        assert_eq!(x.rows(), 2);
        assert_eq!(x.row(0), &[1.0, 3.0, 5.0]);
        assert_eq!(x.row(1), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            read_sparse_mtx("%%MatrixMarket tensor x y z\n".as_bytes()),
            Err(MtxError::BadHeader(_))
        ));
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(matches!(
            read_sparse_mtx(oob.as_bytes()),
            Err(MtxError::Inconsistent(_))
        ));
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(matches!(
            read_sparse_mtx(short.as_bytes()),
            Err(MtxError::Inconsistent(_))
        ));
        let badval = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n";
        assert!(matches!(
            read_sparse_mtx(badval.as_bytes()),
            Err(MtxError::BadEntry { .. })
        ));
        // A symmetric header on non-square dimensions used to panic when
        // mirroring an off-diagonal entry out of bounds.
        let rect_sym = "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n";
        assert!(matches!(
            read_sparse_mtx(rect_sym.as_bytes()),
            Err(MtxError::Inconsistent(_))
        ));
        // Size lines declaring more entries than any host can hold used to
        // be reserved up front, aborting on the allocation (or panicking on
        // capacity overflow) before the first entry was read.
        for nnz in ["1000000000000", "1000000000000000000"] {
            let huge =
                format!("%%MatrixMarket matrix coordinate real general\n1 1 {nnz}\n1 1 1.0\n");
            assert!(matches!(
                read_sparse_mtx(huge.as_bytes()),
                Err(MtxError::Inconsistent(_))
            ));
        }
        let huge_dense = "%%MatrixMarket matrix array real general\n1000000 1000000\n1.0\n";
        assert!(matches!(
            read_dense_mtx(huge_dense.as_bytes()),
            Err(MtxError::Inconsistent(_))
        ));
    }

    #[test]
    fn bad_entry_reports_the_line_number() {
        let badval =
            "%%MatrixMarket matrix coordinate real general\n% c\n2 2 2\n1 1 2.0\n2 2 abc\n";
        let Err(MtxError::BadEntry { line, reason }) = read_sparse_mtx(badval.as_bytes()) else {
            panic!("expected BadEntry");
        };
        assert_eq!(line, 5);
        assert!(reason.contains("abc"));
    }

    #[test]
    fn error_messages_render() {
        let e = read_sparse_mtx("bogus\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("header"));
    }
}
