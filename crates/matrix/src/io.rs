//! Matrix Market exchange-format I/O.
//!
//! Supports the `matrix coordinate` container with `real`, `integer` and
//! `pattern` fields and `general` / `symmetric` / `skew-symmetric`
//! symmetry. This is the format essentially every published sparse matrix
//! collection uses, so a downstream user can feed their own matrices into
//! the benchmark harness.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::{MatrixError, Result};
use std::io::{BufRead, Write};

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
    SkewSymmetric,
}

/// Builds a line-positioned parse error (1-based line numbers, the
/// convention every text editor uses).
fn err_at(line: usize, msg: impl Into<String>) -> MatrixError {
    MatrixError::ParseAt {
        line,
        msg: msg.into(),
    }
}

/// Reads a matrix in Matrix Market coordinate format.
///
/// Errors carry the 1-based line number of the offending record
/// ([`MatrixError::ParseAt`]); the resulting matrix has passed the full
/// CSR invariant validation of [`CsrMatrix::try_new`].
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<CsrMatrix> {
    let mut lines = reader.lines().enumerate();
    let header = match lines.next() {
        Some((_, Ok(l))) => l,
        Some((_, Err(e))) => return Err(err_at(1, e.to_string())),
        None => return Err(MatrixError::Parse("empty input".into())),
    };
    let h: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if h.len() < 5 || h[0] != "%%matrixmarket" || h[1] != "matrix" {
        return Err(err_at(1, format!("bad header: {header}")));
    }
    if h[2] != "coordinate" {
        return Err(err_at(1, format!("unsupported container: {}", h[2])));
    }
    let field = match h[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(err_at(1, format!("unsupported field: {other}"))),
    };
    let symmetry = match h[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return Err(err_at(1, format!("unsupported symmetry: {other}"))),
    };

    // size line: first non-comment, non-empty line
    let mut size_line = None;
    let mut size_line_no = 1;
    for (idx, line) in lines.by_ref() {
        let line = line.map_err(|e| err_at(idx + 1, e.to_string()))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        size_line_no = idx + 1;
        break;
    }
    let size_line = size_line.ok_or_else(|| MatrixError::Parse("missing size line".into()))?;
    let parts: Vec<&str> = size_line.split_whitespace().collect();
    if parts.len() != 3 {
        return Err(err_at(size_line_no, format!("bad size line: {size_line}")));
    }
    let parse_usize = |line: usize, s: &str| {
        s.parse::<usize>()
            .map_err(|_| err_at(line, format!("bad integer: {s}")))
    };
    let nrows = parse_usize(size_line_no, parts[0])?;
    let ncols = parse_usize(size_line_no, parts[1])?;
    let nnz = parse_usize(size_line_no, parts[2])?;

    let mut coo = CooMatrix::new(nrows, ncols);
    let mut read = 0usize;
    for (idx, line) in lines {
        let ln = idx + 1;
        let line = line.map_err(|e| err_at(ln, e.to_string()))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i = parse_usize(ln, it.next().ok_or_else(|| err_at(ln, "short entry"))?)?;
        let j = parse_usize(ln, it.next().ok_or_else(|| err_at(ln, "short entry"))?)?;
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(err_at(ln, format!("coordinate out of range: {i} {j}")));
        }
        let v = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => {
                let s = it.next().ok_or_else(|| err_at(ln, "missing value"))?;
                s.parse::<f64>()
                    .map_err(|_| err_at(ln, format!("bad value: {s}")))?
            }
        };
        let (i, j) = (i - 1, j - 1);
        coo.push(i, j, v);
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric => {
                if i != j {
                    coo.push(j, i, v);
                }
            }
            Symmetry::SkewSymmetric => {
                if i != j {
                    coo.push(j, i, -v);
                }
            }
        }
        read += 1;
    }
    if read != nnz {
        return Err(MatrixError::Parse(format!(
            "expected {nnz} entries, read {read}"
        )));
    }
    coo.to_csr()
}

/// Writes a matrix in Matrix Market `coordinate real general` format.
pub fn write_matrix_market<W: Write>(m: &CsrMatrix, mut w: W) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by hybrid-spmv")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for (i, j, v) in m.triplets() {
        writeln!(w, "{} {} {:.17e}", i + 1, j + 1, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(s: &str) -> Result<CsrMatrix> {
        read_matrix_market(BufReader::new(s.as_bytes()))
    }

    #[test]
    fn reads_general_real() {
        let m = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             % comment\n\
             3 3 3\n\
             1 1 2.0\n\
             2 3 -1.5\n\
             3 1 4.0\n",
        )
        .unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 2), -1.5);
        assert_eq!(m.get(2, 0), 4.0);
    }

    #[test]
    fn reads_symmetric_expanding_lower() {
        let m = parse(
            "%%MatrixMarket matrix coordinate real symmetric\n\
             2 2 2\n\
             1 1 1.0\n\
             2 1 5.0\n",
        )
        .unwrap();
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(1, 0), 5.0);
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn reads_skew_symmetric() {
        let m = parse(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n\
             2 2 1\n\
             2 1 3.0\n",
        )
        .unwrap();
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(0, 1), -3.0);
    }

    #[test]
    fn reads_pattern() {
        let m = parse(
            "%%MatrixMarket matrix coordinate pattern general\n\
             2 3 2\n\
             1 3\n\
             2 1\n",
        )
        .unwrap();
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse("").is_err());
        assert!(parse("%%MatrixMarket matrix array real general\n1 1\n1.0\n").is_err());
        assert!(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n").is_err());
        assert!(parse("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n").is_err());
        assert!(
            parse("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n").is_err()
        );
        assert!(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n").is_err());
    }

    #[test]
    fn roundtrip_preserves_matrix() {
        let m = crate::synthetic::random_banded_symmetric(40, 6, 4.0, 17);
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let m2 = read_matrix_market(BufReader::new(&buf[..])).unwrap();
        assert_eq!(m.nrows(), m2.nrows());
        assert_eq!(m.nnz(), m2.nnz());
        for (a, b) in m.triplets().zip(m2.triplets()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
            assert!((a.2 - b.2).abs() < 1e-15);
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        // bad value on the 4th physical line (header, comment, size, entry)
        let err = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             % comment\n\
             2 2 2\n\
             1 1 abc\n",
        )
        .unwrap_err();
        assert_eq!(
            err,
            MatrixError::ParseAt {
                line: 4,
                msg: "bad value: abc".into()
            }
        );

        // out-of-range coordinate on line 3 (no comment this time)
        let err =
            parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n").unwrap_err();
        assert!(matches!(err, MatrixError::ParseAt { line: 3, .. }), "{err}");

        // malformed size line position is reported even behind comments
        let err = parse("%%MatrixMarket matrix coordinate real general\n%\n%\n2 2\n").unwrap_err();
        assert!(matches!(err, MatrixError::ParseAt { line: 4, .. }), "{err}");

        // header problems always point at line 1
        let err = parse("%%MatrixMarket matrix array real general\n1 1\n1.0\n").unwrap_err();
        assert!(matches!(err, MatrixError::ParseAt { line: 1, .. }), "{err}");
    }
}
