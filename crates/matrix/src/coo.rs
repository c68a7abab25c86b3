//! Coordinate ("triplet") format, the assembly format used by the Matrix
//! Market reader and by tests that build matrices entry-by-entry.

use crate::csr::CsrMatrix;
use crate::{MatrixError, Result};

/// A sparse matrix as an unordered list of `(row, col, value)` triplets.
///
/// Duplicate coordinates are allowed and are summed on conversion to CSR —
/// the usual finite-element assembly semantics.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// An empty `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    /// If the coordinate is out of range.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.nrows, "row {row} out of range {}", self.nrows);
        assert!(col < self.ncols, "col {col} out of range {}", self.ncols);
        self.entries.push((row, col, value));
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The triplets in insertion order.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Converts to CSR, summing duplicates. Entries that sum to exactly zero
    /// are kept (structural nonzeros), matching assembly semantics.
    pub fn to_csr(&self) -> Result<CsrMatrix> {
        if self.ncols > u32::MAX as usize {
            return Err(MatrixError::DimensionTooLarge { ncols: self.ncols });
        }
        // Counting sort by row, then sort each row by column and coalesce.
        let mut counts = vec![0usize; self.nrows + 1];
        for &(r, _, _) in &self.entries {
            counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let mut by_row: Vec<(u32, f64)> = vec![(0, 0.0); self.entries.len()];
        let mut next = counts.clone();
        for &(r, c, v) in &self.entries {
            by_row[next[r]] = (c as u32, v);
            next[r] += 1;
        }
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        for i in 0..self.nrows {
            let row = &mut by_row[counts[i]..counts[i + 1]];
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut k = 0;
            while k < row.len() {
                let (c, mut v) = row[k];
                let mut k2 = k + 1;
                while k2 < row.len() && row[k2].0 == c {
                    v += row[k2].1;
                    k2 += 1;
                }
                col_idx.push(c);
                values.push(v);
                k = k2;
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix::from_parts_unchecked(
            self.nrows, self.ncols, row_ptr, col_idx, values,
        ))
    }

    /// Builds a COO matrix from a CSR matrix (used for round-trip I/O).
    pub fn from_csr(m: &CsrMatrix) -> Self {
        Self {
            nrows: m.nrows(),
            ncols: m.ncols(),
            entries: m.triplets().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_converts() {
        let c = CooMatrix::new(3, 4);
        let m = c.to_csr().unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 1, 1.0);
        c.push(0, 1, 2.5);
        c.push(1, 0, -1.0);
        let m = c.to_csr().unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), 3.5);
        assert_eq!(m.get(1, 0), -1.0);
    }

    #[test]
    fn unordered_insertion_yields_sorted_rows() {
        let mut c = CooMatrix::new(2, 5);
        c.push(1, 4, 4.0);
        c.push(0, 3, 3.0);
        c.push(1, 0, 0.5);
        c.push(0, 1, 1.0);
        let m = c.to_csr().unwrap();
        assert_eq!(m.row(0).0, &[1, 3]);
        assert_eq!(m.row(1).0, &[0, 4]);
    }

    #[test]
    fn csr_roundtrip() {
        let mut c = CooMatrix::new(3, 3);
        c.push(0, 0, 2.0);
        c.push(2, 1, 7.0);
        let m = c.to_csr().unwrap();
        let c2 = CooMatrix::from_csr(&m);
        let m2 = c2.to_csr().unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_out_of_range_panics() {
        let mut c = CooMatrix::new(1, 1);
        c.push(1, 0, 1.0);
    }
}
