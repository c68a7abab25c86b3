//! Compressed Row Storage (CRS/CSR) matrices.
//!
//! The layout follows the paper exactly: all nonzeros live in one contiguous
//! `values` array (8-byte `f64`), the original column index of each entry is
//! kept in `col_idx` (4-byte `u32`), and `row_ptr` holds the starting offset
//! of every row (with a final sentinel equal to `nnz`). The sparse
//! matrix-vector kernel is the canonical two-loop CRS kernel from §1.2:
//!
//! ```text
//! do i = 1, Nr
//!   do j = row_ptr(i), row_ptr(i+1) - 1
//!     C(i) = C(i) + val(j) * B(col_idx(j))
//! ```

use crate::{MatrixError, Result};

/// A sparse matrix in Compressed Row Storage format.
///
/// ```
/// use spmv_matrix::CsrBuilder;
///
/// // [ 2 -1  0 ]
/// // [-1  2 -1 ]
/// // [ 0 -1  2 ]
/// let mut b = CsrBuilder::new(3, 7);
/// b.push(0, 2.0); b.push(1, -1.0); b.finish_row();
/// b.push(0, -1.0); b.push(1, 2.0); b.push(2, -1.0); b.finish_row();
/// b.push(1, -1.0); b.push(2, 2.0); b.finish_row();
/// let a = b.build();
///
/// let mut y = vec![0.0; 3];
/// a.spmv(&[1.0, 1.0, 1.0], &mut y);
/// assert_eq!(y, vec![1.0, 0.0, 1.0]);
/// assert_eq!(a.nnz(), 7);
/// assert!(a.is_symmetric(0.0));
/// ```
///
/// Invariants (enforced by [`CsrMatrix::try_new`] and preserved by every
/// method in this crate):
///
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`, non-decreasing,
///   `row_ptr[nrows] == values.len() == col_idx.len()`;
/// * inside each row, column indices are strictly increasing (sorted and
///   duplicate-free) and `< ncols`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a matrix after validating every CRS invariant.
    pub fn try_new(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if ncols > u32::MAX as usize {
            return Err(MatrixError::DimensionTooLarge { ncols });
        }
        if row_ptr.len() != nrows + 1 {
            return Err(MatrixError::RowPtrLength {
                expected: nrows + 1,
                got: row_ptr.len(),
            });
        }
        if row_ptr[0] != 0 {
            return Err(MatrixError::RowPtrNotMonotonic { row: 0 });
        }
        for i in 0..nrows {
            if row_ptr[i + 1] < row_ptr[i] {
                return Err(MatrixError::RowPtrNotMonotonic { row: i });
            }
        }
        if row_ptr[nrows] != values.len() || values.len() != col_idx.len() {
            return Err(MatrixError::NnzMismatch {
                row_ptr_end: row_ptr[nrows],
                values: values.len(),
                col_idx: col_idx.len(),
            });
        }
        for i in 0..nrows {
            let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(MatrixError::UnsortedRow { row: i });
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= ncols {
                    return Err(MatrixError::ColumnOutOfRange {
                        row: i,
                        col: last,
                        ncols,
                    });
                }
            }
        }
        Ok(Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a matrix without validation.
    ///
    /// Callers must guarantee the invariants documented on [`CsrMatrix`];
    /// all generators in this crate produce rows sorted by construction and
    /// use this constructor on their (checked-in-debug) output.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert!(Self::try_new(
            nrows,
            ncols,
            row_ptr.clone(),
            col_idx.clone(),
            values.clone()
        )
        .is_ok());
        Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let row_ptr = (0..=n).collect();
        let col_idx = (0..n as u32).collect();
        let values = vec![1.0; n];
        Self {
            nrows: n,
            ncols: n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// A square matrix with the given diagonal.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        Self {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: diag.to_vec(),
        }
    }

    /// Number of rows (the paper's `N_r`).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros (the paper's `N_nz`).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Average nonzeros per row (the paper's `N_nzr = N_nz / N_r`).
    pub fn avg_nnz_per_row(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// Maximum nonzeros in any row.
    pub fn max_nnz_per_row(&self) -> usize {
        (0..self.nrows)
            .map(|i| self.row_range(i).len())
            .max()
            .unwrap_or(0)
    }

    /// The row pointer array (`nrows + 1` entries, last one equals `nnz`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column index array.
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The nonzero value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Index range of row `i` into `col_idx` / `values`.
    #[inline]
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.row_ptr[i]..self.row_ptr[i + 1]
    }

    /// The column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let r = self.row_range(i);
        (&self.col_idx[r.clone()], &self.values[r])
    }

    /// Returns the entry at `(i, j)`, or `0.0` if it is structurally zero.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over `(row, col, value)` of all stored entries.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .zip(vals.iter())
                .map(move |(&c, &v)| (i, c as usize, v))
        })
    }

    /// Sparse matrix-vector multiplication `y = A x` (the CRS kernel of
    /// §1.2). Serial reference implementation; parallel variants live in
    /// `spmv-core`.
    ///
    /// # Panics
    /// If `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        self.view().spmv_rows(0..self.nrows, x, y, false);
    }

    /// The whole matrix as a row-range view: row `i` spans
    /// `row_ptr[i]..row_ptr[i + 1]`.
    #[inline]
    pub fn view(&self) -> CsrView<'_> {
        CsrView {
            begin: &self.row_ptr[..self.nrows],
            end: &self.row_ptr[1..],
            col_idx: &self.col_idx,
            values: &self.values,
            ncols: self.ncols,
        }
    }

    /// The transpose `Aᵀ` as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut next = counts;
        for i in 0..self.nrows {
            for j in self.row_range(i) {
                let c = self.col_idx[j] as usize;
                let dst = next[c];
                next[c] += 1;
                col_idx[dst] = i as u32;
                values[dst] = self.values[j];
            }
        }
        // Rows of the transpose are filled in increasing source-row order,
        // so each row is already sorted.
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Checks structural and numerical symmetry to tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            return false;
        }
        self.values
            .iter()
            .zip(t.values.iter())
            .all(|(a, b)| (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0))
    }

    /// Extracts a contiguous row block `rows` as a standalone matrix with
    /// unchanged (global) column indices. This is exactly the per-process
    /// chunk produced by the distributed row partitioning.
    pub fn row_block(&self, rows: std::ops::Range<usize>) -> CsrMatrix {
        assert!(rows.end <= self.nrows);
        let base = self.row_ptr[rows.start];
        let end = self.row_ptr[rows.end];
        let row_ptr: Vec<usize> = self.row_ptr[rows.start..=rows.end]
            .iter()
            .map(|&p| p - base)
            .collect();
        CsrMatrix {
            nrows: rows.len(),
            ncols: self.ncols,
            row_ptr,
            col_idx: self.col_idx[base..end].to_vec(),
            values: self.values[base..end].to_vec(),
        }
    }

    /// Symmetric permutation `P A Pᵀ`: entry `(i, j)` moves to
    /// `(perm[i], perm[j])` where `perm` maps old index → new index.
    pub fn permute_symmetric(&self, perm: &crate::Permutation) -> Result<CsrMatrix> {
        if perm.len() != self.nrows || self.nrows != self.ncols {
            return Err(MatrixError::InvalidPermutation {
                n: perm.len(),
                detail: "length must equal matrix dimension (square matrices only)",
            });
        }
        let inv = perm.inverse();
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for new_i in 0..self.nrows {
            let old_i = inv.apply(new_i);
            let (cols, vals) = self.row(old_i);
            scratch.clear();
            scratch.extend(
                cols.iter()
                    .zip(vals.iter())
                    .map(|(&c, &v)| (perm.apply(c as usize) as u32, v)),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Frobenius norm of the stored entries.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// The matrix bandwidth `max |i - j|` over stored entries.
    pub fn bandwidth(&self) -> usize {
        let mut bw = 0usize;
        for i in 0..self.nrows {
            let (cols, _) = self.row(i);
            if let (Some(&first), Some(&last)) = (cols.first(), cols.last()) {
                bw = bw
                    .max(i.abs_diff(first as usize))
                    .max(i.abs_diff(last as usize));
            }
        }
        bw
    }

    /// Bytes of storage for the three CRS arrays — 8 per value, 4 per column
    /// index, 8 per row pointer entry. Used by the traffic model.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * 8 + self.col_idx.len() * 4 + self.row_ptr.len() * 8
    }

    /// Consumes the matrix, returning `(nrows, ncols, row_ptr, col_idx, values)`.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<u32>, Vec<f64>) {
        (
            self.nrows,
            self.ncols,
            self.row_ptr,
            self.col_idx,
            self.values,
        )
    }
}

/// A row-range view of CSR storage: row `i` spans `begin[i]..end[i]` of
/// the shared `col_idx` / `values`. A whole [`CsrMatrix`] is the view
/// `(row_ptr[..n], row_ptr[1..])` ([`CsrMatrix::view`]); one stored block
/// can also expose per-row parts of itself without copying them, as the
/// local and non-local parts of `spmv-core`'s split matrix do.
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    /// First entry of each row.
    pub begin: &'a [usize],
    /// One past the last entry of each row (as many rows as `begin`).
    pub end: &'a [usize],
    /// The column indices the rows index into.
    pub col_idx: &'a [u32],
    /// The values the rows index into.
    pub values: &'a [f64],
    /// Number of columns: the length of the `x` a product reads.
    pub ncols: usize,
}

impl<'a> CsrView<'a> {
    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.begin.len()
    }

    /// Index range of row `i` into `col_idx` / `values`.
    #[inline]
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.begin[i]..self.end[i]
    }

    /// The column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&'a [u32], &'a [f64]) {
        let r = self.row_range(i);
        (&self.col_idx[r.clone()], &self.values[r])
    }

    /// Entries in rows `..i` for every `i` in `0..=nrows` (the weights
    /// nonzero-balanced worksharing splits on; a whole matrix's `row_ptr`).
    pub fn nnz_prefix(&self) -> Vec<usize> {
        let mut prefix = Vec::with_capacity(self.nrows() + 1);
        prefix.push(0);
        for (b, e) in self.begin.iter().zip(self.end) {
            prefix.push(prefix[prefix.len() - 1] + (e - b));
        }
        prefix
    }

    /// Stored entries over all rows.
    pub fn nnz(&self) -> usize {
        self.begin.iter().zip(self.end).map(|(b, e)| e - b).sum()
    }

    /// `y[i] (=|+=) row i · x` for every row `i` in `rows`: the scalar CRS
    /// kernel of §1.2, summing each row in storage order. With `add` it is
    /// the accumulate form the split kernels' second pass uses (Eq. 2).
    ///
    /// # Panics
    /// If `x.len() != ncols`, `rows` reaches past the last row, or `y` is
    /// shorter than `rows.end`.
    pub fn spmv_rows(&self, rows: std::ops::Range<usize>, x: &[f64], y: &mut [f64], add: bool) {
        assert!(rows.end <= self.nrows());
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert!(
            y.len() >= rows.end,
            "y length {} too short for row block ending at {}",
            y.len(),
            rows.end
        );
        // SAFETY: y covers every index below rows.end, and is borrowed
        // mutably for the whole call.
        unsafe { self.spmv_rows_ptr(rows, x, y.as_mut_ptr(), add, row_dot_scalar) }
    }

    /// `y[i] (=|+=) dot(row i, x)` for every row `i` in `rows`, writing
    /// through a raw pointer so that threads can fill disjoint row ranges
    /// of one shared `y`. Each row is taken once as its column and value
    /// slices; with [`row_dot_scalar`] this is [`Self::spmv_rows`].
    ///
    /// # Safety
    /// `y` must be valid for writes at every index in `rows`, and
    /// concurrent callers must use disjoint `rows` ranges.
    #[inline]
    pub unsafe fn spmv_rows_ptr(
        &self,
        rows: std::ops::Range<usize>,
        x: &[f64],
        y: *mut f64,
        add: bool,
        dot: impl Fn(&[u32], &[f64], &[f64]) -> f64,
    ) {
        let (col_idx, values) = (self.col_idx, self.values);
        // walking the two offset slices together drops their per-row
        // bounds checks (measurably faster on in-cache blocks)
        let bounds = self.begin[rows.clone()].iter().zip(&self.end[rows.clone()]);
        for (i, (&b, &e)) in rows.zip(bounds) {
            let sum = dot(&col_idx[b..e], &values[b..e], x);
            // SAFETY: the caller guarantees y is writable at row i and
            // that no other thread writes it.
            unsafe {
                let dst = y.add(i);
                if add {
                    *dst += sum;
                } else {
                    *dst = sum;
                }
            }
        }
    }
}

impl<'a> From<&'a CsrMatrix> for CsrView<'a> {
    fn from(m: &'a CsrMatrix) -> Self {
        m.view()
    }
}

// --- per-row dot-product kernels -------------------------------------------
//
// The inner loop of the CRS SpMV is a sparse dot product of one row against
// the RHS. `row_dot_scalar` is the row kernel of `csr-scalar`, and
// `row_dot_unrolled4` that of `spmv-core`'s `csr-unrolled4`.

/// Scalar reference row kernel: sums the row in storage order, the row
/// dot of [`CsrMatrix::spmv`]. An empty row gives `+0.0`.
#[inline(always)]
pub fn row_dot_scalar(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (&c, &v) in cols.iter().zip(vals) {
        sum += v * x[c as usize];
    }
    sum
}

/// 4-way unrolled row kernel: four independent partial sums break the
/// floating-point add dependency chain so out-of-order cores keep several
/// FMAs in flight. Reassociates the sum, so results differ from the scalar
/// kernel by FP rounding only.
#[inline(always)]
pub fn row_dot_unrolled4(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(cols.len(), vals.len());
    let n4 = cols.len() & !3;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (c, v) in cols[..n4].chunks_exact(4).zip(vals[..n4].chunks_exact(4)) {
        s0 += v[0] * x[c[0] as usize];
        s1 += v[1] * x[c[1] as usize];
        s2 += v[2] * x[c[2] as usize];
        s3 += v[3] * x[c[3] as usize];
    }
    let mut tail = 0.0;
    for (&c, &v) in cols[n4..].iter().zip(&vals[n4..]) {
        tail += v * x[c as usize];
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Incremental row-by-row CSR builder used by all matrix generators.
///
/// Rows must be pushed in order; entries inside a row may be pushed in any
/// order and are sorted (and coalesced by summation) when the row is closed.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    current: Vec<(u32, f64)>,
}

impl CsrBuilder {
    /// Starts a builder for a matrix with `ncols` columns, reserving space
    /// for `nnz_hint` nonzeros.
    pub fn new(ncols: usize, nnz_hint: usize) -> Self {
        Self {
            ncols,
            row_ptr: vec![0],
            col_idx: Vec::with_capacity(nnz_hint),
            values: Vec::with_capacity(nnz_hint),
            current: Vec::new(),
        }
    }

    /// Adds an entry to the row currently being assembled. Duplicate columns
    /// are summed when the row is finished.
    #[inline]
    pub fn push(&mut self, col: usize, value: f64) {
        debug_assert!(col < self.ncols, "column {col} out of range {}", self.ncols);
        self.current.push((col as u32, value));
    }

    /// Closes the current row: sorts it by column and sums duplicates. No
    /// entry is dropped, not even an exact zero left by cancellation.
    pub fn finish_row(&mut self) {
        self.current.sort_unstable_by_key(|&(c, _)| c);
        let mut k = 0;
        while k < self.current.len() {
            let (col, mut val) = self.current[k];
            let mut k2 = k + 1;
            while k2 < self.current.len() && self.current[k2].0 == col {
                val += self.current[k2].1;
                k2 += 1;
            }
            self.col_idx.push(col);
            self.values.push(val);
            k = k2;
        }
        self.current.clear();
        self.row_ptr.push(self.col_idx.len());
    }

    /// Number of rows completed so far.
    pub fn rows_finished(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Finalizes the builder into a validated-by-construction [`CsrMatrix`].
    pub fn build(mut self) -> CsrMatrix {
        if !self.current.is_empty() {
            self.finish_row();
        }
        let nrows = self.row_ptr.len() - 1;
        CsrMatrix::from_parts_unchecked(nrows, self.ncols, self.row_ptr, self.col_idx, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [ 2 0 1 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        CsrMatrix::try_new(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 2],
            vec![2.0, 1.0, 3.0, 4.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn try_new_validates_row_ptr_length() {
        let err = CsrMatrix::try_new(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert_eq!(
            err,
            MatrixError::RowPtrLength {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn try_new_validates_monotonicity() {
        let err = CsrMatrix::try_new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(err, MatrixError::RowPtrNotMonotonic { row: 1 });
    }

    #[test]
    fn try_new_validates_nnz() {
        let err = CsrMatrix::try_new(1, 2, vec![0, 2], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, MatrixError::NnzMismatch { .. }));
    }

    #[test]
    fn try_new_validates_column_range() {
        let err = CsrMatrix::try_new(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert!(matches!(err, MatrixError::ColumnOutOfRange { .. }));
    }

    #[test]
    fn try_new_rejects_unsorted_and_duplicate_rows() {
        let err = CsrMatrix::try_new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(err, MatrixError::UnsortedRow { row: 0 });
        let err = CsrMatrix::try_new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(err, MatrixError::UnsortedRow { row: 0 });
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, [2.0 * 1.0 + 1.0 * 3.0, 3.0 * 2.0, 4.0 * 1.0 + 5.0 * 3.0]);
    }

    #[test]
    fn spmv_add_accumulates() {
        let a = small();
        let x = [1.0, 1.0, 1.0];
        let mut y = [10.0, 10.0, 10.0];
        a.view().spmv_rows(0..3, &x, &mut y, true);
        assert_eq!(y, [13.0, 13.0, 19.0]);
    }

    #[test]
    fn spmv_rows_partial() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [-1.0; 3];
        a.view().spmv_rows(1..3, &x, &mut y, false);
        assert_eq!(y, [-1.0, 6.0, 19.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = small();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        assert_eq!(a.transpose().get(2, 0), 1.0);
        assert_eq!(a.transpose().get(0, 2), 4.0);
    }

    #[test]
    fn identity_and_diagonal() {
        let i = CsrMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 4];
        i.spmv(&x, &mut y);
        assert_eq!(y, x);
        let d = CsrMatrix::from_diagonal(&[2.0, 3.0]);
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(1, 1), 3.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn symmetry_detection() {
        let sym = CsrMatrix::try_new(
            2,
            2,
            vec![0, 2, 4],
            vec![0, 1, 0, 1],
            vec![2.0, 1.0, 1.0, 2.0],
        )
        .unwrap();
        assert!(sym.is_symmetric(0.0));
        assert!(!small().is_symmetric(1e-12));
        // structurally symmetric, numerically not
        let nonsym = CsrMatrix::try_new(
            2,
            2,
            vec![0, 2, 4],
            vec![0, 1, 0, 1],
            vec![2.0, 1.0, 1.5, 2.0],
        )
        .unwrap();
        assert!(!nonsym.is_symmetric(1e-12));
    }

    #[test]
    fn row_block_extracts_global_columns() {
        let a = small();
        let b = a.row_block(1..3);
        assert_eq!(b.nrows(), 2);
        assert_eq!(b.ncols(), 3);
        assert_eq!(b.get(0, 1), 3.0);
        assert_eq!(b.get(1, 0), 4.0);
        assert_eq!(b.get(1, 2), 5.0);
        assert_eq!(b.nnz(), 3);
    }

    #[test]
    fn permute_symmetric_reverse() {
        let a = small();
        let p = crate::Permutation::try_from_vec(vec![2, 1, 0]).unwrap();
        let b = a.permute_symmetric(&p).unwrap();
        // (0,0)=2 -> (2,2); (0,2)=1 -> (2,0); (2,0)=4 -> (0,2); (2,2)=5 -> (0,0)
        assert_eq!(b.get(2, 2), 2.0);
        assert_eq!(b.get(2, 0), 1.0);
        assert_eq!(b.get(0, 2), 4.0);
        assert_eq!(b.get(0, 0), 5.0);
        assert_eq!(b.get(1, 1), 3.0);
        assert_eq!(b.nnz(), a.nnz());
    }

    #[test]
    fn builder_sorts_and_coalesces() {
        let mut b = CsrBuilder::new(4, 8);
        b.push(3, 1.0);
        b.push(0, 2.0);
        b.push(3, 0.5);
        b.finish_row();
        b.push(1, -1.0);
        b.finish_row();
        let m = b.build();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 3), 1.5);
        assert_eq!(m.get(1, 1), -1.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn bandwidth_and_norm() {
        let a = small();
        assert_eq!(a.bandwidth(), 2);
        let f = a.frobenius_norm();
        assert!((f - (4.0f64 + 1.0 + 9.0 + 16.0 + 25.0).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn storage_bytes_counts_crs_arrays() {
        let a = small();
        assert_eq!(a.storage_bytes(), 5 * 8 + 5 * 4 + 4 * 8);
    }

    #[test]
    fn triplets_iterates_all_entries() {
        let a = small();
        let t: Vec<_> = a.triplets().collect();
        assert_eq!(
            t,
            vec![
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "y length")]
    fn spmv_rows_rejects_short_y() {
        let a = small();
        let x = vec![1.0; a.ncols()];
        let mut y = vec![0.0; 2]; // too short for rows 0..3
        a.view().spmv_rows(0..3, &x, &mut y, false);
    }

    /// The unrolled row kernel against the scalar reference, row by row on a
    /// matrix with row lengths 0..~20 so every unroll tail case is exercised.
    #[test]
    fn fast_kernels_match_scalar_reference() {
        let m = crate::synthetic::power_law_rows(120, 6.0, 1.0, 42);
        let x = crate::vecops::random_vec(m.ncols(), 7);
        let mut y_ref = vec![0.0; m.nrows()];
        m.spmv(&x, &mut y_ref);
        for (i, &want) in y_ref.iter().enumerate() {
            let (cols, vals) = m.row(i);
            let unrolled = row_dot_unrolled4(cols, vals, &x);
            assert!(
                (unrolled - want).abs() <= 1e-13 * want.abs().max(1.0),
                "row {i}"
            );
        }
    }

    #[test]
    fn row_dot_helpers_handle_tails() {
        // lengths 0..=9 hit every chunks_exact(4) remainder case
        let x: Vec<f64> = (0..32).map(|i| i as f64 * 0.5 - 3.0).collect();
        for len in 0..=9usize {
            let cols: Vec<u32> = (0..len).map(|k| ((k * 7) % 32) as u32).collect();
            let vals: Vec<f64> = (0..len).map(|k| k as f64 - 2.5).collect();
            let reference = row_dot_scalar(&cols, &vals, &x);
            let got = row_dot_unrolled4(&cols, &vals, &x);
            assert!(
                (got - reference).abs() < 1e-12,
                "len {len}: {got} vs {reference}"
            );
        }
    }
}
