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
//!
//! The arrays are shared rather than copied: a [`CsrMatrix`] takes over the
//! `Vec`s it is built from, a clone shares all three, and a
//! [`CsrMatrix::row_block`] shares the column indices and values.

use crate::{MatrixError, Result};
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable slice of a reference-counted `Vec`. Wrapping a `Vec` takes
/// it over without copying it; a clone or a sub-slice shares the same
/// allocation.
#[derive(Clone)]
struct Shared<T> {
    data: Arc<Vec<T>>,
    range: Range<usize>,
}

impl<T> Shared<T> {
    /// Elements `r` of this slice, sharing its allocation.
    fn slice(&self, r: Range<usize>) -> Self {
        assert!(
            r.start <= r.end && r.end <= self.len(),
            "sub-slice out of range"
        );
        let start = self.range.start;
        Self {
            data: Arc::clone(&self.data),
            range: start + r.start..start + r.end,
        }
    }
}

impl<T> From<Vec<T>> for Shared<T> {
    fn from(v: Vec<T>) -> Self {
        Self {
            range: 0..v.len(),
            data: Arc::new(v),
        }
    }
}

impl<T> Deref for Shared<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        &self.data[self.range.clone()]
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

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
///
/// A matrix is immutable and holds its arrays as reference-counted
/// slices: the constructors take over their `Vec`s without copying them,
/// `clone` is O(1), and a [`CsrMatrix::row_block`] shares its parent's
/// column indices and values. Any such matrix keeps the arrays it points
/// into alive, all of them and not just its own rows.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Shared<usize>,
    col_idx: Shared<u32>,
    values: Shared<f64>,
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
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values: values.into(),
        })
    }

    /// Builds a matrix without validation (debug builds still check it).
    ///
    /// # Safety
    /// The parts must satisfy every invariant documented on [`CsrMatrix`].
    /// Unsafe code relies on two of them: the row kernels read `x` without
    /// a bounds check because every column is `< ncols`, and a remap of a
    /// row's columns may find its segments by binary search because each
    /// row is sorted.
    pub unsafe fn from_parts_unchecked(
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
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values: values.into(),
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_diagonal(&vec![1.0; n])
    }

    /// A square matrix with the given diagonal.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        Self {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect::<Vec<_>>().into(),
            col_idx: (0..n as u32).collect::<Vec<_>>().into(),
            values: diag.to_vec().into(),
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
    pub fn row_range(&self, i: usize) -> Range<usize> {
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
        // SAFETY: every column of a matrix is < ncols (a `CsrMatrix`
        // invariant), so every entry a row reaches is.
        unsafe {
            CsrView::new_unchecked(
                &self.row_ptr[..self.nrows],
                &self.row_ptr[1..],
                &self.col_idx,
                &self.values,
                self.ncols,
            )
        }
    }

    /// The transpose `Aᵀ` as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in self.col_idx.iter() {
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
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values: values.into(),
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

    /// The contiguous row block `rows` as a matrix of its own with
    /// unchanged (global) column indices: the per-process chunk of the
    /// distributed row partitioning. It shares this matrix's column
    /// indices and values, and allocates only its rebased row pointers.
    pub fn row_block(&self, rows: Range<usize>) -> CsrMatrix {
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
            row_ptr: row_ptr.into(),
            col_idx: self.col_idx.slice(base..end),
            values: self.values.slice(base..end),
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
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values: values.into(),
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
}

/// A row-range view of CSR storage: row `i` spans `begin[i]..end[i]` of
/// the shared `col_idx` / `values`. A whole [`CsrMatrix`] is the view
/// `(row_ptr[..n], row_ptr[1..])` ([`CsrMatrix::view`]); one stored block
/// can also expose per-row parts of itself without copying them, as the
/// local part of `spmv-core`'s split matrix does.
///
/// Every entry a view's rows reach has a column `< ncols`. The bound is
/// proven once, when the view is made, so the row kernels read `x`
/// without a bounds check per nonzero once a product has checked
/// `x.len() == ncols`. A view is made in three ways only:
/// [`CsrMatrix::view`] (a matrix's columns are bounded by its
/// constructors), [`CsrView::new`] (which scans every row) and the
/// `unsafe` [`CsrView::new_unchecked`] (whose contract is the bound).
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    begin: &'a [usize],
    end: &'a [usize],
    col_idx: &'a [u32],
    values: &'a [f64],
    ncols: usize,
}

impl<'a> CsrView<'a> {
    /// The view whose row `i` is `begin[i]..end[i]` of `col_idx` /
    /// `values`, over an `x` of length `ncols`.
    ///
    /// # Panics
    /// If `begin` and `end` differ in length, `col_idx` and `values` do,
    /// a row's range is reversed or reaches past the arrays, or a row
    /// reaches a column `>= ncols`.
    pub fn new(
        begin: &'a [usize],
        end: &'a [usize],
        col_idx: &'a [u32],
        values: &'a [f64],
        ncols: usize,
    ) -> Self {
        assert_eq!(
            begin.len(),
            end.len(),
            "begin and end must have one entry per row"
        );
        assert_eq!(
            col_idx.len(),
            values.len(),
            "col_idx and values must have one entry per nonzero"
        );
        for (i, (&b, &e)) in begin.iter().zip(end).enumerate() {
            assert!(
                b <= e && e <= col_idx.len(),
                "row {i} spans {b}..{e}, outside the {} stored entries",
                col_idx.len()
            );
            if let Some(&c) = col_idx[b..e].iter().find(|&&c| c as usize >= ncols) {
                panic!("row {i} reaches column {c}, outside the view's {ncols} columns");
            }
        }
        // SAFETY: the scan above found no reachable column >= ncols.
        unsafe { Self::new_unchecked(begin, end, col_idx, values, ncols) }
    }

    /// [`CsrView::new`] without its scan.
    ///
    /// # Safety
    /// For every row `i` and every `j` in `begin[i]..end[i]` that lies
    /// inside `col_idx`, `col_idx[j] < ncols`: the products read `x` at
    /// these columns without a bounds check. (A row range that reaches
    /// past the arrays panics when the row is read, so it is no hazard.)
    #[inline]
    pub unsafe fn new_unchecked(
        begin: &'a [usize],
        end: &'a [usize],
        col_idx: &'a [u32],
        values: &'a [f64],
        ncols: usize,
    ) -> Self {
        Self {
            begin,
            end,
            col_idx,
            values,
            ncols,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.begin.len()
    }

    /// Number of columns: the length of the `x` a product reads.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// First entry of each row.
    #[inline]
    pub fn begin(&self) -> &'a [usize] {
        self.begin
    }

    /// One past the last entry of each row.
    #[inline]
    pub fn end(&self) -> &'a [usize] {
        self.end
    }

    /// The column indices the rows index into.
    #[inline]
    pub fn col_idx(&self) -> &'a [u32] {
        self.col_idx
    }

    /// The values the rows index into.
    #[inline]
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Index range of row `i` into `col_idx` / `values`.
    #[inline]
    pub fn row_range(&self, i: usize) -> Range<usize> {
        self.begin[i]..self.end[i]
    }

    /// The column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&'a [u32], &'a [f64]) {
        let r = self.row_range(i);
        (&self.col_idx[r.clone()], &self.values[r])
    }

    /// `y[i] (=|+=) row i · x` for every row `i` in `rows`: the scalar CRS
    /// kernel of §1.2, summing each row in storage order. With `add` it is
    /// the accumulate form the split kernels' second pass uses (Eq. 2).
    ///
    /// # Panics
    /// If `x.len() != ncols`, `rows` reaches past the last row, or `y` is
    /// shorter than `rows.end`.
    pub fn spmv_rows(&self, rows: Range<usize>, x: &[f64], y: &mut [f64], add: bool) {
        assert!(rows.end <= self.nrows());
        assert!(
            y.len() >= rows.end,
            "y length {} too short for row block ending at {}",
            y.len(),
            rows.end
        );
        // SAFETY: y covers every index below rows.end, and is borrowed
        // mutably for the whole call.
        unsafe { self.spmv_rows_ptr(rows, x, y.as_mut_ptr(), add, RowDot::Scalar) }
    }

    /// `y[i] (=|+=) dot(row i, x)` for every row `i` in `rows`, writing
    /// through a raw pointer so that threads can fill disjoint row ranges
    /// of one shared `y`. Each row is taken once as its column and value
    /// slices; with [`RowDot::Scalar`] this is [`Self::spmv_rows`].
    ///
    /// # Panics
    /// If `x.len() != ncols` or `rows` reaches past the last row.
    ///
    /// # Safety
    /// `y` must be valid for writes at every index in `rows`, and
    /// concurrent callers must use disjoint `rows` ranges.
    #[inline]
    pub unsafe fn spmv_rows_ptr(
        &self,
        rows: Range<usize>,
        x: &[f64],
        y: *mut f64,
        add: bool,
        dot: RowDot,
    ) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        // every column a row reaches is < ncols (the view's invariant) and
        // ncols == x.len() (asserted above), so the row dots' unchecked
        // gathers stay inside x
        match dot {
            // SAFETY: as just said; the caller's contract covers y.
            RowDot::Scalar => unsafe { self.walk(rows, y, add, |c, v| row_dot_scalar(c, v, x)) },
            // SAFETY: as for the scalar arm.
            RowDot::Unrolled4 => unsafe {
                self.walk(rows, y, add, |c, v| row_dot_unrolled4(c, v, x))
            },
        }
    }

    /// The row walk of [`Self::spmv_rows_ptr`], generic in the row dot so
    /// that each kernel gets its own inlined loop.
    ///
    /// # Safety
    /// As for [`Self::spmv_rows_ptr`]; `dot` must be sound on every row.
    #[inline(always)]
    unsafe fn walk(
        &self,
        rows: Range<usize>,
        y: *mut f64,
        add: bool,
        dot: impl Fn(&[u32], &[f64]) -> f64,
    ) {
        let (col_idx, values) = (self.col_idx, self.values);
        // walking the two offset slices together drops their per-row
        // bounds checks (measurably faster on in-cache blocks)
        let bounds = self.begin[rows.clone()].iter().zip(&self.end[rows.clone()]);
        for (i, (&b, &e)) in rows.zip(bounds) {
            let sum = dot(&col_idx[b..e], &values[b..e]);
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
// `row_dot_unrolled4` that of `spmv-core`'s `csr-unrolled4`; both, and the
// SELL-C-σ kernel, read `x` through `gather`.

/// The row kernel a CSR product sums each row with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowDot {
    /// The row in storage order: the sums of [`CsrMatrix::spmv`]
    /// (`csr-scalar`). An empty row gives `+0.0`.
    Scalar,
    /// Four independent partial sums (`csr-unrolled4`), which break the
    /// floating-point add dependency chain so out-of-order cores keep
    /// several FMAs in flight. Reassociates the sum, so results differ
    /// from [`RowDot::Scalar`] by rounding only.
    Unrolled4,
}

/// `x[c]` without a bounds check: the gather of every row kernel. Debug
/// builds check the bound.
///
/// # Safety
/// `c < x.len()`. A kernel proves it once per call: a view's (or a SELL
/// matrix's) columns are all `< ncols`, and the kernel asserts
/// `x.len() == ncols`.
#[inline(always)]
pub(crate) unsafe fn gather(x: &[f64], c: u32) -> f64 {
    let c = c as usize;
    debug_assert!(c < x.len(), "column {c} outside an x of length {}", x.len());
    // SAFETY: the caller guarantees c < x.len().
    unsafe { *x.get_unchecked(c) }
}

/// [`RowDot::Scalar`]'s row sum: one add after another, in storage order.
///
/// The loop takes four entries per step and the last `len % 4` after it.
/// A one-entry loop over the unchecked gather is unrolled by the compiler
/// with a remainder loop that ran slower than the checked loop on sAMG's
/// ~7-entry rows; this form runs faster than it on both HMeP and sAMG.
///
/// # Safety
/// Every column in `cols` is `< x.len()`.
#[inline(always)]
unsafe fn row_dot_scalar(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    let (mut cs, mut vs) = (cols.chunks_exact(4), vals.chunks_exact(4));
    let mut sum = 0.0;
    for (c, v) in (&mut cs).zip(&mut vs) {
        // SAFETY: the caller guarantees every column is inside x.
        unsafe {
            sum += v[0] * gather(x, c[0]);
            sum += v[1] * gather(x, c[1]);
            sum += v[2] * gather(x, c[2]);
            sum += v[3] * gather(x, c[3]);
        }
    }
    for (&c, &v) in cs.remainder().iter().zip(vs.remainder()) {
        // SAFETY: as above.
        sum += v * unsafe { gather(x, c) };
    }
    sum
}

/// [`RowDot::Unrolled4`]'s row sum.
///
/// # Safety
/// Every column in `cols` is `< x.len()`.
#[inline(always)]
unsafe fn row_dot_unrolled4(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(cols.len(), vals.len());
    let n4 = cols.len() & !3;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (c, v) in cols[..n4].chunks_exact(4).zip(vals[..n4].chunks_exact(4)) {
        // SAFETY: the caller guarantees every column is inside x.
        unsafe {
            s0 += v[0] * gather(x, c[0]);
            s1 += v[1] * gather(x, c[1]);
            s2 += v[2] * gather(x, c[2]);
            s3 += v[3] * gather(x, c[3]);
        }
    }
    let mut tail = 0.0;
    for (&c, &v) in cols[n4..].iter().zip(&vals[n4..]) {
        // SAFETY: as above.
        tail += v * unsafe { gather(x, c) };
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
    ///
    /// # Panics
    /// If `ncols` exceeds the 32-bit column index space.
    pub fn new(ncols: usize, nnz_hint: usize) -> Self {
        assert!(
            ncols <= u32::MAX as usize,
            "ncols = {ncols} exceeds the 32-bit column index space"
        );
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
    ///
    /// # Panics
    /// If `col >= ncols`.
    #[inline]
    pub fn push(&mut self, col: usize, value: f64) {
        assert!(col < self.ncols, "column {col} out of range {}", self.ncols);
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
        // SAFETY: `push` asserted every column < ncols <= u32::MAX (so the
        // `as u32` kept it), and `finish_row` sorted and coalesced each row
        // and recorded where it ends.
        unsafe {
            CsrMatrix::from_parts_unchecked(
                nrows,
                self.ncols,
                self.row_ptr,
                self.col_idx,
                self.values,
            )
        }
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
        // the first column past the end, in a later row
        let err = CsrMatrix::try_new(2, 3, vec![0, 1, 2], vec![1, 3], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(
            err,
            MatrixError::ColumnOutOfRange {
                row: 1,
                col: 3,
                ncols: 3
            }
        );
    }

    #[test]
    #[should_panic(expected = "column 4 out of range 4")]
    fn builder_rejects_an_out_of_range_column() {
        let mut b = CsrBuilder::new(4, 2);
        b.push(1, 1.0);
        b.push(4, 1.0);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-bit column index space")]
    fn builder_rejects_a_width_past_u32() {
        CsrBuilder::new(u32::MAX as usize + 1, 0);
    }

    /// A local-part-style view: each row is the middle of a longer stored
    /// row, whose outer entries index a wider `x`.
    const BLOCK_COLS: [u32; 6] = [7, 0, 2, 1, 2, 9];
    const BLOCK_VALS: [f64; 6] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];

    #[test]
    fn view_new_accepts_rows_that_stay_inside_ncols() {
        // rows 1..3 and 3..5; columns 7 and 9 lie outside both
        let v = CsrView::new(&[1, 3], &[3, 5], &BLOCK_COLS, &BLOCK_VALS, 3);
        let mut y = [0.0; 2];
        v.spmv_rows(0..2, &[1.0, 10.0, 100.0], &mut y, false);
        assert_eq!(y, [302.0, 540.0]);
    }

    #[test]
    #[should_panic(expected = "row 1 reaches column 9, outside the view's 3 columns")]
    fn view_new_rejects_a_local_row_that_reaches_past_ncols() {
        CsrView::new(&[1, 3], &[3, 6], &BLOCK_COLS, &BLOCK_VALS, 3);
    }

    #[test]
    #[should_panic(expected = "row 0 spans 4..7")]
    fn view_new_rejects_a_row_past_the_arrays() {
        CsrView::new(&[4], &[7], &BLOCK_COLS, &BLOCK_VALS, 10);
    }

    #[test]
    #[should_panic(expected = "x length must equal ncols")]
    fn spmv_rows_rejects_a_short_x() {
        let a = small();
        let mut y = vec![0.0; 3];
        a.view().spmv_rows(0..3, &[1.0, 1.0], &mut y, false);
    }

    #[test]
    #[should_panic(expected = "x length must equal ncols")]
    fn spmv_rows_ptr_rejects_a_long_x() {
        let a = small();
        let mut y = vec![0.0; 3];
        // SAFETY: y is writable at rows 0..3 and has no other writer.
        unsafe {
            a.view()
                .spmv_rows_ptr(0..3, &[1.0; 4], y.as_mut_ptr(), false, RowDot::Unrolled4)
        };
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
    fn row_block_and_clone_share_the_parent_arrays() {
        let a = small();
        let b = a.row_block(1..3);
        // row 1 starts at entry 2 of the parent
        assert!(std::ptr::eq(&b.col_idx()[0], &a.col_idx()[2]));
        assert!(std::ptr::eq(&b.values()[0], &a.values()[2]));
        assert_eq!(b.row_ptr(), [0, 1, 3], "row pointers are rebased");
        let c = b.clone();
        assert!(std::ptr::eq(c.col_idx(), b.col_idx()));
        assert!(std::ptr::eq(c.values(), b.values()));
        assert!(std::ptr::eq(c.row_ptr(), b.row_ptr()));
        // a block of a block still points into the first parent
        let d = b.row_block(1..2);
        assert!(std::ptr::eq(d.values(), &a.values()[3..5]));
        assert_eq!(d, a.row_block(2..3));
        assert!(a.row_block(3..3).values().is_empty());
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
            // SAFETY: a matrix's columns are < ncols == x.len().
            let unrolled = unsafe { row_dot_unrolled4(cols, vals, &x) };
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
            // SAFETY: every column is reduced mod 32 == x.len().
            let (reference, got) = unsafe {
                (
                    row_dot_scalar(&cols, &vals, &x),
                    row_dot_unrolled4(&cols, &vals, &x),
                )
            };
            assert!(
                (got - reference).abs() < 1e-12,
                "len {len}: {got} vs {reference}"
            );
        }
    }
}
