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
/// the stored entries. A whole [`CsrMatrix`] is the view
/// `(row_ptr[..n], row_ptr[1..])` ([`CsrMatrix::view`]); one stored block
/// can also expose per-row parts of itself without copying them, as the
/// local part of `spmv-core`'s split matrix does.
///
/// The entries are stored in one of two ways:
///
/// * *plain* — a `u32` column index and an `f64` value per entry, the
///   paper's CRS (12 bytes per nonzero);
/// * *value-coded* — one `u32` word per entry, `(column << 8) | code`,
///   over a table of at most 256 distinct values (4 bytes per nonzero;
///   see [`ValueCoder`]). A product reads `table[code] * x[column]`, the
///   same factors as the plain form, so it keeps its bits.
///
/// Every entry a view's rows reach has a column `< ncols`. The bound is
/// proven once, when the view is made, so the row kernels read `x`
/// without a bounds check per nonzero once a product has checked
/// `x.len() == ncols`. A code is a `u8` and the table has 256 entries, so
/// a value lookup is in bounds by its type. A view is made in five ways
/// only: [`CsrMatrix::view`] (a matrix's columns are bounded by its
/// constructors), [`CsrView::new`] and [`CsrView::new_coded`] (which scan
/// every row) and the `unsafe` [`CsrView::new_unchecked`] and
/// [`CsrView::new_coded_unchecked`] (whose contract is the bound).
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    begin: &'a [usize],
    end: &'a [usize],
    entries: Entries<'a>,
    ncols: usize,
}

/// How a view's entries are stored (see [`CsrView`]).
#[derive(Debug, Clone, Copy)]
enum Entries<'a> {
    Plain {
        col_idx: &'a [u32],
        values: &'a [f64],
    },
    Coded {
        words: &'a [u32],
        table: &'a [f64; 256],
    },
}

impl<'a> CsrView<'a> {
    /// The plain view whose row `i` is `begin[i]..end[i]` of `col_idx` /
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
            col_idx.len(),
            values.len(),
            "col_idx and values must have one entry per nonzero"
        );
        Self::checked(begin, end, Entries::Plain { col_idx, values }, ncols)
    }

    /// The value-coded view whose row `i` is `begin[i]..end[i]` of
    /// `words`, each word `(column << 8) | code` standing for the entry
    /// `table[code]` at `column`, over an `x` of length `ncols`.
    ///
    /// # Panics
    /// As [`CsrView::new`]: unequal `begin` and `end`, a reversed or
    /// out-of-array row, or a row reaching a column `>= ncols`.
    pub fn new_coded(
        begin: &'a [usize],
        end: &'a [usize],
        words: &'a [u32],
        table: &'a [f64; 256],
        ncols: usize,
    ) -> Self {
        Self::checked(begin, end, Entries::Coded { words, table }, ncols)
    }

    /// The view over `entries` once every row is checked to stay inside
    /// the stored entries and below column `ncols`.
    fn checked(begin: &'a [usize], end: &'a [usize], entries: Entries<'a>, ncols: usize) -> Self {
        assert_eq!(
            begin.len(),
            end.len(),
            "begin and end must have one entry per row"
        );
        let view = Self {
            begin,
            end,
            entries,
            ncols,
        };
        let stored = view.stored();
        for (i, (&b, &e)) in begin.iter().zip(end).enumerate() {
            assert!(
                b <= e && e <= stored,
                "row {i} spans {b}..{e}, outside the {stored} stored entries"
            );
            if let Some(c) = (b..e)
                .map(|j| view.entry(j).0)
                .find(|&c| c as usize >= ncols)
            {
                panic!("row {i} reaches column {c}, outside the view's {ncols} columns");
            }
        }
        view
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
            entries: Entries::Plain { col_idx, values },
            ncols,
        }
    }

    /// [`CsrView::new_coded`] without its scan.
    ///
    /// # Safety
    /// For every row `i` and every `j` in `begin[i]..end[i]` that lies
    /// inside `words`, `words[j] >> 8 < ncols`: the products read `x` at
    /// these columns without a bounds check.
    #[inline]
    pub unsafe fn new_coded_unchecked(
        begin: &'a [usize],
        end: &'a [usize],
        words: &'a [u32],
        table: &'a [f64; 256],
        ncols: usize,
    ) -> Self {
        Self {
            begin,
            end,
            entries: Entries::Coded { words, table },
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

    /// The per-entry values of a plain view; `None` for a coded one.
    #[inline]
    pub fn values(&self) -> Option<&'a [f64]> {
        match self.entries {
            Entries::Plain { values, .. } => Some(values),
            Entries::Coded { .. } => None,
        }
    }

    /// Number of stored entries the rows index into.
    fn stored(&self) -> usize {
        match self.entries {
            Entries::Plain { col_idx, .. } => col_idx.len(),
            Entries::Coded { words, .. } => words.len(),
        }
    }

    /// Column and value of stored entry `j`, decoded: the one way to read
    /// an entry whichever form the view stores.
    ///
    /// # Panics
    /// If `j` lies past the stored entries.
    #[inline]
    pub fn entry(&self, j: usize) -> (u32, f64) {
        match self.entries {
            Entries::Plain { col_idx, values } => (col_idx[j], values[j]),
            Entries::Coded { words, table } => (words[j] >> 8, table[(words[j] & 0xff) as usize]),
        }
    }

    /// Index range of row `i` into the stored entries.
    #[inline]
    pub fn row_range(&self, i: usize) -> Range<usize> {
        self.begin[i]..self.end[i]
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
        unsafe { self.spmv_rows_ptr(rows, x, y.as_mut_ptr(), add) }
    }

    /// [`Self::spmv_rows`] writing through a raw pointer, so that threads
    /// can fill disjoint row ranges of one shared `y`. Each row is summed
    /// in storage order, as its column and value slices in a plain view
    /// and as its word slice in a coded one.
    ///
    /// # Panics
    /// If `x.len() != ncols` or `rows` reaches past the last row.
    ///
    /// # Safety
    /// `y` must be valid for writes at every index in `rows`, and
    /// concurrent callers must use disjoint `rows` ranges.
    #[inline]
    pub unsafe fn spmv_rows_ptr(&self, rows: Range<usize>, x: &[f64], y: *mut f64, add: bool) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        // every column a row reaches is < ncols (the view's invariant) and
        // ncols == x.len() (asserted above), so the row dots' unchecked
        // gathers stay inside x
        match self.entries {
            // SAFETY: as just said; the caller's contract covers y.
            Entries::Plain { col_idx, values } => unsafe {
                self.walk(rows, y, add, |r| {
                    row_dot_scalar(&col_idx[r.clone()], &values[r], x)
                })
            },
            // SAFETY: as for the plain arm.
            Entries::Coded { words, table } => unsafe {
                self.walk(rows, y, add, |r| row_dot_coded(&words[r], table, x))
            },
        }
    }

    /// The row walk of [`Self::spmv_rows_ptr`], generic in the row dot so
    /// that each storage form gets its own inlined loop.
    ///
    /// # Safety
    /// As for [`Self::spmv_rows_ptr`]; `dot` must be sound on every row's
    /// entry range.
    #[inline(always)]
    unsafe fn walk(
        &self,
        rows: Range<usize>,
        y: *mut f64,
        add: bool,
        dot: impl Fn(Range<usize>) -> f64,
    ) {
        // walking the two offset slices together drops their per-row
        // bounds checks (measurably faster on in-cache blocks)
        let bounds = self.begin[rows.clone()].iter().zip(&self.end[rows.clone()]);
        for (i, (&b, &e)) in rows.zip(bounds) {
            let sum = dot(b..e);
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

/// Builds the table of a value-coded view (see [`CsrView`]): each distinct
/// value gets the next of at most 256 codes, told apart by its bits, so
/// `+0.0` and `-0.0`, and NaNs with different payloads, get codes of their
/// own and decode to the bits they were given.
///
/// A value's code is found through a hash table of codes, at the slot
/// its bits hash to or, on a collision, at one of the slots after it. The
/// coder holds its tables inline (3 KiB) and allocates only the table it
/// hands out.
#[derive(Debug, Clone)]
pub struct ValueCoder {
    table: [f64; 256],
    len: usize,
    /// The code of the value whose bits hash to a slot, `EMPTY` marking a
    /// free slot. Twice as many slots as codes keep a probe short and
    /// always end it at a free slot.
    slots: [u16; 512],
}

impl ValueCoder {
    const EMPTY: u16 = u16::MAX;

    /// A coder with an empty table.
    pub fn new() -> Self {
        Self {
            table: [0.0; 256],
            len: 0,
            slots: [Self::EMPTY; 512],
        }
    }

    /// Whether a coded word can hold every column of an `x` of length
    /// `ncols`: 24 bits are left for the column, and a block as wide as
    /// `2^24` stays plain.
    pub fn fits_columns(ncols: usize) -> bool {
        ncols < 1 << 24
    }

    /// The code of `v`, which is added to the table if it is new; `None`
    /// if it is new and the table already holds 256 values.
    #[inline]
    fn code(&mut self, v: f64) -> Option<u8> {
        let bits = v.to_bits();
        // the top 9 bits of a multiplicative hash depend on every bit
        let mut slot = (bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 55) as usize;
        loop {
            let code = self.slots[slot];
            if code == Self::EMPTY {
                break;
            }
            if self.table[code as usize].to_bits() == bits {
                return Some(code as u8);
            }
            slot = (slot + 1) % 512;
        }
        if self.len == 256 {
            return None;
        }
        self.table[self.len] = v;
        self.slots[slot] = self.len as u16;
        self.len += 1;
        Some((self.len - 1) as u8)
    }

    /// Codes a row in place: each column `cols[k]` becomes the word of
    /// `cols[k]` and `vals[k]`. Returns `false`, leaving `cols` as it was,
    /// when a value does not fit in the table.
    ///
    /// Every column must be below `2^24` ([`ValueCoder::fits_columns`]);
    /// a larger one loses its top bits.
    ///
    /// # Panics
    /// If `cols` and `vals` differ in length.
    pub fn encode(&mut self, cols: &mut [u32], vals: &[f64]) -> bool {
        assert_eq!(cols.len(), vals.len(), "one value per column");
        for (k, (w, &v)) in cols.iter_mut().zip(vals).enumerate() {
            debug_assert!(*w < 1 << 24, "column {w} does not fit a coded word");
            let Some(code) = self.code(v) else {
                Self::decode(&mut cols[..k]);
                return false;
            };
            *w = *w << 8 | code as u32;
        }
        true
    }

    /// Turns coded words back into their plain columns.
    pub fn decode(words: &mut [u32]) {
        for w in words {
            *w >>= 8;
        }
    }

    /// The table, indexed by code; slots past the last value coded hold
    /// `0.0`.
    pub fn into_table(self) -> Box<[f64; 256]> {
        Box::new(self.table)
    }
}

impl Default for ValueCoder {
    fn default() -> Self {
        Self::new()
    }
}

// --- per-row dot-product kernels -------------------------------------------
//
// The inner loop of the CRS SpMV is a sparse dot product of one row against
// the RHS, summed in storage order: `row_dot_scalar` over a plain view's
// column and value slices, `row_dot_coded` over a coded view's words. Both,
// and the SELL-C-σ kernel, read `x` through `gather`.

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

/// A plain row's sum: one add after another, in storage order. An empty
/// row gives `+0.0`.
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

/// A coded row's sum: [`row_dot_scalar`] with each value read from the
/// table by its code, so the same products are added in the same order.
///
/// # Safety
/// Every word's column, `w >> 8`, is `< x.len()`.
#[inline(always)]
unsafe fn row_dot_coded(words: &[u32], table: &[f64; 256], x: &[f64]) -> f64 {
    // a u8 code indexes the 256-entry table in bounds
    let value = |w: u32| table[(w & 0xff) as usize];
    let mut ws = words.chunks_exact(4);
    let mut sum = 0.0;
    for w in &mut ws {
        // SAFETY: the caller guarantees every column is inside x.
        unsafe {
            sum += value(w[0]) * gather(x, w[0] >> 8);
            sum += value(w[1]) * gather(x, w[1] >> 8);
            sum += value(w[2]) * gather(x, w[2] >> 8);
            sum += value(w[3]) * gather(x, w[3] >> 8);
        }
    }
    for &w in ws.remainder() {
        // SAFETY: as above.
        sum += value(w) * unsafe { gather(x, w >> 8) };
    }
    sum
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
                .spmv_rows_ptr(0..3, &[1.0; 4], y.as_mut_ptr(), false)
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

    /// `m` with each value rounded to a multiple of 1/4: few distinct
    /// values, in `m`'s structure.
    fn quantized(m: &CsrMatrix) -> CsrMatrix {
        let values = m.values().iter().map(|v| (v * 4.0).round() / 4.0).collect();
        let (rows, cols) = (m.row_ptr().to_vec(), m.col_idx().to_vec());
        CsrMatrix::try_new(m.nrows(), m.ncols(), rows, cols, values).unwrap()
    }

    /// `m`'s entries coded in place of its columns, and the table.
    fn coded(m: &CsrMatrix) -> (Vec<u32>, Box<[f64; 256]>) {
        let (mut words, mut coder) = (m.col_idx().to_vec(), ValueCoder::new());
        assert!(coder.encode(&mut words, m.values()), "values fit the table");
        (words, coder.into_table())
    }

    /// The coded kernel against the plain one, bit for bit, on a matrix
    /// with row lengths 0..~20 so every unroll tail case is exercised,
    /// for the overwriting and the accumulating product.
    #[test]
    fn fast_kernels_match_scalar_reference() {
        let m = quantized(&crate::synthetic::power_law_rows(120, 6.0, 1.0, 42));
        let (words, table) = coded(&m);
        let n = m.nrows();
        let v = CsrView::new_coded(&m.row_ptr()[..n], &m.row_ptr()[1..], &words, &table, n);
        assert!(v.values().is_none(), "a coded view has no per-entry values");
        for j in 0..m.nnz() {
            assert_eq!(v.entry(j), (m.col_idx()[j], m.values()[j]), "entry {j}");
        }
        let x = crate::vecops::random_vec(m.ncols(), 7);
        let bits = |y: &[f64]| y.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for add in [false, true] {
            let (mut want, mut got) = (x.clone(), x.clone());
            m.view().spmv_rows(0..n, &x, &mut want, add);
            v.spmv_rows(0..n, &x, &mut got, add);
            assert_eq!(bits(&got), bits(&want), "add {add}");
        }
    }

    #[test]
    fn row_dot_helpers_handle_tails() {
        // lengths 0..=9 hit every chunks_exact(4) remainder case
        let x: Vec<f64> = (0..32).map(|i| i as f64 * 0.5 - 3.0).collect();
        let mut table = [0.0; 256];
        for (k, t) in table.iter_mut().enumerate().take(5) {
            *t = k as f64 * 0.3 - 0.7;
        }
        for len in 0..=9usize {
            let cols: Vec<u32> = (0..len).map(|k| ((k * 7) % 32) as u32).collect();
            let codes: Vec<u32> = (0..len).map(|k| (k % 5) as u32).collect();
            let vals: Vec<f64> = codes.iter().map(|&k| table[k as usize]).collect();
            let words: Vec<u32> = cols.iter().zip(&codes).map(|(c, k)| c << 8 | k).collect();
            // SAFETY: every column is reduced mod 32 == x.len().
            let (reference, got) = unsafe {
                (
                    row_dot_scalar(&cols, &vals, &x),
                    row_dot_coded(&words, &table, &x),
                )
            };
            assert_eq!(got.to_bits(), reference.to_bits(), "len {len}");
        }
    }

    #[test]
    fn coder_tells_signed_zeros_and_nan_payloads_apart() {
        let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
        let vals = [0.0, -0.0, nan(1), nan(2), 0.0, nan(2), -0.0];
        let mut coder = ValueCoder::new();
        let codes: Vec<_> = vals.iter().map(|&v| coder.code(v)).collect();
        let want = [0, 1, 2, 3, 0, 3, 1].map(Some);
        assert_eq!(codes, want);
        // one entry per row, each decoding to and multiplying the bits it was given
        let m = CsrMatrix::try_new(7, 1, (0..=7).collect(), vec![0; 7], vals.to_vec()).unwrap();
        let (words, table) = coded(&m);
        let v = CsrView::new_coded(&m.row_ptr()[..7], &m.row_ptr()[1..], &words, &table, 1);
        for (j, &val) in vals.iter().enumerate() {
            assert_eq!(v.entry(j).1.to_bits(), val.to_bits(), "entry {j}");
        }
        let bits = |y: &[f64]| y.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let (mut want, mut got) = ([0.0; 7], [0.0; 7]);
        m.view().spmv_rows(0..7, &[-2.0], &mut want, false);
        v.spmv_rows(0..7, &[-2.0], &mut got, false);
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got[3].to_bits(), nan(2).to_bits(), "the payload survives");
    }

    #[test]
    fn coder_refuses_a_257th_value_and_a_2_pow_24_column_space() {
        let mut coder = ValueCoder::new();
        for k in 0..256 {
            assert_eq!(coder.code(k as f64), Some(k as u8));
        }
        assert_eq!(coder.code(256.0), None);
        assert_eq!(coder.code(17.0), Some(17), "known values still code");
        let mut cols = [4, 5, 6];
        assert!(!coder.encode(&mut cols, &[1.0, 2.0, 0.5]));
        assert_eq!(cols, [4, 5, 6], "a refused row is left plain");
        assert!(ValueCoder::fits_columns((1 << 24) - 1));
        assert!(!ValueCoder::fits_columns(1 << 24));
    }

    #[test]
    #[should_panic(expected = "row 1 reaches column 3, outside the view's 3 columns")]
    fn coded_view_new_rejects_a_column_past_ncols() {
        let words = [0 << 8, 2 << 8 | 1, 3 << 8];
        CsrView::new_coded(&[0, 1], &[1, 3], &words, &[1.0; 256], 3);
    }
}
