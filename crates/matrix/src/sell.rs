//! SELL-C-σ: sliced ELLPACK with row sorting, the SIMD-friendly sparse
//! format of Kreutzer, Hager, Wellein, Fehske & Bishop (SIAM J. Sci.
//! Comput. 2014) — the follow-up work to the paper this repo reproduces.
//!
//! The matrix is cut into chunks of `C` consecutive rows (the *chunk
//! height*). Within each chunk all rows are padded to the length of the
//! longest row and stored column-major ("slot-major"), so a vector unit of
//! width ≤ C processes C rows in lockstep with unit-stride loads. Padding
//! is pure overhead; to keep it small, rows are sorted by descending length
//! inside windows of `σ` rows (the *sorting scope*) before chunking:
//!
//! * `σ = 1` — no sorting: SELL-C-1 degenerates to sliced ELLPACK, and
//!   with `C = 1` to CSR (every chunk is exactly one row, zero padding).
//! * `σ = nrows` — global sort: minimal padding, maximal reordering.
//!
//! The sort permutes rows, so the format carries a [`Permutation`] mapping
//! original row indices to sorted positions; the SpMV writes `y` in
//! *original* order, making the format a drop-in kernel for the engine
//! (`x` is untouched because columns are never permuted).
//!
//! [`SellMatrix::padding_factor`] reports stored slots (incl. padding) per
//! true nonzero — the `α ≥ 1` that multiplies the matrix-data term of the
//! code balance (see `spmv-model::balance::code_balance_sell`).

use crate::csr::{gather, CsrMatrix, CsrView};
use crate::perm::Permutation;

/// A sparse matrix in SELL-C-σ storage.
#[derive(Debug, Clone, PartialEq)]
pub struct SellMatrix {
    nrows: usize,
    ncols: usize,
    c: usize,
    sigma: usize,
    /// Start offset of each chunk in `col_idx` / `values` (`n_chunks + 1`).
    chunk_ptr: Vec<usize>,
    /// Width (longest row) of each chunk.
    chunk_width: Vec<usize>,
    /// True (unpadded) length of each row, indexed by *sorted* position.
    row_len: Vec<usize>,
    /// Original row index of each *sorted* position (`order[p] = old row`).
    order: Vec<usize>,
    /// Column indices, chunk-by-chunk, slot-major within a chunk:
    /// entry `(chunk, slot k, lane r)` lives at `chunk_ptr[chunk] + k*C + r`.
    /// Padding slots carry column 0 and value 0.0.
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// True nonzeros (excluding padding).
    nnz: usize,
}

impl SellMatrix {
    /// Converts a CSR matrix, or a row-range view of one, into SELL-C-σ
    /// form. It takes over the view's bound: every stored column is
    /// `< ncols` (padding slots hold column 0 but are never read).
    ///
    /// # Panics
    /// If `c == 0` or `sigma == 0`.
    pub fn from_csr<'a>(m: impl Into<CsrView<'a>>, c: usize, sigma: usize) -> Self {
        let m = m.into();
        assert!(c >= 1, "chunk height C must be >= 1");
        assert!(sigma >= 1, "sorting scope sigma must be >= 1");
        let nrows = m.nrows();

        // Sort rows by descending length inside each σ-window. The sort is
        // stable so equal-length rows keep their relative order and the
        // construction is fully deterministic.
        let mut order: Vec<usize> = (0..nrows).collect();
        if sigma > 1 {
            for window in order.chunks_mut(sigma) {
                window.sort_by_key(|&i| std::cmp::Reverse(m.row_range(i).len()));
            }
        }
        let row_len: Vec<usize> = order.iter().map(|&i| m.row_range(i).len()).collect();
        let nnz = row_len.iter().sum();

        let n_chunks = nrows.div_ceil(c);
        let mut chunk_ptr = Vec::with_capacity(n_chunks + 1);
        let mut chunk_width = Vec::with_capacity(n_chunks);
        chunk_ptr.push(0);
        for ch in 0..n_chunks {
            let lanes = &row_len[ch * c..nrows.min((ch + 1) * c)];
            let w = lanes.iter().copied().max().unwrap_or(0);
            chunk_width.push(w);
            chunk_ptr.push(chunk_ptr[ch] + w * c);
        }

        let stored = *chunk_ptr.last().unwrap_or(&0);
        let mut col_idx = vec![0u32; stored];
        let mut values = vec![0.0f64; stored];
        for (ch, &base) in chunk_ptr.iter().enumerate().take(n_chunks) {
            for r in 0..c {
                let p = ch * c + r;
                if p >= nrows {
                    break;
                }
                let (cols, vals) = m.row(order[p]);
                for (k, (&cc, &vv)) in cols.iter().zip(vals).enumerate() {
                    col_idx[base + k * c + r] = cc;
                    values[base + k * c + r] = vv;
                }
            }
        }

        Self {
            nrows,
            ncols: m.ncols(),
            c,
            sigma,
            chunk_ptr,
            chunk_width,
            row_len,
            order,
            col_idx,
            values,
            nnz,
        }
    }

    /// Number of rows (of the original matrix — padding lanes not counted).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// True (unpadded) nonzero count.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Chunk height `C`.
    #[inline]
    pub fn chunk_height(&self) -> usize {
        self.c
    }

    /// Sorting scope `σ`.
    #[inline]
    pub fn sorting_scope(&self) -> usize {
        self.sigma
    }

    /// Number of row chunks.
    #[inline]
    pub fn n_chunks(&self) -> usize {
        self.chunk_width.len()
    }

    /// Stored slots including padding (the length of the value array).
    #[inline]
    pub fn stored_entries(&self) -> usize {
        self.values.len()
    }

    /// Padding factor `α = stored slots / true nonzeros` (`>= 1`; `1.0` for
    /// an empty matrix). This is the overhead multiplier on the matrix-data
    /// term of the SELL-C-σ code balance.
    pub fn padding_factor(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.stored_entries() as f64 / self.nnz as f64
        }
    }

    /// Fraction of stored slots that carry real data (`1 / α`).
    pub fn fill_efficiency(&self) -> f64 {
        1.0 / self.padding_factor()
    }

    /// The row permutation introduced by σ-sorting: `old row → sorted
    /// position`. Identity when `σ = 1`.
    pub fn permutation(&self) -> Permutation {
        Permutation::from_order(&self.order).expect("order is a bijection by construction")
    }

    /// Bytes of SELL-C-σ storage (values + column indices + chunk table).
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * 8
            + self.col_idx.len() * 4
            + self.chunk_ptr.len() * 8
            + self.chunk_width.len() * 8
    }

    /// Sparse matrix-vector multiplication `y = A x`, writing `y` in
    /// original row order.
    ///
    /// # Panics
    /// If `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        self.spmv_rows(0..self.nrows, x, y, false);
    }

    /// SpMV restricted to the *original* row range `rows`: only rows whose
    /// original index falls in `rows` are computed and written. σ-sorting
    /// scatters a contiguous original range inside its σ-windows, so the
    /// kernel walks the sorted positions of the windows `rows` overlaps
    /// and masks the rest — worksharing over original row ranges stays
    /// correct, and disjoint ranges touch disjoint `y` entries.
    pub fn spmv_rows(&self, rows: std::ops::Range<usize>, x: &[f64], y: &mut [f64], add: bool) {
        assert!(rows.end <= self.nrows);
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert!(
            y.len() >= rows.end,
            "y length {} too short for row block ending at {}",
            y.len(),
            rows.end
        );
        // SAFETY: y covers indices < rows.end.
        unsafe { self.spmv_rows_ptr(rows, x, y.as_mut_ptr(), add) };
    }

    /// Raw-pointer row-range kernel backing all the safe entry points and
    /// the multi-threaded dispatch in `spmv-core` (threads write disjoint
    /// original-row ranges of a shared `y` without aliasing `&mut`).
    ///
    /// # Panics
    /// If `x.len() != ncols`.
    ///
    /// # Safety
    /// `y` must be valid for writes at every index in `rows`, and
    /// concurrent callers must use disjoint `rows` ranges.
    pub unsafe fn spmv_rows_ptr(
        &self,
        rows: std::ops::Range<usize>,
        x: &[f64],
        y: *mut f64,
        add: bool,
    ) {
        debug_assert!(rows.end <= self.nrows);
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        let (c, sigma) = (self.c, self.sigma);
        // σ-sorting only moves a row inside its window, so the rows of
        // `rows` sit at the sorted positions of the windows they overlap
        let window_start = rows.start / sigma * sigma;
        let window_end = (rows.end.div_ceil(sigma) * sigma).min(self.nrows);
        for p in window_start..window_end {
            let orig = self.order[p];
            if !rows.contains(&orig) {
                continue;
            }
            let (base, r) = (self.chunk_ptr[p / c], p % c);
            let mut sum = 0.0;
            // Row p occupies slots 0..row_len[p] at stride C.
            for k in 0..self.row_len[p] {
                let idx = base + k * c + r;
                // SAFETY: row_len[p] is at most the chunk's width w and
                // r < C, so idx < chunk_ptr[p / C] + w·C = chunk_ptr[p / C + 1]
                // <= the stored slots; a slot below row_len[p] holds one of
                // the source view's columns, all < ncols == x.len().
                sum += unsafe {
                    *self.values.get_unchecked(idx) * gather(x, *self.col_idx.get_unchecked(idx))
                };
            }
            let dst = y.add(orig);
            if add {
                *dst += sum;
            } else {
                *dst = sum;
            }
        }
    }

    /// Converts back to CSR (exact inverse of [`Self::from_csr`]: padding
    /// dropped, rows restored to original order).
    ///
    /// # Panics
    /// If the source's rows were not sorted by column.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.nrows + 1];
        for (p, &orig) in self.order.iter().enumerate() {
            row_ptr[orig + 1] = self.row_len[p];
        }
        for i in 0..self.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u32; self.nnz];
        let mut values = vec![0.0f64; self.nnz];
        let c = self.c;
        for (p, &orig) in self.order.iter().enumerate() {
            let base = self.chunk_ptr[p / c];
            let r = p % c;
            let dst = row_ptr[orig];
            for k in 0..self.row_len[p] {
                let idx = base + k * c + r;
                col_idx[dst + k] = self.col_idx[idx];
                values[dst + k] = self.values[idx];
            }
        }
        // slots keep each row's order, so a sorted source gives a valid
        // matrix; a view's rows need not be sorted (a split block's full
        // part is not), and such a copy is no `CsrMatrix`
        CsrMatrix::try_new(self.nrows, self.ncols, row_ptr, col_idx, values)
            .expect("the source's rows are sorted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthetic, vecops};

    /// Rows of pseudo-random length 1..=16 in shuffled order (power-law
    /// generators emit rows already sorted by length, which would make
    /// σ-sorting a no-op).
    fn ragged(n: usize, seed: u64) -> CsrMatrix {
        let mut rng = crate::rng::Rng64::new(seed);
        let mut b = crate::csr::CsrBuilder::new(n, n * 16);
        for _ in 0..n {
            let len = 1 + rng.gen_index(16);
            let mut cols: Vec<u32> = Vec::new();
            while cols.len() < len {
                let c = rng.gen_index(n) as u32;
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
            for &c in &cols {
                b.push(c as usize, rng.gen_f64() - 0.5);
            }
            b.finish_row();
        }
        b.build()
    }

    fn spmv_matches_csr(m: &CsrMatrix, c: usize, sigma: usize) {
        let s = SellMatrix::from_csr(m, c, sigma);
        let x = vecops::random_vec(m.ncols(), 17);
        let mut y_ref = vec![0.0; m.nrows()];
        m.spmv(&x, &mut y_ref);
        let mut y = vec![f64::NAN; m.nrows()];
        s.spmv(&x, &mut y);
        let err = vecops::rel_error(&y, &y_ref);
        assert!(err < 1e-13, "C={c} sigma={sigma}: err {err}");
    }

    #[test]
    fn matches_csr_across_c_and_sigma() {
        let m = synthetic::power_law_rows(150, 6.0, 1.0, 11);
        for &c in &[1, 2, 4, 8, 32, m.nrows()] {
            for &sigma in &[1, 8, 64, 150, 1000] {
                spmv_matches_csr(&m, c, sigma);
            }
        }
        // C = nrows, σ = 1 is ELLPACK-R: every row padded to the longest,
        // each summed in CSR order up to its true length
        let ell = SellMatrix::from_csr(&m, m.nrows(), 1);
        assert_eq!(ell.stored_entries(), m.max_nnz_per_row() * m.nrows());
        let x = vecops::random_vec(m.ncols(), 4);
        let (mut y_ref, mut y) = (vec![0.0; m.nrows()], vec![f64::NAN; m.nrows()]);
        m.spmv(&x, &mut y_ref);
        ell.spmv(&x, &mut y);
        let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&y_ref));
    }

    #[test]
    fn c1_sigma1_has_zero_padding() {
        // SELL-1-1 is CSR: one row per chunk, no padding possible.
        let m = synthetic::power_law_rows(100, 5.0, 0.8, 3);
        let s = SellMatrix::from_csr(&m, 1, 1);
        assert_eq!(s.stored_entries(), m.nnz());
        assert_eq!(s.padding_factor(), 1.0);
        assert!(s.permutation().is_identity());
    }

    #[test]
    fn sorting_reduces_padding() {
        // Shuffled ragged rows: unsorted chunks pad every lane to the
        // longest local row; a global sort groups like-sized rows.
        let m = ragged(256, 7);
        let unsorted = SellMatrix::from_csr(&m, 32, 1);
        let sorted = SellMatrix::from_csr(&m, 32, 256);
        assert!(
            sorted.padding_factor() < unsorted.padding_factor(),
            "sorted {} vs unsorted {}",
            sorted.padding_factor(),
            unsorted.padding_factor()
        );
        assert!(sorted.padding_factor() >= 1.0);
    }

    #[test]
    fn permutation_roundtrips_through_perm() {
        let m = ragged(100, 9);
        let s = SellMatrix::from_csr(&m, 8, 100);
        let p = s.permutation();
        assert!(!p.is_identity(), "global sort must move rows");
        // perm ∘ perm⁻¹ = identity
        assert!(p.then(&p.inverse()).is_identity());
        // permute then unpermute a vector
        let v = vecops::random_vec(100, 2);
        let fwd = p.permute_vec(&v);
        let back = p.inverse().permute_vec(&fwd);
        assert_eq!(back, v);
        // row p.apply(i) of the sorted layout is original row i
        for i in 0..100 {
            assert_eq!(s.order[p.apply(i)], i);
        }
    }

    #[test]
    fn to_csr_roundtrip() {
        let m = synthetic::power_law_rows(90, 4.0, 1.0, 5);
        for &(c, sigma) in &[(1usize, 1usize), (4, 16), (8, 90), (32, 7)] {
            let s = SellMatrix::from_csr(&m, c, sigma);
            assert_eq!(s.to_csr(), m, "C={c} sigma={sigma}");
        }
    }

    #[test]
    fn handles_empty_rows_and_empty_matrix() {
        // matrix with some all-zero rows
        let mut b = crate::csr::CsrBuilder::new(4, 8);
        b.push(1, 2.0);
        b.finish_row(); // row 0
        b.finish_row(); // row 1 empty
        b.push(0, 1.0);
        b.push(3, -1.0);
        b.finish_row(); // row 2
        b.finish_row(); // row 3 empty
        let m = b.build();
        spmv_matches_csr(&m, 2, 4);
        let s = SellMatrix::from_csr(&m, 2, 4);
        assert_eq!(s.to_csr(), m);

        let empty = CsrMatrix::try_new(0, 0, vec![0], vec![], vec![]).unwrap();
        let se = SellMatrix::from_csr(&empty, 4, 4);
        assert_eq!(se.nnz(), 0);
        assert_eq!(se.padding_factor(), 1.0);
        let mut y = vec![];
        se.spmv(&[], &mut y);
    }

    #[test]
    fn row_range_spmv_masks_correctly() {
        // C ∤ σ and C ∤ nrows; the ranges start and end mid-window, and
        // tiling the rows with them must give the whole product bitwise
        let (m, x) = (ragged(103, 8), vecops::random_vec(103, 4));
        let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (c, sigma) in [(6, 16), (4, 7), (5, 103), (3, 1)] {
            let s = SellMatrix::from_csr(&m, c, sigma);
            let mut whole = vec![f64::NAN; 103];
            s.spmv(&x, &mut whole);
            let mut y = vec![f64::NAN; 103];
            for rows in [0..5, 5..21, 21..22, 22..60, 60..60, 60..103] {
                s.spmv_rows(rows.clone(), &x, &mut y, false);
                assert!(y[rows.end..].iter().all(|v| v.is_nan()), "C={c} σ={sigma}");
            }
            assert_eq!(bits(&y), bits(&whole), "C={c} σ={sigma}");
            // an add pass over a sub-range doubles that range only
            s.spmv_rows(10..30, &x, &mut y, true);
            let twice = |i: usize| whole[i] * if (10..30).contains(&i) { 2.0 } else { 1.0 };
            assert_eq!(bits(&y), bits(&(0..103).map(twice).collect::<Vec<_>>()));
        }
    }

    #[test]
    #[should_panic(expected = "x length must equal ncols")]
    fn spmv_rows_rejects_a_short_x() {
        let m = synthetic::random_general(20, 20, 3, 1);
        let s = SellMatrix::from_csr(&m, 4, 8);
        s.spmv_rows(0..20, &[1.0; 19], &mut [0.0; 20], false);
    }

    #[test]
    fn padding_statistics_consistent() {
        let m = synthetic::random_general(100, 100, 7, 1);
        let s = SellMatrix::from_csr(&m, 16, 32);
        assert_eq!(s.nnz(), m.nnz());
        assert!(s.stored_entries() >= s.nnz());
        assert!((s.fill_efficiency() * s.padding_factor() - 1.0).abs() < 1e-15);
        assert_eq!(s.n_chunks(), 100usize.div_ceil(16));
        assert!(s.storage_bytes() >= s.stored_entries() * 12);
    }
}
