//! The rank-local matrix, stored once and viewed in three parts.
//!
//! The overlapping kernels split the rank-local matrix `A_r` into
//!
//! * `A_loc` — entries whose column is owned by this rank (can be computed
//!   before any halo data arrives);
//! * `A_nl` — entries whose column lives in the halo.
//!
//! "A disadvantage of splitting the spMVM in two parts is that the local
//! result vector must be written twice, incurring additional memory
//! traffic" (§3.1, Eq. 2); the non-overlapping kernel runs the unsplit
//! matrix instead. The rank's block is stored once, in the caller's storage
//! order (each row by ascending global column), and shares the caller's
//! row pointers and values. It owns only its column indices, remapped to
//! index the extended RHS `x_ext = [local | halo]`, and where each row's
//! local entries lie: a sorted row is `[halo left of the rank's rows |
//! local | halo right of them]`, so its local entries are the middle
//! segment `begin[i]..end[i]`. The parts are views of it:
//!
//! * `full` — row `i` is `row_ptr[i]..row_ptr[i + 1]`, over all of `x_ext`;
//! * `local` — `begin[i]..end[i]`, over `x_ext[..local_len]`;
//! * `nonlocal` — the entries outside `begin[i]..end[i]`, over all of
//!   `x_ext` (read only after the halo exchange completes), kept in a
//!   compact copy of the halo entries alone. Read in place, each row's few
//!   halo entries would cost the non-local pass a cache line of the block:
//!   on HMeP (0.6 M rows per rank, 2.7 % halo entries) that pass took
//!   4.9 ms in place against 0.9 ms from the copy.
//!
//! Halo columns follow the local ones in `x_ext` in ascending global order,
//! so the local and non-local parts each sum their entries by ascending
//! column, as a separate copy of that part would. The full part sums each
//! row in the caller's order, the serial kernel's: with `csr-scalar`, the
//! unsplit product equals [`CsrMatrix::spmv`] bit for bit. The stored
//! block keeps the caller's arrays alive (see [`CsrMatrix::row_block`]).

use crate::modes::Part;
use crate::plan::RankPlan;
use spmv_matrix::{CsrMatrix, CsrView};
use std::sync::Arc;

/// The stored block: the caller's rows in storage order, with their
/// columns in `x_ext` space.
#[derive(Debug)]
struct Block {
    /// The caller's block, whose row pointers and values are shared.
    csr: CsrMatrix,
    /// `csr`'s column indices, remapped into `x_ext`.
    col_idx: Vec<u32>,
    /// Where row `i`'s local entries begin and end.
    begin: Vec<usize>,
    end: Vec<usize>,
    local_len: usize,
    /// The halo entries alone, row `i` being row `i`'s entries outside
    /// `begin[i]..end[i]`.
    nonlocal: CsrMatrix,
}

/// One part of a rank's block (see the module doc). Every part of a
/// [`SplitMatrix`] shares the one stored block, so a clone is cheap.
#[derive(Debug, Clone)]
pub struct BlockPart {
    block: Arc<Block>,
    part: Part,
}

impl BlockPart {
    /// The part as a row-range view, the form the kernels take.
    pub fn view(&self) -> CsrView<'_> {
        let Block {
            csr,
            col_idx,
            begin,
            end,
            local_len,
            nonlocal,
        } = &*self.block;
        let (rows, values) = (csr.row_ptr(), csr.values());
        // `SplitMatrix::build`'s remap proves the bound of the full and local
        // views, and debug builds re-check both there
        match self.part {
            // SAFETY: a row's local entries became `c - lo` for a global `c`
            // in `lo..hi`, so they are < local_len, and its halo entries
            // `local_len + h` for an index `h` into the halo list, so they
            // are < local_len + halo_len = `nonlocal.ncols()`.
            Part::Full => unsafe {
                let n = csr.nrows();
                CsrView::new_unchecked(&rows[..n], &rows[1..], col_idx, values, nonlocal.ncols())
            },
            // SAFETY: `begin[i]..end[i]` holds row i's local entries, each
            // `c - lo` for a global `c` in `lo..hi`, so < local_len.
            Part::Local => unsafe {
                CsrView::new_unchecked(begin, end, col_idx, values, *local_len)
            },
            Part::Nonlocal => nonlocal.view(),
        }
    }

    /// Number of rows (the rank's local rows).
    pub fn nrows(&self) -> usize {
        self.block.csr.nrows()
    }

    /// Length of the `x` this part reads: `local_len` for the local part,
    /// `local_len + halo_len` otherwise.
    pub fn ncols(&self) -> usize {
        self.view().ncols()
    }

    /// Stored entries of this part in rows `..i`, for `i` in `0..=nrows`:
    /// the prefix nonzero-balanced worksharing cuts on. O(1): a row's local
    /// entries are its entries less its halo entries.
    pub fn nnz_before(&self, i: usize) -> usize {
        let Block { csr, nonlocal, .. } = &*self.block;
        let (all, halo) = (csr.row_ptr()[i], nonlocal.row_ptr()[i]);
        match self.part {
            Part::Full => all,
            Part::Local => all - halo,
            Part::Nonlocal => halo,
        }
    }

    /// Stored entries of this part.
    pub fn nnz(&self) -> usize {
        self.nnz_before(self.nrows())
    }
}

impl<'a> From<&'a BlockPart> for CsrView<'a> {
    fn from(part: &'a BlockPart) -> Self {
        part.view()
    }
}

/// The rank-local matrix as the three parts the kernels need.
#[derive(Debug, Clone)]
pub struct SplitMatrix {
    /// Every entry; the unsplit kernel's matrix.
    pub full: BlockPart,
    /// The entries whose columns this rank owns.
    pub local: BlockPart,
    /// The entries whose columns lie in the halo.
    pub nonlocal: BlockPart,
}

impl SplitMatrix {
    /// Remaps a rank-local row block (global column indices, sorted per
    /// row) according to `plan`, in one pass over its entries that also
    /// copies out the halo entries. The result shares `block`'s row
    /// pointers and values.
    pub fn build(block: &CsrMatrix, plan: &RankPlan) -> Self {
        assert_eq!(
            block.nrows(),
            plan.local_len,
            "block must match the plan's row range"
        );
        let nloc = plan.local_len;
        let lo = plan.row_start as u32;
        let hi = lo + nloc as u32;
        let halo_globals = plan.halo_globals();
        let halo_col = |&c: &u32| {
            let h = halo_globals
                .binary_search(&c)
                .expect("plan must cover every remote column");
            (nloc + h) as u32
        };

        let mut col_idx = Vec::with_capacity(block.nnz());
        let (mut begin, mut end) = (Vec::with_capacity(nloc), Vec::with_capacity(nloc));
        let (mut nl_ptr, mut nl_cols, mut nl_vals) = (vec![0], Vec::new(), Vec::new());
        for i in 0..nloc {
            // a sorted row (a `CsrMatrix` invariant) is [halo left of lo |
            // local | halo from hi on], so every column in a..b is in lo..hi
            let (cols, vals) = block.row(i);
            let a = cols.partition_point(|&c| c < lo);
            let b = a + cols[a..].partition_point(|&c| c < hi);
            let first = col_idx.len();
            begin.push(first + a);
            end.push(first + b);
            col_idx.extend(cols[..a].iter().map(halo_col));
            col_idx.extend(cols[a..b].iter().map(|&c| c - lo));
            col_idx.extend(cols[b..].iter().map(halo_col));
            nl_cols.extend_from_slice(&col_idx[first..first + a]);
            nl_cols.extend_from_slice(&col_idx[first + b..]);
            nl_vals.extend_from_slice(&vals[..a]);
            nl_vals.extend_from_slice(&vals[b..]);
            nl_ptr.push(nl_cols.len());
        }
        let ncols = nloc + halo_globals.len();
        nl_cols.shrink_to_fit();
        nl_vals.shrink_to_fit();
        // SAFETY: the halo entries' columns are `nloc + h` for an index `h`
        // into `halo_globals`, so < ncols, and each row keeps them in the
        // block's ascending global order, which `halo_col` preserves.
        let nonlocal =
            unsafe { CsrMatrix::from_parts_unchecked(nloc, ncols, nl_ptr, nl_cols, nl_vals) };
        let block = Arc::new(Block {
            csr: block.clone(),
            col_idx,
            begin,
            end,
            local_len: nloc,
            nonlocal,
        });
        let part = |part| BlockPart {
            block: Arc::clone(&block),
            part,
        };
        let split = Self {
            full: part(Part::Full),
            local: part(Part::Local),
            nonlocal: part(Part::Nonlocal),
        };
        if cfg!(debug_assertions) {
            // re-check the bound `BlockPart::view` takes on trust
            for v in [split.full.view(), split.local.view()] {
                CsrView::new(v.begin(), v.end(), v.col_idx(), v.values(), v.ncols());
            }
        }
        split
    }

    /// The part a compute step multiplies.
    pub fn part(&self, part: Part) -> &BlockPart {
        match part {
            Part::Full => &self.full,
            Part::Local => &self.local,
            Part::Nonlocal => &self.nonlocal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{prepare_kernel, KernelKind};
    use crate::partition::RowPartition;
    use crate::plan::build_plans_serial;
    use spmv_matrix::holstein::{hamiltonian, HolsteinOrdering, HolsteinParams};
    use spmv_matrix::{synthetic, vecops, CsrBuilder};
    use std::ops::Range;

    fn split_on(m: &CsrMatrix, p: &RowPartition) -> Vec<SplitMatrix> {
        build_plans_serial(m, p)
            .iter()
            .map(|plan| SplitMatrix::build(&m.row_block(p.range(plan.rank)), plan))
            .collect()
    }

    fn split_all(m: &CsrMatrix, parts: usize) -> Vec<SplitMatrix> {
        split_on(m, &RowPartition::by_nnz(m, parts))
    }

    /// The separate copies the block replaces: `full`, the block in
    /// storage order with its columns remapped into `x_ext`, as row
    /// pointers, columns and values (its rows are not sorted, so it is no
    /// `CsrMatrix`); `local` over the local columns and `nonlocal` over
    /// the halo buffer alone, one `CsrBuilder` each.
    fn reference_copies(block: &CsrMatrix, plan: &RankPlan) -> (Csr, CsrMatrix, CsrMatrix) {
        let (nloc, halo) = (plan.local_len, plan.halo_globals());
        let lo = plan.row_start as u32;
        let mut full_cols = Vec::new();
        let mut local = CsrBuilder::new(nloc, block.nnz());
        let mut nonlocal = CsrBuilder::new(halo.len(), block.nnz());
        for i in 0..block.nrows() {
            let (cols, vals) = block.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                if (lo..lo + nloc as u32).contains(&c) {
                    full_cols.push(c - lo);
                    local.push((c - lo) as usize, v);
                } else {
                    let h = halo.binary_search(&c).expect("halo column");
                    full_cols.push((nloc + h) as u32);
                    nonlocal.push(h, v);
                }
            }
            local.finish_row();
            nonlocal.finish_row();
        }
        let full = (
            block.row_ptr().to_vec(),
            full_cols,
            block.values().to_vec(),
            nloc + halo.len(),
        );
        (full, local.build(), nonlocal.build())
    }

    /// Row pointers, columns, values and column count of a CSR copy.
    type Csr = (Vec<usize>, Vec<u32>, Vec<f64>, usize);

    fn csr_view(c: &Csr) -> CsrView<'_> {
        let n = c.0.len() - 1;
        CsrView::new(&c.0[..n], &c.0[1..], &c.1, &c.2, c.3)
    }

    /// A kernel's row sums as an indexed loop over the view's shared
    /// arrays, each `x` read checked: the reference whose bits the kernel
    /// must keep. `csr-scalar` and SELL-C-σ sum each row in storage order
    /// (SELL's slots keep the row's order), `csr-unrolled4` in four
    /// partial sums by position mod 4 plus a tail.
    fn indexed(
        kind: KernelKind,
        v: CsrView<'_>,
        rows: Range<usize>,
        x: &[f64],
        y: &mut [f64],
        add: bool,
    ) {
        for i in rows {
            let r = v.row_range(i);
            let term = |j: usize| v.values()[j] * x[v.col_idx()[j] as usize];
            let sum = if kind == KernelKind::CsrUnrolled4 {
                let n4 = r.start + (r.len() & !3);
                let (mut s, mut tail) = ([0.0f64; 4], 0.0);
                for j in r.start..n4 {
                    s[(j - r.start) % 4] += term(j);
                }
                for j in n4..r.end {
                    tail += term(j);
                }
                (s[0] + s[1]) + (s[2] + s[3]) + tail
            } else {
                r.fold(0.0, |sum, j| sum + term(j))
            };
            y[i] = if add { y[i] + sum } else { sum };
        }
    }

    /// Every kernel gives the same bits on the views as on the separate
    /// copies, for the unsplit product and for the local-then-non-local
    /// one, and both match the global product; the full view is the
    /// block in storage order, array for array, reading the caller's
    /// values in place. `csr-scalar` keeps the serial product's bits on
    /// the full view, and every kernel keeps its indexed loop's bits on
    /// every view, serially and over odd rows. Every part's `nnz_before`
    /// counts its view's rows.
    fn check_views(m: &CsrMatrix, p: &RowPartition) {
        let x = vecops::random_vec(m.ncols(), 17);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let (mut y_global, mut want) = (vec![0.0; m.nrows()], vec![0.0; m.nrows()]);
        m.spmv(&x, &mut y_global);
        indexed(
            KernelKind::CsrScalar,
            m.view(),
            0..m.nrows(),
            &x,
            &mut want,
            false,
        );
        assert_eq!(bits(&y_global), bits(&want), "serial reference");
        let mut kinds = KernelKind::candidates();
        kinds.push(KernelKind::Sell { c: 4, sigma: 1 });
        for plan in build_plans_serial(m, p) {
            let (rank, range) = (plan.rank, p.range(plan.rank));
            let block = m.row_block(range.clone());
            let s = SplitMatrix::build(&block, &plan);
            let (full, local, nonlocal) = reference_copies(&block, &plan);
            let (v, full) = (s.full.view(), csr_view(&full));
            assert_eq!(
                (v.begin(), v.end()),
                (full.begin(), full.end()),
                "rank {rank}"
            );
            assert_eq!((v.col_idx(), v.values()), (full.col_idx(), full.values()));
            assert!(std::ptr::eq(v.values(), block.values()), "values shared");
            assert_eq!(s.local.nnz(), local.nnz(), "rank {rank}");
            for part in [&s.full, &s.local, &s.nonlocal] {
                let rows = (0..part.nrows()).map(|i| part.view().row_range(i).len());
                let want: Vec<usize> = [0]
                    .into_iter()
                    .chain(rows)
                    .scan(0, |acc, len| {
                        *acc += len;
                        Some(*acc)
                    })
                    .collect();
                let got: Vec<usize> = (0..=part.nrows()).map(|i| part.nnz_before(i)).collect();
                assert_eq!(got, want, "rank {rank}");
            }

            let halo: Vec<f64> = plan.halo_globals().iter().map(|&g| x[g as usize]).collect();
            let x_ext = [&x[range.clone()], &halo].concat();
            let (x_local, n) = (&x_ext[..plan.local_len], range.len());
            for &kind in &kinds {
                let run = |mat: CsrView<'_>, x: &[f64], y: &mut [f64], add: bool| {
                    prepare_kernel(kind, mat).spmv_rows(mat, 0..n, x, y, add);
                };
                let (mut want, mut got) = (vec![0.0; n], vec![0.0; n]);
                run(full, &x_ext, &mut want, false);
                run(s.full.view(), &x_ext, &mut got, false);
                assert_eq!(bits(&got), bits(&want), "{kind} full, rank {rank}");
                if kind == KernelKind::CsrScalar {
                    assert_eq!(bits(&got), bits(&y_global[range.clone()]), "rank {rank}");
                }
                assert!(vecops::max_abs_diff(&got, &y_global[range.clone()]) < 1e-12);

                run(local.view(), x_local, &mut want, false);
                run(nonlocal.view(), &halo, &mut want, true);
                run(s.local.view(), x_local, &mut got, false);
                run(s.nonlocal.view(), &x_ext, &mut got, true);
                assert_eq!(bits(&got), bits(&want), "{kind} split, rank {rank}");
                assert!(vecops::max_abs_diff(&got, &y_global[range.clone()]) < 1e-12);
            }
            let views = [(s.full.view(), &x_ext[..]), (s.local.view(), x_local)];
            for (v, x) in views.into_iter().chain([(s.nonlocal.view(), &x_ext[..])]) {
                for &kind in &kinds {
                    let kern = prepare_kernel(kind, v);
                    for (rows, add) in [(0..n, false), (1..(n - 1) | 1, false), (0..n, true)] {
                        let (mut want, mut got) = (x_local.to_vec(), x_local.to_vec());
                        indexed(kind, v, rows.clone(), x, &mut want, add);
                        kern.spmv_rows(v, rows.clone(), x, &mut got, add);
                        let at = format!("{kind}, rank {rank} {rows:?} add {add}");
                        assert_eq!(bits(&got), bits(&want), "{at}");
                        for i in rows.filter(|&i| !add && v.row_range(i).is_empty()) {
                            assert_eq!(got[i].to_bits(), 0, "{at}: empty row {i} gives +0.0");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_kernel_keeps_the_indexed_loop_bits_on_one_to_four_ranks() {
        let hmep = hamiltonian(&HolsteinParams::test_scale(
            HolsteinOrdering::ElectronContiguous,
        ));
        for m in [hmep, synthetic::power_law_rows(999, 9.0, 1.0, 5)] {
            for ranks in 1..=4 {
                check_views(&m, &RowPartition::by_nnz(&m, ranks));
            }
        }
    }

    #[test]
    fn split_spmv_equals_full_spmv_per_rank() {
        let m = synthetic::random_general(150, 150, 8, 31);
        check_views(&m, &RowPartition::by_nnz(&m, 3));
    }

    #[test]
    fn split_spmv_with_halo_on_both_sides() {
        let m = synthetic::random_banded_symmetric(300, 25, 6.0, 8);
        let p = RowPartition::by_nnz(&m, 5);
        // middle ranks have halo on both sides, the first only right and
        // the last only left
        for plan in build_plans_serial(&m, &p) {
            let (g, start) = (plan.halo_globals(), plan.row_start as u32);
            let sides = (g[0] < start, g[g.len() - 1] > start);
            assert_eq!(sides, (plan.rank > 0, plan.rank < 4), "rank {}", plan.rank);
        }
        check_views(&m, &p);
    }

    #[test]
    fn split_spmv_with_empty_and_halo_only_rows() {
        // ranks own rows 0..3 and 3..6; row 1 is empty, rows 2 and 3 only
        // reach the other rank's columns
        let m = CsrMatrix::try_new(
            6,
            6,
            vec![0, 3, 3, 5, 6, 10, 12],
            vec![0, 1, 5, 3, 4, 0, 2, 3, 4, 5, 1, 5],
            vec![
                4.0, -1.0, 0.5, 2.0, -3.0, 1.5, -0.25, 1.0, 2.0, 1.0, 3.0, 6.0,
            ],
        )
        .expect("valid CSR");
        let p = RowPartition::from_boundaries(vec![0, 3, 6]);
        let splits = split_on(&m, &p);
        let cols = |s: &SplitMatrix, i| {
            let (l, n) = (s.local.view(), s.nonlocal.view());
            (l.row(i).0.to_vec(), n.row(i).0.to_vec())
        };
        assert_eq!(cols(&splits[0], 1), (vec![], vec![]));
        assert_eq!(cols(&splits[0], 2), (vec![], vec![3, 4]));
        assert_eq!(cols(&splits[1], 0), (vec![], vec![3]));
        check_views(&m, &p);
    }

    #[test]
    fn split_conserves_nonzeros() {
        let m = synthetic::random_banded_symmetric(200, 20, 6.0, 4);
        let splits = split_all(&m, 4);
        let total: usize = splits
            .iter()
            .map(|s| s.local.nnz() + s.nonlocal.nnz())
            .sum();
        assert_eq!(total, m.nnz());
    }

    #[test]
    fn tridiagonal_nonlocal_is_only_boundary() {
        let m = synthetic::tridiagonal(100, 2.0, -1.0);
        let splits = split_all(&m, 4);
        for (k, s) in splits.iter().enumerate() {
            let expected = match k {
                0 | 3 => 1,
                _ => 2,
            };
            assert_eq!(s.nonlocal.nnz(), expected, "rank {k}");
        }
    }

    #[test]
    fn diagonal_matrix_has_empty_nonlocal_part() {
        let m = CsrMatrix::identity(64);
        for s in split_all(&m, 4) {
            assert_eq!(s.nonlocal.nnz(), 0);
        }
    }

    #[test]
    fn single_rank_split_everything_local() {
        let m = synthetic::random_general(60, 60, 6, 9);
        let splits = split_all(&m, 1);
        assert_eq!(splits[0].local.nnz(), m.nnz());
        assert_eq!(splits[0].nonlocal.nnz(), 0);
    }

    #[test]
    fn scattered_matrix_is_mostly_nonlocal() {
        let m = synthetic::scattered(128, 16, 3);
        let p = RowPartition::by_nnz(&m, 8);
        check_views(&m, &p);
        for s in split_on(&m, &p) {
            let fraction = s.nonlocal.nnz() as f64 / s.full.nnz() as f64;
            assert!(
                fraction > 0.5,
                "scattered matrix should be communication-dominated, got {fraction}"
            );
        }
    }
}
