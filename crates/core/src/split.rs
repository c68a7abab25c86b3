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
//! matrix instead. The rank's block is stored once: its columns index the
//! extended RHS `x_ext = [local | halo]`, and each row holds its local
//! entries first, then its halo entries in ascending halo index, with a
//! split offset `mid[i]` between the two. The parts are views of it:
//!
//! * `full` — row `i` is `row_ptr[i]..row_ptr[i + 1]`, over all of `x_ext`;
//! * `local` — `row_ptr[i]..mid[i]`, over `x_ext[..local_len]`;
//! * `nonlocal` — the entries `mid[i]..row_ptr[i + 1]`, over all of `x_ext`
//!   (read only after the halo exchange completes), kept in a compact copy
//!   of the halo entries alone. Read in place, each row's few halo entries
//!   would cost the non-local pass a cache line of the block: on HMeP
//!   (0.6 M rows per rank, 2.7 % halo entries) that pass took 4.9 ms in
//!   place against 0.9 ms from the copy.
//!
//! Local columns precede halo columns in `x_ext`, so each stored row is
//! sorted by its `x_ext` column: the block is exactly the CSR matrix a
//! separate unsplit copy would be, and each part sums its entries in the
//! order a separate copy of that part would.

use crate::modes::Part;
use crate::plan::RankPlan;
use spmv_matrix::{CsrMatrix, CsrView};
use std::sync::Arc;

/// The stored block: columns in `x_ext` space, each row local-first.
#[derive(Debug)]
struct Block {
    csr: CsrMatrix,
    /// Where row `i`'s local entries end and its halo entries begin.
    mid: Vec<usize>,
    local_len: usize,
    /// The halo entries alone, row `i` being `csr`'s `mid[i]..` part.
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
            mid,
            local_len,
            nonlocal,
        } = &*self.block;
        match self.part {
            Part::Full => csr.view(),
            Part::Local => CsrView {
                end: mid,
                ncols: *local_len,
                ..csr.view()
            },
            Part::Nonlocal => nonlocal.view(),
        }
    }

    /// Number of rows (the rank's local rows).
    pub fn nrows(&self) -> usize {
        self.block.mid.len()
    }

    /// Length of the `x` this part reads: `local_len` for the local part,
    /// `local_len + halo_len` otherwise.
    pub fn ncols(&self) -> usize {
        self.view().ncols
    }

    /// Stored entries of this part.
    pub fn nnz(&self) -> usize {
        self.view().nnz()
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
    /// copies out the halo entries.
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
        let mut values = Vec::with_capacity(block.nnz());
        let mut mid = Vec::with_capacity(nloc);
        let (mut nl_ptr, mut nl_cols, mut nl_vals) = (vec![0], Vec::new(), Vec::new());
        for i in 0..nloc {
            // a sorted row is [halo left of lo | local | halo from hi on]
            let (cols, vals) = block.row(i);
            let a = cols.partition_point(|&c| c < lo);
            let b = a + cols[a..].partition_point(|&c| c < hi);
            col_idx.extend(cols[a..b].iter().map(|&c| c - lo));
            values.extend_from_slice(&vals[a..b]);
            mid.push(col_idx.len());
            col_idx.extend(cols[..a].iter().map(halo_col));
            col_idx.extend(cols[b..].iter().map(halo_col));
            values.extend_from_slice(&vals[..a]);
            values.extend_from_slice(&vals[b..]);
            nl_cols.extend_from_slice(&col_idx[mid[i]..]);
            nl_vals.extend_from_slice(&values[mid[i]..]);
            nl_ptr.push(nl_cols.len());
        }
        let ncols = nloc + halo_globals.len();
        nl_cols.shrink_to_fit();
        nl_vals.shrink_to_fit();
        let nonlocal = CsrMatrix::from_parts_unchecked(nloc, ncols, nl_ptr, nl_cols, nl_vals);
        let csr =
            CsrMatrix::from_parts_unchecked(nloc, ncols, block.row_ptr().to_vec(), col_idx, values);
        let block = Arc::new(Block {
            csr,
            mid,
            local_len: nloc,
            nonlocal,
        });
        let part = |part| BlockPart {
            block: Arc::clone(&block),
            part,
        };
        Self {
            full: part(Part::Full),
            local: part(Part::Local),
            nonlocal: part(Part::Nonlocal),
        }
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

    /// The three separate copies the block replaces, built one
    /// `CsrBuilder` per part: `full` over `x_ext`, `local` over the local
    /// columns, `nonlocal` over the halo buffer alone.
    fn three_copies(block: &CsrMatrix, plan: &RankPlan) -> [CsrMatrix; 3] {
        let (nloc, halo) = (plan.local_len, plan.halo_globals());
        let lo = plan.row_start as u32;
        let mut full = CsrBuilder::new(nloc + halo.len(), block.nnz());
        let mut local = CsrBuilder::new(nloc, block.nnz());
        let mut nonlocal = CsrBuilder::new(halo.len(), block.nnz());
        for i in 0..block.nrows() {
            let (cols, vals) = block.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                if (lo..lo + nloc as u32).contains(&c) {
                    full.push((c - lo) as usize, v);
                    local.push((c - lo) as usize, v);
                } else {
                    let h = halo.binary_search(&c).expect("halo column");
                    full.push(nloc + h, v);
                    nonlocal.push(h, v);
                }
            }
            full.finish_row();
            local.finish_row();
            nonlocal.finish_row();
        }
        [full.build(), local.build(), nonlocal.build()]
    }

    /// `csr-scalar`'s row sums as an indexed loop over the shared arrays:
    /// the reference whose bits the per-row slice kernel must keep.
    fn indexed_scalar(v: CsrView<'_>, rows: Range<usize>, x: &[f64], y: &mut [f64], add: bool) {
        for i in rows {
            let mut sum = 0.0;
            for j in v.begin[i]..v.end[i] {
                sum += v.values[j] * x[v.col_idx[j] as usize];
            }
            y[i] = if add { y[i] + sum } else { sum };
        }
    }

    /// Every kernel gives the same bits on the views as on the separate
    /// copies, for the unsplit product and for the local-then-non-local
    /// one, and both match the global product; the full view is the
    /// separate full copy, array for array. `csr-scalar` also keeps the
    /// indexed loop's bits on every view, serially and over odd rows.
    fn check_views(m: &CsrMatrix, p: &RowPartition) {
        let x = vecops::random_vec(m.ncols(), 17);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let (mut y_global, mut want) = (vec![0.0; m.nrows()], vec![0.0; m.nrows()]);
        m.spmv(&x, &mut y_global);
        indexed_scalar(m.view(), 0..m.nrows(), &x, &mut want, false);
        assert_eq!(bits(&y_global), bits(&want), "serial reference");
        let mut kinds = KernelKind::candidates();
        kinds.push(KernelKind::Sell { c: 4, sigma: 1 });
        for plan in build_plans_serial(m, p) {
            let (rank, range) = (plan.rank, p.range(plan.rank));
            let block = m.row_block(range.clone());
            let s = SplitMatrix::build(&block, &plan);
            let [full, local, nonlocal] = three_copies(&block, &plan);
            let v = s.full.view();
            assert_eq!(v.nnz_prefix(), full.row_ptr(), "rank {rank}");
            assert_eq!((v.col_idx, v.values), (full.col_idx(), full.values()));
            assert_eq!(s.local.nnz(), local.nnz(), "rank {rank}");

            let halo: Vec<f64> = plan.halo_globals().iter().map(|&g| x[g as usize]).collect();
            let x_ext = [&x[range.clone()], &halo].concat();
            let (x_local, n) = (&x_ext[..plan.local_len], range.len());
            for &kind in &kinds {
                let run = |mat: CsrView<'_>, x: &[f64], y: &mut [f64], add: bool| {
                    prepare_kernel(kind, mat).spmv_rows(mat, 0..n, x, y, add);
                };
                let (mut want, mut got) = (vec![0.0; n], vec![0.0; n]);
                run(full.view(), &x_ext, &mut want, false);
                run(s.full.view(), &x_ext, &mut got, false);
                assert_eq!(bits(&got), bits(&want), "{kind} full, rank {rank}");
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
                let scalar = prepare_kernel(KernelKind::CsrScalar, v);
                for (rows, add) in [(0..n, false), (1..(n - 1) | 1, false), (0..n, true)] {
                    let (mut want, mut got) = (x_local.to_vec(), x_local.to_vec());
                    indexed_scalar(v, rows.clone(), x, &mut want, add);
                    scalar.spmv_rows(v, rows.clone(), x, &mut got, add);
                    assert_eq!(bits(&got), bits(&want), "rank {rank} {rows:?} add {add}");
                    for i in rows.filter(|&i| !add && v.row_range(i).is_empty()) {
                        assert_eq!(got[i].to_bits(), 0, "empty row {i} gives +0.0");
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_kernel_keeps_the_indexed_loop_bits_on_hmep_and_power_law() {
        let hmep = hamiltonian(&HolsteinParams::test_scale(
            HolsteinOrdering::ElectronContiguous,
        ));
        for m in [hmep, synthetic::power_law_rows(999, 9.0, 1.0, 5)] {
            check_views(&m, &RowPartition::by_nnz(&m, 3));
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
