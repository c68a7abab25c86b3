//! Contiguous row partitioning across MPI ranks.
//!
//! "MPI parallelization of spMVM is generally done by distributing the
//! nonzeros (or, alternatively, the matrix rows), the right hand side
//! vector B(:), and the result vector C(:) evenly across MPI processes"
//! (§3.1). We implement both policies; the paper "use\[s\] a balanced
//! distribution of nonzeros across the MPI processes" (footnote 2), which
//! is the default everywhere in this workspace.

use spmv_matrix::CsrMatrix;
use spmv_smp::workshare::balanced_chunks;
use std::ops::Range;

/// A contiguous partition of `0..nrows` into `parts` ranges, stored as
/// `parts + 1` boundary offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    boundaries: Vec<usize>,
}

impl RowPartition {
    /// Equal-rows partition (the naive alternative).
    pub fn by_rows(nrows: usize, parts: usize) -> Self {
        assert!(parts >= 1);
        let mut boundaries = Vec::with_capacity(parts + 1);
        for k in 0..=parts {
            boundaries.push(k * nrows / parts);
        }
        Self { boundaries }
    }

    /// Nonzero-balanced partition (the paper's policy): row boundaries are
    /// chosen so each rank owns approximately `nnz / parts` nonzeros.
    pub fn by_nnz(matrix: &CsrMatrix, parts: usize) -> Self {
        assert!(parts >= 1);
        let chunks = balanced_chunks(matrix.row_ptr(), parts);
        let mut boundaries = Vec::with_capacity(parts + 1);
        boundaries.push(0);
        for c in &chunks {
            boundaries.push(c.end);
        }
        Self { boundaries }
    }

    /// Builds from explicit boundaries (`parts + 1` non-decreasing offsets,
    /// first 0).
    pub fn from_boundaries(boundaries: Vec<usize>) -> Self {
        assert!(boundaries.len() >= 2, "need at least one part");
        assert_eq!(boundaries[0], 0);
        assert!(
            boundaries.windows(2).all(|w| w[0] <= w[1]),
            "boundaries must be sorted"
        );
        Self { boundaries }
    }

    /// Number of parts (ranks).
    pub fn parts(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Total number of rows covered.
    pub fn nrows(&self) -> usize {
        *self
            .boundaries
            .last()
            .expect("boundaries always hold the leading 0")
    }

    /// The row range of rank `part`.
    pub fn range(&self, part: usize) -> Range<usize> {
        self.boundaries[part]..self.boundaries[part + 1]
    }

    /// Number of rows owned by `part`.
    pub fn len(&self, part: usize) -> usize {
        self.range(part).len()
    }

    /// Whether `part` owns no rows (possible when `parts > nrows`).
    pub fn is_empty(&self, part: usize) -> bool {
        self.len(part) == 0
    }

    /// The rank owning global row/column `idx`.
    ///
    /// With empty parts present, the unique *owning* part is the one whose
    /// half-open range contains `idx`.
    pub fn owner_of(&self, idx: usize) -> usize {
        assert!(
            idx < self.nrows(),
            "index {idx} out of range {}",
            self.nrows()
        );
        // partition_point gives the first boundary > idx; part = that - 1
        let p = self.boundaries.partition_point(|&b| b <= idx);
        p - 1
    }

    /// The boundary offsets (length `parts + 1`).
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// Maximum over parts of `nnz(part) / (nnz/parts)` for a given matrix —
    /// the nonzero load-balance quality of this partition.
    pub fn nnz_imbalance(&self, matrix: &CsrMatrix) -> f64 {
        let total = matrix.nnz() as f64;
        if total == 0.0 {
            return 1.0;
        }
        let ideal = total / self.parts() as f64;
        (0..self.parts())
            .map(|p| {
                let r = self.range(p);
                (matrix.row_ptr()[r.end] - matrix.row_ptr()[r.start]) as f64 / ideal
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrix::synthetic;

    #[test]
    fn by_rows_splits_evenly() {
        let p = RowPartition::by_rows(10, 3);
        assert_eq!(p.parts(), 3);
        assert_eq!(p.nrows(), 10);
        let lens: Vec<_> = (0..3).map(|k| p.len(k)).collect();
        assert_eq!(lens.iter().sum::<usize>(), 10);
        assert!(lens.iter().all(|&l| l == 3 || l == 4));
    }

    #[test]
    fn by_nnz_balances_skewed_matrix() {
        // Arrow matrix: first row dense, everything else tiny.
        let mut coo = spmv_matrix::CooMatrix::new(100, 100);
        for j in 0..100 {
            coo.push(0, j, 1.0);
        }
        for i in 1..100 {
            coo.push(i, i, 1.0);
        }
        let m = coo.to_csr().unwrap();
        let by_rows = RowPartition::by_rows(100, 4);
        let by_nnz = RowPartition::by_nnz(&m, 4);
        assert!(by_nnz.nnz_imbalance(&m) < by_rows.nnz_imbalance(&m));
        // rank 0 should own just the heavy first row (plus maybe a little)
        assert!(by_nnz.len(0) < 30);
    }

    #[test]
    fn owner_of_respects_boundaries() {
        let p = RowPartition::from_boundaries(vec![0, 4, 4, 10]);
        assert_eq!(p.owner_of(0), 0);
        assert_eq!(p.owner_of(3), 0);
        assert_eq!(p.owner_of(4), 2, "rank 1 is empty; row 4 belongs to rank 2");
        assert_eq!(p.owner_of(9), 2);
        assert!(p.is_empty(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_of_out_of_range() {
        let p = RowPartition::by_rows(5, 2);
        let _ = p.owner_of(5);
    }

    #[test]
    fn ranges_tile_the_row_space() {
        let m = synthetic::random_banded_symmetric(500, 13, 6.0, 2);
        for parts in [1, 2, 3, 7, 16] {
            let p = RowPartition::by_nnz(&m, parts);
            assert_eq!(p.parts(), parts);
            assert_eq!(p.range(0).start, 0);
            assert_eq!(p.range(parts - 1).end, 500);
            for k in 0..parts - 1 {
                assert_eq!(p.range(k).end, p.range(k + 1).start);
            }
            for k in 0..parts {
                for i in p.range(k) {
                    assert_eq!(p.owner_of(i), k);
                }
            }
        }
    }

    #[test]
    fn nnz_partition_quality_on_uniform_matrix() {
        let m = synthetic::random_general(1000, 1000, 9, 5);
        let p = RowPartition::by_nnz(&m, 8);
        assert!(
            p.nnz_imbalance(&m) < 1.02,
            "imbalance {}",
            p.nnz_imbalance(&m)
        );
    }

    #[test]
    fn more_parts_than_rows() {
        let m = synthetic::tridiagonal(3, 2.0, -1.0);
        let p = RowPartition::by_nnz(&m, 8);
        assert_eq!(p.parts(), 8);
        assert_eq!(p.nrows(), 3);
        let nonempty = (0..8).filter(|&k| !p.is_empty(k)).count();
        assert!(nonempty <= 3);
    }

    #[test]
    fn single_part_owns_everything() {
        let m = synthetic::tridiagonal(10, 2.0, -1.0);
        let p = RowPartition::by_nnz(&m, 1);
        assert_eq!(p.range(0), 0..10);
        assert_eq!(p.nnz_imbalance(&m), 1.0);
    }
}
