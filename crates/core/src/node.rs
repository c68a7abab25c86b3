//! Node-level (shared-memory only) parallel SpMV — the kernel behind the
//! paper's Fig. 3 measurements: "a simple OpenMP parallelization of the
//! outermost loop, together with an appropriate NUMA-aware data placement
//! strategy has proven to provide best node-level performance" (§2).
//!
//! Used by the host-calibration harness (`calibrate_host` bin) to measure
//! real SpMV scaling on the machine at hand, and by anyone who wants the
//! multithreaded kernel without the distributed machinery.

use spmv_matrix::CsrMatrix;
use spmv_smp::workshare::balanced_chunks;
use spmv_smp::ThreadTeam;
use std::ops::Range;

/// Raw pointer wrapper for disjoint multi-threaded writes.
#[derive(Clone, Copy)]
struct MutPtr(*mut f64);
// SAFETY: points into a caller-owned `y` that outlives the team region;
// each thread writes only its own disjoint row chunk.
unsafe impl Send for MutPtr {}
// SAFETY: as for `Send`.
unsafe impl Sync for MutPtr {}
impl MutPtr {
    /// # Safety
    /// Caller must guarantee disjoint element access across threads.
    #[inline]
    unsafe fn at(&self, i: usize) -> *mut f64 {
        self.0.add(i)
    }
}

/// Precomputed nonzero-balanced row chunks for a team size, reusable across
/// SpMV calls.
pub struct NodeSpmv {
    chunks: Vec<Range<usize>>,
}

impl NodeSpmv {
    /// Plans chunks of `matrix` for a team of `threads`.
    pub fn plan(matrix: &CsrMatrix, threads: usize) -> Self {
        Self {
            chunks: balanced_chunks(matrix.row_ptr(), threads),
        }
    }

    /// `y = A x` with one contiguous nonzero-balanced chunk per thread.
    ///
    /// # Panics
    /// If the team size differs from the planned thread count, or vector
    /// lengths mismatch.
    pub fn spmv(&self, team: &ThreadTeam, matrix: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            team.size(),
            self.chunks.len(),
            "plan does not match the team"
        );
        assert_eq!(x.len(), matrix.ncols());
        assert_eq!(y.len(), matrix.nrows());
        let row_ptr = matrix.row_ptr();
        let col_idx = matrix.col_idx();
        let values = matrix.values();
        let yp = MutPtr(y.as_mut_ptr());
        let chunks = &self.chunks;
        team.run(|ctx| {
            for i in chunks[ctx.tid].clone() {
                let mut sum = 0.0;
                for k in row_ptr[i]..row_ptr[i + 1] {
                    sum += values[k] * x[col_idx[k] as usize];
                }
                // SAFETY: chunks are disjoint row ranges.
                unsafe { *yp.at(i) = sum };
            }
        });
    }
}

/// Convenience: plan + execute in one call (replans every time; for
/// repeated application keep a [`NodeSpmv`]).
pub fn parallel_spmv(team: &ThreadTeam, matrix: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    NodeSpmv::plan(matrix, team.size()).spmv(team, matrix, x, y);
}

/// Measures the multithreaded SpMV performance in GFlop/s: best of `reps`
/// timed applications (after one warm-up that also faults in the data).
pub fn measure_spmv_gflops(team: &ThreadTeam, matrix: &CsrMatrix, reps: usize) -> f64 {
    assert!(reps >= 1);
    let plan = NodeSpmv::plan(matrix, team.size());
    let x = vec![1.0f64; matrix.ncols()];
    let mut y = vec![0.0f64; matrix.nrows()];
    plan.spmv(team, matrix, &x, &mut y); // warm-up / first touch
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        plan.spmv(team, matrix, &x, &mut y);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(&y);
    2.0 * matrix.nnz() as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrix::{synthetic, vecops};

    #[test]
    fn parallel_spmv_matches_serial() {
        let m = synthetic::random_banded_symmetric(800, 40, 7.0, 3);
        let x = vecops::random_vec(800, 1);
        let mut y_ref = vec![0.0; 800];
        m.spmv(&x, &mut y_ref);
        for threads in [1, 2, 3, 5] {
            let team = ThreadTeam::new(threads);
            let mut y = vec![0.0; 800];
            parallel_spmv(&team, &m, &x, &mut y);
            assert!(
                vecops::max_abs_diff(&y, &y_ref) < 1e-12,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn planned_spmv_is_reusable() {
        let m = synthetic::random_general(300, 300, 8, 5);
        let team = ThreadTeam::new(3);
        let plan = NodeSpmv::plan(&m, 3);
        for seed in 0..4u64 {
            let x = vecops::random_vec(300, seed);
            let mut y_ref = vec![0.0; 300];
            m.spmv(&x, &mut y_ref);
            let mut y = vec![0.0; 300];
            plan.spmv(&team, &m, &x, &mut y);
            assert!(vecops::max_abs_diff(&y, &y_ref) < 1e-12);
        }
    }

    #[test]
    fn measurement_returns_positive_gflops() {
        let m = synthetic::random_banded_symmetric(2000, 50, 7.0, 2);
        let team = ThreadTeam::new(2);
        let gf = measure_spmv_gflops(&team, &m, 2);
        assert!(gf > 0.0 && gf.is_finite());
    }

    #[test]
    #[should_panic(expected = "plan does not match")]
    fn mismatched_plan_rejected() {
        let m = synthetic::tridiagonal(50, 2.0, -1.0);
        let plan = NodeSpmv::plan(&m, 2);
        let team = ThreadTeam::new(3);
        let x = vec![0.0; 50];
        let mut y = vec![0.0; 50];
        plan.spmv(&team, &m, &x, &mut y);
    }
}
