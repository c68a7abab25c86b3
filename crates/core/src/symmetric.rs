//! Shared-memory parallel symmetric SpMV — the routine the paper says had
//! not been presented yet (§1.3.1), built here as the natural extension.
//!
//! The difficulty the paper alludes to: in the symmetric kernel every
//! stored entry `(i, j)` updates *two* result entries, `y[i]` and `y[j]`;
//! with threads owning contiguous row blocks, the `y[j]` ("transpose")
//! updates cross block boundaries and race. The classic resolution is
//! private accumulation buffers:
//!
//! 1. each thread sweeps its (stored-nonzero-balanced) row chunk, writing
//!    `y[i]` terms directly (rows are disjoint) and `y[j]` terms into a
//!    thread-private buffer;
//! 2. a barrier;
//! 3. the buffers are reduced into `y`, each thread reducing its own row
//!    chunk across all buffers.
//!
//! The extra traffic is the buffer write+read: `T·16·N` bytes for `T`
//! threads (zeroing + accumulation is bounded by touched rows, but the
//! worst case is full buffers), against the ≈halved matrix traffic. The
//! break-even is quantified by
//! [`spmv_model`-style accounting in `symmetric_balance`] and measured by
//! the `sym_kernel` Criterion bench.

use spmv_matrix::sym::SymmetricCsr;
use spmv_smp::workshare::{balanced_chunks, static_chunk};
use spmv_smp::ThreadTeam;
use std::ops::Range;

/// Raw pointer wrapper for disjoint multi-threaded writes.
#[derive(Clone, Copy)]
struct MutPtr(*mut f64);
// SAFETY: targets either a caller-owned `y` or a per-thread scratch buffer,
// both outliving the team region; writers follow the disjointness contract
// of `MutPtr::at`.
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

/// Reusable workspace for [`parallel_symmetric_spmv`] (one `n`-vector per
/// thread, allocated once and reused across calls).
pub struct SymmetricWorkspace {
    buffers: Vec<Vec<f64>>,
    chunks: Vec<Range<usize>>,
}

impl SymmetricWorkspace {
    /// Builds the workspace for `matrix` on a team of `threads`.
    pub fn new(matrix: &SymmetricCsr, threads: usize) -> Self {
        assert!(threads >= 1);
        Self {
            buffers: (0..threads).map(|_| vec![0.0; matrix.n()]).collect(),
            chunks: balanced_chunks(matrix.row_ptr(), threads),
        }
    }

    /// Number of threads this workspace serves.
    pub fn threads(&self) -> usize {
        self.buffers.len()
    }
}

/// Parallel symmetric SpMV `y = A x` over a thread team.
///
/// # Panics
/// If the workspace thread count differs from the team size, or the vector
/// lengths do not match the matrix.
pub fn parallel_symmetric_spmv(
    team: &ThreadTeam,
    matrix: &SymmetricCsr,
    x: &[f64],
    y: &mut [f64],
    ws: &mut SymmetricWorkspace,
) {
    let n = matrix.n();
    assert_eq!(x.len(), n);
    assert_eq!(y.len(), n);
    assert_eq!(ws.threads(), team.size(), "workspace must match the team");
    let t = team.size();

    let row_ptr = matrix.row_ptr();
    let col_idx = matrix.col_idx();
    let values = matrix.values();
    let chunks = &ws.chunks;
    let yp = MutPtr(y.as_mut_ptr());
    // stable addresses of the per-thread buffers
    let buf_ptrs: Vec<MutPtr> = ws
        .buffers
        .iter_mut()
        .map(|b| MutPtr(b.as_mut_ptr()))
        .collect();

    team.run(|ctx| {
        let tid = ctx.tid;
        let my_rows = chunks[tid].clone();
        let buf = buf_ptrs[tid];

        // zero my private buffer (only the columns reachable from my rows
        // matter, but zeroing everything is branch-free and predictable)
        for i in 0..n {
            // SAFETY: each thread owns buffer `tid` exclusively here.
            unsafe { *buf.at(i) = 0.0 };
        }

        // phase 1: sweep my rows
        for i in my_rows.clone() {
            let xi = x[i];
            let mut sum = 0.0;
            for k in row_ptr[i]..row_ptr[i + 1] {
                let j = col_idx[k] as usize;
                let v = values[k];
                sum += v * x[j];
                if j != i {
                    // SAFETY: transpose contribution goes to this thread's
                    // private buffer — no cross-thread aliasing.
                    unsafe { *buf.at(j) += v * xi };
                }
            }
            // SAFETY: y[i] is owned by this thread (disjoint row chunks).
            unsafe { *yp.at(i) = sum };
        }

        ctx.barrier();

        // phase 2: reduce all buffers into y over a static row split
        // (different from the nnz-balanced chunks — reduction cost is per
        // row, not per nonzero)
        for i in static_chunk(n, t, tid) {
            // SAFETY: static_chunk gives each thread a disjoint range of
            // `i`, so every y[i] has exactly one writer.
            let mut acc = unsafe { *yp.at(i) };
            for bp in &buf_ptrs {
                // SAFETY: after the barrier all private buffers are
                // read-only.
                acc += unsafe { *bp.at(i) };
            }
            // SAFETY: as above — this thread is `i`'s only writer.
            unsafe { *yp.at(i) = acc };
        }
    });
}

/// Analytic code balance of the parallel symmetric kernel in bytes/flop
/// (flops counted for the *full* matrix, so directly comparable with
/// `spmv_model::code_balance_crs`):
///
/// * matrix data: `(12 + κ/…)` bytes per *stored* entry ≈ half the full
///   kernel's per-flop share → `(12 + κ)·(nnz/2) / (2·nnz) = 3 + κ/4…`,
///   approximated with the same κ convention as Eq. (1);
/// * result vector: one write (16 B/row);
/// * RHS: 8 B/row minimum;
/// * reduction: `threads` buffers are written and read once per SpMV:
///   `threads · (16 + 8)` bytes per row.
pub fn symmetric_balance(nnzr_full: f64, kappa: f64, threads: usize) -> f64 {
    assert!(nnzr_full > 0.0);
    let per_flop_matrix = (12.0 + kappa) / 4.0; // half the entries, 2 flops each
    let per_row = 16.0 + 8.0 + threads as f64 * 24.0;
    per_flop_matrix + per_row / (2.0 * nnzr_full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrix::{synthetic, vecops};
    use spmv_model::code_balance_crs;

    fn check(n: usize, bw: usize, nnzr: f64, seed: u64, threads: usize) {
        let full = synthetic::random_banded_symmetric(n, bw, nnzr, seed);
        let sym = SymmetricCsr::from_full(&full, 0.0).unwrap();
        let x = vecops::random_vec(n, seed + 1);
        let mut y_ref = vec![0.0; n];
        full.spmv(&x, &mut y_ref);

        let team = ThreadTeam::new(threads);
        let mut ws = SymmetricWorkspace::new(&sym, threads);
        let mut y = vec![0.0; n];
        parallel_symmetric_spmv(&team, &sym, &x, &mut y, &mut ws);
        let err = vecops::max_abs_diff(&y, &y_ref);
        assert!(err < 1e-11, "n={n} threads={threads}: err {err}");
    }

    #[test]
    fn matches_full_kernel_single_thread() {
        check(300, 30, 6.0, 1, 1);
    }

    #[test]
    fn matches_full_kernel_multithreaded() {
        for threads in [2, 3, 4, 7] {
            check(500, 40, 7.0, 2, threads);
        }
    }

    #[test]
    fn workspace_is_reusable_across_calls() {
        let full = synthetic::random_banded_symmetric(200, 20, 5.0, 3);
        let sym = SymmetricCsr::from_full(&full, 0.0).unwrap();
        let team = ThreadTeam::new(3);
        let mut ws = SymmetricWorkspace::new(&sym, 3);
        let mut y = vec![0.0; 200];
        for seed in 0..5u64 {
            let x = vecops::random_vec(200, seed);
            let mut y_ref = vec![0.0; 200];
            full.spmv(&x, &mut y_ref);
            parallel_symmetric_spmv(&team, &sym, &x, &mut y, &mut ws);
            assert!(vecops::max_abs_diff(&y, &y_ref) < 1e-11, "iteration {seed}");
        }
    }

    #[test]
    fn holstein_symmetric_parallel() {
        use spmv_matrix::holstein::{hamiltonian, HolsteinOrdering, HolsteinParams};
        let h = hamiltonian(&HolsteinParams::test_scale(
            HolsteinOrdering::ElectronContiguous,
        ));
        let sym = SymmetricCsr::from_full(&h, 1e-12).unwrap();
        let x = vecops::random_vec(h.nrows(), 8);
        let mut y_ref = vec![0.0; h.nrows()];
        h.spmv(&x, &mut y_ref);
        let team = ThreadTeam::new(4);
        let mut ws = SymmetricWorkspace::new(&sym, 4);
        let mut y = vec![0.0; h.nrows()];
        parallel_symmetric_spmv(&team, &sym, &x, &mut y, &mut ws);
        assert!(vecops::max_abs_diff(&y, &y_ref) < 1e-11);
    }

    #[test]
    fn balance_break_even_analysis() {
        // few threads + high nnzr: symmetric wins; many threads + low
        // nnzr: the reduction overhead eats the saving — exactly why the
        // paper was skeptical.
        let full_15 = code_balance_crs(15.0, 0.0);
        assert!(
            symmetric_balance(15.0, 0.0, 1) < full_15,
            "1 thread must win at N_nzr=15"
        );
        assert!(
            symmetric_balance(7.0, 0.0, 12) > code_balance_crs(7.0, 0.0),
            "12 threads at N_nzr=7 must lose"
        );
        // monotone in threads
        let mut prev = 0.0;
        for t in 1..=8 {
            let b = symmetric_balance(15.0, 0.0, t);
            assert!(b > prev);
            prev = b;
        }
    }

    #[test]
    #[should_panic(expected = "workspace must match")]
    fn workspace_team_mismatch_panics() {
        let full = synthetic::random_banded_symmetric(50, 5, 3.0, 4);
        let sym = SymmetricCsr::from_full(&full, 0.0).unwrap();
        let team = ThreadTeam::new(2);
        let mut ws = SymmetricWorkspace::new(&sym, 3);
        let x = vec![0.0; 50];
        let mut y = vec![0.0; 50];
        parallel_symmetric_spmv(&team, &sym, &x, &mut y, &mut ws);
    }
}
