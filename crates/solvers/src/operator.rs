//! Linear operators: the one thing every iterative solver needs.

use spmv_core::{KernelMode, RankEngine};
use spmv_matrix::CsrMatrix;

/// A (local part of a) linear operator `y = A x`.
pub trait LinOp {
    /// Length of the locally owned vector part.
    fn len(&self) -> usize;

    /// Whether the local part is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Applies the operator: `y = A x` (local parts; distributed
    /// implementations do their halo exchange internally).
    fn apply(&mut self, x: &[f64], y: &mut [f64]);

    /// Fallible apply: a distributed implementation surfaces communication
    /// faults as a typed error instead of panicking. Serial operators
    /// cannot fail; the default simply delegates to [`LinOp::apply`].
    fn try_apply(&mut self, x: &[f64], y: &mut [f64]) -> Result<(), spmv_comm::CommError> {
        self.apply(x, y);
        Ok(())
    }

    /// Number of operator applications so far (the SpMV count that
    /// dominates run time in all of the paper's applications).
    fn applications(&self) -> u64;

    /// The trace recorder behind this operator, if measured-time tracing
    /// is enabled. Solver loops use it to stamp per-iteration spans onto
    /// the solver lane; serial operators have none.
    fn trace_sink(&self) -> Option<&spmv_obs::TraceSink> {
        None
    }
}

/// Iteration-start timestamp, taken only when tracing is live.
#[inline]
pub(crate) fn iter_start<O: LinOp + ?Sized>(op: &O) -> Option<f64> {
    op.trace_sink().map(|ts| ts.now())
}

/// Stamps one solver-lane iteration span if the operator carries a trace
/// recorder. The sink borrow is taken after the iteration body, never held
/// across `op.apply`.
#[inline]
pub(crate) fn record_iter<O: LinOp + ?Sized>(
    op: &O,
    phase: spmv_obs::Phase,
    t0: Option<f64>,
    iter: usize,
) {
    if let (Some(ts), Some(t0)) = (op.trace_sink(), t0) {
        ts.record_solver(phase, t0, ts.now(), iter as u64);
    }
}

/// Serial operator over a CSR matrix.
pub struct SerialOp<'a> {
    matrix: &'a CsrMatrix,
    count: u64,
}

impl<'a> SerialOp<'a> {
    /// Wraps a square matrix.
    pub fn new(matrix: &'a CsrMatrix) -> Self {
        assert_eq!(matrix.nrows(), matrix.ncols(), "operator must be square");
        Self { matrix, count: 0 }
    }
}

impl LinOp for SerialOp<'_> {
    fn len(&self) -> usize {
        self.matrix.nrows()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.matrix.spmv(x, y);
        self.count += 1;
    }

    fn applications(&self) -> u64 {
        self.count
    }
}

/// Distributed operator: one rank's engine, applying the global matrix via
/// halo exchange in a fixed kernel mode.
pub struct DistOp<'a> {
    engine: &'a mut RankEngine,
    mode: KernelMode,
}

impl<'a> DistOp<'a> {
    /// Wraps a rank engine with the kernel mode to use for every apply.
    pub fn new(engine: &'a mut RankEngine, mode: KernelMode) -> Self {
        Self { engine, mode }
    }

    /// The underlying engine (e.g. for its communicator).
    pub fn engine(&self) -> &RankEngine {
        self.engine
    }
}

impl LinOp for DistOp<'_> {
    fn len(&self) -> usize {
        self.engine.local_len()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        if let Err(e) = self.try_apply(x, y) {
            panic!("distributed apply failed (use try_apply to handle faults): {e}");
        }
    }

    fn try_apply(&mut self, x: &[f64], y: &mut [f64]) -> Result<(), spmv_comm::CommError> {
        self.engine.apply_checked(x, y, self.mode)
    }

    fn applications(&self) -> u64 {
        self.engine.spmv_calls()
    }

    fn trace_sink(&self) -> Option<&spmv_obs::TraceSink> {
        self.engine.trace_sink()
    }
}

/// Gershgorin disc bounds on the spectrum of a symmetric matrix:
/// `(min_i(a_ii - r_i), max_i(a_ii + r_i))` with `r_i` the off-diagonal
/// absolute row sum. Used to shift an indefinite operator to a definite one.
pub fn gershgorin_bounds(matrix: &CsrMatrix) -> (f64, f64) {
    assert_eq!(matrix.nrows(), matrix.ncols());
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..matrix.nrows() {
        let (cols, vals) = matrix.row(i);
        let mut diag = 0.0;
        let mut radius = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            if c as usize == i {
                diag = v;
            } else {
                radius += v.abs();
            }
        }
        lo = lo.min(diag - radius);
        hi = hi.max(diag + radius);
    }
    if matrix.nrows() == 0 {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrix::{synthetic, vecops};

    #[test]
    fn serial_op_applies_matrix() {
        let m = synthetic::tridiagonal(10, 2.0, -1.0);
        let mut op = SerialOp::new(&m);
        let x = vec![1.0; 10];
        let mut y = vec![0.0; 10];
        op.apply(&x, &mut y);
        let mut y_ref = vec![0.0; 10];
        m.spmv(&x, &mut y_ref);
        assert_eq!(y, y_ref);
        assert_eq!(op.applications(), 1);
        assert_eq!(op.len(), 10);
        assert!(!op.is_empty());
    }

    #[test]
    fn gershgorin_contains_spectrum_of_laplacian() {
        // 1-D Laplacian eigenvalues are in (0, 4)
        let m = synthetic::tridiagonal(50, 2.0, -1.0);
        let (lo, hi) = gershgorin_bounds(&m);
        assert!(lo <= 0.0 + 1e-12);
        assert!(hi >= 4.0 - 1e-12);
        assert_eq!(hi, 4.0);
        assert_eq!(lo, 0.0);
    }

    #[test]
    fn gershgorin_diagonal_matrix_is_tight() {
        let m = spmv_matrix::CsrMatrix::from_diagonal(&[1.0, -3.0, 7.0]);
        assert_eq!(gershgorin_bounds(&m), (-3.0, 7.0));
    }

    #[test]
    fn dist_op_matches_serial() {
        use spmv_core::runner::run_spmd;
        let m = synthetic::random_banded_symmetric(120, 10, 5.0, 6);
        let x = vecops::random_vec(120, 4);
        let mut y_ref = vec![0.0; 120];
        m.spmv(&x, &mut y_ref);
        let results = run_spmd(
            &m,
            3,
            spmv_core::engine::EngineConfig::task_mode(2),
            |eng| {
                let lo = eng.row_start();
                let n = eng.local_len();
                let x_local = x[lo..lo + n].to_vec();
                let mut y_local = vec![0.0; n];
                let mut op = DistOp::new(eng, KernelMode::TaskMode);
                op.apply(&x_local, &mut y_local);
                (lo, y_local)
            },
        );
        for (lo, y) in results {
            assert!(vecops::max_abs_diff(&y, &y_ref[lo..lo + y.len()]) < 1e-11);
        }
    }
}
