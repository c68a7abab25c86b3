//! The engine's node-level kernel and its label.
//!
//! The paper's performance model assumes the node-level CRS kernel
//! saturates memory bandwidth (Eq. 1). The engine runs one kernel, the
//! scalar CRS row walk of [`CsrView::spmv_rows_ptr`], over plain or
//! value-coded storage alike:
//!
//! * [`KernelKind`] — the kernel's name in configurations and reports.
//! * [`Kernel`] — the kernel as a value: a row-range kernel over a
//!   [`CsrView`] (a whole matrix or one part of a split block).
//! * [`prepare_kernel`] — the kernel for a concrete matrix or part.
//!
//! All three engine modes and both halves of the split local/non-local
//! path run this kernel — see `engine.rs`. SELL-C-σ
//! ([`spmv_matrix::SellMatrix`]) is a serial format study, timed by the
//! `kernel` ablation, not an engine kernel.

use spmv_matrix::CsrView;
use std::ops::Range;

/// Names the node-level kernel the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Scalar CSR loop — the paper's reference kernel (§1.2), each row
    /// summed in storage order over a plain or a value-coded view.
    CsrScalar,
}

impl KernelKind {
    /// Short label for experiment tables.
    pub fn label(&self) -> String {
        match self {
            KernelKind::CsrScalar => "csr-scalar".into(),
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A prepared node-level kernel. It is stateless and runs the view passed
/// to each call, the view's own row walk, which sums each row in storage
/// order in either storage form; a view's rows may be parts of rows of a
/// larger block (see [`crate::split`]).
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// [`KernelKind::CsrScalar`].
    Csr,
}

impl Kernel {
    /// Computes `y[rows] (=|+=) mat[rows] · x`; `mat` is a
    /// [`spmv_matrix::CsrMatrix`] or a part of a split block.
    ///
    /// # Panics
    /// As [`CsrView::spmv_rows`].
    pub fn spmv_rows<'a>(
        &self,
        mat: impl Into<CsrView<'a>>,
        rows: Range<usize>,
        x: &[f64],
        y: &mut [f64],
        add: bool,
    ) {
        match self {
            Kernel::Csr => mat.into().spmv_rows(rows, x, y, add),
        }
    }
}

/// The kernel of `kind` for `mat`, a [`spmv_matrix::CsrMatrix`] or a part
/// of a split block.
pub fn prepare_kernel<'a>(kind: KernelKind, _mat: impl Into<CsrView<'a>>) -> Kernel {
    match kind {
        KernelKind::CsrScalar => Kernel::Csr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrix::{synthetic, vecops, CsrMatrix};

    #[test]
    fn every_kernel_matches_reference() {
        let m = synthetic::power_law_rows(200, 6.0, 1.0, 21);
        let x = vecops::random_vec(200, 3);
        let mut y_ref = vec![0.0; 200];
        m.spmv(&x, &mut y_ref);
        let k = prepare_kernel(KernelKind::CsrScalar, &m);
        let mut y = vec![f64::NAN; 200];
        k.spmv_rows(&m, 0..200, &x, &mut y, false);
        let err = vecops::rel_error(&y, &y_ref);
        assert!(err < 1e-13, "err {err}");
        // accumulate form doubles the result
        k.spmv_rows(&m, 0..200, &x, &mut y, true);
        let doubled: Vec<f64> = y_ref.iter().map(|v| 2.0 * v).collect();
        assert!(vecops::rel_error(&y, &doubled) < 1e-13, "add");
    }

    #[test]
    fn kernels_respect_row_ranges() {
        let m = synthetic::random_general(120, 120, 8, 5);
        let x = vecops::random_vec(120, 9);
        let mut y_ref = vec![0.0; 120];
        m.spmv(&x, &mut y_ref);
        let k = prepare_kernel(KernelKind::CsrScalar, &m);
        let mut y = vec![f64::NAN; 120];
        // three disjoint chunks must tile the result exactly
        k.spmv_rows(&m, 0..41, &x, &mut y, false);
        k.spmv_rows(&m, 41..87, &x, &mut y, false);
        k.spmv_rows(&m, 87..120, &x, &mut y, false);
        assert!(vecops::rel_error(&y, &y_ref) < 1e-13);
    }

    #[test]
    fn empty_rows_give_scalar_bits_in_every_kernel() {
        // rows 0 and 2 are empty: +0.0, where `Iterator::sum` gives -0.0
        let m = CsrMatrix::try_new(3, 3, vec![0, 0, 2, 2], vec![0, 2], vec![2.0, -1.0])
            .expect("valid CSR");
        let mut y = vec![f64::NAN; 3];
        let k = prepare_kernel(KernelKind::CsrScalar, &m);
        k.spmv_rows(&m, 0..3, &[1.0, 5.0, 3.0], &mut y, false);
        let bits: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [0, (-1.0f64).to_bits(), 0]);
    }
}
