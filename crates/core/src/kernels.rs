//! Pluggable node-level SpMV kernels and their runtime dispatcher.
//!
//! The paper's performance model assumes the node-level CRS kernel
//! saturates memory bandwidth (Eq. 1); whether it actually does depends on
//! the inner-loop code shape and the storage format. This module turns the
//! kernel from a fixed function into a selectable strategy:
//!
//! * [`KernelKind`] — the menu: scalar CSR (the reference, over plain or
//!   value-coded storage alike) and SELL-C-σ.
//! * [`Kernel`] — a prepared kernel: a row-range kernel over a [`CsrView`]
//!   (a whole matrix or one part of a split block), writing through a raw
//!   pointer so the engine's disjoint per-thread chunks work without
//!   aliasing `&mut` slices.
//! * [`prepare_kernel`] — builds a kernel for a concrete matrix or part
//!   (SELL-C-σ converts it once at build time).
//!
//! All three engine modes and both halves of the split local/non-local
//! path dispatch through this layer — see `engine.rs`.

use spmv_matrix::{CsrView, SellMatrix};
use std::ops::Range;

/// Selects the node-level kernel the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Scalar CSR loop — the paper's reference kernel (§1.2), each row
    /// summed in storage order over a plain or a value-coded view.
    CsrScalar,
    /// SELL-C-σ with chunk height `c` and sorting scope `sigma`; the
    /// matrix is converted once when the kernel is prepared.
    Sell { c: usize, sigma: usize },
}

impl KernelKind {
    /// Every kind, with a default SELL-32-256 entry.
    pub fn candidates() -> Vec<KernelKind> {
        vec![
            KernelKind::CsrScalar,
            KernelKind::Sell { c: 32, sigma: 256 },
        ]
    }

    /// Short label for experiment tables and CLI flags.
    pub fn label(&self) -> String {
        match self {
            KernelKind::CsrScalar => "csr-scalar".into(),
            KernelKind::Sell { c, sigma } => format!("sell-{c}-{sigma}"),
        }
    }

    /// The CLI spellings [`KernelKind::parse`] accepts, for usage and
    /// error messages (`sell` alone means C=32, σ=256).
    pub const SPELLINGS: &'static str = "csr-scalar|sell[-C-σ]";

    /// Parses a CLI spelling (see [`KernelKind::SPELLINGS`]; `scalar` and
    /// `csr` are accepted as aliases). A SELL shape needs C ≥ 1 and σ ≥ 1.
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s {
            "csr-scalar" | "scalar" | "csr" => Some(KernelKind::CsrScalar),
            "sell" => Some(KernelKind::Sell { c: 32, sigma: 256 }),
            _ => {
                let rest = s.strip_prefix("sell-")?;
                let (c, sigma) = rest.split_once('-')?;
                let (c, sigma) = (c.parse().ok()?, sigma.parse().ok()?);
                (c >= 1 && sigma >= 1).then_some(KernelKind::Sell { c, sigma })
            }
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A prepared node-level kernel for one matrix.
///
/// The CSR kernel is stateless and runs the view passed to each call, the
/// view's own row walk ([`CsrView::spmv_rows_ptr`]), which sums each row in
/// storage order in either storage form. SELL-C-σ owns the converted
/// matrix; its row ranges refer to the *original* row numbering, so the
/// engine's nonzero-balanced chunks and per-thread disjointness carry over
/// unchanged. Either way the view passed must be the one the kernel was
/// prepared for; a view's rows may be parts of rows of a larger block (see
/// [`crate::split`]).
#[derive(Debug, Clone)]
pub enum Kernel {
    /// [`KernelKind::CsrScalar`].
    Csr,
    /// [`KernelKind::Sell`], over the matrix converted once; boxed so a
    /// kernel stays pointer-sized (an inline one made each engine ~0.5 kB
    /// larger, a page more resident for a small engine).
    Sell(Box<SellMatrix>),
}

impl Kernel {
    /// The kind this kernel implements.
    pub fn kind(&self) -> KernelKind {
        match self {
            Kernel::Csr => KernelKind::CsrScalar,
            Kernel::Sell(sell) => KernelKind::Sell {
                c: sell.chunk_height(),
                sigma: sell.sorting_scope(),
            },
        }
    }

    /// Computes `y[rows] (=|+=) mat[rows] · x` writing through `y`.
    ///
    /// # Safety
    /// `y` must be valid for writes at every index in `rows`,
    /// `rows.end <= mat.nrows()`, `x.len() == mat.ncols()`, and concurrent
    /// callers must use disjoint `rows` ranges.
    pub unsafe fn spmv_rows_raw(
        &self,
        mat: CsrView<'_>,
        rows: Range<usize>,
        x: &[f64],
        y: *mut f64,
        add: bool,
    ) {
        match self {
            // SAFETY: the caller's contract is the view kernel's.
            Kernel::Csr => unsafe { mat.spmv_rows_ptr(rows, x, y, add) },
            Kernel::Sell(sell) => {
                debug_assert_eq!(
                    (mat.nrows(), mat.ncols()),
                    (sell.nrows(), sell.ncols()),
                    "kernel prepared for another matrix"
                );
                // SAFETY: the caller's contract is the SELL kernel's.
                unsafe { sell.spmv_rows_ptr(rows, x, y, add) }
            }
        }
    }

    /// Safe convenience wrapper over a full `&mut` result slice; `mat` is a
    /// [`spmv_matrix::CsrMatrix`] or a part of a split block.
    pub fn spmv_rows<'a>(
        &self,
        mat: impl Into<CsrView<'a>>,
        rows: Range<usize>,
        x: &[f64],
        y: &mut [f64],
        add: bool,
    ) {
        let mat = mat.into();
        assert!(rows.end <= mat.nrows());
        assert_eq!(x.len(), mat.ncols(), "x length must equal ncols");
        assert!(
            y.len() >= rows.end,
            "y length {} too short for row block ending at {}",
            y.len(),
            rows.end
        );
        // SAFETY: bounds checked above; single caller owns all of y.
        unsafe { self.spmv_rows_raw(mat, rows, x, y.as_mut_ptr(), add) }
    }
}

/// Builds a kernel for `mat`, a [`spmv_matrix::CsrMatrix`] or a part of a
/// split block.
pub fn prepare_kernel<'a>(kind: KernelKind, mat: impl Into<CsrView<'a>>) -> Kernel {
    match kind {
        KernelKind::CsrScalar => Kernel::Csr,
        KernelKind::Sell { c, sigma } => {
            Kernel::Sell(Box::new(SellMatrix::from_csr(mat, c, sigma)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrix::{synthetic, vecops, CsrMatrix};

    fn all_kinds() -> Vec<KernelKind> {
        let mut v = KernelKind::candidates();
        v.push(KernelKind::Sell { c: 4, sigma: 1 });
        v.push(KernelKind::Sell { c: 7, sigma: 50 });
        v
    }

    #[test]
    fn every_kernel_matches_reference() {
        let m = synthetic::power_law_rows(200, 6.0, 1.0, 21);
        let x = vecops::random_vec(200, 3);
        let mut y_ref = vec![0.0; 200];
        m.spmv(&x, &mut y_ref);
        for kind in all_kinds() {
            let k = prepare_kernel(kind, &m);
            let mut y = vec![f64::NAN; 200];
            k.spmv_rows(&m, 0..200, &x, &mut y, false);
            let err = vecops::rel_error(&y, &y_ref);
            assert!(err < 1e-13, "{kind}: err {err}");
            // accumulate form doubles the result
            k.spmv_rows(&m, 0..200, &x, &mut y, true);
            let doubled: Vec<f64> = y_ref.iter().map(|v| 2.0 * v).collect();
            assert!(vecops::rel_error(&y, &doubled) < 1e-13, "{kind} add");
        }
    }

    #[test]
    fn kernels_respect_row_ranges() {
        let m = synthetic::random_general(120, 120, 8, 5);
        let x = vecops::random_vec(120, 9);
        let mut y_ref = vec![0.0; 120];
        m.spmv(&x, &mut y_ref);
        for kind in all_kinds() {
            let k = prepare_kernel(kind, &m);
            let mut y = vec![f64::NAN; 120];
            // three disjoint chunks must tile the result exactly
            k.spmv_rows(&m, 0..41, &x, &mut y, false);
            k.spmv_rows(&m, 41..87, &x, &mut y, false);
            k.spmv_rows(&m, 87..120, &x, &mut y, false);
            assert!(vecops::rel_error(&y, &y_ref) < 1e-13, "{kind}");
        }
    }

    #[test]
    fn empty_rows_give_scalar_bits_in_every_kernel() {
        // rows 0 and 2 are empty: +0.0, where `Iterator::sum` gives -0.0
        let m = CsrMatrix::try_new(3, 3, vec![0, 0, 2, 2], vec![0, 2], vec![2.0, -1.0])
            .expect("valid CSR");
        let bits = |kind| {
            let mut y = vec![f64::NAN; 3];
            prepare_kernel(kind, &m).spmv_rows(&m, 0..3, &[1.0, 5.0, 3.0], &mut y, false);
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(KernelKind::CsrScalar), [0, (-1.0f64).to_bits(), 0]);
        for kind in all_kinds() {
            assert_eq!(bits(kind), bits(KernelKind::CsrScalar), "{kind}");
        }
    }

    #[test]
    fn kind_labels_roundtrip_through_parse() {
        for kind in all_kinds() {
            assert_eq!(KernelKind::parse(&kind.label()), Some(kind), "{kind}");
        }
        assert_eq!(
            KernelKind::parse("sell"),
            Some(KernelKind::Sell { c: 32, sigma: 256 })
        );
        assert_eq!(
            KernelKind::parse("sell-8-64"),
            Some(KernelKind::Sell { c: 8, sigma: 64 })
        );
        for bad in [
            "bogus",
            "sell-x-1",
            "sell-0-4",
            "sell-4-0",
            "csr-sliced",
            "csr-unrolled4",
        ] {
            assert_eq!(KernelKind::parse(bad), None, "{bad}");
        }
    }
}
