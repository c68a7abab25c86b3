//! Chebyshev time evolution of quantum states — the paper's reference \[11\]
//! (Weiße & Fehske, "Chebyshev expansion techniques"): the other
//! polynomial-expansion application its introduction names ("time evolution
//! of quantum states"), whose run time is again dominated by SpMV.
//!
//! The propagator over a rescaled Hamiltonian `H̃ = (H − b)/a` (spectrum in
//! `[-1, 1]`) is expanded as
//!
//! ```text
//! e^{-iHt} = e^{-ibt} · Σ_k (2 − δ_{k0}) (−i)^k J_k(a·t) T_k(H̃)
//! ```
//!
//! with `J_k` the Bessel functions of the first kind. The coefficients
//! decay superexponentially once `k > a·t`, so a modest order gives
//! machine-precision unitarity. Every Chebyshev term costs one SpMV on the
//! real and one on the imaginary part.

use crate::operator::LinOp;
use crate::ops::GlobalOps;
use spmv_matrix::vecops;

/// A complex vector as separate real/imaginary parts (the Hamiltonian is
/// real, so `H ψ` is two real SpMVs).
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexVec {
    /// Real part.
    pub re: Vec<f64>,
    /// Imaginary part.
    pub im: Vec<f64>,
}

impl ComplexVec {
    /// A real-valued state.
    pub fn from_real(re: &[f64]) -> Self {
        Self {
            re: re.to_vec(),
            im: vec![0.0; re.len()],
        }
    }

    /// Zero state of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self {
            re: vec![0.0; n],
            im: vec![0.0; n],
        }
    }

    /// Local length.
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// Whether the local part is empty.
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// Local contribution to `‖ψ‖²`.
    pub fn norm_sq_local(&self) -> f64 {
        vecops::dot(&self.re, &self.re) + vecops::dot(&self.im, &self.im)
    }

    /// Local contribution to `⟨a|b⟩ = Σ conj(a_i)·b_i`, returned as
    /// `(re, im)`.
    pub fn inner_local(&self, other: &ComplexVec) -> (f64, f64) {
        let re = vecops::dot(&self.re, &other.re) + vecops::dot(&self.im, &other.im);
        let im = vecops::dot(&self.re, &other.im) - vecops::dot(&self.im, &other.re);
        (re, im)
    }

    /// `self += (cr + i·ci) · other`.
    pub fn axpy_complex(&mut self, cr: f64, ci: f64, other: &ComplexVec) {
        let n = self.len();
        assert_eq!(other.len(), n);
        for k in 0..n {
            let (or, oi) = (other.re[k], other.im[k]);
            self.re[k] += cr * or - ci * oi;
            self.im[k] += cr * oi + ci * or;
        }
    }

    /// Multiplies by the global phase `e^{iφ}`.
    pub fn apply_phase(&mut self, phi: f64) {
        let (c, s) = (phi.cos(), phi.sin());
        for k in 0..self.len() {
            let (r, i) = (self.re[k], self.im[k]);
            self.re[k] = c * r - s * i;
            self.im[k] = c * i + s * r;
        }
    }
}

/// Bessel functions of the first kind `J_0(x) .. J_{n_max}(x)` by Miller's
/// downward recurrence (numerically stable for all orders), normalized with
/// `J_0 + 2·Σ_{k≥1} J_{2k} = 1`.
pub fn bessel_jn(n_max: usize, x: f64) -> Vec<f64> {
    assert!(
        x >= 0.0,
        "use symmetry J_k(-x) = (-1)^k J_k(x) for negative arguments"
    );
    if x == 0.0 {
        let mut out = vec![0.0; n_max + 1];
        out[0] = 1.0;
        return out;
    }
    // start well above both n_max and x
    let start = n_max + 16 + (x.max(1.0).sqrt() as usize) + x as usize;
    let mut jp = 0.0f64; // J_{k+1}
    let mut j = 1e-300f64; // J_k (arbitrary tiny seed)
    let mut out = vec![0.0f64; n_max + 1];
    let mut norm = 0.0f64; // accumulates J_0 + 2 Σ J_2k
    for k in (0..=start).rev() {
        let jm = (2.0 * (k as f64 + 1.0) / x) * j - jp; // J_k from J_{k+1}, J_{k+2}
        jp = j;
        j = jm;
        // rescale to avoid overflow
        if j.abs() > 1e250 {
            j *= 1e-250;
            jp *= 1e-250;
            norm *= 1e-250;
            for v in out.iter_mut() {
                *v *= 1e-250;
            }
        }
        if k <= n_max {
            out[k] = j;
        }
        if k % 2 == 0 {
            norm += if k == 0 { j } else { 2.0 * j };
        }
    }
    for v in out.iter_mut() {
        *v /= norm;
    }
    out
}

/// Options for [`evolve`].
#[derive(Debug, Clone, Copy)]
pub struct ChebyshevOptions {
    /// Expansion order; `None` picks `⌈a·t⌉ + 40` automatically (enough
    /// for machine precision thanks to the superexponential tail).
    pub order: Option<usize>,
    /// Safety margin ε for the spectral rescaling.
    pub epsilon: f64,
}

impl Default for ChebyshevOptions {
    fn default() -> Self {
        Self {
            order: None,
            epsilon: 0.02,
        }
    }
}

/// Result of a propagation step.
#[derive(Debug, Clone)]
pub struct EvolveResult {
    /// The evolved state `ψ(t)`.
    pub state: ComplexVec,
    /// Expansion order used.
    pub order: usize,
    /// `|‖ψ(t)‖ − ‖ψ0‖| / ‖ψ0‖` — unitarity defect, a built-in accuracy
    /// check (the expansion is not exactly unitary at finite order).
    pub norm_defect: f64,
}

/// Evolves `psi0` by `e^{-iHt}` where the symmetric operator's spectrum
/// lies in `[lo, hi]`. SPMD-collective when `ops` is distributed.
pub fn evolve<O: LinOp, G: GlobalOps>(
    op: &mut O,
    ops: &G,
    lo: f64,
    hi: f64,
    psi0: &ComplexVec,
    t: f64,
    opts: ChebyshevOptions,
) -> EvolveResult {
    assert!(hi > lo, "spectrum bounds must be ordered");
    assert!(
        t >= 0.0,
        "propagate forward in time (negate the Hamiltonian otherwise)"
    );
    let n = op.len();
    assert_eq!(psi0.len(), n);
    let a = (hi - lo) / (2.0 - opts.epsilon);
    let b = (hi + lo) / 2.0;
    let tau = a * t;
    let order = opts.order.unwrap_or(tau.ceil() as usize + 40).max(2);

    let bessel = bessel_jn(order, tau);

    // Chebyshev recurrence state: φ_{k-1}, φ_k
    let mut phi_prev = psi0.clone();
    let mut phi = apply_scaled(op, psi0, a, b);
    let mut out = ComplexVec::zeros(n);

    // k = 0 term: J_0(τ) · φ_0   [(−i)^0 = 1]
    out.axpy_complex(bessel[0], 0.0, &phi_prev);
    // k = 1 term: 2·(−i)·J_1(τ) · φ_1
    out.axpy_complex(0.0, -2.0 * bessel[1], &phi);

    #[allow(clippy::needless_range_loop)] // k is the Chebyshev order, not just an index
    for k in 2..=order {
        // φ_{k+1} = 2 H̃ φ_k − φ_{k-1}
        let mut next = apply_scaled(op, &phi, a, b);
        for i in 0..n {
            next.re[i] = 2.0 * next.re[i] - phi_prev.re[i];
            next.im[i] = 2.0 * next.im[i] - phi_prev.im[i];
        }
        phi_prev = std::mem::replace(&mut phi, next);
        // coefficient 2·(−i)^k·J_k(τ)
        let c = 2.0 * bessel[k];
        let (cr, ci) = match k % 4 {
            0 => (c, 0.0),
            1 => (0.0, -c),
            2 => (-c, 0.0),
            _ => (0.0, c),
        };
        out.axpy_complex(cr, ci, &phi);
    }

    // global phase from the shift b
    out.apply_phase(-b * t);

    let n0 = ops.sum(psi0.norm_sq_local()).sqrt();
    let n1 = ops.sum(out.norm_sq_local()).sqrt();
    EvolveResult {
        state: out,
        order,
        norm_defect: if n0 > 0.0 { (n1 - n0).abs() / n0 } else { 0.0 },
    }
}

/// `H̃ ψ = (H ψ − b ψ)/a` on a complex vector (two real SpMVs).
fn apply_scaled<O: LinOp>(op: &mut O, psi: &ComplexVec, a: f64, b: f64) -> ComplexVec {
    let n = psi.len();
    let mut out = ComplexVec::zeros(n);
    op.apply(&psi.re, &mut out.re);
    op.apply(&psi.im, &mut out.im);
    for i in 0..n {
        out.re[i] = (out.re[i] - b * psi.re[i]) / a;
        out.im[i] = (out.im[i] - b * psi.im[i]) / a;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::SerialOp;
    use crate::ops::SerialOps;
    use spmv_matrix::{synthetic, CsrMatrix};

    #[test]
    fn bessel_known_values() {
        // Abramowitz & Stegun
        let j = bessel_jn(5, 1.0);
        assert!((j[0] - 0.7651976866).abs() < 1e-9, "J0(1) = {}", j[0]);
        assert!((j[1] - 0.4400505857).abs() < 1e-9, "J1(1) = {}", j[1]);
        assert!((j[2] - 0.1149034849).abs() < 1e-9, "J2(1) = {}", j[2]);
        let j5 = bessel_jn(6, 5.0);
        assert!((j5[0] + 0.1775967713).abs() < 1e-9, "J0(5) = {}", j5[0]);
        assert!((j5[2] - 0.04656511628).abs() < 1e-9, "J2(5) = {}", j5[2]);
        assert!((j5[5] - 0.2611405461).abs() < 1e-9, "J5(5) = {}", j5[5]);
    }

    #[test]
    fn bessel_at_zero() {
        let j = bessel_jn(4, 0.0);
        assert_eq!(j, vec![1.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn bessel_tail_decays() {
        let j = bessel_jn(60, 10.0);
        assert!(j[40].abs() < 1e-12);
        assert!(j[60].abs() < 1e-30);
    }

    #[test]
    fn bessel_identity_sum_of_squares() {
        // J_0² + 2 Σ J_k² = 1
        let j = bessel_jn(80, 7.5);
        let s: f64 = j[0] * j[0] + 2.0 * j[1..].iter().map(|v| v * v).sum::<f64>();
        assert!((s - 1.0).abs() < 1e-12, "sum of squares = {s}");
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn diagonal_hamiltonian_evolves_exactly() {
        // H = diag(λ): ψ_j(t) = e^{-i λ_j t} ψ0_j
        let lambda = [0.5, -1.25, 2.0, 0.0];
        let m = CsrMatrix::from_diagonal(&lambda);
        let psi0 = ComplexVec::from_real(&[0.5, 0.5, 0.5, 0.5]);
        let t = 3.7;
        let r = evolve(
            &mut SerialOp::new(&m),
            &SerialOps,
            -2.0,
            3.0,
            &psi0,
            t,
            ChebyshevOptions::default(),
        );
        for j in 0..4 {
            let expect_re = 0.5 * (lambda[j] * t).cos();
            let expect_im = -0.5 * (lambda[j] * t).sin();
            assert!(
                (r.state.re[j] - expect_re).abs() < 1e-10,
                "re[{j}]: {} vs {expect_re}",
                r.state.re[j]
            );
            assert!(
                (r.state.im[j] - expect_im).abs() < 1e-10,
                "im[{j}]: {} vs {expect_im}",
                r.state.im[j]
            );
        }
        assert!(r.norm_defect < 1e-12);
    }

    #[test]
    fn two_level_rabi_oscillation() {
        // H = [[0, Ω], [Ω, 0]]: |⟨1|ψ(t)⟩|² = sin²(Ω t) from |0⟩
        let omega = 0.8;
        let m = CsrMatrix::try_new(2, 2, vec![0, 1, 2], vec![1, 0], vec![omega, omega]).unwrap();
        let psi0 = ComplexVec::from_real(&[1.0, 0.0]);
        for &t in &[0.3, 1.0, 2.5] {
            let r = evolve(
                &mut SerialOp::new(&m),
                &SerialOps,
                -1.0,
                1.0,
                &psi0,
                t,
                ChebyshevOptions::default(),
            );
            let p1 = r.state.re[1] * r.state.re[1] + r.state.im[1] * r.state.im[1];
            let expect = (omega * t).sin().powi(2);
            assert!((p1 - expect).abs() < 1e-10, "t={t}: P1 {p1} vs {expect}");
        }
    }

    #[test]
    fn unitarity_on_random_hamiltonian() {
        let m = synthetic::random_banded_symmetric(150, 12, 5.0, 6);
        let (lo, hi) = crate::operator::gershgorin_bounds(&m);
        let psi0 = ComplexVec::from_real(&spmv_matrix::vecops::random_vec(150, 3));
        let r = evolve(
            &mut SerialOp::new(&m),
            &SerialOps,
            lo,
            hi,
            &psi0,
            5.0,
            ChebyshevOptions::default(),
        );
        assert!(r.norm_defect < 1e-10, "unitarity defect {}", r.norm_defect);
    }

    #[test]
    fn energy_is_conserved() {
        let m = synthetic::random_banded_symmetric(100, 8, 4.0, 11);
        let (lo, hi) = crate::operator::gershgorin_bounds(&m);
        let psi0 = {
            let mut v = spmv_matrix::vecops::random_vec(100, 5);
            spmv_matrix::vecops::normalize(&mut v);
            ComplexVec::from_real(&v)
        };
        let energy = |psi: &ComplexVec| -> f64 {
            let mut hr = vec![0.0; 100];
            let mut hi_ = vec![0.0; 100];
            m.spmv(&psi.re, &mut hr);
            m.spmv(&psi.im, &mut hi_);
            spmv_matrix::vecops::dot(&psi.re, &hr) + spmv_matrix::vecops::dot(&psi.im, &hi_)
        };
        let e0 = energy(&psi0);
        let r = evolve(
            &mut SerialOp::new(&m),
            &SerialOps,
            lo,
            hi,
            &psi0,
            4.0,
            ChebyshevOptions::default(),
        );
        let e1 = energy(&r.state);
        assert!((e1 - e0).abs() < 1e-9 * e0.abs().max(1.0), "E {e0} -> {e1}");
    }

    #[test]
    fn composition_property() {
        // U(t1+t2) ψ = U(t2) U(t1) ψ
        let m = synthetic::tridiagonal(60, 2.0, -1.0);
        let psi0 = ComplexVec::from_real(&spmv_matrix::vecops::random_vec(60, 9));
        let full = evolve(
            &mut SerialOp::new(&m),
            &SerialOps,
            0.0,
            4.0,
            &psi0,
            3.0,
            ChebyshevOptions::default(),
        );
        let half = evolve(
            &mut SerialOp::new(&m),
            &SerialOps,
            0.0,
            4.0,
            &psi0,
            1.5,
            ChebyshevOptions::default(),
        );
        let two = evolve(
            &mut SerialOp::new(&m),
            &SerialOps,
            0.0,
            4.0,
            &half.state,
            1.5,
            ChebyshevOptions::default(),
        );
        for i in 0..60 {
            assert!((full.state.re[i] - two.state.re[i]).abs() < 1e-9);
            assert!((full.state.im[i] - two.state.im[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_time_is_identity() {
        let m = synthetic::tridiagonal(20, 2.0, -1.0);
        let psi0 = ComplexVec::from_real(&spmv_matrix::vecops::random_vec(20, 2));
        let r = evolve(
            &mut SerialOp::new(&m),
            &SerialOps,
            0.0,
            4.0,
            &psi0,
            0.0,
            ChebyshevOptions::default(),
        );
        for i in 0..20 {
            assert!((r.state.re[i] - psi0.re[i]).abs() < 1e-12);
            assert!(r.state.im[i].abs() < 1e-12);
        }
    }

    #[test]
    fn complex_vec_inner_product() {
        let a = ComplexVec {
            re: vec![1.0, 0.0],
            im: vec![0.0, 1.0],
        };
        let b = ComplexVec {
            re: vec![0.0, 1.0],
            im: vec![1.0, 0.0],
        };
        // <a|b> = conj(1)·i + conj(i)·1 = i + (-i)·1 = 0... compute:
        // element 0: conj(1+0i)·(0+1i) = i; element 1: conj(0+1i)·(1+0i) = -i
        let (re, im) = a.inner_local(&b);
        assert!((re - 0.0).abs() < 1e-15);
        assert!((im - 0.0).abs() < 1e-15);
        let (nre, nim) = a.inner_local(&a);
        assert_eq!(nre, 2.0);
        assert_eq!(nim, 0.0);
    }
}
