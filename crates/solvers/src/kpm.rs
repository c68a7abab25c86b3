//! The kernel polynomial method (KPM) — the paper's reference \[10\]
//! (Weiße, Wellein, Alvermann, Fehske, Rev. Mod. Phys. 78, 275): spectral
//! densities from Chebyshev moments with Jackson damping. Each moment is
//! one SpMV, which is why KPM workloads are SpMV-bound exactly like
//! Lanczos.

use crate::operator::LinOp;
use crate::ops::GlobalOps;

/// Result of a KPM density-of-states computation.
#[derive(Debug, Clone)]
pub struct KpmResult {
    /// Jackson-damped Chebyshev moments `μ_n`, `n = 0..order`.
    pub moments: Vec<f64>,
    /// Energy grid on the original (unscaled) axis.
    pub energies: Vec<f64>,
    /// Density of states on the grid (normalized to integrate to 1).
    pub dos: Vec<f64>,
    /// Scaling `a` with `Ã = (A - b)/a`.
    pub scale_a: f64,
    /// Shift `b`.
    pub shift_b: f64,
}

/// Options for [`kpm_dos`].
#[derive(Debug, Clone, Copy)]
pub struct KpmOptions {
    /// Number of Chebyshev moments.
    pub order: usize,
    /// Number of stochastic trace vectors.
    pub random_vectors: usize,
    /// Grid points for the reconstruction.
    pub grid: usize,
    /// Seed for the stochastic trace vectors.
    pub seed: u64,
    /// Safety margin ε for the spectral rescaling (`a = (hi-lo)/(2-ε)`).
    pub epsilon: f64,
}

impl Default for KpmOptions {
    fn default() -> Self {
        Self {
            order: 64,
            random_vectors: 8,
            grid: 200,
            seed: 777,
            epsilon: 0.05,
        }
    }
}

/// Jackson kernel damping factor `g_n` for expansion order `n_max`
/// (closed form; `g_0 = 1`, monotonically decreasing).
pub fn jackson(n: usize, n_max: usize) -> f64 {
    let big_n = (n_max + 1) as f64;
    let q = std::f64::consts::PI / big_n;
    ((big_n - n as f64) * (q * n as f64).cos() + (q * n as f64).sin() / q.tan()) / big_n
}

/// Computes the density of states of a symmetric operator whose spectrum
/// lies in `[lo, hi]` (e.g. from Gershgorin or Lanczos bounds). Local
/// vector length is `op.len()`; all ranks call collectively when `ops` is
/// distributed, and `seed` must agree across ranks **but** each rank draws
/// only its local slice — pass `rank_offset` so random vectors are globally
/// consistent.
pub fn kpm_dos<O: LinOp, G: GlobalOps>(
    op: &mut O,
    ops: &G,
    lo: f64,
    hi: f64,
    rank_offset: usize,
    opts: KpmOptions,
) -> KpmResult {
    assert!(hi > lo, "spectrum bounds must be ordered");
    assert!(opts.order >= 2);
    let n = op.len();
    let a = (hi - lo) / (2.0 - opts.epsilon);
    let b = (hi + lo) / 2.0;

    // accumulate moments over random vectors
    let mut mu = vec![0.0f64; opts.order];
    let mut t_prev = vec![0.0; n];
    let mut t_cur = vec![0.0; n];
    let mut scratch = vec![0.0; n];

    for rv in 0..opts.random_vectors {
        // rank-consistent random vector: draw the global vector pattern
        // deterministically from (seed, rv) and slice it locally.
        let r = global_slice_random(opts.seed, rv as u64, rank_offset, n);
        // t0 = r, t1 = Ã r
        t_prev.copy_from_slice(&r);
        apply_scaled(op, &t_prev, &mut t_cur, a, b);
        mu[0] += ops.dot(&r, &r);
        if opts.order > 1 {
            mu[1] += ops.dot(&r, &t_cur);
        }
        for m in mu.iter_mut().skip(2) {
            // t_{k+1} = 2 Ã t_k - t_{k-1}
            apply_scaled(op, &t_cur, &mut scratch, a, b);
            for i in 0..n {
                let next = 2.0 * scratch[i] - t_prev[i];
                t_prev[i] = t_cur[i];
                t_cur[i] = next;
            }
            *m += ops.dot(&r, &t_cur);
        }
    }
    // normalize: μ_0 integrates to the state count; divide by (R * N_global)
    let n_global = ops.sum(n as f64);
    for m in mu.iter_mut() {
        *m /= opts.random_vectors as f64 * n_global;
    }

    // reconstruct DOS on a Chebyshev grid
    let mut energies = Vec::with_capacity(opts.grid);
    let mut dos = Vec::with_capacity(opts.grid);
    for k in 0..opts.grid {
        // interior grid avoids the 1/sqrt(1-x^2) endpoints
        let x = ((k as f64 + 0.5) / opts.grid as f64 * std::f64::consts::PI).cos();
        let mut s = jackson(0, opts.order) * mu[0];
        // Chebyshev recurrence for T_n(x)
        let mut tn_prev = 1.0;
        let mut tn = x;
        for (nn, &m) in mu.iter().enumerate().skip(1) {
            s += 2.0 * jackson(nn, opts.order) * m * tn;
            let next = 2.0 * x * tn - tn_prev;
            tn_prev = tn;
            tn = next;
        }
        let rho = s / (std::f64::consts::PI * (1.0 - x * x).sqrt());
        energies.push(a * x + b);
        dos.push(rho / a); // change of variables back to the E axis
    }
    // energies come out descending (cos of increasing angle); flip ascending
    energies.reverse();
    dos.reverse();

    KpmResult {
        moments: mu,
        energies,
        dos,
        scale_a: a,
        shift_b: b,
    }
}

/// Applies the rescaled operator `Ã x = (A x - b x)/a`.
fn apply_scaled<O: LinOp>(op: &mut O, x: &[f64], y: &mut [f64], a: f64, b: f64) {
    op.apply(x, y);
    for i in 0..x.len() {
        y[i] = (y[i] - b * x[i]) / a;
    }
}

/// Deterministic ±1 random vector slice: global index `g` of vector `rv`
/// gets `sign(hash(seed, rv, g))`, so every rank sees a consistent global
/// vector regardless of partitioning.
fn global_slice_random(seed: u64, rv: u64, offset: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let g = (offset + i) as u64;
            let mut h =
                seed ^ rv.wrapping_mul(0x9E3779B97F4A7C15) ^ g.wrapping_mul(0xBF58476D1CE4E5B9);
            h ^= h >> 30;
            h = h.wrapping_mul(0xBF58476D1CE4E5B9);
            h ^= h >> 27;
            if h & 1 == 0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{gershgorin_bounds, SerialOp};
    use crate::ops::SerialOps;
    use spmv_matrix::{synthetic, CsrMatrix};

    #[test]
    fn jackson_kernel_properties() {
        let n_max = 32;
        let g: Vec<f64> = (0..n_max).map(|n| jackson(n, n_max)).collect();
        assert!((g[0] - 1.0).abs() < 1e-12, "g_0 = 1");
        // decreasing and positive
        for w in g.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert!(g.iter().all(|&v| v > -1e-12));
    }

    #[test]
    fn dos_is_normalized_and_nonnegative() {
        let m = synthetic::tridiagonal(256, 2.0, -1.0);
        let (lo, hi) = gershgorin_bounds(&m);
        let r = kpm_dos(
            &mut SerialOp::new(&m),
            &SerialOps,
            lo,
            hi,
            0,
            KpmOptions {
                order: 64,
                random_vectors: 10,
                grid: 400,
                ..Default::default()
            },
        );
        // integrate with the trapezoid rule on the energy grid
        let mut integral = 0.0;
        for k in 1..r.energies.len() {
            let de = r.energies[k] - r.energies[k - 1];
            integral += 0.5 * (r.dos[k] + r.dos[k - 1]) * de;
        }
        assert!((integral - 1.0).abs() < 0.05, "DOS integral {integral}");
        assert!(
            r.dos.iter().all(|&d| d > -0.01),
            "Jackson kernel keeps DOS ≈ nonnegative"
        );
    }

    #[test]
    fn dos_of_identity_peaks_at_one() {
        let m = CsrMatrix::identity(128);
        let r = kpm_dos(
            &mut SerialOp::new(&m),
            &SerialOps,
            0.0,
            2.0,
            0,
            KpmOptions {
                order: 48,
                random_vectors: 4,
                grid: 200,
                ..Default::default()
            },
        );
        // peak position
        let (k_max, _) = r
            .dos
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert!(
            (r.energies[k_max] - 1.0).abs() < 0.1,
            "peak at {}",
            r.energies[k_max]
        );
    }

    #[test]
    fn moments_mu0_is_one() {
        let m = synthetic::random_banded_symmetric(100, 8, 4.0, 3);
        let (lo, hi) = gershgorin_bounds(&m);
        let r = kpm_dos(
            &mut SerialOp::new(&m),
            &SerialOps,
            lo,
            hi,
            0,
            KpmOptions::default(),
        );
        assert!((r.moments[0] - 1.0).abs() < 1e-12, "μ0 = {}", r.moments[0]);
    }

    #[test]
    fn global_slice_random_is_partition_invariant() {
        let whole = global_slice_random(9, 2, 0, 100);
        let left = global_slice_random(9, 2, 0, 40);
        let right = global_slice_random(9, 2, 40, 60);
        assert_eq!(&whole[..40], left.as_slice());
        assert_eq!(&whole[40..], right.as_slice());
        assert!(whole.iter().all(|&v| v == 1.0 || v == -1.0));
        // roughly balanced signs
        let sum: f64 = whole.iter().sum();
        assert!(sum.abs() < 30.0);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn bad_bounds_rejected() {
        let m = CsrMatrix::identity(4);
        let _ = kpm_dos(
            &mut SerialOp::new(&m),
            &SerialOps,
            2.0,
            1.0,
            0,
            KpmOptions::default(),
        );
    }
}
