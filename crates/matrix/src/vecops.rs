//! Dense vector kernels used by the iterative solvers and the STREAM-style
//! bandwidth benchmarks: dot products, AXPY variants, norms, and seeded
//! random vectors.

use crate::rng::Rng64;

/// Dot product `xᵀ y`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← a·x + y`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `x ← a·x`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= a;
    }
}

/// Maximum absolute componentwise difference `‖x - y‖_∞`.
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

/// Relative ∞-norm error of `x` against reference `r`, with an absolute
/// floor so zero references don't blow up.
pub fn rel_error(x: &[f64], r: &[f64]) -> f64 {
    let scale = r.iter().map(|v| v.abs()).fold(0.0, f64::max).max(1e-300);
    max_abs_diff(x, r) / scale
}

/// Deterministic uniform random vector in `[-1, 1)`.
pub fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng64::new(seed);
    (0..n).map(|_| rng.gen_f64() * 2.0 - 1.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn error_measures() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 2.0]), 0.5);
        assert!((rel_error(&[1.0, 2.1], &[1.0, 2.0]) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn random_vec_deterministic_and_bounded() {
        let a = random_vec(100, 9);
        let b = random_vec(100, 9);
        let c = random_vec(100, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&v| (-1.0..1.0).contains(&v)));
    }
}
