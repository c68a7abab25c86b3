//! Eigenvalues of symmetric tridiagonal matrices by Sturm-sequence
//! bisection — the small dense kernel Lanczos needs to turn its recurrence
//! coefficients into Ritz values.

/// Number of eigenvalues of the symmetric tridiagonal matrix `(alpha,
/// beta)` that are strictly less than `x` (Sturm count). `beta[i]` couples
/// rows `i` and `i+1` (`beta.len() == alpha.len() - 1`).
pub fn sturm_count(alpha: &[f64], beta: &[f64], x: f64) -> usize {
    assert_eq!(
        beta.len() + 1,
        alpha.len().max(1),
        "beta must have n-1 entries"
    );
    if alpha.is_empty() {
        return 0;
    }
    // Smallest pivot magnitude we allow (LAPACK-style pivmin): keeps the
    // recurrence finite when a pivot lands exactly on zero. Zero pivots are
    // counted as negative, a consistent tie-breaking convention.
    let pivmin = 1e-290_f64;
    let mut count = 0usize;
    let mut q = alpha[0] - x;
    if q.abs() < pivmin {
        q = -pivmin;
    }
    if q < 0.0 {
        count += 1;
    }
    for i in 1..alpha.len() {
        let b2 = beta[i - 1] * beta[i - 1];
        q = alpha[i] - x - b2 / q;
        if q.abs() < pivmin {
            q = -pivmin;
        }
        if q < 0.0 {
            count += 1;
        }
    }
    count
}

/// Gershgorin interval containing all eigenvalues.
fn spectrum_interval(alpha: &[f64], beta: &[f64]) -> (f64, f64) {
    let n = alpha.len();
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..n {
        let r = (if i > 0 { beta[i - 1].abs() } else { 0.0 })
            + (if i + 1 < n { beta[i].abs() } else { 0.0 });
        lo = lo.min(alpha[i] - r);
        hi = hi.max(alpha[i] + r);
    }
    (lo, hi)
}

/// The `k`-th smallest eigenvalue (0-based) of the symmetric tridiagonal
/// matrix, to absolute tolerance `tol`.
pub fn eigenvalue_k(alpha: &[f64], beta: &[f64], k: usize, tol: f64) -> f64 {
    let n = alpha.len();
    assert!(k < n, "k = {k} out of range for dimension {n}");
    let (mut lo, mut hi) = spectrum_interval(alpha, beta);
    // widen slightly so the counts at the ends are exact
    let pad = (hi - lo).max(1.0) * 1e-12;
    lo -= pad;
    hi += pad;
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if sturm_count(alpha, beta, mid) > k {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

/// All eigenvalues, ascending, to absolute tolerance `tol`.
pub fn eigenvalues(alpha: &[f64], beta: &[f64], tol: f64) -> Vec<f64> {
    (0..alpha.len())
        .map(|k| eigenvalue_k(alpha, beta, k, tol))
        .collect()
}

/// The extreme eigenvalues `(λ_min, λ_max)`.
pub fn extreme_eigenvalues(alpha: &[f64], beta: &[f64], tol: f64) -> (f64, f64) {
    let n = alpha.len();
    (
        eigenvalue_k(alpha, beta, 0, tol),
        eigenvalue_k(alpha, beta, n - 1, tol),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues_are_diagonal() {
        let alpha = [3.0, -1.0, 5.0];
        let beta = [0.0, 0.0];
        let ev = eigenvalues(&alpha, &beta, 1e-12);
        assert!((ev[0] + 1.0).abs() < 1e-10);
        assert!((ev[1] - 3.0).abs() < 1e-10);
        assert!((ev[2] - 5.0).abs() < 1e-10);
    }

    #[test]
    fn two_by_two_analytic() {
        // [[a, b], [b, c]]: eigenvalues (a+c)/2 ± sqrt(((a-c)/2)^2 + b^2)
        let (a, b, c) = (1.0, 2.0, 3.0);
        let ev = eigenvalues(&[a, c], &[b], 1e-13);
        let mid = (a + c) / 2.0;
        let disc = (((a - c) / 2.0f64).powi(2) + b * b).sqrt();
        assert!((ev[0] - (mid - disc)).abs() < 1e-10);
        assert!((ev[1] - (mid + disc)).abs() < 1e-10);
    }

    #[test]
    fn laplacian_eigenvalues_analytic() {
        // tridiag(-1, 2, -1) of size n: λ_k = 2 - 2 cos(kπ/(n+1))
        let n = 20;
        let alpha = vec![2.0; n];
        let beta = vec![-1.0; n - 1];
        let ev = eigenvalues(&alpha, &beta, 1e-12);
        for (k, &e) in ev.iter().enumerate() {
            let expect =
                2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((e - expect).abs() < 1e-9, "λ_{k}: {e} vs {expect}");
        }
    }

    #[test]
    fn sturm_count_is_monotone() {
        let alpha = vec![2.0; 10];
        let beta = vec![-1.0; 9];
        let mut prev = 0;
        for x in [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0] {
            let c = sturm_count(&alpha, &beta, x);
            assert!(c >= prev, "count must grow with x");
            prev = c;
        }
        assert_eq!(sturm_count(&alpha, &beta, -1.0), 0);
        assert_eq!(sturm_count(&alpha, &beta, 5.0), 10);
    }

    #[test]
    fn extreme_eigenvalues_bracket_all() {
        let alpha = [0.3, -2.0, 4.5, 1.0];
        let beta = [1.2, -0.7, 2.0];
        let (lo, hi) = extreme_eigenvalues(&alpha, &beta, 1e-12);
        let all = eigenvalues(&alpha, &beta, 1e-12);
        assert!((all[0] - lo).abs() < 1e-9);
        assert!((all[3] - hi).abs() < 1e-9);
        assert!(all.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    }

    #[test]
    fn single_element_matrix() {
        assert!((eigenvalue_k(&[7.0], &[], 0, 1e-12) - 7.0).abs() < 1e-10);
    }

    #[test]
    fn trace_is_preserved() {
        let alpha = [1.0, 2.0, 3.0, 4.0, 5.0];
        let beta = [0.5, 0.5, 0.5, 0.5];
        let ev = eigenvalues(&alpha, &beta, 1e-12);
        let trace: f64 = alpha.iter().sum();
        let sum: f64 = ev.iter().sum();
        assert!((trace - sum).abs() < 1e-8);
    }
}
