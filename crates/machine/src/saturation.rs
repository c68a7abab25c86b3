//! Memory bandwidth saturation within a NUMA locality domain.
//!
//! The paper's Fig. 3a provides four data points for SpMV on a Nehalem EP
//! socket (0.91 / 1.50 / 1.95 / 2.25 GFlop/s for 1–4 cores, i.e. 7.3 / 12.1
//! / 15.7 / 18.1 GB/s of drawn bandwidth). These are fitted almost exactly
//! by a Michaelis–Menten-type saturation law
//!
//! ```text
//! b(k) = b_inf · k / (k + k_half)
//! ```
//!
//! (with `b_inf = 35.7 GB/s`, `k_half = 3.89`, the four points come out as
//! 7.3 / 12.1 / 15.5 / 18.1 GB/s). We therefore use this two-parameter law
//! for every kernel/LD combination, constructed from the two quantities a
//! benchmark report actually gives you: single-core bandwidth and saturated
//! bandwidth at `n` cores.

/// Bandwidth (GB/s) drawn by `k` concurrently active cores of one locality
/// domain: `b(k) = b_inf · k / (k + k_half)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturationCurve {
    /// Asymptotic bandwidth as `k → ∞` (GB/s). Not physically reachable —
    /// the fitted asymptote of the saturation law.
    pub b_inf: f64,
    /// Number of cores at which half the asymptotic bandwidth is reached.
    pub k_half: f64,
}

impl SaturationCurve {
    /// Fits the curve through two measured points: `b1` GB/s with one core
    /// and `bn` GB/s with `n` cores.
    ///
    /// # Panics
    /// If the inputs are not subadditive (`n·b1 <= bn`) or non-positive —
    /// such data cannot come from a shared-bandwidth resource.
    pub fn from_endpoints(b1: f64, bn: f64, n: usize) -> Self {
        assert!(b1 > 0.0 && bn >= b1, "need 0 < b1 <= bn");
        assert!(n >= 1);
        if n == 1 {
            // Degenerate: single measurement; assume near-linear small-k.
            return Self {
                b_inf: b1 * 16.0,
                k_half: 15.0,
            };
        }
        let n_f = n as f64;
        assert!(
            n_f * b1 > bn,
            "scaling must be subadditive: {n}×{b1} GB/s vs {bn} GB/s"
        );
        let k_half = n_f * (bn - b1) / (n_f * b1 - bn);
        let b_inf = b1 * (1.0 + k_half);
        Self { b_inf, k_half }
    }

    /// The saturation that a measured scaling shows: the fit through its
    /// endpoints (`b1` GB/s on one thread, `bn` on `n`) and the fit's
    /// `frac` [saturation point](Self::saturation_point).
    ///
    /// `None` when `n` threads still draw at least `frac` of `n` times one
    /// thread's bandwidth. Such a curve is near-linear in the measured range,
    /// and a fit through it extrapolates far past that range: 12.9 → 25.7
    /// GB/s on two threads fits a `k_half` of hundreds of threads. Bandwidth
    /// that falls with more threads fits a flat curve, saturated at one.
    pub fn saturation_seen(b1: f64, bn: f64, n: usize, frac: f64) -> Option<(Self, usize)> {
        if n < 2 || bn >= frac * n as f64 * b1 {
            return None;
        }
        let curve = Self::from_endpoints(b1, bn.max(b1), n);
        Some((curve, curve.saturation_point(n, frac)))
    }

    /// Bandwidth drawn by `k` active cores (GB/s). `k = 0` draws nothing.
    pub fn bandwidth(&self, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let k = k as f64;
        self.b_inf * k / (k + self.k_half)
    }

    /// Continuous version for fractional activity (used by the fluid-flow
    /// simulator when threads are partially active).
    pub fn bandwidth_f(&self, k: f64) -> f64 {
        if k <= 0.0 {
            return 0.0;
        }
        self.b_inf * k / (k + self.k_half)
    }

    /// The smallest number of cores at which the curve reaches `frac`
    /// (e.g. 0.95) of its value at `n_cores` — the paper's "saturates at
    /// about four threads" observation, made quantitative.
    pub fn saturation_point(&self, n_cores: usize, frac: f64) -> usize {
        let target = frac * self.bandwidth(n_cores);
        (1..=n_cores)
            .find(|&k| self.bandwidth(k) >= target)
            .unwrap_or(n_cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Nehalem SpMV fit quoted in the module docs.
    fn nehalem_spmv() -> SaturationCurve {
        SaturationCurve::from_endpoints(7.3, 18.1, 4)
    }

    #[test]
    fn fit_reproduces_endpoints() {
        let c = nehalem_spmv();
        assert!((c.bandwidth(1) - 7.3).abs() < 1e-9);
        assert!((c.bandwidth(4) - 18.1).abs() < 1e-9);
    }

    #[test]
    fn fit_matches_paper_intermediate_points() {
        // Paper Fig. 3a: 1.50 and 1.95 GFlop/s at 2 and 3 cores with
        // B_CRS(κ=2.5) = 8.05 bytes/flop → 12.1 and 15.7 GB/s.
        let c = nehalem_spmv();
        assert!((c.bandwidth(2) - 12.1).abs() < 0.2, "{}", c.bandwidth(2));
        assert!((c.bandwidth(3) - 15.7).abs() < 0.3, "{}", c.bandwidth(3));
    }

    #[test]
    fn curve_is_monotone_and_concave() {
        let c = nehalem_spmv();
        let mut prev = 0.0;
        let mut prev_gain = f64::INFINITY;
        for k in 1..=16 {
            let b = c.bandwidth(k);
            assert!(b > prev);
            let gain = b - prev;
            assert!(
                gain <= prev_gain + 1e-12,
                "diminishing returns violated at k={k}"
            );
            prev = b;
            prev_gain = gain;
        }
    }

    #[test]
    fn zero_cores_draw_nothing() {
        assert_eq!(nehalem_spmv().bandwidth(0), 0.0);
        assert_eq!(nehalem_spmv().bandwidth_f(0.0), 0.0);
        assert_eq!(nehalem_spmv().bandwidth_f(-1.0), 0.0);
    }

    #[test]
    fn continuous_matches_discrete() {
        let c = nehalem_spmv();
        for k in 1..=8 {
            assert!((c.bandwidth(k) - c.bandwidth_f(k as f64)).abs() < 1e-12);
        }
    }

    #[test]
    fn stream_saturates_earlier_than_spmv() {
        // STREAM on Nehalem: ~11 GB/s single core, 21.2 GB/s saturated.
        let stream = SaturationCurve::from_endpoints(11.0, 21.2, 4);
        let spmv = nehalem_spmv();
        let s_sat = stream.saturation_point(4, 0.9);
        let m_sat = spmv.saturation_point(4, 0.9);
        assert!(
            s_sat < m_sat,
            "STREAM saturates at {s_sat}, SpMV at {m_sat}"
        );
        assert!(m_sat >= 4);
    }

    #[test]
    fn saturation_seen_only_in_sublinear_scaling() {
        // a 2-core host whose triad doubles shows no saturation
        assert_eq!(SaturationCurve::saturation_seen(12.9, 25.7, 2, 0.9), None);
        // the paper's Nehalem SpMV saturates at its fourth core
        let (curve, sat) = SaturationCurve::saturation_seen(7.3, 18.1, 4, 0.9).unwrap();
        assert_eq!(curve, nehalem_spmv());
        assert_eq!(sat, 4);
        // bandwidth that falls is saturated from the first thread
        assert_eq!(
            SaturationCurve::saturation_seen(10.0, 9.0, 2, 0.9)
                .unwrap()
                .1,
            1
        );
    }

    #[test]
    #[should_panic(expected = "subadditive")]
    fn superlinear_input_rejected() {
        let _ = SaturationCurve::from_endpoints(5.0, 25.0, 4);
    }

    #[test]
    fn single_point_degenerate_is_nearly_linear() {
        let c = SaturationCurve::from_endpoints(10.0, 10.0, 1);
        assert!((c.bandwidth(2) / c.bandwidth(1) - 2.0).abs() < 0.15);
    }
}
