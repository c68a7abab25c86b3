//! Code balance of the CRS SpMV kernel — the paper's Eq. (1) and Eq. (2).
//!
//! Per inner-loop iteration (one nonzero, 2 flops) the kernel moves:
//!
//! * 8 B for `val(j)`,
//! * 4 B for `col_idx(j)`,
//! * `16/N_nzr` B for the result update `C(i)` (write allocate + evict,
//!   amortized over the row),
//! * `8/N_nzr` B for the minimum single load of `B(:)`,
//! * `κ` additional bytes for B-reloads caused by limited cache capacity.
//!
//! Together: `B_CRS = (12 + 24/N_nzr + κ)/2 = 6 + 12/N_nzr + κ/2`
//! bytes/flop. Splitting the kernel into local and non-local parts (naive
//! overlap, task mode) writes the result vector twice, adding another
//! `16/N_nzr` B: `B_split = 6 + 20/N_nzr + κ/2`.

/// CRS code balance in bytes/flop, Eq. (1).
pub fn code_balance_crs(nnzr: f64, kappa: f64) -> f64 {
    assert!(nnzr > 0.0, "N_nzr must be positive");
    assert!(kappa >= 0.0, "κ cannot be negative");
    6.0 + 12.0 / nnzr + kappa / 2.0
}

/// Split-kernel (local + non-local) code balance in bytes/flop, Eq. (2).
pub fn code_balance_split(nnzr: f64, kappa: f64) -> f64 {
    assert!(nnzr > 0.0, "N_nzr must be positive");
    assert!(kappa >= 0.0, "κ cannot be negative");
    6.0 + 20.0 / nnzr + kappa / 2.0
}

/// Code balance of the value-coded CRS kernel in bytes/flop: Eq. (1) with
/// one 4-byte word per nonzero (column and value code) instead of an 8-byte
/// value and a 4-byte column index. The value table is 2 KiB and stays in
/// cache, so it adds nothing per nonzero:
///
/// `B_coded = (4 + 24/N_nzr + κ)/2 = 2 + 12/N_nzr + κ/2`.
pub fn code_balance_coded(nnzr: f64, kappa: f64) -> f64 {
    code_balance_crs(nnzr, kappa) - 4.0
}

/// SELL-C-σ code balance in bytes/flop.
///
/// Relative to CRS the matrix-data term (8 B value + 4 B column index per
/// stored slot) is multiplied by the padding factor `α ≥ 1` ([`SellMatrix::
/// padding_factor`]): padded slots move the same bytes as real nonzeros but
/// contribute no useful flops. The RHS and result terms are per *useful*
/// nonzero and unchanged:
///
/// `B_SELL = (12·α + 24/N_nzr + κ)/2 = 6·α + 12/N_nzr + κ/2`.
///
/// With `α = 1` (e.g. SELL-1-1, which is CSR) this reduces to Eq. (1).
///
/// [`SellMatrix::padding_factor`]: spmv_matrix::SellMatrix::padding_factor
pub fn code_balance_sell(nnzr: f64, alpha: f64, kappa: f64) -> f64 {
    assert!(nnzr > 0.0, "N_nzr must be positive");
    assert!(alpha >= 1.0, "padding factor α is >= 1 by construction");
    assert!(kappa >= 0.0, "κ cannot be negative");
    6.0 * alpha + 12.0 / nnzr + kappa / 2.0
}

/// Bandwidth-limited performance prediction: GB/s divided by bytes/flop
/// gives GFlop/s.
pub fn predicted_gflops(bandwidth_gbs: f64, balance_bytes_per_flop: f64) -> f64 {
    assert!(balance_bytes_per_flop > 0.0);
    bandwidth_gbs / balance_bytes_per_flop
}

/// Extracts κ from a measured (performance, drawn bandwidth) pair, the way
/// §2 of the paper does: `B_measured = bw / perf`, then invert Eq. (1).
/// The result is clamped at zero (measurement noise can push it slightly
/// negative for cache-resident problems).
pub fn kappa_from_measurement(nnzr: f64, gflops: f64, bandwidth_gbs: f64) -> f64 {
    kappa_over_balance(code_balance_crs(nnzr, 0.0), gflops, bandwidth_gbs)
}

/// [`kappa_from_measurement`] for any kernel whose balance at κ = 0 is
/// `balance_at_zero` (such as [`code_balance_coded`]): κ enters every
/// balance as `κ/2`.
pub fn kappa_over_balance(balance_at_zero: f64, gflops: f64, bandwidth_gbs: f64) -> f64 {
    assert!(gflops > 0.0 && bandwidth_gbs > 0.0);
    let measured_balance = bandwidth_gbs / gflops;
    (2.0 * (measured_balance - balance_at_zero)).max(0.0)
}

/// Relative node-level performance penalty of the split kernel:
/// `1 - B_CRS/B_split` (performance is inversely proportional to balance).
///
/// The paper quotes the penalty as `B_split/B_CRS - 1` ("between 15 % and
/// 8 %" for `N_nzr = 7…15`, κ = 0); [`split_penalty_paper_convention`]
/// reproduces that convention.
pub fn split_penalty(nnzr: f64, kappa: f64) -> f64 {
    1.0 - code_balance_crs(nnzr, kappa) / code_balance_split(nnzr, kappa)
}

/// The paper's convention for the split-kernel penalty: `B_split/B_CRS - 1`.
pub fn split_penalty_paper_convention(nnzr: f64, kappa: f64) -> f64 {
    code_balance_split(nnzr, kappa) / code_balance_crs(nnzr, kappa) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_at_paper_values() {
        // N_nzr = 15, κ = 0: B = 6 + 0.8 = 6.8 bytes/flop
        assert!((code_balance_crs(15.0, 0.0) - 6.8).abs() < 1e-12);
        // with κ = 2.5: 8.05
        assert!((code_balance_crs(15.0, 2.5) - 8.05).abs() < 1e-12);
    }

    #[test]
    fn eq2_at_paper_values() {
        assert!((code_balance_split(15.0, 0.0) - (6.0 + 20.0 / 15.0)).abs() < 1e-12);
    }

    #[test]
    fn paper_socket_predictions() {
        // §2: "For a single socket the spMVM draws 18.1 GB/s (STREAM triads:
        // 21.2 GB/s), allowing for a maximum performance of 2.66 GFlop/s
        // (3.12 GFlop/s)" — with κ = 0, N_nzr = 15.
        let b0 = code_balance_crs(15.0, 0.0);
        assert!((predicted_gflops(18.1, b0) - 2.66).abs() < 0.01);
        assert!((predicted_gflops(21.2, b0) - 3.12).abs() < 0.01);
    }

    #[test]
    fn paper_kappa_extraction() {
        // §2: measured 2.25 GFlop/s at 18.1 GB/s → κ = 2.5
        let k = kappa_from_measurement(15.0, 2.25, 18.1);
        assert!((k - 2.5).abs() < 0.05, "κ = {k}");
    }

    #[test]
    fn paper_bytes_per_row() {
        // §2: κ = 2.5 means "2.5 additional bytes of memory traffic on B(:)
        // per inner loop iteration (37.3 bytes per row)".
        // Eq. 1 prices κ per flop; a row of N_nzr entries is 2·N_nzr flops
        let extra = (code_balance_crs(15.0, 2.5) - code_balance_crs(15.0, 0.0)) * 2.0 * 15.0;
        assert!((extra - 37.5).abs() < 0.5, "got {extra}");
    }

    #[test]
    fn hmep_kappa_means_ten_percent_drop() {
        // §2: κ(HMEp) = 3.79 "implies a performance drop of about 10 %"
        // relative to κ(HMeP) = 2.5 at the same bandwidth.
        let perf_hmep = predicted_gflops(18.1, code_balance_crs(15.0, 3.79));
        let perf_hmep_ref = predicted_gflops(18.1, code_balance_crs(15.0, 2.5));
        let drop = 1.0 - perf_hmep / perf_hmep_ref;
        assert!((0.05..0.12).contains(&drop), "drop {drop}");
    }

    #[test]
    fn split_penalty_range_matches_paper() {
        // §3.1: "For N_nzr ≈ 7…15 and assuming κ = 0, one may expect a
        // node-level performance penalty between 15 % and 8 %".
        let p7 = split_penalty_paper_convention(7.0, 0.0);
        let p15 = split_penalty_paper_convention(15.0, 0.0);
        assert!((p7 - 0.148).abs() < 0.01, "{p7}");
        assert!((p15 - 0.078).abs() < 0.01, "{p15}");
        // "and even less if κ > 0"
        assert!(split_penalty_paper_convention(7.0, 2.0) < p7);
    }

    #[test]
    fn true_penalty_is_below_paper_convention() {
        for nnzr in [7.0, 10.0, 15.0] {
            assert!(split_penalty(nnzr, 0.0) < split_penalty_paper_convention(nnzr, 0.0));
        }
    }

    #[test]
    fn balance_decreases_with_nnzr() {
        let mut prev = f64::INFINITY;
        for nnzr in [2.0, 5.0, 10.0, 20.0, 100.0] {
            let b = code_balance_crs(nnzr, 0.0);
            assert!(b < prev);
            prev = b;
        }
        // asymptote is 6 bytes/flop (val + col_idx only)
        assert!((code_balance_crs(1e12, 0.0) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn kappa_extraction_clamps_at_zero() {
        // cache-resident: measured balance below the model floor
        assert_eq!(kappa_from_measurement(15.0, 10.0, 10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_nnzr_rejected() {
        let _ = code_balance_crs(0.0, 0.0);
    }

    #[test]
    fn coded_balance_is_eq1_less_four_bytes_per_flop() {
        for nnzr in [7.0, 11.6, 15.0] {
            for kappa in [0.0, 2.5] {
                let coded = code_balance_coded(nnzr, kappa);
                assert!((coded - (2.0 + 12.0 / nnzr + kappa / 2.0)).abs() < 1e-12);
                assert!((code_balance_crs(nnzr, kappa) - coded - 4.0).abs() < 1e-12);
            }
        }
        // κ inverts against the coded balance as against Eq. 1
        let b = code_balance_coded(15.0, 2.5);
        let k = kappa_over_balance(code_balance_coded(15.0, 0.0), 18.1 / b, 18.1);
        assert!((k - 2.5).abs() < 1e-9, "κ = {k}");
    }

    #[test]
    fn sell_balance_reduces_to_crs_without_padding() {
        for nnzr in [7.0, 15.0] {
            for kappa in [0.0, 2.5] {
                let sell = code_balance_sell(nnzr, 1.0, kappa);
                let crs = code_balance_crs(nnzr, kappa);
                assert!((sell - crs).abs() < 1e-12, "nnzr {nnzr} κ {kappa}");
            }
        }
    }

    #[test]
    fn sell_padding_costs_bandwidth() {
        // 10 % padding overhead adds 0.6 bytes/flop on the matrix term
        let b1 = code_balance_sell(15.0, 1.0, 0.0);
        let b2 = code_balance_sell(15.0, 1.1, 0.0);
        assert!((b2 - b1 - 0.6).abs() < 1e-12);
        // and strictly increases with α
        assert!(code_balance_sell(7.0, 1.5, 1.0) > code_balance_sell(7.0, 1.2, 1.0));
    }

    #[test]
    fn sell_balance_consistent_with_actual_padding() {
        // wire the real format statistic into the model
        let m = spmv_matrix::synthetic::power_law_rows(256, 7.0, 1.0, 3);
        let s = spmv_matrix::SellMatrix::from_csr(&m, 32, 256);
        let alpha = s.padding_factor();
        let b = code_balance_sell(m.avg_nnz_per_row(), alpha, 0.0);
        assert!(b >= code_balance_crs(m.avg_nnz_per_row(), 0.0));
        assert!(
            predicted_gflops(18.1, b)
                <= predicted_gflops(18.1, code_balance_crs(m.avg_nnz_per_row(), 0.0))
        );
    }

    #[test]
    #[should_panic(expected = "padding factor")]
    fn sell_alpha_below_one_rejected() {
        let _ = code_balance_sell(7.0, 0.9, 0.0);
    }
}
