//! Symmetric Lanczos — the paper's flagship application ("Iterative
//! algorithms such as Lanczos ... are used to compute low-lying eigenstates
//! of the Hamilton matrices", §1.2).
//!
//! Plain three-term recurrence with optional full reorthogonalization; Ritz
//! values come from the Sturm-bisection tridiagonal eigensolver.

use crate::operator::{iter_start, record_iter, LinOp};
use crate::ops::{Checkpoints, GlobalOps};
use crate::tridiag;
use spmv_matrix::vecops;
use spmv_obs::Phase;

/// Result of a Lanczos run.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Diagonal recurrence coefficients `α`.
    pub alphas: Vec<f64>,
    /// Off-diagonal recurrence coefficients `β` (length `alphas.len() - 1`
    /// when at least one step completed).
    pub betas: Vec<f64>,
    /// Smallest Ritz value (ground-state estimate).
    pub eigenvalue_min: f64,
    /// Largest Ritz value.
    pub eigenvalue_max: f64,
    /// Steps actually performed (may stop early on invariant subspaces).
    pub iterations: usize,
}

/// Options for [`lanczos`].
#[derive(Debug, Clone, Copy)]
pub struct LanczosOptions {
    /// Maximum Lanczos steps.
    pub max_steps: usize,
    /// Keep the full basis and reorthogonalize every step (memory: `steps ×
    /// n`); avoids ghost eigenvalues on small problems.
    pub full_reorthogonalization: bool,
    /// β below this is treated as an invariant subspace (early stop).
    pub breakdown_tol: f64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        Self {
            max_steps: 100,
            full_reorthogonalization: false,
            breakdown_tol: 1e-12,
        }
    }
}

/// Runs Lanczos from the local start vector `v0` (need not be normalized;
/// must not be zero globally). All ranks call collectively when `ops` is
/// distributed.
pub fn lanczos<O: LinOp, G: GlobalOps>(
    op: &mut O,
    ops: &G,
    v0: &[f64],
    opts: LanczosOptions,
) -> LanczosResult {
    run(op, ops, v0, opts, None).0
}

/// [`lanczos`] with periodic checkpoints and collective rollback on
/// failure; same contract as [`crate::cg::cg_solve_checkpointed`]. Returns
/// the result plus the number of rollbacks.
pub fn lanczos_checkpointed<O: LinOp, G: GlobalOps, H: FnMut() -> bool>(
    op: &mut O,
    ops: &G,
    v0: &[f64],
    opts: LanczosOptions,
    every: usize,
    mut failed: H,
) -> (LanczosResult, usize) {
    run(op, ops, v0, opts, Some((every, &mut failed)))
}

/// Lanczos recurrence state: everything a rollback restores.
#[derive(Clone)]
struct LanczosState {
    /// Current basis vector `v_k` (local part).
    v: Vec<f64>,
    /// Previous basis vector `v_{k-1}` (local part).
    v_prev: Vec<f64>,
    /// `β_{k-1}` feeding the next three-term step.
    beta_prev: f64,
    alphas: Vec<f64>,
    betas: Vec<f64>,
    /// Stored basis (full-reorthogonalization runs only).
    basis: Vec<Vec<f64>>,
}

/// The Lanczos loop behind both entry points; `checkpoints` is the
/// snapshot period and failure probe of [`lanczos_checkpointed`]. Returns
/// the result plus the number of rollbacks.
fn run<O: LinOp, G: GlobalOps>(
    op: &mut O,
    ops: &G,
    v0: &[f64],
    opts: LanczosOptions,
    checkpoints: Option<(usize, &mut dyn FnMut() -> bool)>,
) -> (LanczosResult, usize) {
    let n = op.len();
    assert_eq!(v0.len(), n);
    assert!(opts.max_steps >= 1);

    let mut v = v0.to_vec();
    let norm = ops.norm2(&v);
    assert!(norm > 0.0, "start vector must be nonzero");
    vecops::scale(1.0 / norm, &mut v);

    let mut w = vec![0.0; n];
    let mut s = LanczosState {
        basis: if opts.full_reorthogonalization {
            vec![v.clone()]
        } else {
            Vec::new()
        },
        v,
        v_prev: vec![0.0; n],
        beta_prev: 0.0,
        alphas: Vec::new(),
        betas: Vec::new(),
    };
    let mut ckpt = checkpoints.map(|(every, failed)| Checkpoints::new(every, failed, &s));

    while s.alphas.len() < opts.max_steps {
        let t0 = iter_start(op);
        if ckpt.as_mut().is_some_and(|c| c.rolled_back(ops, &mut s)) {
            continue;
        }
        // w = A v - β_{k-1} v_{k-1}
        op.apply(&s.v, &mut w);
        if s.beta_prev != 0.0 {
            vecops::axpy(-s.beta_prev, &s.v_prev, &mut w);
        }
        let alpha = ops.dot(&w, &s.v);
        vecops::axpy(-alpha, &s.v, &mut w);
        s.alphas.push(alpha);

        if opts.full_reorthogonalization {
            for b in &s.basis {
                let c = ops.dot(&w, b);
                vecops::axpy(-c, b, &mut w);
            }
        }

        let beta = ops.norm2(&w);
        record_iter(op, Phase::LanczosIter, t0, s.alphas.len());
        if beta <= opts.breakdown_tol || s.alphas.len() == opts.max_steps {
            break;
        }
        s.betas.push(beta);
        // shift vectors
        std::mem::swap(&mut s.v_prev, &mut s.v);
        for (vi, wi) in s.v.iter_mut().zip(&w) {
            *vi = wi / beta;
        }
        if opts.full_reorthogonalization {
            s.basis.push(s.v.clone());
        }
        s.beta_prev = beta;
        if let Some(c) = &mut ckpt {
            c.save_at(s.alphas.len(), &s);
        }
    }

    let (lo, hi) = tridiag::extreme_eigenvalues(&s.alphas, &s.betas, 1e-12);
    let result = LanczosResult {
        iterations: s.alphas.len(),
        alphas: s.alphas,
        betas: s.betas,
        eigenvalue_min: lo,
        eigenvalue_max: hi,
    };
    (result, ckpt.map_or(0, |c| c.rollbacks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::SerialOp;
    use crate::ops::{fail_at, SerialOps};
    use spmv_matrix::{synthetic, vecops, CsrMatrix};

    #[test]
    fn diagonal_matrix_extremes_found() {
        let m = CsrMatrix::from_diagonal(&[-3.0, 1.0, 0.5, 9.0, 2.0]);
        let v0 = vec![1.0; 5];
        let r = lanczos(
            &mut SerialOp::new(&m),
            &SerialOps,
            &v0,
            LanczosOptions {
                max_steps: 5,
                full_reorthogonalization: true,
                ..Default::default()
            },
        );
        assert!(
            (r.eigenvalue_min + 3.0).abs() < 1e-8,
            "min {}",
            r.eigenvalue_min
        );
        assert!(
            (r.eigenvalue_max - 9.0).abs() < 1e-8,
            "max {}",
            r.eigenvalue_max
        );
    }

    #[test]
    fn laplacian_extreme_eigenvalues() {
        let n = 200;
        let m = synthetic::tridiagonal(n, 2.0, -1.0);
        let v0 = vecops::random_vec(n, 42);
        let r = lanczos(
            &mut SerialOp::new(&m),
            &SerialOps,
            &v0,
            LanczosOptions {
                max_steps: 80,
                ..Default::default()
            },
        );
        let lam_min = 2.0 - 2.0 * (std::f64::consts::PI / (n as f64 + 1.0)).cos();
        let lam_max = 2.0 - 2.0 * (n as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
        // The 1-D Laplacian's extreme eigenvalues are clustered (spacing
        // ~ (π/n)²), so Lanczos converges slowly there; a few 1e-3 after 80
        // steps is the expected accuracy.
        assert!(
            (r.eigenvalue_max - lam_max).abs() < 5e-3,
            "max {}",
            r.eigenvalue_max
        );
        assert!(
            (r.eigenvalue_min - lam_min).abs() < 5e-3,
            "min {}",
            r.eigenvalue_min
        );
        // Ritz values never overshoot the true spectrum
        assert!(r.eigenvalue_max <= lam_max + 1e-10);
        assert!(r.eigenvalue_min >= lam_min - 1e-10);
    }

    #[test]
    fn invariant_subspace_stops_early() {
        // identity: one step diagonalizes
        let m = CsrMatrix::identity(30);
        let v0 = vecops::random_vec(30, 3);
        let r = lanczos(
            &mut SerialOp::new(&m),
            &SerialOps,
            &v0,
            LanczosOptions::default(),
        );
        assert_eq!(r.iterations, 1);
        assert!((r.eigenvalue_min - 1.0).abs() < 1e-12);
        assert!((r.eigenvalue_max - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ritz_values_stay_within_spectrum_bounds() {
        let m = synthetic::random_banded_symmetric(150, 10, 5.0, 8);
        let (glo, ghi) = crate::operator::gershgorin_bounds(&m);
        let v0 = vecops::random_vec(150, 5);
        let r = lanczos(
            &mut SerialOp::new(&m),
            &SerialOps,
            &v0,
            LanczosOptions {
                max_steps: 60,
                ..Default::default()
            },
        );
        assert!(r.eigenvalue_min >= glo - 1e-8);
        assert!(r.eigenvalue_max <= ghi + 1e-8);
    }

    #[test]
    fn holstein_ground_state_below_band_minimum() {
        // physics sanity check: with coupling the ground state drops below
        // the bare-electron band bottom
        use spmv_matrix::holstein::{hamiltonian, HolsteinOrdering, HolsteinParams};
        let coupled = HolsteinParams {
            sites: 3,
            n_up: 1,
            n_dn: 1,
            truncation: spmv_matrix::holstein::PhononTruncation::AtMost(3),
            t: 1.0,
            u: 0.0,
            omega0: 1.0,
            g: 0.8,
            ordering: HolsteinOrdering::ElectronContiguous,
        };
        let free = HolsteinParams { g: 0.0, ..coupled };
        let hc = hamiltonian(&coupled);
        let hf = hamiltonian(&free);
        let v0 = vecops::random_vec(hc.nrows(), 1);
        let opts = LanczosOptions {
            max_steps: 120,
            full_reorthogonalization: true,
            ..Default::default()
        };
        let ec = lanczos(&mut SerialOp::new(&hc), &SerialOps, &v0, opts);
        let ef = lanczos(&mut SerialOp::new(&hf), &SerialOps, &v0, opts);
        assert!(
            ec.eigenvalue_min < ef.eigenvalue_min - 1e-6,
            "polaron binding energy must be negative: {} vs {}",
            ec.eigenvalue_min,
            ef.eigenvalue_min
        );
    }

    #[test]
    fn distributed_lanczos_matches_serial() {
        use crate::operator::DistOp;
        use crate::ops::DistOps;
        use spmv_core::runner::run_spmd;
        use spmv_core::KernelMode;

        let m = synthetic::random_banded_symmetric(240, 12, 5.0, 33);
        let v0 = vecops::random_vec(240, 21);
        let opts = LanczosOptions {
            max_steps: 40,
            ..Default::default()
        };
        let serial = lanczos(&mut SerialOp::new(&m), &SerialOps, &v0, opts);

        let results = run_spmd(
            &m,
            3,
            spmv_core::engine::EngineConfig::task_mode(2),
            |eng| {
                let lo = eng.row_start();
                let len = eng.local_len();
                let v_local = v0[lo..lo + len].to_vec();
                let comm = eng.comm().clone();
                let ops = DistOps { comm: &comm };
                let mut op = DistOp::new(eng, KernelMode::TaskMode);
                lanczos(&mut op, &ops, &v_local, opts)
            },
        );
        for r in results {
            assert!((r.eigenvalue_min - serial.eigenvalue_min).abs() < 1e-8);
            assert!((r.eigenvalue_max - serial.eigenvalue_max).abs() < 1e-8);
            assert_eq!(r.iterations, serial.iterations);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_start_vector_rejected() {
        let m = CsrMatrix::identity(5);
        let _ = lanczos(
            &mut SerialOp::new(&m),
            &SerialOps,
            &[0.0; 5],
            LanczosOptions::default(),
        );
    }

    #[test]
    fn fault_free_run_matches_plain_lanczos_bitwise() {
        let m = synthetic::random_banded_symmetric(120, 8, 5.0, 4);
        let v0 = vecops::random_vec(120, 11);
        for full_reorthogonalization in [false, true] {
            let opts = LanczosOptions {
                max_steps: 30,
                full_reorthogonalization,
                ..Default::default()
            };
            let plain = lanczos(&mut SerialOp::new(&m), &SerialOps, &v0, opts);
            let (ck, restarts) =
                lanczos_checkpointed(&mut SerialOp::new(&m), &SerialOps, &v0, opts, 4, || false);
            let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
            assert_eq!(restarts, 0);
            assert_eq!(bits(&ck.alphas), bits(&plain.alphas));
            assert_eq!(bits(&ck.betas), bits(&plain.betas));
            assert_eq!(ck.eigenvalue_min.to_bits(), plain.eigenvalue_min.to_bits());
            assert_eq!(ck.eigenvalue_max.to_bits(), plain.eigenvalue_max.to_bits());
        }
    }

    #[test]
    fn lanczos_recovers_bit_identically_after_injected_failure() {
        let m = synthetic::random_banded_symmetric(180, 12, 5.0, 9);
        let v0 = vecops::random_vec(180, 2);
        let opts = LanczosOptions {
            max_steps: 40,
            ..Default::default()
        };
        let plain = lanczos(&mut SerialOp::new(&m), &SerialOps, &v0, opts);
        let (ck, restarts) = lanczos_checkpointed(
            &mut SerialOp::new(&m),
            &SerialOps,
            &v0,
            opts,
            5,
            fail_at(17),
        );
        assert_eq!(restarts, 1);
        assert_eq!(
            ck.alphas, plain.alphas,
            "recovered recurrence must match bitwise"
        );
        assert_eq!(ck.betas, plain.betas);
        assert_eq!(ck.eigenvalue_min.to_bits(), plain.eigenvalue_min.to_bits());
        assert_eq!(ck.eigenvalue_max.to_bits(), plain.eigenvalue_max.to_bits());
    }

    #[test]
    fn lanczos_reorthogonalized_checkpoint_keeps_basis() {
        let m = CsrMatrix::from_diagonal(&[-3.0, 1.0, 0.5, 9.0, 2.0]);
        let v0 = vec![1.0; 5];
        let opts = LanczosOptions {
            max_steps: 5,
            full_reorthogonalization: true,
            ..Default::default()
        };
        let plain = lanczos(&mut SerialOp::new(&m), &SerialOps, &v0, opts);
        let (ck, restarts) =
            lanczos_checkpointed(&mut SerialOp::new(&m), &SerialOps, &v0, opts, 2, fail_at(4));
        assert_eq!(restarts, 1);
        assert_eq!(ck.alphas, plain.alphas);
        assert!((ck.eigenvalue_min + 3.0).abs() < 1e-8);
        assert!((ck.eigenvalue_max - 9.0).abs() < 1e-8);
    }
}
