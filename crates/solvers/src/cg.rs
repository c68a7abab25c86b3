//! Conjugate gradients for symmetric positive definite systems — the
//! canonical consumer of SpMV for the sAMG-type Poisson matrices.

use crate::operator::{iter_start, record_iter, LinOp};
use crate::ops::{Checkpoints, GlobalOps};
use crate::status::SolveStatus;
use spmv_matrix::vecops;
use spmv_obs::Phase;

/// Outcome of a CG solve.
#[derive(Debug, Clone)]
#[must_use = "a CgResult carries the convergence status and must be inspected"]
pub struct CgResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b - Ax‖ / ‖b‖`.
    pub rel_residual: f64,
    /// Whether the tolerance was reached (`status == Converged`).
    pub converged: bool,
    /// Why the solve stopped.
    pub status: SolveStatus,
    /// Residual norm after each iteration.
    pub history: Vec<f64>,
}

/// Solves `A x = b` (local parts) by unpreconditioned CG.
///
/// `x` carries the initial guess on entry and the solution on exit. All
/// ranks must call collectively when `ops` is distributed.
pub fn cg_solve<O: LinOp, G: GlobalOps>(
    op: &mut O,
    ops: &G,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
) -> CgResult {
    cg(op, ops, b, x, tol, max_iter, None).0
}

/// [`cg_solve`] with periodic checkpoints and collective rollback on
/// failure, for long solves on faulty machines. `every >= 1` is the
/// snapshot period in iterations; `failed` is the local health probe (true
/// = this rank saw a fault since the last poll). Returns the result plus
/// the number of rollbacks.
///
/// The probe is polled once per iteration, at the loop head, and agreed on
/// by a max-reduction, so all ranks roll back together — detection never
/// happens mid-exchange where ranks could disagree about the iteration
/// count. With [`spmv_comm::FaultPlan::fail_rank_at_poll`] the probe is
/// simply `|| comm.poll_failure()`. Because the solve is deterministic
/// (fixed reduction order), a run with zero failures — and a recovered run,
/// once re-iterated past the failure point — produces the plain solver's
/// iterate and history bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn cg_solve_checkpointed<O: LinOp, G: GlobalOps, H: FnMut() -> bool>(
    op: &mut O,
    ops: &G,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    every: usize,
    mut failed: H,
) -> (CgResult, usize) {
    cg(op, ops, b, x, tol, max_iter, Some((every, &mut failed)))
}

/// CG recurrence state: everything a rollback restores.
#[derive(Clone)]
struct CgState {
    iterations: usize,
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    /// Global `rᵀr`.
    rr: f64,
    history: Vec<f64>,
}

/// The CG loop behind both entry points; `checkpoints` is the snapshot
/// period and failure probe of [`cg_solve_checkpointed`]. Returns the
/// result plus the number of rollbacks.
fn cg<O: LinOp, G: GlobalOps>(
    op: &mut O,
    ops: &G,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    checkpoints: Option<(usize, &mut dyn FnMut() -> bool)>,
) -> (CgResult, usize) {
    assert_eq!(b.len(), op.len());
    assert_eq!(x.len(), op.len());
    let n = op.len();
    let mut r = vec![0.0; n];
    let mut ap = vec![0.0; n];

    // r = b - A x
    op.apply(x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }

    let b_norm = ops.norm2(b).max(f64::MIN_POSITIVE);
    let rr = ops.dot(&r, &r);
    let mut converged = rr.sqrt() / b_norm <= tol;
    let mut s = CgState {
        iterations: 0,
        x: x.to_vec(),
        p: r.clone(),
        r,
        rr,
        history: Vec::new(),
    };
    let mut ckpt = checkpoints.map(|(every, failed)| Checkpoints::new(every, failed, &s));
    let mut status = None;

    while !converged && s.iterations < max_iter {
        let t0 = iter_start(op);
        if ckpt.as_mut().is_some_and(|c| c.rolled_back(ops, &mut s)) {
            continue;
        }
        op.apply(&s.p, &mut ap);
        let pap = ops.dot(&s.p, &ap);
        if !pap.is_finite() {
            status = Some(SolveStatus::Diverged);
            break;
        }
        if pap <= 0.0 {
            // matrix not SPD (or breakdown); stop with what we have
            status = Some(SolveStatus::Breakdown);
            break;
        }
        let alpha = s.rr / pap;
        vecops::axpy(alpha, &s.p, &mut s.x);
        vecops::axpy(-alpha, &ap, &mut s.r);
        let rr_new = ops.dot(&s.r, &s.r);
        if !rr_new.is_finite() {
            status = Some(SolveStatus::Diverged);
            break;
        }
        let beta = rr_new / s.rr;
        for (pi, ri) in s.p.iter_mut().zip(&s.r) {
            *pi = ri + beta * *pi;
        }
        s.rr = rr_new;
        s.iterations += 1;
        record_iter(op, Phase::CgIter, t0, s.iterations);
        let rel = s.rr.sqrt() / b_norm;
        s.history.push(rel);
        converged = rel <= tol;
        if !converged {
            if let Some(c) = &mut ckpt {
                c.save_at(s.iterations, &s);
            }
        }
    }

    x.copy_from_slice(&s.x);
    let result = CgResult {
        iterations: s.iterations,
        rel_residual: s.rr.sqrt() / b_norm,
        converged,
        status: status.unwrap_or(if converged {
            SolveStatus::Converged
        } else {
            SolveStatus::MaxIterations
        }),
        history: s.history,
    };
    (result, ckpt.map_or(0, |c| c.rollbacks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::SerialOp;
    use crate::ops::{fail_at, SerialOps};
    use spmv_matrix::{samg, synthetic, vecops};

    #[test]
    fn solves_identity_in_one_step() {
        let m = spmv_matrix::CsrMatrix::identity(20);
        let b = vecops::random_vec(20, 1);
        let mut x = vec![0.0; 20];
        let r = cg_solve(&mut SerialOp::new(&m), &SerialOps, &b, &mut x, 1e-12, 10);
        assert!(r.converged);
        assert!(r.iterations <= 1);
        assert!(vecops::max_abs_diff(&x, &b) < 1e-12);
    }

    #[test]
    fn solves_laplacian() {
        let m = synthetic::tridiagonal(100, 2.0, -1.0);
        let x_true = vecops::random_vec(100, 7);
        let mut b = vec![0.0; 100];
        m.spmv(&x_true, &mut b);
        let mut x = vec![0.0; 100];
        let r = cg_solve(&mut SerialOp::new(&m), &SerialOps, &b, &mut x, 1e-10, 500);
        assert!(r.converged, "rel res {}", r.rel_residual);
        assert!(vecops::max_abs_diff(&x, &x_true) < 1e-6);
        // CG on an n×n SPD matrix converges in at most n iterations
        assert!(r.iterations <= 100);
    }

    #[test]
    fn solves_samg_poisson() {
        let m = samg::poisson(&samg::SamgParams::test_scale());
        let n = m.nrows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let r = cg_solve(&mut SerialOp::new(&m), &SerialOps, &b, &mut x, 1e-8, 2000);
        assert!(
            r.converged,
            "rel res {} after {}",
            r.rel_residual, r.iterations
        );
        // verify the residual independently
        let mut ax = vec![0.0; n];
        m.spmv(&x, &mut ax);
        let res: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt();
        assert!(res / (n as f64).sqrt() < 1e-7);
    }

    #[test]
    fn residual_history_is_recorded_and_decreases_overall() {
        let m = synthetic::tridiagonal(200, 2.0, -1.0);
        let b = vecops::random_vec(200, 3);
        let mut x = vec![0.0; 200];
        let r = cg_solve(&mut SerialOp::new(&m), &SerialOps, &b, &mut x, 1e-10, 300);
        assert_eq!(r.history.len(), r.iterations);
        assert!(r.history.last().unwrap() < &r.history[0]);
    }

    #[test]
    fn respects_max_iter() {
        let m = synthetic::tridiagonal(500, 2.0, -1.0);
        let b = vec![1.0; 500];
        let mut x = vec![0.0; 500];
        let r = cg_solve(&mut SerialOp::new(&m), &SerialOps, &b, &mut x, 1e-16, 3);
        assert!(!r.converged);
        assert_eq!(r.iterations, 3);
        assert_eq!(r.status, crate::status::SolveStatus::MaxIterations);
        assert!(r.status.iterate_usable());
    }

    #[test]
    fn indefinite_matrix_reports_breakdown() {
        // -I is negative definite: pᵀAp < 0 on the first step
        let m = spmv_matrix::CsrMatrix::from_diagonal(&[-1.0; 10]);
        let b = vec![1.0; 10];
        let mut x = vec![0.0; 10];
        let r = cg_solve(&mut SerialOp::new(&m), &SerialOps, &b, &mut x, 1e-12, 50);
        assert_eq!(r.status, crate::status::SolveStatus::Breakdown);
        assert!(!r.status.iterate_usable());
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn non_finite_rhs_reports_diverged() {
        let m = synthetic::tridiagonal(10, 2.0, -1.0);
        let mut b = vec![1.0; 10];
        b[3] = f64::NAN;
        let mut x = vec![0.0; 10];
        let r = cg_solve(&mut SerialOp::new(&m), &SerialOps, &b, &mut x, 1e-12, 50);
        assert_eq!(r.status, crate::status::SolveStatus::Diverged);
        assert!(!r.converged);
    }

    #[test]
    fn warm_start_converges_instantly() {
        let m = synthetic::tridiagonal(50, 2.0, -1.0);
        let x_true = vecops::random_vec(50, 9);
        let mut b = vec![0.0; 50];
        m.spmv(&x_true, &mut b);
        let mut x = x_true.clone();
        let r = cg_solve(&mut SerialOp::new(&m), &SerialOps, &b, &mut x, 1e-10, 100);
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn distributed_cg_matches_serial() {
        use crate::operator::DistOp;
        use crate::ops::DistOps;
        use spmv_core::runner::run_spmd;
        use spmv_core::KernelMode;

        let m = samg::poisson(&samg::SamgParams {
            nx: 16,
            ny: 8,
            nz: 8,
            perforation: 0.0,
            seed: 1,
            car_mask: false,
        });
        let n = m.nrows();
        let b = vecops::random_vec(n, 13);
        let mut x_serial = vec![0.0; n];
        let serial = cg_solve(
            &mut SerialOp::new(&m),
            &SerialOps,
            &b,
            &mut x_serial,
            1e-10,
            1000,
        );
        assert!(serial.converged);

        let pieces = run_spmd(
            &m,
            4,
            spmv_core::engine::EngineConfig::task_mode(2),
            |eng| {
                let lo = eng.row_start();
                let len = eng.local_len();
                let b_local = b[lo..lo + len].to_vec();
                let mut x_local = vec![0.0; len];
                let comm = eng.comm().clone();
                let ops = DistOps { comm: &comm };
                let mut op = DistOp::new(eng, KernelMode::TaskMode);
                let r = cg_solve(&mut op, &ops, &b_local, &mut x_local, 1e-10, 1000);
                assert!(r.converged);
                (lo, x_local)
            },
        );
        for (lo, x) in pieces {
            assert!(
                vecops::max_abs_diff(&x, &x_serial[lo..lo + x.len()]) < 1e-6,
                "distributed CG diverged from serial"
            );
        }
    }

    #[test]
    fn fault_free_run_matches_plain_cg_bitwise() {
        let m = synthetic::tridiagonal(150, 2.0, -1.0);
        let b = vecops::random_vec(150, 3);
        let mut x_plain = vec![0.0; 150];
        let plain = cg_solve(
            &mut SerialOp::new(&m),
            &SerialOps,
            &b,
            &mut x_plain,
            1e-10,
            300,
        );
        let mut x_ck = vec![0.0; 150];
        let (ck, restarts) = cg_solve_checkpointed(
            &mut SerialOp::new(&m),
            &SerialOps,
            &b,
            &mut x_ck,
            1e-10,
            300,
            5,
            || false,
        );
        assert_eq!(restarts, 0);
        assert_eq!(ck.iterations, plain.iterations);
        assert_eq!(x_ck, x_plain, "checkpointing must not perturb the math");
        assert_eq!(ck.history, plain.history);
        assert!(ck.status.is_converged());
    }

    #[test]
    fn cg_recovers_bit_identically_after_injected_failure() {
        let m = synthetic::tridiagonal(200, 2.0, -1.0);
        let b = vecops::random_vec(200, 7);
        let mut x_plain = vec![0.0; 200];
        let plain = cg_solve(
            &mut SerialOp::new(&m),
            &SerialOps,
            &b,
            &mut x_plain,
            1e-10,
            400,
        );
        assert!(plain.converged);
        let mut x_ck = vec![0.0; 200];
        let (ck, restarts) = cg_solve_checkpointed(
            &mut SerialOp::new(&m),
            &SerialOps,
            &b,
            &mut x_ck,
            1e-10,
            400,
            4,
            fail_at(11),
        );
        assert_eq!(restarts, 1);
        assert!(ck.converged);
        assert_eq!(
            x_ck, x_plain,
            "recovered solve must reproduce the answer bitwise"
        );
        assert_eq!(ck.history, plain.history);
        assert_eq!(ck.iterations, plain.iterations);
    }

    #[test]
    fn cg_failure_before_first_checkpoint_restarts_from_scratch() {
        let m = synthetic::tridiagonal(80, 2.0, -1.0);
        let b = vecops::random_vec(80, 5);
        let mut x_plain = vec![0.0; 80];
        let plain = cg_solve(
            &mut SerialOp::new(&m),
            &SerialOps,
            &b,
            &mut x_plain,
            1e-10,
            200,
        );
        let mut x_ck = vec![0.0; 80];
        let (ck, restarts) = cg_solve_checkpointed(
            &mut SerialOp::new(&m),
            &SerialOps,
            &b,
            &mut x_ck,
            1e-10,
            200,
            50, // period longer than the failure point
            fail_at(2),
        );
        assert_eq!(restarts, 1);
        assert_eq!(x_ck, x_plain);
        assert_eq!(ck.history, plain.history);
    }

    #[test]
    fn repeated_failures_still_converge() {
        let m = synthetic::tridiagonal(120, 2.0, -1.0);
        let b = vecops::random_vec(120, 1);
        let mut x_plain = vec![0.0; 120];
        let plain = cg_solve(
            &mut SerialOp::new(&m),
            &SerialOps,
            &b,
            &mut x_plain,
            1e-10,
            300,
        );
        assert!(plain.converged);
        let mut polls = 0usize;
        let mut x_ck = vec![0.0; 120];
        let (ck, restarts) = cg_solve_checkpointed(
            &mut SerialOp::new(&m),
            &SerialOps,
            &b,
            &mut x_ck,
            1e-10,
            300,
            3,
            move || {
                polls += 1;
                polls.is_multiple_of(20) && polls < 100
            },
        );
        assert!(restarts >= 2);
        assert!(ck.converged);
        assert_eq!(x_ck, x_plain);
    }

    #[test]
    #[should_panic(expected = "checkpoint period")]
    fn zero_period_rejected() {
        let m = spmv_matrix::CsrMatrix::identity(4);
        let mut x = vec![0.0; 4];
        let _ = cg_solve_checkpointed(
            &mut SerialOp::new(&m),
            &SerialOps,
            &[1.0; 4],
            &mut x,
            1e-10,
            10,
            0,
            || false,
        );
    }
}
