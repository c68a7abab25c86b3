//! Solver-level integration: the iterative algorithms of the paper's
//! application areas, run serially and distributed, cross-validated against
//! each other and against analytically known results.

use hybrid_spmv::prelude::*;
use spmv_solvers::lanczos::LanczosOptions;
use spmv_solvers::tridiag;

/// Dense Jacobi eigenvalue iteration — an independent reference for small
/// symmetric matrices (only used to validate the sparse solvers).
#[allow(clippy::needless_range_loop)] // textbook index-based Jacobi rotations
fn dense_eigenvalues(m: &CsrMatrix) -> Vec<f64> {
    let n = m.nrows();
    assert!(n <= 64, "reference solver is for tiny matrices");
    let mut a = vec![vec![0.0f64; n]; n];
    for (i, j, v) in m.triplets() {
        a[i][j] = v;
    }
    for _sweep in 0..100 {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[i][j] * a[i][j];
            }
        }
        if off < 1e-24 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                if a[p][q].abs() < 1e-15 {
                    continue;
                }
                let theta = 0.5 * (a[q][q] - a[p][p]) / a[p][q];
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let (akp, akq) = (a[k][p], a[k][q]);
                    a[k][p] = c * akp - s * akq;
                    a[k][q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let (apk, aqk) = (a[p][k], a[q][k]);
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
            }
        }
    }
    let mut ev: Vec<f64> = (0..n).map(|i| a[i][i]).collect();
    ev.sort_by(f64::total_cmp);
    ev
}

#[test]
fn lanczos_matches_dense_reference_on_tiny_holstein() {
    let params = HolsteinParams {
        sites: 2,
        n_up: 1,
        n_dn: 1,
        truncation: PhononTruncation::AtMost(1),
        t: 1.0,
        u: 2.0,
        omega0: 1.3,
        g: 0.6,
        ordering: HolsteinOrdering::ElectronContiguous,
    };
    let h = holstein::hamiltonian(&params);
    assert!(h.nrows() <= 64);
    let dense = dense_eigenvalues(&h);

    let v0 = vecops::random_vec(h.nrows(), 11);
    let r = lanczos(
        &mut SerialOp::new(&h),
        &SerialOps,
        &v0,
        LanczosOptions {
            max_steps: h.nrows(),
            full_reorthogonalization: true,
            ..Default::default()
        },
    );
    assert!(
        (r.eigenvalue_min - dense[0]).abs() < 1e-8,
        "Lanczos E0 {} vs dense {}",
        r.eigenvalue_min,
        dense[0]
    );
    assert!(
        (r.eigenvalue_max - dense[dense.len() - 1]).abs() < 1e-8,
        "Lanczos Emax {} vs dense {}",
        r.eigenvalue_max,
        dense[dense.len() - 1]
    );
}

#[test]
fn full_reorth_lanczos_recovers_whole_spectrum_of_tiny_matrix() {
    let m = synthetic::random_banded_symmetric(24, 5, 4.0, 7);
    let dense = dense_eigenvalues(&m);
    let v0 = vecops::random_vec(24, 5);
    let r = lanczos(
        &mut SerialOp::new(&m),
        &SerialOps,
        &v0,
        LanczosOptions {
            max_steps: 24,
            full_reorthogonalization: true,
            ..Default::default()
        },
    );
    let ritz = tridiag::eigenvalues(&r.alphas, &r.betas, 1e-12);
    // with full reorthogonalization and n steps the Ritz values ARE the
    // eigenvalues (up to roundoff)
    assert_eq!(ritz.len(), dense.len());
    for (a, b) in ritz.iter().zip(&dense) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }
}

#[test]
fn distributed_and_serial_lanczos_agree_on_hmep() {
    let h = holstein::hamiltonian(&HolsteinParams::test_scale(
        HolsteinOrdering::ElectronContiguous,
    ));
    let v0 = vecops::random_vec(h.nrows(), 21);
    let opts = LanczosOptions {
        max_steps: 60,
        ..Default::default()
    };
    let serial = lanczos(&mut SerialOp::new(&h), &SerialOps, &v0, opts);

    for mode in KernelMode::ALL {
        let cfg = if mode.needs_comm_thread() {
            EngineConfig::task_mode(2)
        } else {
            EngineConfig::hybrid(2)
        };
        let results = run_spmd(&h, 4, cfg, |eng| {
            let lo = eng.row_start();
            let len = eng.local_len();
            let v_local = v0[lo..lo + len].to_vec();
            let comm = eng.comm().clone();
            let ops = DistOps { comm: &comm };
            let mut op = DistOp::new(eng, mode);
            lanczos(&mut op, &ops, &v_local, opts).eigenvalue_min
        });
        for e in results {
            assert!(
                (e - serial.eigenvalue_min).abs() < 1e-8,
                "{mode}: {e} vs {}",
                serial.eigenvalue_min
            );
        }
    }
}

#[test]
fn distributed_cg_solves_car_poisson() {
    let m = samg::poisson(&SamgParams::test_scale());
    let n = m.nrows();
    let b = vecops::random_vec(n, 44);
    let pieces = run_spmd(&m, 6, EngineConfig::task_mode(1), |eng| {
        let lo = eng.row_start();
        let len = eng.local_len();
        let b_local = b[lo..lo + len].to_vec();
        let mut x_local = vec![0.0; len];
        let comm = eng.comm().clone();
        let ops = DistOps { comm: &comm };
        let mut op = DistOp::new(eng, KernelMode::TaskMode);
        let r = cg_solve(&mut op, &ops, &b_local, &mut x_local, 1e-9, 5000);
        assert!(r.converged);
        (lo, x_local)
    });
    let mut x = vec![0.0; n];
    for (lo, part) in pieces {
        x[lo..lo + part.len()].copy_from_slice(&part);
    }
    let mut ax = vec![0.0; n];
    m.spmv(&x, &mut ax);
    let res: f64 = b
        .iter()
        .zip(&ax)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    assert!(
        res / vecops::norm2(&b) < 1e-8,
        "relative residual too large"
    );
}
