//! End-to-end integration: application matrix generators → nonzero-balanced
//! partitioning → distributed halo exchange → all three kernel modes, all
//! validated against the serial CRS kernel.

use hybrid_spmv::prelude::*;

fn check_matrix_all_configs(m: &CsrMatrix, label: &str) {
    let x = vecops::random_vec(m.nrows(), 99);
    let mut y_ref = vec![0.0; m.nrows()];
    m.spmv(&x, &mut y_ref);

    for ranks in [1usize, 2, 3, 6] {
        for threads in [1usize, 3] {
            for mode in KernelMode::ALL {
                let cfg = if mode.needs_comm_thread() {
                    EngineConfig::task_mode(threads)
                } else {
                    EngineConfig::hybrid(threads)
                };
                let y = distributed_spmv(m, &x, ranks, cfg, mode);
                let err = vecops::rel_error(&y, &y_ref);
                assert!(
                    err < 1e-10,
                    "{label}: {mode} with {ranks} ranks x {threads} threads: err {err}"
                );
            }
        }
    }
}

#[test]
fn holstein_hmep_all_modes() {
    let m = holstein::hamiltonian(&HolsteinParams::test_scale(
        HolsteinOrdering::ElectronContiguous,
    ));
    check_matrix_all_configs(&m, "HMeP");
}

#[test]
fn holstein_hmep_phonon_ordering_all_modes() {
    let m = holstein::hamiltonian(&HolsteinParams::test_scale(
        HolsteinOrdering::PhononContiguous,
    ));
    check_matrix_all_configs(&m, "HMEp");
}

#[test]
fn samg_poisson_all_modes() {
    let m = samg::poisson(&SamgParams::test_scale());
    check_matrix_all_configs(&m, "sAMG");
}

#[test]
fn rcm_reordered_matrix_all_modes() {
    // the paper's RCM ablation: reordering must not change results
    let m = holstein::hamiltonian(&HolsteinParams::test_scale(
        HolsteinOrdering::ElectronContiguous,
    ));
    let (rm, _perm) = spmv_matrix::rcm::rcm_reorder(&m);
    assert_eq!(rm.nnz(), m.nnz());
    check_matrix_all_configs(&rm, "RCM(HMeP)");
}

#[test]
fn repeated_spmv_iteration_matches_serial_power_step() {
    let m = samg::poisson(&SamgParams {
        nx: 20,
        ny: 10,
        nz: 10,
        perforation: 0.02,
        seed: 5,
        car_mask: true,
    });
    let n = m.nrows();
    let x0 = vecops::random_vec(n, 31);

    // serial: 8 normalized power steps
    let mut x_ref = x0.clone();
    let mut y = vec![0.0; n];
    for _ in 0..8 {
        m.spmv(&x_ref, &mut y);
        let norm = vecops::norm2(&y);
        x_ref.copy_from_slice(&y);
        vecops::scale(1.0 / norm, &mut x_ref);
    }

    // distributed, task mode
    let pieces = run_spmd(&m, 5, EngineConfig::task_mode(2), |eng| {
        let lo = eng.row_start();
        let len = eng.local_len();
        eng.x_local_mut().copy_from_slice(&x0[lo..lo + len]);
        for _ in 0..8 {
            eng.spmv_checked(KernelMode::TaskMode)
                .expect("fault-free world");
            let local_ss: f64 = eng.y_local().iter().map(|v| v * v).sum();
            let comm = eng.comm().clone();
            let ops = DistOps { comm: &comm };
            let norm = ops.sum(local_ss).sqrt();
            let y = eng.y_local().to_vec();
            for (v, y) in eng.x_local_mut().iter_mut().zip(y) {
                *v = y / norm;
            }
        }
        (lo, eng.x_local().to_vec())
    });
    for (lo, part) in pieces {
        let err = vecops::max_abs_diff(&part, &x_ref[lo..lo + part.len()]);
        assert!(err < 1e-9, "iterated distributed power step drifted: {err}");
    }
}

#[test]
fn the_kernel_keeps_its_bits_through_all_modes() {
    // the engine's kernel end to end: it must drive all three modes to the
    // serial result on real application matrices, and two runs on fresh
    // worlds must agree bit for bit; in vector mode without overlap it
    // sums each row in the serial order, so it must give the serial bits
    // at every rank and thread count
    let hmep = holstein::hamiltonian(&HolsteinParams::test_scale(
        HolsteinOrdering::ElectronContiguous,
    ));
    let samg = samg::poisson(&SamgParams::test_scale());
    let ragged = synthetic::power_law_rows(900, 8.0, 1.0, 23);
    let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (label, m) in [("HMeP", hmep), ("sAMG", samg), ("power-law", ragged)] {
        let x = vecops::random_vec(m.nrows(), 17);
        let mut y_ref = vec![0.0; m.nrows()];
        m.spmv(&x, &mut y_ref);
        for mode in KernelMode::ALL {
            let cfg = if mode.needs_comm_thread() {
                EngineConfig::task_mode(2)
            } else {
                EngineConfig::hybrid(2)
            };
            let y = distributed_spmv(&m, &x, 4, cfg, mode);
            let err = vecops::rel_error(&y, &y_ref);
            assert!(err < 1e-10, "{label}: {mode}: err {err}");
            let again = distributed_spmv(&m, &x, 4, cfg, mode);
            assert!(
                bits(&y) == bits(&again),
                "{label}: {mode}: repeated run is not bit-identical"
            );
        }
        for ranks in 1..=4 {
            for threads in 1..=2 {
                let cfg = EngineConfig::hybrid(threads).with_kernel(KernelKind::CsrScalar);
                let y = distributed_spmv(&m, &x, ranks, cfg, KernelMode::VectorNoOverlap);
                let differ = bits(&y)
                    .iter()
                    .zip(bits(&y_ref))
                    .filter(|(a, b)| *a != b)
                    .count();
                assert_eq!(differ, 0, "{label}: {ranks} ranks x {threads} threads");
            }
        }
    }
}

#[test]
fn comm_stats_reflect_message_aggregation() {
    // hybrid layouts send fewer, larger messages than pure MPI — paper §4
    let m = holstein::hamiltonian(&HolsteinParams::test_scale(
        HolsteinOrdering::ElectronContiguous,
    ));
    let x = vecops::random_vec(m.nrows(), 1);

    let count_messages = |ranks: usize| -> u64 {
        let msgs = run_spmd(&m, ranks, EngineConfig::pure_mpi(), |eng| {
            let lo = eng.row_start();
            let len = eng.local_len();
            eng.x_local_mut().copy_from_slice(&x[lo..lo + len]);
            // The stats counters are world-global: reset on one rank only,
            // fenced by barriers so no plan/SpMV traffic is in flight.
            eng.comm().barrier();
            if eng.comm().rank() == 0 {
                eng.comm().stats().reset();
            }
            eng.comm().barrier();
            eng.spmv_checked(KernelMode::VectorNoOverlap)
                .expect("fault-free world");
            eng.comm().barrier();
            eng.comm().stats().messages()
        });
        msgs[0]
    };
    let many_ranks = count_messages(12);
    let few_ranks = count_messages(3);
    assert!(
        few_ranks < many_ranks,
        "aggregation must reduce message count: {few_ranks} vs {many_ranks}"
    );
}

#[test]
fn matrix_market_roundtrip_through_distributed_spmv() {
    use std::io::BufReader;
    let m = synthetic::random_banded_symmetric(150, 12, 5.0, 77);
    let mut buf = Vec::new();
    spmv_matrix::io::write_matrix_market(&m, &mut buf).unwrap();
    let m2 = spmv_matrix::io::read_matrix_market(BufReader::new(&buf[..])).unwrap();

    let x = vecops::random_vec(150, 8);
    let y1 = distributed_spmv(
        &m,
        &x,
        3,
        EngineConfig::pure_mpi(),
        KernelMode::VectorNoOverlap,
    );
    let y2 = distributed_spmv(
        &m2,
        &x,
        3,
        EngineConfig::pure_mpi(),
        KernelMode::VectorNoOverlap,
    );
    assert!(vecops::max_abs_diff(&y1, &y2) < 1e-12);
}
