//! Consistency between the three layers that each predict performance:
//! the analytic model (`spmv-model`), the timing simulator (`spmv-sim`),
//! and the functional engine's actual traffic accounting (`spmv-core`).
//! If any layer drifts, the figure regenerators would silently produce
//! numbers with the wrong meaning — these tests pin the layers together.

use hybrid_spmv::prelude::*;
use spmv_core::workload;
use spmv_machine::{plan_layout, CommThreadPlacement};
use spmv_model::roofline;
use spmv_sim::simulate_spmv;

/// The simulator's single-LD performance must match the roofline model:
/// both consume the same saturation curve and the same Eq.-1 byte counts.
#[test]
fn simulator_agrees_with_roofline_on_one_ld() {
    let m = synthetic::random_banded_symmetric(200_000, 4_000, 7.0, 3);
    let cluster = presets::westmere_cluster(1);
    // one rank on one LD = 6 threads, no communication
    let layout = plan_layout(
        &cluster.node,
        1,
        HybridLayout::ProcessPerLd,
        CommThreadPlacement::None,
    )
    .unwrap();
    // restrict to a single LD by partitioning across both and reading one:
    // simpler — simulate with the per-node layout on a one-LD machine model
    let p = RowPartition::by_nnz(&m, layout.num_ranks());
    let w = workload::analyze(&m, &p);
    let kappa = 1.5;
    let r = simulate_spmv(
        &cluster,
        &layout,
        &w,
        &SimConfig::new(KernelMode::VectorNoOverlap).with_kappa(kappa),
    );
    let nnzr = m.avg_nnz_per_row();
    let balance = code_balance_crs(nnzr, kappa);
    let lds = cluster.node.lds();
    let expect: f64 = lds
        .iter()
        .map(|ld| roofline::ld_performance(ld, 6, balance))
        .sum();
    let ratio = r.gflops / expect;
    assert!(
        (0.9..1.1).contains(&ratio),
        "sim {} vs roofline {} (ratio {ratio})",
        r.gflops,
        expect
    );
}

/// Eq. 1 and Eq. 2 relate exactly as the per-phase byte accounting in the
/// simulator's programs: full-kernel bytes + 16·rows = split-kernel bytes.
#[test]
fn split_delta_is_sixteen_bytes_per_row_everywhere() {
    for (nnzr, kappa) in [(7.0, 0.0), (15.0, 2.5), (11.0, 1.0)] {
        let d = code_balance_split(nnzr, kappa) - code_balance_crs(nnzr, kappa);
        // per flop; per row = d * 2 * nnzr
        assert!((d * 2.0 * nnzr - 16.0).abs() < 1e-12, "nnzr {nnzr}");
    }
}

/// The workload analyzer's byte totals equal the plan's byte totals — two
/// independent code paths over the same partition.
#[test]
fn workload_and_plan_totals_agree() {
    let m = holstein::hamiltonian(&HolsteinParams::test_scale(
        HolsteinOrdering::ElectronContiguous,
    ));
    let p = RowPartition::by_nnz(&m, 5);
    let plans = spmv_core::plan::build_plans_serial(&m, &p);
    let work = workload::analyze(&m, &p);
    for (plan, w) in plans.iter().zip(&work) {
        assert_eq!(plan.bytes_in(), w.bytes_in());
        assert_eq!(plan.bytes_out(), w.bytes_out());
        assert_eq!(plan.halo_len(), w.halo_elems);
        assert_eq!(plan.send_len(), w.gather_elems);
    }
}

/// κ estimated by the cache model must respond to cache size the way the
/// measured-κ inversion responds to bandwidth: consistent directionality
/// across the model layer.
#[test]
fn kappa_pipeline_directionality() {
    let m = holstein::hamiltonian(&HolsteinParams::test_scale(
        HolsteinOrdering::ElectronContiguous,
    ));
    let small = estimate_kappa(&m, 2048.0, 64).kappa;
    let large = estimate_kappa(&m, 16.0 * 1024.0 * 1024.0, 64).kappa;
    assert!(small >= large);
    assert_eq!(large, 0.0, "everything fits in 16 MiB at test scale");
    // higher κ -> lower predicted perf at fixed bandwidth
    let p_small = spmv_model::predicted_gflops(18.1, code_balance_crs(15.0, small));
    let p_large = spmv_model::predicted_gflops(18.1, code_balance_crs(15.0, large));
    assert!(p_small <= p_large);
}

/// A CG run on the functional engine applies the operator exactly once per
/// iteration, plus once for the initial residual.
#[test]
fn functional_spmv_count_matches_solver_shape() {
    let m = samg::poisson(&SamgParams {
        nx: 12,
        ny: 6,
        nz: 6,
        perforation: 0.0,
        seed: 1,
        car_mask: false,
    });
    let n = m.nrows();
    let b = vecops::random_vec(n, 3);
    let counts = run_spmd(&m, 2, EngineConfig::pure_mpi(), |eng| {
        let lo = eng.row_start();
        let len = eng.local_len();
        let b_local = b[lo..lo + len].to_vec();
        let mut x = vec![0.0; len];
        let comm = eng.comm().clone();
        let ops = DistOps { comm: &comm };
        let mut op = DistOp::new(eng, KernelMode::VectorNoOverlap);
        let r = cg_solve(&mut op, &ops, &b_local, &mut x, 1e-8, 500);
        (r.iterations as u64, op.applications())
    });
    for (iters, spmvs) in counts {
        // CG: one apply for the initial residual + one per iteration
        assert_eq!(
            spmvs,
            iters + 1,
            "CG applies the operator once per iteration"
        );
    }
}
