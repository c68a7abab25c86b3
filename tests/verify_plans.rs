//! Workspace-level contract tests for the static verification layer.
//!
//! Two directions, both through the public facade:
//!
//! * **acceptance** — every *organic* plan the planner produces, across a
//!   grid of seeded matrices, rank counts, and both exchange strategies,
//!   must verify cleanly, and engines constructed with verification forced
//!   on must still produce bit-correct results in all three kernel modes;
//! * **rejection** — each plan corruption class (dropped receive,
//!   truncated receive, duplicated flow, out-of-range gather) must produce
//!   its *exact* typed [`PlanViolation`], not a generic failure. A wire
//!   routed back onto its own node is an op-list corruption no plan can
//!   express; `spmv-core`'s `verify` unit tests cover it.

use hybrid_spmv::core::engine::{CommStrategy, EngineConfig};
use hybrid_spmv::core::plan::build_plans_serial;
use hybrid_spmv::core::runner::distributed_spmv;
use hybrid_spmv::core::{KernelMode, RowPartition};
use hybrid_spmv::machine::RankNodeMap;
use hybrid_spmv::matrix::{synthetic, vecops, CsrMatrix};
use hybrid_spmv::verify::{verify_plans, PlanViolation};

/// The seeded matrix family the acceptance sweep runs over: banded
/// symmetric (regular halos), power-law rows (ragged halos), and a small
/// Holstein Hamiltonian (the paper's application structure).
fn corpus() -> Vec<(String, CsrMatrix)> {
    let mut out = Vec::new();
    for seed in [3u64, 17, 40] {
        out.push((
            format!("banded(96, seed {seed})"),
            synthetic::random_banded_symmetric(96, 7, 4.0, seed),
        ));
        out.push((
            format!("power_law(80, seed {seed})"),
            synthetic::power_law_rows(80, 5.0, 1.0, seed),
        ));
    }
    out.push((
        "holstein(test)".to_string(),
        hybrid_spmv::matrix::holstein::hamiltonian(
            &hybrid_spmv::matrix::holstein::HolsteinParams::test_scale(
                hybrid_spmv::matrix::holstein::HolsteinOrdering::ElectronContiguous,
            ),
        ),
    ));
    out
}

#[test]
fn organic_plans_verify_across_corpus_and_strategies() {
    for (name, m) in corpus() {
        for ranks in [2usize, 3, 5] {
            if ranks > m.nrows() {
                continue;
            }
            let partition = RowPartition::by_nnz(&m, ranks);
            let plans = build_plans_serial(&m, &partition);

            let summary = verify_plans(&plans, None)
                .unwrap_or_else(|e| panic!("{name} x {ranks} ranks (flat): {e:?}"));
            assert_eq!(summary.ranks, ranks, "{name}");
            // bytes are f64 payloads and every message is counted once
            assert_eq!(summary.bytes % 8, 0, "{name}");
            let expected_msgs: usize = plans.iter().map(|p| p.recv.len()).sum();
            assert_eq!(summary.messages, expected_msgs, "{name}");

            for ranks_per_node in [2usize, 3] {
                let map = RankNodeMap::contiguous(ranks, ranks_per_node);
                verify_plans(&plans, Some(&map)).unwrap_or_else(|e| {
                    panic!("{name} x {ranks} ranks (node-aware/{ranks_per_node}): {e:?}")
                });
            }
        }
    }
}

#[test]
fn engines_with_verification_forced_on_stay_correct() {
    let m = synthetic::random_banded_symmetric(72, 7, 4.0, 11);
    let x = vecops::random_vec(m.nrows(), 23);
    let mut y_ref = vec![0.0; m.nrows()];
    m.spmv(&x, &mut y_ref);
    for strategy in [
        CommStrategy::Flat,
        CommStrategy::NodeAware { ranks_per_node: 2 },
    ] {
        for mode in KernelMode::ALL {
            let cfg = if mode.needs_comm_thread() {
                EngineConfig::task_mode(2)
            } else {
                EngineConfig::hybrid(2)
            }
            .with_comm_strategy(strategy)
            .with_verification(true);
            let y = distributed_spmv(&m, &x, 4, cfg, mode);
            let err = vecops::max_abs_diff(&y, &y_ref);
            assert!(
                err < 1e-11,
                "{mode} under {} exchange: {err}",
                strategy.label()
            );
        }
    }
}

/// A seeded 4-rank world with nontrivial halos for the corruption tests.
fn organic_plans() -> Vec<hybrid_spmv::core::plan::RankPlan> {
    let m = synthetic::random_banded_symmetric(80, 9, 4.0, 7);
    build_plans_serial(&m, &RowPartition::by_nnz(&m, 4))
}

#[test]
fn corruption_dropped_recv_yields_missing_recv() {
    let mut plans = organic_plans();
    let victim = plans
        .iter()
        .position(|p| !p.recv.is_empty())
        .expect("a rank with halo traffic");
    let dropped = plans[victim].recv.remove(0);
    let err = verify_plans(&plans, None).expect_err("dropped recv must be rejected");
    assert!(
        err.iter().any(|v| matches!(
            v,
            PlanViolation::MissingRecv { src, dst, .. }
                if *src == dropped.peer && *dst == victim
        )),
        "expected MissingRecv {} -> {victim}, got {err:?}",
        dropped.peer
    );
}

#[test]
fn corruption_truncated_recv_yields_byte_mismatch() {
    let mut plans = organic_plans();
    let (victim, k, peer, want) = plans
        .iter()
        .enumerate()
        .find_map(|(r, p)| {
            p.recv
                .iter()
                .position(|n| n.indices.len() > 1)
                .map(|k| (r, k, p.recv[k].peer, p.recv[k].indices.len()))
        })
        .expect("a multi-element halo segment");
    plans[victim].recv[k].indices.pop();
    let err = verify_plans(&plans, None).expect_err("byte mismatch must be rejected");
    assert!(
        err.iter().any(|v| matches!(
            v,
            PlanViolation::ByteMismatch { src, dst, send_bytes, recv_bytes, .. }
                if *src == peer && *dst == victim
                    && *send_bytes == want * 8
                    && *recv_bytes == (want - 1) * 8
        )),
        "expected ByteMismatch {peer} -> {victim}, got {err:?}"
    );
}

#[test]
fn corruption_duplicated_flow_yields_tag_collision() {
    let mut plans = organic_plans();
    let victim = plans
        .iter()
        .position(|p| !p.recv.is_empty())
        .expect("a rank with halo traffic");
    let dup = plans[victim].recv[0].clone();
    let peer = dup.peer;
    plans[victim].recv.push(dup);
    let err = verify_plans(&plans, None).expect_err("duplicate flow must be rejected");
    assert!(
        err.iter().any(|v| matches!(
            v,
            PlanViolation::TagCollision { src, dst, count: 2, .. }
                if *src == peer && *dst == victim
        )),
        "expected TagCollision {peer} -> {victim}, got {err:?}"
    );
}

#[test]
fn corruption_out_of_range_gather_is_typed() {
    let mut plans = organic_plans();
    let victim = plans
        .iter()
        .position(|p| !p.send.is_empty())
        .expect("a rank that sends");
    let bad = plans[victim].local_len as u32 + 5;
    plans[victim].send[0].indices[0] = bad;
    let err = verify_plans(&plans, None).expect_err("foreign gather index must be rejected");
    assert!(
        err.iter().any(|v| matches!(
            v,
            PlanViolation::GatherOutOfRange { rank, index, .. }
                if *rank == victim && *index == bad as usize
        )),
        "expected GatherOutOfRange at rank {victim}, got {err:?}"
    );
}

#[test]
fn explorer_is_reachable_through_the_facade() {
    // the in-crate suite explores all modes exhaustively; here we pin the
    // facade path end to end: real plans -> model world -> verdict
    let m = synthetic::tridiagonal(18, 2.0, -1.0);
    let x = vecops::random_vec(18, 3);
    let (world, layout) =
        hybrid_spmv::verify::build_world(&m, &x, 3, KernelMode::TaskMode, CommStrategy::Flat);
    let report = hybrid_spmv::verify::Explorer::new(world)
        .run()
        .expect("task mode on 3 ranks is deadlock-free");
    assert!(report.schedules > 1);
    let y = hybrid_spmv::verify::assemble_y(&report.terminal_buffers, &layout);
    let mut y_ref = vec![0.0; 18];
    m.spmv(&x, &mut y_ref);
    assert!(vecops::max_abs_diff(&y, &y_ref) < 1e-12);
}
