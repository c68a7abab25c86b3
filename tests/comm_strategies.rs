//! Flat vs node-aware halo exchange: the two strategies route the same
//! values differently, so they must agree *bitwise* — every rank's halo and
//! every SpMV result identical to the last ULP — across random matrices,
//! rank counts, and (ragged) node sizes. On the paper's matrices the
//! node-aware router must also earn its keep: strictly fewer inter-node
//! messages than flat at equal inter-node payload (the ISSUE's acceptance
//! criterion, measured by `CommStats` on an sAMG run with 4 ranks/node).
//!
//! Both sides of every comparison pin their strategy explicitly, so the
//! `SPMV_COMM_STRATEGY` override used by the CI matrix cannot collapse a
//! comparison onto one code path.

use hybrid_spmv::prelude::*;
use spmv_comm::CommStats;
use spmv_machine::RankNodeMap;
use spmv_matrix::rng::Rng64;

const CASES: u64 = 24;

fn node_aware(ranks_per_node: usize) -> EngineConfig {
    EngineConfig::pure_mpi().with_comm_strategy(CommStrategy::NodeAware { ranks_per_node })
}

fn flat() -> EngineConfig {
    EngineConfig::pure_mpi().with_comm_strategy(CommStrategy::Flat)
}

/// Every rank's received halo under `cfg`, as raw bit patterns, in rank
/// order. The input vector is the same deterministic `random_vec` for every
/// strategy, scattered to the owning ranks.
fn halo_bits(m: &CsrMatrix, ranks: usize, cfg: EngineConfig) -> Vec<(usize, Vec<u64>)> {
    let x = vecops::random_vec(m.nrows(), 4242);
    let x = &x;
    let mut per_rank = run_spmd(m, ranks, cfg, |eng| {
        let start = eng.plan().row_start;
        let len = eng.x_local().len();
        eng.x_local_mut().copy_from_slice(&x[start..start + len]);
        eng.halo_exchange_checked().expect("fault-free world");
        (
            eng.comm().rank(),
            eng.halo().iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
        )
    });
    per_rank.sort_by_key(|(r, _)| *r);
    per_rank
}

#[test]
fn halos_bit_identical_across_random_matrices_and_node_shapes() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xD000 + case);
        let m = match case % 4 {
            0 => synthetic::random_banded_symmetric(
                40 + rng.gen_index(200),
                5 + rng.gen_index(60),
                5.0,
                case,
            ),
            1 => synthetic::power_law_rows(60 + rng.gen_index(300), 8.0, 1.2, case),
            2 => synthetic::laplacian_2d(4 + rng.gen_index(12), 4 + rng.gen_index(12)),
            _ => synthetic::scattered(30 + rng.gen_index(150), 6, case),
        };
        let ranks = 2 + rng.gen_index(7).min(m.nrows() - 1);
        // ragged node sizes included: rpn need not divide the rank count
        let rpn = 1 + rng.gen_index(ranks);
        let reference = halo_bits(&m, ranks, flat());
        let aggregated = halo_bits(&m, ranks, node_aware(rpn));
        assert_eq!(
            reference,
            aggregated,
            "case {case}: {ranks} ranks, {rpn}/node, n {}",
            m.nrows()
        );
    }
}

#[test]
fn paper_matrices_spmv_bit_identical_all_modes() {
    let hmep = holstein::hamiltonian(&HolsteinParams::test_scale(
        HolsteinOrdering::ElectronContiguous,
    ));
    let samg_m = samg::poisson(&SamgParams::test_scale());
    for m in [&hmep, &samg_m] {
        let x = vecops::random_vec(m.nrows(), 7);
        for mode in KernelMode::ALL {
            for rpn in [3, 4] {
                let base = if mode.needs_comm_thread() {
                    EngineConfig::task_mode(2)
                } else {
                    EngineConfig::hybrid(2)
                };
                let y_flat =
                    distributed_spmv(m, &x, 12, base.with_comm_strategy(CommStrategy::Flat), mode);
                let y_na = distributed_spmv(
                    m,
                    &x,
                    12,
                    base.with_comm_strategy(CommStrategy::NodeAware {
                        ranks_per_node: rpn,
                    }),
                    mode,
                );
                let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
                assert_eq!(
                    bits(&y_flat),
                    bits(&y_na),
                    "{mode} with {rpn} ranks/node must be bit-identical"
                );
            }
        }
    }
}

/// Rank 0's view of the world-global message counters for one halo
/// exchange. Both snapshots sit between message-free barriers so no rank
/// races traffic into the delta.
fn one_exchange_stats(m: &CsrMatrix, ranks: usize, rpn: usize, cfg: EngineConfig) -> CommStats {
    let partition = RowPartition::by_nnz(m, ranks);
    let map = RankNodeMap::contiguous(ranks, rpn);
    let comms = CommWorld::create_with_nodes((0..ranks).map(|r| map.node_of(r)).collect());
    std::thread::scope(|scope| {
        let partition = &partition;
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                scope.spawn(move || {
                    let block = m.row_block(partition.range(c.rank()));
                    let mut eng = RankEngine::new(c, &block, partition, cfg);
                    eng.comm().barrier(); // plan-construction traffic done
                    let base = eng.comm().stats().snapshot();
                    eng.comm().barrier(); // all baselines taken
                    eng.halo_exchange_checked().expect("fault-free world");
                    eng.comm().barrier(); // all exchange traffic recorded
                    (
                        eng.comm().rank(),
                        eng.comm().stats().snapshot().since(&base),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .find(|(r, _)| *r == 0)
            .expect("rank 0 ran")
            .1
    })
}

/// The ISSUE's acceptance run: sAMG at 32 ranks, 4 per node — small enough
/// row blocks that each halo spans several ranks of a neighbouring node —
/// must see node-aware beat flat on inter-node message count at *equal*
/// inter-node payload, with bit-identical results (covered above and by the
/// halo fuzz; re-checked here on the exact acceptance geometry).
#[test]
fn samg_node_aware_reduces_inter_node_messages() {
    let m = samg::poisson(&SamgParams::test_scale());
    let (ranks, rpn) = (32, 4);
    let fl = one_exchange_stats(&m, ranks, rpn, flat());
    let na = one_exchange_stats(&m, ranks, rpn, node_aware(rpn));
    assert!(
        na.inter_messages < fl.inter_messages,
        "node-aware {} vs flat {} inter-node messages",
        na.inter_messages,
        fl.inter_messages
    );
    assert_eq!(
        na.inter_bytes, fl.inter_bytes,
        "aggregation must not duplicate inter-node payload"
    );
    let reference = halo_bits(&m, ranks, flat());
    let aggregated = halo_bits(&m, ranks, node_aware(rpn));
    assert_eq!(reference, aggregated, "acceptance halos must be bit-equal");
}
