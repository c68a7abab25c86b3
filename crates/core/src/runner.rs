//! SPMD job harness: one OS thread per MPI rank.
//!
//! [`run_spmd`] is the generic entry point: it partitions the matrix,
//! creates a communication world, spawns one thread per rank, builds a
//! [`RankEngine`] on each, runs the user's SPMD function, and returns the
//! per-rank results in rank order. [`distributed_spmv`] is the one-shot
//! convenience built on top of it.

use crate::engine::{EngineConfig, RankEngine};
use crate::modes::KernelMode;
use crate::partition::RowPartition;
use spmv_comm::{Comm, CommWorld};
use spmv_matrix::CsrMatrix;

/// Creates the communication world for a job, attaching the rank → node map
/// implied by the configured strategy so traffic statistics classify
/// intra- vs inter-node messages correctly.
pub fn create_world(ranks: usize, cfg: &EngineConfig) -> Vec<Comm> {
    match cfg.comm_strategy.rank_node_map(ranks) {
        None => CommWorld::create(ranks),
        Some(map) => CommWorld::create_with_nodes((0..ranks).map(|r| map.node_of(r)).collect()),
    }
}

/// Runs `f` as an SPMD program: one thread per rank, each with its own
/// [`RankEngine`] over a nonzero-balanced row partition of `matrix`.
/// Returns the per-rank results in rank order.
///
/// # Panics
/// Propagates panics from rank threads.
pub fn run_spmd<F, R>(matrix: &CsrMatrix, ranks: usize, cfg: EngineConfig, f: F) -> Vec<R>
where
    F: Fn(&mut RankEngine) -> R + Send + Sync,
    R: Send,
{
    run_spmd_with_partition(matrix, &RowPartition::by_nnz(matrix, ranks), cfg, f)
}

/// [`run_spmd`] on a pre-built communication world — the entry point for
/// fault-injection runs, where the world carries a `FaultPlan` or watchdog
/// attached via [`spmv_comm::WorldBuilder`]. `comms` must hold one handle
/// per partition part, in rank order.
///
/// # Panics
/// Propagates panics from rank threads (including infallible-API panics
/// triggered by injected faults; use the engine's `*_checked` methods in
/// `f` to observe faults as values instead).
pub fn run_spmd_on_world<F, R>(
    comms: Vec<Comm>,
    matrix: &CsrMatrix,
    partition: &RowPartition,
    cfg: EngineConfig,
    f: F,
) -> Vec<R>
where
    F: Fn(&mut RankEngine) -> R + Send + Sync,
    R: Send,
{
    assert_eq!(
        matrix.nrows(),
        partition.nrows(),
        "partition must cover the matrix"
    );
    assert_eq!(
        comms.len(),
        partition.parts(),
        "world size must match the partition"
    );
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                scope.spawn(move || {
                    let block = matrix.row_block(partition.range(comm.rank()));
                    let mut engine = RankEngine::new(comm, &block, partition, cfg);
                    f(&mut engine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

/// [`run_spmd`] with an explicit partition.
pub fn run_spmd_with_partition<F, R>(
    matrix: &CsrMatrix,
    partition: &RowPartition,
    cfg: EngineConfig,
    f: F,
) -> Vec<R>
where
    F: Fn(&mut RankEngine) -> R + Send + Sync,
    R: Send,
{
    let comms = create_world(partition.parts(), &cfg);
    run_spmd_on_world(comms, matrix, partition, cfg, f)
}

/// One-shot distributed SpMV: computes `y = A x` with `ranks` MPI ranks in
/// the given mode and threading configuration, and assembles the global
/// result vector.
pub fn distributed_spmv(
    matrix: &CsrMatrix,
    x: &[f64],
    ranks: usize,
    cfg: EngineConfig,
    mode: KernelMode,
) -> Vec<f64> {
    assert_eq!(x.len(), matrix.ncols(), "x must match the matrix");
    let pieces = run_spmd(matrix, ranks, cfg, |eng| {
        let range = eng.row_start()..eng.row_start() + eng.local_len();
        eng.x_local_mut().copy_from_slice(&x[range]);
        eng.spmv_checked(mode)
            .expect("a world built here carries no fault plan");
        (eng.row_start(), eng.y_local().to_vec())
    });
    let mut y = vec![0.0; matrix.nrows()];
    for (start, part) in pieces {
        y[start..start + part.len()].copy_from_slice(&part);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CommStrategy;
    use spmv_matrix::{synthetic, vecops};

    #[test]
    fn distributed_spmv_all_modes_and_layouts() {
        let m = synthetic::random_banded_symmetric(300, 25, 6.0, 42);
        let x = vecops::random_vec(300, 11);
        let mut y_ref = vec![0.0; 300];
        m.spmv(&x, &mut y_ref);
        for ranks in [1, 2, 5] {
            for mode in KernelMode::ALL {
                let cfg = if mode.needs_comm_thread() {
                    EngineConfig::task_mode(2)
                } else {
                    EngineConfig::hybrid(2)
                };
                let y = distributed_spmv(&m, &x, ranks, cfg, mode);
                let err = vecops::max_abs_diff(&y, &y_ref);
                assert!(err < 1e-11, "{mode} with {ranks} ranks: err {err}");
            }
        }
    }

    #[test]
    fn distributed_spmv_node_aware_matches_reference() {
        let m = synthetic::random_banded_symmetric(300, 25, 6.0, 42);
        let x = vecops::random_vec(300, 11);
        let mut y_ref = vec![0.0; 300];
        m.spmv(&x, &mut y_ref);
        for rpn in [2, 4] {
            let cfg = EngineConfig::task_mode(2).with_comm_strategy(CommStrategy::NodeAware {
                ranks_per_node: rpn,
            });
            for mode in KernelMode::ALL {
                let y = distributed_spmv(&m, &x, 6, cfg, mode);
                let err = vecops::max_abs_diff(&y, &y_ref);
                assert!(err < 1e-11, "{mode} node-aware rpn={rpn}: err {err}");
            }
        }
    }

    #[test]
    fn run_spmd_returns_rank_ordered_results() {
        let m = synthetic::tridiagonal(64, 2.0, -1.0);
        let out = run_spmd(&m, 4, EngineConfig::pure_mpi(), |eng| eng.comm().rank());
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn run_spmd_with_row_partition() {
        let m = synthetic::tridiagonal(60, 2.0, -1.0);
        let p = RowPartition::by_rows(60, 3);
        let lens = run_spmd_with_partition(&m, &p, EngineConfig::pure_mpi(), |eng| eng.local_len());
        assert_eq!(lens, vec![20, 20, 20]);
    }

    #[test]
    fn spmd_function_can_use_collectives() {
        let m = synthetic::tridiagonal(32, 2.0, -1.0);
        let sums = run_spmd(&m, 4, EngineConfig::pure_mpi(), |eng| {
            eng.comm().allreduce_scalar(
                eng.local_len() as f64,
                spmv_comm::collectives::ReduceOp::Sum,
            )
        });
        assert!(sums.iter().all(|&s| s == 32.0));
    }

    #[test]
    #[should_panic(expected = "x must match")]
    fn wrong_x_length_rejected() {
        let m = synthetic::tridiagonal(10, 2.0, -1.0);
        let _ = distributed_spmv(
            &m,
            &[1.0; 5],
            2,
            EngineConfig::pure_mpi(),
            KernelMode::VectorNoOverlap,
        );
    }
}
