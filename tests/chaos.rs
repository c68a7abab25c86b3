//! Chaos suite: seeded fault plans driven through the full distributed
//! SpMV and solver stack.
//!
//! The injector's contract is that every *recoverable* message fault
//! (delay, reorder, duplicate, drop-with-retransmit) is hidden by the
//! receiver's sequence-number reassembly — so a chaos run must produce a
//! **bit-identical** result to a fault-free run of the same configuration.
//! Rank-health faults (stall, kill, poll-failure) must surface as typed
//! errors or checkpoint rollbacks, never as hangs.
//!
//! Every plan is seeded: per-message decisions are a pure function of
//! `(seed, src, dst, tag, seq)`, so these tests are deterministic — a
//! pass cannot be a lucky timing accident and fault counters are asserted
//! to prove faults actually fired.

use spmv_comm::{CommError, CommWorld, FaultPlan};
use spmv_core::{
    run_spmd_on_world, CommStrategy, DegradedPolicy, EngineConfig, KernelMode, RowPartition,
};
use spmv_matrix::{synthetic, vecops, CsrMatrix};
use spmv_solvers::lanczos::LanczosOptions;
use spmv_solvers::{cg_solve_checkpointed, lanczos_checkpointed, DistOp, DistOps};
use std::time::Duration;

const RANKS: usize = 6;
const RPN: usize = 2;

fn test_matrix() -> CsrMatrix {
    synthetic::random_banded_symmetric(180, 7, 4.0, 11)
}

fn node_map() -> Vec<usize> {
    (0..RANKS).map(|r| r / RPN).collect()
}

fn cfg_for(mode: KernelMode, strategy: CommStrategy) -> EngineConfig {
    let base = if mode.needs_comm_thread() {
        EngineConfig::task_mode(2)
    } else {
        EngineConfig::pure_mpi()
    };
    base.with_comm_strategy(strategy)
}

/// Runs `iters` SpMV sweeps of `mode` on the given world and returns each
/// rank's final local result plus the world fault counters.
fn run_sweeps(
    comms: Vec<spmv_comm::Comm>,
    m: &CsrMatrix,
    partition: &RowPartition,
    cfg: EngineConfig,
    mode: KernelMode,
    iters: usize,
) -> Vec<(Vec<f64>, u64)> {
    run_spmd_on_world(comms, m, partition, cfg, |eng| {
        let lo = eng.row_start();
        for (i, v) in eng.x_local_mut().iter_mut().enumerate() {
            *v = ((lo + i) as f64).sin() + 1.5;
        }
        for _ in 0..iters {
            eng.spmv_checked(mode)
                .expect("recoverable faults are hidden by the transport");
        }
        let faults = eng.comm().fault_stats().map_or(0, |s| s.total());
        (eng.y_local().to_vec(), faults)
    })
}

/// Tentpole acceptance: recoverable message chaos is bit-identically
/// invisible across all three kernel modes and both comm strategies.
#[test]
fn recoverable_faults_are_bit_identically_invisible() {
    let m = test_matrix();
    let partition = RowPartition::by_nnz(&m, RANKS);
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("delay", FaultPlan::new(101).delay(0.3, 1)),
        ("reorder", FaultPlan::new(202).reorder(0.4)),
        ("duplicate", FaultPlan::new(303).duplicate(0.4)),
        ("drop", FaultPlan::new(404).drop_with_retransmit(0.3, 1)),
        (
            "combined",
            FaultPlan::new(505)
                .delay(0.1, 1)
                .reorder(0.2)
                .duplicate(0.1)
                .drop_with_retransmit(0.1, 1),
        ),
    ];
    let strategies = [
        CommStrategy::Flat,
        CommStrategy::NodeAware {
            ranks_per_node: RPN,
        },
    ];

    for strategy in strategies {
        for mode in KernelMode::ALL {
            let cfg = cfg_for(mode, strategy);
            // the fault-free reference for this exact configuration:
            // same strategy and mode, so the summation order matches
            let reference = run_sweeps(
                CommWorld::create_with_nodes(node_map()),
                &m,
                &partition,
                cfg,
                mode,
                3,
            );
            for (name, plan) in &plans {
                let comms = CommWorld::builder(RANKS)
                    .node_map(node_map())
                    .faults(plan.clone())
                    .build();
                let chaos = run_sweeps(comms, &m, &partition, cfg, mode, 3);
                let fired: u64 = chaos.iter().map(|r| r.1).max().unwrap();
                assert!(
                    fired > 0,
                    "{name} under {strategy:?}/{mode:?}: no faults fired — \
                     the chaos run tested nothing"
                );
                for (rank, (r, c)) in reference.iter().zip(&chaos).enumerate() {
                    let same = r.0.len() == c.0.len()
                        && r.0
                            .iter()
                            .zip(&c.0)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "{name} under {strategy:?}/{mode:?}: rank {rank} result \
                         differs from the fault-free run"
                    );
                }
            }
        }
    }
}

/// Every schedule under both strategies, as the chaos cases iterate it.
fn all_schedules() -> impl Iterator<Item = (KernelMode, CommStrategy)> {
    let strategies = [
        CommStrategy::Flat,
        CommStrategy::NodeAware {
            ranks_per_node: RPN,
        },
    ];
    strategies
        .into_iter()
        .flat_map(|s| KernelMode::ALL.into_iter().map(move |m| (m, s)))
}

/// Runs SpMVs until the first error (at most 1000) on every rank. Rank
/// faults below fire after 100 operations: past engine construction (whose
/// collectives are infallible) under every strategy, inside the SpMV loop.
fn first_errors(
    comms: Vec<spmv_comm::Comm>,
    m: &CsrMatrix,
    partition: &RowPartition,
    mode: KernelMode,
    strategy: CommStrategy,
) -> Vec<Option<CommError>> {
    run_spmd_on_world(comms, m, partition, cfg_for(mode, strategy), |eng| {
        for (i, v) in eng.x_local_mut().iter_mut().enumerate() {
            *v = i as f64 * 0.01 + 1.0;
        }
        (0..1000).find_map(|_| eng.spmv_checked(mode).err())
    })
}

/// A stalled rank must produce a watchdog dump and typed errors on every
/// rank — not a hang — in every schedule: task mode's comm lane must
/// still reach B1/B2 on the fault and hand its error back.
#[test]
fn stall_triggers_watchdog_dump_not_hang() {
    let m = test_matrix();
    let partition = RowPartition::by_nnz(&m, RANKS);
    for (mode, strategy) in all_schedules() {
        let comms = CommWorld::builder(RANKS)
            .node_map(node_map())
            .faults(FaultPlan::new(7).stall_rank(2, 100))
            .watchdog(Duration::from_millis(100))
            .build();
        let errors = first_errors(comms, &m, &partition, mode, strategy);
        // every rank fails fast with a Poisoned error carrying the dump
        for (rank, err) in errors.into_iter().enumerate() {
            let case = format!("{mode:?}/{strategy:?}: rank {rank}");
            match err {
                Some(CommError::Poisoned { report }) => {
                    assert!(report.blocked_ranks() >= 1, "{case}");
                    let text = report.to_string();
                    assert!(
                        text.contains("rank"),
                        "{case}: dump should list per-rank pending ops: {text}"
                    );
                }
                other => panic!("{case}: expected Poisoned, got {other:?}"),
            }
        }
    }
}

/// A killed rank surfaces as `PeerDead` on itself and its partners and the
/// watchdog converts any secondary stall into `Poisoned` — never a hang —
/// in every schedule.
#[test]
fn killed_rank_fails_fast_with_typed_errors() {
    let m = synthetic::random_banded_symmetric(60, 9, 4.0, 3);
    let ranks = 3; // band 9 over 20-row blocks: every rank talks to rank 1
    let partition = RowPartition::by_nnz(&m, ranks);
    for (mode, strategy) in all_schedules() {
        let comms = CommWorld::builder(ranks)
            .faults(FaultPlan::new(9).kill_rank(1, 100))
            .watchdog(Duration::from_millis(100))
            .build();
        let errors = first_errors(comms, &m, &partition, mode, strategy);
        for (rank, err) in errors.into_iter().enumerate() {
            match err {
                Some(CommError::PeerDead { .. }) | Some(CommError::Poisoned { .. }) => {}
                other => panic!(
                    "{mode:?}/{strategy:?}: rank {rank}: expected PeerDead or Poisoned, got {other:?}"
                ),
            }
        }
    }
}

/// Truncation is NOT recoverable: the receiver must see a typed
/// `Truncated` error naming the expected and received sizes.
#[test]
fn truncated_message_is_detected() {
    let comms = CommWorld::builder(2)
        .faults(FaultPlan::new(21).truncate(1.0))
        .build();
    let handles: Vec<_> = comms
        .into_iter()
        .map(|c| {
            std::thread::spawn(move || {
                if c.rank() == 0 {
                    c.send(1, 4, &[1.0f64; 8]).unwrap();
                } else {
                    let mut buf = [0.0f64; 8];
                    let err = c.recv(0, 4, &mut buf).unwrap_err();
                    match err {
                        CommError::Truncated { expected, got, .. } => {
                            assert_eq!(expected, 64);
                            assert!(got < 64);
                        }
                        other => panic!("expected Truncated, got {other}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// Distributed CG rides through an injected rank failure via
/// checkpoint/restart and recovers the *bit-identical* trajectory.
#[test]
fn distributed_cg_checkpoint_restart_recovers_bit_identically() {
    let m = test_matrix();
    let n = m.nrows();
    let partition = RowPartition::by_nnz(&m, RANKS);
    let b = vecops::random_vec(n, 44);
    let cfg = cfg_for(KernelMode::VectorNoOverlap, CommStrategy::Flat);

    let solve = |comms: Vec<spmv_comm::Comm>| {
        run_spmd_on_world(comms, &m, &partition, cfg, |eng| {
            let lo = eng.row_start();
            let len = eng.local_len();
            let b_local = b[lo..lo + len].to_vec();
            let mut x_local = vec![0.0; len];
            let comm = eng.comm().clone();
            let ops = DistOps { comm: &comm };
            let mut op = DistOp::new(eng, KernelMode::VectorNoOverlap);
            let (r, restarts) =
                cg_solve_checkpointed(&mut op, &ops, &b_local, &mut x_local, 1e-10, 400, 5, || {
                    comm.poll_failure()
                });
            assert!(r.converged, "CG must converge");
            (x_local, r.iterations, restarts)
        })
    };

    let clean = solve(CommWorld::create(RANKS));
    let faulty = solve(
        CommWorld::builder(RANKS)
            .faults(FaultPlan::new(33).fail_rank_at_poll(2, 7))
            .build(),
    );

    for (rank, (c, f)) in clean.iter().zip(&faulty).enumerate() {
        assert!(f.2 >= 1, "rank {rank}: the injected failure never fired");
        assert_eq!(c.1, f.1, "rank {rank}: iteration counts differ");
        assert!(
            c.0.iter()
                .zip(&f.0)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "rank {rank}: recovered solution is not bit-identical"
        );
    }
}

/// Distributed Lanczos recovers its recurrence bit-identically after an
/// injected failure.
#[test]
fn distributed_lanczos_checkpoint_restart_recovers_bit_identically() {
    let m = test_matrix();
    let n = m.nrows();
    let partition = RowPartition::by_nnz(&m, RANKS);
    let v0 = vecops::random_vec(n, 17);
    let cfg = cfg_for(KernelMode::VectorNoOverlap, CommStrategy::Flat);
    let opts = LanczosOptions {
        max_steps: 30,
        ..LanczosOptions::default()
    };

    let solve = |comms: Vec<spmv_comm::Comm>| {
        run_spmd_on_world(comms, &m, &partition, cfg, |eng| {
            let lo = eng.row_start();
            let len = eng.local_len();
            let v_local = v0[lo..lo + len].to_vec();
            let comm = eng.comm().clone();
            let ops = DistOps { comm: &comm };
            let mut op = DistOp::new(eng, KernelMode::VectorNoOverlap);
            let (r, restarts) =
                lanczos_checkpointed(&mut op, &ops, &v_local, opts, 5, || comm.poll_failure());
            (r, restarts)
        })
    };

    let clean = solve(CommWorld::create(RANKS));
    let faulty = solve(
        CommWorld::builder(RANKS)
            .faults(FaultPlan::new(55).fail_rank_at_poll(4, 12))
            .build(),
    );

    for (rank, (c, f)) in clean.iter().zip(&faulty).enumerate() {
        assert!(f.1 >= 1, "rank {rank}: the injected failure never fired");
        assert_eq!(
            c.0.alphas.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
            f.0.alphas.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
            "rank {rank}: recovered alphas differ"
        );
        assert_eq!(
            c.0.eigenvalue_min.to_bits(),
            f.0.eigenvalue_min.to_bits(),
            "rank {rank}: recovered extremal eigenvalue differs"
        );
    }
}

/// A dead leader rank under `FallbackToFlat` demotes the whole job to the
/// flat strategy at construction — bit-identical to a flat fault-free run.
#[test]
fn degraded_leader_falls_back_to_flat_end_to_end() {
    let m = test_matrix();
    let partition = RowPartition::by_nnz(&m, RANKS);
    let na = CommStrategy::NodeAware {
        ranks_per_node: RPN,
    };
    let mode = KernelMode::VectorNoOverlap;

    // leader of node 1 (rank 2 under the r/2 map) is marked degraded
    let build = || {
        CommWorld::builder(RANKS)
            .node_map(node_map())
            .faults(FaultPlan::new(77).degrade_leader(2))
            .build()
    };

    let fallback_cfg = cfg_for(mode, na).with_degraded_policy(DegradedPolicy::FallbackToFlat);
    let result = run_sweeps(build(), &m, &partition, fallback_cfg, mode, 2);
    let flat_ref = run_sweeps(
        CommWorld::create_with_nodes(node_map()),
        &m,
        &partition,
        cfg_for(mode, CommStrategy::Flat),
        mode,
        2,
    );
    for (rank, (r, f)) in result.iter().zip(&flat_ref).enumerate() {
        assert!(
            r.0.iter()
                .zip(&f.0)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "rank {rank}: fallback result must equal the flat strategy's"
        );
    }

    // Strict policy keeps the node-aware plan in place
    let strict = run_spmd_on_world(
        build(),
        &m,
        &partition,
        cfg_for(mode, na).with_degraded_policy(DegradedPolicy::Strict),
        |eng| eng.active_strategy(),
    );
    assert!(strict.iter().all(|s| *s == na));
}
