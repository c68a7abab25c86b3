//! Stress tests for the concurrency substrates: message storms over the
//! comm layer, rapid-fire team regions, and mixed workloads that chase
//! ordering bugs, lost wakeups and deadlocks. These run with real threads
//! and nondeterministic interleavings — the kind of coverage unit tests of
//! happy paths cannot give.

use hybrid_spmv::prelude::*;
use spmv_comm::collectives::ReduceOp;
use spmv_matrix::rng::Rng64;
use spmv_smp::ThreadTeam;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every rank sends a randomized burst of messages to random peers with
/// random tags, then receives exactly what was addressed to it. Checksums
/// must match despite arbitrary interleaving.
#[test]
fn p2p_message_storm_conserves_checksums() {
    const RANKS: usize = 6;
    const MSGS_PER_RANK: usize = 200;

    // Pre-plan the storm deterministically so every rank knows what to
    // expect from whom (tags partition the traffic per sender).
    let mut rng = Rng64::new(99);
    // plan[src][k] = (dst, len)
    let plan: Vec<Vec<(usize, usize)>> = (0..RANKS)
        .map(|_| {
            (0..MSGS_PER_RANK)
                .map(|_| (rng.gen_index(RANKS), rng.gen_range(1, 64)))
                .collect()
        })
        .collect();
    let plan = std::sync::Arc::new(plan);

    let comms = CommWorld::create(RANKS);
    let total_sent = std::sync::Arc::new(AtomicU64::new(0));
    let total_recv = std::sync::Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = comms
        .into_iter()
        .map(|c| {
            let plan = std::sync::Arc::clone(&plan);
            let ts = std::sync::Arc::clone(&total_sent);
            let tr = std::sync::Arc::clone(&total_recv);
            std::thread::spawn(move || {
                let me = c.rank();
                // send my burst: tag = my rank (receivers match by source
                // anyway; per-(src,tag) FIFO keeps order within the pair)
                for (k, &(dst, len)) in plan[me].iter().enumerate() {
                    let payload: Vec<f64> = (0..len).map(|j| (me * 1000 + k + j) as f64).collect();
                    let sum: f64 = payload.iter().sum();
                    ts.fetch_add(sum as u64, Ordering::Relaxed);
                    // eager send: completes at post time, fire-and-forget
                    c.send(dst, me as u32, &payload)
                        .expect("fault-free world: eager sends cannot fail");
                }
                // receive everything addressed to me, in per-sender order
                for src in 0..RANKS {
                    for (k, &(dst, len)) in plan[src].iter().enumerate() {
                        if dst != me {
                            continue;
                        }
                        let data: Vec<f64> = c
                            .recv_vec(src, src as u32)
                            .expect("fault-free world: every planned message arrives");
                        assert_eq!(data.len(), len, "length from {src} msg {k}");
                        let expect: f64 = (0..len).map(|j| (src * 1000 + k + j) as f64).sum();
                        let got: f64 = data.iter().sum();
                        assert_eq!(got, expect, "checksum from {src} msg {k}");
                        tr.fetch_add(got as u64, Ordering::Relaxed);
                    }
                }
                c.barrier();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("storm rank panicked");
    }
    assert_eq!(
        total_sent.load(Ordering::SeqCst),
        total_recv.load(Ordering::SeqCst)
    );
}

/// Interleaves collectives of different kinds for many rounds — mismatched
/// or leaky internal tags would corrupt later rounds.
#[test]
fn collective_marathon() {
    const RANKS: usize = 5;
    let comms = CommWorld::create(RANKS);
    let handles: Vec<_> = comms
        .into_iter()
        .map(|c| {
            std::thread::spawn(move || {
                for round in 0..60u64 {
                    match round % 5 {
                        0 => {
                            let s = c.allreduce_scalar(c.rank() as f64, ReduceOp::Sum);
                            assert_eq!(s, (RANKS * (RANKS - 1) / 2) as f64);
                        }
                        1 => {
                            let mut v = vec![round as f64 + c.rank() as f64];
                            c.bcast(round as usize % RANKS, &mut v);
                            assert_eq!(v[0], round as f64 + (round as usize % RANKS) as f64);
                        }
                        2 => {
                            let all = c.allgatherv(&[c.rank() as u64, round]);
                            for (src, d) in all.iter().enumerate() {
                                assert_eq!(d, &vec![src as u64, round]);
                            }
                        }
                        3 => {
                            let out: Vec<Vec<u32>> = (0..RANKS)
                                .map(|d| vec![(c.rank() * 100 + d) as u32])
                                .collect();
                            let inc = c.alltoallv(&out);
                            for (s, d) in inc.iter().enumerate() {
                                assert_eq!(d[0], (s * 100 + c.rank()) as u32);
                            }
                        }
                        _ => {
                            let top = c.allreduce_scalar(c.rank() as f64, ReduceOp::Max);
                            assert_eq!(top, (RANKS - 1) as f64);
                            c.barrier();
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("marathon rank panicked");
    }
}

/// Thousands of tiny team regions with intermixed barriers: lost-wakeup and
/// generation-counting bugs in the barrier/team plumbing show up here.
#[test]
fn team_region_churn() {
    let team = ThreadTeam::new(5);
    let counter = AtomicU64::new(0);
    for round in 0..2000u64 {
        team.run(|ctx| {
            counter.fetch_add(1, Ordering::Relaxed);
            if round % 7 == 0 {
                ctx.barrier();
                counter.fetch_add(1, Ordering::Relaxed);
                ctx.barrier();
            }
        });
    }
    let expected = 2000 * 5 + (2000u64.div_ceil(7)) * 5;
    assert_eq!(counter.load(Ordering::SeqCst), expected);
}

/// Runs many small distributed SpMV jobs back to back, alternating modes
/// and rank counts — engine construction/teardown under churn (thread
/// leaks or tag leaks across worlds would eventually fail or hang).
#[test]
fn engine_churn_across_worlds() {
    let m = synthetic::random_banded_symmetric(400, 30, 6.0, 21);
    let x = vecops::random_vec(400, 2);
    let mut y_ref = vec![0.0; 400];
    m.spmv(&x, &mut y_ref);
    for round in 0..12 {
        let ranks = 1 + round % 5;
        let mode = KernelMode::ALL[round % 3];
        let cfg = if mode.needs_comm_thread() {
            EngineConfig::task_mode(1 + round % 3)
        } else {
            EngineConfig::hybrid(1 + round % 3)
        };
        let y = distributed_spmv(&m, &x, ranks, cfg, mode);
        assert!(
            vecops::rel_error(&y, &y_ref) < 1e-10,
            "round {round}: {mode} x {ranks} ranks"
        );
    }
}

/// One engine, many alternating-mode SpMVs: internal buffers and pending
/// message queues must stay consistent across mode switches.
#[test]
fn mode_switching_on_live_engines() {
    let m = synthetic::scattered(600, 10, 4);
    let x = vecops::random_vec(600, 5);
    let mut y_ref = vec![0.0; 600];
    m.spmv(&x, &mut y_ref);
    let results = run_spmd(&m, 4, EngineConfig::task_mode(2), |eng| {
        let lo = eng.row_start();
        let n = eng.local_len();
        eng.x_local_mut().copy_from_slice(&x[lo..lo + n]);
        let mut errs = Vec::new();
        for round in 0..15 {
            let mode = KernelMode::ALL[round % 3];
            eng.spmv_checked(mode).expect("fault-free world");
            let err: f64 = eng
                .y_local()
                .iter()
                .zip(&y_ref[lo..lo + n])
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            errs.push(err);
        }
        errs.into_iter().fold(0.0, f64::max)
    });
    for err in results {
        assert!(err < 1e-10, "mode switching corrupted state: {err}");
    }
}
