//! Measured-time tracing suite: the observability layer driven through the
//! full distributed SpMV stack.
//!
//! The layer's contract has three sides. **Zero-cost when off**: an engine
//! without a recorder must produce bit-identical results to a traced one —
//! tracing can never perturb the arithmetic. **Faithful when on**: the
//! per-thread recorders must capture every phase of every kernel mode, and
//! the derived overlap-efficiency metric must reproduce the paper's
//! central claim — task mode hides communication behind compute, vector
//! modes cannot (standard MPI progresses only inside calls). **Typed chaos
//! visibility**: injected faults and their delays must appear in the trace
//! as first-class events, not vanish into anonymous waitall time.

use spmv_comm::{CommWorld, FaultPlan};
use spmv_core::{run_spmd_on_world, CommStrategy, EngineConfig, KernelMode, RowPartition};
use spmv_matrix::{synthetic, CsrMatrix};
use spmv_obs::{
    chrome_trace_json, text_timeline, validate_json, Phase, RankTrace, RunTrace, SpanEvent,
    FAULT_LANE,
};
use spmv_solvers::lanczos::LanczosOptions;
use spmv_solvers::{cg_solve_checkpointed, lanczos_checkpointed, DistOp, DistOps, LinOp};
use std::collections::BTreeSet;

const RANKS: usize = 4;

fn test_matrix() -> CsrMatrix {
    synthetic::random_banded_symmetric(240, 9, 4.0, 5)
}

fn cfg_for(mode: KernelMode) -> EngineConfig {
    if mode.needs_comm_thread() {
        EngineConfig::task_mode(2)
    } else {
        EngineConfig::hybrid(2)
    }
}

/// Runs `iters` SpMVs of `mode` on a fresh world (optionally with a fault
/// plan), tracing enabled, and returns the merged trace plus each rank's
/// result vector.
fn traced_sweeps(
    m: &CsrMatrix,
    mode: KernelMode,
    plan: Option<FaultPlan>,
    iters: usize,
) -> (RunTrace, Vec<Vec<f64>>) {
    traced_sweeps_with(m, mode, plan, iters, None)
}

/// Like [`traced_sweeps`], but pins the halo-exchange strategy instead of
/// honoring `SPMV_COMM_STRATEGY` — for assertions whose expectations are
/// strategy-specific.
fn traced_sweeps_with(
    m: &CsrMatrix,
    mode: KernelMode,
    plan: Option<FaultPlan>,
    iters: usize,
    strategy: Option<CommStrategy>,
) -> (RunTrace, Vec<Vec<f64>>) {
    let partition = RowPartition::by_nnz(m, RANKS);
    let mut builder = CommWorld::builder(RANKS);
    if let Some(p) = plan {
        builder = builder.faults(p);
    }
    let world = builder.build();
    let mut cfg = cfg_for(mode).with_tracing(true);
    if let Some(s) = strategy {
        cfg = cfg.with_comm_strategy(s);
    }
    let per_rank = run_spmd_on_world(world, m, &partition, cfg, |eng| {
        let lo = eng.row_start();
        for (i, v) in eng.x_local_mut().iter_mut().enumerate() {
            *v = ((lo + i) as f64).sin() + 1.5;
        }
        for _ in 0..iters {
            eng.spmv_checked(mode)
                .expect("delay faults are recoverable");
        }
        let trace = eng.take_trace().expect("tracing enabled");
        (trace, eng.y_local().to_vec())
    });
    let (traces, ys): (Vec<RankTrace>, Vec<Vec<f64>>) = per_rank.into_iter().unzip();
    (RunTrace::from_ranks(traces), ys)
}

/// Runs without a recorder and returns each rank's result vector.
fn untraced_sweeps(m: &CsrMatrix, mode: KernelMode, iters: usize) -> Vec<Vec<f64>> {
    let partition = RowPartition::by_nnz(m, RANKS);
    let world = CommWorld::builder(RANKS).build();
    let cfg = cfg_for(mode).with_tracing(false);
    run_spmd_on_world(world, m, &partition, cfg, |eng| {
        let lo = eng.row_start();
        for (i, v) in eng.x_local_mut().iter_mut().enumerate() {
            *v = ((lo + i) as f64).sin() + 1.5;
        }
        for _ in 0..iters {
            eng.spmv_checked(mode)
                .expect("delay faults are recoverable");
        }
        assert!(eng.trace_sink().is_none(), "recorder must not exist");
        eng.y_local().to_vec()
    })
}

/// Every message delayed: the exchange is communication-bound, so the
/// waitall window is milliseconds wide while the local SpMV stays in the
/// microseconds — the regime where overlap either pays or it doesn't.
fn comm_bound_plan() -> FaultPlan {
    FaultPlan::new(0xDE1A).delay(1.0, 4)
}

/// The paper's central claim, measured: the task-mode comm thread hides
/// (part of) the delayed waitall behind the compute threads' local SpMV,
/// while naive vector mode — one thread doing everything in program order
/// — hides exactly nothing.
#[test]
fn task_mode_overlap_strictly_beats_naive_vector_mode() {
    let m = test_matrix();
    let (naive, _) = traced_sweeps(
        &m,
        KernelMode::VectorNaiveOverlap,
        Some(comm_bound_plan()),
        3,
    );
    let (task, _) = traced_sweeps(&m, KernelMode::TaskMode, Some(comm_bound_plan()), 3);

    // the delay plan actually made the run comm-bound
    for rank in 0..RANKS {
        assert!(
            task.time_in(rank, Phase::Waitall) > 1e-3,
            "rank {rank}: delayed waitall must be milliseconds wide"
        );
    }

    let eff_naive = naive.mean_overlap_efficiency();
    let eff_task = task.mean_overlap_efficiency();
    assert!(
        eff_naive < 1e-9,
        "single-threaded vector mode cannot overlap (got {eff_naive})"
    );
    assert!(
        eff_task > eff_naive,
        "task mode must hide communication: task {eff_task} vs naive {eff_naive}"
    );
    assert!(
        eff_task > 0.0 && eff_task <= 1.0,
        "overlap efficiency is a ratio (got {eff_task})"
    );
}

/// Zero-cost contract: a recorder-free engine computes bit-identical
/// results to a traced one, in every kernel mode.
#[test]
fn disabled_recorder_is_bit_identical() {
    let m = test_matrix();
    for mode in KernelMode::ALL {
        let (_, traced) = traced_sweeps(&m, mode, None, 2);
        let untraced = untraced_sweeps(&m, mode, 2);
        for (rank, (a, b)) in traced.iter().zip(&untraced).enumerate() {
            assert_eq!(a.len(), b.len());
            for (i, (&ta, &ua)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    ta.to_bits(),
                    ua.to_bits(),
                    "{mode:?} rank {rank} y[{i}]: tracing perturbed the result"
                );
            }
        }
    }
}

/// Every kernel mode leaves exactly its schedule's phase vocabulary in the
/// trace — the phases of `mode.lanes()` — under both halo-exchange
/// strategies. The strategy is pinned per case because the CI
/// comm-strategy matrix sets `SPMV_COMM_STRATEGY=node-aware:<rpn>` for the
/// whole suite.
#[test]
fn all_modes_record_their_phases() {
    let m = test_matrix();
    for strategy in [
        CommStrategy::Flat,
        CommStrategy::NodeAware { ranks_per_node: 2 },
    ] {
        for mode in KernelMode::ALL {
            let (trace, _) = traced_sweeps_with(&m, mode, None, 2, Some(strategy));
            let present = trace.phase_labels();
            let expected: BTreeSet<&'static str> = mode
                .lanes()
                .iter()
                .flat_map(|lane| lane.iter().map(|s| s.phase().label()))
                .collect();
            assert_eq!(present, expected, "{mode:?} under {strategy:?}");
            assert_eq!(
                trace.dropped, 0,
                "{mode:?} under {strategy:?}: ring buffers overflowed"
            );
            assert!(trace.makespan() > 0.0);
        }
    }
}

/// Naive overlap and task mode run the same split kernels over the same
/// chunks, so their results agree bit for bit, under both strategies.
#[test]
fn split_kernel_modes_agree_bitwise() {
    let m = test_matrix();
    for strategy in [
        CommStrategy::Flat,
        CommStrategy::NodeAware { ranks_per_node: 2 },
    ] {
        let y = |mode| traced_sweeps_with(&m, mode, None, 2, Some(strategy)).1;
        let bits = |ys: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            ys.iter()
                .map(|y| y.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(
            bits(y(KernelMode::VectorNaiveOverlap)),
            bits(y(KernelMode::TaskMode)),
            "{strategy:?}"
        );
    }
}

/// Chaos visibility: a seeded delay plan surfaces as typed `fault(delay)`
/// events on the fault lane, stamped with the delayed bytes.
#[test]
fn injected_faults_appear_as_typed_trace_events() {
    let m = test_matrix();
    let (trace, _) = traced_sweeps(&m, KernelMode::TaskMode, Some(comm_bound_plan()), 3);
    let faults: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.phase == Phase::FaultDelay)
        .collect();
    assert!(
        !faults.is_empty(),
        "a delay-every-message plan must leave fault events in the trace"
    );
    for f in &faults {
        assert_eq!(f.lane, FAULT_LANE, "fault markers live on the fault lane");
        assert!(f.rank < RANKS);
    }
    // payload messages dominate the exchange: most fault events carry the
    // affected message size (barriers legitimately delay 0-byte messages)
    assert!(
        faults.iter().any(|f| f.bytes > 0),
        "halo payload delays must be stamped with their byte counts"
    );
    // fault events come from the sending rank's log: no duplicates when
    // rank traces merge
    let senders: std::collections::BTreeSet<usize> = faults.iter().map(|f| f.rank).collect();
    assert!(senders.len() > 1, "several ranks send, several ranks log");
}

/// The exporters produce valid, non-trivial documents from a real run.
#[test]
fn exporters_round_trip_a_measured_run() {
    let m = test_matrix();
    let (trace, _) = traced_sweeps(&m, KernelMode::TaskMode, None, 2);

    let chrome = chrome_trace_json(&trace);
    validate_json(&chrome).expect("chrome trace must be valid JSON");
    for want in [
        "\"traceEvents\"",
        "\"waitall\"",
        "\"spmv(local)\"",
        "\"pid\"",
    ] {
        assert!(chrome.contains(want), "chrome export lacks {want}");
    }

    let text = text_timeline(&trace, 0, 60);
    assert!(text.contains('w') && text.contains('L'), "{text}");
    assert!(text.ends_with("b=barrier\n"), "{text}");
}

/// A measured run's clock starts long before its first span; the text
/// timeline's axis starts at the rank's first span, not at the epoch.
#[test]
fn text_timeline_starts_at_the_ranks_first_span() {
    let (trace, _) = traced_sweeps(&test_matrix(), KernelMode::TaskMode, None, 2);
    let text = text_timeline(&trace, 0, 60);
    let column_0 = |row: &str| row.split_once('|').map(|(_, cells)| cells.as_bytes()[0]);
    assert!(
        text.lines().filter_map(column_0).any(|c| c != b' '),
        "no span starts in column 0:\n{text}"
    );
}

/// Task mode with two compute threads records on lanes 0..=2; the row of
/// lane 0, the communication thread, is labelled `comm`.
#[test]
fn text_timeline_labels_the_comm_lane_of_a_three_lane_trace() {
    let (trace, _) = traced_sweeps(&test_matrix(), KernelMode::TaskMode, None, 2);
    let lanes: BTreeSet<usize> = trace.rank_events(0).map(|e| e.lane).collect();
    assert_eq!(lanes, BTreeSet::from([0, 1, 2]));
    let text = text_timeline(&trace, 0, 60);
    let labels: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("rank 0 "))
        .map(|l| l.split_whitespace().next().unwrap_or(""))
        .collect();
    assert_eq!(labels, ["comm", "compute", "compute"], "{text}");
}

/// Under the delay plan rank 0 also holds fault markers on `FAULT_LANE`;
/// the timeline gets one row per occupied lane and the legend, not a row
/// for every lane number up to the fault lane.
#[test]
fn text_timeline_has_one_row_per_occupied_lane() {
    let (trace, _) = traced_sweeps(
        &test_matrix(),
        KernelMode::TaskMode,
        Some(comm_bound_plan()),
        3,
    );
    let lanes: BTreeSet<usize> = trace.rank_events(0).map(|e| e.lane).collect();
    assert!(lanes.contains(&FAULT_LANE), "rank 0 sends delayed messages");
    let text = text_timeline(&trace, 0, 60);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), lanes.len() + 1, "{text}");
    assert!(lines[lines.len() - 2].starts_with("rank 0 fault"), "{text}");
    assert!(lines[lines.len() - 1].starts_with("legend:"), "{text}");
}

/// A zero-length span at the end of the axis (a fault marker, say) lands
/// in the last column instead of panicking.
#[test]
fn text_timeline_renders_a_zero_length_span_at_the_end() {
    let span = |lane, phase, t0, t1| SpanEvent {
        phase,
        rank: 0,
        lane,
        t0,
        t1,
        bytes: 0,
        nnz: 0,
    };
    let trace = RunTrace::from_events(vec![
        span(1, Phase::SpmvFull, 0.0, 1.0),
        span(FAULT_LANE, Phase::FaultDelay, 1.0, 1.0),
    ]);
    let text = text_timeline(&trace, 0, 8);
    assert!(text.contains("rank 0 fault   |       x|"), "{text}");
}

/// Checkpointed solves stamp the same solver-lane spans as the plain
/// loops, replayed iterations included: one `CgIter` per CG apply after
/// the initial residual, one `LanczosIter` per Lanczos apply.
#[test]
fn checkpointed_solvers_record_solver_lane_spans() {
    const SOLVER_RANKS: usize = 3;
    let m = test_matrix();
    let partition = RowPartition::by_nnz(&m, SOLVER_RANKS);
    let world = CommWorld::builder(SOLVER_RANKS).build();
    let cfg = cfg_for(KernelMode::TaskMode).with_tracing(true);
    let per_rank = run_spmd_on_world(world, &m, &partition, cfg, |eng| {
        let lo = eng.row_start();
        let len = eng.local_len();
        let b: Vec<f64> = (lo..lo + len).map(|i| (i as f64).sin() + 1.5).collect();
        let comm = eng.comm().clone();
        // only rank 1 sees a fault, once, at the given poll; the
        // collective agreement rolls every rank back
        let faulty = comm.rank() == 1;
        let fire_once = |at: usize| {
            let mut polls = 0usize;
            move || {
                polls += 1;
                faulty && polls == at
            }
        };
        let (cg_probe, lanczos_probe) = (fire_once(5), fire_once(7));
        let ops = DistOps { comm: &comm };
        let mut op = DistOp::new(eng, KernelMode::TaskMode);
        let mut x = vec![0.0; len];
        let (cg, cg_rollbacks) =
            cg_solve_checkpointed(&mut op, &ops, &b, &mut x, 1e-10, 400, 3, cg_probe);
        let cg_applies = op.applications();
        let opts = LanczosOptions {
            max_steps: 20,
            ..LanczosOptions::default()
        };
        let (lanczos, lanczos_rollbacks) =
            lanczos_checkpointed(&mut op, &ops, &b, opts, 3, lanczos_probe);
        let lanczos_applies = op.applications() - cg_applies;
        assert!(cg.converged, "CG must converge");
        assert_eq!(lanczos.iterations, opts.max_steps);
        assert_eq!((cg_rollbacks, lanczos_rollbacks), (1, 1));
        let trace = eng.take_trace().expect("tracing enabled");
        let spans = |phase| trace.events.iter().filter(|e| e.phase == phase).count() as u64;
        (
            (spans(Phase::CgIter), cg_applies - 1),
            (spans(Phase::LanczosIter), lanczos_applies),
        )
    });
    for (rank, (cg, lanczos)) in per_rank.into_iter().enumerate() {
        assert_eq!(cg.0, cg.1, "rank {rank}: CgIter spans vs applies - 1");
        assert_eq!(
            lanczos.0, lanczos.1,
            "rank {rank}: LanczosIter spans vs applies"
        );
    }
}
