//! Per-layer metrics of a traced run.
//!
//! Each layer is timed from outside, around the public call that enters
//! it, with the same collective batches as the end-to-end loop. Engine
//! phase self times come from the engine's own `with_tracing` recorder in
//! a separate engine, so the untraced numbers stay untraced.

use crate::harness::{engine_config, measure, spmd, BenchOp, BenchOps, Tally};
use crate::host::llc_bytes;
use crate::report::{Report, Value};
use crate::run::{Budget, Inputs};
use crate::stats::{median, Timed};
use crate::workloads::{Size, Workload, CG_MAX_ITER, CG_TOL};
use spmv_comm::collectives::ReduceOp;
use spmv_comm::Comm;
use spmv_core::plan::build_plan_distributed;
use spmv_core::runner::create_world;
use spmv_core::{
    prepare_kernel, verify_distributed, GatherProgram, KernelMode, RankEngine, RowPartition,
    SplitMatrix,
};
use spmv_matrix::CsrMatrix;
use spmv_obs::{Phase, RankTrace, RunTrace};
use spmv_smp::stream::run_stream;
use spmv_smp::ThreadTeam;
use spmv_solvers::cg_solve;
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per layer measurement (medians only).
pub const LAYER_BATCHES: usize = 30;
/// Barriers per region when timing `TeamCtx::barrier`.
const BARRIER_REPS: usize = 100;
/// Task-mode SpMVs recorded for its overlap efficiency.
const TASK_TRACE_CALLS: usize = 20;
/// Setup constructions timed phase by phase (median per phase).
const SETUP_BREAKDOWN_REPS: usize = 3;

/// Every per-layer metric, in report order: name, unit, better.
pub const PER_LAYER: [(&str, &str, &str); 38] = [
    ("kernel.serial_s", "s", "lower"),
    ("kernel.rank_s", "s", "lower"),
    ("kernel.gbs", "GB/s", "higher"),
    ("stream.triad_gbs", "GB/s", "higher"),
    ("kernel.stream_frac", "ratio", "higher"),
    ("team.region_s", "s", "lower"),
    ("team.barrier_s", "s", "lower"),
    ("gather.s", "s", "lower"),
    ("gather.runs", "count", "lower"),
    ("halo.s", "s", "lower"),
    ("halo.msgs", "count", "lower"),
    ("halo.bytes", "B", "lower"),
    ("allreduce.s", "s", "lower"),
    ("mode.vector_no_overlap_s", "s", "lower"),
    ("mode.vector_naive_overlap_s", "s", "lower"),
    ("mode.task_s", "s", "lower"),
    ("engine.kernel_self_s", "s", "lower"),
    ("engine.comm_self_s", "s", "lower"),
    ("engine.unattributed_s", "s", "lower"),
    ("setup.partition_s", "s", "lower"),
    ("setup.world_s", "s", "lower"),
    ("setup.row_block_s", "s", "lower"),
    ("setup.plan_s", "s", "lower"),
    ("setup.split_s", "s", "lower"),
    ("setup.gather_compile_s", "s", "lower"),
    ("setup.kernel_prepare_s", "s", "lower"),
    ("setup.team_spawn_s", "s", "lower"),
    ("setup.verify_s", "s", "lower"),
    ("setup.unattributed_s", "s", "lower"),
    ("cg.apply_s", "s", "lower"),
    ("cg.reduce_s", "s", "lower"),
    ("cg.vector_s", "s", "lower"),
    ("trace.spmv_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.overlap_eff.vector_no_overlap", "ratio", "higher"),
    ("trace.overlap_eff.vector_naive_overlap", "ratio", "higher"),
    ("trace.overlap_eff.task", "ratio", "higher"),
    ("failed_frac", "ratio", "lower"),
];

/// The single-thread kernel probe of rank 0's full block.
pub struct KernelProbe {
    samples: Timed,
    /// Minimum traffic of one pass, computed from array sizes.
    bytes: f64,
}

/// Layer measurements one rank took on the main (untraced) engine.
pub struct RankLayers {
    halo: Timed,
    msgs_per_spmv: f64,
    bytes_per_spmv: f64,
    allreduce: Timed,
    gather: Timed,
    gather_runs: usize,
    kernel: Option<KernelProbe>,
    no_overlap: Timed,
    naive: Timed,
    /// One timed solve: total, apply and allreduce seconds.
    cg: [f64; 3],
}

/// Measures the layers on one rank of the main engine (collective).
pub fn rank_layers(
    eng: &mut RankEngine,
    comm: &Comm,
    w: &Workload,
    inp: &Inputs,
    layer_s: f64,
    tally: &mut Tally,
) -> RankLayers {
    let c = Some(comm);
    let mut untallied = Tally::default();
    let (lo, n) = (eng.row_start(), eng.local_len());
    eng.x_local_mut().copy_from_slice(&inp.x[lo..lo + n]);

    let halo = measure(c, layer_s, LAYER_BATCHES, tally, || {
        eng.halo_exchange_checked().is_ok()
    });
    const CALLS: usize = 20;
    let ((), delta) = eng.phase_delta(|e| {
        for _ in 0..CALLS {
            tally.count(e.spmv_checked(w.mode).is_ok());
        }
    });
    let allreduce = measure(c, layer_s, LAYER_BATCHES, &mut untallied, || {
        black_box(comm.allreduce_scalar(1.0, ReduceOp::Sum));
        true
    });

    let prog = eng.gather_program().clone();
    let mut send = vec![0.0; prog.total_elems()];
    let gather = measure(c, layer_s, LAYER_BATCHES, &mut untallied, || {
        prog.execute(eng.x_local(), &mut send);
        black_box(&send);
        true
    });

    // the row kernel alone on rank 0's full block while the others wait
    let kernel = (comm.rank() == 0).then(|| {
        let full = &eng.matrices().full;
        let kern = prepare_kernel(eng.kernel_kind(), full);
        let mut x_ext = eng.x_local().to_vec();
        x_ext.extend_from_slice(eng.halo());
        let mut y = vec![0.0; full.nrows()];
        let samples = measure(None, layer_s, LAYER_BATCHES, &mut untallied, || {
            kern.spmv_rows(full, 0..full.nrows(), &x_ext, &mut y, false);
            black_box(&y);
            true
        });
        let (rows, cols, nnz) = (full.nrows(), full.ncols(), full.nnz());
        // values + column indices, row pointers, y with write-allocate, x once
        let bytes = (nnz * 12 + (rows + 1) * 8 + rows * 16 + cols * 8) as f64;
        KernelProbe { samples, bytes }
    });
    comm.barrier();

    let mut ladder = |mode: KernelMode| {
        measure(c, layer_s, LAYER_BATCHES, tally, || {
            eng.spmv_checked(mode).is_ok()
        })
    };
    let no_overlap = ladder(KernelMode::VectorNoOverlap);
    let naive = ladder(KernelMode::VectorNaiveOverlap);

    comm.barrier();
    let t = Instant::now();
    let ops = BenchOps::new(comm, true);
    let mut op = BenchOp::new(eng, w.mode, inp.shift, true);
    let mut x = vec![0.0; n];
    let r = cg_solve(
        &mut op,
        &ops,
        &inp.b[lo..lo + n],
        &mut x,
        CG_TOL,
        CG_MAX_ITER,
    );
    tally.count(op.failures == 0 && r.converged);
    let cg = [
        t.elapsed().as_secs_f64(),
        op.apply_s.unwrap_or(0.0),
        ops.reduce_s(),
    ];

    RankLayers {
        halo,
        msgs_per_spmv: delta.messages as f64 / CALLS as f64,
        bytes_per_spmv: delta.bytes as f64 / CALLS as f64,
        allreduce,
        gather,
        gather_runs: prog.runs().len(),
        kernel,
        no_overlap,
        naive,
        cg,
    }
}

/// Engine phase self times per SpMV (slowest rank) from a merged trace.
fn self_times(trace: &RunTrace) -> (f64, f64) {
    let per_call = |rank: usize, phase: Phase| {
        let count = trace.rank_events(rank).filter(|e| e.phase == phase).count();
        if count == 0 {
            0.0
        } else {
            trace.time_in(rank, phase) / count as f64
        }
    };
    trace.ranks().into_iter().fold((0.0, 0.0), |(k, c), r| {
        let comm: f64 = [Phase::Gather, Phase::PostRecvs, Phase::Send, Phase::Waitall]
            .into_iter()
            .map(|p| per_call(r, p))
            .sum();
        (k.max(per_call(r, Phase::SpmvFull)), c.max(comm))
    })
}

/// What the traced engine measured.
struct Traced {
    spmv_s: f64,
    eff_no_overlap: f64,
    eff_naive: f64,
    kernel_self_s: f64,
    comm_self_s: f64,
}

/// A second engine of the same layout with the engine recorder on.
fn traced_session(
    m: &CsrMatrix,
    w: &Workload,
    inp: &Inputs,
    layer_s: f64,
    tally: &mut Tally,
) -> Traced {
    let outs = spmd(
        m,
        w.ranks,
        engine_config(w.threads, false, true),
        |eng, _| {
            let comm = eng.comm().clone();
            let mut t = Tally::default();
            let (lo, n) = (eng.row_start(), eng.local_len());
            eng.x_local_mut().copy_from_slice(&inp.x[lo..lo + n]);
            let mut run = |eng: &mut RankEngine, mode: KernelMode, budget: f64| {
                let s = measure(Some(&comm), budget, LAYER_BATCHES, &mut t, || {
                    eng.spmv_checked(mode).is_ok()
                });
                (
                    s,
                    eng.take_trace()
                        .expect("the engine was built with tracing on"),
                )
            };
            let (samples, no_overlap) = run(eng, KernelMode::VectorNoOverlap, 2.0 * layer_s);
            let (_, naive) = run(eng, KernelMode::VectorNaiveOverlap, layer_s);
            (samples, no_overlap, naive, t)
        },
    );
    let mut samples = Vec::new();
    let (mut no_overlap, mut naive) = (Vec::<RankTrace>::new(), Vec::<RankTrace>::new());
    for (s, a, b, t) in outs {
        samples.push(s);
        no_overlap.push(a);
        naive.push(b);
        tally.add(t);
    }
    let no_overlap = RunTrace::from_ranks(no_overlap);
    let naive = RunTrace::from_ranks(naive);
    let (kernel_self_s, comm_self_s) = self_times(&no_overlap);
    Traced {
        spmv_s: median(&Timed::slowest(&samples).steady()),
        eff_no_overlap: no_overlap.mean_overlap_efficiency(),
        eff_naive: naive.mean_overlap_efficiency(),
        kernel_self_s,
        comm_self_s,
    }
}

/// Task mode (Fig. 4c) needs a communication thread per rank, so its
/// layout runs more threads than the workload: timed untraced, then its
/// overlap efficiency from a traced engine.
fn task_session(
    m: &CsrMatrix,
    w: &Workload,
    inp: &Inputs,
    layer_s: f64,
    tally: &mut Tally,
) -> (f64, f64) {
    let copy_x = |eng: &mut RankEngine| {
        let (lo, n) = (eng.row_start(), eng.local_len());
        eng.x_local_mut().copy_from_slice(&inp.x[lo..lo + n]);
    };
    let outs = spmd(
        m,
        w.ranks,
        engine_config(w.threads, true, false),
        |eng, _| {
            copy_x(eng);
            let comm = eng.comm().clone();
            let mut t = Tally::default();
            let s = measure(Some(&comm), layer_s, LAYER_BATCHES, &mut t, || {
                eng.spmv_checked(KernelMode::TaskMode).is_ok()
            });
            (s, t)
        },
    );
    let traces = spmd(
        m,
        w.ranks,
        engine_config(w.threads, true, true),
        |eng, _| {
            copy_x(eng);
            let mut t = Tally::default();
            for _ in 0..TASK_TRACE_CALLS {
                t.count(eng.spmv_checked(KernelMode::TaskMode).is_ok());
            }
            (
                eng.take_trace()
                    .expect("the engine was built with tracing on"),
                t,
            )
        },
    );
    let mut samples = Vec::new();
    for (s, t) in outs {
        samples.push(s);
        tally.add(t);
    }
    let mut rank_traces = Vec::new();
    for (rt, t) in traces {
        rank_traces.push(rt);
        tally.add(t);
    }
    (
        median(&Timed::slowest(&samples).steady()),
        RunTrace::from_ranks(rank_traces).mean_overlap_efficiency(),
    )
}

/// Setup timed one building block at a time, in the order `RankEngine::new`
/// runs them: partition, world, row block, plan, split, gather compile,
/// kernel prepare, team spawn, verify. Returns per-phase seconds (slowest
/// rank, median of constructions), and the median whole construction timed
/// like `setup_s`, interleaved with them so both see the same process state.
fn setup_breakdown(m: &CsrMatrix, w: &Workload) -> ([f64; 9], f64) {
    let cfg = engine_config(w.threads, false, false);
    let mut whole = Vec::new();
    let reps: Vec<[f64; 9]> = (0..SETUP_BREAKDOWN_REPS)
        .map(|_| {
            let ready = spmd(m, w.ranks, cfg, |_, ready| ready);
            whole.push(ready.into_iter().fold(0.0, f64::max));
            let t = Instant::now();
            let partition = RowPartition::by_nnz(m, w.ranks);
            let partition_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let comms = create_world(w.ranks, &cfg);
            let world_s = t.elapsed().as_secs_f64();
            let partition = &partition;
            let per_rank: Vec<[f64; 7]> = std::thread::scope(|s| {
                let handles: Vec<_> = comms
                    .into_iter()
                    .map(|comm| {
                        s.spawn(move || {
                            let mut laps = [0.0; 7];
                            let mut timed =
                                |i: usize, t: Instant| laps[i] = t.elapsed().as_secs_f64();
                            let t = Instant::now();
                            let block = m.row_block(partition.range(comm.rank()));
                            timed(0, t);
                            let t = Instant::now();
                            let plan = build_plan_distributed(&comm, &block, partition);
                            timed(1, t);
                            let t = Instant::now();
                            let split = SplitMatrix::build(&block, &plan);
                            timed(2, t);
                            let t = Instant::now();
                            let indices: Vec<u32> = plan
                                .send
                                .iter()
                                .flat_map(|nb| nb.indices.iter().copied())
                                .collect();
                            let prog = GatherProgram::compile(&indices);
                            timed(3, t);
                            let t = Instant::now();
                            let kernels = [&split.full, &split.local, &split.nonlocal]
                                .map(|mat| prepare_kernel(cfg.kernel, mat));
                            timed(4, t);
                            let t = Instant::now();
                            let team = (w.threads > 1).then(|| ThreadTeam::new(w.threads));
                            timed(5, t);
                            let t = Instant::now();
                            let verdict = verify_distributed(&comm, &plan, None);
                            timed(6, t);
                            assert!(verdict.is_ok(), "the benchmark's plan verifies");
                            drop((prog, kernels, team));
                            laps
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("rank thread panicked"))
                    .collect()
            });
            // the slowest rank's own phases (per-phase maxima would count a
            // rank's wait inside a collective on top of its peer's work)
            let engine_s = |laps: &[f64; 7]| laps[..6].iter().sum::<f64>();
            let slowest = per_rank
                .iter()
                .max_by(|a, b| engine_s(a).total_cmp(&engine_s(b)))
                .expect("at least one rank");
            let mut parts = [0.0; 9];
            parts[0] = partition_s;
            parts[1] = world_s;
            parts[2..].copy_from_slice(slowest);
            parts
        })
        .collect();
    let parts = std::array::from_fn(|i| median(&reps.iter().map(|r| r[i]).collect::<Vec<_>>()));
    (parts, median(&whole))
}

/// Fills the per-layer metrics of a traced run; `spmv_s` is the run's
/// untraced time per SpMV. Takes the matrix so it can be freed before the
/// STREAM arrays are allocated.
#[allow(clippy::too_many_arguments)]
pub fn report(
    report: &mut Report,
    per_rank: Vec<RankLayers>,
    matrix: CsrMatrix,
    w: &Workload,
    inp: &Inputs,
    b: &Budget,
    spmv_s: f64,
    size: Size,
) {
    let slowest = |f: fn(&RankLayers) -> &Timed| {
        median(&Timed::slowest(&per_rank.iter().map(|r| f(r).clone()).collect::<Vec<_>>()).steady())
    };
    let halo_s = slowest(|r| &r.halo);
    let probe = per_rank[0]
        .kernel
        .as_ref()
        .expect("rank 0 probes the kernel");
    let kernel_rank_s = median(&probe.samples.steady());
    let kernel_gbs = probe.bytes / kernel_rank_s / 1e9;
    let cg = per_rank
        .iter()
        .map(|r| r.cg)
        .fold([0.0; 3], |a, c| if c[0] > a[0] { c } else { a });

    let mut tally = Tally::default();
    let traced = traced_session(&matrix, w, inp, b.layer_s, &mut tally);
    let (task_s, task_eff) = task_session(&matrix, w, inp, b.layer_s, &mut tally);
    let (setup, setup_whole_s) = setup_breakdown(&matrix, w);

    let mut y = vec![0.0; matrix.nrows()];
    let serial = measure(
        None,
        b.layer_s,
        LAYER_BATCHES,
        &mut Tally::default(),
        || {
            matrix.spmv(&inp.x, &mut y);
            black_box(&y);
            true
        },
    );
    let team = ThreadTeam::new(w.threads_total());
    let region = measure(
        None,
        b.layer_s,
        LAYER_BATCHES,
        &mut Tally::default(),
        || {
            team.run(|_| {});
            true
        },
    );
    let barriers = measure(
        None,
        b.layer_s,
        LAYER_BATCHES,
        &mut Tally::default(),
        || {
            team.run(|ctx| {
                for _ in 0..BARRIER_REPS {
                    ctx.barrier();
                }
            });
            true
        },
    );
    let (region_s, barriers_s) = (median(&region.steady()), median(&barriers.steady()));
    drop(matrix);

    // STREAM triad over arrays that together hold 4× the last-level cache
    let llc = llc_bytes().unwrap_or(32 << 20);
    let total = match size {
        Size::Full => 4 * llc,
        Size::Tiny => 24 << 20,
    };
    let len = (total / 3 / 8) as usize;
    let triad_gbs = run_stream(&team, len, 3).triad_gbs;
    drop(team);

    report.attempted += tally.attempted;
    report.failed += tally.failed;
    report.correct &= tally.failed == 0;

    let setup_attributed: f64 = setup[..8].iter().sum();
    let values: [f64; 38] = [
        median(&serial.steady()),
        kernel_rank_s,
        kernel_gbs,
        triad_gbs,
        kernel_gbs / triad_gbs,
        region_s,
        ((barriers_s - region_s) / BARRIER_REPS as f64).max(0.0),
        slowest(|r| &r.gather),
        per_rank.iter().map(|r| r.gather_runs).sum::<usize>() as f64,
        halo_s,
        per_rank[0].msgs_per_spmv,
        per_rank[0].bytes_per_spmv,
        slowest(|r| &r.allreduce),
        slowest(|r| &r.no_overlap),
        slowest(|r| &r.naive),
        task_s,
        traced.kernel_self_s,
        traced.comm_self_s,
        spmv_s - halo_s - kernel_rank_s / w.threads as f64,
        setup[0],
        setup[1],
        setup[2],
        setup[3],
        setup[4],
        setup[5],
        setup[6],
        setup[7],
        setup[8],
        setup_whole_s - setup_attributed,
        cg[1],
        cg[2],
        cg[0] - cg[1] - cg[2],
        traced.spmv_s,
        traced.spmv_s / spmv_s - 1.0,
        traced.eff_no_overlap,
        traced.eff_naive,
        task_eff,
        report.failed as f64 / report.attempted as f64,
    ];
    for ((name, unit, _), v) in PER_LAYER.iter().zip(values) {
        report.metric(name, unit, v);
    }

    let task_threads = w.ranks * (w.threads + 1);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.context.push((
        "layers".into(),
        Value::Obj(vec![
            ("stream_array_bytes".into(), Value::Num((len * 8) as f64)),
            (
                "stream_total_bytes".into(),
                Value::Num((3 * len * 8) as f64),
            ),
            (
                "stream_threads".into(),
                Value::Num(w.threads_total() as f64),
            ),
            ("llc_bytes".into(), Value::Num(llc as f64)),
            ("kernel_bytes_computed".into(), Value::Num(probe.bytes)),
            ("team_size".into(), Value::Num(w.threads_total() as f64)),
            ("task_mode_threads".into(), Value::Num(task_threads as f64)),
            (
                "task_mode_oversubscribed".into(),
                Value::Bool(task_threads > nproc),
            ),
            ("setup_verify_in_setup_s".into(), Value::Bool(false)),
            ("setup_whole_s".into(), Value::Num(setup_whole_s)),
            ("untraced_spmv_s".into(), Value::Num(spmv_s)),
        ]),
    ));
}
