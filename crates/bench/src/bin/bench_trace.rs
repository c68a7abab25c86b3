//! Overhead and yield of the measured-time tracing layer.
//!
//! ```text
//! cargo run --release -p spmv-bench --bin bench_trace \
//!     [-- --scale test|medium|paper] [--ranks N] [--threads N] [--json] [--trace <path>]
//! ```
//!
//! Three runs time the same task-mode SpMV loop (the kernel with the most
//! instrumentation sites), following the `bench_faults` pattern:
//!
//! * `baseline` — tracing off: the recorder `Option` is `None` and every
//!   span site is a branch on a missing value;
//! * `disabled` — the identical production configuration measured again:
//!   its distance to `baseline` is pure run-to-run noise, the bound the
//!   disabled recorder's cost must sit inside (target < 1%);
//! * `enabled`  — per-thread ring-buffer recorders live, every phase span
//!   stamped; quantifies what measured-time tracing actually costs.
//!
//! A second section runs each kernel mode once with tracing enabled and
//! reports the derived metrics: overlap efficiency (hidden comm ÷ total
//! comm — ≈ 0 for the vector modes, where standard MPI cannot progress
//! outside calls, high for task mode), achieved GFlop/s and GB/s, and
//! event counts. `--trace <path>` additionally writes the task-mode run
//! as a chrome://tracing JSON.

use spmv_bench::{header, hmep, str_flag, usize_flag, Json, Scale};
use spmv_core::runner::run_spmd;
use spmv_core::{EngineConfig, KernelMode};
use spmv_matrix::CsrMatrix;
use spmv_obs::{chrome_trace_json, RunTrace, TraceMetrics};
use std::time::Instant;

struct OverheadRun {
    world: &'static str,
    secs_per_spmv: f64,
}

/// One repetition: mean per-SpMV wall time of the slowest rank (the
/// exchange is collective — the job moves at the pace of the last rank).
/// The timed window starts after a warm-up apply and a barrier, so world
/// spawn and first-touch costs stay outside it.
fn one_rep(m: &CsrMatrix, ranks: usize, cfg: EngineConfig, iters: usize) -> f64 {
    let per_rank = run_spmd(m, ranks, cfg, |eng| {
        let n = eng.local_len();
        let x: Vec<f64> = (0..n).map(|i| (i % 97) as f64 * 0.013 + 1.0).collect();
        let mut y = vec![0.0; n];
        // warm the plan
        eng.apply_checked(&x, &mut y, KernelMode::TaskMode)
            .expect("fault-free world");
        eng.comm().barrier();
        let t0 = Instant::now();
        for _ in 0..iters {
            eng.apply_checked(&x, &mut y, KernelMode::TaskMode)
                .expect("fault-free world");
        }
        eng.comm().barrier();
        t0.elapsed().as_secs_f64() / iters as f64
    });
    per_rank.into_iter().fold(0.0, f64::max)
}

/// Best-of-`reps` per-SpMV wall time for each config, repetitions
/// interleaved round-robin so every world samples the same noise windows
/// of the host. The minimum (not the median) is the estimator: scheduler
/// noise on in-process ranks is one-sided, and a sub-percent overhead
/// comparison needs the least-disturbed repetition of each world.
fn bench_overhead<const N: usize>(
    m: &CsrMatrix,
    ranks: usize,
    cfgs: [EngineConfig; N],
    iters: usize,
    reps: usize,
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..reps {
        for (cfg, best) in cfgs.iter().zip(&mut best) {
            *best = best.min(one_rep(m, ranks, *cfg, iters));
        }
    }
    best
}

struct ModeRun {
    mode: KernelMode,
    trace: RunTrace,
    metrics: TraceMetrics,
}

/// One traced run of `iters` SpMVs in `mode`, merged across ranks.
fn traced_run(
    m: &CsrMatrix,
    ranks: usize,
    threads: usize,
    mode: KernelMode,
    iters: usize,
) -> ModeRun {
    let cfg = if mode.needs_comm_thread() {
        EngineConfig::task_mode(threads)
    } else {
        EngineConfig::hybrid(threads)
    }
    .with_tracing(true);
    let traces = run_spmd(m, ranks, cfg, |eng| {
        let n = eng.local_len();
        let x: Vec<f64> = (0..n).map(|i| (i % 97) as f64 * 0.013 + 1.0).collect();
        let mut y = vec![0.0; n];
        for _ in 0..iters {
            eng.apply_checked(&x, &mut y, mode)
                .expect("fault-free world");
        }
        eng.take_trace().expect("tracing enabled")
    });
    let trace = RunTrace::from_ranks(traces);
    let metrics = TraceMetrics::from_trace(&trace);
    ModeRun {
        mode,
        trace,
        metrics,
    }
}

fn main() {
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let trace_path = str_flag(&args, "--trace");
    let ranks = usize_flag(&args, "--ranks", 4);
    let threads = usize_flag(&args, "--threads", 2);
    let (iters, reps, overhead_rows) = match scale {
        Scale::Test => (20, 16, 150_000),
        Scale::Medium => (20, 12, 400_000),
        Scale::Paper => (25, 10, 1_500_000),
    };

    let m = hmep(scale);
    let ranks = ranks.min(m.nrows());
    // The overhead comparison needs a workload whose per-SpMV time dwarfs
    // scheduler jitter (tens of µs on in-process ranks); the scale-`test`
    // HMeP is far too small for that, so the timing section always runs
    // on a banded matrix of at least `overhead_rows` rows.
    let m_timing = if m.nrows() >= overhead_rows {
        m.clone()
    } else {
        spmv_matrix::synthetic::random_banded_symmetric(overhead_rows, 12, 5.0, 17)
    };
    // explicit on every config: the SPMV_TRACE override must not flip a
    // world the comparison relies on
    let off = EngineConfig::task_mode(threads).with_tracing(false);
    let on = EngineConfig::task_mode(threads).with_tracing(true);

    // warm-up: page in the matrix and spawn-path code before any world is
    // timed, so "baseline" does not absorb one-time costs
    let _ = one_rep(&m_timing, ranks, off, 2);

    let [t_base, t_off, t_on] = bench_overhead(&m_timing, ranks, [off, off, on], iters, reps);
    let runs = [
        OverheadRun {
            world: "baseline",
            secs_per_spmv: t_base,
        },
        OverheadRun {
            world: "disabled",
            secs_per_spmv: t_off,
        },
        OverheadRun {
            world: "enabled",
            secs_per_spmv: t_on,
        },
    ];
    let base = runs[0].secs_per_spmv;
    let overhead_pct = |r: &OverheadRun| (r.secs_per_spmv - base) / base * 100.0;

    // fewer iterations here: the ring keeps the last DEFAULT_RING_CAPACITY
    // spans per lane and the metrics want an un-truncated window
    let modes: Vec<ModeRun> = KernelMode::ALL
        .iter()
        .map(|&mode| traced_run(&m, ranks, threads, mode, 20))
        .collect();

    if let Some(path) = &trace_path {
        let task = modes
            .iter()
            .find(|r| r.mode == KernelMode::TaskMode)
            .expect("task mode is in KernelMode::ALL");
        let doc = chrome_trace_json(&task.trace);
        std::fs::write(path, &doc).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        if !json {
            println!("wrote task-mode chrome trace to {path}");
        }
    }

    if json {
        let overhead = runs
            .iter()
            .map(|r| {
                Json::obj()
                    .field("world", Json::str(r.world))
                    .field("seconds_per_spmv", Json::sci(r.secs_per_spmv, 6))
                    .field("overhead_vs_baseline_pct", Json::fixed(overhead_pct(r), 2))
            })
            .collect();
        let mode_rows = modes
            .iter()
            .map(|r| {
                Json::obj()
                    .field("mode", Json::str(r.mode.label()))
                    .field(
                        "overlap_efficiency",
                        Json::fixed(r.trace.mean_overlap_efficiency(), 4),
                    )
                    .field("mean_gflops", Json::fixed(r.metrics.mean_gflops(), 4))
                    .field("mean_gbs", Json::fixed(r.metrics.mean_gbs(), 4))
                    .field("events", Json::UInt(r.trace.events.len() as u64))
                    .field("dropped", Json::UInt(r.trace.dropped))
            })
            .collect();
        print!(
            "{}",
            Json::obj()
                .field("scale", Json::str(scale.label()))
                .field("ranks", Json::UInt(ranks as u64))
                .field("threads", Json::UInt(threads as u64))
                .field("iters", Json::UInt(iters as u64))
                .field("reps", Json::UInt(reps as u64))
                .field("overhead", Json::Arr(overhead))
                .field("modes", Json::Arr(mode_rows))
                .render()
        );
        return;
    }

    header(&format!(
        "Tracing overhead and yield (scale: {}, {ranks} ranks x {threads} threads)",
        scale.label()
    ));
    println!("\nhmep: {} x {}, nnz = {}", m.nrows(), m.ncols(), m.nnz());
    println!(
        "\ntask-mode SpMV loop on a {} x {} banded matrix (nnz = {}; {iters} iters, \
         best of {reps} interleaved reps):",
        m_timing.nrows(),
        m_timing.ncols(),
        m_timing.nnz()
    );
    for r in &runs {
        println!(
            "  {:<9} {:>8.1} us/spmv  ({:>+6.2}% vs baseline)",
            r.world,
            r.secs_per_spmv * 1e6,
            overhead_pct(r)
        );
    }
    println!(
        "\n(the `disabled` row repeats the baseline configuration: its distance \
         to `baseline` is run-to-run noise, the bound the disabled recorder \
         sits inside; `enabled` pays for stamping every phase span)"
    );
    println!("\nmeasured metrics per kernel mode (tracing enabled, 20 SpMVs):");
    for r in &modes {
        println!(
            "  {:<22} overlap eff {:.3}, {:>7.2} GFlop/s, {:>7.2} GB/s, {:>6} spans ({} dropped)",
            r.mode.label(),
            r.trace.mean_overlap_efficiency(),
            r.metrics.mean_gflops(),
            r.metrics.mean_gbs(),
            r.trace.events.len(),
            r.trace.dropped
        );
    }
    println!(
        "\n(overlap efficiency = hidden comm / total comm: ~0 for both vector \
         modes — standard MPI progresses only inside calls — and high for task \
         mode, whose dedicated comm thread overlaps the waitall with compute)"
    );
}
