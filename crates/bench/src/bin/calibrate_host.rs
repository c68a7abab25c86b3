//! The paper's §2 methodology executed on *this* machine: measure STREAM
//! triad scaling, measure the engine's multithreaded CRS SpMV scaling (one
//! rank, Fig. 4a), fit the saturation model, predict SpMV from STREAM via
//! the code balance, and extract the implied κ — exactly the analysis
//! behind Fig. 3 and Table A, on real hardware instead of the modeled 2011
//! nodes. The balance is that of the storage the engine used: Eq. 1 for
//! plain CRS, 4 bytes/flop less for a value-coded block.
//!
//! `cargo run --release -p spmv-bench --bin calibrate_host [--scale ...]`
//!
//! Caveats (also printed): no thread pinning (the substrate cannot set
//! affinity without OS-specific syscalls), and no hardware counters, so κ
//! is inferred from the model rather than from measured traffic — the
//! inverse of the paper's procedure, clearly labeled.

use spmv_bench::{header, hmep, llc_bytes, Scale};
use spmv_comm::CommWorld;
use spmv_core::{EngineConfig, KernelMode, RankEngine, RowPartition};
use spmv_machine::SaturationCurve;
use spmv_matrix::CsrMatrix;
use spmv_model::{code_balance_coded, code_balance_crs, kappa_over_balance, predicted_gflops};
use spmv_smp::stream::run_stream;
use spmv_smp::ThreadTeam;

fn main() {
    let scale = Scale::from_args();
    header("Host calibration — the paper's §2 analysis on this machine");

    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16);
    // three arrays that together hold 4x the last-level cache
    let llc = llc_bytes().unwrap_or(32 << 20);
    let stream_len = 4 * llc / 3 / 8;
    let m = hmep(scale);
    let nnzr = m.avg_nnz_per_row();
    println!(
        "\nhost: {max_threads} hardware threads, LLC {} MiB; STREAM arrays 3x{} MiB; \
         HMeP N = {}, N_nzr = {:.1}\n",
        llc >> 20,
        (stream_len * 8) >> 20,
        m.nrows(),
        nnzr
    );

    println!(
        "{:>8} {:>15} {:>18} {:>20} {:>12}",
        "threads", "STREAM [GB/s]", "SpMV meas [GF/s]", "SpMV pred@85% [GF/s]", "implied κ"
    );

    let mut thread_counts = Vec::new();
    let mut t = 1;
    while t <= max_threads {
        thread_counts.push(t);
        t *= 2;
    }
    if *thread_counts.last().unwrap() != max_threads {
        thread_counts.push(max_threads);
    }

    let mut triads = Vec::new();
    let mut spmvs = Vec::new();
    let mut storage = "";
    for &threads in &thread_counts {
        let team = ThreadTeam::new(threads);
        let stream = run_stream(&team, stream_len, 3);
        let (gf, coded) = engine_spmv_gflops(&m, threads, 3);
        // the paper's §2 relation: SpMV draws ≈85 % of STREAM; at κ = 0 the
        // prediction from STREAM is an upper bound
        let b0 = if coded {
            code_balance_coded(nnzr, 0.0)
        } else {
            code_balance_crs(nnzr, 0.0)
        };
        let pred = predicted_gflops(0.85 * stream.triad_gbs, b0);
        // implied κ: invert the balance against the measured GFlop/s,
        // assuming the drawn bandwidth is 85 % of STREAM (no counters)
        let implied = kappa_over_balance(b0, gf, 0.85 * stream.triad_gbs);
        println!(
            "{:>8} {:>15.1} {:>18.2} {:>20.2} {:>12.2}",
            threads, stream.triad_gbs, gf, pred, implied
        );
        triads.push(stream.triad_gbs);
        spmvs.push(gf);
        storage = if coded {
            "value-coded CRS, 4"
        } else {
            "plain CRS, 12"
        };
    }
    println!("(balance of {storage} B of matrix data per nonzero)");

    // fit the saturation law through the endpoints, as the machine models do
    let n = thread_counts.len();
    let max = thread_counts[n - 1];
    if let Some((curve, sat)) = SaturationCurve::saturation_seen(triads[0], triads[n - 1], max, 0.9)
    {
        println!(
            "\nfitted STREAM saturation: b_inf = {:.1} GB/s, k_half = {:.2} threads",
            curve.b_inf, curve.k_half
        );
        print!("fit vs measured at each count:");
        for (k, &threads) in thread_counts.iter().enumerate() {
            print!(
                " {}:{:.0}/{:.0}",
                threads,
                curve.bandwidth(threads),
                triads[k]
            );
        }
        println!(" (GB/s fit/meas)");
        println!(
            "90% saturation at {sat} of {max} threads — the paper's spare-core argument applies\n\
             here iff that leaves idle hardware threads for a communication thread."
        );
    } else {
        println!(
            "\nno STREAM saturation in the measured range: {max} threads draw {:.2}x one \
             thread's triad,\nwithin 10% of linear, so no saturation law is fitted.",
            triads[n - 1] / triads[0]
        );
    }

    println!(
        "\ncaveats: no pinning (OS scheduler decides placement), no memory-traffic\n\
         counters (κ inferred via the 85% bandwidth assumption, not measured),\n\
         SMT siblings counted as threads. Compare with the paper's Nehalem\n\
         socket: STREAM 21.2 GB/s, SpMV 2.25 GFlop/s, κ = 2.5."
    );
}

/// Best-of-`reps` GFlop/s of the engine's Fig. 4a SpMV on a one-rank world
/// with `threads` compute threads, after a warm-up that faults in the data,
/// and whether the engine stored the matrix value-coded.
fn engine_spmv_gflops(m: &CsrMatrix, threads: usize, reps: usize) -> (f64, bool) {
    let comm = CommWorld::create(1).pop().expect("a one-rank world");
    let partition = RowPartition::by_nnz(m, 1);
    let mut eng = RankEngine::new(comm, m, &partition, EngineConfig::hybrid(threads));
    eng.x_local_mut().fill(1.0);
    let mut best = f64::INFINITY;
    for rep in 0..=reps {
        let t0 = std::time::Instant::now();
        eng.spmv_checked(KernelMode::VectorNoOverlap)
            .expect("a one-rank world has no peers to fault");
        if rep > 0 {
            best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    let coded = eng.matrices().full.is_coded();
    (2.0 * m.nnz() as f64 / best / 1e9, coded)
}
