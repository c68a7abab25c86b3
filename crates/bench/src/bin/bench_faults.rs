//! Overhead of the fault-injection layer on the halo-exchange path.
//!
//! ```text
//! cargo run --release -p spmv-bench --bin bench_faults \
//!     [-- --scale test|medium|paper] [--ranks N] [--ranks-per-node N] [--json]
//! ```
//!
//! Three worlds run the same exchange loop:
//!
//! * `baseline`  — plain `CommWorld::create_with_nodes`, no fault machinery;
//! * `disabled`  — built through `WorldBuilder` with no fault plan, i.e.
//!   the configuration every production run uses (the injector is `None`
//!   and every per-message check is a branch on a missing `Option`);
//! * `enabled`   — a recoverable chaos plan (delay/reorder/duplicate/drop
//!   with retransmit), reported together with the fault counters so the
//!   run proves faults actually fired.
//!
//! The resilience layer's contract is that `disabled` is indistinguishable
//! from `baseline`: the reported overhead should sit inside run-to-run
//! noise (target < 1%). `enabled` quantifies what chaos testing costs.

use spmv_bench::{header, hmep, usize_flag, Json, Scale};
use spmv_comm::{CommWorld, FaultPlan, FaultStats};
use spmv_core::{run_spmd_on_world, CommStrategy, EngineConfig, RowPartition};
use spmv_matrix::CsrMatrix;
use std::time::Instant;

struct FaultRun {
    world: &'static str,
    secs_per_exchange: f64,
    faults: FaultStats,
}

/// Median-of-`reps` mean exchange time on a world built by `make_world`.
/// Each rep times `iters` exchanges bracketed by barriers and takes the
/// slowest rank (the exchange is collective: the job moves at the pace of
/// the last rank to finish).
fn bench_world<W: Fn() -> Vec<spmv_comm::Comm>>(
    name: &'static str,
    m: &CsrMatrix,
    partition: &RowPartition,
    cfg: EngineConfig,
    make_world: W,
    iters: usize,
    reps: usize,
) -> FaultRun {
    let mut medians = Vec::with_capacity(reps);
    let mut faults = FaultStats::default();
    for _ in 0..reps {
        let per_rank = run_spmd_on_world(make_world(), m, partition, cfg, |eng| {
            for (i, v) in eng.x_local_mut().iter_mut().enumerate() {
                *v = (i % 97) as f64 * 0.013 + 1.0;
            }
            // warm the plan's persistent buffers
            eng.halo_exchange_checked()
                .expect("recoverable faults are hidden by the transport");
            eng.comm().barrier();
            let t0 = Instant::now();
            for _ in 0..iters {
                eng.halo_exchange_checked()
                    .expect("recoverable faults are hidden by the transport");
            }
            eng.comm().barrier();
            let secs = t0.elapsed().as_secs_f64() / iters as f64;
            (secs, eng.comm().fault_stats().unwrap_or_default())
        });
        medians.push(per_rank.iter().map(|r| r.0).fold(0.0, f64::max));
        faults = per_rank[0].1; // world-global counters, same on all ranks
    }
    medians.sort_by(|a, b| a.total_cmp(b));
    FaultRun {
        world: name,
        secs_per_exchange: medians[medians.len() / 2],
        faults,
    }
}

fn main() {
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let ranks = usize_flag(&args, "--ranks", 8);
    let rpn = usize_flag(&args, "--ranks-per-node", 4);
    let (iters, reps) = match scale {
        Scale::Test => (50, 3),
        Scale::Medium => (200, 5),
        Scale::Paper => (500, 7),
    };

    let m = hmep(scale);
    let ranks = ranks.min(m.nrows());
    let partition = RowPartition::by_nnz(&m, ranks);
    let node_map: Vec<usize> = (0..ranks).map(|r| r / rpn).collect();
    // the strategy the paper's pure-MPI baseline uses; the injector sits
    // below the strategy layer, so one strategy suffices for overhead
    let cfg = EngineConfig::pure_mpi().with_comm_strategy(CommStrategy::Flat);
    // recoverable message chaos: everything the receiver can hide again
    let plan = FaultPlan::new(0xC0FFEE)
        .delay(0.05, 1)
        .reorder(0.05)
        .duplicate(0.03)
        .drop_with_retransmit(0.03, 1);

    let runs = [
        bench_world(
            "baseline",
            &m,
            &partition,
            cfg,
            || CommWorld::create_with_nodes(node_map.clone()),
            iters,
            reps,
        ),
        bench_world(
            "disabled",
            &m,
            &partition,
            cfg,
            || CommWorld::builder(ranks).node_map(node_map.clone()).build(),
            iters,
            reps,
        ),
        bench_world(
            "enabled",
            &m,
            &partition,
            cfg,
            || {
                CommWorld::builder(ranks)
                    .node_map(node_map.clone())
                    .faults(plan.clone())
                    .build()
            },
            iters,
            reps,
        ),
    ];

    let base = runs[0].secs_per_exchange;
    let overhead_pct = |r: &FaultRun| (r.secs_per_exchange - base) / base * 100.0;

    if json {
        let rows = runs
            .iter()
            .map(|r| {
                Json::obj()
                    .field("world", Json::str(r.world))
                    .field("seconds_per_exchange", Json::sci(r.secs_per_exchange, 6))
                    .field("overhead_vs_baseline_pct", Json::fixed(overhead_pct(r), 2))
                    .field(
                        "faults",
                        Json::obj()
                            .field("delayed", Json::UInt(r.faults.delayed))
                            .field("reordered", Json::UInt(r.faults.reordered))
                            .field("duplicated", Json::UInt(r.faults.duplicated))
                            .field("dropped", Json::UInt(r.faults.dropped))
                            .field("truncated", Json::UInt(r.faults.truncated)),
                    )
            })
            .collect();
        print!(
            "{}",
            Json::obj()
                .field("scale", Json::str(scale.label()))
                .field("ranks", Json::UInt(ranks as u64))
                .field("ranks_per_node", Json::UInt(rpn as u64))
                .field("iters", Json::UInt(iters as u64))
                .field("reps", Json::UInt(reps as u64))
                .field("results", Json::Arr(rows))
                .render()
        );
        return;
    }

    header(&format!(
        "Fault-injection overhead (scale: {}, {ranks} ranks, {rpn}/node)",
        scale.label()
    ));
    println!("\nhmep: {} x {}, nnz = {}", m.nrows(), m.ncols(), m.nnz());
    for r in &runs {
        println!(
            "  {:<9} {:>8.1} us/exchange  ({:>+6.2}% vs baseline)  faults fired: {}",
            r.world,
            r.secs_per_exchange * 1e6,
            overhead_pct(r),
            r.faults.total(),
        );
    }
    println!(
        "\n(the `disabled` row is the resilience layer's production cost: the \
         injector is an unset Option and should be indistinguishable from \
         `baseline`; `enabled` pays for seeded delay/reorder/duplicate/drop)"
    );
}
