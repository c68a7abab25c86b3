//! Flat vs node-aware halo exchange: measured message counts, wire bytes,
//! and exchange time per strategy, with the hierarchical cost model's
//! prediction alongside.
//!
//! ```text
//! cargo run --release -p spmv-bench --bin bench_comm_strategies \
//!     [-- --scale test|medium|paper] [--ranks N] [--ranks-per-node N] [--json]
//! ```
//!
//! Both strategies run on a world carrying the *same* rank → node map, so
//! the intra/inter classification of the measured traffic is directly
//! comparable. `--json` emits one machine-readable object per run — the
//! format consumed by EXPERIMENTS.md bookkeeping and the CI artifact.

use spmv_bench::{header, hmep, samg, usize_flag, Json, Scale};
use spmv_core::{CommStrategy, EngineConfig, RankEngine, RowPartition};
use spmv_machine::{presets, RankNodeMap};
use spmv_matrix::{synthetic, CsrMatrix};
use spmv_model::comm::{CommLevels, RankTraffic};
use std::time::Instant;

struct StrategyRun {
    strategy: &'static str,
    intra_messages: u64,
    intra_bytes: u64,
    inter_messages: u64,
    inter_bytes: u64,
    secs_per_exchange: f64,
    model_secs: f64,
    gather_avg_run_len: f64,
}

/// Runs `iters` halo exchanges under `cfg` on a world whose statistics
/// classify traffic by the contiguous `ranks_per_node` map, returning the
/// measured counters of one exchange and the mean wall time.
fn bench_strategy(
    m: &CsrMatrix,
    ranks: usize,
    ranks_per_node: usize,
    cfg: EngineConfig,
    iters: usize,
) -> StrategyRun {
    let partition = RowPartition::by_nnz(m, ranks);
    let map = RankNodeMap::contiguous(ranks, ranks_per_node);
    let comms =
        spmv_comm::CommWorld::create_with_nodes((0..ranks).map(|r| map.node_of(r)).collect());
    let per_rank = std::thread::scope(|scope| {
        let partition = &partition;
        let map = &map;
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                scope.spawn(move || {
                    let block = m.row_block(partition.range(c.rank()));
                    let mut eng = RankEngine::new(c, &block, partition, cfg);
                    for (i, v) in eng.x_local_mut().iter_mut().enumerate() {
                        *v = (i % 97) as f64 * 0.013 + 1.0;
                    }
                    // one counted exchange: phase_delta brackets the work
                    // in barriers so no rank races traffic into the
                    // world-global delta
                    let (res, one) = eng.phase_delta(|e| e.halo_exchange_checked());
                    res.expect("fault-free world");
                    eng.comm().barrier(); // snapshots done before timing
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        eng.halo_exchange_checked().expect("fault-free world");
                    }
                    eng.comm().barrier();
                    let secs = t0.elapsed().as_secs_f64() / iters as f64;
                    // model input: classify flat traffic by the same node
                    // map the world carries, not the strategy's default
                    let t = match cfg.comm_strategy {
                        CommStrategy::Flat => eng.plan().traffic(map),
                        CommStrategy::NodeAware { .. } => eng.exchange_traffic(),
                    };
                    let traffic = RankTraffic {
                        intra_msgs: t.intra_msgs,
                        intra_bytes: t.intra_bytes,
                        inter_msgs: t.inter_msgs,
                        inter_bytes: t.inter_bytes,
                    };
                    (one, secs, traffic, eng.gather_program().avg_run_len())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect::<Vec<_>>()
    });

    let levels = CommLevels::from_cluster(&presets::westmere_cluster(
        ranks.div_ceil(ranks_per_node).max(1),
    ));
    let traffics: Vec<RankTraffic> = per_rank.iter().map(|r| r.2).collect();
    let stats = per_rank[0].0; // world-level counters: identical on all ranks
    let secs = per_rank.iter().map(|r| r.1).fold(0.0, f64::max);
    let runs = per_rank.iter().map(|r| r.3).fold(0.0, f64::max);
    StrategyRun {
        strategy: cfg.comm_strategy.label(),
        intra_messages: stats.intra_messages,
        intra_bytes: stats.intra_bytes,
        inter_messages: stats.inter_messages,
        inter_bytes: stats.inter_bytes,
        secs_per_exchange: secs,
        model_secs: levels.job_exchange_time(&traffics),
        gather_avg_run_len: runs,
    }
}

fn main() {
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    // 32 ranks x 4/node: small enough per-rank row blocks that the sAMG
    // halo spans multiple ranks of a node, giving aggregation work to do
    let ranks = usize_flag(&args, "--ranks", 32);
    let rpn = usize_flag(&args, "--ranks-per-node", 4);
    let iters = match scale {
        Scale::Test => 20,
        Scale::Medium => 50,
        Scale::Paper => 100,
    };

    let mats: Vec<(&'static str, CsrMatrix)> = vec![
        ("hmep", hmep(scale)),
        ("samg", samg(scale)),
        ("powerlaw", synthetic::power_law_rows(20_000, 15.0, 1.1, 7)),
    ];

    // explicit on both sides: the SPMV_COMM_STRATEGY override must not
    // collapse the comparison to one strategy
    let flat = EngineConfig::pure_mpi().with_comm_strategy(CommStrategy::Flat);
    let na = EngineConfig::pure_mpi().with_comm_strategy(CommStrategy::NodeAware {
        ranks_per_node: rpn,
    });

    let mut results: Vec<(&'static str, StrategyRun)> = Vec::new();
    for (name, m) in &mats {
        let r = ranks.min(m.nrows());
        for cfg in [flat, na] {
            results.push((name, bench_strategy(m, r, rpn, cfg, iters)));
        }
    }

    if json {
        let rows = results
            .iter()
            .map(|(mat, r)| {
                Json::obj()
                    .field("matrix", Json::str(*mat))
                    .field("strategy", Json::str(r.strategy))
                    .field("intra_messages", Json::UInt(r.intra_messages))
                    .field("intra_bytes", Json::UInt(r.intra_bytes))
                    .field("inter_messages", Json::UInt(r.inter_messages))
                    .field("inter_bytes", Json::UInt(r.inter_bytes))
                    .field("seconds_per_exchange", Json::sci(r.secs_per_exchange, 6))
                    .field("model_seconds", Json::sci(r.model_secs, 6))
                    .field("gather_avg_run_len", Json::fixed(r.gather_avg_run_len, 2))
            })
            .collect();
        print!(
            "{}",
            Json::obj()
                .field("scale", Json::str(scale.label()))
                .field("ranks", Json::UInt(ranks as u64))
                .field("ranks_per_node", Json::UInt(rpn as u64))
                .field("results", Json::Arr(rows))
                .render()
        );
        return;
    }

    header(&format!(
        "Halo-exchange strategies (scale: {}, {ranks} ranks, {rpn}/node)",
        scale.label()
    ));
    for (name, m) in &mats {
        println!("\n{name}: {} x {}, nnz = {}", m.nrows(), m.ncols(), m.nnz());
        for (_, r) in results.iter().filter(|(n, _)| n == name) {
            println!(
                "  {:<10} inter {:>5} msgs / {:>9.1} KiB, intra {:>5} msgs / {:>9.1} KiB, \
                 {:>8.1} us/exchange (model {:>6.1} us), gather runs avg {:.1}",
                r.strategy,
                r.inter_messages,
                r.inter_bytes as f64 / 1024.0,
                r.intra_messages,
                r.intra_bytes as f64 / 1024.0,
                r.secs_per_exchange * 1e6,
                r.model_secs * 1e6,
                r.gather_avg_run_len
            );
        }
    }
    println!(
        "\n(measured on in-process ranks: message counts are exact, times share one host's \
         memory bus; the model column prices the same traffic on the Westmere QDR-IB cluster)"
    );
}
