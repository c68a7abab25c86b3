//! Ablations of the design choices DESIGN.md §6 calls out:
//!
//! * `progress`   — standard vs asynchronous MPI progress (the crux);
//! * `rcm`        — RCM-reordered HMeP vs the native ordering (§1.3.1);
//! * `partition`  — nonzero-balanced vs row-balanced distribution;
//! * `commthread` — SMT-sibling vs donated-physical-core comm thread;
//! * `aggregation`— message counts/volumes across the three layouts;
//! * `eager`      — eager-threshold sensitivity;
//! * `kernel`     — node-level kernels (wall clock on this host): serial
//!   `csr-scalar` against two SELL-C-σ shapes (with their padding factor α
//!   and storage), `csr-scalar` on the engine's one-rank block (value-coded
//!   when its values fit a table), and the engine in all three modes;
//! * `commstrategy` — flat vs node-aware halo exchange: per-level message
//!   counts over each rank's exchange op list, priced by the hierarchical
//!   cost model.
//!
//! `cargo run --release -p spmv-bench --bin ablations [-- <which>] [--scale ...]
//!  [--trace <path>]` (runs all ablations when no selector is given;
//! `--trace` additionally writes a measured task-mode chrome://tracing
//! JSON of the HMeP matrix to `<path>`)

use spmv_bench::microbench::Bench;
use spmv_bench::{header, hmep, Scale};
use spmv_core::plan::build_plans_serial;
use spmv_core::{
    distributed_spmv, prepare_kernel, workload, EngineConfig, ExchangeSchedule, KernelKind,
    KernelMode, RowPartition, SplitMatrix,
};
use spmv_machine::{plan_layout, presets, CommThreadPlacement, HybridLayout, RankNodeMap};
use spmv_matrix::rcm::rcm_reorder;
use spmv_matrix::SellMatrix;
use spmv_model::comm::{crossover_messages, CommLevels, RankTraffic};
use spmv_sim::{simulate_job, simulate_spmv, ProgressModel, SimConfig};

fn main() {
    let scale = Scale::from_args();
    let mut trace_path: Option<String> = None;
    let mut which: Vec<String> = Vec::new();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                it.next(); // value already consumed by Scale::from_args
            }
            "--trace" => {
                trace_path = Some(it.next().expect("--trace needs a path").clone());
            }
            other if !other.starts_with("--") => which.push(other.to_string()),
            other => panic!("unknown flag '{other}'"),
        }
    }
    let run = |name: &str| which.is_empty() || which.iter().any(|w| w == name);

    header(&format!("Ablations (scale: {})", scale.label()));
    let m = hmep(scale);
    let nodes = 8;
    let cluster = presets::westmere_cluster(nodes);
    println!(
        "\nHMeP: N = {}, N_nz = {}; Westmere, {nodes} nodes\n",
        m.nrows(),
        m.nnz()
    );

    if run("progress") {
        println!("--- ablation: MPI progress model (naive overlap, per-LD) ---");
        for progress in [ProgressModel::InsideCallsOnly, ProgressModel::Async] {
            let r = simulate_job(
                &m,
                &cluster,
                nodes,
                HybridLayout::ProcessPerLd,
                &SimConfig::new(KernelMode::VectorNaiveOverlap)
                    .with_kappa(2.5)
                    .with_progress(progress),
            );
            println!("  {:<24} {:.2} GFlop/s", progress.label(), r.gflops);
        }
        let task = simulate_job(
            &m,
            &cluster,
            nodes,
            HybridLayout::ProcessPerLd,
            &SimConfig::new(KernelMode::TaskMode).with_kappa(2.5),
        );
        println!(
            "  {:<24} {:.2} GFlop/s  <- explicit overlap achieves what async progress would\n",
            "task mode (standard)", task.gflops
        );
    }

    if run("rcm") {
        println!("--- ablation: RCM reordering (paper found no advantage) ---");
        let (m_rcm, _) = rcm_reorder(&m);
        for (name, mat) in [("HMeP native", &m), ("HMeP + RCM", &m_rcm)] {
            let r = simulate_job(
                mat,
                &cluster,
                nodes,
                HybridLayout::ProcessPerLd,
                &SimConfig::new(KernelMode::TaskMode).with_kappa(2.5),
            );
            let p = RowPartition::by_nnz(mat, 16);
            let s = workload::summarize(&workload::analyze(mat, &p));
            println!(
                "  {name:<14} {:.2} GFlop/s, {} msgs, {:.1} KiB on wire, bandwidth {}",
                r.gflops,
                s.total_messages,
                s.total_bytes as f64 / 1024.0,
                mat.bandwidth()
            );
        }
        println!();
    }

    if run("partition") {
        println!("--- ablation: nonzero-balanced vs row-balanced partitioning ---");
        let ranks = 16;
        for (name, p) in [
            ("by nnz (paper)", RowPartition::by_nnz(&m, ranks)),
            ("by rows", RowPartition::by_rows(m.nrows(), ranks)),
        ] {
            let w = workload::analyze(&m, &p);
            let s = workload::summarize(&w);
            let layout = plan_layout(
                &cluster.node,
                nodes,
                HybridLayout::ProcessPerLd,
                CommThreadPlacement::None,
            )
            .unwrap();
            let r = simulate_spmv(
                &cluster,
                &layout,
                &w,
                &SimConfig::new(KernelMode::VectorNoOverlap).with_kappa(2.5),
            );
            println!(
                "  {name:<18} imbalance {:.3}, {:.2} GFlop/s",
                s.nnz_imbalance, r.gflops
            );
        }
        println!();
    }

    if run("commthread") {
        println!("--- ablation: comm thread on SMT sibling vs dedicated core ---");
        for (name, placement) in [
            ("SMT sibling", CommThreadPlacement::SmtSibling),
            ("dedicated core", CommThreadPlacement::DedicatedCore),
        ] {
            let layout =
                plan_layout(&cluster.node, nodes, HybridLayout::ProcessPerLd, placement).unwrap();
            let p = RowPartition::by_nnz(&m, layout.num_ranks());
            let w = workload::analyze(&m, &p);
            let r = simulate_spmv(
                &cluster,
                &layout,
                &w,
                &SimConfig::new(KernelMode::TaskMode).with_kappa(2.5),
            );
            println!("  {name:<16} {:.2} GFlop/s", r.gflops);
        }
        println!(
            "  (paper: 'it does not make a difference' — the bus is saturated at 4-5 threads)\n"
        );
    }

    if run("aggregation") {
        println!("--- ablation: message aggregation across layouts ---");
        for layout in HybridLayout::ALL {
            let plan =
                plan_layout(&cluster.node, nodes, layout, CommThreadPlacement::None).unwrap();
            let p = RowPartition::by_nnz(&m, plan.num_ranks());
            let s = workload::summarize(&workload::analyze(&m, &p));
            println!(
                "  {:<10} {:>5} ranks: {:>6} msgs/SpMV, {:>9.1} KiB, avg msg {:>7.0} B",
                layout.label(),
                plan.num_ranks(),
                s.total_messages,
                s.total_bytes as f64 / 1024.0,
                s.total_bytes as f64 / s.total_messages.max(1) as f64
            );
        }
        println!(
            "  (paper: 'we attribute this to the smaller number of messages in the hybrid case')\n"
        );
    }

    if run("eager") {
        println!("--- ablation: eager-threshold sensitivity (task mode, per-LD) ---");
        for threshold in [0usize, 1 << 10, 1 << 13, 1 << 16, usize::MAX / 2] {
            let mut cfg = SimConfig::new(KernelMode::TaskMode).with_kappa(2.5);
            cfg.eager_threshold_bytes = threshold;
            let r = simulate_job(&m, &cluster, nodes, HybridLayout::ProcessPerLd, &cfg);
            let label = if threshold > 1 << 30 {
                "all eager".to_string()
            } else {
                format!("{} B", threshold)
            };
            println!("  threshold {label:<12} {:.2} GFlop/s", r.gflops);
        }
        println!();
    }

    if run("commstrategy") {
        println!("--- ablation: flat vs node-aware halo exchange (32 ranks, 4/node) ---");
        let ranks = 32.min(m.nrows());
        let rpn = 4;
        let p = RowPartition::by_nnz(&m, ranks);
        let plans = spmv_core::plan::build_plans_serial(&m, &p);
        let map = RankNodeMap::contiguous(ranks, rpn);
        let levels = CommLevels::from_cluster(&cluster);
        // per-rank traffic counted over each rank's exchange op list
        let price = |node_map: Option<&RankNodeMap>| {
            let per_rank: Vec<RankTraffic> = ExchangeSchedule::world(&plans, node_map)
                .iter()
                .map(|s| s.traffic(&map))
                .collect();
            let model = levels.job_exchange_time(&per_rank);
            (per_rank.into_iter().sum::<RankTraffic>(), model)
        };
        let (flat_sum, flat_t) = price(None);
        let (na_sum, na_t) = price(Some(&map));
        for (name, s, t) in [("flat", flat_sum, flat_t), ("node-aware", na_sum, na_t)] {
            println!(
                "  {name:<11} inter {:>4} msgs / {:>7.1} KiB, intra {:>4} msgs / {:>7.1} KiB, \
                 model {:>6.1} us/exchange",
                s.inter_msgs,
                s.inter_bytes as f64 / 1024.0,
                s.intra_msgs,
                s.intra_bytes as f64 / 1024.0,
                t * 1e6
            );
        }
        // crossover for a representative node pair: the flat traffic of the
        // busiest pair, swept over per-pair message counts
        let pair_bytes = (flat_sum.inter_bytes / flat_sum.inter_msgs.max(1)).max(1);
        match crossover_messages(&levels, pair_bytes, rpn, 64) {
            Some(c) => println!(
                "  model crossover: aggregation wins from {c} messages/node-pair \
                 (at {pair_bytes} B per flat message)"
            ),
            None => println!(
                "  model crossover: none up to 64 messages/node-pair (bandwidth-dominated)"
            ),
        }
        println!();
    }

    if run("kernel") {
        println!("--- ablation: node-level kernels (wall clock on this host) ---");
        let b = Bench::quick();
        let flops = 2.0 * m.nnz() as f64;
        let x = spmv_matrix::vecops::random_vec(m.ncols(), 11);
        let mut y = vec![0.0; m.nrows()];
        let csr = KernelKind::CsrScalar;
        let k = prepare_kernel(csr, &m);
        let meas = b.measure(|| {
            k.spmv_rows(
                &m,
                0..m.nrows(),
                std::hint::black_box(&x),
                std::hint::black_box(&mut y),
                false,
            );
        });
        println!(
            "  {:<16} {:.2} GFlop/s (serial, full matrix)",
            csr.label(),
            meas.gflops(flops)
        );
        // SELL pads each chunk to its longest row: α stored slots per
        // nonzero, and the storage that costs against CRS
        for (c, sigma) in [(32, 256), (8, 64)] {
            let sell = SellMatrix::from_csr(&m, c, sigma);
            let meas = b.measure(|| {
                sell.spmv(std::hint::black_box(&x), std::hint::black_box(&mut y));
            });
            let (label, ratio) = (
                format!("sell-{c}-{sigma}"),
                sell.storage_bytes() as f64 / m.storage_bytes() as f64,
            );
            println!(
                "  {label:<16} {:.2} GFlop/s (serial, full matrix), α {:.3}, storage {ratio:.2}x CRS",
                meas.gflops(flops),
                sell.padding_factor()
            );
        }
        // the engine's storage of the same rows: a one-rank split block,
        // which streams 4 bytes per nonzero when its values are coded
        let p = RowPartition::by_nnz(&m, 1);
        let block = m.row_block(p.range(0));
        let split = SplitMatrix::build(&block, &build_plans_serial(&m, &p)[0]);
        let full = &split.full;
        let k = prepare_kernel(csr, full);
        let meas = b.measure(|| {
            k.spmv_rows(
                full,
                0..full.nrows(),
                std::hint::black_box(&x),
                std::hint::black_box(&mut y),
                false,
            );
        });
        let storage = if full.is_coded() {
            "value-coded, 4 B/nnz against 12 plain"
        } else {
            "plain, 12 B/nnz: its values do not fit a table"
        };
        println!(
            "  {:<16} {:.2} GFlop/s (serial, one-rank engine block, {storage})",
            csr.label(),
            meas.gflops(flops)
        );

        // csr-scalar through the full engine, all three modes
        println!("  functional engine (4 ranks x 2 threads, kernel {csr}):");
        let mut y_ref = vec![0.0; m.nrows()];
        m.spmv(&x, &mut y_ref);
        for mode in KernelMode::ALL {
            let cfg = if mode.needs_comm_thread() {
                EngineConfig::task_mode(2)
            } else {
                EngineConfig::hybrid(2)
            };
            let t0 = std::time::Instant::now();
            let y_eng = distributed_spmv(&m, &x, 4, cfg, mode);
            let dt = t0.elapsed().as_secs_f64();
            let err = spmv_matrix::vecops::rel_error(&y_eng, &y_ref);
            println!(
                "    {:<22} rel err {err:.2e}, wall {:.2} ms (incl. setup)",
                mode.label(),
                dt * 1e3
            );
            assert!(err < 1e-9, "engine must match the serial kernel");
            if mode == KernelMode::VectorNoOverlap {
                // the kernel sums each unsplit row in storage order
                let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert!(
                    bits(&y_eng) == bits(&y_ref),
                    "vector mode without overlap must keep the serial bits"
                );
            }
        }
    }

    if let Some(out) = &trace_path {
        use spmv_obs::{chrome_trace_json, validate_json, RunTrace};
        let x = spmv_matrix::vecops::random_vec(m.nrows(), 23);
        let traces = spmv_core::runner::run_spmd(
            &m,
            4,
            EngineConfig::task_mode(2).with_tracing(true),
            |eng| {
                let lo = eng.row_start();
                let n = eng.local_len();
                let x_local = x[lo..lo + n].to_vec();
                let mut y = vec![0.0; n];
                for _ in 0..3 {
                    eng.apply_checked(&x_local, &mut y, KernelMode::TaskMode)
                        .expect("fault-free world");
                }
                eng.take_trace().expect("tracing enabled")
            },
        );
        let run = RunTrace::from_ranks(traces);
        let doc = chrome_trace_json(&run);
        validate_json(&doc).unwrap_or_else(|e| panic!("chrome trace is not valid JSON: {e}"));
        std::fs::write(out, &doc).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!(
            "\nwrote measured task-mode trace ({} spans, overlap eff {:.3}) to {out}",
            run.events.len(),
            run.mean_overlap_efficiency()
        );
    }
}
