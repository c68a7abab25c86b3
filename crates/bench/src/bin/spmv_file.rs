//! Analyze and benchmark a user-supplied Matrix Market file with the full
//! hybrid-SpMV pipeline — the entry point for applying the paper's
//! methodology to *your* matrix.
//!
//! ```text
//! cargo run --release -p spmv-bench --bin spmv_file -- <matrix.mtx> [ranks] [threads] \
//!     [--comm-strategy flat|node-aware] [--ranks-per-node N] [--trace <path>]
//! ```
//!
//! `-h` / `--help` prints the usage line and exits 0; any other unknown
//! `--flag` prints it and exits 2.
//!
//! The matrix argument also accepts the built-in pseudo-paths
//! `holstein:<scale>` and `samg:<scale>` (`test|medium|paper`) so the
//! pipeline can run without a Matrix Market file on disk — the form CI
//! uses for its trace smoke job.
//!
//! Reports: sparsity statistics, the cache-model κ, the code-balance
//! prediction for a Westmere socket, per-layout communication summaries,
//! functional validation of all three kernel modes (real threads), and the
//! simulated strong-scaling ranking at 8 nodes.
//!
//! `--trace <path>` (or the `SPMV_TRACE=<path>` environment override,
//! mirroring `SPMV_COMM_STRATEGY`) re-runs the three kernel modes with
//! measured-time tracing enabled, writes the merged chrome://tracing JSON
//! to `<path>`, self-validates it (the JSON must parse and carry the
//! expected phase vocabulary — a failed check aborts with nonzero exit),
//! and prints measured-vs-model drift.
//!
//! `--verify-plan` statically checks the communication plan for the chosen
//! rank count and exchange strategy *before* any engine runs: every posted
//! message must have a matching receive with identical byte count, tags
//! must be unique per flow, gather programs may only index owned columns,
//! and the blocking schedule must be deadlock-free. Violations print as
//! typed diagnostics and exit nonzero; on success the run continues with
//! construction-time verification forced on in every engine.

use spmv_bench::{header, holstein_params, samg_params, Scale};
use spmv_core::engine::{CommStrategy, EngineConfig};
use spmv_core::plan::build_plans_serial;
use spmv_core::runner::{distributed_spmv, run_spmd};
use spmv_core::{verify_plans, workload, KernelMode, RowPartition};
use spmv_machine::{presets, HybridLayout};
use spmv_matrix::CsrMatrix;
use spmv_model::{code_balance_crs, estimate_kappa, predicted_gflops};
use spmv_obs::{chrome_trace_json, validate_json, ModelDrift, RunTrace, TraceMetrics};
use spmv_sim::scaling::simulate_modes;
use spmv_sim::SimConfig;
use std::io::BufReader;

const USAGE: &str =
    "usage: spmv_file <matrix.mtx|holstein:<scale>|samg:<scale>> [ranks] [threads] \
     [--comm-strategy flat|node-aware] [--ranks-per-node N] \
     [--trace <path>] [--verify-plan]";

/// Loads the matrix argument: `holstein:<scale>` and `samg:<scale>` build
/// the paper's application matrices in-process, anything else is read as a
/// Matrix Market file.
fn load_matrix(path: &str) -> CsrMatrix {
    let scale = |name: &str| match name {
        "test" => Scale::Test,
        "medium" => Scale::Medium,
        "paper" => Scale::Paper,
        other => {
            eprintln!("unknown scale '{other}' (use test|medium|paper)");
            std::process::exit(2);
        }
    };
    if let Some(s) = path.strip_prefix("holstein:") {
        return spmv_matrix::holstein::hamiltonian(&holstein_params(
            scale(s),
            spmv_matrix::holstein::HolsteinOrdering::ElectronContiguous,
        ));
    }
    if let Some(s) = path.strip_prefix("samg:") {
        return spmv_matrix::samg::poisson(&samg_params(scale(s)));
    }
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    spmv_matrix::io::read_matrix_market(BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    })
}

/// Re-runs every kernel mode with tracing on, writes the merged chrome
/// trace to `out`, and self-validates the export — the trace smoke job's
/// contract. Panics (nonzero exit) when the JSON or the phase vocabulary
/// is broken.
fn traced_runs(
    m: &CsrMatrix,
    x: &[f64],
    ranks: usize,
    threads: usize,
    comm_strategy: CommStrategy,
    predicted: f64,
    out: &str,
) {
    println!("\nmeasured-time trace ({ranks} ranks x {threads} threads, 3 SpMVs per mode):");
    let mut parts = Vec::new();
    let mut task_gflops = None;
    for mode in KernelMode::ALL {
        let cfg = if mode.needs_comm_thread() {
            EngineConfig::task_mode(threads)
        } else {
            EngineConfig::hybrid(threads)
        }
        .with_comm_strategy(comm_strategy)
        .with_tracing(true);
        let traces = run_spmd(m, ranks, cfg, |eng| {
            let lo = eng.row_start();
            let n = eng.local_len();
            let x_local = x[lo..lo + n].to_vec();
            let mut y = vec![0.0; n];
            for _ in 0..3 {
                eng.apply_checked(&x_local, &mut y, mode)
                    .expect("fault-free world");
            }
            eng.take_trace().expect("tracing enabled")
        });
        let run = RunTrace::from_ranks(traces.iter().cloned());
        let metrics = TraceMetrics::from_trace(&run);
        println!(
            "  {:<22} overlap eff {:.3}, measured {:.2} GFlop/s, {} spans",
            mode.label(),
            run.mean_overlap_efficiency(),
            metrics.mean_gflops(),
            run.events.len()
        );
        if mode == KernelMode::TaskMode {
            task_gflops = Some(metrics.mean_gflops());
        }
        parts.extend(traces);
    }

    let merged = RunTrace::from_ranks(parts);
    assert!(!merged.events.is_empty(), "traced run produced no spans");
    // the phase vocabulary of the three schedules; a missing label means
    // an instrumentation site regressed
    let labels = merged.phase_labels();
    let expected: std::collections::BTreeSet<&str> = KernelMode::ALL
        .iter()
        .flat_map(|m| m.lanes().iter().flat_map(|l| l.iter()))
        .map(|s| s.phase().label())
        .collect();
    for &want in &expected {
        assert!(
            labels.contains(want),
            "trace lacks phase '{want}' — an instrumentation site regressed \
             (labels present: {labels:?})"
        );
    }
    let doc = chrome_trace_json(&merged);
    validate_json(&doc).unwrap_or_else(|e| panic!("chrome trace export is not valid JSON: {e}"));
    std::fs::write(out, &doc).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!(
        "  wrote {} spans to {out} (chrome://tracing JSON, validated, \
     all {} expected phase labels present)",
        merged.events.len(),
        expected.len()
    );

    // model drift: the socket-level roofline prediction vs what this host
    // measured through the full distributed engine. In-process ranks share
    // one memory bus, so "slower than model" is the expected verdict — the
    // point of the check is catching silent order-of-magnitude regressions.
    let drift = ModelDrift::new(predicted, task_gflops.unwrap_or(0.0));
    println!(
        "  model drift (task mode): predicted {:.2} GFlop/s, measured {:.2} GFlop/s \
         ({:+.1}%, {:?})",
        drift.predicted_gflops,
        drift.measured_gflops,
        drift.drift_pct(),
        drift.verdict(2.0)
    );
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut strategy_arg: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut ranks_per_node = 4usize;
    let mut verify_plan = false;
    let mut positional = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--comm-strategy" => {
                strategy_arg = Some(it.next().expect("--comm-strategy needs a value").clone());
            }
            "--ranks-per-node" => {
                ranks_per_node = it
                    .next()
                    .expect("--ranks-per-node needs a value")
                    .parse()
                    .expect("ranks per node");
            }
            "--trace" => {
                trace_path = Some(it.next().expect("--trace needs a path").clone());
            }
            "--verify-plan" => verify_plan = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag '{flag}'\n{USAGE}");
                std::process::exit(2);
            }
            _ => positional.push(a.clone()),
        }
    }
    // SPMV_TRACE mirrors SPMV_COMM_STRATEGY: the env var carries the
    // output path and the flag wins when both are given
    if trace_path.is_none() {
        trace_path = std::env::var("SPMV_TRACE").ok().filter(|v| !v.is_empty());
    }
    let comm_strategy = match &strategy_arg {
        Some(v) => CommStrategy::parse(v, ranks_per_node)
            .unwrap_or_else(|| panic!("unknown comm strategy '{v}' (try flat, node-aware)")),
        None => CommStrategy::from_env().unwrap_or(CommStrategy::Flat),
    };
    let Some(path) = positional.first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let ranks: usize = positional
        .get(1)
        .map(|s| s.parse().expect("ranks"))
        .unwrap_or(4);
    let threads: usize = positional
        .get(2)
        .map(|s| s.parse().expect("threads"))
        .unwrap_or(2);

    let m = load_matrix(path);

    header(&format!("hybrid-spmv analysis of {path}"));

    // structure
    let s = spmv_matrix::stats::SparsityStats::compute(&m);
    println!(
        "\nstructure: {} x {}, nnz = {}, N_nzr = {:.2} (min {}, max {}, σ {:.1}), bandwidth = {}",
        s.nrows, s.ncols, s.nnz, s.avg_nnzr, s.min_nnzr, s.max_nnzr, s.stddev_nnzr, s.bandwidth
    );
    if m.nrows() != m.ncols() {
        println!("matrix is not square — distributed SpMV analysis needs a square matrix");
        return;
    }
    let symmetric = m.is_symmetric(1e-12);
    println!("numerically symmetric: {symmetric}");

    // node-level model
    let westmere = presets::westmere_cluster(8);
    let ld = westmere.node.lds()[0];
    let kappa = estimate_kappa(&m, ld.cache_bytes_per_core(), 64).kappa;
    let balance = code_balance_crs(s.avg_nnzr, kappa);
    println!(
        "\nnode-level model (Westmere socket): kappa = {kappa:.2}, B_CRS = {balance:.2} bytes/flop"
    );
    println!(
        "predicted socket performance: {:.2} GFlop/s ({:.2} at kappa = 0)",
        predicted_gflops(ld.spmv_saturated_gbs(), balance),
        predicted_gflops(ld.spmv_saturated_gbs(), code_balance_crs(s.avg_nnzr, 0.0))
    );

    // communication structure per layout
    println!("\ncommunication per SpMV on 8 Westmere nodes:");
    for layout in HybridLayout::ALL {
        let nranks = match layout {
            HybridLayout::ProcessPerCore => 8 * westmere.node.num_cores(),
            HybridLayout::ProcessPerLd => 8 * westmere.node.num_lds(),
            HybridLayout::ProcessPerNode => 8,
        };
        if nranks > m.nrows() {
            println!("  {:<9} skipped (more ranks than rows)", layout.label());
            continue;
        }
        let p = RowPartition::by_nnz(&m, nranks);
        let sum = workload::summarize(&workload::analyze(&m, &p));
        println!(
            "  {:<9} {:>5} ranks: {:>7} msgs, {:>10.1} KiB, worst comm-to-comp {:.4} B/flop",
            layout.label(),
            nranks,
            sum.total_messages,
            sum.total_bytes as f64 / 1024.0,
            sum.worst_comm_to_comp
        );
    }

    // static plan verification: build the same plans the engines will use
    // and prove the message graph sound before spending any compute
    if verify_plan {
        println!(
            "\nstatic plan verification ({ranks} ranks, {} exchange):",
            comm_strategy.label()
        );
        let p = RowPartition::by_nnz(&m, ranks);
        let map = comm_strategy.rank_node_map(ranks);
        match verify_plans(&build_plans_serial(&m, &p), map.as_ref()) {
            Ok(sum) => println!("  plan verified: {sum}"),
            Err(violations) => {
                eprintln!(
                    "  plan verification FAILED ({} violation(s)):",
                    violations.len()
                );
                for v in &violations {
                    eprintln!("    {v}");
                }
                std::process::exit(1);
            }
        }
    }

    // functional validation with real threads
    println!(
        "\nfunctional check ({ranks} ranks x {threads} threads, real threads, {} exchange):",
        comm_strategy.label()
    );
    let x = spmv_matrix::vecops::random_vec(m.nrows(), 42);
    let mut y_ref = vec![0.0; m.nrows()];
    m.spmv(&x, &mut y_ref);
    for mode in KernelMode::ALL {
        let mut cfg = if mode.needs_comm_thread() {
            EngineConfig::task_mode(threads)
        } else {
            EngineConfig::hybrid(threads)
        }
        .with_comm_strategy(comm_strategy);
        if verify_plan {
            // static check passed; also run the distributed verifier
            // inside every engine at construction time
            cfg = cfg.with_verification(true);
        }
        let t0 = std::time::Instant::now();
        let y = distributed_spmv(&m, &x, ranks, cfg, mode);
        let dt = t0.elapsed().as_secs_f64();
        let err = spmv_matrix::vecops::rel_error(&y, &y_ref);
        println!(
            "  {:<22} rel err {err:.2e}, wall {:.2} ms (incl. setup)",
            mode.label(),
            dt * 1e3
        );
        assert!(err < 1e-9, "mode must match the serial kernel");
    }

    // simulated mode ranking at 8 nodes
    if m.nrows() >= 8 * westmere.node.num_lds() {
        println!("\nsimulated on 8 Westmere nodes (per-LD layout, kappa = {kappa:.2}):");
        let cfgs: Vec<SimConfig> = KernelMode::ALL
            .iter()
            .map(|&mode| SimConfig::new(mode).with_kappa(kappa))
            .collect();
        let results = simulate_modes(&m, &westmere, 8, HybridLayout::ProcessPerLd, &cfgs);
        for (mode, r) in KernelMode::ALL.iter().zip(results) {
            match r {
                Some(r) => println!("  {:<22} {:.2} GFlop/s", mode.label(), r.gflops),
                None => println!("  {:<22} (not realizable)", mode.label()),
            }
        }
    }

    if let Some(out) = &trace_path {
        traced_runs(
            &m,
            &x,
            ranks,
            threads,
            comm_strategy,
            predicted_gflops(ld.spmv_saturated_gbs(), balance),
            out,
        );
    }
}
