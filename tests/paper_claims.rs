//! The paper's qualitative claims, asserted against the timing simulator.
//! These are the integration-level "shape" checks behind EXPERIMENTS.md:
//! who wins, by roughly what factor, and where the crossovers fall.

use hybrid_spmv::prelude::*;

fn hmep_medium() -> CsrMatrix {
    holstein::hamiltonian(&HolsteinParams::medium_scale(
        HolsteinOrdering::ElectronContiguous,
    ))
}

fn samg_medium() -> CsrMatrix {
    samg::poisson(&SamgParams::medium_scale())
}

/// §4/Fig. 5: for the communication-bound HMeP matrix, task mode scales to
/// higher node counts than either vector mode.
#[test]
fn task_mode_wins_for_hmep_at_scale() {
    let m = hmep_medium();
    let cluster = presets::westmere_cluster(8);
    let mut gflops = std::collections::HashMap::new();
    for mode in KernelMode::ALL {
        let cfg = SimConfig::new(mode).with_kappa(2.5);
        let r = simulate_job(&m, &cluster, 8, HybridLayout::ProcessPerLd, &cfg);
        gflops.insert(mode, r.gflops);
    }
    let task = gflops[&KernelMode::TaskMode];
    let novl = gflops[&KernelMode::VectorNoOverlap];
    let naive = gflops[&KernelMode::VectorNaiveOverlap];
    assert!(task > novl, "task {task} must beat no-overlap {novl}");
    assert!(
        naive <= novl * 1.02,
        "naive overlap ({naive}) must not beat no-overlap ({novl}): no async progress"
    );
}

/// §4/Fig. 5 (left panel): "vector mode with naive overlap is always slower
/// than the variant without overlap because the additional data transfer on
/// the result vector cannot be compensated".
#[test]
fn naive_overlap_pays_split_penalty_per_core() {
    let m = hmep_medium();
    let cluster = presets::westmere_cluster(4);
    let novl = simulate_job(
        &m,
        &cluster,
        4,
        HybridLayout::ProcessPerCore,
        &SimConfig::new(KernelMode::VectorNoOverlap).with_kappa(2.5),
    );
    let naive = simulate_job(
        &m,
        &cluster,
        4,
        HybridLayout::ProcessPerCore,
        &SimConfig::new(KernelMode::VectorNaiveOverlap).with_kappa(2.5),
    );
    assert!(
        naive.gflops < novl.gflops,
        "naive {} must lose to no-overlap {}",
        naive.gflops,
        novl.gflops
    );
}

/// §4/Fig. 6: for the weakly coupled sAMG matrix "all variants and hybrid
/// modes show similar scaling behavior and there is no advantage of task
/// mode over naive, pure MPI without overlap".
#[test]
fn samg_shows_no_task_mode_advantage() {
    let m = samg_medium();
    let cluster = presets::westmere_cluster(8);
    let novl = simulate_job(
        &m,
        &cluster,
        8,
        HybridLayout::ProcessPerLd,
        &SimConfig::new(KernelMode::VectorNoOverlap),
    );
    let task = simulate_job(
        &m,
        &cluster,
        8,
        HybridLayout::ProcessPerLd,
        &SimConfig::new(KernelMode::TaskMode),
    );
    let ratio = task.gflops / novl.gflops;
    assert!(
        (0.85..1.15).contains(&ratio),
        "sAMG: task/no-overlap ratio {ratio} should be ≈ 1"
    );
}

/// §5: "explicit overlap enabled substantial performance gains ...
/// especially when running one process per NUMA domain or per node" — the
/// task-mode advantage must be at least as large for per-LD as per-core.
#[test]
fn task_mode_advantage_grows_with_aggregation() {
    let m = hmep_medium();
    let nodes = 8;
    let cluster = presets::westmere_cluster(nodes);
    let advantage = |layout: HybridLayout| -> f64 {
        let novl = simulate_job(
            &m,
            &cluster,
            nodes,
            layout,
            &SimConfig::new(KernelMode::VectorNoOverlap).with_kappa(2.5),
        );
        let task = simulate_job(
            &m,
            &cluster,
            nodes,
            layout,
            &SimConfig::new(KernelMode::TaskMode).with_kappa(2.5),
        );
        task.gflops / novl.gflops
    };
    let per_ld = advantage(HybridLayout::ProcessPerLd);
    let per_node = advantage(HybridLayout::ProcessPerNode);
    assert!(per_ld > 1.0, "per-LD advantage {per_ld}");
    assert!(per_node > 1.0, "per-node advantage {per_node}");
}

/// Fig. 4, scored with the metric the measured trace suite uses: on rank 0
/// of `fig4_timelines`' test-scale setup, neither vector mode hides any
/// communication under compute, while task mode's comm lane waits
/// through the compute lane's local SpMV.
#[test]
fn simulated_fig4_overlap_matches_the_measured_metric() {
    let m = holstein::hamiltonian(&HolsteinParams::test_scale(
        HolsteinOrdering::ElectronContiguous,
    ));
    let cluster = presets::westmere_cluster(2);
    for mode in KernelMode::ALL {
        let cfg = SimConfig::new(mode).with_kappa(2.5);
        let r = simulate_job(&m, &cluster, 2, HybridLayout::ProcessPerLd, &cfg);
        let eff = r.trace.overlap_efficiency(0);
        if mode.needs_comm_thread() {
            assert!(eff > 0.0, "{mode}: task mode must overlap, got {eff}");
        } else {
            assert_eq!(eff, 0.0, "{mode}: vector mode cannot overlap");
        }
    }
}

/// §3/§5: "MPI libraries with support for progress threads could follow the
/// same strategy" — with async progress the naive-overlap variant catches
/// up to task mode.
#[test]
fn async_progress_closes_the_gap() {
    let m = hmep_medium();
    let cluster = presets::westmere_cluster(8);
    let naive_std = simulate_job(
        &m,
        &cluster,
        8,
        HybridLayout::ProcessPerLd,
        &SimConfig::new(KernelMode::VectorNaiveOverlap).with_kappa(2.5),
    );
    let naive_async = simulate_job(
        &m,
        &cluster,
        8,
        HybridLayout::ProcessPerLd,
        &SimConfig::new(KernelMode::VectorNaiveOverlap)
            .with_kappa(2.5)
            .with_progress(ProgressModel::Async),
    );
    assert!(
        naive_async.gflops > naive_std.gflops,
        "async progress must help naive overlap: {} vs {}",
        naive_async.gflops,
        naive_std.gflops
    );
}

/// Fig. 3 (via the model): single-LD SpMV saturates around 4 threads while
/// STREAM saturates earlier — the resource slack task mode exploits.
#[test]
fn node_level_saturation_shape() {
    let node = presets::westmere_ep_node();
    let ld = node.lds()[0];
    let balance = code_balance_crs(15.0, 2.5);
    let curve = spmv_model::roofline::ld_scaling_curve(ld, balance);
    // performance grows monotonically but with strongly diminishing returns
    assert!(
        curve[3].gflops / curve[0].gflops > 2.0,
        "4 cores much faster than 1"
    );
    let last_gain = curve[5].gflops - curve[4].gflops;
    let first_gain = curve[1].gflops - curve[0].gflops;
    assert!(
        last_gain < 0.3 * first_gain,
        "saturation: marginal core adds little"
    );
}

/// Fig. 1: the HMeP/HMEp orderings have visibly different block structure
/// (different bandwidth and row spread), though they are permutations of
/// the same operator.
#[test]
fn orderings_change_structure_not_spectrum() {
    let e = holstein::hamiltonian(&HolsteinParams::test_scale(
        HolsteinOrdering::ElectronContiguous,
    ));
    let p = holstein::hamiltonian(&HolsteinParams::test_scale(
        HolsteinOrdering::PhononContiguous,
    ));
    let se = spmv_matrix::stats::SparsityStats::compute(&e);
    let sp = spmv_matrix::stats::SparsityStats::compute(&p);
    assert_eq!(se.nnz, sp.nnz);
    assert!(
        (se.avg_row_spread - sp.avg_row_spread).abs() > 1.0,
        "orderings should differ structurally: {} vs {}",
        se.avg_row_spread,
        sp.avg_row_spread
    );
    assert!((e.frobenius_norm() - p.frobenius_norm()).abs() < 1e-9);
}

/// §4: "a universal drop in scalability beyond about six nodes ... ascribed
/// to a strong decrease in overall internode communication volume when the
/// number of nodes is small": internode bytes per node grow steeply at
/// first and flatten later.
#[test]
fn internode_volume_growth_flattens() {
    let m = hmep_medium();
    let volume_per_node = |nodes: usize| -> f64 {
        let cluster = presets::westmere_cluster(nodes);
        let r = simulate_job(
            &m,
            &cluster,
            nodes,
            HybridLayout::ProcessPerNode,
            &SimConfig::new(KernelMode::VectorNoOverlap),
        );
        r.bytes_on_wire / nodes as f64
    };
    let v2 = volume_per_node(2);
    let v4 = volume_per_node(4);
    let v8 = volume_per_node(8);
    let early_growth = v4 / v2;
    let late_growth = v8 / v4;
    assert!(
        late_growth < early_growth,
        "volume growth must flatten: {early_growth} then {late_growth}"
    );
}
