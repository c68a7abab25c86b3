//! Randomized invariant tests on the timing simulator: properties that
//! must hold for *any* matrix/layout/mode combination.
//!
//! Formerly proptest-based; now a seeded in-repo fuzz loop (`Rng64`) so the
//! workspace builds fully offline.

use hybrid_spmv::prelude::*;
use spmv_core::workload;
use spmv_machine::{plan_layout, CommThreadPlacement};
use spmv_matrix::rng::Rng64;
use spmv_sim::simulate_spmv;

const CASES: u64 = 24;

fn machine_setup(
    nodes: usize,
    layout: HybridLayout,
    comm: CommThreadPlacement,
) -> (spmv_machine::ClusterSpec, spmv_machine::LayoutPlan) {
    let cluster = presets::westmere_cluster(nodes);
    let plan = plan_layout(&cluster.node, nodes, layout, comm).unwrap();
    (cluster, plan)
}

fn layout_of(idx: usize) -> HybridLayout {
    HybridLayout::ALL[idx % 3]
}

#[test]
fn simulation_is_deterministic() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x51D0 + case);
        let n = rng.gen_range(500, 4000);
        let bw_frac = rng.gen_range(2, 10);
        let nodes = rng.gen_range(1, 5);
        let mode = KernelMode::ALL[rng.gen_index(3)];
        let layout = layout_of(rng.gen_index(3));
        let comm = if mode.needs_comm_thread() {
            CommThreadPlacement::SmtSibling
        } else {
            CommThreadPlacement::None
        };
        let m = synthetic::random_banded_symmetric(n, n / bw_frac, 6.0, 7);
        let (cluster, plan) = machine_setup(nodes, layout, comm);
        let p = RowPartition::by_nnz(&m, plan.num_ranks());
        let w = workload::analyze(&m, &p);
        let cfg = SimConfig::new(mode).with_kappa(1.0);
        let a = simulate_spmv(&cluster, &plan, &w, &cfg);
        let b = simulate_spmv(&cluster, &plan, &w, &cfg);
        assert_eq!(
            a.time_s, b.time_s,
            "case {case}: simulator must be deterministic"
        );
        assert!(a.time_s.is_finite() && a.time_s > 0.0, "case {case}");
        assert!(a.gflops > 0.0, "case {case}");
    }
}

#[test]
fn makespan_at_least_bandwidth_lower_bound() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x51D1 + 31 * case);
        let n = rng.gen_range(2000, 8000);
        let nodes = rng.gen_range(1, 5);
        // the whole job moves at least the matrix bytes through the LDs;
        // no schedule can beat aggregate bandwidth
        let m = synthetic::random_banded_symmetric(n, n / 8, 7.0, 3);
        let (cluster, plan) =
            machine_setup(nodes, HybridLayout::ProcessPerLd, CommThreadPlacement::None);
        let p = RowPartition::by_nnz(&m, plan.num_ranks());
        let w = workload::analyze(&m, &p);
        let r = simulate_spmv(
            &cluster,
            &plan,
            &w,
            &SimConfig::new(KernelMode::VectorNoOverlap),
        );
        let min_bytes = m.nnz() as f64 * 12.0; // val + col_idx alone
        let agg_bw = cluster.node.node_spmv_bw_gbs() * 1e9 * nodes as f64;
        assert!(
            r.time_s >= min_bytes / agg_bw * 0.999,
            "case {case}: makespan {} below physical bound {}",
            r.time_s,
            min_bytes / agg_bw
        );
    }
}

#[test]
fn kappa_monotonically_slows() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x51D2 + 37 * case);
        let n = rng.gen_range(1000, 5000);
        let k1 = rng.gen_range_f64(0.0, 2.0);
        let dk = rng.gen_range_f64(0.5, 3.0);
        let m = synthetic::random_banded_symmetric(n, n / 6, 6.0, 5);
        let (cluster, plan) =
            machine_setup(2, HybridLayout::ProcessPerLd, CommThreadPlacement::None);
        let p = RowPartition::by_nnz(&m, plan.num_ranks());
        let w = workload::analyze(&m, &p);
        let slow = simulate_spmv(
            &cluster,
            &plan,
            &w,
            &SimConfig::new(KernelMode::VectorNoOverlap).with_kappa(k1 + dk),
        );
        let fast = simulate_spmv(
            &cluster,
            &plan,
            &w,
            &SimConfig::new(KernelMode::VectorNoOverlap).with_kappa(k1),
        );
        assert!(
            slow.time_s >= fast.time_s,
            "case {case}: κ must never speed things up"
        );
    }
}

#[test]
fn async_progress_never_slower() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x51D3 + 41 * case);
        let n = rng.gen_range(1000, 5000);
        let nodes = rng.gen_range(2, 5);
        // async progress strictly widens the set of moments a message may
        // flow, so it can only help (vector modes; task mode's comm thread
        // already provides progress)
        let mode = [KernelMode::VectorNoOverlap, KernelMode::VectorNaiveOverlap][rng.gen_index(2)];
        let m = synthetic::scattered(n, 8, 2);
        let (cluster, plan) =
            machine_setup(nodes, HybridLayout::ProcessPerLd, CommThreadPlacement::None);
        let p = RowPartition::by_nnz(&m, plan.num_ranks());
        let w = workload::analyze(&m, &p);
        let std_ = simulate_spmv(&cluster, &plan, &w, &SimConfig::new(mode));
        let asy = simulate_spmv(
            &cluster,
            &plan,
            &w,
            &SimConfig::new(mode).with_progress(ProgressModel::Async),
        );
        assert!(
            asy.time_s <= std_.time_s * 1.0001,
            "case {case}: async {} vs standard {}",
            asy.time_s,
            std_.time_s
        );
    }
}

#[test]
fn trace_events_are_well_formed() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x51D4 + 43 * case);
        let n = rng.gen_range(500, 3000);
        let mode = KernelMode::ALL[rng.gen_index(3)];
        let comm = if mode.needs_comm_thread() {
            CommThreadPlacement::SmtSibling
        } else {
            CommThreadPlacement::None
        };
        let m = synthetic::random_banded_symmetric(n, n / 5, 6.0, 9);
        let (cluster, plan) = machine_setup(2, HybridLayout::ProcessPerLd, comm);
        let p = RowPartition::by_nnz(&m, plan.num_ranks());
        let w = workload::analyze(&m, &p);
        let r = simulate_spmv(&cluster, &plan, &w, &SimConfig::new(mode));
        let t = r.trace;
        assert!(!t.events.is_empty(), "case {case}");
        for e in &t.events {
            assert!(e.t0 >= 0.0, "case {case}");
            assert!(e.t1 >= e.t0, "case {case}");
            assert!(
                e.t1 <= r.time_s * (1.0 + 1e-9),
                "case {case}: event past makespan"
            );
            assert!(e.rank < plan.num_ranks(), "case {case}");
        }
        // within one lane, events must not overlap
        for rank in 0..plan.num_ranks() {
            let mut by_lane: std::collections::HashMap<usize, Vec<(f64, f64)>> =
                std::collections::HashMap::new();
            for e in t.events.iter().filter(|e| e.rank == rank) {
                by_lane.entry(e.lane).or_default().push((e.t0, e.t1));
            }
            for (_, mut segs) in by_lane {
                segs.sort_by(|a, b| a.0.total_cmp(&b.0));
                for w2 in segs.windows(2) {
                    assert!(
                        w2[0].1 <= w2[1].0 + 1e-12,
                        "case {case}: lane events overlap: {w2:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn message_accounting_matches_plan() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x51D5 + 47 * case);
        let n = rng.gen_range(500, 3000);
        let parts = rng.gen_range(2, 8);
        let m = synthetic::random_general(n, n, 6, 4);
        let p = RowPartition::by_nnz(&m, parts);
        let w = workload::analyze(&m, &p);
        let total_msgs: usize = w.iter().map(|r| r.sends.len()).sum();
        let total_bytes: usize = w.iter().map(|r| r.bytes_out()).sum();
        let (cluster, plan) = machine_setup(
            parts.div_ceil(2),
            HybridLayout::ProcessPerLd,
            CommThreadPlacement::None,
        );
        // only run when the layout matches the partition
        if plan.num_ranks() != parts {
            continue;
        }
        let r = simulate_spmv(
            &cluster,
            &plan,
            &w,
            &SimConfig::new(KernelMode::VectorNoOverlap),
        );
        assert_eq!(r.messages, total_msgs, "case {case}");
        assert!(
            (r.bytes_on_wire - total_bytes as f64).abs() < 0.5,
            "case {case}"
        );
    }
}
