//! Solver-level timing: from one SpMV to time-to-solution.
//!
//! The paper prices a single SpMV because "sparse MVM is the most
//! time-consuming step" of the solvers it motivates (§1). This module
//! closes the loop: it prices a whole iteration of the two solver families
//! on top of the SpMV simulation —
//!
//! * **CG-like** (the sAMG use case): per iteration one SpMV, two global
//!   dot products (allreduce), three AXPY-class vector sweeps;
//! * **Lanczos-like** (the exact-diagonalization use case): one SpMV, two
//!   dots, two sweeps.
//!
//! The vector sweeps are memory-bound and node-local; the allreduces cost
//! `2·⌈log₂ P⌉` message latencies each (tree reduction + broadcast) and
//! synchronize all ranks. At large node counts the reductions become the
//! scaling wall even when the SpMV still scales — which is why real codes
//! chase communication-avoiding solver variants. The
//! `solver_time_to_solution` bin quantifies this on the modeled clusters.

use crate::fluid::{simulate_spmv, SimResult};
use crate::program::SimConfig;
use spmv_core::RankWorkload;
use spmv_machine::topology::ClusterSpec;
use spmv_machine::LayoutPlan;

/// Per-iteration cost structure of an iterative solver, in units the
/// simulator prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverShape {
    /// SpMV applications per iteration.
    pub spmvs: usize,
    /// Global reductions (dot products / norms) per iteration.
    pub reductions: usize,
    /// AXPY-class full-vector sweeps per iteration (each reads two vectors
    /// and writes one: 32 bytes per element with write allocate).
    pub vector_sweeps: usize,
}

impl SolverShape {
    /// Unpreconditioned CG: 1 SpMV, 2 dots, 3 sweeps (`x`, `r`, `p`).
    pub fn cg() -> Self {
        Self {
            spmvs: 1,
            reductions: 2,
            vector_sweeps: 3,
        }
    }

    /// Symmetric Lanczos: 1 SpMV, 2 dots (α and β), 2 sweeps.
    pub fn lanczos() -> Self {
        Self {
            spmvs: 1,
            reductions: 2,
            vector_sweeps: 2,
        }
    }
}

/// Timing breakdown of a simulated solver run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverTime {
    /// Seconds per iteration in total.
    pub per_iteration_s: f64,
    /// SpMV share per iteration.
    pub spmv_s: f64,
    /// Reduction (allreduce) share per iteration.
    pub reduction_s: f64,
    /// Vector-sweep share per iteration.
    pub sweeps_s: f64,
    /// Total for the requested iteration count.
    pub total_s: f64,
}

impl SolverTime {
    /// Fraction of an iteration spent in global reductions — the solver
    /// scaling wall indicator.
    pub fn reduction_fraction(&self) -> f64 {
        if self.per_iteration_s > 0.0 {
            self.reduction_s / self.per_iteration_s
        } else {
            0.0
        }
    }
}

/// Seconds for one allreduce over `ranks` ranks: a reduce+broadcast tree,
/// `2·⌈log₂ P⌉` hops of network latency (intranode hops use the cheaper
/// intranode latency in proportion to the rank mix).
pub fn allreduce_time(cluster: &ClusterSpec, layout: &LayoutPlan) -> f64 {
    let p = layout.num_ranks();
    if p <= 1 {
        return 0.0;
    }
    let hops = 2.0 * (p as f64).log2().ceil();
    // mix of intranode and internode hops: with R ranks per node, the
    // bottom log2(R) tree levels stay on-node
    let rpn = layout.ranks_per_node().max(1) as f64;
    let intra_levels = rpn.log2().ceil().min(hops / 2.0);
    let inter_levels = (hops / 2.0 - intra_levels).max(0.0);
    let intra = cluster.intranode.latency_us * 1e-6;
    let inter = cluster.network.latency_s();
    2.0 * (intra_levels * intra + inter_levels * inter)
}

/// Seconds for one AXPY-class sweep: every rank streams its local vector
/// share (32 B/element) against its locality domains' *streaming*
/// bandwidth; all ranks sweep concurrently, so the slowest rank decides.
pub fn sweep_time(cluster: &ClusterSpec, layout: &LayoutPlan, workloads: &[RankWorkload]) -> f64 {
    let lds = cluster.node.lds();
    let lds_per_node = cluster.node.num_lds();
    workloads
        .iter()
        .map(|w| {
            let placement = &layout.ranks[w.rank];
            let bw: f64 = placement
                .lds
                .iter()
                .zip(placement.compute_threads_per_ld())
                .map(|(&ld, t)| lds[ld % lds_per_node].stream_bw.bandwidth(t) * 1e9)
                .sum();
            if bw > 0.0 {
                w.rows as f64 * 32.0 / bw
            } else {
                0.0
            }
        })
        .fold(0.0, f64::max)
}

/// Prices `iterations` of a solver with the given shape: the SpMV comes
/// from the fluid simulator (one representative SpMV), reductions and
/// sweeps from the models above.
pub fn simulate_solver(
    cluster: &ClusterSpec,
    layout: &LayoutPlan,
    workloads: &[RankWorkload],
    cfg: &SimConfig,
    shape: SolverShape,
    iterations: usize,
) -> (SolverTime, SimResult) {
    let spmv = simulate_spmv(cluster, layout, workloads, cfg);
    let red = allreduce_time(cluster, layout);
    let sweep = sweep_time(cluster, layout, workloads);
    let spmv_s = spmv.time_s * shape.spmvs as f64;
    let reduction_s = red * shape.reductions as f64;
    let sweeps_s = sweep * shape.vector_sweeps as f64;
    let per = spmv_s + reduction_s + sweeps_s;
    (
        SolverTime {
            per_iteration_s: per,
            spmv_s,
            reduction_s,
            sweeps_s,
            total_s: per * iterations as f64,
        },
        spmv,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::{workload, KernelMode, RowPartition};
    use spmv_machine::{plan_layout, presets, CommThreadPlacement, HybridLayout};
    use spmv_matrix::synthetic;

    fn setup(nodes: usize) -> (ClusterSpec, LayoutPlan, Vec<RankWorkload>) {
        let cluster = presets::westmere_cluster(nodes);
        let layout = plan_layout(
            &cluster.node,
            nodes,
            HybridLayout::ProcessPerLd,
            CommThreadPlacement::None,
        )
        .unwrap();
        let m = synthetic::random_banded_symmetric(100_000, 2_000, 7.0, 5);
        let p = RowPartition::by_nnz(&m, layout.num_ranks());
        let w = workload::analyze(&m, &p);
        (cluster, layout, w)
    }

    #[test]
    fn solver_time_decomposes_consistently() {
        let (cluster, layout, w) = setup(2);
        let (t, _) = simulate_solver(
            &cluster,
            &layout,
            &w,
            &SimConfig::new(KernelMode::VectorNoOverlap),
            SolverShape::cg(),
            100,
        );
        assert!(t.per_iteration_s > 0.0);
        assert!((t.per_iteration_s - (t.spmv_s + t.reduction_s + t.sweeps_s)).abs() < 1e-15);
        assert!((t.total_s - 100.0 * t.per_iteration_s).abs() < 1e-12);
        assert!(t.reduction_fraction() < 1.0);
    }

    #[test]
    fn single_rank_has_free_reductions() {
        let cluster = presets::westmere_cluster(1);
        let layout = plan_layout(
            &cluster.node,
            1,
            HybridLayout::ProcessPerNode,
            CommThreadPlacement::None,
        )
        .unwrap();
        assert_eq!(allreduce_time(&cluster, &layout), 0.0);
    }

    #[test]
    fn reduction_fraction_grows_with_node_count() {
        // the solver scaling wall: more ranks -> more latency hops while the
        // per-rank vector work shrinks
        let frac = |nodes: usize| {
            let (cluster, layout, w) = setup(nodes);
            let (t, _) = simulate_solver(
                &cluster,
                &layout,
                &w,
                &SimConfig::new(KernelMode::TaskMode),
                SolverShape::cg(),
                1,
            );
            t.reduction_fraction()
        };
        assert!(frac(8) > frac(1), "{} vs {}", frac(8), frac(1));
    }

    #[test]
    fn lanczos_costs_less_per_iteration_than_cg() {
        let (cluster, layout, w) = setup(2);
        let cfg = SimConfig::new(KernelMode::VectorNoOverlap);
        let (cg, _) = simulate_solver(&cluster, &layout, &w, &cfg, SolverShape::cg(), 1);
        let (lz, _) = simulate_solver(&cluster, &layout, &w, &cfg, SolverShape::lanczos(), 1);
        assert!(lz.per_iteration_s < cg.per_iteration_s);
    }

    #[test]
    fn sweep_time_scales_inversely_with_nodes() {
        let (c1, l1, w1) = setup(1);
        let (c4, l4, w4) = setup(4);
        let s1 = sweep_time(&c1, &l1, &w1);
        let s4 = sweep_time(&c4, &l4, &w4);
        assert!(s4 < s1, "{s4} vs {s1}");
    }
}
