//! Rank/thread placement — the paper's three hybrid layouts.
//!
//! Figures 5 and 6 compare every kernel variant under three placements:
//! one MPI process per **physical core** (pure MPI), per **NUMA locality
//! domain**, and per **node**. Task mode additionally needs a home for the
//! dedicated communication thread: an SMT "virtual core" (Intel) or a
//! donated physical core (paper §3.2).

use crate::topology::NodeTopology;

/// The paper's three process-placement strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HybridLayout {
    /// One single-threaded MPI process per physical core ("pure MPI").
    ProcessPerCore,
    /// One multithreaded MPI process per NUMA locality domain.
    ProcessPerLd,
    /// One multithreaded MPI process per node.
    ProcessPerNode,
}

impl HybridLayout {
    /// All three layouts, in the order of the paper's figure panels.
    pub const ALL: [HybridLayout; 3] = [
        HybridLayout::ProcessPerCore,
        HybridLayout::ProcessPerLd,
        HybridLayout::ProcessPerNode,
    ];

    /// Short label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            HybridLayout::ProcessPerCore => "per-core",
            HybridLayout::ProcessPerLd => "per-LD",
            HybridLayout::ProcessPerNode => "per-node",
        }
    }
}

/// Where a rank's dedicated communication thread lives (task mode only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommThreadPlacement {
    /// No communication thread (vector modes and pure MPI).
    None,
    /// On an SMT sibling ("virtual core") — all physical cores keep
    /// computing. Requires SMT hardware.
    SmtSibling,
    /// On a donated physical core — one fewer compute thread. The paper
    /// notes this makes no difference once the memory bus is saturated.
    DedicatedCore,
}

/// Errors from layout planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// `SmtSibling` requested on hardware without SMT.
    NoSmtAvailable,
    /// `DedicatedCore` would leave a rank with zero compute threads.
    NoComputeThreadsLeft,
    /// Zero nodes requested.
    EmptyCluster,
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::NoSmtAvailable => write!(f, "machine has no SMT for the comm thread"),
            LayoutError::NoComputeThreadsLeft => {
                write!(
                    f,
                    "dedicating a core to communication leaves no compute threads"
                )
            }
            LayoutError::EmptyCluster => write!(f, "cluster must have at least one node"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// Placement of one MPI rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPlacement {
    /// Rank id (0-based, dense).
    pub rank: usize,
    /// Node hosting the rank.
    pub node: usize,
    /// Global LD ids (node-major) this rank's threads span.
    pub lds: Vec<usize>,
    /// Number of compute threads.
    pub compute_threads: usize,
    /// Communication thread placement.
    pub comm: CommThreadPlacement,
}

impl RankPlacement {
    /// Compute threads assigned to each spanned LD (contiguous split; the
    /// remainder goes to the earlier LDs).
    pub fn compute_threads_per_ld(&self) -> Vec<usize> {
        let n = self.lds.len();
        let base = self.compute_threads / n;
        let extra = self.compute_threads % n;
        (0..n).map(|i| base + usize::from(i < extra)).collect()
    }
}

/// A full placement of ranks across a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutPlan {
    /// The layout this plan realizes.
    pub layout: HybridLayout,
    /// Number of nodes used.
    pub num_nodes: usize,
    /// Per-rank placements, rank-ordered.
    pub ranks: Vec<RankPlacement>,
}

impl LayoutPlan {
    /// Total number of MPI ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Ranks per node (homogeneous by construction).
    pub fn ranks_per_node(&self) -> usize {
        self.ranks.len() / self.num_nodes
    }

    /// The rank → node mapping of this plan, for topology-aware
    /// communication. Placement is node-major by construction, so the map
    /// is always contiguous.
    pub fn rank_node_map(&self) -> crate::topology::RankNodeMap {
        crate::topology::RankNodeMap::from_nodes(self.ranks.iter().map(|r| r.node).collect())
    }
}

/// Plans rank placement for `num_nodes` nodes of the given topology.
///
/// The communication-thread placement applies to every rank (task mode); it
/// is `None` for the vector modes.
pub fn plan_layout(
    node: &NodeTopology,
    num_nodes: usize,
    layout: HybridLayout,
    comm: CommThreadPlacement,
) -> Result<LayoutPlan, LayoutError> {
    if num_nodes == 0 {
        return Err(LayoutError::EmptyCluster);
    }
    if comm == CommThreadPlacement::SmtSibling && node.lds().iter().any(|l| l.smt < 2) {
        return Err(LayoutError::NoSmtAvailable);
    }
    let lds_per_node = node.num_lds();
    let cores_per_ld = node.cores_per_ld();
    let cores_per_node = node.num_cores();

    let mut ranks = Vec::new();
    let mut push_rank =
        |node_id: usize, lds: Vec<usize>, cores: usize| -> Result<(), LayoutError> {
            let compute = match comm {
                CommThreadPlacement::DedicatedCore => {
                    if cores <= 1 {
                        return Err(LayoutError::NoComputeThreadsLeft);
                    }
                    cores - 1
                }
                _ => cores,
            };
            ranks.push(RankPlacement {
                rank: ranks.len(),
                node: node_id,
                lds,
                compute_threads: compute,
                comm,
            });
            Ok(())
        };

    for n in 0..num_nodes {
        match layout {
            HybridLayout::ProcessPerCore => {
                for c in 0..cores_per_node {
                    let ld = n * lds_per_node + node.ld_of_core(c);
                    push_rank(n, vec![ld], 1)?;
                }
            }
            HybridLayout::ProcessPerLd => {
                for l in 0..lds_per_node {
                    push_rank(n, vec![n * lds_per_node + l], cores_per_ld)?;
                }
            }
            HybridLayout::ProcessPerNode => {
                let lds: Vec<usize> = (0..lds_per_node).map(|l| n * lds_per_node + l).collect();
                push_rank(n, lds, cores_per_node)?;
            }
        }
    }
    Ok(LayoutPlan {
        layout,
        num_nodes,
        ranks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn per_core_layout_on_westmere() {
        let node = presets::westmere_ep_node();
        let plan = plan_layout(
            &node,
            2,
            HybridLayout::ProcessPerCore,
            CommThreadPlacement::None,
        )
        .unwrap();
        assert_eq!(plan.num_ranks(), 24);
        assert_eq!(plan.ranks_per_node(), 12);
        assert!(plan.ranks.iter().all(|r| r.compute_threads == 1));
        // rank 6 sits on node 0, LD 1
        assert_eq!(plan.ranks[6].node, 0);
        assert_eq!(plan.ranks[6].lds, vec![1]);
        // rank 12 is the first rank of node 1
        assert_eq!(plan.ranks[12].node, 1);
        assert_eq!(plan.ranks[12].lds, vec![2]);
    }

    #[test]
    fn per_ld_layout_on_magny_cours() {
        let node = presets::magny_cours_node();
        let plan = plan_layout(
            &node,
            3,
            HybridLayout::ProcessPerLd,
            CommThreadPlacement::None,
        )
        .unwrap();
        assert_eq!(plan.num_ranks(), 12);
        assert!(plan.ranks.iter().all(|r| r.compute_threads == 6));
        assert_eq!(plan.ranks[5].node, 1);
        assert_eq!(plan.ranks[5].lds, vec![5]);
    }

    #[test]
    fn per_node_layout_spans_all_lds() {
        let node = presets::westmere_ep_node();
        let plan = plan_layout(
            &node,
            4,
            HybridLayout::ProcessPerNode,
            CommThreadPlacement::SmtSibling,
        )
        .unwrap();
        assert_eq!(plan.num_ranks(), 4);
        assert_eq!(plan.ranks[2].lds, vec![4, 5]);
        assert_eq!(plan.ranks[2].compute_threads, 12);
        assert_eq!(plan.ranks[2].compute_threads_per_ld(), vec![6, 6]);
    }

    #[test]
    fn dedicated_core_reduces_compute_threads() {
        let node = presets::magny_cours_node();
        let plan = plan_layout(
            &node,
            1,
            HybridLayout::ProcessPerLd,
            CommThreadPlacement::DedicatedCore,
        )
        .unwrap();
        assert!(plan.ranks.iter().all(|r| r.compute_threads == 5));
    }

    #[test]
    fn smt_sibling_requires_smt() {
        let node = presets::magny_cours_node();
        let err = plan_layout(
            &node,
            1,
            HybridLayout::ProcessPerCore,
            CommThreadPlacement::SmtSibling,
        )
        .unwrap_err();
        assert_eq!(err, LayoutError::NoSmtAvailable);
        // Intel has SMT:
        let node = presets::westmere_ep_node();
        assert!(plan_layout(
            &node,
            1,
            HybridLayout::ProcessPerCore,
            CommThreadPlacement::SmtSibling
        )
        .is_ok());
    }

    #[test]
    fn dedicated_core_per_core_is_impossible() {
        let node = presets::westmere_ep_node();
        let err = plan_layout(
            &node,
            1,
            HybridLayout::ProcessPerCore,
            CommThreadPlacement::DedicatedCore,
        )
        .unwrap_err();
        assert_eq!(err, LayoutError::NoComputeThreadsLeft);
    }

    #[test]
    fn zero_nodes_rejected() {
        let node = presets::westmere_ep_node();
        let err = plan_layout(
            &node,
            0,
            HybridLayout::ProcessPerNode,
            CommThreadPlacement::None,
        )
        .unwrap_err();
        assert_eq!(err, LayoutError::EmptyCluster);
    }

    #[test]
    fn uneven_thread_split_across_lds() {
        let r = RankPlacement {
            rank: 0,
            node: 0,
            lds: vec![0, 1],
            compute_threads: 11,
            comm: CommThreadPlacement::DedicatedCore,
        };
        assert_eq!(r.compute_threads_per_ld(), vec![6, 5]);
    }

    #[test]
    fn layout_plan_rank_node_map() {
        let node = presets::westmere_ep_node();
        let plan = plan_layout(
            &node,
            3,
            HybridLayout::ProcessPerLd,
            CommThreadPlacement::None,
        )
        .unwrap();
        let map = plan.rank_node_map();
        assert_eq!(map.num_ranks(), 6);
        assert_eq!(map.num_nodes(), 3);
        assert_eq!(map.ranks_of(1), 2..4);
        assert!(map.is_leader(2));
        assert!(map.same_node(4, 5));
        assert!(!map.same_node(1, 2));
    }

    #[test]
    fn total_compute_threads_consistency() {
        let node = presets::westmere_ep_node();
        for layout in HybridLayout::ALL {
            let plan = plan_layout(&node, 2, layout, CommThreadPlacement::None).unwrap();
            let threads: usize = plan.ranks.iter().map(|r| r.compute_threads).sum();
            assert_eq!(threads, 24, "{layout:?}");
        }
    }
}
