//! Node and cluster topology descriptions (the paper's Fig. 2).
//!
//! A node is a tree: node → sockets → NUMA locality domains (LDs) → cores
//! (with optional SMT threads). The AMD Magny Cours motivates the
//! socket/LD distinction: one 12-core package contains *two* 6-core dies,
//! each its own LD with its own memory controller, so a dual-socket node has
//! four LDs (Fig. 2b), while the Intel nodes have one LD per socket.

use crate::network::NetworkModel;
use crate::saturation::SaturationCurve;

/// One NUMA locality domain: a set of cores sharing an L3 cache and a
/// memory interface.
#[derive(Debug, Clone, PartialEq)]
pub struct LdSpec {
    /// Physical cores in this LD.
    pub cores: usize,
    /// Hardware threads per core (1 = no SMT, 2 = the Intel SMT used for
    /// the paper's virtual-core communication threads).
    pub smt: usize,
    /// Bandwidth drawn by streaming kernels (STREAM triad) vs. active cores.
    pub stream_bw: SaturationCurve,
    /// Bandwidth drawn by irregular-access kernels (CRS SpMV) vs. active
    /// cores. Saturates later and lower than STREAM (≈85 % — paper §2).
    pub spmv_bw: SaturationCurve,
    /// Theoretical peak memory bandwidth of the LD's channels (GB/s).
    pub peak_bw_gbs: f64,
    /// Per-core double-precision peak for multiply-add dominated code
    /// (GFlop/s); the in-core ceiling of the roofline.
    pub core_gflops: f64,
    /// Shared last-level cache (MiB).
    pub l3_mib: f64,
    /// Per-core L2 (KiB).
    pub l2_kib: f64,
    /// Per-core L1D (KiB).
    pub l1_kib: f64,
}

impl LdSpec {
    /// Saturated STREAM triad bandwidth using all cores of the LD.
    pub fn stream_saturated_gbs(&self) -> f64 {
        self.stream_bw.bandwidth(self.cores)
    }

    /// Saturated SpMV-drawn bandwidth using all cores of the LD.
    pub fn spmv_saturated_gbs(&self) -> f64 {
        self.spmv_bw.bandwidth(self.cores)
    }

    /// Total cache capacity reachable from one core (L1 + L2 + share of L3),
    /// in bytes — the capacity the κ cache model uses.
    pub fn cache_bytes_per_core(&self) -> f64 {
        (self.l1_kib + self.l2_kib) * 1024.0 + self.l3_mib * 1024.0 * 1024.0 / self.cores as f64
    }
}

/// A physical processor package.
#[derive(Debug, Clone, PartialEq)]
pub struct SocketSpec {
    /// Marketing/model name, e.g. "Xeon X5650".
    pub name: String,
    /// Locality domains on this package (1 for Intel, 2 for Magny Cours).
    pub lds: Vec<LdSpec>,
}

/// A complete compute node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTopology {
    /// Human-readable name, e.g. "dual Westmere EP".
    pub name: String,
    /// The sockets of the node.
    pub sockets: Vec<SocketSpec>,
}

impl NodeTopology {
    /// All LDs of the node in socket order.
    pub fn lds(&self) -> Vec<&LdSpec> {
        self.sockets.iter().flat_map(|s| s.lds.iter()).collect()
    }

    /// Number of locality domains.
    pub fn num_lds(&self) -> usize {
        self.sockets.iter().map(|s| s.lds.len()).sum()
    }

    /// Number of physical cores.
    pub fn num_cores(&self) -> usize {
        self.sockets
            .iter()
            .flat_map(|s| &s.lds)
            .map(|l| l.cores)
            .sum()
    }

    /// Cores per LD; panics if LDs are heterogeneous (none of the modeled
    /// machines are).
    pub fn cores_per_ld(&self) -> usize {
        let lds = self.lds();
        let c = lds[0].cores;
        assert!(lds.iter().all(|l| l.cores == c), "heterogeneous LDs");
        c
    }

    /// The LD index (in [`NodeTopology::lds`] order) owning physical core
    /// `core` (cores are numbered LD-major).
    pub fn ld_of_core(&self, core: usize) -> usize {
        let mut base = 0;
        for (i, ld) in self.lds().iter().enumerate() {
            if core < base + ld.cores {
                return i;
            }
            base += ld.cores;
        }
        panic!("core {core} out of range ({} cores)", self.num_cores());
    }

    /// Node-level saturated SpMV bandwidth: sum over LDs (NUMA-aware
    /// placement drives each LD's memory interface independently).
    pub fn node_spmv_bw_gbs(&self) -> f64 {
        self.lds().iter().map(|l| l.spmv_saturated_gbs()).sum()
    }

    /// Node-level saturated STREAM bandwidth.
    pub fn node_stream_bw_gbs(&self) -> f64 {
        self.lds().iter().map(|l| l.stream_saturated_gbs()).sum()
    }

    /// ASCII sketch of the node topology — the Fig. 2 regenerator.
    pub fn ascii_art(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} — {} socket(s), {} LD(s), {} cores\n",
            self.name,
            self.sockets.len(),
            self.num_lds(),
            self.num_cores()
        ));
        for (si, s) in self.sockets.iter().enumerate() {
            out.push_str(&format!("┌─ socket {si}: {} ", s.name));
            out.push_str(&"─".repeat(40_usize.saturating_sub(s.name.len())));
            out.push('\n');
            for (li, ld) in s.lds.iter().enumerate() {
                let cores: String = (0..ld.cores)
                    .map(|_| if ld.smt > 1 { "[P|s]" } else { "[ P ]" })
                    .collect::<Vec<_>>()
                    .join(" ");
                out.push_str(&format!("│  LD {li}: {cores}\n"));
                out.push_str(&format!(
                    "│        L3 {:.0} MiB — memory interface: {:.1} GB/s STREAM ({:.1} GB/s peak)\n",
                    ld.l3_mib,
                    ld.stream_saturated_gbs(),
                    ld.peak_bw_gbs
                ));
            }
            out.push('└');
            out.push_str(&"─".repeat(56));
            out.push('\n');
        }
        out
    }
}

/// How two ranks on the *same* node exchange messages: through shared
/// memory, modeled as a memcpy at a fraction of the LD bandwidth plus a
/// small latency. The paper notes the "overhead of intranode message
/// passing cannot be neglected" for pure MPI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntranodeComm {
    /// One-way latency in microseconds.
    pub latency_us: f64,
    /// Copy bandwidth in GB/s (both sides touch the data, so this is
    /// effective message bandwidth, not raw memcpy speed).
    pub bandwidth_gbs: f64,
}

/// A complete cluster: homogeneous nodes plus an interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Cluster name for reports, e.g. "Westmere QDR-IB cluster".
    pub name: String,
    /// Per-node topology.
    pub node: NodeTopology,
    /// Number of nodes available.
    pub num_nodes: usize,
    /// Internode network model.
    pub network: NetworkModel,
    /// Intranode message-passing model.
    pub intranode: IntranodeComm,
}

/// A rank → node mapping for topology-aware communication.
///
/// Node-aware halo aggregation (Bienz/Gropp/Olson-style: route all traffic
/// between a node pair through one leader rank per node) needs to know
/// which ranks share a node. The map requires each node's ranks to be a
/// *contiguous, ascending* rank range — the standard block placement every
/// batch scheduler produces — because that is what makes a rank's halo
/// buffer decompose into per-source-node contiguous segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankNodeMap {
    /// `node_of[r]` = node hosting rank `r`; non-decreasing and dense.
    node_of: Vec<usize>,
    /// First rank of each node plus a trailing sentinel (`num_nodes + 1`
    /// entries).
    node_starts: Vec<usize>,
}

impl RankNodeMap {
    /// Block placement: ranks `0..per_node` on node 0, the next `per_node`
    /// on node 1, … (the last node may be smaller).
    pub fn contiguous(num_ranks: usize, ranks_per_node: usize) -> Self {
        assert!(num_ranks >= 1, "need at least one rank");
        assert!(ranks_per_node >= 1, "need at least one rank per node");
        Self::from_nodes((0..num_ranks).map(|r| r / ranks_per_node).collect())
    }

    /// Builds the map from an explicit assignment.
    ///
    /// # Panics
    /// If the assignment is empty, node ids are not non-decreasing, or they
    /// skip a value (nodes must be dense `0..num_nodes`).
    pub fn from_nodes(node_of: Vec<usize>) -> Self {
        assert!(!node_of.is_empty(), "need at least one rank");
        assert_eq!(node_of[0], 0, "nodes must start at 0");
        let mut node_starts = vec![0usize];
        for r in 1..node_of.len() {
            let (prev, cur) = (node_of[r - 1], node_of[r]);
            assert!(
                cur == prev || cur == prev + 1,
                "node ids must be non-decreasing and dense (rank {r}: {prev} -> {cur})"
            );
            if cur == prev + 1 {
                node_starts.push(r);
            }
        }
        node_starts.push(node_of.len());
        Self {
            node_of,
            node_starts,
        }
    }

    /// Number of ranks covered.
    pub fn num_ranks(&self) -> usize {
        self.node_of.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_starts.len() - 1
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// The contiguous rank range of `node`.
    pub fn ranks_of(&self, node: usize) -> std::ops::Range<usize> {
        self.node_starts[node]..self.node_starts[node + 1]
    }

    /// The leader (lowest rank) of `node` — the rank that aggregates the
    /// node's inter-node traffic.
    pub fn leader_of_node(&self, node: usize) -> usize {
        self.node_starts[node]
    }

    /// The leader of the node hosting `rank`.
    pub fn leader_of(&self, rank: usize) -> usize {
        self.leader_of_node(self.node_of(rank))
    }

    /// Whether `rank` is its node's leader.
    pub fn is_leader(&self, rank: usize) -> bool {
        self.leader_of(rank) == rank
    }

    /// Whether two ranks share a node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::RankNodeMap;
    use crate::presets;

    #[test]
    fn westmere_shape() {
        let n = presets::westmere_ep_node();
        assert_eq!(n.sockets.len(), 2);
        assert_eq!(n.num_lds(), 2);
        assert_eq!(n.num_cores(), 12);
        assert_eq!(n.cores_per_ld(), 6);
        assert_eq!(n.lds()[0].smt, 2);
    }

    #[test]
    fn magny_cours_has_four_lds() {
        let n = presets::magny_cours_node();
        assert_eq!(n.sockets.len(), 2);
        assert_eq!(n.num_lds(), 4, "Magny Cours: two 6-core dies per package");
        assert_eq!(n.num_cores(), 24);
        assert_eq!(n.lds()[0].smt, 1, "no SMT on Magny Cours");
    }

    #[test]
    fn ld_of_core_mapping() {
        let n = presets::magny_cours_node();
        assert_eq!(n.ld_of_core(0), 0);
        assert_eq!(n.ld_of_core(5), 0);
        assert_eq!(n.ld_of_core(6), 1);
        assert_eq!(n.ld_of_core(23), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ld_of_core_out_of_range() {
        presets::westmere_ep_node().ld_of_core(12);
    }

    #[test]
    fn node_bandwidth_is_sum_of_lds() {
        let n = presets::westmere_ep_node();
        let per_ld = n.lds()[0].spmv_saturated_gbs();
        assert!((n.node_spmv_bw_gbs() - 2.0 * per_ld).abs() < 1e-9);
    }

    #[test]
    fn magny_cours_node_beats_westmere_node() {
        // Paper §2: "its node-level performance is about 25 % higher than on
        // Westmere due to its four LDs per node".
        let w = presets::westmere_ep_node();
        let m = presets::magny_cours_node();
        let ratio = m.node_spmv_bw_gbs() / w.node_spmv_bw_gbs();
        assert!(
            (1.1..1.45).contains(&ratio),
            "expected ~1.25x node-level advantage, got {ratio:.2}"
        );
    }

    #[test]
    fn ascii_art_mentions_all_parts() {
        let art = presets::westmere_ep_node().ascii_art();
        assert!(art.contains("socket 0"));
        assert!(art.contains("socket 1"));
        assert!(art.contains("LD 0"));
        assert!(art.contains("GB/s STREAM"));
    }

    #[test]
    fn cluster_totals() {
        let c = presets::westmere_cluster(32);
        assert_eq!(c.num_nodes, 32);
        assert_eq!(c.node.num_cores() * c.num_nodes, 384);
        assert_eq!(c.node.num_lds() * c.num_nodes, 64);
    }

    #[test]
    fn cache_capacity_per_core() {
        let n = presets::westmere_ep_node();
        let ld = &n.lds()[0];
        // 2 MiB L3 per core on Westmere (12 MiB / 6 cores) + L1 + L2
        let expect = (32.0 + 256.0) * 1024.0 + 2.0 * 1024.0 * 1024.0;
        assert!((ld.cache_bytes_per_core() - expect).abs() < 1.0);
    }

    #[test]
    fn rank_node_map_contiguous() {
        let m = RankNodeMap::contiguous(10, 4);
        assert_eq!(m.num_ranks(), 10);
        assert_eq!(m.num_nodes(), 3, "10 ranks at 4/node: last node ragged");
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(3), 0);
        assert_eq!(m.node_of(4), 1);
        assert_eq!(m.node_of(9), 2);
        assert_eq!(m.ranks_of(1), 4..8);
        assert_eq!(m.ranks_of(2), 8..10);
        assert_eq!(m.leader_of(5), 4);
        assert_eq!(m.leader_of_node(2), 8);
        assert!(m.is_leader(8));
        assert!(!m.is_leader(9));
        assert!(m.same_node(4, 7));
        assert!(!m.same_node(3, 4));
    }

    #[test]
    fn rank_node_map_single_node() {
        let m = RankNodeMap::contiguous(4, 8);
        assert_eq!(m.num_nodes(), 1);
        assert!(m.is_leader(0));
        assert!(m.same_node(0, 3));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn rank_node_map_rejects_gaps() {
        RankNodeMap::from_nodes(vec![0, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn rank_node_map_rejects_non_contiguous() {
        RankNodeMap::from_nodes(vec![0, 1, 0]);
    }
}
