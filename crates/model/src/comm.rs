//! Hierarchical communication cost model for the halo exchange.
//!
//! A two-level latency/bandwidth model: *intra-node* messages move through
//! shared memory (the substrate's copy path), *inter-node* messages cross
//! the network. Each message costs `latency + bytes / bandwidth` at its
//! level, and a rank's exchange time is the sum over its messages — the
//! substrate, like standard MPI without a progress thread, drives messages
//! sequentially inside communication calls.
//!
//! The model prices the flat and node-aware halo-exchange strategies
//! analytically: aggregation replaces the `m` flat messages between a node
//! pair with one wire message, paying intra-node shipment and forward hops
//! instead. [`crossover_messages`] finds the message count per node pair
//! above which aggregation wins — small for latency-dominated (many tiny
//! messages) workloads, large or unreachable when bandwidth dominates.

use spmv_machine::ClusterSpec;

/// Latency and bandwidth of the two message levels, in seconds and
/// bytes/second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommLevels {
    /// One-way intra-node (shared-memory) message latency.
    pub intra_latency_s: f64,
    /// Effective intra-node message bandwidth.
    pub intra_bps: f64,
    /// One-way inter-node (network) message latency.
    pub inter_latency_s: f64,
    /// Per-node network injection bandwidth.
    pub inter_bps: f64,
}

/// One rank's per-exchange traffic, counted by level: what the engine
/// predicts for its halo exchange (`spmv-core`'s
/// `RankEngine::exchange_traffic`) and what this model prices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankTraffic {
    /// Intra-node messages sent.
    pub intra_msgs: usize,
    /// Intra-node bytes sent.
    pub intra_bytes: usize,
    /// Inter-node messages sent.
    pub inter_msgs: usize,
    /// Inter-node bytes sent.
    pub inter_bytes: usize,
}

impl std::iter::Sum for RankTraffic {
    /// Level-wise totals (for aggregating over ranks).
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, t| RankTraffic {
            intra_msgs: a.intra_msgs + t.intra_msgs,
            intra_bytes: a.intra_bytes + t.intra_bytes,
            inter_msgs: a.inter_msgs + t.inter_msgs,
            inter_bytes: a.inter_bytes + t.inter_bytes,
        })
    }
}

impl CommLevels {
    /// Extracts the two levels from a cluster description.
    pub fn from_cluster(cluster: &ClusterSpec) -> Self {
        Self {
            intra_latency_s: cluster.intranode.latency_us * 1e-6,
            intra_bps: cluster.intranode.bandwidth_gbs * 1e9,
            inter_latency_s: cluster.network.latency_s(),
            inter_bps: cluster.network.injection_bps(),
        }
    }

    /// Predicted time one rank spends driving its exchange traffic.
    pub fn exchange_time(&self, t: &RankTraffic) -> f64 {
        t.intra_msgs as f64 * self.intra_latency_s
            + t.intra_bytes as f64 / self.intra_bps
            + t.inter_msgs as f64 * self.inter_latency_s
            + t.inter_bytes as f64 / self.inter_bps
    }

    /// Predicted exchange time of the whole job: the exchange completes
    /// when the most loaded rank finishes.
    pub fn job_exchange_time(&self, per_rank: &[RankTraffic]) -> f64 {
        per_rank
            .iter()
            .map(|t| self.exchange_time(t))
            .fold(0.0, f64::max)
    }
}

/// Flat cost of one node pair exchanging `msgs` rank-to-rank messages
/// totalling `bytes`: every message pays the network latency.
pub fn flat_pair_time(levels: &CommLevels, msgs: usize, bytes: usize) -> f64 {
    msgs as f64 * levels.inter_latency_s + bytes as f64 / levels.inter_bps
}

/// Node-aware cost of the same node pair with `ranks_per_node` ranks per
/// node: the non-leader members ship their share to the leader (intra), one
/// aggregated wire message crosses the network, and the receiving leader
/// forwards per-member slices (intra). Members' shares are modeled as
/// uniform, so the leader's own in-place share avoids one hop per side.
pub fn node_aware_pair_time(
    levels: &CommLevels,
    msgs: usize,
    bytes: usize,
    ranks_per_node: usize,
) -> f64 {
    if msgs == 0 {
        return 0.0;
    }
    let r = ranks_per_node as f64;
    // members holding a share of this pair's payload (can't exceed the
    // flat message count: only ranks that actually send participate)
    let senders = (ranks_per_node).min(msgs) as f64;
    let hop_msgs = (senders - 1.0).max(0.0);
    let hop_bytes = bytes as f64 * hop_msgs / r.max(senders);
    let intra_hop = hop_msgs * levels.intra_latency_s + hop_bytes / levels.intra_bps;
    // ship + wire + forward
    2.0 * intra_hop + levels.inter_latency_s + bytes as f64 / levels.inter_bps
}

/// The smallest flat per-node-pair message count at which the node-aware
/// strategy is predicted faster, for an exchange of `bytes` total per node
/// pair, or `None` if no count up to `max_msgs` wins (bandwidth-dominated
/// regime: the extra intra-node hops never amortize).
pub fn crossover_messages(
    levels: &CommLevels,
    bytes: usize,
    ranks_per_node: usize,
    max_msgs: usize,
) -> Option<usize> {
    (1..=max_msgs).find(|&m| {
        node_aware_pair_time(levels, m, bytes, ranks_per_node) < flat_pair_time(levels, m, bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_machine::presets;

    fn westmere_levels() -> CommLevels {
        CommLevels::from_cluster(&presets::westmere_cluster(8))
    }

    #[test]
    fn levels_from_cluster_presets() {
        let l = westmere_levels();
        assert!((l.inter_latency_s - 1.3e-6).abs() < 1e-12);
        assert!((l.inter_bps - 3.2e9).abs() < 1.0);
        assert!((l.intra_latency_s - 0.5e-6).abs() < 1e-12);
        assert!(l.intra_bps > l.inter_bps, "intra must be the faster level");
    }

    #[test]
    fn message_time_orders_levels() {
        let l = westmere_levels();
        // the time of one message of `bytes` at either level
        let one = |bytes: usize, inter_node: bool| {
            let t = if inter_node {
                RankTraffic {
                    inter_msgs: 1,
                    inter_bytes: bytes,
                    ..RankTraffic::default()
                }
            } else {
                RankTraffic {
                    intra_msgs: 1,
                    intra_bytes: bytes,
                    ..RankTraffic::default()
                }
            };
            l.exchange_time(&t)
        };
        // same payload: the network message is strictly more expensive
        assert!(one(4096, true) > one(4096, false));
        // latency floor at zero bytes
        assert_eq!(one(0, true), l.inter_latency_s);
    }

    #[test]
    fn exchange_time_sums_both_levels() {
        let l = westmere_levels();
        let t = RankTraffic {
            intra_msgs: 3,
            intra_bytes: 3000,
            inter_msgs: 2,
            inter_bytes: 8000,
        };
        let expect = 3.0 * l.intra_latency_s
            + 3000.0 / l.intra_bps
            + 2.0 * l.inter_latency_s
            + 8000.0 / l.inter_bps;
        assert!((l.exchange_time(&t) - expect).abs() < 1e-15);
        // job time = slowest rank
        let quiet = RankTraffic::default();
        assert_eq!(l.job_exchange_time(&[quiet, t, quiet]), l.exchange_time(&t));
    }

    #[test]
    fn single_message_never_aggregates() {
        // one flat message per node pair: nothing to merge, flat wins
        let l = westmere_levels();
        assert!(node_aware_pair_time(&l, 1, 8192, 4) >= flat_pair_time(&l, 1, 8192));
    }

    #[test]
    fn latency_dominated_pairs_cross_early() {
        // 16 tiny messages: 16 network latencies vs 1 + cheap intra hops
        let l = westmere_levels();
        let m = crossover_messages(&l, 16 * 64, 4, 64).expect("tiny messages must cross");
        assert!(m <= 8, "crossover at {m} messages");
        assert!(
            node_aware_pair_time(&l, 16, 16 * 64, 4) < flat_pair_time(&l, 16, 16 * 64),
            "deep in the latency regime aggregation must win"
        );
    }

    #[test]
    fn crossover_rises_with_payload() {
        // more bytes → intra hops cost more → later (or no) crossover
        let l = westmere_levels();
        let small = crossover_messages(&l, 1 << 10, 4, 1024);
        let large = crossover_messages(&l, 1 << 22, 4, 1024);
        match (small, large) {
            (Some(s), Some(g)) => assert!(s <= g, "crossover {s} -> {g}"),
            (Some(_), None) => {} // large payload never crosses: consistent
            other => panic!("unexpected crossover pattern {other:?}"),
        }
    }

    #[test]
    fn empty_pair_costs_nothing() {
        let l = westmere_levels();
        assert_eq!(node_aware_pair_time(&l, 0, 0, 4), 0.0);
    }
}
