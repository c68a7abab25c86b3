//! Halo-exchange bookkeeping.
//!
//! "Due to off-diagonal nonzeros, every process requires some parts of the
//! RHS vector from other processes to complete its own chunk of the result,
//! and must send parts of its own RHS chunk to others. The resulting
//! communication pattern depends only on the sparsity structure, so the
//! necessary bookkeeping needs to be done only once." (§3.1)
//!
//! A [`RankPlan`] holds both directions for one rank:
//!
//! * `recv`: for each peer (ascending), the sorted global column indices we
//!   need from it. Their concatenation defines the layout of the rank's
//!   *halo buffer*; because peers own disjoint ascending index ranges, the
//!   concatenation is globally sorted.
//! * `send`: for each peer, the local indices (relative to our row range)
//!   we must gather into a contiguous send buffer for it.

use crate::partition::RowPartition;
use spmv_comm::{Comm, Tag};
use spmv_machine::RankNodeMap;
use spmv_matrix::CsrMatrix;
use std::collections::BTreeSet;
use std::ops::Range;

/// Tag used for the one-time node-aware plan metadata exchange.
const TAG_NA_META: Tag = 29;

/// One neighbour's worth of halo traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Neighbor {
    /// Peer rank.
    pub peer: usize,
    /// For `recv`: global column indices we need from `peer` (sorted).
    /// For `send`: *local* indices (relative to our first row) to gather.
    pub indices: Vec<u32>,
}

/// The complete communication plan of one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPlan {
    /// This rank.
    pub rank: usize,
    /// First global row/column owned by this rank.
    pub row_start: usize,
    /// Number of rows owned.
    pub local_len: usize,
    /// Incoming halo, grouped by source peer (ascending peer order).
    pub recv: Vec<Neighbor>,
    /// Outgoing halo, grouped by destination peer (ascending peer order).
    pub send: Vec<Neighbor>,
}

impl RankPlan {
    /// Total halo elements received per SpMV.
    pub fn halo_len(&self) -> usize {
        self.recv.iter().map(|n| n.indices.len()).sum()
    }

    /// Total elements gathered and sent per SpMV.
    pub fn send_len(&self) -> usize {
        self.send.iter().map(|n| n.indices.len()).sum()
    }

    /// Offsets of each recv neighbour's segment within the halo buffer
    /// (`recv.len() + 1` entries).
    pub fn halo_offsets(&self) -> Vec<usize> {
        let mut offs = Vec::with_capacity(self.recv.len() + 1);
        offs.push(0);
        for n in &self.recv {
            offs.push(offs.last().expect("offs is seeded with 0") + n.indices.len());
        }
        offs
    }

    /// The concatenated, globally sorted halo column indices.
    pub fn halo_globals(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.halo_len());
        for n in &self.recv {
            out.extend_from_slice(&n.indices);
        }
        debug_assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "halo must be globally sorted"
        );
        out
    }

    /// Number of messages this rank sends per SpMV.
    pub fn messages_out(&self) -> usize {
        self.send.len()
    }

    /// Bytes this rank sends per SpMV (8-byte elements).
    pub fn bytes_out(&self) -> usize {
        self.send_len() * 8
    }

    /// Bytes this rank receives per SpMV.
    pub fn bytes_in(&self) -> usize {
        self.halo_len() * 8
    }
}

/// Collects, for one rank-local row block (with global column indices), the
/// remote columns it references, grouped by owning peer in ascending order.
fn needed_columns(
    local: &CsrMatrix,
    partition: &RowPartition,
    me: usize,
) -> Vec<(usize, Vec<u32>)> {
    let my_range = partition.range(me);
    let mut remote: Vec<u32> = Vec::new();
    for &c in local.col_idx() {
        let ci = c as usize;
        if !my_range.contains(&ci) {
            remote.push(c);
        }
    }
    remote.sort_unstable();
    remote.dedup();
    // group by owner (ascending because the indices are sorted)
    let mut grouped: Vec<(usize, Vec<u32>)> = Vec::new();
    for c in remote {
        let owner = partition.owner_of(c as usize);
        debug_assert_ne!(owner, me);
        match grouped.last_mut() {
            Some((p, v)) if *p == owner => v.push(c),
            _ => grouped.push((owner, vec![c])),
        }
    }
    grouped
}

/// Builds all rank plans centrally from the full matrix (used by tests, the
/// workload analyzer, and the simulator — no communication involved).
#[allow(clippy::needless_range_loop)] // rank-indexed cross-references between plans
pub fn build_plans_serial(matrix: &CsrMatrix, partition: &RowPartition) -> Vec<RankPlan> {
    assert_eq!(
        matrix.nrows(),
        partition.nrows(),
        "partition must cover the matrix"
    );
    assert_eq!(
        matrix.nrows(),
        matrix.ncols(),
        "distributed SpMV needs a square matrix"
    );
    let parts = partition.parts();
    let mut plans: Vec<RankPlan> = (0..parts)
        .map(|r| RankPlan {
            rank: r,
            row_start: partition.range(r).start,
            local_len: partition.len(r),
            recv: Vec::new(),
            send: Vec::new(),
        })
        .collect();
    // recv sides
    for me in 0..parts {
        let block = matrix.row_block(partition.range(me));
        let needed = needed_columns(&block, partition, me);
        plans[me].recv = needed
            .iter()
            .map(|(p, v)| Neighbor {
                peer: *p,
                indices: v.clone(),
            })
            .collect();
    }
    // send sides: transpose of the recv relation
    for me in 0..parts {
        let my_start = partition.range(me).start;
        let mut send: Vec<Neighbor> = Vec::new();
        for other in 0..parts {
            if other == me {
                continue;
            }
            if let Some(n) = plans[other].recv.iter().find(|n| n.peer == me) {
                send.push(Neighbor {
                    peer: other,
                    indices: n.indices.iter().map(|&g| g - my_start as u32).collect(),
                });
            }
        }
        plans[me].send = send;
    }
    plans
}

/// Builds this rank's plan collectively: every rank contributes its local
/// row block; required-index lists are exchanged with a personalized
/// all-to-all (this is the path the functional engine uses, exercising the
/// message-passing substrate the way a real code would).
pub fn build_plan_distributed(
    comm: &Comm,
    local: &CsrMatrix,
    partition: &RowPartition,
) -> RankPlan {
    let me = comm.rank();
    assert_eq!(
        partition.parts(),
        comm.size(),
        "one partition part per rank"
    );
    assert_eq!(
        local.nrows(),
        partition.len(me),
        "local block must match partition"
    );
    let needed = needed_columns(local, partition, me);

    // request lists: to each peer, the globals we need from it
    let mut outgoing: Vec<Vec<u32>> = vec![Vec::new(); comm.size()];
    for (peer, cols) in &needed {
        outgoing[*peer] = cols.clone();
    }
    let incoming = comm.alltoallv(&outgoing);

    let my_start = partition.range(me).start;
    let my_len = partition.len(me);
    let send: Vec<Neighbor> = incoming
        .into_iter()
        .enumerate()
        .filter(|(peer, req)| *peer != me && !req.is_empty())
        .map(|(peer, req)| {
            let indices: Vec<u32> = req
                .into_iter()
                .map(|g| {
                    let l = g as usize - my_start;
                    assert!(l < my_len, "peer {peer} requested column {g} we do not own");
                    l as u32
                })
                .collect();
            Neighbor { peer, indices }
        })
        .collect();

    RankPlan {
        rank: me,
        row_start: my_start,
        local_len: my_len,
        recv: needed
            .into_iter()
            .map(|(peer, indices)| Neighbor { peer, indices })
            .collect(),
        send,
    }
}

// ---------------------------------------------------------------------------
// Node-aware aggregation (Bienz, Gropp & Olson, arXiv:1612.08060)
// ---------------------------------------------------------------------------

/// Per-rank traffic accounting, split by link level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommTraffic {
    /// Messages to ranks on the same node.
    pub intra_msgs: usize,
    /// Bytes to ranks on the same node.
    pub intra_bytes: usize,
    /// Messages crossing a node boundary.
    pub inter_msgs: usize,
    /// Bytes crossing a node boundary.
    pub inter_bytes: usize,
}

impl CommTraffic {
    /// Element-wise sum (for aggregating over ranks).
    pub fn add(&self, other: &CommTraffic) -> CommTraffic {
        CommTraffic {
            intra_msgs: self.intra_msgs + other.intra_msgs,
            intra_bytes: self.intra_bytes + other.intra_bytes,
            inter_msgs: self.inter_msgs + other.inter_msgs,
            inter_bytes: self.inter_bytes + other.inter_bytes,
        }
    }
}

impl RankPlan {
    /// The traffic this rank sends per exchange under the *flat* strategy,
    /// classified by the node map: one message per neighbour, each crossing
    /// the network iff the peer lives on another node.
    pub fn traffic(&self, map: &RankNodeMap) -> CommTraffic {
        let mut t = CommTraffic::default();
        for n in &self.send {
            let bytes = n.indices.len() * 8;
            if map.same_node(self.rank, n.peer) {
                t.intra_msgs += 1;
                t.intra_bytes += bytes;
            } else {
                t.inter_msgs += 1;
                t.inter_bytes += bytes;
            }
        }
        t
    }
}

/// One assembly block copy on a leader: `len` elements starting at
/// `src_off` of member `slot`'s shipped buffer, appended to the wire
/// message being built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsmChunk {
    /// Member slot (index into [`LeaderPlan::members`]).
    pub slot: usize,
    /// Element offset within that member's shipped buffer.
    pub src_off: usize,
    /// Elements to copy.
    pub len: usize,
}

/// One outgoing aggregated wire message (this node → `node`).
///
/// Wire layout is **destination-rank-outer**: for each destination rank of
/// `node` (ascending), the payloads of all our members (ascending). With a
/// contiguous rank→node mapping that makes each destination rank's portion
/// exactly its halo segment for our node — so the receiving leader forwards
/// plain contiguous subslices, zero re-assembly on the receive side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireOut {
    /// Destination node.
    pub node: usize,
    /// Destination node's leader rank (the wire message's addressee).
    pub dest_leader: usize,
    /// Total elements on the wire.
    pub len: usize,
    /// Assembly program (source-side strided copies).
    pub chunks: Vec<AsmChunk>,
}

/// One incoming aggregated wire message (`node` → this node) and how it
/// splits across this node's members: `parts[slot]` elements go to member
/// `slot`, in slot order (zero-length parts are skipped — no message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireIn {
    /// Source node.
    pub node: usize,
    /// Source node's leader rank (the wire message's sender).
    pub src_leader: usize,
    /// Total elements on the wire.
    pub len: usize,
    /// Elements destined for each member slot.
    pub parts: Vec<usize>,
}

/// The extra bookkeeping a node leader carries: per-member shipment sizes
/// and the assembly/forward programs for the aggregated wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaderPlan {
    /// All ranks of this node, ascending (slot index = rank − first rank).
    pub members: Vec<usize>,
    /// Elements each member ships to the leader per exchange (the leader's
    /// own slot is read in place from its send buffer, not messaged).
    pub ship_lens: Vec<usize>,
    /// Outgoing wire messages, destination-node-ascending.
    pub wire_out: Vec<WireOut>,
    /// Incoming wire messages, source-node-ascending.
    pub wire_in: Vec<WireIn>,
}

/// A [`RankPlan`] reorganized for hierarchical, topology-aware exchange.
///
/// The 3-phase protocol (per SpMV):
/// 1. **gather / ship** — every rank gathers its send buffer laid out as
///    `[intra-node segments | ship region]` and sends the intra segments
///    directly to same-node peers; non-leaders send the ship region (all
///    inter-node payloads, destination-ascending) to their node leader.
/// 2. **wire** — each leader assembles one combined message per peer node
///    from the members' shipments and exchanges them leader-to-leader: the
///    only messages that cross the network.
/// 3. **scatter** — the receiving leader cuts each wire message into
///    contiguous per-member slices and forwards them intra-node; every rank
///    receives its halo as one slice per source *node* instead of one per
///    source *rank*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeAwarePlan {
    /// The underlying flat plan (owns the index lists).
    pub flat: RankPlan,
    /// This rank's node.
    pub my_node: usize,
    /// This node's leader rank.
    pub leader_rank: usize,
    /// Gather list reordered to the `[intra | ship]` send-buffer layout.
    pub gather_indices: Vec<u32>,
    /// Per same-node peer: (peer, send-buffer range) sent directly.
    pub intra_send: Vec<(usize, Range<usize>)>,
    /// Send-buffer range holding all inter-node payloads
    /// (destination-peer-ascending) — shipped to the leader in one message.
    pub ship_range: Range<usize>,
    /// Per same-node source peer: (peer, halo range) received directly.
    pub intra_recv: Vec<(usize, Range<usize>)>,
    /// Per remote source node: (node, halo range) — contiguous because
    /// peers are ascending and node rank-ranges are contiguous; filled by
    /// one forwarded slice from the leader.
    pub recv_node_segments: Vec<(usize, Range<usize>)>,
    /// Present iff this rank is its node's leader.
    pub leader: Option<LeaderPlan>,
}

impl NodeAwarePlan {
    /// Whether this rank leads its node.
    pub fn is_leader(&self) -> bool {
        self.leader.is_some()
    }

    /// Elements this rank ships to its leader per exchange.
    pub fn ship_len(&self) -> usize {
        self.ship_range.len()
    }

    /// The traffic this rank sends per exchange under the node-aware
    /// strategy (intra: direct segments + shipment + leader forwards;
    /// inter: the leader's wire messages only).
    pub fn traffic(&self) -> CommTraffic {
        let mut t = CommTraffic::default();
        for (_, r) in &self.intra_send {
            t.intra_msgs += 1;
            t.intra_bytes += r.len() * 8;
        }
        if !self.is_leader() && !self.ship_range.is_empty() {
            t.intra_msgs += 1;
            t.intra_bytes += self.ship_range.len() * 8;
        }
        if let Some(lp) = &self.leader {
            for w in &lp.wire_out {
                t.inter_msgs += 1;
                t.inter_bytes += w.len * 8;
            }
            for wi in &lp.wire_in {
                for (slot, &len) in wi.parts.iter().enumerate() {
                    if len > 0 && lp.members[slot] != self.flat.rank {
                        t.intra_msgs += 1;
                        t.intra_bytes += len * 8;
                    }
                }
            }
        }
        t
    }
}

/// Per-rank metadata the leader needs: inter-node send lengths per
/// destination rank, and halo lengths per source node.
fn inter_send_meta(plan: &RankPlan, map: &RankNodeMap) -> Vec<(u32, u32)> {
    plan.send
        .iter()
        .filter(|n| !map.same_node(plan.rank, n.peer))
        .map(|n| (n.peer as u32, n.indices.len() as u32))
        .collect()
}

fn recv_node_meta(plan: &RankPlan, map: &RankNodeMap) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    for n in plan
        .recv
        .iter()
        .filter(|n| !map.same_node(plan.rank, n.peer))
    {
        let node = map.node_of(n.peer) as u32;
        let len = n.indices.len() as u32;
        match out.last_mut() {
            Some((p, l)) if *p == node => *l += len,
            _ => out.push((node, len)),
        }
    }
    out
}

/// Builds the leader's wire programs from all members' metadata.
fn build_leader_plan(
    members: Vec<usize>,
    inter_send: &[Vec<(u32, u32)>],
    recv_nodes: &[Vec<(u32, u32)>],
    map: &RankNodeMap,
) -> LeaderPlan {
    // Per slot: (dest rank, offset within the slot's ship buffer, len),
    // destination-ascending — the order the member gathers its ship region.
    let slot_entries: Vec<Vec<(usize, usize, usize)>> = inter_send
        .iter()
        .map(|entries| {
            let mut off = 0usize;
            entries
                .iter()
                .map(|&(peer, len)| {
                    let e = (peer as usize, off, len as usize);
                    off += len as usize;
                    e
                })
                .collect()
        })
        .collect();
    let ship_lens: Vec<usize> = slot_entries
        .iter()
        .map(|es| es.iter().map(|&(_, _, l)| l).sum())
        .collect();

    // Outgoing: one wire message per destination node, destination-rank-
    // outer so the receiving leader can forward contiguous subslices.
    let dest_nodes: BTreeSet<usize> = slot_entries
        .iter()
        .flatten()
        .map(|&(peer, _, _)| map.node_of(peer))
        .collect();
    let wire_out = dest_nodes
        .into_iter()
        .map(|q_node| {
            let dest_ranks: BTreeSet<usize> = slot_entries
                .iter()
                .flatten()
                .map(|&(peer, _, _)| peer)
                .filter(|&p| map.node_of(p) == q_node)
                .collect();
            let mut chunks = Vec::new();
            let mut len = 0usize;
            for q in dest_ranks {
                for (slot, entries) in slot_entries.iter().enumerate() {
                    if let Some(&(_, src_off, l)) = entries.iter().find(|&&(p, _, _)| p == q) {
                        chunks.push(AsmChunk {
                            slot,
                            src_off,
                            len: l,
                        });
                        len += l;
                    }
                }
            }
            WireOut {
                node: q_node,
                dest_leader: map.leader_of_node(q_node),
                len,
                chunks,
            }
        })
        .collect();

    // Incoming: one wire message per source node, split across members in
    // slot order.
    let src_nodes: BTreeSet<usize> = recv_nodes
        .iter()
        .flatten()
        .map(|&(node, _)| node as usize)
        .collect();
    let wire_in = src_nodes
        .into_iter()
        .map(|p_node| {
            let parts: Vec<usize> = recv_nodes
                .iter()
                .map(|rn| {
                    rn.iter()
                        .find(|&&(n, _)| n as usize == p_node)
                        .map_or(0, |&(_, l)| l as usize)
                })
                .collect();
            WireIn {
                node: p_node,
                src_leader: map.leader_of_node(p_node),
                len: parts.iter().sum(),
                parts,
            }
        })
        .collect();

    LeaderPlan {
        members,
        ship_lens,
        wire_out,
        wire_in,
    }
}

/// Derives the member-side structures of a [`NodeAwarePlan`] from the flat
/// plan (everything except the leader programs).
fn node_aware_member_side(
    flat: RankPlan,
    map: &RankNodeMap,
    leader: Option<LeaderPlan>,
) -> NodeAwarePlan {
    let me = flat.rank;
    let my_node = map.node_of(me);
    let mut gather_indices = Vec::with_capacity(flat.send_len());
    let mut intra_send = Vec::new();
    for n in flat.send.iter().filter(|n| map.same_node(me, n.peer)) {
        let start = gather_indices.len();
        gather_indices.extend_from_slice(&n.indices);
        intra_send.push((n.peer, start..gather_indices.len()));
    }
    let ship_start = gather_indices.len();
    for n in flat.send.iter().filter(|n| !map.same_node(me, n.peer)) {
        gather_indices.extend_from_slice(&n.indices);
    }
    let ship_range = ship_start..gather_indices.len();

    let offs = flat.halo_offsets();
    let mut intra_recv = Vec::new();
    let mut recv_node_segments: Vec<(usize, Range<usize>)> = Vec::new();
    for (k, n) in flat.recv.iter().enumerate() {
        let range = offs[k]..offs[k + 1];
        if map.same_node(me, n.peer) {
            intra_recv.push((n.peer, range));
        } else {
            let node = map.node_of(n.peer);
            match recv_node_segments.last_mut() {
                Some((p, r)) if *p == node => {
                    debug_assert_eq!(r.end, range.start, "halo segments must be contiguous");
                    r.end = range.end;
                }
                _ => recv_node_segments.push((node, range)),
            }
        }
    }

    NodeAwarePlan {
        my_node,
        leader_rank: map.leader_of(me),
        gather_indices,
        intra_send,
        ship_range,
        intra_recv,
        recv_node_segments,
        leader,
        flat,
    }
}

/// Builds all node-aware plans centrally (tests, traffic accounting, the
/// cost model) from pre-built flat plans.
pub fn build_node_aware_serial(plans: &[RankPlan], map: &RankNodeMap) -> Vec<NodeAwarePlan> {
    assert_eq!(plans.len(), map.num_ranks(), "one plan per mapped rank");
    plans
        .iter()
        .map(|flat| {
            let me = flat.rank;
            let leader = if map.is_leader(me) {
                let members: Vec<usize> = map.ranks_of(map.node_of(me)).collect();
                let inter_send: Vec<Vec<(u32, u32)>> = members
                    .iter()
                    .map(|&r| inter_send_meta(&plans[r], map))
                    .collect();
                let recv_nodes: Vec<Vec<(u32, u32)>> = members
                    .iter()
                    .map(|&r| recv_node_meta(&plans[r], map))
                    .collect();
                Some(build_leader_plan(members, &inter_send, &recv_nodes, map))
            } else {
                None
            };
            node_aware_member_side(flat.clone(), map, leader)
        })
        .collect()
}

/// Builds this rank's node-aware plan collectively: each member sends its
/// leader the (tiny, one-time) metadata the wire programs need.
pub fn build_node_aware_distributed(
    comm: &Comm,
    flat: RankPlan,
    map: &RankNodeMap,
) -> NodeAwarePlan {
    assert_eq!(
        comm.size(),
        map.num_ranks(),
        "node map must cover the world"
    );
    let me = flat.rank;
    let my_meta_send = inter_send_meta(&flat, map);
    let my_meta_recv = recv_node_meta(&flat, map);

    let leader = if map.is_leader(me) {
        let members: Vec<usize> = map.ranks_of(map.node_of(me)).collect();
        let mut inter_send = Vec::with_capacity(members.len());
        let mut recv_nodes = Vec::with_capacity(members.len());
        for &r in &members {
            if r == me {
                inter_send.push(my_meta_send.clone());
                recv_nodes.push(my_meta_recv.clone());
            } else {
                let raw: Vec<u32> = comm.recv_vec(r, TAG_NA_META).expect(
                    "node-aware setup needs a healthy world: every member reports its metadata",
                );
                let ns = raw[0] as usize;
                let send_part = raw[1..1 + 2 * ns]
                    .chunks_exact(2)
                    .map(|c| (c[0], c[1]))
                    .collect();
                let recv_part = raw[1 + 2 * ns..]
                    .chunks_exact(2)
                    .map(|c| (c[0], c[1]))
                    .collect();
                inter_send.push(send_part);
                recv_nodes.push(recv_part);
            }
        }
        Some(build_leader_plan(members, &inter_send, &recv_nodes, map))
    } else {
        let mut raw: Vec<u32> =
            Vec::with_capacity(1 + 2 * (my_meta_send.len() + my_meta_recv.len()));
        raw.push(my_meta_send.len() as u32);
        for &(p, l) in &my_meta_send {
            raw.push(p);
            raw.push(l);
        }
        for &(n, l) in &my_meta_recv {
            raw.push(n);
            raw.push(l);
        }
        comm.send(map.leader_of(me), TAG_NA_META, &raw)
            .expect("node-aware setup needs a healthy world: the node leader collects metadata");
        None
    };
    node_aware_member_side(flat, map, leader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_comm::CommWorld;
    use spmv_matrix::synthetic;
    use std::sync::Arc;

    #[test]
    fn tridiagonal_plan_exchanges_single_boundary_elements() {
        let m = synthetic::tridiagonal(12, 2.0, -1.0);
        let p = RowPartition::by_rows(12, 3);
        let plans = build_plans_serial(&m, &p);
        // middle rank needs one element from each side
        let mid = &plans[1];
        assert_eq!(mid.recv.len(), 2);
        assert_eq!(mid.recv[0].peer, 0);
        assert_eq!(mid.recv[0].indices, vec![3]);
        assert_eq!(mid.recv[1].peer, 2);
        assert_eq!(mid.recv[1].indices, vec![8]);
        // and sends its own boundary rows to each side
        assert_eq!(mid.send.len(), 2);
        assert_eq!(mid.send[0].peer, 0);
        assert_eq!(mid.send[0].indices, vec![0]); // local row 0 = global 4
        assert_eq!(mid.send[1].peer, 2);
        assert_eq!(mid.send[1].indices, vec![3]); // local row 3 = global 7
                                                  // end ranks have one neighbour each
        assert_eq!(plans[0].recv.len(), 1);
        assert_eq!(plans[2].recv.len(), 1);
    }

    #[test]
    fn send_and_recv_sides_are_transposes() {
        let m = synthetic::random_banded_symmetric(300, 25, 6.0, 8);
        let p = RowPartition::by_nnz(&m, 5);
        let plans = build_plans_serial(&m, &p);
        for plan in &plans {
            for n in &plan.recv {
                let peer_plan = &plans[n.peer];
                let back = peer_plan
                    .send
                    .iter()
                    .find(|s| s.peer == plan.rank)
                    .expect("peer must have a matching send entry");
                // the peer's send indices, re-globalized, equal our recv list
                let peer_start = peer_plan.row_start as u32;
                let globals: Vec<u32> = back.indices.iter().map(|&l| l + peer_start).collect();
                assert_eq!(globals, n.indices);
            }
            // no self-communication
            assert!(plan.recv.iter().all(|n| n.peer != plan.rank));
            assert!(plan.send.iter().all(|n| n.peer != plan.rank));
        }
    }

    #[test]
    fn plan_covers_every_offpart_column_exactly_once() {
        let m = synthetic::random_general(200, 200, 7, 77);
        let p = RowPartition::by_nnz(&m, 4);
        let plans = build_plans_serial(&m, &p);
        for (r, plan) in plans.iter().enumerate() {
            let range = p.range(r);
            let block = m.row_block(range.clone());
            let mut required: Vec<u32> = block
                .col_idx()
                .iter()
                .copied()
                .filter(|&c| !range.contains(&(c as usize)))
                .collect();
            required.sort_unstable();
            required.dedup();
            assert_eq!(plan.halo_globals(), required);
        }
    }

    #[test]
    fn halo_offsets_partition_the_halo() {
        let m = synthetic::random_banded_symmetric(150, 30, 5.0, 3);
        let p = RowPartition::by_nnz(&m, 6);
        for plan in build_plans_serial(&m, &p) {
            let offs = plan.halo_offsets();
            assert_eq!(offs.len(), plan.recv.len() + 1);
            assert_eq!(
                *offs.last().expect("offs is seeded with 0"),
                plan.halo_len()
            );
        }
    }

    #[test]
    fn diagonal_matrix_needs_no_communication() {
        let m = CsrMatrix::identity(40);
        let p = RowPartition::by_rows(40, 4);
        for plan in build_plans_serial(&m, &p) {
            assert_eq!(plan.halo_len(), 0);
            assert_eq!(plan.send_len(), 0);
            assert_eq!(plan.messages_out(), 0);
        }
    }

    #[test]
    fn distributed_plan_matches_serial_plan() {
        let m = Arc::new(synthetic::random_banded_symmetric(240, 18, 6.0, 21));
        let p = Arc::new(RowPartition::by_nnz(&m, 4));
        let serial = build_plans_serial(&m, &p);
        let comms = CommWorld::create(4);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let m = Arc::clone(&m);
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let block = m.row_block(p.range(c.rank()));
                    build_plan_distributed(&c, &block, &p)
                })
            })
            .collect();
        let dist: Vec<RankPlan> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(dist, serial);
    }

    #[test]
    fn single_rank_plan_is_empty() {
        let m = synthetic::random_general(50, 50, 5, 6);
        let p = RowPartition::by_nnz(&m, 1);
        let plans = build_plans_serial(&m, &p);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].halo_len(), 0);
        assert_eq!(plans[0].local_len, 50);
    }

    #[test]
    fn byte_accounting() {
        let m = synthetic::tridiagonal(10, 2.0, -1.0);
        let p = RowPartition::by_rows(10, 2);
        let plans = build_plans_serial(&m, &p);
        assert_eq!(plans[0].bytes_in(), 8);
        assert_eq!(plans[0].bytes_out(), 8);
        assert_eq!(plans[0].messages_out(), 1);
    }

    /// Structural invariants every node-aware plan set must satisfy.
    fn check_node_aware_invariants(plans: &[RankPlan], map: &RankNodeMap) {
        let na = build_node_aware_serial(plans, map);
        for (r, p) in na.iter().enumerate() {
            assert_eq!(p.flat, plans[r]);
            assert_eq!(p.is_leader(), map.is_leader(r));
            // the reordered gather list is a permutation of the flat one
            let mut flat_idx: Vec<u32> = plans[r]
                .send
                .iter()
                .flat_map(|n| n.indices.iter().copied())
                .collect();
            let mut reord = p.gather_indices.clone();
            flat_idx.sort_unstable();
            reord.sort_unstable();
            assert_eq!(flat_idx, reord);
            // intra segments + ship region tile the send buffer
            let covered: usize =
                p.intra_send.iter().map(|(_, r)| r.len()).sum::<usize>() + p.ship_range.len();
            assert_eq!(covered, plans[r].send_len());
            // halo is tiled by intra segments + node segments
            let covered: usize = p.intra_recv.iter().map(|(_, r)| r.len()).sum::<usize>()
                + p.recv_node_segments
                    .iter()
                    .map(|(_, r)| r.len())
                    .sum::<usize>();
            assert_eq!(covered, plans[r].halo_len());
        }
        // wire messages match across node pairs: out(P→Q) length equals
        // in(P) length at Q's leader, and ship lengths match the members
        for p in na.iter().filter(|p| p.is_leader()) {
            let lp = p.leader.as_ref().unwrap();
            for (slot, &r) in lp.members.iter().enumerate() {
                assert_eq!(lp.ship_lens[slot], na[r].ship_len());
            }
            for w in &lp.wire_out {
                assert!(w.len > 0, "empty wire messages must be elided");
                let q_leader = &na[map.leader_of_node(w.node)];
                let win = q_leader
                    .leader
                    .as_ref()
                    .unwrap()
                    .wire_in
                    .iter()
                    .find(|wi| wi.node == p.my_node)
                    .expect("dest leader expects our wire message");
                assert_eq!(win.len, w.len, "wire length mismatch");
                // each part equals the member's halo segment for our node
                for (slot, &len) in win.parts.iter().enumerate() {
                    let member = &na[q_leader.leader.as_ref().unwrap().members[slot]];
                    let seg = member
                        .recv_node_segments
                        .iter()
                        .find(|(n, _)| *n == p.my_node);
                    assert_eq!(seg.map_or(0, |(_, r)| r.len()), len);
                }
            }
        }
        // node-aware must not send more inter-node messages than flat
        let flat_total: CommTraffic = plans
            .iter()
            .map(|p| p.traffic(map))
            .fold(CommTraffic::default(), |a, b| a.add(&b));
        let na_total: CommTraffic = na
            .iter()
            .map(|p| p.traffic())
            .fold(CommTraffic::default(), |a, b| a.add(&b));
        assert!(na_total.inter_msgs <= flat_total.inter_msgs);
        assert_eq!(
            na_total.inter_bytes, flat_total.inter_bytes,
            "aggregation must not change the inter-node byte volume"
        );
    }

    #[test]
    fn node_aware_invariants_banded() {
        let m = synthetic::random_banded_symmetric(400, 60, 6.0, 11);
        let p = RowPartition::by_nnz(&m, 8);
        let plans = build_plans_serial(&m, &p);
        for per_node in [1, 2, 4, 8] {
            check_node_aware_invariants(&plans, &RankNodeMap::contiguous(8, per_node));
        }
    }

    #[test]
    fn node_aware_invariants_scattered() {
        let m = synthetic::scattered(256, 16, 9);
        let p = RowPartition::by_nnz(&m, 6);
        let plans = build_plans_serial(&m, &p);
        check_node_aware_invariants(&plans, &RankNodeMap::contiguous(6, 2));
        check_node_aware_invariants(&plans, &RankNodeMap::contiguous(6, 4)); // ragged last node
    }

    #[test]
    fn node_aware_aggregates_dense_neighbourhoods() {
        // wide band, 4 ranks per node: many rank pairs per node pair
        let m = synthetic::random_banded_symmetric(600, 150, 8.0, 3);
        let p = RowPartition::by_rows(600, 8);
        let plans = build_plans_serial(&m, &p);
        let map = RankNodeMap::contiguous(8, 4);
        let na = build_node_aware_serial(&plans, &map);
        let flat_inter: usize = plans.iter().map(|p| p.traffic(&map).inter_msgs).sum();
        let na_inter: usize = na.iter().map(|p| p.traffic()).map(|t| t.inter_msgs).sum();
        assert!(
            na_inter < flat_inter,
            "aggregation should cut inter-node messages ({na_inter} vs {flat_inter})"
        );
        // with 2 nodes the wire count is at most one per ordered node pair
        assert!(na_inter <= 2);
    }

    #[test]
    fn node_aware_single_node_has_no_wires() {
        let m = synthetic::random_banded_symmetric(200, 30, 5.0, 7);
        let p = RowPartition::by_nnz(&m, 4);
        let plans = build_plans_serial(&m, &p);
        let map = RankNodeMap::contiguous(4, 4);
        let na = build_node_aware_serial(&plans, &map);
        for p in &na {
            assert!(p.ship_range.is_empty());
            assert!(p.recv_node_segments.is_empty());
            let t = p.traffic();
            assert_eq!(t.inter_msgs, 0);
            if let Some(lp) = &p.leader {
                assert!(lp.wire_out.is_empty());
                assert!(lp.wire_in.is_empty());
            }
        }
    }

    #[test]
    fn node_aware_distributed_matches_serial() {
        let m = Arc::new(synthetic::random_banded_symmetric(300, 40, 6.0, 23));
        let p = Arc::new(RowPartition::by_nnz(&m, 6));
        let map = Arc::new(RankNodeMap::contiguous(6, 2));
        let serial = build_node_aware_serial(&build_plans_serial(&m, &p), &map);
        let comms = CommWorld::create(6);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let m = Arc::clone(&m);
                let p = Arc::clone(&p);
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    let block = m.row_block(p.range(c.rank()));
                    let flat = build_plan_distributed(&c, &block, &p);
                    build_node_aware_distributed(&c, flat, &map)
                })
            })
            .collect();
        let dist: Vec<NodeAwarePlan> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(dist, serial);
    }
}
