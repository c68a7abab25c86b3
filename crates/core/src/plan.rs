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
use spmv_comm::Comm;
use spmv_matrix::CsrMatrix;

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

/// Assembles rank `me`'s plan from the columns it needs (grouped by owner,
/// as [`needed_columns`] returns them) and the global columns each peer
/// requests from it (ascending peer, non-empty lists).
fn assemble_plan(
    partition: &RowPartition,
    me: usize,
    needed: Vec<(usize, Vec<u32>)>,
    requests: impl IntoIterator<Item = (usize, Vec<u32>)>,
) -> RankPlan {
    let my_start = partition.range(me).start;
    let my_len = partition.len(me);
    let send = requests
        .into_iter()
        .map(|(peer, req)| {
            let indices = req
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

/// Builds all rank plans centrally from the full matrix (used by tests, the
/// workload analyzer, and the simulator — no communication involved).
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
    let needed: Vec<_> = (0..parts)
        .map(|me| needed_columns(&matrix.row_block(partition.range(me)), partition, me))
        .collect();
    // each rank's requests: the transpose of the needed relation, in
    // ascending requester order
    let mut requests = vec![Vec::new(); parts];
    for (other, cols) in needed.iter().enumerate() {
        for (peer, v) in cols {
            requests[*peer].push((other, v.clone()));
        }
    }
    needed
        .into_iter()
        .zip(requests)
        .enumerate()
        .map(|(me, (needed, requests))| assemble_plan(partition, me, needed, requests))
        .collect()
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
    let requests = (comm.alltoallv(&outgoing).into_iter().enumerate())
        .filter(|(peer, req)| *peer != me && !req.is_empty());
    assemble_plan(partition, me, needed, requests)
}

/// Every rank's flat plan, in rank order, from one `allgatherv` of this
/// rank's (collective; on the reserved collective tags, which injected
/// point-to-point faults never touch).
pub fn gather_plans(comm: &Comm, plan: &RankPlan) -> Vec<RankPlan> {
    let encoded = comm.allgatherv(&encode_plan(plan));
    encoded.iter().map(|w| decode_plan(w)).collect()
}

/// Flat-plan wire format: a `u32` word stream
/// `[rank, row_start, local_len, nrecv, nsend, {peer, len, indices...}*]`.
fn encode_plan(plan: &RankPlan) -> Vec<u32> {
    let mut w = Vec::with_capacity(5 + plan.halo_len() + plan.send_len());
    w.push(plan.rank as u32);
    w.push(u32::try_from(plan.row_start).expect("row_start exceeds the u32 column space"));
    w.push(plan.local_len as u32);
    w.push(plan.recv.len() as u32);
    w.push(plan.send.len() as u32);
    for list in [&plan.recv, &plan.send] {
        for n in list {
            w.push(n.peer as u32);
            w.push(n.indices.len() as u32);
            w.extend_from_slice(&n.indices);
        }
    }
    w
}

fn decode_plan(w: &[u32]) -> RankPlan {
    let mut it = w.iter().copied();
    let mut next = || it.next().expect("truncated plan encoding") as usize;
    let (rank, row_start, local_len) = (next(), next(), next());
    let (nrecv, nsend) = (next(), next());
    let mut read_list = |count: usize| {
        (0..count)
            .map(|_| {
                let peer = next();
                let len = next();
                Neighbor {
                    peer,
                    indices: (0..len).map(|_| next() as u32).collect(),
                }
            })
            .collect()
    };
    let recv = read_list(nrecv);
    let send = read_list(nsend);
    RankPlan {
        rank,
        row_start,
        local_len,
        recv,
        send,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::{Dst, ExchangeOp, ExchangeSchedule, Src, TAG_WIRE};
    use crate::verify::verify_plans;
    use spmv_comm::CommWorld;
    use spmv_machine::RankNodeMap;
    use spmv_matrix::synthetic;
    use spmv_model::RankTraffic;
    use std::ops::Range;
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
    fn plan_encoding_round_trips() {
        let m = synthetic::random_banded_symmetric(100, 9, 4.0, 7);
        for p in build_plans_serial(&m, &RowPartition::by_nnz(&m, 5)) {
            assert_eq!(decode_plan(&encode_plan(&p)), p);
        }
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
    }

    /// Structural invariants every node-aware exchange must satisfy.
    fn check_node_aware_invariants(plans: &[RankPlan], map: &RankNodeMap) {
        let na = ExchangeSchedule::world(plans, Some(map));
        for (r, s) in na.iter().enumerate() {
            let plan = &plans[r];
            // the send buffer is the flat send lists reordered, same-node
            // segments first
            let (intra, inter): (Vec<_>, Vec<_>) =
                (plan.send.iter()).partition(|n| map.same_node(r, n.peer));
            let flat_order: Vec<u32> = (intra.iter().chain(&inter))
                .flat_map(|n| n.indices.iter().copied())
                .collect();
            assert_eq!(s.gather_indices, flat_order);
            // direct segments, then the ship region, tile the send buffer
            // (a leader reads its own ship region in place)
            let mut sent: Vec<Range<usize>> = s
                .ops()
                .filter_map(|op| match op {
                    ExchangeOp::Isend(_, Src::Send, r) | ExchangeOp::Copy(Src::Send, r, ..) => {
                        Some(r.clone())
                    }
                    _ => None,
                })
                .collect();
            sent.sort_by_key(|r| r.start);
            assert_tiles(&sent, plan.send_len());
            // receives and landing copies tile the halo
            let mut filled: Vec<Range<usize>> = s
                .ops()
                .filter_map(|op| match op {
                    ExchangeOp::Irecv(_, r) => Some(r.clone()),
                    ExchangeOp::Copy(_, r, Dst::Halo, at) => Some(*at..at + r.len()),
                    _ => None,
                })
                .collect();
            filled.sort_by_key(|r| r.start);
            assert_tiles(&filled, plan.halo_len());
            // only leaders relay
            let relays = s.ops().any(|op| {
                matches!(op, ExchangeOp::Recv(..) | ExchangeOp::Copy(..))
                    || matches!(op, ExchangeOp::Isend(_, Src::Relay(_), _))
            });
            assert!(
                !relays || map.is_leader(r),
                "rank {r} relays but leads no node"
            );
        }
        // every ship, wire and forward is matched by a receive of its length
        verify_plans(plans, Some(map)).expect("node-aware exchange verifies");
        // node-aware must not send more inter-node messages than flat
        let total = |world: Vec<ExchangeSchedule>| -> RankTraffic {
            world.iter().map(|s| s.traffic(map)).sum()
        };
        let flat_total = total(ExchangeSchedule::world(plans, None));
        let na_total = total(na);
        assert!(na_total.inter_msgs <= flat_total.inter_msgs);
        assert_eq!(
            na_total.inter_bytes, flat_total.inter_bytes,
            "aggregation must not change the inter-node byte volume"
        );
    }

    /// `ranges`, sorted by start, cover `0..len` without gaps or overlap.
    fn assert_tiles(ranges: &[Range<usize>], len: usize) {
        let mut at = 0;
        for r in ranges {
            assert_eq!(r.start, at, "ranges must tile 0..{len}: {ranges:?}");
            at = r.end;
        }
        assert_eq!(at, len, "ranges must tile 0..{len}: {ranges:?}");
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
        let na = ExchangeSchedule::world(&plans, Some(&map));
        let inter = |world: &[ExchangeSchedule]| -> usize {
            world.iter().map(|s| s.traffic(&map).inter_msgs).sum()
        };
        let flat_inter = inter(&ExchangeSchedule::world(&plans, None));
        let na_inter = inter(&na);
        assert!(
            na_inter < flat_inter,
            "aggregation should cut inter-node messages ({na_inter} vs {flat_inter})"
        );
        // at most one wire per ordered node pair
        let mut wires = std::collections::BTreeMap::new();
        for (r, s) in na.iter().enumerate() {
            for op in s.ops() {
                if let ExchangeOp::Isend((peer, TAG_WIRE), ..) = op {
                    let pair = (map.node_of(r), map.node_of(*peer));
                    *wires.entry(pair).or_insert(0) += 1;
                }
            }
        }
        assert!(
            !wires.is_empty() && wires.values().all(|&n| n == 1),
            "{wires:?}"
        );
        assert!(na_inter <= 2);
    }

    #[test]
    fn node_aware_single_node_has_no_wires() {
        let m = synthetic::random_banded_symmetric(200, 30, 5.0, 7);
        let p = RowPartition::by_nnz(&m, 4);
        let plans = build_plans_serial(&m, &p);
        let map = RankNodeMap::contiguous(4, 4);
        // with every peer on one node, the node-aware exchange is the flat one
        let na = ExchangeSchedule::world(&plans, Some(&map));
        assert_eq!(na, ExchangeSchedule::world(&plans, None));
        for s in &na {
            assert_eq!(s.traffic(&map).inter_msgs, 0);
            assert!(s.relay_lens.is_empty());
        }
    }

    #[test]
    fn node_aware_distributed_matches_serial() {
        let m = Arc::new(synthetic::random_banded_symmetric(300, 40, 6.0, 23));
        let p = Arc::new(RowPartition::by_nnz(&m, 6));
        let map = Arc::new(RankNodeMap::contiguous(6, 2));
        let serial = ExchangeSchedule::world(&build_plans_serial(&m, &p), Some(&map));
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
                    ExchangeSchedule::node_aware(&gather_plans(&c, &flat), c.rank(), &map)
                })
            })
            .collect();
        let dist: Vec<ExchangeSchedule> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(dist, serial);
    }
}
