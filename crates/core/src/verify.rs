//! Static verification of communication plans.
//!
//! Given the per-rank [`RankPlan`]s of a whole world and, for the
//! three-phase node-aware exchange, its rank → node map, this module builds
//! every rank's [`ExchangeSchedule`] ([`ExchangeSchedule::world`]) and the
//! global message graph of one exchange epoch, and proves it sound
//! *before* any payload moves:
//!
//! * every send has a matching receive with an identical byte count;
//! * tags are unique per (src, dst) flow within the epoch — two in-flight
//!   messages on one flow would make MPI matching order-dependent;
//! * gather programs index only columns the rank owns, and every requested
//!   halo column is owned by the peer it is requested from;
//! * the node-aware ship → wire → forward schedule is acyclic (a wire
//!   message routed back into its own node would deadlock the leader);
//! * the whole exchange is deadlock-free under nonblocking semantics,
//!   established by running the per-rank operation schedules — each rank's
//!   [`ExchangeSchedule`], the op list `RankEngine` runs, in the order it
//!   issues them — to a fixed point.
//!
//! Violations are typed [`PlanViolation`]s naming rank, peer, tag, and
//! byte counts, so a corrupted plan fails with an actionable diagnostic
//! instead of a 1024-rank hang. The engine runs these checks at
//! construction, on the world's plans it gathers once, when
//! [`EngineConfig::with_verification`](crate::engine::EngineConfig::with_verification)
//! is on (the default in debug builds); [`verify_distributed`] is the same
//! gather and checks as a stand-alone collective.

use crate::exchange::{ExchangeOp, ExchangeSchedule, Peer, TAG_WIRE};
use crate::plan::{gather_plans, RankPlan};
use spmv_comm::{Comm, Tag};
use spmv_machine::RankNodeMap;
use std::collections::BTreeMap;
use std::fmt;

/// One defect in a world's communication plan, with enough context to name
/// the offending rank, peer, tag, and byte counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanViolation {
    /// Rank `src` sends a message that no receive at `dst` matches.
    MissingRecv {
        /// Sending rank.
        src: usize,
        /// Destination rank that lacks the receive.
        dst: usize,
        /// Message tag.
        tag: Tag,
        /// Payload size of the orphaned send.
        bytes: usize,
    },
    /// Rank `dst` posts a receive that no send at `src` will ever satisfy.
    MissingSend {
        /// Source rank that lacks the send.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Message tag.
        tag: Tag,
        /// Payload size the receive expects.
        bytes: usize,
    },
    /// A send/receive pair matches but disagrees on payload size — the MPI
    /// truncation error, caught before any message is posted.
    ByteMismatch {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Message tag.
        tag: Tag,
        /// Bytes the sender would put on the wire.
        send_bytes: usize,
        /// Bytes the receiver's buffer expects.
        recv_bytes: usize,
    },
    /// More than one message in flight on one (src, dst, tag) flow in a
    /// single epoch: matching would depend on arrival order.
    TagCollision {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// The colliding tag.
        tag: Tag,
        /// Messages sharing the flow (> 1).
        count: usize,
    },
    /// A gather program indexes an element outside the rank's owned range.
    GatherOutOfRange {
        /// Rank whose gather program is corrupt.
        rank: usize,
        /// Peer the gathered segment is destined for.
        peer: usize,
        /// The offending local index.
        index: usize,
        /// The rank's owned length (valid indices are `0..local_len`).
        local_len: usize,
    },
    /// A halo column is requested from a peer that does not own it.
    HaloNotOwned {
        /// Rank whose recv list is corrupt.
        rank: usize,
        /// Peer the column is requested from.
        peer: usize,
        /// The global column index.
        column: usize,
    },
    /// A node leader sends or receives a wire message to or from a rank on
    /// its own node — a self-edge in the ship → wire → forward graph.
    ForwardCycle {
        /// The leader rank carrying the self-referential wire.
        rank: usize,
        /// The node wired back onto itself.
        node: usize,
    },
    /// The exchange cannot complete under nonblocking semantics: every
    /// unfinished rank is blocked. Lists each blocked rank with the
    /// (peer, tag) of the operation it waits on.
    Deadlock {
        /// `(rank, peer, tag)` of every blocked wait at the fixed point.
        blocked: Vec<(usize, usize, Tag)>,
    },
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::MissingRecv {
                src,
                dst,
                tag,
                bytes,
            } => write!(
                f,
                "send {src} -> {dst} (tag {tag}, {bytes} B) has no matching recv"
            ),
            PlanViolation::MissingSend {
                src,
                dst,
                tag,
                bytes,
            } => write!(
                f,
                "recv at {dst} from {src} (tag {tag}, {bytes} B) has no matching send"
            ),
            PlanViolation::ByteMismatch {
                src,
                dst,
                tag,
                send_bytes,
                recv_bytes,
            } => write!(
                f,
                "byte mismatch {src} -> {dst} (tag {tag}): send {send_bytes} B, recv {recv_bytes} B"
            ),
            PlanViolation::TagCollision {
                src,
                dst,
                tag,
                count,
            } => write!(
                f,
                "tag collision: {count} messages on flow {src} -> {dst} tag {tag} in one epoch"
            ),
            PlanViolation::GatherOutOfRange {
                rank,
                peer,
                index,
                local_len,
            } => write!(
                f,
                "rank {rank} gathers local index {index} for peer {peer}, but owns only 0..{local_len}"
            ),
            PlanViolation::HaloNotOwned { rank, peer, column } => write!(
                f,
                "rank {rank} requests column {column} from rank {peer}, which does not own it"
            ),
            PlanViolation::ForwardCycle { rank, node } => write!(
                f,
                "leader rank {rank} wires node {node} back onto itself (ship/wire/forward cycle)"
            ),
            PlanViolation::Deadlock { blocked } => {
                write!(f, "exchange deadlocks; blocked waits:")?;
                for (rank, peer, tag) in blocked {
                    write!(f, " [rank {rank} on peer {peer} tag {tag}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PlanViolation {}

/// Statistics of a successfully verified exchange epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanSummary {
    /// World size.
    pub ranks: usize,
    /// Point-to-point messages per epoch.
    pub messages: usize,
    /// Payload bytes per epoch.
    pub bytes: usize,
    /// Blocking operations simulated by the deadlock check.
    pub blocking_ops: usize,
}

impl fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ranks, {} messages, {} bytes, {} blocking ops — deadlock-free",
            self.ranks, self.messages, self.bytes, self.blocking_ops
        )
    }
}

/// One operation of a rank's exchange, as the deadlock check sees it; the
/// peer is the rank at the message's other end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Nonblocking send post of `bytes` (never blocks here).
    SendPost(Peer, usize),
    /// Blocking receive of `bytes`: completes once the matching send is
    /// posted.
    RecvBlock(Peer, usize),
    /// Rendezvous send completion: blocks until the matching receive has
    /// consumed the payload.
    SendWait(Peer),
}

/// A rank's exchange op list projected onto the ops that matter for
/// matching and progress: receives block at the wait that completes them
/// (a leader's relay receives where they stand), sends post where they
/// stand and complete at the wait for sends, and copies drop out.
fn project<'o>(ops: impl IntoIterator<Item = &'o ExchangeOp>) -> Vec<Op> {
    let (mut out, mut recvs, mut sends) = (Vec::new(), Vec::new(), Vec::new());
    for op in ops {
        match *op {
            ExchangeOp::Irecv(peer, ref r) => recvs.push(Op::RecvBlock(peer, 8 * r.len())),
            ExchangeOp::Isend(peer, _, ref r) => {
                out.push(Op::SendPost(peer, 8 * r.len()));
                sends.push(Op::SendWait(peer));
            }
            ExchangeOp::Recv(peer, _, len) => out.push(Op::RecvBlock(peer, 8 * len)),
            ExchangeOp::Copy(..) => {}
            ExchangeOp::WaitRecvs => out.append(&mut recvs),
            ExchangeOp::WaitSends => out.append(&mut sends),
        }
    }
    out
}

/// Per-flow tallies: (send count, send bytes, recv count, recv bytes).
type FlowTally = (usize, usize, usize, usize);

/// Message-matching and tag-uniqueness checks over a world's schedules.
fn check_matching(world: &[Vec<Op>], violations: &mut Vec<PlanViolation>) {
    let mut flows: BTreeMap<(usize, usize, Tag), FlowTally> = BTreeMap::new();
    for (rank, ops) in world.iter().enumerate() {
        for op in ops {
            match *op {
                Op::SendPost((dst, tag), bytes) => {
                    let e = flows.entry((rank, dst, tag)).or_default();
                    e.0 += 1;
                    e.1 = bytes;
                }
                Op::RecvBlock((src, tag), bytes) => {
                    let e = flows.entry((src, rank, tag)).or_default();
                    e.2 += 1;
                    e.3 = bytes;
                }
                Op::SendWait(_) => {}
            }
        }
    }
    for (&(src, dst, tag), &(ns, sb, nr, rb)) in &flows {
        if ns > 1 || nr > 1 {
            violations.push(PlanViolation::TagCollision {
                src,
                dst,
                tag,
                count: ns.max(nr),
            });
        } else if ns == 1 && nr == 0 {
            violations.push(PlanViolation::MissingRecv {
                src,
                dst,
                tag,
                bytes: sb,
            });
        } else if ns == 0 && nr == 1 {
            violations.push(PlanViolation::MissingSend {
                src,
                dst,
                tag,
                bytes: rb,
            });
        } else if sb != rb {
            violations.push(PlanViolation::ByteMismatch {
                src,
                dst,
                tag,
                send_bytes: sb,
                recv_bytes: rb,
            });
        }
    }
}

/// Runs the world's schedules to a fixed point under nonblocking
/// semantics: posts never block, a blocking receive completes once the
/// matching send is posted, and a rendezvous send-wait completes once the
/// matching receive has consumed the payload. Returns the blocked waits if
/// the world wedges, `Ok` with the blocking-op count otherwise.
fn check_deadlock(world: &[Vec<Op>]) -> Result<usize, Vec<(usize, usize, Tag)>> {
    let mut pc = vec![0usize; world.len()];
    let mut sent: BTreeMap<(usize, usize, Tag), usize> = BTreeMap::new();
    let mut consumed: BTreeMap<(usize, usize, Tag), usize> = BTreeMap::new();
    let mut blocking_ops = 0usize;
    loop {
        let mut progress = false;
        for (rank, ops) in world.iter().enumerate() {
            while pc[rank] < ops.len() {
                match ops[pc[rank]] {
                    Op::SendPost((dst, tag), _) => {
                        *sent.entry((rank, dst, tag)).or_default() += 1;
                    }
                    Op::RecvBlock((src, tag), _) => {
                        let avail = sent.get(&(src, rank, tag)).copied().unwrap_or(0);
                        let taken = consumed.entry((src, rank, tag)).or_default();
                        if *taken >= avail {
                            break; // matching send not posted yet
                        }
                        *taken += 1;
                        blocking_ops += 1;
                    }
                    Op::SendWait((dst, tag)) => {
                        let done = consumed.get(&(rank, dst, tag)).copied().unwrap_or(0);
                        if done == 0 {
                            break; // receiver has not consumed the payload
                        }
                        blocking_ops += 1;
                    }
                }
                pc[rank] += 1;
                progress = true;
            }
        }
        if pc.iter().zip(world).all(|(&p, ops)| p == ops.len()) {
            return Ok(blocking_ops);
        }
        if !progress {
            let blocked = world
                .iter()
                .enumerate()
                .filter(|(r, ops)| pc[*r] < ops.len())
                .map(|(r, ops)| match ops[pc[r]] {
                    Op::RecvBlock((peer, tag), _) | Op::SendWait((peer, tag)) => (r, peer, tag),
                    Op::SendPost((peer, tag), _) => (r, peer, tag),
                })
                .collect();
            return Err(blocked);
        }
    }
}

/// Gather- and halo-ownership checks shared by both strategies. `plans`
/// must be the whole world in rank order.
fn check_ownership(plans: &[RankPlan], violations: &mut Vec<PlanViolation>) {
    for p in plans {
        for n in &p.send {
            for &i in &n.indices {
                if i as usize >= p.local_len {
                    violations.push(PlanViolation::GatherOutOfRange {
                        rank: p.rank,
                        peer: n.peer,
                        index: i as usize,
                        local_len: p.local_len,
                    });
                }
            }
        }
        for n in &p.recv {
            let Some(owner) = plans.get(n.peer) else {
                continue; // peer out of range surfaces as MissingSend
            };
            for &c in &n.indices {
                let c = c as usize;
                if c < owner.row_start || c >= owner.row_start + owner.local_len {
                    violations.push(PlanViolation::HaloNotOwned {
                        rank: p.rank,
                        peer: n.peer,
                        column: c,
                    });
                }
            }
        }
    }
}

/// Summarizes the message volume of a world's schedules.
fn summarize(world: &[Vec<Op>], blocking_ops: usize) -> PlanSummary {
    let (mut messages, mut bytes) = (0usize, 0usize);
    for ops in world {
        for op in ops {
            if let Op::SendPost(_, b) = op {
                messages += 1;
                bytes += b;
            }
        }
    }
    PlanSummary {
        ranks: world.len(),
        messages,
        bytes,
        blocking_ops,
    }
}

/// Wire checks over a node-aware world's schedules: a wire message whose
/// other end is on the sender's or receiver's own node is a
/// [`PlanViolation::ForwardCycle`].
fn check_wires(world: &[Vec<Op>], map: &RankNodeMap, violations: &mut Vec<PlanViolation>) {
    for (rank, ops) in world.iter().enumerate() {
        for op in ops {
            if let Op::SendPost((peer, TAG_WIRE), _) | Op::RecvBlock((peer, TAG_WIRE), _) = *op {
                if map.same_node(rank, peer) {
                    violations.push(PlanViolation::ForwardCycle {
                        rank,
                        node: map.node_of(rank),
                    });
                }
            }
        }
    }
}

/// Shared tail: wire, matching and deadlock checks over prepared
/// schedules (`map` is `None` for the flat exchange).
fn verify_world(
    world: Vec<Vec<Op>>,
    map: Option<&RankNodeMap>,
    mut violations: Vec<PlanViolation>,
) -> Result<PlanSummary, Vec<PlanViolation>> {
    if let Some(map) = map {
        check_wires(&world, map, &mut violations);
    }
    check_matching(&world, &mut violations);
    match check_deadlock(&world) {
        Ok(blocking_ops) if violations.is_empty() => Ok(summarize(&world, blocking_ops)),
        Ok(_) => Err(violations),
        Err(blocked) => {
            violations.push(PlanViolation::Deadlock { blocked });
            Err(violations)
        }
    }
}

/// Verifies a whole world of flat plans (`plans[r].rank == r`) under the
/// exchange [`ExchangeSchedule::world`] builds from them: flat when `map`
/// is `None`, node-aware over `map` otherwise. The ownership checks run on
/// the flat plans (the node-aware gather list reorders the same send
/// lists); the rest on the op lists. The message structure is identical
/// across all three kernel modes — the task-mode communication thread
/// issues the same schedule the vector modes issue inline — so one
/// verification covers every mode.
pub fn verify_plans(
    plans: &[RankPlan],
    map: Option<&RankNodeMap>,
) -> Result<PlanSummary, Vec<PlanViolation>> {
    verify_schedules(plans, map, &ExchangeSchedule::world(plans, map))
}

/// [`verify_plans`] over `schedules`, the world's exchange as
/// [`ExchangeSchedule::world`] built it; an engine checks the list it runs.
pub(crate) fn verify_schedules(
    plans: &[RankPlan],
    map: Option<&RankNodeMap>,
    schedules: &[ExchangeSchedule],
) -> Result<PlanSummary, Vec<PlanViolation>> {
    let mut violations = Vec::new();
    check_ownership(plans, &mut violations);
    let world = schedules.iter().map(|s| project(s.ops())).collect();
    verify_world(world, map, violations)
}

// -- distributed entry point ------------------------------------------------

/// Collective plan verification: [`gather_plans`] (one allgather on the
/// reserved collective tags, so injected point-to-point faults cannot
/// corrupt it) reconstructs the whole world, then [`verify_plans`] checks
/// it under `node_map` (`None` for the flat exchange). `RankEngine::new`
/// makes the same gather and verifies the op lists it then runs.
///
/// Returns this rank's view; all ranks compute identical results.
pub fn verify_distributed(
    comm: &Comm,
    plan: &RankPlan,
    node_map: Option<&RankNodeMap>,
) -> Result<PlanSummary, Vec<PlanViolation>> {
    verify_plans(&gather_plans(comm, plan), node_map)
}

/// A verdict at engine construction, which has no error channel: panics
/// on `rank` listing every violation.
pub(crate) fn assert_verified(rank: usize, verdict: Result<PlanSummary, Vec<PlanViolation>>) {
    if let Err(violations) = verdict {
        let list: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        panic!(
            "communication-plan verification failed on rank {rank} ({} violation(s)):\n  {}",
            violations.len(),
            list.join("\n  ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::TAG_HALO;
    use crate::partition::RowPartition;
    use crate::plan::build_plans_serial;
    use spmv_matrix::synthetic;

    fn world(n: usize, ranks: usize) -> Vec<RankPlan> {
        let m = synthetic::random_banded_symmetric(n, 9, 4.0, 7);
        build_plans_serial(&m, &RowPartition::by_nnz(&m, ranks))
    }

    #[test]
    fn accepts_organic_flat_plans() {
        let summary = verify_plans(&world(120, 5), None).expect("organic plans verify");
        assert_eq!(summary.ranks, 5);
        assert!(summary.messages > 0);
        assert_eq!(summary.bytes % 8, 0);
    }

    #[test]
    fn accepts_organic_node_aware_worlds() {
        let plans = world(120, 6);
        let map = RankNodeMap::contiguous(6, 2);
        let summary = verify_plans(&plans, Some(&map)).expect("organic node-aware plans verify");
        assert_eq!(summary.ranks, 6);
    }

    #[test]
    fn dropped_recv_is_missing_recv() {
        let mut plans = world(80, 4);
        let victim = plans
            .iter()
            .position(|p| !p.recv.is_empty())
            .expect("some rank receives");
        let n = plans[victim].recv.remove(0);
        let err = verify_plans(&plans, None).expect_err("dropped recv must fail");
        assert!(
            err.iter().any(|v| matches!(
                v,
                PlanViolation::MissingRecv { src, dst, tag: TAG_HALO, .. }
                    if *src == n.peer && *dst == victim
            )),
            "expected MissingRecv {} -> {victim}, got {err:?}",
            n.peer
        );
    }

    #[test]
    fn truncated_recv_is_byte_mismatch() {
        let mut plans = world(80, 4);
        let (victim, k, peer, want) = plans
            .iter()
            .enumerate()
            .find_map(|(r, p)| {
                p.recv
                    .iter()
                    .position(|n| n.indices.len() > 1)
                    .map(|k| (r, k, p.recv[k].peer, p.recv[k].indices.len()))
            })
            .expect("some multi-element halo segment");
        plans[victim].recv[k].indices.pop();
        let err = verify_plans(&plans, None).expect_err("truncated recv must fail");
        assert!(
            err.iter().any(|v| matches!(
                v,
                PlanViolation::ByteMismatch { src, dst, send_bytes, recv_bytes, .. }
                    if *src == peer && *dst == victim
                        && *send_bytes == want * 8
                        && *recv_bytes == (want - 1) * 8
            )),
            "expected ByteMismatch {peer} -> {victim}, got {err:?}"
        );
    }

    #[test]
    fn duplicated_neighbor_is_tag_collision() {
        let mut plans = world(80, 4);
        let victim = plans
            .iter()
            .position(|p| !p.recv.is_empty())
            .expect("some rank receives");
        let dup = plans[victim].recv[0].clone();
        let peer = dup.peer;
        plans[victim].recv.push(dup);
        let err = verify_plans(&plans, None).expect_err("duplicate flow must fail");
        assert!(
            err.iter().any(|v| matches!(
                v,
                PlanViolation::TagCollision { src, dst, count: 2, .. }
                    if *src == peer && *dst == victim
            )),
            "expected TagCollision {peer} -> {victim}, got {err:?}"
        );
    }

    #[test]
    fn out_of_range_gather_is_caught() {
        let mut plans = world(80, 4);
        let victim = plans
            .iter()
            .position(|p| !p.send.is_empty())
            .expect("some rank sends");
        let bad = plans[victim].local_len as u32 + 3;
        plans[victim].send[0].indices[0] = bad;
        let err = verify_plans(&plans, None).expect_err("gather out of range must fail");
        assert!(
            err.iter().any(|v| matches!(
                v,
                PlanViolation::GatherOutOfRange { rank, index, .. }
                    if *rank == victim && *index == bad as usize
            )),
            "expected GatherOutOfRange at rank {victim}, got {err:?}"
        );
    }

    /// Each rank's op list, as a mutable copy.
    fn op_lists(schedules: &[ExchangeSchedule]) -> Vec<Vec<ExchangeOp>> {
        schedules
            .iter()
            .map(|s| s.ops().cloned().collect())
            .collect()
    }

    #[test]
    fn self_wire_is_forward_cycle() {
        let plans = world(120, 6);
        let map = RankNodeMap::contiguous(6, 2);
        let mut ops = op_lists(&ExchangeSchedule::world(&plans, Some(&map)));
        // a leader's first outgoing wire, rerouted to the leader itself
        let (leader, wire) = (ops.iter_mut().enumerate())
            .find_map(|(r, ops)| {
                let wire = ops
                    .iter_mut()
                    .find(|op| matches!(op, ExchangeOp::Isend((_, TAG_WIRE), ..)))?;
                Some((r, wire))
            })
            .expect("some leader has outgoing wires");
        let ExchangeOp::Isend((peer, _), ..) = wire else {
            unreachable!("found a wire send")
        };
        *peer = leader;
        let my_node = map.node_of(leader);
        let world = ops.iter().map(project).collect();
        let err = verify_world(world, Some(&map), Vec::new()).expect_err("self wire must fail");
        assert!(
            err.iter().any(|v| matches!(
                v,
                PlanViolation::ForwardCycle { rank, node }
                    if *rank == leader && *node == my_node
            )),
            "expected ForwardCycle at leader {leader}, got {err:?}"
        );
    }

    #[test]
    fn leaders_receiving_wires_before_sending_them_deadlock() {
        // 4 ranks, 2 per node: leaders 0 and 2 exchange one wire each way
        let plans = world(120, 4);
        let map = RankNodeMap::contiguous(4, 2);
        let ops = op_lists(&ExchangeSchedule::world(&plans, Some(&map)));
        // the op list with a leader's wire receive moved ahead of its sends
        let early_wire_recv = |ops: &[ExchangeOp]| {
            let mut ops = ops.to_vec();
            let wire_send = ops
                .iter()
                .position(|op| matches!(op, ExchangeOp::Isend((_, TAG_WIRE), ..)));
            let wire_recv = ops
                .iter()
                .position(|op| matches!(op, ExchangeOp::Recv((_, TAG_WIRE), ..)));
            let (send, recv) = wire_send.zip(wire_recv).expect("a leader wires both ways");
            let op = ops.remove(recv);
            ops.insert(send, op);
            project(&ops)
        };
        let honest: Vec<Vec<Op>> = ops.iter().map(project).collect();
        let verify = |world| verify_world(world, Some(&map), Vec::new());
        verify(honest.clone()).expect("the real schedule verifies");
        // one leader that receives first still completes: the other leader
        // posts its wire before it blocks
        let mut one = honest;
        one[0] = early_wire_recv(&ops[0]);
        verify(one).expect("one early receive cannot wedge");
        // two such leaders wait on each other
        let both = (0..ops.len())
            .map(|r| {
                if map.is_leader(r) {
                    early_wire_recv(&ops[r])
                } else {
                    project(&ops[r])
                }
            })
            .collect();
        let err = verify(both).expect_err("head-to-head wires deadlock");
        let [PlanViolation::Deadlock { blocked }] = err.as_slice() else {
            panic!("expected one Deadlock, got {err:?}");
        };
        assert!(
            blocked.contains(&(0, 2, TAG_WIRE)) && blocked.contains(&(2, 0, TAG_WIRE)),
            "both leaders must block on each other's wire: {blocked:?}"
        );
    }

    #[test]
    fn deadlock_sim_catches_mutual_blocking_recv() {
        // Hand-built schedules: both ranks block on a receive before
        // posting their send — the classic head-to-head deadlock the
        // engine's post-first order is designed to exclude.
        let world = vec![
            vec![
                Op::RecvBlock((1, 1), 8),
                Op::SendPost((1, 1), 8),
                Op::SendWait((1, 1)),
            ],
            vec![
                Op::RecvBlock((0, 1), 8),
                Op::SendPost((0, 1), 8),
                Op::SendWait((0, 1)),
            ],
        ];
        let blocked = check_deadlock(&world).expect_err("head-to-head must deadlock");
        assert_eq!(blocked, vec![(0, 1, 1), (1, 0, 1)]);
    }

    #[test]
    fn verify_distributed_matches_serial() {
        let m = synthetic::random_banded_symmetric(90, 7, 4.0, 3);
        let part = RowPartition::by_nnz(&m, 4);
        let serial = verify_plans(&build_plans_serial(&m, &part), None).expect("serial verifies");
        let comms = spmv_comm::CommWorld::create(4);
        let out = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let (m, part) = (&m, &part);
                    s.spawn(move || {
                        let block = m.row_block(part.range(comm.rank()));
                        let plan = crate::plan::build_plan_distributed(&comm, &block, part);
                        verify_distributed(&comm, &plan, None)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread"))
                .collect::<Vec<_>>()
        });
        for r in out {
            assert_eq!(r.expect("distributed verifies"), serial);
        }
    }
}
