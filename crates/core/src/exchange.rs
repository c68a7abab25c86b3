//! The halo exchange, written once. Each rank's exchange is an
//! [`ExchangeSchedule`]: a comm-free list of [`ExchangeOp`]s built from the
//! world's [`RankPlan`]s ([`ExchangeSchedule::world`]) and grouped by the
//! step of a Fig. 4 schedule that issues it (post the receives, send,
//! finish). The engine's
//! `HaloExchange` interprets that list; the plan verifier
//! ([`crate::verify`]), the predicted traffic
//! ([`ExchangeSchedule::traffic`]) and the interleaving explorer read the
//! same list. Everything strategy-specific lives here: the gather order,
//! which segment travels to or from which peer under which tag, and the
//! node leaders' relay (Bienz et al.).

use crate::gather::GatherProgram;
use crate::modes::Step;
use crate::plan::RankPlan;
use spmv_comm::{Comm, CommError, Request, Tag};
use spmv_machine::RankNodeMap;
use spmv_model::RankTraffic;
use std::ops::Range;
use std::sync::Mutex;

/// Tag used for direct halo-exchange messages.
pub const TAG_HALO: Tag = 17;
/// Tag for member → leader shipments (node-aware phase 1).
pub(crate) const TAG_SHIP: Tag = 18;
/// Tag for leader → leader aggregated wire messages (phase 2).
pub(crate) const TAG_WIRE: Tag = 19;
/// Tag base for leader → member forwarded halo slices (phase 3); the
/// source node id is added so slices from different nodes never collide.
pub(crate) const TAG_FWD_BASE: Tag = 1024;

/// How the halo exchange is routed (see [`ExchangeSchedule::world`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommStrategy {
    /// Every rank messages every neighbour directly (the paper's scheme).
    #[default]
    Flat,
    /// Inter-node traffic is aggregated through one leader rank per node
    /// (Bienz et al.), for blocks of `ranks_per_node` consecutive ranks.
    NodeAware {
        /// Ranks hosted per node (the last node may hold fewer).
        ranks_per_node: usize,
    },
}

impl CommStrategy {
    /// Parses a `--comm-strategy` CLI value (`flat` | `node-aware`).
    pub fn parse(s: &str, ranks_per_node: usize) -> Option<Self> {
        match s {
            "flat" => Some(CommStrategy::Flat),
            "node-aware" | "node_aware" | "nodeaware" => {
                Some(CommStrategy::NodeAware { ranks_per_node })
            }
            _ => None,
        }
    }

    /// Short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            CommStrategy::Flat => "flat",
            CommStrategy::NodeAware { .. } => "node-aware",
        }
    }

    /// Reads `SPMV_COMM_STRATEGY` — `flat`, `node-aware`, or
    /// `node-aware:<ranks_per_node>` (default 4) — which steers every
    /// default [`EngineConfig`](crate::EngineConfig). Unset or empty means
    /// "no override".
    ///
    /// # Panics
    /// On any other value, so a typo cannot silently run the flat exchange.
    pub fn from_env() -> Option<Self> {
        Self::from_env_value(&std::env::var("SPMV_COMM_STRATEGY").ok()?)
    }

    fn from_env_value(v: &str) -> Option<Self> {
        if v.is_empty() {
            return None;
        }
        let parsed = match v.split_once(':') {
            Some((name, rpn)) => rpn
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .and_then(|n| Self::parse(name, n)),
            None => Self::parse(v, 4),
        };
        Some(parsed.unwrap_or_else(|| {
            panic!(
                "SPMV_COMM_STRATEGY={v:?} is not a comm strategy \
                 (expected flat, node-aware or node-aware:<ranks_per_node>)"
            )
        }))
    }

    /// The rank → node map the node-aware exchange routes over in a world
    /// of `size`, or `None` for the flat exchange (the convention of
    /// [`ExchangeSchedule::world`]).
    pub fn rank_node_map(&self, size: usize) -> Option<RankNodeMap> {
        match self {
            CommStrategy::Flat => None,
            CommStrategy::NodeAware { ranks_per_node } => {
                Some(RankNodeMap::contiguous(size, *ranks_per_node))
            }
        }
    }
}

/// A buffer an exchange op reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// The gathered send buffer.
    Send,
    /// A node leader's relay buffer `k` ([`ExchangeSchedule::relay_lens`]).
    Relay(usize),
}

/// A buffer an exchange copy writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dst {
    /// The rank's halo, the tail of its extended RHS.
    Halo,
    /// A node leader's relay buffer `k`.
    Relay(usize),
}

/// The rank at a message's other end, and the message's tag.
pub type Peer = (usize, Tag);

/// One operation of a rank's halo exchange; ranges count `f64` elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeOp {
    /// Nonblocking receive into `halo[range]`.
    Irecv(Peer, Range<usize>),
    /// Nonblocking send of `src[range]`: a send-buffer segment, or a
    /// leader's wire or forwarded slice.
    Isend(Peer, Src, Range<usize>),
    /// `Recv(peer, k, len)`: a leader's blocking receive of a shipment or a
    /// wire into relay buffer `k`, all `len` elements of it.
    Recv(Peer, usize, usize),
    /// `Copy(src, range, dst, at)`: `dst[at..]` gets `src[range]`, as a
    /// leader assembles a wire or lands its own share of one.
    Copy(Src, Range<usize>, Dst, usize),
    /// Waits for every receive posted so far.
    WaitRecvs,
    /// Waits for every send posted so far.
    WaitSends,
}

/// One rank's halo exchange as a comm-free op list, grouped by the step of
/// a Fig. 4 schedule that issues it ([`Self::ops_of`]). The engine runs
/// this list; the plan verifier, the traffic count and the interleaving
/// explorer read it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeSchedule {
    rank: usize,
    /// The ops of the post, send and waitall steps.
    groups: [Vec<ExchangeOp>; 3],
    /// The length of each relay buffer (none unless a node leader).
    pub relay_lens: Vec<usize>,
    /// The local indices gathered into the send buffer, in buffer order.
    pub gather_indices: Vec<u32>,
}

impl ExchangeSchedule {
    /// The flat exchange of `plan`: one message per neighbour each way.
    pub fn flat(plan: &RankPlan) -> Self {
        let offs = plan.halo_offsets();
        let halo = plan.recv.iter().zip(offs.windows(2));
        let post = halo.map(|(n, w)| ExchangeOp::Irecv((n.peer, TAG_HALO), w[0]..w[1]));
        let (mut gather_indices, mut send) = (Vec::with_capacity(plan.send_len()), Vec::new());
        for n in &plan.send {
            let start = gather_indices.len();
            gather_indices.extend_from_slice(&n.indices);
            let range = start..gather_indices.len();
            send.push(ExchangeOp::Isend((n.peer, TAG_HALO), Src::Send, range));
        }
        Self {
            rank: plan.rank,
            groups: [post.collect(), send, waits(Vec::new())],
            relay_lens: Vec::new(),
            gather_indices,
        }
    }

    /// The node-aware exchange of rank `me` (Bienz et al.), built from the
    /// world's flat plans (`plans[r].rank == r`) and the rank → node `map`.
    /// Same-node segments travel directly; a member ships all its
    /// inter-node payload to its leader in one message, the leaders
    /// exchange one wire per node pair, and each rank receives its halo
    /// from other nodes as one slice per source node.
    pub fn node_aware(plans: &[RankPlan], me: usize, map: &RankNodeMap) -> Self {
        assert_eq!(plans.len(), map.num_ranks(), "one plan per mapped rank");
        let plan = &plans[me];
        let leader = map.leader_of(me);
        let leads = leader == me;
        // the send buffer is `[same-node segments | ship region]`
        let (intra, inter): (Vec<_>, Vec<_>) =
            (plan.send.iter()).partition(|n| map.same_node(me, n.peer));
        let (mut gather_indices, mut send) = (Vec::with_capacity(plan.send_len()), Vec::new());
        for n in intra {
            let start = gather_indices.len();
            gather_indices.extend_from_slice(&n.indices);
            let range = start..gather_indices.len();
            send.push(ExchangeOp::Isend((n.peer, TAG_HALO), Src::Send, range));
        }
        let ship = gather_indices.len()..plan.send_len();
        gather_indices.extend(inter.iter().flat_map(|n| n.indices.iter().copied()));
        if !leads && !ship.is_empty() {
            send.push(ExchangeOp::Isend((leader, TAG_SHIP), Src::Send, ship));
        }
        let offs = plan.halo_offsets();
        let direct = (plan.recv.iter().zip(offs.windows(2)))
            .filter(|(n, _)| map.same_node(me, n.peer))
            .map(|(n, w)| ((n.peer, TAG_HALO), w[0]..w[1]));
        let fwd = |node: usize| (leader, TAG_FWD_BASE + node as Tag);
        let forwarded = node_segments(plan, map).into_iter().filter(|_| !leads);
        let mut post: Vec<_> = direct.chain(forwarded.map(|(n, r)| (fwd(n), r))).collect();
        post.sort_by_key(|(_, r)| r.start);
        let (relay, relay_lens) = if leads {
            relay(plans, me, map)
        } else {
            Default::default()
        };
        Self {
            rank: me,
            groups: [
                post.into_iter()
                    .map(|(p, r)| ExchangeOp::Irecv(p, r))
                    .collect(),
                send,
                waits(relay),
            ],
            relay_lens,
            gather_indices,
        }
    }

    /// Every rank's exchange, in rank order, from the world's flat plans
    /// (`plans[r].rank == r`): [`Self::flat`] when `map` is `None`, else
    /// [`Self::node_aware`] over `map`.
    pub fn world(plans: &[RankPlan], map: Option<&RankNodeMap>) -> Vec<Self> {
        match map {
            None => plans.iter().map(Self::flat).collect(),
            Some(map) => (0..plans.len())
                .map(|me| Self::node_aware(plans, me, map))
                .collect(),
        }
    }

    /// The ops `step` issues, in order: [`Step::PostRecvs`], [`Step::Send`]
    /// and [`Step::Waitall`] have some, the other steps none.
    pub fn ops_of(&self, step: Step) -> &[ExchangeOp] {
        match step {
            Step::PostRecvs => &self.groups[0],
            Step::Send => &self.groups[1],
            Step::Waitall => &self.groups[2],
            _ => &[],
        }
    }

    /// Every op, in the order the post, send and waitall steps issue them.
    pub fn ops(&self) -> impl Iterator<Item = &ExchangeOp> {
        self.groups.iter().flatten()
    }

    /// The traffic this rank sends per exchange: its sends, counted by
    /// whether `map` puts the receiver on this rank's node.
    pub fn traffic(&self, map: &RankNodeMap) -> RankTraffic {
        let mut t = RankTraffic::default();
        for op in self.ops() {
            if let ExchangeOp::Isend((peer, _), _, r) = op {
                let (msgs, bytes) = if map.same_node(self.rank, *peer) {
                    (&mut t.intra_msgs, &mut t.intra_bytes)
                } else {
                    (&mut t.inter_msgs, &mut t.inter_bytes)
                };
                *msgs += 1;
                *bytes += 8 * r.len();
            }
        }
        t
    }
}

/// `ops` followed by the waits that end every exchange.
fn waits(mut ops: Vec<ExchangeOp>) -> Vec<ExchangeOp> {
    ops.extend([ExchangeOp::WaitRecvs, ExchangeOp::WaitSends]);
    ops
}

/// The halo `plan` receives from other nodes as `(node, halo range)`,
/// node-ascending: one contiguous segment per source node, because peers
/// ascend and each node's ranks are consecutive.
fn node_segments(plan: &RankPlan, map: &RankNodeMap) -> Vec<(usize, Range<usize>)> {
    let offs = plan.halo_offsets();
    let mut out: Vec<(usize, Range<usize>)> = Vec::new();
    for (n, w) in plan.recv.iter().zip(offs.windows(2)) {
        if map.same_node(plan.rank, n.peer) {
            continue;
        }
        let node = map.node_of(n.peer);
        match out.last_mut() {
            Some((p, r)) if *p == node => {
                debug_assert_eq!(r.end, w[0], "halo segments must be contiguous");
                r.end = w[1];
            }
            _ => out.push((node, w[0]..w[1])),
        }
    }
    out
}

/// The relay of node leader `me` (Bienz et al.), run after its own sends:
/// collect the member shipments, assemble and exchange the wires, land the
/// leader's share of each incoming wire and forward the members'. Returns
/// the ops and the relay buffer lengths (shipments, then outgoing wires,
/// then incoming ones). Deadlock-free: every shipment is posted before a
/// leader blocks, and ship → wire → forward is acyclic.
fn relay(plans: &[RankPlan], me: usize, map: &RankNodeMap) -> (Vec<ExchangeOp>, Vec<usize>) {
    use ExchangeOp as E;
    let members = map.ranks_of(map.node_of(me));
    let (mut ops, mut lens) = (Vec::new(), Vec::new());
    // Per member: its ship region as (destination, offset, len),
    // destination-ascending, and where the leader reads it: a shipment's
    // relay buffer, or in place in the leader's own send buffer.
    let mut shipped = Vec::new();
    for r in members.clone() {
        let mut off = 0;
        let entries: Vec<(usize, usize, usize)> = (plans[r].send.iter())
            .filter(|n| !map.same_node(r, n.peer))
            .map(|n| {
                off += n.indices.len();
                (n.peer, off - n.indices.len(), n.indices.len())
            })
            .collect();
        let from = if r == me {
            Some((Src::Send, plans[me].send_len() - off))
        } else {
            (off > 0).then(|| {
                ops.push(E::Recv((r, TAG_SHIP), lens.len(), off));
                lens.push(off);
                (Src::Relay(lens.len() - 1), 0)
            })
        };
        shipped.push((entries, from));
    }
    // One wire per destination node, destination-rank-outer so the
    // receiving leader forwards contiguous slices.
    for node in 0..map.num_nodes() {
        let (out, mut at) = (lens.len(), 0);
        let mut wire = Vec::new();
        for dest in map.ranks_of(node) {
            for (entries, from) in &shipped {
                if let Some(&(_, off, len)) = entries.iter().find(|e| e.0 == dest) {
                    let (src, base) = from.expect("a member with payload ships it");
                    let start = base + off;
                    wire.push(E::Copy(src, start..start + len, Dst::Relay(out), at));
                    at += len;
                }
            }
        }
        if !wire.is_empty() {
            lens.push(at);
            ops.extend(wire);
            let to = (map.leader_of_node(node), TAG_WIRE);
            ops.push(E::Isend(to, Src::Relay(out), 0..at));
        }
    }
    // One wire per source node, cut into the members' halo segments for it.
    let segments: Vec<_> = members
        .clone()
        .map(|r| node_segments(&plans[r], map))
        .collect();
    for node in 0..map.num_nodes() {
        let parts: Vec<(usize, Range<usize>)> = (members.clone().zip(&segments))
            .filter_map(|(r, segs)| segs.iter().find(|s| s.0 == node).map(|s| (r, s.1.clone())))
            .collect();
        if parts.is_empty() {
            continue;
        }
        let (k, len) = (lens.len(), parts.iter().map(|(_, s)| s.len()).sum());
        lens.push(len);
        ops.push(E::Recv((map.leader_of_node(node), TAG_WIRE), k, len));
        let mut off = 0;
        for (r, seg) in parts {
            let range = off..off + seg.len();
            off += seg.len();
            ops.push(if r == me {
                E::Copy(Src::Relay(k), range, Dst::Halo, seg.start)
            } else {
                E::Isend((r, TAG_FWD_BASE + node as Tag), Src::Relay(k), range)
            });
        }
    }
    (ops, lens)
}

/// A relay buffer during one exchange: writable until it is first read or
/// sent, read-only from then on.
enum Slot<'a> {
    Free(&'a mut [f64]),
    Shared(&'a [f64]),
}

impl<'a> Slot<'a> {
    fn write(&mut self) -> &mut [f64] {
        match self {
            Slot::Free(buf) => buf,
            Slot::Shared(_) => panic!("the exchange writes a relay buffer it already read"),
        }
    }

    fn share(&mut self) -> &'a [f64] {
        let buf: &'a [f64] = match std::mem::replace(self, Slot::Shared(&[])) {
            Slot::Free(buf) => buf,
            Slot::Shared(buf) => buf,
        };
        *self = Slot::Shared(buf);
        buf
    }
}

/// The elements an op reads: the send buffer's, or a relay buffer's.
fn source<'a>(from: Src, send: &'a [f64], relay: &mut [Slot<'a>]) -> &'a [f64] {
    match from {
        Src::Send => send,
        Src::Relay(k) => relay[k].share(),
    }
}

/// Takes `halo[r]` out of the halo's unclaimed `(offset, piece)`s.
fn carve<'a>(pieces: &mut Vec<(usize, &'a mut [f64])>, r: Range<usize>) -> &'a mut [f64] {
    let k = (pieces.iter())
        .position(|(at, p)| *at <= r.start && r.end <= at + p.len())
        .expect("the exchange fills each halo segment once");
    let (at, piece) = pieces.swap_remove(k);
    let (head, rest) = piece.split_at_mut(r.start - at);
    let (seg, tail) = rest.split_at_mut(r.len());
    let rest = [(at, head), (r.end, tail)];
    pieces.extend(rest.into_iter().filter(|(_, p)| !p.is_empty()));
    seg
}

/// An exchange in flight between its post, send and finish steps.
#[derive(Default)]
pub(crate) struct Pending<'a> {
    recvs: Vec<Request<'a>>,
    sends: Vec<Request<'a>>,
    /// The halo not yet handed to a receive or a landing copy.
    halo: Vec<(usize, &'a mut [f64])>,
    /// The gathered send buffer, from the send step on.
    send: &'a [f64],
}

/// One rank's halo exchange: the op list the engine built (and verified,
/// when it verifies), the compiled gather that fills the send
/// buffer, and a leader's relay buffers. It holds no communicator; each
/// step borrows the engine's.
pub(crate) struct HaloExchange {
    /// The op list this exchange runs.
    pub(crate) schedule: ExchangeSchedule,
    /// The send-buffer fill and its per-compute-thread runs.
    pub(crate) gather: GatherProgram,
    gather_chunks: Vec<Range<usize>>,
    /// Locked by the lane finishing the exchange.
    relay: Mutex<Vec<Vec<f64>>>,
}

impl HaloExchange {
    /// Runs `schedule`, gathering with `threads` compute threads.
    /// Comm-free: the caller builds the schedule, from its own flat plan
    /// or from the world's flat plans it gathered.
    pub(crate) fn new(schedule: ExchangeSchedule, threads: usize) -> Self {
        let gather = GatherProgram::compile(&schedule.gather_indices);
        let relay = schedule.relay_lens.iter().map(|&l| vec![0.0; l]).collect();
        Self {
            gather_chunks: gather.thread_run_ranges(threads),
            gather,
            relay: Mutex::new(relay),
            schedule,
        }
    }

    /// Gathers compute thread `t`'s runs from `x_loc` into the send buffer;
    /// returns the number of elements gathered.
    ///
    /// # Safety
    /// `send_buf` must hold the whole gather, and concurrent callers must
    /// pass distinct `t`.
    pub(crate) unsafe fn gather_share(&self, t: usize, x_loc: &[f64], send_buf: *mut f64) -> usize {
        let runs = self.gather_chunks[t].clone();
        // SAFETY: the caller's guarantee, and distinct threads' runs have
        // disjoint destinations.
        unsafe { self.gather.execute_runs_raw(runs, x_loc, send_buf) }
    }

    /// The post step: posts the halo receives into `halo`.
    pub(crate) fn post_recvs<'a>(
        &self,
        comm: &Comm,
        halo: &'a mut [f64],
    ) -> Result<Pending<'a>, CommError> {
        let halo = vec![(0, halo)];
        let mut pending = Pending {
            halo,
            ..Pending::default()
        };
        self.run(Step::PostRecvs, comm, &mut pending, &mut [])?;
        Ok(pending)
    }

    /// The send step, borrowing `send_buf` until [`Self::finish`].
    pub(crate) fn send<'a>(
        &self,
        comm: &Comm,
        send_buf: &'a [f64],
        pending: &mut Pending<'a>,
    ) -> Result<(), CommError> {
        pending.send = send_buf;
        self.run(Step::Send, comm, pending, &mut [])
    }

    /// The waitall step: a leader's relay, then the waits. On error the
    /// rest of the requests are dropped (poison-aware cleanup).
    pub(crate) fn finish(&self, comm: &Comm, pending: Pending<'_>) -> Result<(), CommError> {
        let mut bufs = self.relay.lock().expect("a lane panicked");
        let mut relay: Vec<Slot<'_>> = bufs.iter_mut().map(|b| Slot::Free(b)).collect();
        let mut pending = pending;
        self.run(Step::Waitall, comm, &mut pending, &mut relay)
    }

    /// The interpreter: issues the ops of `step` in order.
    fn run<'a>(
        &self,
        step: Step,
        comm: &Comm,
        p: &mut Pending<'a>,
        relay: &mut [Slot<'a>],
    ) -> Result<(), CommError> {
        for op in self.schedule.ops_of(step) {
            match op {
                ExchangeOp::Irecv((peer, tag), r) => {
                    let seg = carve(&mut p.halo, r.clone());
                    p.recvs.push(comm.irecv(*peer, *tag, seg));
                }
                ExchangeOp::Isend((peer, tag), from, r) => {
                    let buf = &source(*from, p.send, relay)[r.clone()];
                    p.sends.push(comm.isend_ref(*peer, *tag, buf)?);
                }
                ExchangeOp::Recv((peer, tag), k, _) => comm.recv(*peer, *tag, relay[*k].write())?,
                ExchangeOp::Copy(from, r, to, at) => {
                    let buf = &source(*from, p.send, relay)[r.clone()];
                    let dst = match *to {
                        Dst::Halo => carve(&mut p.halo, *at..at + buf.len()),
                        Dst::Relay(k) => &mut relay[k].write()[*at..at + buf.len()],
                    };
                    dst.copy_from_slice(buf);
                }
                ExchangeOp::WaitRecvs => comm.waitall(std::mem::take(&mut p.recvs))?,
                ExchangeOp::WaitSends => comm.waitall(std::mem::take(&mut p.sends))?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RowPartition;
    use crate::plan::build_plans_serial;

    fn node_aware_world(plans: &[RankPlan], map: &RankNodeMap) -> Vec<ExchangeSchedule> {
        ExchangeSchedule::world(plans, Some(map))
    }

    /// The node-aware protocol, spelled out on `tridiagonal(8)` over 4
    /// ranks, 2 per node. That world uses every kind of op: direct
    /// segments, a ship, a wire each way, a forward, a landing copy and a
    /// leader's own payload read from its send buffer.
    #[test]
    fn node_aware_op_lists_are_pinned() {
        use ExchangeOp::{Copy, Irecv, Isend, Recv, WaitRecvs, WaitSends};
        let m = spmv_matrix::synthetic::tridiagonal(8, 2.0, -1.0);
        let plans = build_plans_serial(&m, &RowPartition::by_rows(8, 4));
        let schedule =
            |rank, groups, relay_lens: &[usize], gather_indices: &[u32]| ExchangeSchedule {
                rank,
                groups,
                relay_lens: relay_lens.to_vec(),
                gather_indices: gather_indices.to_vec(),
            };
        let want = [
            schedule(
                0,
                [
                    vec![Irecv((1, 17), 0..1)],
                    vec![Isend((1, 17), Src::Send, 0..1)],
                    vec![
                        Recv((1, 18), 0, 1),
                        Copy(Src::Relay(0), 0..1, Dst::Relay(1), 0),
                        Isend((2, 19), Src::Relay(1), 0..1),
                        Recv((2, 19), 2, 1),
                        Isend((1, 1025), Src::Relay(2), 0..1),
                        WaitRecvs,
                        WaitSends,
                    ],
                ],
                &[1, 1, 1],
                &[1],
            ),
            schedule(
                1,
                [
                    vec![Irecv((0, 17), 0..1), Irecv((0, 1025), 1..2)],
                    vec![
                        Isend((0, 17), Src::Send, 0..1),
                        Isend((0, 18), Src::Send, 1..2),
                    ],
                    vec![WaitRecvs, WaitSends],
                ],
                &[],
                &[0, 1],
            ),
            schedule(
                2,
                [
                    vec![Irecv((3, 17), 1..2)],
                    vec![Isend((3, 17), Src::Send, 0..1)],
                    vec![
                        Copy(Src::Send, 1..2, Dst::Relay(0), 0),
                        Isend((0, 19), Src::Relay(0), 0..1),
                        Recv((0, 19), 1, 1),
                        Copy(Src::Relay(1), 0..1, Dst::Halo, 0),
                        WaitRecvs,
                        WaitSends,
                    ],
                ],
                &[1, 1],
                &[1, 0],
            ),
            schedule(
                3,
                [
                    vec![Irecv((2, 17), 0..1)],
                    vec![Isend((2, 17), Src::Send, 0..1)],
                    vec![WaitRecvs, WaitSends],
                ],
                &[],
                &[0],
            ),
        ];
        let got = node_aware_world(&plans, &RankNodeMap::contiguous(4, 2));
        for (got, want) in got.iter().zip(&want) {
            assert_eq!(got, want, "rank {}", want.rank);
        }
        assert_eq!(got.len(), want.len());
    }

    #[test]
    fn env_value_accepts_the_documented_forms() {
        assert_eq!(CommStrategy::from_env_value(""), None);
        assert_eq!(
            CommStrategy::from_env_value("flat"),
            Some(CommStrategy::Flat)
        );
        assert_eq!(
            CommStrategy::from_env_value("node-aware"),
            Some(CommStrategy::NodeAware { ranks_per_node: 4 })
        );
        assert_eq!(
            CommStrategy::from_env_value("node-aware:2"),
            Some(CommStrategy::NodeAware { ranks_per_node: 2 })
        );
    }

    #[test]
    fn env_value_typos_fail_loudly() {
        for bad in ["node-awre", "node-aware:x", "node-aware:0", "flat:", "Flat"] {
            let err =
                std::panic::catch_unwind(|| CommStrategy::from_env_value(bad)).expect_err(bad);
            let text = err.downcast_ref::<String>().expect("formatted panic");
            assert!(text.contains(&format!("{bad:?}")), "{text}");
            assert!(text.contains("node-aware:<ranks_per_node>"), "{text}");
        }
    }
}
