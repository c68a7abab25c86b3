//! The halo exchange, written once. Each rank's exchange is an
//! [`ExchangeSchedule`]: a comm-free list of [`ExchangeOp`]s built from its
//! [`RankPlan`] or [`NodeAwarePlan`] and grouped by the step of a Fig. 4
//! schedule that issues it (post the receives, send, finish). The engine's
//! `HaloExchange` interprets that list; the plan verifier
//! ([`crate::verify`]), the predicted traffic
//! ([`ExchangeSchedule::traffic`]) and the interleaving explorer read the
//! same list. Everything strategy-specific lives here: the gather order,
//! which segment travels to or from which peer under which tag, and the
//! node leaders' relay (Bienz et al.).

use crate::gather::GatherProgram;
use crate::modes::Step;
use crate::plan::{LeaderPlan, NodeAwarePlan, RankPlan};
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

/// How the halo exchange is routed (see [`crate::plan::NodeAwarePlan`]).
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

    /// The rank → node map this strategy implies for a world of `size`.
    pub fn rank_node_map(&self, size: usize) -> RankNodeMap {
        match self {
            CommStrategy::Flat => RankNodeMap::contiguous(size, 1),
            CommStrategy::NodeAware { ranks_per_node } => {
                RankNodeMap::contiguous(size, *ranks_per_node)
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

    /// The node-aware exchange of `na` (see [`NodeAwarePlan`]): same-node
    /// segments travel directly, the rest through the node leaders' relay.
    pub fn node_aware(na: &NodeAwarePlan) -> Self {
        let leads = na.is_leader();
        let fwd = |node: usize| (na.leader_rank, TAG_FWD_BASE + node as Tag);
        let intra = na.intra_recv.iter().map(|(peer, r)| ((*peer, TAG_HALO), r));
        let forwarded = na.recv_node_segments.iter().filter(|_| !leads);
        let mut post: Vec<_> = intra.chain(forwarded.map(|(n, r)| (fwd(*n), r))).collect();
        post.sort_by_key(|(_, r)| r.start);
        let direct = na.intra_send.iter().map(|(peer, r)| ((*peer, TAG_HALO), r));
        // a member ships all its inter-node payload to its leader at once
        let ship = (!leads && !na.ship_range.is_empty())
            .then_some(((na.leader_rank, TAG_SHIP), &na.ship_range));
        let send = direct
            .chain(ship)
            .map(|(p, r)| ExchangeOp::Isend(p, Src::Send, r.clone()));
        let (relay, relay_lens) = na
            .leader
            .as_ref()
            .map_or_else(Default::default, |lp| relay(na, lp));
        Self {
            rank: na.flat.rank,
            groups: [
                post.into_iter()
                    .map(|(p, r)| ExchangeOp::Irecv(p, r.clone()))
                    .collect(),
                send.collect(),
                waits(relay),
            ],
            relay_lens,
            gather_indices: na.gather_indices.clone(),
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

/// A node leader's relay (Bienz et al.), run after its own sends: collect
/// the member shipments, assemble and exchange the wires, land the
/// leader's share of each incoming wire and forward the members'. Returns
/// the ops and the relay buffer lengths. Deadlock-free: every shipment is
/// posted before a leader blocks, and ship → wire → forward is acyclic.
fn relay(na: &NodeAwarePlan, lp: &LeaderPlan) -> (Vec<ExchangeOp>, Vec<usize>) {
    use ExchangeOp as E;
    let me = na.flat.rank - lp.members[0];
    let mut lens = Vec::new();
    let mut buffer = |len| {
        lens.push(len);
        lens.len() - 1
    };
    let ships: Vec<Option<usize>> = (lp.ship_lens.iter().enumerate())
        .map(|(slot, &len)| (slot != me && len > 0).then(|| buffer(len)))
        .collect();
    let outs: Vec<usize> = lp.wire_out.iter().map(|w| buffer(w.len)).collect();
    let ins: Vec<usize> = lp.wire_in.iter().map(|w| buffer(w.len)).collect();
    let mut ops: Vec<E> = (ships.iter().zip(&lp.members).zip(&lp.ship_lens))
        .filter_map(|((k, &member), &len)| k.map(|k| E::Recv((member, TAG_SHIP), k, len)))
        .collect();
    for (w, &out) in lp.wire_out.iter().zip(&outs) {
        let mut at = 0;
        for ch in &w.chunks {
            // the leader's own payload is read in place
            let (from, start) = match ships[ch.slot] {
                Some(k) => (Src::Relay(k), ch.src_off),
                None => (Src::Send, na.ship_range.start + ch.src_off),
            };
            ops.push(E::Copy(from, start..start + ch.len, Dst::Relay(out), at));
            at += ch.len;
        }
        ops.push(E::Isend(
            (w.dest_leader, TAG_WIRE),
            Src::Relay(out),
            0..w.len,
        ));
    }
    // each incoming wire is cut into contiguous per-member slices
    for (w, &k) in lp.wire_in.iter().zip(&ins) {
        ops.push(E::Recv((w.src_leader, TAG_WIRE), k, w.len));
        let mut off = 0;
        for (slot, &len) in w.parts.iter().enumerate().filter(|(_, &len)| len > 0) {
            let range = off..off + len;
            off += len;
            ops.push(if slot == me {
                let (_, seg) = (na.recv_node_segments.iter())
                    .find(|(node, _)| *node == w.node)
                    .expect("leader wire part has a halo segment");
                E::Copy(Src::Relay(k), range, Dst::Halo, seg.start)
            } else {
                let to = (lp.members[slot], TAG_FWD_BASE + w.node as Tag);
                E::Isend(to, Src::Relay(k), range)
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

/// One rank's halo exchange: the op list the engine built from the plan
/// it verified (when it verifies), the compiled gather that fills the send
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
    /// Comm-free: the caller builds the schedule, from the flat plan or
    /// from the node-aware plan it verified.
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
