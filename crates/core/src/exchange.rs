//! The halo exchange behind one interface: `HaloExchange` runs the three
//! communication steps of every Fig. 4 schedule — post the receives, send,
//! finish — under either routing strategy. Everything strategy-specific
//! lives here: the gather order, which segment travels to or from which
//! peer under which tag, the node leaders' relay (Bienz et al.), the
//! predicted traffic, and demotion to flat. Both strategies reduce to the
//! same segment tables, so only node leaders run extra code (the relay).

use crate::gather::GatherProgram;
use crate::plan::{build_node_aware_distributed, CommTraffic, LeaderPlan, NodeAwarePlan, RankPlan};
use spmv_comm::{Comm, CommError, Request, Tag};
use spmv_machine::RankNodeMap;
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

    /// The node map the plan verifier checks the node-aware schedule
    /// against; `None` for the flat strategy.
    pub(crate) fn verified_node_map(&self, size: usize) -> Option<RankNodeMap> {
        (*self != CommStrategy::Flat).then(|| self.rank_node_map(size))
    }

    /// The strategy to build under `policy`: node-aware falls back to flat
    /// when the fault plan degrades a would-be leader (a node's first
    /// rank). Every rank reads the same plan, so all take the same branch.
    pub(crate) fn resolve(self, comm: &Comm, policy: DegradedPolicy) -> Self {
        let map = self.rank_node_map(comm.size());
        let leads = |r: usize| r == 0 || map.node_of(r - 1) != map.node_of(r);
        let degraded = (0..comm.size()).any(|r| leads(r) && comm.is_degraded(r));
        match policy {
            DegradedPolicy::FallbackToFlat if degraded => CommStrategy::Flat,
            _ => self,
        }
    }
}

/// What the engine does when the fault plan marks a node-aware leader
/// rank as degraded (injected dead) before construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedPolicy {
    /// Keep the strategy; a dead leader surfaces as [`CommError::PeerDead`].
    #[default]
    Strict,
    /// Fall back to the flat exchange (on every rank alike).
    FallbackToFlat,
}

/// Where a halo segment's data comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A message from `peer` under `tag`.
    Peer(usize, Tag),
    /// A node leader's own share of the wire from this remote node.
    Wire(usize),
}

/// One message of the send step: `(peer, tag, send-buffer range)`.
type Segment = (usize, Tag, Range<usize>);

/// A node leader's relay: its plan and persistent, preallocated buffers.
struct Relay {
    plan: LeaderPlan,
    /// The leader's slot among its node's members.
    my_slot: usize,
    /// The leader's own inter-node payload, read in place.
    ship_range: Range<usize>,
    /// Per member slot, the member's shipment (the leader's own is unused:
    /// its payload is read in place).
    ship_bufs: Vec<Vec<f64>>,
    /// One assembly buffer per outgoing wire message.
    wire_out_bufs: Vec<Vec<f64>>,
    /// One landing buffer per incoming wire message.
    wire_in_bufs: Vec<Vec<f64>>,
}

impl Relay {
    fn new(plan: LeaderPlan, my_slot: usize, ship_range: Range<usize>) -> Self {
        Self {
            ship_bufs: plan.ship_lens.iter().map(|&l| vec![0.0; l]).collect(),
            wire_out_bufs: plan.wire_out.iter().map(|w| vec![0.0; w.len]).collect(),
            wire_in_bufs: plan.wire_in.iter().map(|w| vec![0.0; w.len]).collect(),
            plan,
            my_slot,
            ship_range,
        }
    }

    /// Phases 2–3 of the node-aware exchange: collect member shipments,
    /// exchange the aggregated wires, land the leader's share in `own`, and
    /// forward the members' slices (joining `sends`). Deadlock-free: every
    /// shipment is posted before a leader blocks, and ship → wire → forward
    /// is acyclic.
    fn run<'r>(
        &'r mut self,
        comm: &Comm,
        send_buf: &[f64],
        mut own: Vec<(usize, &mut [f64])>,
        sends: &mut Vec<Request<'r>>,
    ) -> Result<(), CommError> {
        let lp = &self.plan;
        let my_slot = self.my_slot;
        for (slot, &member) in lp.members.iter().enumerate() {
            if slot != my_slot && lp.ship_lens[slot] > 0 {
                comm.recv(member, TAG_SHIP, &mut self.ship_bufs[slot])?;
            }
        }
        let my_ship = &send_buf[self.ship_range.clone()];
        for (w, buf) in lp.wire_out.iter().zip(self.wire_out_bufs.iter_mut()) {
            let mut off = 0usize;
            for ch in &w.chunks {
                let src = if ch.slot == my_slot {
                    my_ship
                } else {
                    &self.ship_bufs[ch.slot]
                };
                buf[off..off + ch.len].copy_from_slice(&src[ch.src_off..ch.src_off + ch.len]);
                off += ch.len;
            }
            debug_assert_eq!(off, w.len);
        }
        for (w, buf) in lp.wire_out.iter().zip(&self.wire_out_bufs) {
            sends.push(comm.isend_ref(w.dest_leader, TAG_WIRE, buf)?);
        }
        for (w, buf) in lp.wire_in.iter().zip(self.wire_in_bufs.iter_mut()) {
            comm.recv(w.src_leader, TAG_WIRE, buf)?;
        }
        // cut each wire into contiguous per-member slices and forward; the
        // leader's own slice lands directly in its halo
        for (w, buf) in lp.wire_in.iter().zip(&self.wire_in_bufs) {
            let mut off = 0usize;
            for (slot, &len) in w.parts.iter().enumerate() {
                if len == 0 {
                    continue;
                }
                let seg = &buf[off..off + len];
                if slot == my_slot {
                    let (_, dst) = own
                        .iter_mut()
                        .find(|(node, _)| *node == w.node)
                        .expect("leader wire part has a halo segment");
                    dst.copy_from_slice(seg);
                } else {
                    let tag = TAG_FWD_BASE + w.node as Tag;
                    sends.push(comm.isend_ref(lp.members[slot], tag, seg)?);
                }
                off += len;
            }
            debug_assert_eq!(off, w.len);
        }
        Ok(())
    }
}

/// An exchange in flight between its post, send and finish steps.
#[derive(Default)]
pub(crate) struct Pending<'a> {
    recvs: Vec<Request<'a>>,
    sends: Vec<Request<'a>>,
    /// Node leaders: the halo segments the relay fills from the wires.
    own: Vec<(usize, &'a mut [f64])>,
}

/// One rank's halo exchange under its active strategy.
pub(crate) struct HaloExchange {
    strategy: CommStrategy,
    /// Halo segments in ascending offset order, with their sources.
    recvs: Vec<(Range<usize>, Source)>,
    /// Send-buffer segments, in posting order.
    sends: Vec<Segment>,
    /// The strategy's send-buffer fill and its per-compute-thread runs.
    gather: GatherProgram,
    gather_chunks: Vec<Range<usize>>,
    traffic: CommTraffic,
    /// Node-aware leaders only; locked by the lane finishing the exchange.
    relay: Option<Mutex<Relay>>,
}

impl HaloExchange {
    /// Builds the exchange of `plan` under `strategy`, gathering with `c`
    /// compute threads. Collective for the node-aware strategy.
    pub(crate) fn new(comm: &Comm, plan: &RankPlan, strategy: CommStrategy, c: usize) -> Self {
        let map = strategy.rank_node_map(comm.size());
        match strategy {
            CommStrategy::Flat => Self::flat(plan, &map, c),
            CommStrategy::NodeAware { .. } => {
                let na = build_node_aware_distributed(comm, plan.clone(), &map);
                Self::node_aware(na, strategy, c)
            }
        }
    }

    fn flat(plan: &RankPlan, map: &RankNodeMap, threads: usize) -> Self {
        let recvs = plan
            .recv
            .iter()
            .zip(plan.halo_offsets().windows(2))
            .map(|(n, w)| (w[0]..w[1], Source::Peer(n.peer, TAG_HALO)))
            .collect();
        let mut indices = Vec::with_capacity(plan.send_len());
        let mut sends = Vec::with_capacity(plan.send.len());
        for n in &plan.send {
            let start = indices.len();
            indices.extend_from_slice(&n.indices);
            sends.push((n.peer, TAG_HALO, start..indices.len()));
        }
        let gather = GatherProgram::compile(&indices);
        Self {
            strategy: CommStrategy::Flat,
            recvs,
            sends,
            gather_chunks: gather.thread_run_ranges(threads),
            gather,
            traffic: plan.traffic(map),
            relay: None,
        }
    }

    fn node_aware(mut na: NodeAwarePlan, strategy: CommStrategy, threads: usize) -> Self {
        let leads = na.is_leader();
        let mut recvs = Vec::with_capacity(na.intra_recv.len() + na.recv_node_segments.len());
        for (peer, r) in &na.intra_recv {
            recvs.push((r.clone(), Source::Peer(*peer, TAG_HALO)));
        }
        for (node, r) in &na.recv_node_segments {
            let fwd = Source::Peer(na.leader_rank, TAG_FWD_BASE + *node as Tag);
            recvs.push((r.clone(), if leads { Source::Wire(*node) } else { fwd }));
        }
        recvs.sort_by_key(|(r, _)| r.start);
        let mut sends: Vec<Segment> = na
            .intra_send
            .iter()
            .map(|(peer, r)| (*peer, TAG_HALO, r.clone()))
            .collect();
        if !leads && !na.ship_range.is_empty() {
            sends.push((na.leader_rank, TAG_SHIP, na.ship_range.clone()));
        }
        let gather = GatherProgram::compile(&na.gather_indices);
        Self {
            strategy,
            recvs,
            sends,
            gather_chunks: gather.thread_run_ranges(threads),
            gather,
            traffic: na.traffic(),
            relay: na.leader.take().map(|lp| {
                let my_slot = na.flat.rank - lp.members[0];
                Mutex::new(Relay::new(lp, my_slot, na.ship_range.clone()))
            }),
        }
    }

    /// The active strategy.
    pub(crate) fn strategy(&self) -> CommStrategy {
        self.strategy
    }

    /// Predicted per-exchange traffic of this rank.
    pub(crate) fn traffic(&self) -> CommTraffic {
        self.traffic
    }

    /// The compiled send-buffer gather.
    pub(crate) fn gather_program(&self) -> &GatherProgram {
        &self.gather
    }

    /// Gathers compute thread `t`'s runs from `x_loc` into the send buffer.
    ///
    /// # Safety
    /// `send_buf` must hold the whole gather, and concurrent callers must
    /// pass distinct `t`.
    pub(crate) unsafe fn gather_share(&self, t: usize, x_loc: &[f64], send_buf: *mut f64) {
        let runs = self.gather_chunks[t].clone();
        // SAFETY: the caller's guarantee, and distinct threads' runs have
        // disjoint destinations.
        unsafe { self.gather.execute_runs_raw(runs, x_loc, send_buf) };
    }

    /// Switches to the flat exchange of `plan` (no communication; the send
    /// buffer keeps its length). No-op when already flat.
    pub(crate) fn demote_to_flat(&mut self, plan: &RankPlan, world_size: usize) {
        if self.strategy != CommStrategy::Flat {
            let map = CommStrategy::Flat.rank_node_map(world_size);
            *self = Self::flat(plan, &map, self.gather_chunks.len());
        }
    }

    /// Posts the halo receives into `halo`.
    pub(crate) fn post_recvs<'a>(&self, comm: &Comm, halo: &'a mut [f64]) -> Pending<'a> {
        let mut pending = Pending::default();
        let (mut rest, mut base) = (halo, 0);
        for (r, source) in &self.recvs {
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(r.start - base);
            let (seg, tail) = tail.split_at_mut(r.len());
            (rest, base) = (tail, r.end);
            match *source {
                Source::Peer(peer, tag) => pending.recvs.push(comm.irecv(peer, tag, seg)),
                Source::Wire(node) => pending.own.push((node, seg)),
            }
        }
        pending
    }

    /// Posts the halo sends, borrowing `send_buf` until [`Self::finish`].
    pub(crate) fn send<'a>(
        &self,
        comm: &Comm,
        send_buf: &'a [f64],
        pending: &mut Pending<'a>,
    ) -> Result<(), CommError> {
        for (peer, tag, r) in &self.sends {
            let req = comm.isend_ref(*peer, *tag, &send_buf[r.clone()])?;
            pending.sends.push(req);
        }
        Ok(())
    }

    /// Completes the exchange: node leaders relay, then every request is
    /// waited. On error the rest are dropped (poison-aware cleanup).
    pub(crate) fn finish(
        &self,
        comm: &Comm,
        send_buf: &[f64],
        pending: Pending<'_>,
    ) -> Result<(), CommError> {
        let Pending { recvs, sends, own } = pending;
        let mut relay = self
            .relay
            .as_ref()
            .map(|r| r.lock().expect("relay lock poisoned: a lane panicked"));
        let mut sends: Vec<Request<'_>> = sends;
        if let Some(relay) = relay.as_deref_mut() {
            relay.run(comm, send_buf, own, &mut sends)?;
        }
        comm.waitall(recvs)?;
        comm.waitall(sends)
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
