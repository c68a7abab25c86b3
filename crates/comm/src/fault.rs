//! Deterministic fault injection for the in-process world.
//!
//! A [`FaultPlan`] is a seeded description of adversity: per-message
//! probabilities for delay, reorder, duplication, drop-with-retransmit and
//! truncation, plus per-rank stall/kill points and advisory leader
//! degradation. The *decision* for each message is a pure function of
//! `(seed, src, dst, tag, seq)` — independent of thread scheduling — so a
//! plan replays the same faults on every run even though arrival timing
//! varies. Sequence-number reassembly on the receive side (see
//! `world::Channel`) turns the recoverable faults (delay, reorder,
//! duplicate, drop) back into exactly-once in-order delivery, which is why
//! chaos runs are bit-identical to fault-free runs.
//!
//! The injector is zero-cost when disabled: a world built without a plan
//! carries `chaos: None` and every hot path checks that single `Option`
//! before doing anything else (measured by `bench_faults`).

use spmv_matrix::rng::Rng64;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::world::Tag;

/// Injected stall: the rank parks forever inside its `after_ops + 1`-th
/// communication operation (only the watchdog can release it, by
/// poisoning the world).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallSpec {
    pub rank: usize,
    /// Number of communication operations the rank completes normally
    /// before stalling.
    pub after_ops: u64,
}

/// Injected kill: after `after_ops` completed operations the rank is
/// marked dead. Its own next operation and every later operation
/// by a peer targeting it fail with `CommError::PeerDead`. Messages the
/// rank already delivered remain receivable (as with a real crashed MPI
/// rank whose packets are in flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    pub rank: usize,
    pub after_ops: u64,
}

/// Injected solver-visible failure: `Comm::poll_failure` returns `true`
/// exactly once, on the rank's `at_poll`-th poll. Used by the
/// checkpoint/restart drivers to trigger a deterministic rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailSpec {
    pub rank: usize,
    /// 1-based poll index at which the failure is reported.
    pub at_poll: u64,
}

/// Seeded description of the faults to inject into a world.
///
/// Build one with the fluent constructors and attach it via
/// [`CommWorld::builder`](crate::CommWorld::builder):
///
/// ```ignore
/// let plan = FaultPlan::new(42).delay(0.2, 2).drop_with_retransmit(0.1, 3);
/// let comms = CommWorld::builder(4).faults(plan).build();
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed mixed into every per-message decision.
    pub seed: u64,
    /// Probability a message is held back `delay` before delivery.
    pub delay_prob: f64,
    /// Hold-back duration for delayed messages.
    pub delay: Duration,
    /// Probability a message swaps order with the next message on the
    /// same (src, dst, tag) flow.
    pub reorder_prob: f64,
    /// Probability a message is delivered twice (receiver deduplicates).
    pub duplicate_prob: f64,
    /// Probability a message is "lost on the wire" and retransmitted
    /// after `retransmit`.
    pub drop_prob: f64,
    /// Simulated ack-timeout before a dropped message is retransmitted.
    pub retransmit: Duration,
    /// Probability a message loses its trailing bytes (error-path fault:
    /// receivers observe `CommError::Truncated`; never recovered).
    /// Only applied to user tags — the internal collective protocol is
    /// deliberately exempt.
    pub truncate_prob: f64,
    /// At most one injected stall.
    pub stall: Option<StallSpec>,
    /// Ranks to kill, each after a given operation count.
    pub kills: Vec<KillSpec>,
    /// One-shot solver-visible failure (see [`FailSpec`]).
    pub fail: Option<FailSpec>,
    /// Ranks flagged as degraded node leaders. Purely advisory: point-to-
    /// point traffic still works, but `Comm::is_degraded` reports them so
    /// the engine's degraded-mode policy can avoid routing aggregation
    /// through them.
    pub degraded_leaders: Vec<usize>,
}

impl FaultPlan {
    /// A plan that injects nothing; combine with the fluent setters.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Delay a fraction `prob` of messages by `ms` milliseconds.
    pub fn delay(mut self, prob: f64, ms: u64) -> Self {
        self.delay_prob = prob;
        self.delay = Duration::from_millis(ms);
        self
    }

    /// Swap a fraction `prob` of messages with their flow successor.
    pub fn reorder(mut self, prob: f64) -> Self {
        self.reorder_prob = prob;
        self
    }

    /// Deliver a fraction `prob` of messages twice.
    pub fn duplicate(mut self, prob: f64) -> Self {
        self.duplicate_prob = prob;
        self
    }

    /// Drop a fraction `prob` of messages, retransmitting each after
    /// `ms` milliseconds (models sender-side ack-timeout recovery).
    pub fn drop_with_retransmit(mut self, prob: f64, ms: u64) -> Self {
        self.drop_prob = prob;
        self.retransmit = Duration::from_millis(ms);
        self
    }

    /// Truncate a fraction `prob` of user-tag messages (unrecoverable;
    /// surfaces as `CommError::Truncated` on the receiver).
    pub fn truncate(mut self, prob: f64) -> Self {
        self.truncate_prob = prob;
        self
    }

    /// Park `rank` forever inside its `after_ops + 1`-th communication
    /// operation. Pair with a watchdog, or the world really does hang.
    pub fn stall_rank(mut self, rank: usize, after_ops: u64) -> Self {
        self.stall = Some(StallSpec { rank, after_ops });
        self
    }

    /// Kill `rank` after it completes `after_ops` operations.
    pub fn kill_rank(mut self, rank: usize, after_ops: u64) -> Self {
        self.kills.push(KillSpec { rank, after_ops });
        self
    }

    /// Report a one-shot failure to `rank` on its `at_poll`-th
    /// `poll_failure` call.
    pub fn fail_rank_at_poll(mut self, rank: usize, at_poll: u64) -> Self {
        self.fail = Some(FailSpec { rank, at_poll });
        self
    }

    /// Flag `rank` as a degraded node leader (advisory; see field docs).
    pub fn degrade_leader(mut self, rank: usize) -> Self {
        self.degraded_leaders.push(rank);
        self
    }

    /// True when no per-message fault has a nonzero probability.
    #[must_use]
    pub fn is_message_quiet(&self) -> bool {
        self.delay_prob == 0.0
            && self.reorder_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.drop_prob == 0.0
            && self.truncate_prob == 0.0
    }
}

/// Counters of faults actually fired, snapshot via `Comm::fault_stats`.
/// Tests assert on these so a "chaos" run that silently injected nothing
/// cannot pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    pub delayed: u64,
    pub reordered: u64,
    pub duplicated: u64,
    pub dropped: u64,
    pub truncated: u64,
}

impl FaultStats {
    /// Total number of injected per-message faults.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.delayed + self.reordered + self.duplicated + self.dropped + self.truncated
    }
}

/// The kind of an injected per-message fault, as recorded in the event
/// log (the observer-facing mirror of the internal `FaultAction`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    Delay,
    Reorder,
    Duplicate,
    Drop,
    Truncate,
}

/// One injected fault, with enough context to stamp it onto a measured
/// timeline: the flow it hit, its sequence number, the payload size and
/// the moment the injector fired. Snapshot via `Comm::fault_events`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    pub kind: FaultKind,
    pub src: usize,
    pub dst: usize,
    pub tag: Tag,
    pub seq: u64,
    /// Payload bytes of the affected message.
    pub bytes: usize,
    /// When the injector decided the fault (monotonic).
    pub at: Instant,
}

/// Event-log bound: counters stay exact forever, but per-event context
/// stops accumulating past this point so a long chaos soak cannot grow
/// memory without bound.
const FAULT_LOG_CAP: usize = 65_536;

/// What the injector decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    Deliver,
    Delay,
    Reorder,
    Duplicate,
    DropRetransmit,
    Truncate,
}

/// Fate of a rank's communication operation under the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpFate {
    Normal,
    /// The rank must park (injected stall).
    Stall,
    /// The rank is dead; the operation fails with `PeerDead { peer: self }`.
    Dead,
}

/// A message held back by the injector (delay, drop-retransmit, or a
/// reorder stash waiting for its flow successor).
#[derive(Debug)]
pub(crate) struct HeldMsg {
    pub due: Instant,
    pub src: usize,
    pub dst: usize,
    pub tag: Tag,
    pub seq: u64,
    pub bytes: Vec<u8>,
}

#[derive(Default)]
struct Counters {
    delayed: AtomicU64,
    reordered: AtomicU64,
    duplicated: AtomicU64,
    dropped: AtomicU64,
    truncated: AtomicU64,
}

/// Shared injector state attached to a `WorldShared` when a plan is set.
pub(crate) struct ChaosState {
    pub plan: FaultPlan,
    /// Next sequence number to assign, per (src, dst, tag) flow.
    flows: Mutex<HashMap<(usize, usize, Tag), u64>>,
    /// Time-held messages (delays and pending retransmissions).
    held: Mutex<Vec<HeldMsg>>,
    /// Per-flow reorder stash: a message waiting to be delivered *after*
    /// its flow successor. Flushed by the pump if no successor shows up.
    reorder: Mutex<HashMap<(usize, usize, Tag), HeldMsg>>,
    counters: Counters,
    /// Per-fault context log (bounded; see [`FAULT_LOG_CAP`]).
    events: Mutex<Vec<FaultEvent>>,
    /// Completed communication operations per rank (drives stall/kill).
    rank_ops: Vec<AtomicU64>,
    /// `poll_failure` calls per rank (drives `FailSpec`).
    polls: Vec<AtomicU64>,
    dead: Vec<AtomicBool>,
}

/// How long a reorder stash waits for a flow successor before the pump
/// delivers it anyway (turning the reorder into a short delay).
const REORDER_WINDOW: Duration = Duration::from_millis(1);

impl ChaosState {
    pub fn new(plan: FaultPlan, size: usize) -> Self {
        for spec in &plan.kills {
            assert!(spec.rank < size, "kill_rank {} out of range", spec.rank);
        }
        if let Some(s) = plan.stall {
            assert!(s.rank < size, "stall_rank {} out of range", s.rank);
        }
        ChaosState {
            plan,
            flows: Mutex::new(HashMap::new()),
            held: Mutex::new(Vec::new()),
            reorder: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            events: Mutex::new(Vec::new()),
            rank_ops: (0..size).map(|_| AtomicU64::new(0)).collect(),
            polls: (0..size).map(|_| AtomicU64::new(0)).collect(),
            dead: (0..size).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Allocates the next sequence number on the (src, dst, tag) flow.
    pub fn next_seq(&self, src: usize, dst: usize, tag: Tag) -> u64 {
        let mut flows = self
            .flows
            .lock()
            .expect("mutex poisoned: a peer thread panicked");
        let seq = flows.entry((src, dst, tag)).or_insert(0);
        let s = *seq;
        *seq += 1;
        s
    }

    /// The deterministic per-message decision: a pure function of
    /// `(plan.seed, src, dst, tag, seq)`. One uniform draw walks the
    /// cumulative probability ladder, so raising one probability never
    /// changes which *other* faults fire.
    pub fn decide(&self, src: usize, dst: usize, tag: Tag, seq: u64) -> FaultAction {
        let p = &self.plan;
        // SplitMix-style stream id: distinct (src, dst, tag, seq) tuples
        // land in distinct RNG streams.
        let stream = p
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((src as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add((dst as u64).wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add((tag as u64) << 32)
            .wrapping_add(seq);
        let draw = Rng64::new(stream).gen_f64();
        let mut edge = p.delay_prob;
        if draw < edge {
            return FaultAction::Delay;
        }
        edge += p.reorder_prob;
        if draw < edge {
            return FaultAction::Reorder;
        }
        edge += p.duplicate_prob;
        if draw < edge {
            return FaultAction::Duplicate;
        }
        edge += p.drop_prob;
        if draw < edge {
            return FaultAction::DropRetransmit;
        }
        edge += p.truncate_prob;
        if draw < edge {
            return FaultAction::Truncate;
        }
        FaultAction::Deliver
    }

    /// Counts a fired fault and appends it to the bounded event log.
    pub fn record(
        &self,
        action: FaultAction,
        src: usize,
        dst: usize,
        tag: Tag,
        seq: u64,
        bytes: usize,
    ) {
        let c = &self.counters;
        let (ctr, kind) = match action {
            FaultAction::Deliver => return,
            FaultAction::Delay => (&c.delayed, FaultKind::Delay),
            FaultAction::Reorder => (&c.reordered, FaultKind::Reorder),
            FaultAction::Duplicate => (&c.duplicated, FaultKind::Duplicate),
            FaultAction::DropRetransmit => (&c.dropped, FaultKind::Drop),
            FaultAction::Truncate => (&c.truncated, FaultKind::Truncate),
        };
        ctr.fetch_add(1, Ordering::Relaxed);
        let mut log = self
            .events
            .lock()
            .expect("mutex poisoned: a peer thread panicked");
        if log.len() < FAULT_LOG_CAP {
            log.push(FaultEvent {
                kind,
                src,
                dst,
                tag,
                seq,
                bytes,
                at: Instant::now(),
            });
        }
    }

    /// Snapshot of the fault event log (world-global; every rank sees the
    /// same sequence).
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events
            .lock()
            .expect("mutex poisoned: a peer thread panicked")
            .clone()
    }

    pub fn stats(&self) -> FaultStats {
        let c = &self.counters;
        FaultStats {
            delayed: c.delayed.load(Ordering::Relaxed),
            reordered: c.reordered.load(Ordering::Relaxed),
            duplicated: c.duplicated.load(Ordering::Relaxed),
            dropped: c.dropped.load(Ordering::Relaxed),
            truncated: c.truncated.load(Ordering::Relaxed),
        }
    }

    /// Accounts one communication operation on `rank` and returns its
    /// fate under the stall/kill schedule.
    pub fn op_fate(&self, rank: usize) -> OpFate {
        let done = self.rank_ops[rank].fetch_add(1, Ordering::Relaxed);
        if self.dead[rank].load(Ordering::Relaxed) {
            return OpFate::Dead;
        }
        for spec in &self.plan.kills {
            if spec.rank == rank && done >= spec.after_ops {
                self.dead[rank].store(true, Ordering::Release);
                return OpFate::Dead;
            }
        }
        if let Some(s) = self.plan.stall {
            if s.rank == rank && done >= s.after_ops {
                return OpFate::Stall;
            }
        }
        OpFate::Normal
    }

    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::Acquire)
    }

    pub fn is_degraded(&self, rank: usize) -> bool {
        self.plan.degraded_leaders.contains(&rank)
    }

    /// One `poll_failure` tick for `rank`; true exactly once, at the
    /// plan's `at_poll` index.
    pub fn poll_failure(&self, rank: usize) -> bool {
        let n = self.polls[rank].fetch_add(1, Ordering::Relaxed) + 1;
        matches!(self.plan.fail, Some(f) if f.rank == rank && f.at_poll == n)
    }

    /// Parks `msg` in the time-held store.
    pub fn hold(&self, msg: HeldMsg) {
        self.held
            .lock()
            .expect("mutex poisoned: a peer thread panicked")
            .push(msg);
    }

    /// Stashes `msg` for reorder, returning a previously stashed message
    /// on the same flow (which must now be delivered *after* the caller
    /// delivers the current one).
    pub fn stash_reorder(&self, msg: HeldMsg) -> Option<HeldMsg> {
        self.reorder
            .lock()
            .expect("mutex poisoned: a peer thread panicked")
            .insert((msg.src, msg.dst, msg.tag), msg)
    }

    /// Removes and returns the reorder stash for a flow, if any.
    pub fn take_reorder(&self, src: usize, dst: usize, tag: Tag) -> Option<HeldMsg> {
        self.reorder
            .lock()
            .expect("mutex poisoned: a peer thread panicked")
            .remove(&(src, dst, tag))
    }

    /// Drains every held or stashed message that is due at `now`.
    pub fn take_due(&self, now: Instant) -> Vec<HeldMsg> {
        let mut due = Vec::new();
        {
            let mut held = self
                .held
                .lock()
                .expect("mutex poisoned: a peer thread panicked");
            let mut i = 0;
            while i < held.len() {
                if held[i].due <= now {
                    due.push(held.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        {
            let mut reorder = self
                .reorder
                .lock()
                .expect("mutex poisoned: a peer thread panicked");
            let expired: Vec<_> = reorder
                .iter()
                .filter(|(_, m)| m.due <= now)
                .map(|(k, _)| *k)
                .collect();
            for k in expired {
                if let Some(m) = reorder.remove(&k) {
                    due.push(m);
                }
            }
        }
        due
    }

    /// Whether any message is parked anywhere in the injector.
    pub fn has_parked(&self) -> bool {
        !self
            .held
            .lock()
            .expect("mutex poisoned: a peer thread panicked")
            .is_empty()
            || !self
                .reorder
                .lock()
                .expect("mutex poisoned: a peer thread panicked")
                .is_empty()
    }

    pub fn reorder_window(&self) -> Duration {
        REORDER_WINDOW
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = ChaosState::new(FaultPlan::new(7).delay(0.3, 1).duplicate(0.2), 4);
        let b = ChaosState::new(FaultPlan::new(7).delay(0.3, 1).duplicate(0.2), 4);
        for seq in 0..200 {
            assert_eq!(a.decide(0, 1, 17, seq), b.decide(0, 1, 17, seq));
        }
    }

    #[test]
    fn decision_depends_on_flow_and_seed() {
        let st = ChaosState::new(FaultPlan::new(7).delay(0.5, 1), 4);
        let other = ChaosState::new(FaultPlan::new(8).delay(0.5, 1), 4);
        let mut differs_by_flow = false;
        let mut differs_by_seed = false;
        for seq in 0..64 {
            differs_by_flow |= st.decide(0, 1, 17, seq) != st.decide(1, 0, 17, seq);
            differs_by_seed |= st.decide(0, 1, 17, seq) != other.decide(0, 1, 17, seq);
        }
        assert!(differs_by_flow && differs_by_seed);
    }

    #[test]
    fn probability_ladder_roughly_calibrated() {
        let st = ChaosState::new(FaultPlan::new(3).delay(0.25, 1), 2);
        let fired = (0..4000)
            .filter(|&seq| st.decide(0, 1, 17, seq) == FaultAction::Delay)
            .count();
        let rate = fired as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "delay rate {rate}");
    }

    #[test]
    fn seq_numbers_are_per_flow() {
        let st = ChaosState::new(FaultPlan::new(1), 4);
        assert_eq!(st.next_seq(0, 1, 17), 0);
        assert_eq!(st.next_seq(0, 1, 17), 1);
        assert_eq!(st.next_seq(1, 0, 17), 0);
        assert_eq!(st.next_seq(0, 1, 18), 0);
    }

    #[test]
    fn record_logs_context_and_counts() {
        let st = ChaosState::new(FaultPlan::new(1).delay(1.0, 1), 4);
        st.record(FaultAction::Deliver, 0, 1, 17, 0, 8); // not a fault
        st.record(FaultAction::Delay, 0, 1, 17, 1, 80);
        st.record(FaultAction::Truncate, 2, 3, 19, 5, 160);
        assert_eq!(st.stats().delayed, 1);
        assert_eq!(st.stats().truncated, 1);
        let evs = st.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, FaultKind::Delay);
        assert_eq!(
            (evs[0].src, evs[0].dst, evs[0].tag, evs[0].seq),
            (0, 1, 17, 1)
        );
        assert_eq!(evs[0].bytes, 80);
        assert_eq!(evs[1].kind, FaultKind::Truncate);
        assert!(evs[1].at >= evs[0].at);
    }

    #[test]
    fn kill_schedule_marks_rank_dead() {
        let st = ChaosState::new(FaultPlan::new(1).kill_rank(1, 2), 4);
        assert_eq!(st.op_fate(1), OpFate::Normal);
        assert_eq!(st.op_fate(1), OpFate::Normal);
        assert_eq!(st.op_fate(1), OpFate::Dead);
        assert!(st.is_dead(1));
        assert_eq!(st.op_fate(0), OpFate::Normal);
    }

    #[test]
    fn poll_failure_fires_exactly_once() {
        let st = ChaosState::new(FaultPlan::new(1).fail_rank_at_poll(2, 3), 4);
        let fires: Vec<bool> = (0..5).map(|_| st.poll_failure(2)).collect();
        assert_eq!(fires, vec![false, false, true, false, false]);
        assert!(!st.poll_failure(1));
    }
}
