//! The communication world: rank handles, mailboxes, nonblocking
//! point-to-point with MPI matching semantics.
//!
//! Resilience features (all opt-in via [`CommWorld::builder`]):
//!
//! * **Fault injection** — a seeded [`FaultPlan`] perturbs delivery (delay,
//!   reorder, duplicate, drop-with-retransmit, truncate) and rank health
//!   (stall, kill). Under a plan every message carries a per-flow sequence
//!   number and the receive side reassembles strict FIFO order, so the
//!   recoverable faults are invisible to correct programs — results stay
//!   bit-identical to a fault-free run.
//! * **Stall watchdog** — a monitor thread that detects a world-wide
//!   quiesced-but-incomplete state (no progress, ≥ 1 rank blocked) and
//!   *poisons* the world: every blocked and future operation fails with
//!   [`CommError::Poisoned`] carrying a per-rank pending-request dump
//!   instead of hanging forever.
//! * **Typed errors** — every point-to-point operation that can fail
//!   (`isend`, `isend_ref`, `send`, `recv`, `recv_vec`, `wait`, `waitall`)
//!   returns `Result<_, `[`CommError`]`>`; `irecv` only posts and cannot
//!   fail. `barrier` and the collectives panic with the same message —
//!   their callers (setup, solver reductions) have no recovery path, and a
//!   panic with a dump still beats a silent hang in CI.
//!
//! A world built without faults or watchdog takes the exact historical
//! fast path: one `Option` check per operation is the entire cost.

use crate::collectives::or_panic;
use crate::error::{CommError, PendingKind, PendingOp, StallReport};
use crate::fault::{ChaosState, FaultAction, FaultPlan, FaultStats, HeldMsg, OpFate};
use crate::pod::{as_bytes, from_bytes_vec, Pod};
use crate::stats::WorldStats;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

/// Message tag. User tags must be below [`Tag::MAX`]` / 2`; the upper half
/// is reserved for internal collectives.
pub type Tag = u32;

/// First tag reserved for internal use (collectives).
pub(crate) const RESERVED_TAG_BASE: Tag = 1 << 31;

/// Polling granularity for waits that must observe poison or chaos
/// redelivery. Plain (untimed) condvar waits are used whenever neither can
/// occur.
const WAIT_SLICE: Duration = Duration::from_millis(1);

/// Blocks on `cv` until notified — for at most one [`WAIT_SLICE`] when
/// `sliced`, so the caller can re-check poison and chaos redelivery.
fn wait_on<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>, sliced: bool) -> MutexGuard<'a, T> {
    if sliced {
        cv.wait_timeout(guard, WAIT_SLICE)
            .expect("condvar poisoned: a peer thread panicked")
            .0
    } else {
        cv.wait(guard)
            .expect("condvar poisoned: a peer thread panicked")
    }
}

/// Completion token for a borrowed (rendezvous) send: the sender's buffer
/// stays pinned until the receiver has copied out of it.
pub(crate) struct SendToken {
    consumed: Mutex<bool>,
    cv: Condvar,
}

impl SendToken {
    fn new() -> Self {
        Self {
            consumed: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn mark_consumed(&self) {
        *self
            .consumed
            .lock()
            .expect("mutex poisoned: a peer thread panicked") = true;
        self.cv.notify_all();
    }

    fn wait_consumed(&self) {
        let mut g = self
            .consumed
            .lock()
            .expect("mutex poisoned: a peer thread panicked");
        while !*g {
            g = self
                .cv
                .wait(g)
                .expect("condvar poisoned: a peer thread panicked");
        }
    }

    /// Waits at most one [`WAIT_SLICE`] for consumption.
    fn wait_consumed_slice(&self) {
        let g = self
            .consumed
            .lock()
            .expect("mutex poisoned: a peer thread panicked");
        drop(
            self.cv
                .wait_timeout_while(g, WAIT_SLICE, |consumed| !*consumed)
                .expect("condvar poisoned: a peer thread panicked"),
        );
    }

    fn is_consumed(&self) -> bool {
        *self
            .consumed
            .lock()
            .expect("mutex poisoned: a peer thread panicked")
    }
}

/// A queued message: either an eager copy ([`Comm::isend`]) or a borrowed
/// view of the sender's buffer ([`Comm::isend_ref`] — rendezvous protocol,
/// the bytes move sender-buffer → receiver-buffer in one copy).
pub(crate) enum Payload {
    Owned(Vec<u8>),
    Borrowed {
        ptr: *const u8,
        len: usize,
        token: Arc<SendToken>,
    },
}

// SAFETY: the raw pointer targets the sender's buffer, which the sender
// keeps immutably borrowed (and alive) until `token` is marked consumed —
// its `Request` blocks in wait/Drop otherwise. The single consumer reads it
// exactly once, then releases the token.
unsafe impl Send for Payload {}

impl Payload {
    fn len(&self) -> usize {
        match self {
            Payload::Owned(v) => v.len(),
            Payload::Borrowed { len, .. } => *len,
        }
    }

    /// Copies the payload into `dst` and releases the sender if borrowed.
    ///
    /// # Safety
    /// `dst` must be valid for `self.len()` bytes.
    unsafe fn consume_into(self, dst: *mut u8) {
        match self {
            Payload::Owned(v) => std::ptr::copy_nonoverlapping(v.as_ptr(), dst, v.len()),
            Payload::Borrowed { ptr, len, token } => {
                std::ptr::copy_nonoverlapping(ptr, dst, len);
                token.mark_consumed();
            }
        }
    }

    /// Extracts the payload as a `Vec`, releasing the sender if borrowed.
    fn consume_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(v) => v,
            Payload::Borrowed { ptr, len, token } => {
                // SAFETY: see `Send` impl — the sender pins the buffer until
                // the token is released below.
                let v = unsafe { std::slice::from_raw_parts(ptr, len) }.to_vec();
                token.mark_consumed();
                v
            }
        }
    }
}

/// One `(source, tag)` flow inside a mailbox. Without fault injection only
/// `ready` is used (plain FIFO). Under a fault plan, messages arrive
/// carrying sequence numbers and are *reassembled*: `next_seq` is the next
/// in-order number, `ooo` parks early arrivals, and duplicates (seq below
/// `next_seq` or already parked) are discarded. This is what restores
/// exactly-once in-order delivery under delay/reorder/duplicate/drop.
#[derive(Default)]
struct Channel {
    ready: VecDeque<Payload>,
    next_seq: u64,
    ooo: BTreeMap<u64, Vec<u8>>,
}

/// One rank's incoming mailbox: per-`(source, tag)` FIFO flows, exactly
/// MPI's matching rule for non-wildcard receives.
struct RankMailbox {
    queues: Mutex<HashMap<(usize, Tag), Channel>>,
    cv: Condvar,
}

impl RankMailbox {
    fn new() -> Self {
        Self {
            queues: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }
}

struct BarrierState {
    count: usize,
    generation: u64,
}

/// What a blocked rank is doing, for the watchdog's report.
struct PendingSlot {
    kind: PendingKind,
    peer: Option<usize>,
    tag: Option<Tag>,
    bytes: Option<usize>,
    since: Instant,
}

pub(crate) struct WorldShared {
    pub(crate) size: usize,
    mailboxes: Vec<RankMailbox>,
    stats: WorldStats,
    /// Optional rank → node assignment used to classify traffic as intra-
    /// vs inter-node in the statistics. `None` ⇒ every rank is its own node.
    node_of: Option<Vec<usize>>,
    barrier_lock: Mutex<BarrierState>,
    barrier_cv: Condvar,
    /// Fault injector; `None` ⇒ the historical fast path.
    chaos: Option<ChaosState>,
    /// Watchdog timeout; `None` ⇒ no monitor thread, no pending tracking.
    watchdog: Option<Duration>,
    /// Global progress counter: bumped on every delivery, pop, and barrier
    /// arrival. The watchdog declares a stall when it stops moving while
    /// at least one rank is blocked.
    progress: AtomicU64,
    /// Per-rank pending-operation slots (maintained only with a watchdog).
    pending: Vec<Mutex<Option<PendingSlot>>>,
    poisoned: AtomicBool,
    poison_report: Mutex<Option<Arc<StallReport>>>,
}

impl WorldShared {
    /// Whether a `src → dst` message crosses a node boundary under the
    /// world's node assignment (without one, any two distinct ranks do).
    fn is_inter_node(&self, src: usize, dst: usize) -> bool {
        match &self.node_of {
            Some(map) => map[src] != map[dst],
            None => src != dst,
        }
    }

    fn bump_progress(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether blocking waits must poll in slices (something other than a
    /// condvar notification — chaos redelivery or poison — can unblock us).
    fn needs_slices(&self) -> bool {
        self.chaos.is_some() || self.watchdog.is_some()
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    fn poison_error(&self) -> CommError {
        let report = self
            .poison_report
            .lock()
            .expect("mutex poisoned: a peer thread panicked")
            .clone();
        CommError::Poisoned {
            report: report.unwrap_or_else(|| {
                Arc::new(StallReport {
                    timeout: Duration::ZERO,
                    progress: 0,
                    ranks: Vec::new(),
                })
            }),
        }
    }

    /// Marks the world dead and wakes every blocked rank so it can observe
    /// the poison and fail fast instead of waiting forever.
    fn poison(&self, report: Arc<StallReport>) {
        *self
            .poison_report
            .lock()
            .expect("mutex poisoned: a peer thread panicked") = Some(report);
        self.poisoned.store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            let _guard = mb
                .queues
                .lock()
                .expect("mutex poisoned: a peer thread panicked");
            mb.cv.notify_all();
        }
        let _guard = self
            .barrier_lock
            .lock()
            .expect("mutex poisoned: a peer thread panicked");
        self.barrier_cv.notify_all();
    }

    fn enter_pending(
        &self,
        rank: usize,
        kind: PendingKind,
        peer: Option<usize>,
        tag: Option<Tag>,
        bytes: Option<usize>,
    ) {
        if self.watchdog.is_none() {
            return;
        }
        *self.pending[rank]
            .lock()
            .expect("mutex poisoned: a peer thread panicked") = Some(PendingSlot {
            kind,
            peer,
            tag,
            bytes,
            since: Instant::now(),
        });
    }

    fn clear_pending(&self, rank: usize) {
        if self.watchdog.is_none() {
            return;
        }
        *self.pending[rank]
            .lock()
            .expect("mutex poisoned: a peer thread panicked") = None;
    }

    fn blocked_count(&self) -> usize {
        self.pending
            .iter()
            .filter(|slot| {
                slot.lock()
                    .expect("mutex poisoned: a peer thread panicked")
                    .is_some()
            })
            .count()
    }

    fn build_report(&self, timeout: Duration) -> StallReport {
        StallReport {
            timeout,
            progress: self.progress.load(Ordering::Relaxed),
            ranks: self
                .pending
                .iter()
                .map(|slot| {
                    slot.lock()
                        .expect("mutex poisoned: a peer thread panicked")
                        .as_ref()
                        .map(|s| PendingOp {
                            kind: s.kind,
                            peer: s.peer,
                            tag: s.tag,
                            bytes: s.bytes,
                            blocked: s.since.elapsed(),
                        })
                })
                .collect(),
        }
    }

    /// Delivers already-sequenced bytes into `dst`'s `(src, tag)` flow,
    /// discarding duplicates and releasing any in-order run.
    fn deliver_seq(&self, dst: usize, src: usize, tag: Tag, seq: u64, bytes: Vec<u8>) {
        let mb = &self.mailboxes[dst];
        let mut released = false;
        {
            let mut q = mb
                .queues
                .lock()
                .expect("mutex poisoned: a peer thread panicked");
            let ch = q.entry((src, tag)).or_default();
            if seq < ch.next_seq || ch.ooo.contains_key(&seq) {
                return; // duplicate: already delivered or already parked
            }
            ch.ooo.insert(seq, bytes);
            while let Some(b) = ch.ooo.remove(&ch.next_seq) {
                ch.ready.push_back(Payload::Owned(b));
                ch.next_seq += 1;
                released = true;
            }
        }
        if released {
            mb.cv.notify_all();
            self.bump_progress();
        }
    }

    /// Central send path: records statistics, then either deposits directly
    /// (fast path) or runs the payload through the fault injector.
    fn send_payload(&self, src: usize, dst: usize, tag: Tag, payload: Payload) {
        self.stats
            .record_message(payload.len(), self.is_inter_node(src, dst));
        let Some(chaos) = &self.chaos else {
            let mb = &self.mailboxes[dst];
            {
                let mut q = mb
                    .queues
                    .lock()
                    .expect("mutex poisoned: a peer thread panicked");
                q.entry((src, tag)).or_default().ready.push_back(payload);
            }
            mb.cv.notify_all();
            self.bump_progress();
            return;
        };
        // Under chaos every payload becomes an owned copy (releasing any
        // rendezvous token immediately): held/duplicated messages must not
        // pin the sender's buffer past its request.
        let mut bytes = payload.consume_vec();
        let seq = chaos.next_seq(src, dst, tag);
        let mut action = chaos.decide(src, dst, tag, seq);
        if action == FaultAction::Truncate && (tag >= RESERVED_TAG_BASE || bytes.is_empty()) {
            // truncation is an unrecoverable error-path fault; keep it off
            // the internal collective protocol and off empty messages
            action = FaultAction::Deliver;
        }
        chaos.record(action, src, dst, tag, seq, bytes.len());
        let now = Instant::now();
        // a message stashed for reorder on this flow is delivered *after*
        // the current one — that is the injected inversion
        let stashed = chaos.take_reorder(src, dst, tag);
        match action {
            FaultAction::Deliver => self.deliver_seq(dst, src, tag, seq, bytes),
            FaultAction::Delay => chaos.hold(HeldMsg {
                due: now + chaos.plan.delay,
                src,
                dst,
                tag,
                seq,
                bytes,
            }),
            FaultAction::DropRetransmit => chaos.hold(HeldMsg {
                due: now + chaos.plan.retransmit,
                src,
                dst,
                tag,
                seq,
                bytes,
            }),
            FaultAction::Duplicate => {
                self.deliver_seq(dst, src, tag, seq, bytes.clone());
                self.deliver_seq(dst, src, tag, seq, bytes);
            }
            FaultAction::Truncate => {
                let cut = bytes.len().min(8);
                bytes.truncate(bytes.len() - cut);
                self.deliver_seq(dst, src, tag, seq, bytes);
            }
            FaultAction::Reorder => {
                if stashed.is_none() {
                    chaos.stash_reorder(HeldMsg {
                        due: now + chaos.reorder_window(),
                        src,
                        dst,
                        tag,
                        seq,
                        bytes,
                    });
                } else {
                    // the displaced message already provides the inversion
                    self.deliver_seq(dst, src, tag, seq, bytes);
                }
            }
        }
        if let Some(m) = stashed {
            self.deliver_seq(m.dst, m.src, m.tag, m.seq, m.bytes);
        }
        self.pump();
    }

    /// Flushes injector-held messages that have come due. Called from every
    /// send and from each slice of a blocked receive, so held messages
    /// drain even when all ranks are waiting.
    fn pump(&self) {
        let Some(chaos) = &self.chaos else { return };
        for m in chaos.take_due(Instant::now()) {
            self.deliver_seq(m.dst, m.src, m.tag, m.seq, m.bytes);
        }
    }

    /// Blocks until a message on `(src, tag)` is available and pops it,
    /// observing poison and peer death. The watchdog is the only bound on
    /// a wait that can never complete.
    fn pop_blocking(
        &self,
        rank: usize,
        src: usize,
        tag: Tag,
        expect_bytes: Option<usize>,
    ) -> Result<Payload, CommError> {
        let sliced = self.needs_slices();
        self.enter_pending(rank, PendingKind::Recv, Some(src), Some(tag), expect_bytes);
        let result = loop {
            if self.is_poisoned() {
                break Err(self.poison_error());
            }
            self.pump();
            let mb = &self.mailboxes[rank];
            let mut q = mb
                .queues
                .lock()
                .expect("mutex poisoned: a peer thread panicked");
            if let Some(p) = q.get_mut(&(src, tag)).and_then(|ch| ch.ready.pop_front()) {
                break Ok(p);
            }
            if let Some(chaos) = &self.chaos {
                // nothing queued, nothing parked, and the producer is dead:
                // the message can never arrive (already-delivered messages
                // were drained by the pop above, like in-flight MPI packets)
                if chaos.is_dead(src) && !chaos.has_parked() {
                    break Err(CommError::PeerDead { peer: src });
                }
            }
            drop(wait_on(&mb.cv, q, sliced));
        };
        self.clear_pending(rank);
        if result.is_ok() {
            self.bump_progress();
        }
        result
    }

    /// Waits for a borrowed send's token, observing poison. On poison the
    /// in-flight payload is cancelled (removed from the destination queue)
    /// when still possible.
    fn wait_send(
        &self,
        rank: usize,
        dst: usize,
        tag: Tag,
        token: &Arc<SendToken>,
    ) -> Result<(), CommError> {
        let sliced = self.needs_slices();
        self.enter_pending(rank, PendingKind::SendWait, Some(dst), Some(tag), None);
        let result = loop {
            if token.is_consumed() {
                break Ok(());
            }
            if self.is_poisoned() {
                if self.cancel_borrowed(dst, rank, tag, token) {
                    break Err(self.poison_error());
                }
                // already popped by the receiver: consumption is imminent
                token.wait_consumed();
                break Ok(());
            }
            if sliced {
                token.wait_consumed_slice();
            } else {
                token.wait_consumed();
            }
        };
        self.clear_pending(rank);
        result
    }

    /// Removes a still-queued borrowed payload (identified by its token)
    /// from `dst`'s mailbox and settles the token. False when the payload
    /// was already popped — the receiver owns it and will consume it.
    fn cancel_borrowed(&self, dst: usize, src: usize, tag: Tag, token: &Arc<SendToken>) -> bool {
        let mut q = self.mailboxes[dst]
            .queues
            .lock()
            .expect("mutex poisoned: a peer thread panicked");
        let Some(ch) = q.get_mut(&(src, tag)) else {
            return false;
        };
        let pos = ch
            .ready
            .iter()
            .position(|p| matches!(p, Payload::Borrowed { token: t, .. } if Arc::ptr_eq(t, token)));
        match pos {
            Some(i) => {
                drop(ch.ready.remove(i));
                token.mark_consumed(); // settle: releases every other waiter
                true
            }
            None => false,
        }
    }

    /// Parks an injected-stall rank until the watchdog poisons the world.
    fn park_stalled(&self, rank: usize) -> CommError {
        self.enter_pending(rank, PendingKind::Stalled, None, None, None);
        while !self.is_poisoned() {
            std::thread::sleep(WAIT_SLICE);
        }
        self.clear_pending(rank);
        self.poison_error()
    }
}

/// The watchdog: samples the progress counter and the per-rank pending
/// slots; when progress freezes for `timeout` with at least one rank
/// blocked, it poisons the world with a [`StallReport`] and exits.
fn watchdog_loop(weak: Weak<WorldShared>, timeout: Duration) {
    let poll = (timeout / 8).max(Duration::from_millis(1));
    let mut last_progress = u64::MAX;
    let mut last_change = Instant::now();
    loop {
        std::thread::sleep(poll);
        let Some(shared) = weak.upgrade() else { return };
        if shared.is_poisoned() {
            return;
        }
        let progress = shared.progress.load(Ordering::Relaxed);
        if progress != last_progress || shared.blocked_count() == 0 {
            last_progress = progress;
            last_change = Instant::now();
            continue;
        }
        if last_change.elapsed() >= timeout {
            let report = Arc::new(shared.build_report(timeout));
            shared.poison(report);
            return;
        }
    }
}

/// Factory for communication worlds.
///
/// ```
/// use spmv_comm::{CommError, CommWorld};
///
/// let mut comms = CommWorld::create(2).into_iter();
/// let (c0, c1) = (comms.next().unwrap(), comms.next().unwrap());
/// let peer = std::thread::spawn(move || -> Result<(), CommError> {
///     let mut buf = [0.0f64; 3];
///     c1.recv(0, 7, &mut buf)?;                      // blocking receive
///     c1.send(0, 8, &[buf.iter().sum::<f64>()])      // reply with the sum
/// });
/// c0.send(1, 7, &[1.0, 2.0, 3.0])?;
/// let mut total = [0.0f64];
/// c0.recv(1, 8, &mut total)?;
/// assert_eq!(total[0], 6.0);
/// peer.join().unwrap()?;
/// # Ok::<(), CommError>(())
/// ```
pub struct CommWorld;

impl CommWorld {
    /// Creates a world of `size` ranks and returns one [`Comm`] handle per
    /// rank (index = rank). Hand each to its rank's thread.
    pub fn create(size: usize) -> Vec<Comm> {
        Self::builder(size).build()
    }

    /// Creates a world whose traffic statistics distinguish intra- from
    /// inter-node messages: `node_of[r]` is the node hosting rank `r`. The
    /// world size is `node_of.len()`. Message *delivery* is unaffected —
    /// only the [`WorldStats`] classification changes.
    pub fn create_with_nodes(node_of: Vec<usize>) -> Vec<Comm> {
        Self::builder(node_of.len()).node_map(node_of).build()
    }

    /// Configurable world construction: node map, fault plan, watchdog.
    pub fn builder(size: usize) -> WorldBuilder {
        WorldBuilder {
            size,
            node_of: None,
            faults: None,
            watchdog: None,
        }
    }
}

/// Builder returned by [`CommWorld::builder`].
pub struct WorldBuilder {
    size: usize,
    node_of: Option<Vec<usize>>,
    faults: Option<FaultPlan>,
    watchdog: Option<Duration>,
}

impl WorldBuilder {
    /// Attaches a rank → node map (see [`CommWorld::create_with_nodes`]).
    pub fn node_map(mut self, node_of: Vec<usize>) -> Self {
        assert_eq!(node_of.len(), self.size, "node map must cover the world");
        self.node_of = Some(node_of);
        self
    }

    /// Attaches a seeded fault plan. Without one the injector code is
    /// never consulted (zero-cost-when-disabled).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Arms the stall watchdog: if the world makes no progress for
    /// `timeout` while at least one rank is blocked in the communication
    /// layer, the world is poisoned with a per-rank pending dump. Pick a
    /// timeout longer than the longest compute-only phase between
    /// communication calls, or a slow-but-healthy run may be flagged.
    pub fn watchdog(mut self, timeout: Duration) -> Self {
        self.watchdog = Some(timeout);
        self
    }

    /// Builds the world and returns one [`Comm`] handle per rank.
    pub fn build(self) -> Vec<Comm> {
        assert!(self.size >= 1, "world needs at least one rank");
        if let Some(plan) = &self.faults {
            assert!(
                plan.stall.is_none() || self.watchdog.is_some(),
                "a stall plan requires a watchdog (the world would hang forever)"
            );
        }
        let size = self.size;
        let shared = Arc::new(WorldShared {
            size,
            mailboxes: (0..size).map(|_| RankMailbox::new()).collect(),
            stats: WorldStats::default(),
            node_of: self.node_of,
            barrier_lock: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
            }),
            barrier_cv: Condvar::new(),
            chaos: self.faults.map(|plan| ChaosState::new(plan, size)),
            watchdog: self.watchdog,
            progress: AtomicU64::new(0),
            pending: (0..size).map(|_| Mutex::new(None)).collect(),
            poisoned: AtomicBool::new(false),
            poison_report: Mutex::new(None),
        });
        if let Some(timeout) = self.watchdog {
            let weak = Arc::downgrade(&shared);
            std::thread::Builder::new()
                .name("spmv-comm-watchdog".into())
                .spawn(move || watchdog_loop(weak, timeout))
                .expect("failed to spawn watchdog thread");
        }
        (0..size)
            .map(|rank| Comm {
                rank,
                shared: Arc::clone(&shared),
            })
            .collect()
    }
}

/// A nonblocking-operation handle. Receive requests and borrowed sends
/// ([`Comm::isend_ref`]) borrow their buffer until completed by
/// [`Comm::wait`] / [`Comm::waitall`]; the borrow makes buffer reuse before
/// completion a compile error.
///
/// Dropping a not-yet-completed borrowed-send request *blocks* until the
/// receiver has consumed the message (the buffer must not be freed under
/// it) — unless the world is poisoned or gone, in which case the payload is
/// withdrawn from the destination queue instead; dropping an unwaited
/// receive request cancels it.
#[must_use = "requests must be completed with wait/waitall (or explicitly dropped)"]
pub struct Request<'buf> {
    kind: ReqKind,
    _buf: PhantomData<&'buf mut [u8]>,
}

enum ReqKind {
    /// Buffered sends complete at post time (eager protocol).
    SendDone,
    /// Borrowed (rendezvous) send: complete once the receiver copied out.
    /// Carries enough routing state to withdraw the payload from the
    /// destination queue if the world is poisoned before consumption.
    SendBorrowed {
        token: Arc<SendToken>,
        world: Weak<WorldShared>,
        src: usize,
        dst: usize,
        tag: Tag,
    },
    Recv {
        src: usize,
        tag: Tag,
        dst: *mut u8,
        bytes: usize,
    },
}

// SAFETY: the raw pointer targets a buffer whose exclusive borrow is held by
// the request itself (lifetime parameter), and completion writes happen on
// whichever thread calls wait — never concurrently with user access.
unsafe impl Send for Request<'_> {}

impl Drop for Request<'_> {
    fn drop(&mut self) {
        // A borrowed send pins the sender's buffer; never let it be freed
        // (or mutated) before the receiver has copied the bytes out — or
        // before a poisoned world has withdrawn the payload. Once the world
        // is gone, nothing can read the buffer anymore.
        if let ReqKind::SendBorrowed {
            token,
            world,
            src,
            dst,
            tag,
        } = &self.kind
        {
            if let Some(shared) = world.upgrade() {
                // either outcome leaves the buffer unreferenced
                let _ = shared.wait_send(*src, *dst, *tag, token);
            }
        }
    }
}

/// A rank's handle to the communication world; cheap to move across
/// threads. Cloning yields another handle to the *same* rank (useful when a
/// solver needs the communicator while the engine is mutably borrowed).
#[derive(Clone)]
pub struct Comm {
    rank: usize,
    shared: Arc<WorldShared>,
}

impl Comm {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// World-wide traffic statistics.
    pub fn stats(&self) -> &WorldStats {
        &self.shared.stats
    }

    fn assert_user_tag(tag: Tag) {
        assert!(
            tag < RESERVED_TAG_BASE,
            "tags >= {RESERVED_TAG_BASE:#x} are reserved"
        );
    }

    fn assert_peer(&self, peer: usize) {
        assert!(
            peer < self.shared.size,
            "rank {peer} out of range ({})",
            self.shared.size
        );
    }

    /// Per-operation health gate: fails fast on a poisoned world and runs
    /// the caller through the fault plan's stall/kill schedule. The
    /// scheduling counts *operations* (sends, completed receives,
    /// barriers), so a plan's `after_ops` is deterministic.
    fn op_gate(&self) -> Result<(), CommError> {
        if self.shared.is_poisoned() {
            return Err(self.shared.poison_error());
        }
        let Some(chaos) = &self.shared.chaos else {
            return Ok(());
        };
        match chaos.op_fate(self.rank) {
            OpFate::Normal => Ok(()),
            OpFate::Dead => Err(CommError::PeerDead { peer: self.rank }),
            OpFate::Stall => Err(self.shared.park_stalled(self.rank)),
        }
    }

    /// Fails when the fault plan has killed `peer`.
    fn peer_alive(&self, peer: usize) -> Result<(), CommError> {
        match &self.shared.chaos {
            Some(chaos) if chaos.is_dead(peer) => Err(CommError::PeerDead { peer }),
            _ => Ok(()),
        }
    }

    // -- point-to-point -----------------------------------------------------

    /// The one send path: peer check, health gate, deposit.
    fn post(&self, dst: usize, tag: Tag, payload: Payload) -> Result<(), CommError> {
        self.assert_peer(dst);
        self.op_gate()?;
        self.peer_alive(dst)?;
        self.shared.send_payload(self.rank, dst, tag, payload);
        Ok(())
    }

    /// Eager send without the user-tag check, shared by [`Comm::isend`]
    /// and the collectives.
    pub(crate) fn send_owned<T: Pod>(
        &self,
        dst: usize,
        tag: Tag,
        data: &[T],
    ) -> Result<(), CommError> {
        self.post(dst, tag, Payload::Owned(as_bytes(data).to_vec()))
    }

    /// Receive of unknown length without the user-tag check, shared by
    /// [`Comm::recv_vec`] and the collectives.
    pub(crate) fn recv_owned<T: Pod>(&self, src: usize, tag: Tag) -> Result<Vec<T>, CommError> {
        self.assert_peer(src);
        self.op_gate()?;
        let payload = self.shared.pop_blocking(self.rank, src, tag, None)?;
        Ok(from_bytes_vec(&payload.consume_vec()))
    }

    /// Nonblocking send. The payload is copied out immediately (eager,
    /// buffered — like small-message MPI), so the returned request is
    /// already complete and the slice may be reused right away. Fails when
    /// the world is poisoned or the destination (or this rank) is dead.
    pub fn isend<T: Pod>(
        &self,
        dst: usize,
        tag: Tag,
        data: &[T],
    ) -> Result<Request<'static>, CommError> {
        Self::assert_user_tag(tag);
        self.send_owned(dst, tag, data)?;
        Ok(Request {
            kind: ReqKind::SendDone,
            _buf: PhantomData,
        })
    }

    /// Nonblocking send *without* the eager payload copy (rendezvous,
    /// zero-allocation): the message references `data` in place and the
    /// receiver copies directly out of it, sender buffer → receiver buffer.
    ///
    /// The returned request borrows `data` and completes when the receiver
    /// has consumed the message; [`Comm::wait`]ing on it (or dropping it)
    /// blocks until then. The borrow makes mutating the buffer before
    /// completion a compile error — see the aliasing contract on [`Pod`].
    ///
    /// Unlike a real rendezvous protocol there is no handshake before the
    /// *matching* — the message metadata is visible to the receiver
    /// immediately — so `isend_ref` is as deadlock-free as `isend` provided
    /// the sender does not wait on the request before posting everything the
    /// receiver needs to make progress.
    ///
    /// Under an active fault plan the payload is copied eagerly after all
    /// (held/duplicated messages must not pin the caller's buffer), so the
    /// request completes at post time.
    pub fn isend_ref<'buf, T: Pod>(
        &self,
        dst: usize,
        tag: Tag,
        data: &'buf [T],
    ) -> Result<Request<'buf>, CommError> {
        Self::assert_user_tag(tag);
        let bytes = as_bytes(data);
        let token = Arc::new(SendToken::new());
        self.post(
            dst,
            tag,
            Payload::Borrowed {
                ptr: bytes.as_ptr(),
                len: bytes.len(),
                token: Arc::clone(&token),
            },
        )?;
        Ok(Request {
            kind: ReqKind::SendBorrowed {
                token,
                world: Arc::downgrade(&self.shared),
                src: self.rank,
                dst,
                tag,
            },
            _buf: PhantomData,
        })
    }

    /// Blocking send (same delivery semantics as [`Comm::isend`]).
    pub fn send<T: Pod>(&self, dst: usize, tag: Tag, data: &[T]) -> Result<(), CommError> {
        self.isend(dst, tag, data).map(drop)
    }

    /// Nonblocking receive into `buf`. The message is matched and copied
    /// when this rank *waits* on the request — data transfer happens inside
    /// communication calls only, mirroring standard MPI progress (§3 of the
    /// paper).
    pub fn irecv<'buf, T: Pod>(&self, src: usize, tag: Tag, buf: &'buf mut [T]) -> Request<'buf> {
        Self::assert_user_tag(tag);
        self.assert_peer(src);
        Request {
            kind: ReqKind::Recv {
                src,
                tag,
                dst: buf.as_mut_ptr() as *mut u8,
                bytes: std::mem::size_of_val(buf),
            },
            _buf: PhantomData,
        }
    }

    /// Blocking receive into `buf`; the message length must match exactly
    /// ([`CommError::Truncated`] otherwise).
    pub fn recv<T: Pod>(&self, src: usize, tag: Tag, buf: &mut [T]) -> Result<(), CommError> {
        let req = self.irecv(src, tag, buf);
        self.wait(req)
    }

    /// Blocking receive of a message of unknown length.
    pub fn recv_vec<T: Pod>(&self, src: usize, tag: Tag) -> Result<Vec<T>, CommError> {
        Self::assert_user_tag(tag);
        self.recv_owned(src, tag)
    }

    /// Completes one request (blocking). Fails on truncation, a dead peer,
    /// or a poisoned world; the operation is then cancelled — a pending
    /// receive is dropped, a pending borrowed send withdrawn.
    pub fn wait(&self, mut req: Request<'_>) -> Result<(), CommError> {
        // Leave `SendDone` behind so the Drop impl sees a completed request.
        match std::mem::replace(&mut req.kind, ReqKind::SendDone) {
            ReqKind::SendDone => Ok(()),
            ReqKind::SendBorrowed {
                token, dst, tag, ..
            } => self.shared.wait_send(self.rank, dst, tag, &token),
            ReqKind::Recv {
                src,
                tag,
                dst,
                bytes,
            } => {
                self.op_gate()?;
                let payload = self.shared.pop_blocking(self.rank, src, tag, Some(bytes))?;
                if payload.len() != bytes {
                    let got = payload.len();
                    drop(payload.consume_vec()); // releases a borrowed sender
                    return Err(CommError::Truncated {
                        src,
                        tag,
                        expected: bytes,
                        got,
                    });
                }
                // SAFETY: `dst` points to a live exclusive buffer of `bytes`
                // bytes (borrow held by the request), lengths checked above.
                unsafe {
                    payload.consume_into(dst);
                }
                Ok(())
            }
        }
    }

    /// Completes all requests (blocking, in order — the set is completed
    /// when the call returns, like `MPI_Waitall`). Stops at the first
    /// failure; the remaining requests are dropped (receives cancelled,
    /// borrowed sends settled by the poison-aware Drop).
    pub fn waitall<'a>(
        &self,
        reqs: impl IntoIterator<Item = Request<'a>>,
    ) -> Result<(), CommError> {
        reqs.into_iter().try_for_each(|r| self.wait(r))
    }

    // -- barrier -------------------------------------------------------------

    /// World barrier: returns when all ranks have entered. Like the
    /// collectives it panics with the [`CommError`] text on a fault (see
    /// [`crate::collectives`]).
    pub fn barrier(&self) {
        or_panic(self.op_gate());
        let shared = &self.shared;
        shared.enter_pending(self.rank, PendingKind::Barrier, None, None, None);
        let sliced = shared.needs_slices();
        let mut st = shared
            .barrier_lock
            .lock()
            .expect("mutex poisoned: a peer thread panicked");
        let gen = st.generation;
        st.count += 1;
        shared.bump_progress();
        if st.count == shared.size {
            st.count = 0;
            st.generation += 1;
            shared.barrier_cv.notify_all();
        }
        while st.generation == gen {
            if shared.is_poisoned() {
                st.count -= 1; // withdraw: the barrier will never open
                drop(st);
                shared.clear_pending(self.rank);
                panic!("{}", shared.poison_error());
            }
            st = wait_on(&shared.barrier_cv, st, sliced);
        }
        drop(st);
        shared.clear_pending(self.rank);
    }

    // -- resilience hooks ----------------------------------------------------

    /// One failure-detector poll, for solver iteration boundaries. `true`
    /// exactly when the fault plan injects a failure at this poll index
    /// (see `FaultPlan::fail_rank_at_poll`); always `false` without a plan.
    /// Purely local — agreement across ranks is the caller's job (e.g. an
    /// `allreduce` max).
    pub fn poll_failure(&self) -> bool {
        match &self.shared.chaos {
            Some(chaos) => chaos.poll_failure(self.rank),
            None => false,
        }
    }

    /// Counters of injected faults, when a plan is attached.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.shared.chaos.as_ref().map(|c| c.stats())
    }

    /// The per-fault event log (empty without a plan). World-global and
    /// identical on every rank; consumers filter by `src` when stamping
    /// faults onto per-rank timelines.
    pub fn fault_events(&self) -> Vec<crate::fault::FaultEvent> {
        self.shared
            .chaos
            .as_ref()
            .map(|c| c.events())
            .unwrap_or_default()
    }

    /// Whether the watchdog has declared this world dead.
    pub fn is_poisoned(&self) -> bool {
        self.shared.is_poisoned()
    }

    /// The watchdog's stall report, once the world is poisoned.
    pub fn stall_report(&self) -> Option<Arc<StallReport>> {
        self.shared
            .poison_report
            .lock()
            .expect("mutex poisoned: a peer thread panicked")
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_world<F>(size: usize, f: F)
    where
        F: Fn(Comm) + Send + Sync + Copy + 'static,
    {
        run_comms(CommWorld::create(size), f);
    }

    fn run_comms<F>(comms: Vec<Comm>, f: F)
    where
        F: Fn(Comm) + Send + Sync + Copy + 'static,
    {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| std::thread::spawn(move || f(c)))
            .collect();
        for h in handles {
            h.join().expect("rank thread panicked");
        }
    }

    #[test]
    fn basic_send_recv() {
        spawn_world(2, |c| {
            if c.rank() == 0 {
                c.send(1, 7, &[1.0f64, 2.0, 3.0]).unwrap();
            } else {
                let mut buf = [0.0f64; 3];
                c.recv(0, 7, &mut buf).unwrap();
                assert_eq!(buf, [1.0, 2.0, 3.0]);
            }
        });
    }

    #[test]
    fn nonblocking_roundtrip_with_waitall() {
        spawn_world(2, |c| {
            let peer = 1 - c.rank();
            let mut inbox = [0u32; 4];
            let rreq = c.irecv(peer, 1, &mut inbox);
            let data = [c.rank() as u32; 4];
            let sreq = c.isend(peer, 1, &data).unwrap();
            c.waitall([rreq, sreq]).unwrap();
            assert_eq!(inbox, [peer as u32; 4]);
        });
    }

    #[test]
    fn messages_match_by_tag() {
        spawn_world(2, |c| {
            if c.rank() == 0 {
                // send tag 2 first, then tag 1
                c.send(1, 2, &[20.0f64]).unwrap();
                c.send(1, 1, &[10.0f64]).unwrap();
            } else {
                // receive in the opposite tag order
                let mut a = [0.0f64];
                let mut b = [0.0f64];
                c.recv(0, 1, &mut a).unwrap();
                c.recv(0, 2, &mut b).unwrap();
                assert_eq!(a, [10.0]);
                assert_eq!(b, [20.0]);
            }
        });
    }

    #[test]
    fn same_tag_messages_are_fifo() {
        spawn_world(2, |c| {
            if c.rank() == 0 {
                for i in 0..10u64 {
                    c.send(1, 5, &[i]).unwrap();
                }
            } else {
                for i in 0..10u64 {
                    let mut buf = [0u64];
                    c.recv(0, 5, &mut buf).unwrap();
                    assert_eq!(buf[0], i, "FIFO order violated");
                }
            }
        });
    }

    #[test]
    fn self_messaging_works() {
        spawn_world(1, |c| {
            c.send(0, 3, &[42i32]).unwrap();
            let mut buf = [0i32];
            c.recv(0, 3, &mut buf).unwrap();
            assert_eq!(buf[0], 42);
        });
    }

    #[test]
    fn recv_vec_handles_unknown_lengths() {
        spawn_world(2, |c| {
            if c.rank() == 0 {
                c.send(1, 9, &[1u32, 2, 3, 4, 5]).unwrap();
            } else {
                let v: Vec<u32> = c.recv_vec(0, 9).unwrap();
                assert_eq!(v, vec![1, 2, 3, 4, 5]);
            }
        });
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BEFORE: AtomicUsize = AtomicUsize::new(0);
        static FAILED: AtomicUsize = AtomicUsize::new(0);
        BEFORE.store(0, Ordering::SeqCst);
        spawn_world(4, |c| {
            for round in 1..=10 {
                BEFORE.fetch_add(1, Ordering::SeqCst);
                c.barrier();
                if BEFORE.load(Ordering::SeqCst) < 4 * round {
                    FAILED.fetch_add(1, Ordering::SeqCst);
                }
                c.barrier();
            }
        });
        assert_eq!(FAILED.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let comms = CommWorld::create(2);
        let stats_bytes;
        {
            let (c0, c1) = {
                let mut it = comms.into_iter();
                (it.next().unwrap(), it.next().unwrap())
            };
            let h = std::thread::spawn(move || {
                c1.send(0, 1, &[0u8; 100]).unwrap();
                c1.barrier();
            });
            let mut buf = [0u8; 100];
            c0.recv(1, 1, &mut buf).unwrap();
            c0.barrier();
            h.join().unwrap();
            stats_bytes = (c0.stats().messages(), c0.stats().bytes());
        }
        assert_eq!(stats_bytes, (1, 100));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tags_rejected() {
        let comms = CommWorld::create(1);
        let _ = comms[0].isend(0, RESERVED_TAG_BASE, &[0u8]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_peer_rejected() {
        let comms = CommWorld::create(2);
        let _ = comms[0].isend(5, 0, &[0u8]);
    }

    #[test]
    fn size_mismatch_detected_on_wait() {
        let comms = CommWorld::create(1);
        let c = &comms[0];
        c.send(0, 1, &[1.0f64, 2.0]).unwrap();
        let mut small = [0.0f64; 1];
        let req = c.irecv(0, 1, &mut small);
        assert_eq!(
            c.wait(req),
            Err(CommError::Truncated {
                src: 0,
                tag: 1,
                expected: 8,
                got: 16
            })
        );
    }

    #[test]
    fn size_mismatch_is_typed_on_try_wait() {
        let comms = CommWorld::create(1);
        let c = &comms[0];
        c.send(0, 1, &[1.0f64, 2.0]).unwrap();
        let mut small = [0.0f64; 1];
        let err = c.recv(0, 1, &mut small).unwrap_err();
        assert_eq!(
            err,
            CommError::Truncated {
                src: 0,
                tag: 1,
                expected: 8,
                got: 16
            }
        );
    }

    #[test]
    fn many_ranks_ring_exchange() {
        spawn_world(8, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            let mut incoming = [0usize; 1];
            let rreq = c.irecv(prev, 11, &mut incoming);
            let sreq = c.isend(next, 11, &[c.rank()]).unwrap();
            c.waitall([sreq, rreq]).unwrap();
            assert_eq!(incoming[0], prev);
        });
    }

    #[test]
    fn isend_ref_roundtrip_without_copying() {
        spawn_world(2, |c| {
            let peer = 1 - c.rank();
            let mut inbox = [0.0f64; 64];
            let rreq = c.irecv(peer, 1, &mut inbox);
            let data = [c.rank() as f64 + 0.5; 64];
            let sreq = c.isend_ref(peer, 1, &data).unwrap();
            c.waitall([rreq, sreq]).unwrap();
            assert_eq!(inbox, [peer as f64 + 0.5; 64]);
        });
    }

    #[test]
    fn isend_ref_drop_blocks_until_consumed() {
        spawn_world(2, |c| {
            if c.rank() == 0 {
                let data = vec![7u32; 100];
                {
                    let _sreq = c.isend_ref(1, 3, &data).unwrap();
                    // _sreq dropped here: must block until rank 1 receives,
                    // so `data` stays valid for the in-flight message.
                }
                c.barrier();
            } else {
                std::thread::sleep(std::time::Duration::from_millis(10));
                let v: Vec<u32> = c.recv_vec(0, 3).unwrap();
                assert_eq!(v, vec![7u32; 100]);
                c.barrier();
            }
        });
    }

    #[test]
    fn node_map_classifies_intra_and_inter_traffic() {
        // 4 ranks, 2 per node: 0,1 on node 0 / 2,3 on node 1.
        let comms = CommWorld::create_with_nodes(vec![0, 0, 1, 1]);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    if c.rank() == 0 {
                        c.send(1, 1, &[0u8; 10]).unwrap(); // intra-node
                        c.send(2, 1, &[0u8; 20]).unwrap(); // inter-node
                    }
                    if c.rank() == 1 {
                        let mut b = [0u8; 10];
                        c.recv(0, 1, &mut b).unwrap();
                    }
                    if c.rank() == 2 {
                        let mut b = [0u8; 20];
                        c.recv(0, 1, &mut b).unwrap();
                    }
                    c.barrier();
                    c.stats().snapshot()
                })
            })
            .collect();
        let snap = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .next()
            .unwrap();
        assert_eq!(snap.messages, 2);
        assert_eq!(snap.intra_messages, 1);
        assert_eq!(snap.intra_bytes, 10);
        assert_eq!(snap.inter_messages, 1);
        assert_eq!(snap.inter_bytes, 20);
    }

    #[test]
    fn flat_world_counts_nonself_traffic_as_inter() {
        spawn_world(2, |c| {
            if c.rank() == 0 {
                c.send(0, 2, &[1u8]).unwrap(); // self-message: intra
                c.send(1, 2, &[1u8, 2]).unwrap(); // cross-rank: inter (no node map)
                let mut b = [0u8; 1];
                c.recv(0, 2, &mut b).unwrap();
            } else {
                let mut b = [0u8; 2];
                c.recv(0, 2, &mut b).unwrap();
            }
            c.barrier();
            let snap = c.stats().snapshot();
            assert_eq!(snap.intra_messages, 1);
            assert_eq!(snap.inter_messages, 1);
        });
    }

    #[test]
    fn chaos_preserves_fifo_order_per_flow() {
        let plan = FaultPlan::new(1234)
            .delay(0.2, 1)
            .reorder(0.15)
            .duplicate(0.15)
            .drop_with_retransmit(0.15, 2);
        let comms = CommWorld::builder(2).faults(plan).build();
        run_comms(comms, |c| {
            if c.rank() == 0 {
                for i in 0..200u64 {
                    c.send(1, 5, &[i]).unwrap();
                }
                c.barrier();
            } else {
                for i in 0..200u64 {
                    let mut buf = [0u64];
                    c.recv(0, 5, &mut buf).unwrap();
                    assert_eq!(buf[0], i, "reassembly must restore FIFO order");
                }
                c.barrier();
                let stats = c.fault_stats().expect("plan attached");
                assert!(stats.total() > 0, "the plan must actually inject faults");
            }
        });
    }

    #[test]
    fn chaos_completes_isend_ref_eagerly() {
        let comms = CommWorld::builder(2)
            .faults(FaultPlan::new(7).delay(0.5, 1))
            .build();
        run_comms(comms, |c| {
            if c.rank() == 0 {
                let data = vec![3.25f64; 32];
                let req = c.isend_ref(1, 2, &data).unwrap();
                // under chaos the payload is copied at post time
                c.wait(req).unwrap();
                c.barrier();
            } else {
                let v: Vec<f64> = c.recv_vec(0, 2).unwrap();
                assert_eq!(v, vec![3.25f64; 32]);
                c.barrier();
            }
        });
    }

    #[test]
    fn watchdog_poisons_quiesced_world() {
        let comms = CommWorld::builder(2)
            .watchdog(Duration::from_millis(50))
            .build();
        run_comms(comms, |c| {
            // both ranks wait for messages nobody sends: a guaranteed stall
            let err = c.recv_vec::<u8>(1 - c.rank(), 3).unwrap_err();
            let CommError::Poisoned { report } = err else {
                panic!("expected Poisoned");
            };
            assert_eq!(report.ranks.len(), 2);
            assert_eq!(report.blocked_ranks(), 2);
            let text = report.to_string();
            assert!(text.contains("rank 0: recv on rank 1 tag 3"), "{text}");
            assert!(c.is_poisoned());
        });
    }

    #[test]
    fn killed_rank_fails_its_own_ops_and_its_peers() {
        let comms = CommWorld::builder(2)
            .faults(FaultPlan::new(5).kill_rank(1, 2))
            .build();
        run_comms(comms, |c| {
            if c.rank() == 1 {
                // two ops succeed, the third hits the kill switch
                c.send(0, 4, &[1u8]).unwrap();
                c.send(0, 4, &[2u8]).unwrap();
                let err = c.send(0, 4, &[3u8]).unwrap_err();
                assert_eq!(err, CommError::PeerDead { peer: 1 });
            } else {
                // in-flight messages remain receivable after the death
                let mut b = [0u8];
                c.recv(1, 4, &mut b).unwrap();
                assert_eq!(b[0], 1);
                c.recv(1, 4, &mut b).unwrap();
                assert_eq!(b[0], 2);
                // the third was never sent — and never will be
                let err = c.recv(1, 4, &mut b).unwrap_err();
                assert_eq!(err, CommError::PeerDead { peer: 1 });
            }
        });
    }

    #[test]
    fn disabled_injector_reports_no_stats() {
        let comms = CommWorld::create(1);
        assert!(comms[0].fault_stats().is_none());
        assert!(!comms[0].poll_failure());
    }
}
