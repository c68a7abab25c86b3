//! Deterministic interleaving exploration — a loom-style stateless model
//! checker for the in-process communication substrate, with no external
//! dependencies.
//!
//! The real engine runs OS threads whose interleavings the scheduler picks;
//! this module re-expresses each rank's kernel schedule as a *program* of
//! atomic steps ([`MOp`]) over shared buffers and per-flow FIFO mailboxes —
//! the same matching discipline the `spmv-comm` substrate implements — and
//! then explores **every** reachable schedule by depth-first search over
//! the enabled-step relation.
//!
//! Yield points are the op boundaries: a step is the unit the scheduler
//! may interleave, matching the substrate's linearization points (a send
//! enqueues atomically, a receive dequeues atomically, a barrier releases
//! all waiters at once). Between ops a proc touches only rank-private or
//! epoch-disjoint buffer regions, so finer-grained preemption cannot
//! produce states the op-level exploration misses.
//!
//! The search memoizes on the abstract state (program counters + per-flow
//! queue depths) and *proves* the memoization sound as it runs: on every
//! revisit it checks that the full concrete state (buffer bits, queued
//! payloads) is bit-identical to the first visit. A successful run
//! therefore establishes, exhaustively over all interleavings:
//!
//! * **no deadlock** — every schedule reaches the terminal state;
//! * **no lost wakeup / lost message** — terminal mailboxes are empty;
//! * **bit-identical results** — all schedules converge to one concrete
//!   terminal state, so the result vector is schedule-independent.

use spmv_core::split::BlockPart;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::rc::Rc;

/// One atomic step of a modeled proc. Buffer ids index
/// [`ModelWorld::buffers`]; ranks address mailboxes, so a rank's comm and
/// compute procs share its flows exactly as the engine's threads share the
/// communicator.
#[derive(Clone)]
pub enum MOp {
    /// Nonblocking send: copies `buf[range]` into the `(src_rank, dst_rank,
    /// tag)` mailbox (eager-buffered, never blocks — rendezvous completion
    /// is modeled by the message sitting in the queue until consumed).
    Send {
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: u32,
        /// Source buffer id.
        buf: usize,
        /// Element range within the buffer.
        range: (usize, usize),
    },
    /// Blocking receive: dequeues from `(src_rank, my_rank, tag)` into
    /// `buf[off .. off + len]`; enabled only while the queue is nonempty.
    Recv {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: u32,
        /// Destination buffer id.
        buf: usize,
        /// Element offset within the buffer.
        off: usize,
        /// Expected payload length.
        len: usize,
    },
    /// Team barrier: enabled only when every member proc of
    /// `ModelWorld::barrier_groups[id]` is parked at this same barrier;
    /// executing it advances all members at once (the release is one
    /// linearization point, so splitting it adds no schedules).
    Barrier {
        /// Barrier group id.
        id: usize,
    },
    /// Gather: `dst[off + k] = src[indices[k]]` (the engine's send-buffer
    /// fill, and a node leader's in-memory wire copies).
    Gather {
        /// Source buffer id.
        src: usize,
        /// Gather indices into the source buffer.
        indices: Rc<Vec<u32>>,
        /// Destination buffer id.
        dst: usize,
        /// Element offset within the destination buffer.
        off: usize,
    },
    /// Sparse matrix-vector kernel over `x = x_buf[..ncols]` into `y_buf`,
    /// optionally accumulating (the split-kernel second pass).
    Spmv {
        /// The part of the rank's matrix to apply.
        mat: BlockPart,
        /// RHS buffer id (the extended RHS `[local | halo]`).
        x_buf: usize,
        /// Result buffer id.
        y_buf: usize,
        /// `y += A x` instead of `y = A x`.
        accumulate: bool,
    },
}

impl fmt::Debug for MOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MOp::Send { dst, tag, .. } => write!(f, "send(dst={dst}, tag={tag})"),
            MOp::Recv { src, tag, .. } => write!(f, "recv(src={src}, tag={tag})"),
            MOp::Barrier { id } => write!(f, "barrier({id})"),
            MOp::Gather { .. } => write!(f, "gather"),
            MOp::Spmv { accumulate, .. } => write!(f, "spmv(accumulate={accumulate})"),
        }
    }
}

/// One proc: a rank's comm thread or compute thread as a step program.
#[derive(Clone)]
pub struct Program {
    /// The rank whose mailboxes this proc addresses.
    pub rank: usize,
    /// The proc's steps, in program order.
    pub ops: Vec<MOp>,
}

/// A closed world of procs, shared buffers, and barrier groups.
pub struct ModelWorld {
    /// All procs (one per modeled thread).
    pub procs: Vec<Program>,
    /// Initial buffer contents; ops address these by index.
    pub buffers: Vec<Vec<f64>>,
    /// `barrier_groups[id]` lists the proc indices a barrier synchronizes.
    pub barrier_groups: Vec<Vec<usize>>,
}

/// Why an exploration failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// A reachable state has unfinished procs and no enabled step; lists
    /// `(proc, pending-op description)` for every stuck proc.
    Deadlock {
        /// The stuck procs and the ops they are parked on.
        stuck: Vec<(usize, String)>,
    },
    /// A schedule finished with a queued message no receive ever consumed.
    LostMessage {
        /// Sender rank of the orphaned message.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: u32,
    },
    /// A receive dequeued a payload of the wrong length.
    SizeMismatch {
        /// The receiving proc.
        proc: usize,
        /// Expected elements.
        expected: usize,
        /// Dequeued elements.
        got: usize,
    },
    /// Two schedules reached the same abstract state with different
    /// concrete contents — the model is schedule-dependent, so results are
    /// *not* guaranteed bit-identical across interleavings.
    Nondeterminism {
        /// The abstract state's digest (diagnostic only).
        state: u64,
    },
    /// The state space exceeded the configured bound.
    StateLimit {
        /// The bound that was hit.
        limit: usize,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Deadlock { stuck } => {
                write!(f, "deadlock; stuck procs:")?;
                for (p, op) in stuck {
                    write!(f, " [proc {p} at {op}]")?;
                }
                Ok(())
            }
            ExploreError::LostMessage { src, dst, tag } => {
                write!(f, "message {src} -> {dst} (tag {tag}) was never received")
            }
            ExploreError::SizeMismatch {
                proc,
                expected,
                got,
            } => write!(
                f,
                "proc {proc} received {got} elements, expected {expected}"
            ),
            ExploreError::Nondeterminism { state } => write!(
                f,
                "schedule-dependent state detected (abstract state {state:#x})"
            ),
            ExploreError::StateLimit { limit } => {
                write!(f, "state space exceeded {limit} states")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// Result of an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct abstract states visited.
    pub states: usize,
    /// Transitions executed (including memoized re-entries).
    pub transitions: usize,
    /// Distinct maximal schedules (saturating).
    pub schedules: u128,
    /// The unique terminal buffer contents (every schedule converges here;
    /// the determinism check makes this a theorem, not an assumption).
    pub terminal_buffers: Vec<Vec<f64>>,
}

type Flow = (usize, usize, u32);

/// Mutable exploration state: program counters, buffers, mailboxes.
#[derive(Clone)]
struct State {
    pcs: Vec<usize>,
    bufs: Vec<Vec<f64>>,
    mail: BTreeMap<Flow, VecDeque<Vec<f64>>>,
}

impl State {
    /// The abstract state: pcs + per-flow queue depths. Two schedules that
    /// agree on this agree on everything (verified by `digest` at merges).
    fn key(&self) -> (Vec<usize>, Vec<(Flow, usize)>) {
        (
            self.pcs.clone(),
            self.mail
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(&f, q)| (f, q.len()))
                .collect(),
        )
    }

    /// Bit-exact digest of the concrete state (buffers + queued payloads).
    fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for b in &self.bufs {
            for v in b {
                v.to_bits().hash(&mut h);
            }
        }
        for (f, q) in &self.mail {
            if q.is_empty() {
                continue;
            }
            f.hash(&mut h);
            for m in q {
                m.len().hash(&mut h);
                for v in m {
                    v.to_bits().hash(&mut h);
                }
            }
        }
        h.finish()
    }
}

/// The explorer. Build a [`ModelWorld`] (by hand, or from real plans via
/// [`crate::script`]), then call [`Explorer::run`].
pub struct Explorer {
    world: ModelWorld,
    max_states: usize,
}

/// Abstract state key: program counters + per-flow queue depths.
type StateKey = (Vec<usize>, Vec<(Flow, usize)>);

struct Search<'w> {
    world: &'w ModelWorld,
    max_states: usize,
    /// abstract state -> (digest at first visit, schedule count below it)
    memo: HashMap<StateKey, (u64, u128)>,
    transitions: usize,
    terminal: Option<Vec<Vec<f64>>>,
}

impl Explorer {
    /// Wraps a world with the default state bound (1 million states —
    /// far above any small-world exploration, a backstop for runaways).
    pub fn new(world: ModelWorld) -> Self {
        Self {
            world,
            max_states: 1_000_000,
        }
    }

    /// Overrides the state-space bound.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Exhaustively explores every interleaving. `Ok` proves: no schedule
    /// deadlocks, no message is lost, and all schedules produce the same
    /// bit-exact terminal buffers.
    pub fn run(&self) -> Result<ExploreReport, ExploreError> {
        let state = State {
            pcs: vec![0; self.world.procs.len()],
            bufs: self.world.buffers.clone(),
            mail: BTreeMap::new(),
        };
        let mut search = Search {
            world: &self.world,
            max_states: self.max_states,
            memo: HashMap::new(),
            transitions: 0,
            terminal: None,
        };
        let schedules = search.dfs(state)?;
        Ok(ExploreReport {
            states: search.memo.len(),
            transitions: search.transitions,
            schedules,
            terminal_buffers: search.terminal.expect("terminal state reached"),
        })
    }
}

impl Search<'_> {
    /// The enabled steps of `s`: proc indices whose head op can fire.
    /// Barriers are proposed once, by their lowest-indexed parked member.
    fn enabled(&self, s: &State) -> Vec<usize> {
        let mut out = Vec::new();
        for (p, prog) in self.world.procs.iter().enumerate() {
            let Some(op) = prog.ops.get(s.pcs[p]) else {
                continue;
            };
            match op {
                MOp::Recv { src, tag, .. } => {
                    let flow = (*src, prog.rank, *tag);
                    if s.mail.get(&flow).is_some_and(|q| !q.is_empty()) {
                        out.push(p);
                    }
                }
                MOp::Barrier { id } => {
                    let group = &self.world.barrier_groups[*id];
                    let all_parked = group.iter().all(|&m| {
                        matches!(
                            self.world.procs[m].ops.get(s.pcs[m]),
                            Some(MOp::Barrier { id: mid }) if mid == id
                        )
                    });
                    if all_parked && group.iter().all(|&m| m >= p) {
                        out.push(p);
                    }
                }
                _ => out.push(p),
            }
        }
        out
    }

    /// Executes proc `p`'s head op on a copy of `s`.
    fn step(&self, s: &State, p: usize) -> Result<State, ExploreError> {
        let mut s = s.clone();
        let prog = &self.world.procs[p];
        let op = &prog.ops[s.pcs[p]];
        match op {
            MOp::Send {
                dst,
                tag,
                buf,
                range,
            } => {
                let payload = s.bufs[*buf][range.0..range.1].to_vec();
                s.mail
                    .entry((prog.rank, *dst, *tag))
                    .or_default()
                    .push_back(payload);
            }
            MOp::Recv {
                src,
                tag,
                buf,
                off,
                len,
            } => {
                let q = s
                    .mail
                    .get_mut(&(*src, prog.rank, *tag))
                    .expect("recv only enabled with a queued message");
                let msg = q.pop_front().expect("queue nonempty");
                if msg.len() != *len {
                    return Err(ExploreError::SizeMismatch {
                        proc: p,
                        expected: *len,
                        got: msg.len(),
                    });
                }
                s.bufs[*buf][*off..*off + *len].copy_from_slice(&msg);
            }
            MOp::Barrier { id } => {
                for &m in &self.world.barrier_groups[*id] {
                    if m != p {
                        s.pcs[m] += 1;
                    }
                }
            }
            MOp::Gather {
                src,
                indices,
                dst,
                off,
            } => {
                for (k, &i) in indices.iter().enumerate() {
                    s.bufs[*dst][off + k] = s.bufs[*src][i as usize];
                }
            }
            MOp::Spmv {
                mat,
                x_buf,
                y_buf,
                accumulate,
            } => {
                let mat = mat.view();
                let x: Vec<f64> = s.bufs[*x_buf][..mat.ncols()].to_vec();
                mat.spmv_rows(0..mat.nrows(), &x, &mut s.bufs[*y_buf], *accumulate);
            }
        }
        s.pcs[p] += 1;
        Ok(s)
    }

    /// DFS with sound memoization: returns the schedule count below `s`.
    fn dfs(&mut self, s: State) -> Result<u128, ExploreError> {
        let key = s.key();
        if let Some(&(digest, count)) = self.memo.get(&key) {
            if digest != s.digest() {
                return Err(ExploreError::Nondeterminism { state: digest });
            }
            return Ok(count);
        }
        if self.memo.len() >= self.max_states {
            return Err(ExploreError::StateLimit {
                limit: self.max_states,
            });
        }
        let digest = s.digest();
        // Reserve the slot so re-entrant visits of an in-progress state
        // (impossible in this acyclic transition system, but cheap to
        // guard) do not recurse forever.
        self.memo.insert(key.clone(), (digest, 0));

        let enabled = self.enabled(&s);
        let done = s
            .pcs
            .iter()
            .zip(&self.world.procs)
            .all(|(&pc, prog)| pc == prog.ops.len());
        let count = if done {
            for (&(src, dst, tag), q) in &s.mail {
                if !q.is_empty() {
                    return Err(ExploreError::LostMessage { src, dst, tag });
                }
            }
            match &self.terminal {
                Some(t) => debug_assert_eq!(
                    t.len(),
                    s.bufs.len(),
                    "single terminal state by construction"
                ),
                None => self.terminal = Some(s.bufs.clone()),
            }
            1u128
        } else if enabled.is_empty() {
            let stuck = s
                .pcs
                .iter()
                .zip(&self.world.procs)
                .enumerate()
                .filter(|(_, (&pc, prog))| pc < prog.ops.len())
                .map(|(p, (&pc, prog))| (p, format!("{:?}", prog.ops[pc])))
                .collect();
            return Err(ExploreError::Deadlock { stuck });
        } else {
            let mut total = 0u128;
            for p in enabled {
                self.transitions += 1;
                let next = self.step(&s, p)?;
                total = total.saturating_add(self.dfs(next)?);
            }
            total
        };
        self.memo.insert(key, (digest, count));
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(dst: usize, tag: u32, buf: usize, range: (usize, usize)) -> MOp {
        MOp::Send {
            dst,
            tag,
            buf,
            range,
        }
    }

    fn recv(src: usize, tag: u32, buf: usize, off: usize, len: usize) -> MOp {
        MOp::Recv {
            src,
            tag,
            buf,
            off,
            len,
        }
    }

    #[test]
    fn ping_pong_explores_cleanly() {
        let world = ModelWorld {
            procs: vec![
                Program {
                    rank: 0,
                    ops: vec![send(1, 7, 0, (0, 1)), recv(1, 7, 0, 1, 1)],
                },
                Program {
                    rank: 1,
                    ops: vec![recv(0, 7, 1, 0, 1), send(0, 7, 1, (0, 1))],
                },
            ],
            buffers: vec![vec![3.0, 0.0], vec![0.0]],
            barrier_groups: vec![],
        };
        let report = Explorer::new(world).run().expect("ping-pong completes");
        assert_eq!(report.terminal_buffers[0], vec![3.0, 3.0]);
        assert_eq!(report.schedules, 1, "fully ordered by messages");
    }

    #[test]
    fn head_to_head_recv_deadlocks() {
        let world = ModelWorld {
            procs: vec![
                Program {
                    rank: 0,
                    ops: vec![recv(1, 7, 0, 0, 1), send(1, 7, 0, (0, 1))],
                },
                Program {
                    rank: 1,
                    ops: vec![recv(0, 7, 1, 0, 1), send(0, 7, 1, (0, 1))],
                },
            ],
            buffers: vec![vec![1.0], vec![2.0]],
            barrier_groups: vec![],
        };
        let err = Explorer::new(world).run().expect_err("must deadlock");
        match err {
            ExploreError::Deadlock { stuck } => assert_eq!(stuck.len(), 2),
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn unreceived_message_is_lost() {
        let world = ModelWorld {
            procs: vec![
                Program {
                    rank: 0,
                    ops: vec![send(1, 9, 0, (0, 1))],
                },
                Program {
                    rank: 1,
                    ops: vec![],
                },
            ],
            buffers: vec![vec![1.0]],
            barrier_groups: vec![],
        };
        let err = Explorer::new(world).run().expect_err("message is lost");
        assert_eq!(
            err,
            ExploreError::LostMessage {
                src: 0,
                dst: 1,
                tag: 9
            }
        );
    }

    #[test]
    fn barrier_synchronizes_all_members() {
        // Two procs on one rank: the writer fills buffer 0 before the
        // barrier, the reader copies it after — every interleaving must
        // observe the write.
        let world = ModelWorld {
            procs: vec![
                Program {
                    rank: 0,
                    ops: vec![
                        MOp::Gather {
                            src: 1,
                            indices: Rc::new(vec![0]),
                            dst: 0,
                            off: 0,
                        },
                        MOp::Barrier { id: 0 },
                    ],
                },
                Program {
                    rank: 0,
                    ops: vec![
                        MOp::Barrier { id: 0 },
                        MOp::Gather {
                            src: 0,
                            indices: Rc::new(vec![0]),
                            dst: 2,
                            off: 0,
                        },
                    ],
                },
            ],
            buffers: vec![vec![0.0], vec![5.0], vec![0.0]],
            barrier_groups: vec![vec![0, 1]],
        };
        let report = Explorer::new(world).run().expect("barrier world runs");
        assert_eq!(report.terminal_buffers[2], vec![5.0]);
    }

    #[test]
    fn independent_sends_multiply_schedules() {
        // Two unordered sends into distinct flows plus matching receives:
        // more than one schedule, all converging (checked by the memo
        // digest) on one terminal state.
        let world = ModelWorld {
            procs: vec![
                Program {
                    rank: 0,
                    ops: vec![send(2, 1, 0, (0, 1))],
                },
                Program {
                    rank: 1,
                    ops: vec![send(2, 1, 1, (0, 1))],
                },
                Program {
                    rank: 2,
                    ops: vec![recv(0, 1, 2, 0, 1), recv(1, 1, 2, 1, 1)],
                },
            ],
            buffers: vec![vec![1.0], vec![2.0], vec![0.0, 0.0]],
            barrier_groups: vec![],
        };
        let report = Explorer::new(world).run().expect("runs");
        assert!(report.schedules > 1, "independent steps interleave");
        assert_eq!(report.terminal_buffers[2], vec![1.0, 2.0]);
    }

    #[test]
    fn state_limit_is_enforced() {
        let world = ModelWorld {
            procs: vec![
                Program {
                    rank: 0,
                    ops: vec![send(1, 1, 0, (0, 1)), send(1, 2, 0, (0, 1))],
                },
                Program {
                    rank: 1,
                    ops: vec![recv(0, 1, 0, 0, 1), recv(0, 2, 0, 0, 1)],
                },
            ],
            buffers: vec![vec![1.0]],
            barrier_groups: vec![],
        };
        let err = Explorer::new(world)
            .with_max_states(2)
            .run()
            .expect_err("bound must trip");
        assert_eq!(err, ExploreError::StateLimit { limit: 2 });
    }
}
