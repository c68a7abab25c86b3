//! # spmv-comm
//!
//! An in-process message-passing substrate with MPI semantics. Ranks are OS
//! threads inside one process; each holds a [`Comm`] handle. The substrate
//! provides what the paper's kernels need from MPI:
//!
//! * nonblocking point-to-point ([`Comm::isend`] / [`Comm::irecv`] /
//!   [`Comm::waitall`]) with per-`(source, tag)` FIFO matching,
//! * blocking send/recv,
//! * the collectives used for bookkeeping (barrier, allreduce, allgather,
//!   all-to-all),
//! * per-world traffic statistics (message and byte counters, used by the
//!   message-aggregation analysis).
//!
//! ## Progress semantics
//!
//! Real MPI libraries "support progress, i.e. actual data transfer, only
//! when MPI library code is executed by the user process" (paper §3). This
//! substrate mirrors that structure faithfully: `isend` deposits the message
//! in a shared mailbox, and the bytes are copied into the receive buffer
//! only when the *receiver* executes a communication call (`wait*` /
//! `recv`). Nothing moves "in the background" — exactly like a standard MPI
//! without an asynchronous progress thread. Explicit overlap therefore
//! requires a thread that sits inside communication calls, which is
//! precisely the paper's task mode. (Quantitative timing of both progress
//! models lives in `spmv-sim`.)
//!
//! Functional correctness is independent of timing, so this substrate is
//! used by the functional execution engine and by the solvers; the
//! discrete-event simulator reuses the same communication plans to model
//! time.

//! ## Fault injection and resilience
//!
//! [`CommWorld::builder`] can attach a seeded [`FaultPlan`] (deterministic
//! chaos: delay / reorder / duplicate / drop-with-retransmit / truncate /
//! stall / kill) and a stall watchdog that converts a world-wide hang into
//! a typed [`CommError::Poisoned`] carrying a per-rank pending-request
//! dump; the watchdog is the only bound on a hang. Each point-to-point
//! operation exists once and returns `Result<_, CommError>` where it can
//! fail; `barrier` and the collectives panic with the error text instead
//! (see [`collectives`]). DESIGN.md §8 describes the fault model.

// library code states its invariants with `expect`, never a bare unwrap
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod collectives;
pub mod error;
pub mod fault;
pub mod pod;
pub mod stats;
pub mod world;

pub use error::{CommError, PendingKind, PendingOp, StallReport};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultStats};
pub use pod::Pod;
pub use stats::{CommStats, WorldStats};
pub use world::{Comm, CommWorld, Request, Tag, WorldBuilder};
