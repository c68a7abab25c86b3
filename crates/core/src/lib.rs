//! # spmv-core
//!
//! The paper's primary contribution, as a library: distributed-memory
//! parallel sparse matrix-vector multiplication with three parallelization
//! schemes over the `spmv-comm` message-passing substrate and the
//! `spmv-smp` thread-team substrate.
//!
//! The pipeline (§3.1 of the paper):
//!
//! 1. [`partition::RowPartition`] — distribute matrix rows (and with them
//!    the RHS and result vectors) across MPI ranks, balancing the *nonzeros*
//!    rather than the rows (footnote 2).
//! 2. [`plan::RankPlan`] — the communication bookkeeping: which RHS
//!    elements must come from which rank, and which of ours we must send.
//!    "The resulting communication pattern depends only on the sparsity
//!    structure, so the necessary bookkeeping needs to be done only once."
//! 3. [`split::SplitMatrix`] — the rank-local matrix, stored once with its
//!    columns in `[local | halo]` space and each row in the caller's order
//!    (a sorted row is `[halo left | local | halo right]`, its local
//!    entries the middle segment), and viewed whole (for the non-overlapping kernel) or as its *local*
//!    and *non-local* parts (for the overlapping kernels, at the cost of
//!    writing the result twice — Eq. 2); the halo entries alone also get a
//!    compact copy.
//! 4. [`engine::RankEngine`] — executes one SpMV in any [`modes::KernelMode`]:
//!    * **vector mode, no overlap** (Fig. 4a),
//!    * **vector mode, naive overlap** via nonblocking calls (Fig. 4b),
//!    * **task mode, explicit overlap** via a dedicated communication
//!      thread (Fig. 4c).
//!
//!    Each schedule is written once, as the step lists of
//!    [`KernelMode::lanes`]; the engine interprets them, and runs each
//!    rank's halo exchange as the op list of its [`ExchangeSchedule`]
//!    (post receives, send, finish) for both routing strategies.
//! 5. [`runner`] — spawns one OS thread per MPI rank and drives whole jobs
//!    (the harness tests and examples use this).
//! 6. [`workload::RankWorkload`] — the per-rank compute/communication
//!    volumes the discrete-event simulator prices.

// library code states its invariants with `expect`, never a bare unwrap
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod engine;
pub mod exchange;
pub mod gather;
pub mod kernels;
pub mod modes;
pub mod partition;
pub mod plan;
pub mod runner;
pub mod split;
pub mod verify;
pub mod workload;

pub use engine::{EngineConfig, RankEngine};
pub use exchange::{CommStrategy, ExchangeOp, ExchangeSchedule, TAG_HALO};
pub use gather::{GatherProgram, GatherRun};
pub use kernels::{prepare_kernel, Kernel, KernelKind};
pub use modes::{Barrier, KernelMode, Part, Step};
pub use partition::RowPartition;
pub use plan::RankPlan;
pub use runner::{distributed_spmv, run_spmd, run_spmd_on_world, run_spmd_with_partition};
pub use split::{BlockPart, SplitMatrix};
pub use verify::{verify_distributed, verify_plans, PlanSummary, PlanViolation};
pub use workload::RankWorkload;
