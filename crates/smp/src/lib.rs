//! # spmv-smp
//!
//! OpenMP-like shared-memory substrate. The paper's kernels are written
//! against OpenMP; Rust has no OpenMP, so this crate provides the features
//! the paper actually uses:
//!
//! * [`team::ThreadTeam`] — a persistent thread team executing "parallel
//!   regions" (closures), like an OpenMP team that persists across
//!   `#pragma omp parallel` regions: the calling thread is thread 0, and
//!   idle workers spin briefly, then park, until the next region;
//! * [`team::TeamCtx::barrier`] — an `omp barrier` equivalent (a spin
//!   barrier that counts generations);
//! * [`workshare`] — static loop scheduling *and* the explicit
//!   nonzero-balanced chunking the paper needs for task mode, where "the
//!   standard OpenMP loop worksharing directive cannot be used, since there
//!   is no concept of 'subteams' in the current OpenMP standard" (§3.2) —
//!   work distribution is implemented explicitly, one contiguous chunk of
//!   nonzeros per compute thread;
//! * [`stream`] — the STREAM kernels used as the practical bandwidth limit
//!   in the node-level analysis (Fig. 3).

pub mod stream;
pub mod team;
pub mod workshare;

pub use team::{TeamCtx, ThreadTeam};
