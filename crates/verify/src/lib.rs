//! Static verification for the hybrid SpMV workspace.
//!
//! Two pillars, both dependency-free and deterministic:
//!
//! 1. **Comm-plan verification** — re-exported from `spmv-core`'s
//!    [`verify`](spmv_core::verify) module (it lives there so
//!    `RankEngine` can run it at construction): given every rank's plan,
//!    prove the global message graph — each rank's exchange op list
//!    ([`spmv_core::ExchangeSchedule`]), the one the engine runs — is
//!    matched, uniquely tagged, owned, acyclic, and deadlock-free, or
//!    return typed [`PlanViolation`]s.
//! 2. **Interleaving exploration** — [`explore`] is a loom-style
//!    model checker over the engine's yield points; [`script`] lowers
//!    the same schedule the engine interprets ([`spmv_core::KernelMode::lanes`],
//!    with each rank's exchange op list) to model programs over *real*
//!    plans for all three kernel modes and both exchange strategies, so
//!    exhaustive search proves deadlock-freedom and bit-identical results
//!    across every interleaving on small worlds.
//!
//! Source-level rules that an earlier line scanner enforced are now
//! compiler and clippy checks: unsafe blocks and impls need a `SAFETY:`
//! comment (`clippy::undocumented_unsafe_blocks`, workspace-wide),
//! `spmv-comm` and `spmv-core` library code may not `unwrap`
//! (`clippy::unwrap_used`), and phase labels cannot drift between the
//! engine, the simulator and the traces because all three use
//! `spmv_obs::Phase` through the shared step lists.

pub mod explore;
pub mod script;

pub use explore::{ExploreError, ExploreReport, Explorer, MOp, ModelWorld, Program};
pub use script::{assemble_y, build_world};
pub use spmv_core::verify::{verify_distributed, verify_plans, PlanSummary, PlanViolation};
