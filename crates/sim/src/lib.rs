//! # spmv-sim
//!
//! A fluid-flow discrete-event simulator that *prices* one distributed SpMV
//! on a modeled cluster, reproducing the strong-scaling figures of the
//! paper (Figs. 5 and 6) without the paper's hardware.
//!
//! ## What is real and what is modeled
//!
//! Real: the matrix, the nonzero-balanced partition, the communication plan
//! (per-peer message sizes), and the per-rank compute volumes — all taken
//! from `spmv-core::workload::analyze` on the actual matrix. Modeled: time.
//! Compute phases drain bytes against the locality domain's measured
//! bandwidth saturation curve (`spmv-machine`); messages drain bytes
//! against injection/ejection/link capacities of the network model.
//!
//! ## The progress rule — the paper's crux
//!
//! Standard MPI "support\[s\] progress, i.e. actual data transfer, only when
//! MPI library code is executed by the user process" (§3). The simulator
//! encodes exactly that ([`progress::ProgressModel::InsideCallsOnly`]):
//!
//! * a *rendezvous* message (large) flows only while **both** endpoint
//!   ranks are inside a communication call;
//! * an *eager* message (small) is buffered at the sender and flows while
//!   the **receiver** is inside a communication call.
//!
//! Under this rule the three kernels behave exactly as the paper observes:
//! naive overlap cannot hide communication (nobody is inside MPI during
//! the local SpMV), while task mode's dedicated communication thread sits
//! in `Waitall` throughout the compute phase, giving genuine overlap.
//! [`progress::ProgressModel::Async`] models a hypothetical library with
//! true asynchronous progress (the paper's outlook, §5) as an ablation.
//!
//! Every simulated SpMV records its timeline in [`SimResult::trace`], an
//! `spmv_obs::RunTrace` — the type a traced engine run produces — so the
//! overlap metric and the exporters treat simulated and measured runs
//! alike.

pub mod fluid;
pub mod program;
pub mod progress;
pub mod scaling;

pub use fluid::{simulate_spmv, SimResult};
pub use program::SimConfig;
pub use progress::ProgressModel;
pub use scaling::{simulate_job, strong_scaling, ScalingSeries};
