//! # hybrid-spmv
//!
//! A Rust reproduction of *"Parallel sparse matrix-vector multiplication as
//! a test case for hybrid MPI+OpenMP programming"* (Schubert, Hager,
//! Fehske, Wellein; IPPS 2011, arXiv:1101.0091) — the complete system: the
//! three kernel modes (vector mode with and without overlap, task mode with
//! a dedicated communication thread), the substrates they need (an
//! MPI-like message-passing layer, an OpenMP-like thread-team layer), the
//! application matrices (Holstein–Hubbard Hamiltonians, sAMG-style Poisson
//! systems), the node-level performance model, and a timing simulator that
//! regenerates every figure of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use hybrid_spmv::prelude::*;
//!
//! // A small Holstein–Hubbard Hamiltonian (the paper's HMeP structure).
//! let params = HolsteinParams::test_scale(HolsteinOrdering::ElectronContiguous);
//! let h = holstein::hamiltonian(&params);
//!
//! // Distributed SpMV with 4 MPI-like ranks, 2 compute threads each, and a
//! // dedicated communication thread — the paper's task mode.
//! let x = vecops::random_vec(h.nrows(), 42);
//! let y = distributed_spmv(&h, &x, 4, EngineConfig::task_mode(2), KernelMode::TaskMode);
//!
//! // Same result as the serial kernel.
//! let mut y_ref = vec![0.0; h.nrows()];
//! h.spmv(&x, &mut y_ref);
//! assert!(vecops::max_abs_diff(&y, &y_ref) < 1e-11);
//! ```
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`matrix`] | `spmv-matrix` | CRS storage, generators, RCM, stats, I/O |
//! | [`smp`] | `spmv-smp` | thread teams, barriers, worksharing, STREAM |
//! | [`comm`] | `spmv-comm` | MPI-like ranks, nonblocking p2p, collectives |
//! | [`machine`] | `spmv-machine` | node/cluster models (Westmere, Magny Cours, …) |
//! | [`model`] | `spmv-model` | code balance (Eq. 1/2), κ estimation, roofline |
//! | [`core`] | `spmv-core` | partitioning, halo plans, the three kernel modes |
//! | [`obs`] | `spmv-obs` | the one run timeline (measured or simulated): phase spans, overlap metrics, chrome-trace and text export |
//! | [`sim`] | `spmv-sim` | fluid-flow timing simulator (Figs. 4–6), recording its timeline as a `RunTrace` |
//! | [`solvers`] | `spmv-solvers` | Lanczos and CG (with checkpoint/restart) |
//! | [`verify`] | `spmv-verify` | comm-plan verification, interleaving exploration |

pub use spmv_comm as comm;
pub use spmv_core as core;
pub use spmv_machine as machine;
pub use spmv_matrix as matrix;
pub use spmv_model as model;
pub use spmv_obs as obs;
pub use spmv_sim as sim;
pub use spmv_smp as smp;
pub use spmv_solvers as solvers;
pub use spmv_verify as verify;

/// The names almost every user of the library wants in scope.
pub mod prelude {
    pub use spmv_comm::{Comm, CommWorld};
    pub use spmv_core::engine::{CommStrategy, EngineConfig};
    pub use spmv_core::runner::{distributed_spmv, run_spmd};
    pub use spmv_core::{prepare_kernel, KernelKind, KernelMode, RankEngine, RowPartition};
    pub use spmv_machine::presets;
    pub use spmv_machine::{CommThreadPlacement, HybridLayout};
    pub use spmv_matrix::holstein::{self, HolsteinOrdering, HolsteinParams, PhononTruncation};
    pub use spmv_matrix::samg::{self, SamgParams};
    pub use spmv_matrix::{synthetic, vecops, CsrMatrix, SellMatrix};
    pub use spmv_model::{code_balance_crs, code_balance_sell, code_balance_split, estimate_kappa};
    pub use spmv_obs::{
        chrome_trace_json, text_timeline, ModelDrift, Phase, RunTrace, TraceMetrics, TraceSink,
    };
    pub use spmv_sim::{simulate_job, strong_scaling, ProgressModel, SimConfig};
    pub use spmv_solvers::{
        cg_solve, lanczos, DistOp, DistOps, GlobalOps, LinOp, SerialOp, SerialOps,
    };
}
