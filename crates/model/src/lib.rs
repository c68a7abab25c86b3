//! # spmv-model
//!
//! The paper's analytic node-level performance model (§1.2 and §2):
//!
//! * [`balance`] — the CRS code balance, Eq. (1): `B_CRS = 6 + 12/N_nzr +
//!   κ/2` bytes/flop, its split-kernel variant Eq. (2), the balance of
//!   value-coded CRS (4 bytes/flop less), predicted performance
//!   `bandwidth / balance`, and experimental κ extraction;
//! * [`kappa`] — a cache model (fully associative LRU over cache lines,
//!   simulated on the matrix's actual column access stream) that *derives*
//!   the RHS-reload parameter κ from the sparsity structure and cache
//!   capacity, rather than assuming it;
//! * [`roofline`] — the saturation roofline combining the in-core ceiling
//!   with the bandwidth ceiling, giving the Fig. 3 performance-vs-cores
//!   curves;
//! * [`comm`] — a hierarchical (intra-/inter-node) latency–bandwidth model
//!   of the halo exchange, pricing the flat vs. node-aware strategies and
//!   their crossover.

pub mod balance;
pub mod comm;
pub mod kappa;
pub mod roofline;

pub use balance::{
    code_balance_coded, code_balance_crs, code_balance_sell, code_balance_split,
    kappa_from_measurement, kappa_over_balance, predicted_gflops,
};
pub use comm::{CommLevels, RankTraffic};
pub use kappa::{estimate_kappa, KappaEstimate};
