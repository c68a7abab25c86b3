//! # spmvbench
//!
//! The repository's benchmark of the hybrid SpMV library: per-SpMV,
//! solve and setup time on named workloads, with a per-layer ladder from a
//! separate traced run. It drives the library only through public calls
//! and checks every result against a serial reference. See `README.md`.

pub mod harness;
pub mod host;
pub mod layers;
pub mod report;
pub mod run;
pub mod stats;
pub mod workloads;

pub use report::{Report, Value};
pub use run::{run, Args, END_TO_END};
pub use workloads::{Size, Workload, NAMES};
