//! The named workloads: matrix, layout and how a run splits its time.

use spmv_bench::Scale;
use spmv_core::KernelMode;
use spmv_matrix::samg::{poisson, SamgParams};
use spmv_matrix::CsrMatrix;

/// Input size: the real workloads, or seconds-fast stand-ins for the smoke
/// tests (same layouts and code paths, test-scale matrices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The matrix a workload multiplies.
#[derive(Debug, Clone, Copy)]
pub enum Problem {
    /// The Holstein–Hubbard Hamiltonian, electron-contiguous (HMeP).
    Hmep(Scale),
    /// The sAMG car-geometry Poisson matrix.
    Samg(SamgParams),
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub problem: Problem,
    /// MPI ranks (threads of this process).
    pub ranks: usize,
    /// Compute threads per rank.
    pub threads: usize,
    /// Kernel mode of the timed SpMVs and solves.
    pub mode: KernelMode,
    /// The solve is `(A + σI) x = b` with σ from the Gershgorin bounds, so
    /// CG converges on an indefinite Hamiltonian.
    pub shifted: bool,
    /// Share of `--seconds` spent in CG solves (the rest times SpMVs).
    pub solve_share: f64,
    /// Engine constructions per run. Each is timed for `setup_s` (the
    /// median) and then measured on for its share of the run, so one
    /// unlucky thread placement weighs only that share.
    pub rounds: usize,
}

/// Every workload name, in the order the benchmark lists them.
pub const NAMES: [&str; 3] = ["hmep-spmv", "hmep-small-hybrid", "samg-cg"];

/// CG stopping tolerance (relative residual).
pub const CG_TOL: f64 = 1e-8;
/// CG iteration cap; reaching it counts as a failed solve.
pub const CG_MAX_ITER: usize = 5000;
/// Position of the shifted spectrum's lower Gershgorin bound, as a share
/// of the bound interval above zero (condition number ≤ 1/0.05 + 1).
pub const SHIFT_FRAC: f64 = 0.05;

impl Workload {
    /// The workload called `name`, or `None`.
    pub fn named(name: &str, size: Size) -> Option<Workload> {
        let tiny = size == Size::Tiny;
        let w = match name {
            "hmep-spmv" => Workload {
                name: "hmep-spmv",
                problem: Problem::Hmep(if tiny { Scale::Test } else { Scale::Medium }),
                ranks: 2,
                threads: 1,
                mode: KernelMode::VectorNoOverlap,
                shifted: true,
                solve_share: 0.3,
                rounds: 7,
            },
            "hmep-small-hybrid" => Workload {
                name: "hmep-small-hybrid",
                problem: Problem::Hmep(Scale::Test),
                ranks: 1,
                threads: 2,
                mode: KernelMode::VectorNoOverlap,
                shifted: true,
                solve_share: 0.3,
                rounds: 21,
            },
            "samg-cg" => Workload {
                name: "samg-cg",
                problem: Problem::Samg(if tiny {
                    SamgParams::test_scale()
                } else {
                    SamgParams::medium_scale()
                }),
                ranks: 2,
                threads: 1,
                mode: KernelMode::VectorNoOverlap,
                shifted: false,
                solve_share: 0.75,
                rounds: 7,
            },
            _ => return None,
        };
        Some(w)
    }

    /// Builds the workload's matrix (fixed parameters; no seed).
    pub fn matrix(&self) -> CsrMatrix {
        match self.problem {
            Problem::Hmep(scale) => spmv_bench::hmep(scale),
            Problem::Samg(p) => poisson(&p),
        }
    }

    /// Threads the layout runs: ranks × compute threads.
    pub fn threads_total(&self) -> usize {
        self.ranks * self.threads
    }

    /// `ranks`r×`threads`t.
    pub fn layout(&self) -> String {
        format!("{}r×{}t", self.ranks, self.threads)
    }
}
