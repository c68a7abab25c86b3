//! # spmv-matrix
//!
//! Sparse matrix substrate for the hybrid-SpMV reproduction of
//! *"Parallel sparse matrix-vector multiplication as a test case for hybrid
//! MPI+OpenMP programming"* (Schubert, Hager, Fehske, Wellein; IPPS 2011).
//!
//! The crate provides
//!
//! * [`CsrMatrix`] — "Compressed Row Storage" (CRS, a.k.a. CSR), the format
//!   the paper bases its entire analysis on: one contiguous value array, a
//!   32-bit column-index array and a row-pointer array. The byte widths
//!   (8-byte values, 4-byte column indices) match the code-balance model of
//!   the paper's Eq. (1).
//! * Application matrix generators:
//!   [`holstein`] builds genuine Holstein–Hubbard Hamiltonians in second
//!   quantization (the paper's HMEp/HMeP matrices), and [`samg`] builds
//!   Poisson matrices on irregular masked 3-D geometries (the paper's sAMG
//!   car-geometry matrix).
//! * [`rcm`] — Reverse Cuthill–McKee reordering (the ablation the paper
//!   reports as giving no advantage over HMeP).
//! * [`stats`] — sparsity-pattern statistics, including the aggregated
//!   block-occupancy maps of the paper's Fig. 1.
//! * [`io`] — Matrix Market exchange format reader/writer.
//! * [`vecops`] — the dense-vector kernels iterative solvers are built from.
//!
//! All generators are deterministic: the same parameters always produce the
//! same matrix, so experiments are exactly reproducible.

pub mod coo;
pub mod csr;
pub mod holstein;
pub mod io;
pub mod perm;
pub mod rcm;
pub mod rng;
pub mod samg;
pub mod sell;
pub mod stats;
pub mod synthetic;
pub mod vecops;

pub use coo::CooMatrix;
pub use csr::{CsrBuilder, CsrMatrix, CsrView, ValueCoder};
pub use perm::Permutation;
pub use sell::SellMatrix;

/// Errors produced while constructing or validating sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// `row_ptr` does not have length `nrows + 1`.
    RowPtrLength { expected: usize, got: usize },
    /// `row_ptr` is not monotonically non-decreasing at the given row.
    RowPtrNotMonotonic { row: usize },
    /// `row_ptr[nrows]` disagrees with the value/index array lengths.
    NnzMismatch {
        row_ptr_end: usize,
        values: usize,
        col_idx: usize,
    },
    /// A column index is out of range.
    ColumnOutOfRange { row: usize, col: u32, ncols: usize },
    /// Column indices inside a row are not strictly increasing.
    UnsortedRow { row: usize },
    /// A matrix dimension overflowed the 32-bit column index space.
    DimensionTooLarge { ncols: usize },
    /// Input file / stream could not be parsed (Matrix Market).
    Parse(String),
    /// A text input failed to parse at a specific line (1-based), so the
    /// user can jump straight to the offending record.
    ParseAt { line: usize, msg: String },
    /// A permutation vector is not a bijection on `0..n`.
    InvalidPermutation { n: usize, detail: &'static str },
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixError::RowPtrLength { expected, got } => {
                write!(f, "row_ptr length {got}, expected {expected}")
            }
            MatrixError::RowPtrNotMonotonic { row } => {
                write!(f, "row_ptr decreases at row {row}")
            }
            MatrixError::NnzMismatch { row_ptr_end, values, col_idx } => write!(
                f,
                "nnz mismatch: row_ptr ends at {row_ptr_end}, values has {values}, col_idx has {col_idx}"
            ),
            MatrixError::ColumnOutOfRange { row, col, ncols } => {
                write!(f, "column {col} out of range (ncols = {ncols}) in row {row}")
            }
            MatrixError::UnsortedRow { row } => {
                write!(f, "column indices not strictly increasing in row {row}")
            }
            MatrixError::DimensionTooLarge { ncols } => {
                write!(f, "ncols = {ncols} exceeds 32-bit column index space")
            }
            MatrixError::Parse(msg) => write!(f, "parse error: {msg}"),
            MatrixError::ParseAt { line, msg } => {
                write!(f, "parse error at line {line}: {msg}")
            }
            MatrixError::InvalidPermutation { n, detail } => {
                write!(f, "invalid permutation of length {n}: {detail}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MatrixError>;
