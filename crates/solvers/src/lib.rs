//! # spmv-solvers
//!
//! The applications that motivate the paper: "Iterative algorithms such as
//! Lanczos or Jacobi-Davidson are used to compute low-lying eigenstates of
//! the Hamilton matrices, and more recent methods based on polynomial
//! expansion allow for computation of spectral properties or time evolution
//! of quantum states. In all those algorithms, sparse MVM is the most
//! time-consuming step." (§1.2)
//!
//! Every solver is written SPMD-style against two small traits:
//!
//! * [`operator::LinOp`] — applies the (locally owned part of the) matrix;
//!   implemented by a serial CSR wrapper and by the distributed
//!   [`spmv_core::RankEngine`] in any kernel mode;
//! * [`ops::GlobalOps`] — global reductions (dot products, norms);
//!   implemented serially and via `spmv-comm` allreduce.
//!
//! The same solver source therefore runs single-node or distributed —
//! exactly how production iterative codes are structured.
//!
//! Provided solvers: conjugate gradients ([`cg`]), symmetric Lanczos with
//! a Sturm-bisection tridiagonal eigensolver ([`lanczos()`], [`tridiag`]),
//! the kernel polynomial method with Jackson damping ([`kpm`]), Chebyshev
//! time evolution ([`chebyshev`]), and power iteration ([`power`]). CG and
//! Lanczos each have one loop; their `*_checkpointed` entry points add
//! periodic snapshots and collective rollback on failure.

pub mod cg;
pub mod chebyshev;
pub mod kpm;
pub mod lanczos;
pub mod operator;
pub mod ops;
pub mod power;
pub mod status;
pub mod tridiag;

pub use cg::{cg_solve, cg_solve_checkpointed, CgResult};
pub use chebyshev::{bessel_jn, evolve, ChebyshevOptions, ComplexVec};
pub use kpm::{kpm_dos, KpmResult};
pub use lanczos::{lanczos, lanczos_checkpointed, LanczosResult};
pub use operator::{DistOp, LinOp, SerialOp};
pub use ops::{DistOps, GlobalOps, SerialOps};
pub use power::{power_iteration, PowerResult};
pub use status::SolveStatus;
