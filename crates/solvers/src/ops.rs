//! Global reductions over distributed vectors, and the collective
//! checkpoint/rollback protocol the solvers build on them.

use spmv_comm::collectives::ReduceOp;
use spmv_comm::Comm;
use spmv_matrix::vecops;

/// Global vector reductions. For distributed vectors, `a` and `b` are the
/// local parts; the implementations reduce across ranks.
pub trait GlobalOps {
    /// Global dot product `aᵀ b`.
    fn dot(&self, a: &[f64], b: &[f64]) -> f64;

    /// Global Euclidean norm.
    fn norm2(&self, a: &[f64]) -> f64 {
        self.dot(a, a).sqrt()
    }

    /// Global maximum of a local scalar.
    fn max(&self, x: f64) -> f64;

    /// Global sum of a local scalar.
    fn sum(&self, x: f64) -> f64;
}

/// Serial (single address space) reductions.
pub struct SerialOps;

impl GlobalOps for SerialOps {
    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        vecops::dot(a, b)
    }

    fn max(&self, x: f64) -> f64 {
        x
    }

    fn sum(&self, x: f64) -> f64 {
        x
    }
}

/// Distributed reductions via allreduce; every rank must call every method
/// collectively (standard SPMD contract).
pub struct DistOps<'a> {
    /// The communicator to reduce over.
    pub comm: &'a Comm,
}

impl GlobalOps for DistOps<'_> {
    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        self.comm.allreduce_scalar(vecops::dot(a, b), ReduceOp::Sum)
    }

    fn max(&self, x: f64) -> f64 {
        self.comm.allreduce_scalar(x, ReduceOp::Max)
    }

    fn sum(&self, x: f64) -> f64 {
        self.comm.allreduce_scalar(x, ReduceOp::Sum)
    }
}

/// Periodic snapshots of a solver's recurrence state `S` with collective
/// rollback: the checkpoint/restart half of the CG and Lanczos loops.
pub(crate) struct Checkpoints<'a, S> {
    every: usize,
    failed: &'a mut dyn FnMut() -> bool,
    saved: S,
    /// Rollbacks performed so far.
    pub(crate) rollbacks: usize,
}

impl<'a, S: Clone> Checkpoints<'a, S> {
    /// Snapshots every `every` steps, starting from `state`; `failed` is
    /// the local health probe (true = this rank saw a fault since the last
    /// poll).
    pub(crate) fn new(every: usize, failed: &'a mut dyn FnMut() -> bool, state: &S) -> Self {
        assert!(every >= 1, "checkpoint period must be at least 1");
        Self {
            every,
            failed,
            saved: state.clone(),
            rollbacks: 0,
        }
    }

    /// Polls the probe and agrees on the verdict by a max-reduction, so all
    /// ranks roll back together. On a fault anywhere, restores `state` from
    /// the last snapshot and returns `true`.
    pub(crate) fn rolled_back<G: GlobalOps>(&mut self, ops: &G, state: &mut S) -> bool {
        let fault = ops.max(if (self.failed)() { 1.0 } else { 0.0 }) > 0.0;
        if fault {
            state.clone_from(&self.saved);
            self.rollbacks += 1;
        }
        fault
    }

    /// Snapshots `state` if `step` completes a period.
    pub(crate) fn save_at(&mut self, step: usize, state: &S) {
        if step.is_multiple_of(self.every) {
            self.saved.clone_from(state);
        }
    }
}

/// A failure probe that reports one fault, at the `k`-th poll.
#[cfg(test)]
pub(crate) fn fail_at(k: usize) -> impl FnMut() -> bool {
    let mut polls = 0usize;
    move || {
        polls += 1;
        polls == k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_comm::CommWorld;

    #[test]
    fn serial_ops_match_vecops() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(SerialOps.dot(&a, &b), 32.0);
        assert_eq!(SerialOps.norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(SerialOps.max(7.0), 7.0);
        assert_eq!(SerialOps.sum(7.0), 7.0);
    }

    #[test]
    fn dist_ops_reduce_across_ranks() {
        let comms = CommWorld::create(3);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    let ops = DistOps { comm: &c };
                    // each rank holds one element of a = [1,2,3], b = [1,1,1]
                    let a = [(c.rank() + 1) as f64];
                    let b = [1.0];
                    let d = ops.dot(&a, &b);
                    let m = ops.max(a[0]);
                    let s = ops.sum(a[0]);
                    let n = ops.norm2(&a);
                    (d, m, s, n)
                })
            })
            .collect();
        for h in handles {
            let (d, m, s, n) = h.join().unwrap();
            assert_eq!(d, 6.0);
            assert_eq!(m, 3.0);
            assert_eq!(s, 6.0);
            assert!((n - 14.0f64.sqrt()).abs() < 1e-14);
        }
    }
}
