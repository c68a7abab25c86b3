//! Collective operations, built on the point-to-point layer with reserved
//! tags. All ranks of a world must call each collective in the same order
//! (the usual MPI contract); per-pair FIFO matching then guarantees that
//! consecutive collectives cannot interleave.
//!
//! # Fault rule
//!
//! Collectives (and [`Comm::barrier`]) do not return a `Result`: on a
//! fault — a dead peer or a poisoned world — they panic with the
//! [`CommError`] text (`peer dead: …` / `world poisoned
//! …`). Their callers are setup code and solver reductions, which have no
//! recovery path; the point-to-point API is where typed errors live.

use crate::error::CommError;
use crate::pod::Pod;
use crate::world::{Comm, Tag};

const TAG_REDUCE: Tag = crate::world::RESERVED_TAG_BASE;
const TAG_BCAST: Tag = crate::world::RESERVED_TAG_BASE + 1;
const TAG_A2A: Tag = crate::world::RESERVED_TAG_BASE + 3;
const TAG_AGATHER: Tag = crate::world::RESERVED_TAG_BASE + 4;

/// Applies the fault rule: a failed step of a collective or `barrier`
/// panics with the error text.
pub(crate) fn or_panic<T>(result: Result<T, CommError>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

/// Reduction operators for [`Comm::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    fn apply(&self, acc: &mut [f64], x: &[f64]) {
        assert_eq!(acc.len(), x.len());
        for (a, &b) in acc.iter_mut().zip(x) {
            *a = match self {
                ReduceOp::Sum => *a + b,
                ReduceOp::Min => a.min(b),
                ReduceOp::Max => a.max(b),
            };
        }
    }
}

impl Comm {
    /// Broadcast `buf` from `root` to every rank. On non-root ranks the
    /// buffer is resized and overwritten.
    pub fn bcast<T: Pod>(&self, root: usize, buf: &mut Vec<T>) {
        if self.size() == 1 {
            return;
        }
        if self.rank() == root {
            for dst in 0..self.size() {
                if dst != root {
                    or_panic(self.send_owned(dst, TAG_BCAST, buf.as_slice()));
                }
            }
        } else {
            *buf = or_panic(self.recv_owned(root, TAG_BCAST));
        }
    }

    /// Elementwise allreduce over `f64` buffers of equal length on all
    /// ranks; the result replaces `buf` everywhere.
    ///
    /// # Reduction-order guarantee
    ///
    /// Floating-point reduction is not associative, so the combination
    /// order is part of the contract: rank 0 folds the contributions in
    /// **ascending source-rank order** — `((x₀ op x₁) op x₂) op …` — and
    /// broadcasts the single result. Every rank therefore observes the
    /// *same bit pattern*, and repeated runs reproduce it exactly,
    /// regardless of message arrival timing (the per-pair FIFO matching
    /// pins which buffer each `recv` sees). This is stricter than MPI,
    /// which only requires a deterministic order per (implementation,
    /// rank count), not a canonical one.
    pub fn allreduce(&self, buf: &mut Vec<f64>, op: ReduceOp) {
        if self.size() == 1 {
            return;
        }
        const ROOT: usize = 0;
        if self.rank() == ROOT {
            let mut acc = std::mem::take(buf);
            for src in 1..self.size() {
                let contrib: Vec<f64> = or_panic(self.recv_owned(src, TAG_REDUCE));
                op.apply(&mut acc, &contrib);
            }
            *buf = acc;
        } else {
            or_panic(self.send_owned(ROOT, TAG_REDUCE, buf.as_slice()));
        }
        self.bcast(ROOT, buf);
    }

    /// Scalar allreduce convenience wrapper.
    pub fn allreduce_scalar(&self, x: f64, op: ReduceOp) -> f64 {
        let mut v = vec![x];
        self.allreduce(&mut v, op);
        v[0]
    }

    /// All ranks receive every rank's (variable-length) contribution,
    /// indexed by source rank.
    pub fn allgatherv<T: Pod>(&self, data: &[T]) -> Vec<Vec<T>> {
        let me = self.rank();
        for dst in 0..self.size() {
            if dst != me {
                or_panic(self.send_owned(dst, TAG_AGATHER, data));
            }
        }
        (0..self.size())
            .map(|src| {
                if src == me {
                    data.to_vec()
                } else {
                    or_panic(self.recv_owned(src, TAG_AGATHER))
                }
            })
            .collect()
    }

    /// Personalized all-to-all with variable lengths: `outgoing[d]` goes to
    /// rank `d`; the return value's entry `s` came from rank `s`. This is
    /// the bookkeeping primitive the communication-plan construction uses
    /// ("the necessary bookkeeping needs to be done only once", §3.1).
    pub fn alltoallv<T: Pod>(&self, outgoing: &[Vec<T>]) -> Vec<Vec<T>> {
        assert_eq!(
            outgoing.len(),
            self.size(),
            "need one outgoing buffer per rank"
        );
        let me = self.rank();
        for (dst, data) in outgoing.iter().enumerate() {
            if dst != me {
                or_panic(self.send_owned(dst, TAG_A2A, data.as_slice()));
            }
        }
        (0..self.size())
            .map(|src| {
                if src == me {
                    outgoing[me].clone()
                } else {
                    or_panic(self.recv_owned(src, TAG_A2A))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::world::CommWorld;
    use std::time::Duration;

    fn spawn_world<F>(size: usize, f: F)
    where
        F: Fn(Comm) + Send + Sync + Copy + 'static,
    {
        let comms = CommWorld::create(size);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| std::thread::spawn(move || f(c)))
            .collect();
        for h in handles {
            h.join().expect("rank thread panicked");
        }
    }

    #[test]
    fn bcast_distributes_root_data() {
        spawn_world(4, |c| {
            let mut buf = if c.rank() == 2 {
                vec![1.5f64, 2.5]
            } else {
                vec![]
            };
            c.bcast(2, &mut buf);
            assert_eq!(buf, vec![1.5, 2.5]);
        });
    }

    #[test]
    fn allreduce_sum_min_max() {
        spawn_world(5, |c| {
            let x = c.rank() as f64 + 1.0; // 1..=5
            assert_eq!(c.allreduce_scalar(x, ReduceOp::Sum), 15.0);
            assert_eq!(c.allreduce_scalar(x, ReduceOp::Min), 1.0);
            assert_eq!(c.allreduce_scalar(x, ReduceOp::Max), 5.0);
        });
    }

    #[test]
    fn allreduce_vector_elementwise() {
        spawn_world(3, |c| {
            let mut v = vec![c.rank() as f64, 10.0 * c.rank() as f64];
            c.allreduce(&mut v, ReduceOp::Sum);
            assert_eq!(v, vec![3.0, 30.0]);
        });
    }

    #[test]
    fn allreduce_single_rank_is_identity() {
        spawn_world(1, |c| {
            assert_eq!(c.allreduce_scalar(7.25, ReduceOp::Sum), 7.25);
        });
    }

    #[test]
    fn allgatherv_everyone_sees_everything() {
        spawn_world(4, |c| {
            let mine = vec![c.rank() as u64; c.rank() + 1];
            let all = c.allgatherv(&mine);
            for (src, data) in all.iter().enumerate() {
                assert_eq!(data.len(), src + 1);
                assert!(data.iter().all(|&v| v == src as u64));
            }
        });
    }

    #[test]
    fn alltoallv_transposes_the_exchange() {
        spawn_world(4, |c| {
            // rank r sends [r*10 + d] to rank d
            let outgoing: Vec<Vec<i64>> = (0..c.size())
                .map(|d| vec![(c.rank() * 10 + d) as i64])
                .collect();
            let incoming = c.alltoallv(&outgoing);
            for (s, data) in incoming.iter().enumerate() {
                assert_eq!(data, &vec![(s * 10 + c.rank()) as i64]);
            }
        });
    }

    #[test]
    fn alltoallv_with_empty_lanes() {
        spawn_world(3, |c| {
            // only rank 0 sends, and only to rank 2
            let mut outgoing: Vec<Vec<f64>> = vec![vec![]; 3];
            if c.rank() == 0 {
                outgoing[2] = vec![3.25];
            }
            let incoming = c.alltoallv(&outgoing);
            if c.rank() == 2 {
                assert_eq!(incoming[0], vec![3.25]);
            } else {
                assert!(incoming[0].is_empty());
            }
            assert!(incoming[1].is_empty());
        });
    }

    #[test]
    fn consecutive_collectives_do_not_interleave() {
        spawn_world(4, |c| {
            for round in 0..20u64 {
                let s = c.allreduce_scalar(round as f64, ReduceOp::Sum);
                assert_eq!(s, 4.0 * round as f64);
                let all = c.allgatherv(&[round * 100 + c.rank() as u64]);
                for (src, v) in all.iter().enumerate() {
                    assert_eq!(v[0], round * 100 + src as u64);
                }
            }
        });
    }

    #[test]
    fn collectives_mixed_with_p2p() {
        spawn_world(2, |c| {
            let peer = 1 - c.rank();
            c.send(peer, 1, &[c.rank() as f64]).unwrap();
            let total = c.allreduce_scalar(1.0, ReduceOp::Sum);
            assert_eq!(total, 2.0);
            let mut buf = [0.0f64];
            c.recv(peer, 1, &mut buf).unwrap();
            assert_eq!(buf[0], peer as f64);
        });
    }

    // -- edge cases ---------------------------------------------------------

    #[test]
    fn size_one_world_collectives_are_identities() {
        spawn_world(1, |c| {
            let mut b = vec![1.0f64, 2.0];
            c.bcast(0, &mut b);
            assert_eq!(b, vec![1.0, 2.0]);
            let all = c.allgatherv(&[7u32, 8]);
            assert_eq!(all, vec![vec![7, 8]]);
            let inc = c.alltoallv(&[vec![3i64]]);
            assert_eq!(inc, vec![vec![3]]);
            assert_eq!(c.allreduce_scalar(4.0, ReduceOp::Max), 4.0);
        });
    }

    #[test]
    fn empty_buffers_flow_through_collectives() {
        spawn_world(3, |c| {
            let mut b: Vec<f64> = vec![];
            c.bcast(1, &mut b);
            assert!(b.is_empty());
            c.allreduce(&mut b, ReduceOp::Sum);
            assert!(b.is_empty());
            let all = c.allgatherv::<u64>(&[]);
            assert_eq!(all, vec![vec![], vec![], vec![]]);
        });
    }

    #[test]
    fn alltoallv_self_send_only() {
        // every rank addresses data exclusively to itself: the self lane is
        // served by a local clone, no messages cross ranks
        spawn_world(3, |c| {
            let mut outgoing: Vec<Vec<u64>> = vec![vec![]; 3];
            outgoing[c.rank()] = vec![c.rank() as u64 * 11; 4];
            c.barrier();
            let base = c.stats().snapshot();
            c.barrier(); // every base is taken before anyone sends
            let incoming = c.alltoallv(&outgoing);
            c.barrier(); // every send is recorded before any delta
            let delta = c.stats().snapshot().since(&base);
            assert_eq!(incoming[c.rank()], vec![c.rank() as u64 * 11; 4]);
            for (s, lane) in incoming.iter().enumerate() {
                if s != c.rank() {
                    assert!(lane.is_empty());
                }
            }
            assert_eq!(delta.messages, 6, "3 ranks x 2 empty cross-lanes");
            assert_eq!(delta.bytes, 0, "self data must not hit the wire");
        });
    }

    #[test]
    fn allreduce_non_commutative_float_order_is_canonical() {
        // (x0 + x1) + x2 differs from other association orders in f64:
        // the contract pins the ascending-rank left fold on every rank.
        spawn_world(3, |c| {
            // (1.0 + 1e16) + -1e16 = 0.0, but 1.0 + (1e16 + -1e16) = 1.0
            let xs = [1.0, 1e16, -1e16];
            let folded = (xs[0] + xs[1]) + xs[2]; // the guaranteed order
            assert_ne!(
                folded,
                xs[0] + (xs[1] + xs[2]),
                "inputs must expose non-associativity"
            );
            for _ in 0..20 {
                let s = c.allreduce_scalar(xs[c.rank()], ReduceOp::Sum);
                assert_eq!(s.to_bits(), folded.to_bits(), "rank {}", c.rank());
            }
        });
    }

    #[test]
    fn allreduce_panics_on_every_rank_under_a_fault() {
        // rank 1 dies on its first operation: the root sees it dead, and
        // rank 2, left waiting for a broadcast that never comes, is freed
        // by the watchdog — every rank panics, none hangs
        let comms = CommWorld::builder(3)
            .faults(FaultPlan::new(3).kill_rank(1, 0))
            .watchdog(Duration::from_millis(50))
            .build();
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| std::thread::spawn(move || c.allreduce_scalar(1.0, ReduceOp::Sum)))
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            let payload = h.join().expect_err("a collective must panic on a fault");
            let text = payload
                .downcast_ref::<String>()
                .expect("the panic carries the CommError text");
            assert!(
                text.contains("peer dead") || text.contains("poisoned"),
                "rank {rank}: {text}"
            );
        }
    }
}
