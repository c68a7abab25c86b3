//! Per-rank workload summaries for the timing simulator.
//!
//! The discrete-event simulator does not execute the kernels; it prices
//! them. For that it needs, per rank: how many rows/nonzeros are computed
//! in the local and non-local parts, how many elements are gathered, and
//! the exact per-peer message sizes. All of it derives from the real matrix
//! and the real communication plan, so the simulated figures inherit the
//! true communication structure of the problem.

use crate::partition::RowPartition;
use crate::plan::build_plans_serial;
use crate::split::SplitMatrix;
use spmv_matrix::CsrMatrix;

/// Compute and communication volumes of one rank for one SpMV.
#[derive(Debug, Clone, PartialEq)]
pub struct RankWorkload {
    /// Rank id.
    pub rank: usize,
    /// Rows owned.
    pub rows: usize,
    /// Nonzeros in the local (communication-independent) part.
    pub local_nnz: usize,
    /// Nonzeros in the non-local (halo-dependent) part.
    pub nonlocal_nnz: usize,
    /// Elements gathered into send buffers.
    pub gather_elems: usize,
    /// Halo elements received.
    pub halo_elems: usize,
    /// Outgoing messages as `(peer, bytes)`.
    pub sends: Vec<(usize, usize)>,
    /// Incoming messages as `(peer, bytes)`.
    pub recvs: Vec<(usize, usize)>,
}

impl RankWorkload {
    /// Total nonzeros computed by this rank.
    pub fn nnz(&self) -> usize {
        self.local_nnz + self.nonlocal_nnz
    }

    /// Flops per SpMV (2 per nonzero).
    pub fn flops(&self) -> f64 {
        2.0 * self.nnz() as f64
    }

    /// Total bytes sent per SpMV.
    pub fn bytes_out(&self) -> usize {
        self.sends.iter().map(|&(_, b)| b).sum()
    }

    /// Total bytes received per SpMV.
    pub fn bytes_in(&self) -> usize {
        self.recvs.iter().map(|&(_, b)| b).sum()
    }

    /// Communication-to-computation ratio in bytes per flop — the quantity
    /// whose unfavorable size motivates the whole paper ("parallel sparse
    /// matrix-vector operations often suffer from an unfavorable
    /// communication to computation ratio").
    pub fn comm_to_comp(&self) -> f64 {
        if self.nnz() == 0 {
            return 0.0;
        }
        (self.bytes_in() + self.bytes_out()) as f64 / self.flops()
    }
}

/// Analyzes the full job centrally: one workload per rank.
pub fn analyze(matrix: &CsrMatrix, partition: &RowPartition) -> Vec<RankWorkload> {
    let plans = build_plans_serial(matrix, partition);
    plans
        .iter()
        .map(|plan| {
            let block = matrix.row_block(partition.range(plan.rank));
            let split = SplitMatrix::build(&block, plan);
            RankWorkload {
                rank: plan.rank,
                rows: plan.local_len,
                local_nnz: split.local.nnz(),
                nonlocal_nnz: split.nonlocal.nnz(),
                gather_elems: plan.send_len(),
                halo_elems: plan.halo_len(),
                sends: plan
                    .send
                    .iter()
                    .map(|n| (n.peer, n.indices.len() * 8))
                    .collect(),
                recvs: plan
                    .recv
                    .iter()
                    .map(|n| (n.peer, n.indices.len() * 8))
                    .collect(),
            }
        })
        .collect()
}

/// Aggregate statistics over all ranks of a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSummary {
    /// Number of ranks.
    pub ranks: usize,
    /// Total messages per SpMV (sum over ranks of outgoing messages).
    pub total_messages: usize,
    /// Total bytes on the wire per SpMV.
    pub total_bytes: usize,
    /// Max over ranks of the communication-to-computation ratio.
    pub worst_comm_to_comp: f64,
    /// Max over ranks of nnz divided by the ideal nnz per rank.
    pub nnz_imbalance: f64,
}

/// Summarizes a set of per-rank workloads.
pub fn summarize(workloads: &[RankWorkload]) -> JobSummary {
    let ranks = workloads.len();
    let total_nnz: usize = workloads.iter().map(|w| w.nnz()).sum();
    let ideal = total_nnz as f64 / ranks.max(1) as f64;
    JobSummary {
        ranks,
        total_messages: workloads.iter().map(|w| w.sends.len()).sum(),
        total_bytes: workloads.iter().map(|w| w.bytes_out()).sum(),
        worst_comm_to_comp: workloads
            .iter()
            .map(|w| w.comm_to_comp())
            .fold(0.0, f64::max),
        nnz_imbalance: if ideal > 0.0 {
            workloads
                .iter()
                .map(|w| w.nnz() as f64 / ideal)
                .fold(0.0, f64::max)
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrix::synthetic;

    #[test]
    fn tridiagonal_volumes() {
        let m = synthetic::tridiagonal(100, 2.0, -1.0);
        let p = RowPartition::by_rows(100, 4);
        let w = analyze(&m, &p);
        assert_eq!(w.len(), 4);
        // middle ranks: 2 peers, 8 bytes each way
        assert_eq!(w[1].bytes_in(), 16);
        assert_eq!(w[1].bytes_out(), 16);
        assert_eq!(w[0].bytes_in(), 8);
        // nonzeros conserved
        let total: usize = w.iter().map(|x| x.nnz()).sum();
        assert_eq!(total, m.nnz());
    }

    #[test]
    fn send_recv_totals_balance_globally() {
        let m = synthetic::random_general(400, 400, 8, 12);
        let p = RowPartition::by_nnz(&m, 6);
        let w = analyze(&m, &p);
        let total_out: usize = w.iter().map(|x| x.bytes_out()).sum();
        let total_in: usize = w.iter().map(|x| x.bytes_in()).sum();
        assert_eq!(total_out, total_in);
    }

    #[test]
    fn more_ranks_mean_more_relative_communication() {
        // strong scaling: comm/comp ratio grows with rank count
        let m = synthetic::random_banded_symmetric(2000, 100, 7.0, 3);
        let r4 = summarize(&analyze(&m, &RowPartition::by_nnz(&m, 4)));
        let r16 = summarize(&analyze(&m, &RowPartition::by_nnz(&m, 16)));
        assert!(r16.worst_comm_to_comp > r4.worst_comm_to_comp);
        assert!(r16.total_messages > r4.total_messages);
    }

    #[test]
    fn aggregation_reduces_message_count() {
        // the paper's message-aggregation effect: fewer ranks (one per LD or
        // node instead of per core) → fewer messages for the same matrix
        let m = synthetic::scattered(1024, 12, 8);
        let per_core = summarize(&analyze(&m, &RowPartition::by_nnz(&m, 24)));
        let per_ld = summarize(&analyze(&m, &RowPartition::by_nnz(&m, 4)));
        assert!(per_ld.total_messages < per_core.total_messages);
        assert!(per_ld.total_bytes <= per_core.total_bytes);
    }

    #[test]
    fn comm_to_comp_zero_for_diagonal() {
        let m = spmv_matrix::CsrMatrix::identity(50);
        let p = RowPartition::by_rows(50, 5);
        let w = analyze(&m, &p);
        for r in &w {
            assert_eq!(r.comm_to_comp(), 0.0);
            assert_eq!(r.halo_elems, 0);
        }
        let s = summarize(&w);
        assert_eq!(s.total_messages, 0);
        assert_eq!(s.worst_comm_to_comp, 0.0);
    }

    #[test]
    fn imbalance_close_to_one_with_nnz_partition() {
        let m = synthetic::random_general(1000, 1000, 10, 4);
        let s = summarize(&analyze(&m, &RowPartition::by_nnz(&m, 8)));
        assert!(s.nnz_imbalance < 1.05, "{}", s.nnz_imbalance);
    }

    #[test]
    fn flops_are_two_per_nnz() {
        let m = synthetic::tridiagonal(10, 2.0, -1.0);
        let w = analyze(&m, &RowPartition::by_rows(10, 1));
        assert_eq!(w[0].flops(), 2.0 * m.nnz() as f64);
    }
}
