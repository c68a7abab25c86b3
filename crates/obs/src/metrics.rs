//! Derived metrics: achieved bandwidth and flop rate per rank, overlap
//! efficiency, and drift against the `spmv-model` prediction.
//!
//! The flop convention matches the paper and `spmv-model`: 2 flops per
//! nonzero (one multiply, one add). Achieved rates divide by *wall* time
//! of the merged phase intervals — summing per-lane durations would
//! overcount a rank whose compute lanes run concurrently.

use crate::recorder::SpanEvent;
use crate::trace::RunTrace;

/// Measured rates for one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankMetrics {
    pub rank: usize,
    /// Summed duration of comm phases (post recvs / send / waitall).
    pub comm_secs: f64,
    /// Portion of `comm_secs` hidden under compute (see
    /// [`RunTrace::overlap_efficiency`]).
    pub hidden_comm_secs: f64,
    /// hidden ÷ total comm time; the Fig. 4 regression number.
    pub overlap_efficiency: f64,
    /// Wall extent of the union of compute spans.
    pub compute_wall_secs: f64,
    /// Flops executed (2 × nnz summed over compute spans).
    pub flops: f64,
    /// Payload bytes attributed to comm spans.
    pub comm_bytes: u64,
    /// flops ÷ compute wall, in GFlop/s.
    pub achieved_gflops: f64,
    /// comm bytes ÷ comm wall, in GB/s.
    pub achieved_gbs: f64,
}

/// Per-run metrics summary derived from a [`RunTrace`].
#[derive(Debug, Clone, Default)]
pub struct TraceMetrics {
    pub per_rank: Vec<RankMetrics>,
}

impl TraceMetrics {
    /// Derives metrics for every rank present in `trace`.
    #[must_use]
    pub fn from_trace(trace: &RunTrace) -> Self {
        let per_rank = trace
            .ranks()
            .into_iter()
            .map(|rank| {
                let comm: Vec<&SpanEvent> = trace
                    .rank_events(rank)
                    .filter(|e| e.phase.is_comm())
                    .collect();
                let compute: Vec<&SpanEvent> = trace
                    .rank_events(rank)
                    .filter(|e| e.phase.is_compute())
                    .collect();
                let comm_secs: f64 = comm.iter().map(|e| e.duration()).sum();
                let comm_wall = wall(&comm);
                let compute_wall = wall(&compute);
                let overlap = trace.overlap_efficiency(rank);
                let flops = 2.0 * compute.iter().map(|e| e.nnz as f64).sum::<f64>();
                let comm_bytes: u64 = comm.iter().map(|e| e.bytes).sum();
                RankMetrics {
                    rank,
                    comm_secs,
                    hidden_comm_secs: overlap * comm_secs,
                    overlap_efficiency: overlap,
                    compute_wall_secs: compute_wall,
                    flops,
                    comm_bytes,
                    achieved_gflops: rate(flops, compute_wall) / 1e9,
                    achieved_gbs: rate(comm_bytes as f64, comm_wall) / 1e9,
                }
            })
            .collect();
        TraceMetrics { per_rank }
    }

    /// Mean overlap efficiency across ranks.
    #[must_use]
    pub fn mean_overlap_efficiency(&self) -> f64 {
        mean(self.per_rank.iter().map(|r| r.overlap_efficiency))
    }

    /// Mean achieved GFlop/s across ranks (per-rank, not aggregate).
    #[must_use]
    pub fn mean_gflops(&self) -> f64 {
        mean(self.per_rank.iter().map(|r| r.achieved_gflops))
    }
}

/// Measured performance against an `spmv-model` prediction. The metrics
/// layer takes the prediction as a plain number so `spmv-obs` stays at
/// the bottom of the crate graph (no dependency on `spmv-model`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelDrift {
    pub predicted_gflops: f64,
    pub measured_gflops: f64,
}

/// Outcome of a drift check at a given tolerance factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftVerdict {
    /// Measured within `[predicted / factor, predicted × factor]`.
    WithinModel,
    /// Measured slower than the model allows: a regression or an
    /// unmodeled bottleneck.
    SlowerThanModel,
    /// Measured faster than the model allows: the model (or the machine
    /// description it was fed) understates the hardware.
    FasterThanModel,
}

impl ModelDrift {
    #[must_use]
    pub fn new(predicted_gflops: f64, measured_gflops: f64) -> Self {
        ModelDrift {
            predicted_gflops,
            measured_gflops,
        }
    }

    /// measured ÷ predicted (0 if the prediction is degenerate).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.predicted_gflops > 0.0 {
            self.measured_gflops / self.predicted_gflops
        } else {
            0.0
        }
    }

    /// Signed drift in percent ((measured − predicted) ÷ predicted).
    #[must_use]
    pub fn drift_pct(&self) -> f64 {
        (self.ratio() - 1.0) * 100.0
    }

    /// Classifies the drift with a multiplicative tolerance `factor ≥ 1`
    /// (e.g. 2.0 accepts anything within 2× of the prediction in either
    /// direction — models predict saturated-machine rates, so a loose
    /// band is the honest default on foreign hosts).
    #[must_use]
    pub fn verdict(&self, factor: f64) -> DriftVerdict {
        let r = self.ratio();
        if r * factor < 1.0 {
            DriftVerdict::SlowerThanModel
        } else if r > factor {
            DriftVerdict::FasterThanModel
        } else {
            DriftVerdict::WithinModel
        }
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn rate(amount: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        amount / secs
    } else {
        0.0
    }
}

/// Wall extent (union length is overkill here: phases of one kind rarely
/// interleave with gaps that matter; extent matches how the benches time).
fn wall(events: &[&SpanEvent]) -> f64 {
    let t0 = events.iter().map(|e| e.t0).fold(f64::INFINITY, f64::min);
    let t1 = events.iter().map(|e| e.t1).fold(0.0, f64::max);
    (t1 - t0).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;
    use crate::trace::RankTrace;

    fn span(lane: usize, phase: Phase, t0: f64, t1: f64, bytes: u64, nnz: u64) -> SpanEvent {
        SpanEvent {
            phase,
            rank: 0,
            lane,
            t0,
            t1,
            bytes,
            nnz,
        }
    }

    fn trace() -> RunTrace {
        RunTrace::from_ranks([RankTrace {
            rank: 0,
            events: vec![
                span(0, Phase::Waitall, 0.0, 1.0, 2_000_000_000, 0),
                span(1, Phase::SpmvLocal, 0.0, 2.0, 0, 1_000_000_000),
            ],
            dropped: 0,
        }])
    }

    #[test]
    fn rates_divide_by_wall_time() {
        let m = TraceMetrics::from_trace(&trace());
        assert_eq!(m.per_rank.len(), 1);
        let r = &m.per_rank[0];
        // 2e9 flops over 2 s of compute wall = 1 GFlop/s
        assert!((r.achieved_gflops - 1.0).abs() < 1e-9);
        // 2 GB over 1 s of comm wall = 2 GB/s
        assert!((r.achieved_gbs - 2.0).abs() < 1e-9);
        // waitall fully covered by the compute span
        assert!((r.overlap_efficiency - 1.0).abs() < 1e-12);
        assert!((r.hidden_comm_secs - 1.0).abs() < 1e-12);
        assert!((m.mean_gflops() - 1.0).abs() < 1e-9);
        assert!(m.mean_overlap_efficiency() > 0.99);
    }

    #[test]
    fn empty_trace_yields_empty_metrics() {
        let m = TraceMetrics::from_trace(&RunTrace::default());
        assert!(m.per_rank.is_empty());
        assert_eq!(m.mean_gflops(), 0.0);
    }

    #[test]
    fn drift_classification() {
        let d = ModelDrift::new(10.0, 9.0);
        assert!((d.ratio() - 0.9).abs() < 1e-12);
        assert!((d.drift_pct() + 10.0).abs() < 1e-9);
        assert_eq!(d.verdict(2.0), DriftVerdict::WithinModel);
        assert_eq!(
            ModelDrift::new(10.0, 2.0).verdict(2.0),
            DriftVerdict::SlowerThanModel
        );
        assert_eq!(
            ModelDrift::new(10.0, 50.0).verdict(2.0),
            DriftVerdict::FasterThanModel
        );
        assert_eq!(ModelDrift::new(0.0, 5.0).ratio(), 0.0);
    }
}
