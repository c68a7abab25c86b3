//! Per-rank and per-run measured traces.
//!
//! A [`RankTrace`] is what one rank's [`TraceSink`](crate::TraceSink)
//! drains; a [`RunTrace`] merges all ranks onto the shared trace clock.
//! Injected faults ([`spmv_comm::FaultEvent`]) and watchdog poison dumps
//! ([`spmv_comm::StallReport`]) are stamped in as typed zero-duration /
//! interval events on a dedicated lane, so a chaos run's chrome trace
//! shows *where* the adversity landed relative to the phase spans it
//! disturbed.

use crate::clock;
use crate::phase::Phase;
use crate::recorder::SpanEvent;
use spmv_comm::{FaultEvent, StallReport};
use std::collections::BTreeSet;

/// Lane used for stamped fault/stall markers: far above any real thread
/// lane, so chrome://tracing groups adversity in its own row per rank.
pub const FAULT_LANE: usize = 1000;

/// Everything one rank recorded, in chronological order.
#[derive(Debug, Clone, Default)]
pub struct RankTrace {
    pub rank: usize,
    pub events: Vec<SpanEvent>,
    /// Spans lost to ring overflow (flight-recorder overwrites).
    pub dropped: u64,
}

impl RankTrace {
    /// Stamps the message faults *originating at this rank* (`src ==
    /// rank`) as typed markers. Filtering by source keeps each fault
    /// unique after ranks are merged into a [`RunTrace`] — every rank
    /// sees the same world-global fault log.
    pub fn stamp_faults(&mut self, faults: &[FaultEvent]) {
        for f in faults.iter().filter(|f| f.src == self.rank) {
            let t = clock::secs_since_epoch(f.at);
            self.events.push(SpanEvent {
                phase: Phase::from_fault(f.kind),
                rank: self.rank,
                lane: FAULT_LANE,
                t0: t,
                t1: t,
                bytes: f.bytes as u64,
                nnz: f.seq,
            });
        }
    }

    /// Stamps this rank's entry of a watchdog poison dump as a `stall`
    /// interval ending now and reaching back over the blocked duration.
    pub fn stamp_stall(&mut self, report: &StallReport) {
        if let Some(Some(op)) = report.ranks.get(self.rank) {
            let t1 = clock::now_secs();
            self.events.push(SpanEvent {
                phase: Phase::Stall,
                rank: self.rank,
                lane: FAULT_LANE,
                t0: (t1 - op.blocked.as_secs_f64()).max(0.0),
                t1,
                bytes: op.bytes.unwrap_or(0) as u64,
                nnz: u64::from(op.tag.unwrap_or(0)),
            });
        }
    }
}

/// All ranks' traces merged onto the shared clock.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    pub events: Vec<SpanEvent>,
    pub dropped: u64,
}

impl RunTrace {
    /// Merges per-rank traces, sorted by `(t0, rank, lane)`.
    #[must_use]
    pub fn from_ranks(parts: impl IntoIterator<Item = RankTrace>) -> Self {
        let mut events = Vec::new();
        let mut dropped = 0;
        for p in parts {
            events.extend(p.events);
            dropped += p.dropped;
        }
        RunTrace {
            dropped,
            ..Self::from_events(events)
        }
    }

    /// A trace of `events` from any number of ranks, sorted by
    /// `(t0, rank, lane)` — how the simulator hands over its timeline.
    #[must_use]
    pub fn from_events(mut events: Vec<SpanEvent>) -> Self {
        events.sort_by(|a, b| {
            a.t0.total_cmp(&b.t0)
                .then(a.rank.cmp(&b.rank))
                .then(a.lane.cmp(&b.lane))
        });
        RunTrace { events, dropped: 0 }
    }

    /// Ranks present in the trace, ascending.
    #[must_use]
    pub fn ranks(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self.events.iter().map(|e| e.rank).collect();
        set.into_iter().collect()
    }

    /// Every distinct phase label in the trace.
    #[must_use]
    pub fn phase_labels(&self) -> BTreeSet<&'static str> {
        self.events.iter().map(|e| e.phase.label()).collect()
    }

    /// One rank's events, in trace order.
    pub fn rank_events(&self, rank: usize) -> impl Iterator<Item = &SpanEvent> {
        self.events.iter().filter(move |e| e.rank == rank)
    }

    /// Total time `rank` spent in phases matching `pred`, summed across
    /// lanes — e.g. [`Phase::is_compute`] sums the three SpMV kernels.
    #[must_use]
    pub fn time_where(&self, rank: usize, pred: impl Fn(Phase) -> bool) -> f64 {
        self.rank_events(rank)
            .filter(|e| pred(e.phase))
            .map(SpanEvent::duration)
            .sum()
    }

    /// Total time `rank` spent in `phase`, summed across lanes.
    #[must_use]
    pub fn time_in(&self, rank: usize, phase: Phase) -> f64 {
        self.time_where(rank, |p| p == phase)
    }

    /// Wall-clock extent of the trace (latest `t1` minus earliest `t0`).
    #[must_use]
    pub fn makespan(&self) -> f64 {
        let t0 = self
            .events
            .iter()
            .map(|e| e.t0)
            .fold(f64::INFINITY, f64::min);
        let t1 = self.events.iter().map(|e| e.t1).fold(0.0, f64::max);
        (t1 - t0).max(0.0)
    }

    /// The paper's Fig. 4 claim as a number: the fraction of `rank`'s
    /// communication time hidden under its own compute spans.
    ///
    /// `hidden ÷ total` where `total` is the summed duration of comm
    /// phases (post recvs / send / waitall) and `hidden` is the part of
    /// those intervals covered by the union of the rank's compute spans
    /// (which live on other lanes — in vector mode comm and compute are
    /// sequential on one timeline, so the intersection and the score are
    /// ≈0; in task mode the comm thread's waitall runs concurrently with
    /// the compute lanes' SpMV, so the score approaches 1).
    #[must_use]
    pub fn overlap_efficiency(&self, rank: usize) -> f64 {
        let comm: Vec<&SpanEvent> = self
            .rank_events(rank)
            .filter(|e| e.phase.is_comm())
            .collect();
        let total: f64 = comm.iter().map(|e| e.duration()).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let compute: Vec<(f64, f64)> = self
            .rank_events(rank)
            .filter(|e| e.phase.is_compute())
            .map(|e| (e.t0, e.t1))
            .collect();
        let merged = merge_intervals(compute);
        let hidden: f64 = comm
            .iter()
            .map(|c| intersection_len(c.t0, c.t1, &merged))
            .sum();
        (hidden / total).clamp(0.0, 1.0)
    }

    /// Mean overlap efficiency across all ranks in the trace.
    #[must_use]
    pub fn mean_overlap_efficiency(&self) -> f64 {
        let ranks = self.ranks();
        if ranks.is_empty() {
            return 0.0;
        }
        ranks
            .iter()
            .map(|&r| self.overlap_efficiency(r))
            .sum::<f64>()
            / ranks.len() as f64
    }
}

/// Sorts and unions possibly-overlapping intervals.
fn merge_intervals(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.retain(|(a, b)| b > a);
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (a, b) in iv {
        match out.last_mut() {
            Some((_, e)) if a <= *e => *e = e.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Length of `[a, b] ∩ union(merged)` for already-merged intervals.
fn intersection_len(a: f64, b: f64, merged: &[(f64, f64)]) -> f64 {
    merged
        .iter()
        .map(|&(x, y)| (b.min(y) - a.max(x)).max(0.0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rank: usize, lane: usize, phase: Phase, t0: f64, t1: f64) -> SpanEvent {
        SpanEvent {
            phase,
            rank,
            lane,
            t0,
            t1,
            bytes: 0,
            nnz: 0,
        }
    }

    /// A task-mode-shaped rank 0 (comm lane 0, compute lane 1) next to a
    /// one-span rank 1, handed over in completion order.
    fn two_lane_sample() -> RunTrace {
        RunTrace::from_events(vec![
            span(0, 0, Phase::PostRecvs, 0.0, 0.1),
            span(0, 1, Phase::Gather, 0.0, 0.2),
            span(0, 1, Phase::SpmvLocal, 0.2, 0.8),
            span(0, 0, Phase::Waitall, 0.1, 0.9),
            span(1, 0, Phase::Waitall, 0.0, 0.5),
            span(0, 1, Phase::SpmvNonlocal, 0.9, 1.0),
        ])
    }

    #[test]
    fn rank_events_filters_and_sorts() {
        let t = two_lane_sample();
        let ev: Vec<&SpanEvent> = t.rank_events(0).collect();
        assert_eq!(ev.len(), 5);
        assert!(ev.windows(2).all(|w| w[0].t0 <= w[1].t0));
        assert_eq!(t.rank_events(1).count(), 1);
        assert_eq!(t.rank_events(7).count(), 0);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn ascii_render_has_two_lanes_and_legend() {
        let art = crate::text_timeline(&two_lane_sample(), 0, 40);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3, "two lanes + legend");
        assert!(lines[0].starts_with("rank 0 comm    |") && lines[0].contains('w'));
        assert!(lines[1].starts_with("rank 0 compute |") && lines[1].contains('L'));
        assert!(lines[2].starts_with("legend"));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        assert_eq!(
            crate::text_timeline(&RunTrace::default(), 0, 10),
            "(no events)\n"
        );
        assert_eq!(
            crate::text_timeline(&two_lane_sample(), 7, 10),
            "(no events)\n"
        );
    }

    #[test]
    fn time_queries_sum_matching_segments() {
        let t = two_lane_sample();
        assert!((t.time_where(0, Phase::is_compute) - 0.7).abs() < 1e-12);
        assert!((t.time_where(0, Phase::is_comm) - 0.9).abs() < 1e-12);
        assert!((t.time_in(0, Phase::SpmvLocal) - 0.6).abs() < 1e-12);
        assert!((t.time_in(0, Phase::Waitall) - 0.8).abs() < 1e-12);
        assert_eq!(t.time_in(1, Phase::Gather), 0.0);
    }

    #[test]
    fn merge_and_intersect() {
        let m = merge_intervals(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (4.0, 4.0)]);
        assert_eq!(m, vec![(0.0, 3.0), (5.0, 6.0)]);
        assert!((intersection_len(2.0, 5.5, &m) - 1.5).abs() < 1e-12);
        assert_eq!(intersection_len(3.0, 5.0, &m), 0.0);
    }

    #[test]
    fn sequential_comm_and_compute_scores_zero() {
        // vector mode shape: comm then compute, no concurrency
        let t = RunTrace::from_ranks([RankTrace {
            rank: 0,
            events: vec![
                span(0, 0, Phase::Waitall, 0.0, 1.0),
                span(0, 1, Phase::SpmvFull, 1.0, 3.0),
            ],
            dropped: 0,
        }]);
        assert_eq!(t.overlap_efficiency(0), 0.0);
    }

    #[test]
    fn concurrent_waitall_under_spmv_scores_high() {
        // task mode shape: comm thread waits while compute lanes run
        let t = RunTrace::from_ranks([RankTrace {
            rank: 0,
            events: vec![
                span(0, 0, Phase::Waitall, 0.0, 2.0),
                span(0, 1, Phase::SpmvLocal, 0.0, 1.0),
                span(0, 2, Phase::SpmvLocal, 0.5, 1.9),
            ],
            dropped: 0,
        }]);
        let eff = t.overlap_efficiency(0);
        assert!((eff - 0.95).abs() < 1e-12, "eff {eff}");
        assert!(t.mean_overlap_efficiency() > 0.9);
    }

    #[test]
    fn queries_and_makespan() {
        let t = RunTrace::from_ranks([
            RankTrace {
                rank: 1,
                events: vec![span(1, 1, Phase::Gather, 0.5, 1.0)],
                dropped: 2,
            },
            RankTrace {
                rank: 0,
                events: vec![
                    span(0, 1, Phase::SpmvLocal, 0.0, 2.0),
                    span(0, 1, Phase::SpmvLocal, 3.0, 4.0),
                ],
                dropped: 0,
            },
        ]);
        assert_eq!(t.ranks(), vec![0, 1]);
        assert_eq!(t.dropped, 2);
        assert!((t.time_in(0, Phase::SpmvLocal) - 3.0).abs() < 1e-12);
        assert_eq!(t.time_in(0, Phase::Gather), 0.0);
        assert!((t.makespan() - 4.0).abs() < 1e-12);
        assert!(t.phase_labels().contains("gather"));
        // merged order: by t0
        assert_eq!(t.events.first().unwrap().rank, 0);
    }
}
