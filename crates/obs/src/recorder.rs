//! Per-lane span recorders behind a per-rank [`TraceSink`].
//!
//! Lane layout, fixed by convention with the engine:
//!
//! * lane 0 — the communication timeline (the MPI calls; in task mode the
//!   dedicated comm thread lives here),
//! * lanes `1..=c` — the compute threads,
//! * the last lane — solver iterations (CG/Lanczos spans).
//!
//! Each lane is a fixed-size ring buffer (a flight recorder: when full it
//! overwrites the oldest span and counts the loss — tracing must never
//! grow memory without bound under a long solver run). Exactly one thread
//! writes each lane, so the per-lane mutex is uncontended and recording
//! stays off every other thread's critical path.

use crate::clock;
use crate::phase::Phase;
use crate::trace::RankTrace;
use std::sync::Mutex;

/// Default spans retained per lane (the flight-recorder window).
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// One recorded span: a phase executed on `rank`/`lane` over
/// `[t0, t1]` seconds since the trace epoch, annotated with the payload
/// bytes moved and the nonzeros processed (either may be 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    pub phase: Phase,
    pub rank: usize,
    pub lane: usize,
    pub t0: f64,
    pub t1: f64,
    pub bytes: u64,
    pub nnz: u64,
}

impl SpanEvent {
    /// Span duration in seconds (clamped to 0 for degenerate spans).
    #[must_use]
    pub fn duration(&self) -> f64 {
        (self.t1 - self.t0).max(0.0)
    }
}

struct Ring {
    buf: Vec<SpanEvent>,
    cap: usize,
    /// Index of the oldest element once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: SpanEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> (Vec<SpanEvent>, u64) {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        self.buf.clear();
        self.head = 0;
        let dropped = self.dropped;
        self.dropped = 0;
        (out, dropped)
    }
}

/// One lane's flight recorder.
pub struct LaneRecorder {
    ring: Mutex<Ring>,
}

impl LaneRecorder {
    fn new(cap: usize) -> Self {
        LaneRecorder {
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                cap: cap.max(1),
                head: 0,
                dropped: 0,
            }),
        }
    }

    fn push(&self, ev: SpanEvent) {
        self.ring.lock().unwrap().push(ev);
    }
}

/// The per-rank recorder handed to the engine: one [`LaneRecorder`] per
/// lane, addressed by the fixed lane convention above.
pub struct TraceSink {
    rank: usize,
    lanes: Vec<LaneRecorder>,
}

impl TraceSink {
    /// A sink for a rank running `compute_lanes` compute threads: lane 0
    /// is communication, lanes `1..=compute_lanes` are compute, and one
    /// extra lane holds solver iteration spans.
    #[must_use]
    pub fn new(rank: usize, compute_lanes: usize) -> Self {
        Self::with_capacity(rank, compute_lanes, DEFAULT_RING_CAPACITY)
    }

    /// As [`TraceSink::new`], with an explicit per-lane ring capacity.
    #[must_use]
    pub fn with_capacity(rank: usize, compute_lanes: usize, cap: usize) -> Self {
        // touch the epoch so every timestamp this sink ever takes is
        // relative to a clock that already exists
        let _ = clock::epoch();
        let lanes = (0..compute_lanes.max(1) + 2)
            .map(|_| LaneRecorder::new(cap))
            .collect();
        TraceSink { rank, lanes }
    }

    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The lane index reserved for solver iteration spans.
    #[must_use]
    pub fn solver_lane(&self) -> usize {
        self.lanes.len() - 1
    }

    /// Current time on the trace clock; pair with [`TraceSink::record`].
    #[must_use]
    pub fn now(&self) -> f64 {
        clock::now_secs()
    }

    /// Records one span on `lane`. Out-of-range lanes clamp to the last
    /// lane rather than panic: tracing must never take down a run.
    pub fn record(&self, lane: usize, phase: Phase, t0: f64, t1: f64, bytes: u64, nnz: u64) {
        let lane = lane.min(self.lanes.len() - 1);
        self.lanes[lane].push(SpanEvent {
            phase,
            rank: self.rank,
            lane,
            t0,
            t1,
            bytes,
            nnz,
        });
    }

    /// Records a solver iteration span on the dedicated solver lane;
    /// `count` (iteration index) travels in the `nnz` slot.
    pub fn record_solver(&self, phase: Phase, t0: f64, t1: f64, count: u64) {
        self.record(self.solver_lane(), phase, t0, t1, 0, count);
    }

    /// Drains every lane into a chronological per-rank trace, resetting
    /// the rings. Call after the measured region (it takes every lane
    /// lock, so never from inside a team region).
    #[must_use]
    pub fn drain(&self) -> RankTrace {
        let mut events = Vec::new();
        let mut dropped = 0;
        for lane in &self.lanes {
            let (evs, d) = lane.ring.lock().unwrap().drain();
            events.extend(evs);
            dropped += d;
        }
        events.sort_by(|a, b| a.t0.total_cmp(&b.t0).then(a.lane.cmp(&b.lane)));
        RankTrace {
            rank: self.rank,
            events,
            dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t0: f64) -> SpanEvent {
        SpanEvent {
            phase: Phase::Gather,
            rank: 0,
            lane: 1,
            t0,
            t1: t0 + 1.0,
            bytes: 8,
            nnz: 3,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = Ring {
            buf: Vec::new(),
            cap: 3,
            head: 0,
            dropped: 0,
        };
        for i in 0..5 {
            r.push(ev(i as f64));
        }
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 2);
        let t0s: Vec<f64> = evs.iter().map(|e| e.t0).collect();
        assert_eq!(t0s, vec![2.0, 3.0, 4.0]); // oldest two lost, order kept
    }

    #[test]
    fn sink_routes_lanes_and_drains_chronologically() {
        let sink = TraceSink::with_capacity(3, 2, 16);
        sink.record(1, Phase::Gather, 2.0, 3.0, 8, 0);
        sink.record(0, Phase::Waitall, 1.0, 4.0, 64, 0);
        sink.record_solver(Phase::CgIter, 0.5, 4.5, 7);
        let t = sink.drain();
        assert_eq!(t.rank, 3);
        assert_eq!(t.dropped, 0);
        let phases: Vec<Phase> = t.events.iter().map(|e| e.phase).collect();
        assert_eq!(phases, vec![Phase::CgIter, Phase::Waitall, Phase::Gather]);
        assert_eq!(t.events[0].lane, sink.solver_lane());
        assert_eq!(t.events[0].nnz, 7);
        // drained rings start fresh
        assert!(sink.drain().events.is_empty());
    }

    #[test]
    fn out_of_range_lane_clamps() {
        let sink = TraceSink::with_capacity(0, 1, 4);
        sink.record(999, Phase::Barrier, 0.0, 1.0, 0, 0);
        let t = sink.drain();
        assert_eq!(t.events.len(), 1);
        // the last lane: comm, one compute, solver
        assert_eq!(t.events[0].lane, 2);
    }
}
