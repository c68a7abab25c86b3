//! Activity traces — the simulator's regeneration of the paper's Fig. 4
//! timeline schematics, with real (simulated) time on the axis.

use spmv_obs::Phase;

/// One contiguous activity segment of a lane.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// MPI rank.
    pub rank: usize,
    /// Lane within the rank (0 = comm lane in task mode, otherwise the
    /// single execution lane).
    pub lane: usize,
    /// The activity's phase (shared with measured traces).
    pub phase: Phase,
    /// Segment start (seconds).
    pub t0: f64,
    /// Segment end (seconds).
    pub t1: f64,
}

/// A full activity trace of one simulated SpMV.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Segments in completion order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// A simulated-style trace built from a *measured* run
    /// (`spmv_obs::RunTrace`): same event vocabulary, same queries, same
    /// ASCII renderer — so the Fig. 4 schematic can be drawn from real
    /// timings next to its simulated twin.
    pub fn from_measured(run: &spmv_obs::RunTrace) -> Trace {
        Trace {
            events: run
                .events
                .iter()
                .map(|e| TraceEvent {
                    rank: e.rank,
                    lane: e.lane,
                    phase: e.phase,
                    t0: e.t0,
                    t1: e.t1,
                })
                .collect(),
        }
    }

    /// Events of one rank, sorted by start time.
    pub fn rank_events(&self, rank: usize) -> Vec<&TraceEvent> {
        let mut ev: Vec<&TraceEvent> = self.events.iter().filter(|e| e.rank == rank).collect();
        ev.sort_by(|a, b| a.t0.total_cmp(&b.t0));
        ev
    }

    /// Total time rank `rank` spent in phases matching `pred` — e.g.
    /// [`Phase::is_compute`] sums the local, non-local and full kernels.
    pub fn time_where(&self, rank: usize, pred: impl Fn(Phase) -> bool) -> f64 {
        self.events
            .iter()
            .filter(|e| e.rank == rank && pred(e.phase))
            .map(|e| e.t1 - e.t0)
            .sum()
    }

    /// Total time rank `rank` spent in `phase`.
    pub fn time_in(&self, rank: usize, phase: Phase) -> f64 {
        self.time_where(rank, |p| p == phase)
    }

    /// Renders an ASCII timeline for one rank (one row per lane), `width`
    /// characters across the full makespan — the Fig. 4 regenerator.
    pub fn render_rank_ascii(&self, rank: usize, width: usize) -> String {
        let ev = self.rank_events(rank);
        if ev.is_empty() {
            return String::from("(no events)\n");
        }
        let t_end = ev.iter().map(|e| e.t1).fold(0.0, f64::max);
        let t_scale = if t_end > 0.0 {
            width as f64 / t_end
        } else {
            0.0
        };
        let lanes: usize = ev.iter().map(|e| e.lane).max().unwrap_or(0) + 1;
        let mut rows = vec![vec![b' '; width]; lanes];
        for e in &ev {
            let c = symbol_for(e.phase);
            let a = (e.t0 * t_scale).floor() as usize;
            let b = ((e.t1 * t_scale).ceil() as usize).clamp(a + 1, width);
            for cell in &mut rows[e.lane][a.min(width - 1)..b] {
                *cell = c;
            }
        }
        let mut out = String::new();
        for (li, row) in rows.iter().enumerate() {
            let name = if lanes == 2 && li == 0 {
                "comm   "
            } else {
                "compute"
            };
            out.push_str(&format!("rank {rank} {name} |"));
            out.push_str(std::str::from_utf8(row).expect("ascii"));
            out.push_str("|\n");
        }
        out.push_str("legend: g=gather s=send r=post-recvs w=waitall L=spmv(local) N=spmv(nonlocal) F=spmv(full) b=barrier\n");
        out
    }
}

fn symbol_for(phase: Phase) -> u8 {
    match phase {
        Phase::Gather => b'g',
        Phase::Send => b's',
        Phase::PostRecvs => b'r',
        Phase::Waitall => b'w',
        Phase::SpmvLocal => b'L',
        Phase::SpmvNonlocal => b'N',
        Phase::SpmvFull => b'F',
        Phase::Barrier => b'b',
        _ => b'?',
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            events: vec![
                TraceEvent {
                    rank: 0,
                    lane: 0,
                    phase: Phase::PostRecvs,
                    t0: 0.0,
                    t1: 0.1,
                },
                TraceEvent {
                    rank: 0,
                    lane: 0,
                    phase: Phase::Waitall,
                    t0: 0.1,
                    t1: 0.9,
                },
                TraceEvent {
                    rank: 0,
                    lane: 1,
                    phase: Phase::Gather,
                    t0: 0.0,
                    t1: 0.2,
                },
                TraceEvent {
                    rank: 0,
                    lane: 1,
                    phase: Phase::SpmvLocal,
                    t0: 0.2,
                    t1: 0.8,
                },
                TraceEvent {
                    rank: 0,
                    lane: 1,
                    phase: Phase::SpmvNonlocal,
                    t0: 0.9,
                    t1: 1.0,
                },
                TraceEvent {
                    rank: 1,
                    lane: 0,
                    phase: Phase::Waitall,
                    t0: 0.0,
                    t1: 0.5,
                },
            ],
        }
    }

    #[test]
    fn rank_events_filters_and_sorts() {
        let t = sample();
        let ev = t.rank_events(0);
        assert_eq!(ev.len(), 5);
        assert!(ev.windows(2).all(|w| w[0].t0 <= w[1].t0));
        assert_eq!(t.rank_events(1).len(), 1);
        assert!(t.rank_events(7).is_empty());
    }

    #[test]
    fn time_queries_sum_matching_segments() {
        let t = sample();
        assert!((t.time_where(0, Phase::is_compute) - 0.7).abs() < 1e-12);
        assert!((t.time_in(0, Phase::SpmvLocal) - 0.6).abs() < 1e-12);
        assert!((t.time_in(0, Phase::SpmvNonlocal) - 0.1).abs() < 1e-12);
        assert!((t.time_in(0, Phase::Waitall) - 0.8).abs() < 1e-12);
        assert_eq!(t.time_in(1, Phase::Gather), 0.0);
    }

    #[test]
    fn measured_trace_converts_to_sim_vocabulary() {
        use spmv_obs::{RankTrace, RunTrace, SpanEvent};
        let run = RunTrace::from_ranks([RankTrace {
            rank: 0,
            events: vec![
                SpanEvent {
                    phase: Phase::Waitall,
                    rank: 0,
                    lane: 0,
                    t0: 0.0,
                    t1: 0.4,
                    bytes: 64,
                    nnz: 0,
                },
                SpanEvent {
                    phase: Phase::SpmvLocal,
                    rank: 0,
                    lane: 1,
                    t0: 0.1,
                    t1: 0.3,
                    bytes: 0,
                    nnz: 10,
                },
            ],
            dropped: 0,
        }]);
        let t = Trace::from_measured(&run);
        assert_eq!(t.events.len(), 2);
        assert!((t.time_in(0, Phase::Waitall) - 0.4).abs() < 1e-12);
        assert!((t.time_in(0, Phase::SpmvLocal) - 0.2).abs() < 1e-12);
        // the renderer understands the shared labels
        let art = t.render_rank_ascii(0, 20);
        assert!(art.contains('w') && art.contains('L'));
    }

    #[test]
    fn ascii_render_has_two_lanes_and_legend() {
        let t = sample();
        let art = t.render_rank_ascii(0, 40);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3, "two lanes + legend");
        assert!(lines[0].contains("comm"));
        assert!(lines[1].contains("compute"));
        assert!(lines[0].contains('w'));
        assert!(lines[1].contains('L'));
        assert!(lines[2].starts_with("legend"));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let t = Trace::default();
        assert_eq!(t.render_rank_ascii(0, 10), "(no events)\n");
    }
}
