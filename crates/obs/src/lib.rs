//! # spmv-obs
//!
//! Measured-time tracing and metrics for the execution engine: the layer
//! that turns the paper's Fig. 4 argument — task mode achieves *real*
//! communication/computation overlap while naive vector-mode overlap "does
//! not materialize" — into numbers measured on our own runs instead of
//! simulated ones.
//!
//! The design mirrors the fault injector's zero-cost-when-disabled
//! contract: the engine carries an `Option<TraceSink>`, every
//! instrumentation site is a branch on that single `Option`, and a
//! disabled recorder costs that one branch per site and changes no
//! result (`tests/trace.rs` checks traced and untraced runs bit for bit).
//!
//! Pieces:
//!
//! * [`clock`] — one process-global monotonic epoch; because ranks are
//!   threads of one process, a single `Instant` gives directly comparable
//!   timestamps across every rank and lane.
//! * [`Phase`] — the shared event vocabulary. The engine and the
//!   simulator both type their events by `Phase` (taken from the kernel
//!   schedule's steps), so simulated and measured timelines are directly
//!   comparable.
//! * [`TraceSink`] / [`LaneRecorder`] — per-lane fixed-size ring buffers
//!   of `{phase, rank, lane, t0, t1, bytes, nnz}` spans; one writer per
//!   lane, so recording never contends.
//! * [`RankTrace`] / [`RunTrace`] — drained per-rank traces merged into a
//!   per-run trace, with fault/stall events from `spmv-comm` stamped in
//!   as typed events.
//! * [`TraceMetrics`] — derived per-rank achieved GB/s and flop/s, the
//!   overlap-efficiency score (hidden comm time ÷ total comm time), and
//!   [`ModelDrift`] against an `spmv-model` prediction.
//! * [`export`] — chrome://tracing JSON (`trace_events` format), the
//!   text timeline of one rank (the Fig. 4 view, for simulated and
//!   measured runs alike), and a dependency-free JSON syntax validator
//!   used by the CI smoke job.

pub mod clock;
pub mod export;
pub mod metrics;
pub mod phase;
pub mod recorder;
pub mod trace;

pub use export::{chrome_trace_json, text_timeline, validate_json};
pub use metrics::{DriftVerdict, ModelDrift, RankMetrics, TraceMetrics};
pub use phase::Phase;
pub use recorder::{LaneRecorder, SpanEvent, TraceSink, DEFAULT_RING_CAPACITY};
pub use trace::{RankTrace, RunTrace, FAULT_LANE};
