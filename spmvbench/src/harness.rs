//! Driving the library from outside: the SPMD world with setup timing,
//! collective timed batches, and the benchmark's own solver wrappers.
//!
//! Every timing here brackets a public library call. Loops that all ranks
//! run are collective: their trip counts come from values every rank
//! agrees on (an allreduce), never from a rank's own clock.

use crate::host::steal_s;
use crate::stats::Timed;
use spmv_comm::collectives::ReduceOp;
use spmv_comm::Comm;
use spmv_core::runner::create_world;
use spmv_core::{CommStrategy, EngineConfig, KernelKind, KernelMode, RankEngine, RowPartition};
use spmv_matrix::{vecops, CsrMatrix};
use spmv_solvers::{GlobalOps, LinOp};
use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

/// The engine configuration of every benchmark engine, with each
/// environment-steerable setting pinned: the default CSR kernel (never
/// `Auto`, which picks per rank by wall clock), the flat exchange, and
/// tracing and plan verification set explicitly.
pub fn engine_config(threads: usize, comm_thread: bool, tracing: bool) -> EngineConfig {
    let base = if comm_thread {
        EngineConfig::task_mode(threads)
    } else {
        EngineConfig::hybrid(threads)
    };
    base.with_kernel(KernelKind::CsrScalar)
        .with_comm_strategy(CommStrategy::Flat)
        .with_tracing(tracing)
        .with_verification(false)
}

/// Runs `f` on every rank of a fresh world over `matrix`, like
/// `spmv_core::run_spmd`, and hands each rank the seconds from the start of
/// setup (partition, world, rank spawn, row-block copy, `RankEngine::new`)
/// until its engine was ready. The row block stays alive while `f` runs,
/// as in the library's own harness.
pub fn spmd<R, F>(matrix: &CsrMatrix, ranks: usize, cfg: EngineConfig, f: F) -> Vec<R>
where
    F: Fn(&mut RankEngine, f64) -> R + Sync,
    R: Send,
{
    let t0 = Instant::now();
    let partition = RowPartition::by_nnz(matrix, ranks);
    let comms = create_world(ranks, &cfg);
    let (partition, f) = (&partition, &f);
    std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                s.spawn(move || {
                    let block = matrix.row_block(partition.range(comm.rank()));
                    let mut engine = RankEngine::new(comm, &block, partition, cfg);
                    let ready = t0.elapsed().as_secs_f64();
                    f(&mut engine, ready)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

/// Operations issued and failed on one rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation that succeeded when `ok`.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another rank's or session's counts.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Calls per batch so that `batches` batches of `call` fill about
/// `budget_s`. A short probe run is timed first and doubles as warm-up.
/// With a communicator the probe is collective and the slowest rank's
/// per-call time decides, so every rank gets the same answer.
pub fn plan_batches(
    comm: Option<&Comm>,
    budget_s: f64,
    batches: usize,
    tally: &mut Tally,
    mut call: impl FnMut() -> bool,
) -> usize {
    let time = |n: usize, call: &mut dyn FnMut() -> bool, tally: &mut Tally| {
        if let Some(c) = comm {
            c.barrier();
        }
        let t = Instant::now();
        for _ in 0..n {
            tally.count(call());
        }
        let per_call = t.elapsed().as_secs_f64() / n as f64;
        comm.map_or(per_call, |c| c.allreduce_scalar(per_call, ReduceOp::Max))
    };
    let first = time(1, &mut call, tally);
    let probe = ((0.05 / first.max(1e-9)) as usize).clamp(1, 100_000);
    let per_call = time(probe, &mut call, tally).max(1e-9);
    ((budget_s / batches as f64 / per_call) as usize).max(1)
}

/// Runs `f`, returning its result, its wall seconds, and the share of the
/// host's CPU time the hypervisor stole meanwhile.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    static NPROC: OnceLock<f64> = OnceLock::new();
    let nproc =
        *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64));
    let before = steal_s();
    let t = Instant::now();
    let r = f();
    let wall = t.elapsed().as_secs_f64();
    let stolen = match (before, steal_s()) {
        (Some(a), Some(b)) if wall > 0.0 => (b - a) / (wall * nproc),
        _ => 0.0,
    };
    (r, wall, stolen)
}

/// Times `batches` batches of `per_batch` back-to-back calls, each batch
/// starting at a world barrier when a communicator is given. Returns
/// seconds per call of every batch on this rank; merge ranks with
/// [`Timed::slowest`].
pub fn time_batches(
    comm: Option<&Comm>,
    batches: usize,
    per_batch: usize,
    tally: &mut Tally,
    mut call: impl FnMut() -> bool,
) -> Timed {
    let mut out = Timed::default();
    for _ in 0..batches {
        if let Some(c) = comm {
            c.barrier();
        }
        let ((), wall, stolen) = timed(|| {
            for _ in 0..per_batch {
                tally.count(call());
            }
        });
        out.push(wall / per_batch as f64, stolen);
    }
    out
}

/// [`plan_batches`] then [`time_batches`].
pub fn measure(
    comm: Option<&Comm>,
    budget_s: f64,
    batches: usize,
    tally: &mut Tally,
    mut call: impl FnMut() -> bool,
) -> Timed {
    let per_batch = plan_batches(comm, budget_s, batches, tally, &mut call);
    time_batches(comm, batches, per_batch, tally, call)
}

/// The benchmark's operator for CG: the engine's `apply_checked`, plus an
/// optional diagonal shift `σ` (`y = (A + σI) x`). A failed apply is
/// counted, not panicked on. With timing on it sums the seconds spent in
/// applies.
pub struct BenchOp<'a> {
    engine: &'a mut RankEngine,
    mode: KernelMode,
    shift: f64,
    pub failures: u64,
    pub apply_s: Option<f64>,
}

impl<'a> BenchOp<'a> {
    pub fn new(engine: &'a mut RankEngine, mode: KernelMode, shift: f64, timed: bool) -> Self {
        Self {
            engine,
            mode,
            shift,
            failures: 0,
            apply_s: timed.then_some(0.0),
        }
    }
}

impl LinOp for BenchOp<'_> {
    fn len(&self) -> usize {
        self.engine.local_len()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        let t = self.apply_s.map(|_| Instant::now());
        if self.engine.apply_checked(x, y, self.mode).is_err() {
            self.failures += 1;
        }
        if self.shift != 0.0 {
            vecops::axpy(self.shift, x, y);
        }
        if let (Some(acc), Some(t)) = (self.apply_s.as_mut(), t) {
            *acc += t.elapsed().as_secs_f64();
        }
    }

    fn applications(&self) -> u64 {
        self.engine.spmv_calls()
    }

    fn trace_sink(&self) -> Option<&spmv_obs::TraceSink> {
        self.engine.trace_sink()
    }
}

/// The benchmark's global reductions for CG: a local dot product followed
/// by `allreduce_scalar` (the same arithmetic as `spmv_solvers::DistOps`).
/// With timing on it sums the seconds spent in the allreduces.
pub struct BenchOps<'a> {
    comm: &'a Comm,
    reduce_s: Option<Cell<f64>>,
}

impl<'a> BenchOps<'a> {
    pub fn new(comm: &'a Comm, timed: bool) -> Self {
        Self {
            comm,
            reduce_s: timed.then(|| Cell::new(0.0)),
        }
    }

    /// Seconds spent in allreduces (timing on), else 0.
    pub fn reduce_s(&self) -> f64 {
        self.reduce_s.as_ref().map_or(0.0, Cell::get)
    }

    fn reduce(&self, x: f64, op: ReduceOp) -> f64 {
        let t = self.reduce_s.as_ref().map(|_| Instant::now());
        let r = self.comm.allreduce_scalar(x, op);
        if let (Some(acc), Some(t)) = (&self.reduce_s, t) {
            acc.set(acc.get() + t.elapsed().as_secs_f64());
        }
        r
    }
}

impl GlobalOps for BenchOps<'_> {
    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        self.reduce(vecops::dot(a, b), ReduceOp::Sum)
    }

    fn max(&self, x: f64) -> f64 {
        self.reduce(x, ReduceOp::Max)
    }

    fn sum(&self, x: f64) -> f64 {
        self.reduce(x, ReduceOp::Sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrix::synthetic;
    use spmv_solvers::{cg_solve, DistOp, DistOps};

    #[test]
    fn pinned_config_ignores_the_environment_defaults() {
        let cfg = engine_config(2, false, false);
        assert_eq!(cfg.kernel, KernelKind::CsrScalar);
        assert_eq!(cfg.comm_strategy, CommStrategy::Flat);
        assert!(!cfg.tracing && !cfg.verification && !cfg.comm_thread);
        assert!(engine_config(1, true, true).tracing);
    }

    #[test]
    fn batches_are_collective_and_counted() {
        let m = synthetic::tridiagonal(64, 2.0, -1.0);
        let out = spmd(&m, 2, engine_config(1, false, false), |eng, ready| {
            assert!(ready > 0.0);
            let comm = eng.comm().clone();
            let mut tally = Tally::default();
            let s = measure(Some(&comm), 0.01, 5, &mut tally, || {
                eng.spmv_checked(KernelMode::VectorNoOverlap).is_ok()
            });
            (s.secs.len(), tally.attempted, tally.failed)
        });
        assert_eq!(out[0], out[1], "ranks ran the same number of calls");
        assert_eq!(out[0].0, 5);
        assert!(out[0].1 >= 7 && out[0].2 == 0);
    }

    #[test]
    fn wrappers_match_the_library_solver_bit_for_bit() {
        let m = synthetic::random_banded_symmetric(200, 8, 6.0, 3);
        let b = vecops::random_vec(200, 5);
        let run = |ours: bool| {
            spmd(&m, 2, engine_config(1, false, false), |eng, _| {
                let lo = eng.row_start();
                let b = b[lo..lo + eng.local_len()].to_vec();
                let mut x = vec![0.0; b.len()];
                let comm = eng.comm().clone();
                let res = if ours {
                    let ops = BenchOps::new(&comm, true);
                    let mut op = BenchOp::new(eng, KernelMode::VectorNoOverlap, 0.0, true);
                    let r = cg_solve(&mut op, &ops, &b, &mut x, 1e-10, 500);
                    assert!(op.apply_s.is_some_and(|s| s > 0.0) && ops.reduce_s() > 0.0);
                    r
                } else {
                    let ops = DistOps { comm: &comm };
                    let mut op = DistOp::new(eng, KernelMode::VectorNoOverlap);
                    cg_solve(&mut op, &ops, &b, &mut x, 1e-10, 500)
                };
                (
                    res.iterations,
                    x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                )
            })
        };
        assert_eq!(run(true), run(false));
    }
}
