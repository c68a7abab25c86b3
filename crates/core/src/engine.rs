//! The per-rank execution engine: one object that runs a distributed SpMV
//! in any of the paper's three kernel modes (Fig. 4).
//!
//! The engine owns the *extended RHS vector* `x_ext = [local | halo]`: the
//! caller writes the local part ([`RankEngine::x_local_mut`]), the halo is
//! filled by communication, and the result appears in
//! [`RankEngine::y_local`] — so the unsplit kernel runs over one vector.
//!
//! The engine has no per-mode code: it interprets the mode's step lists
//! ([`KernelMode::lanes`]) one step at a time, stamping a trace span per
//! step; a communication step runs its group of the rank's exchange op
//! list (`HaloExchange`, one interpreter for both strategies).
//! Every SpMV is one region of the persistent [`ThreadTeam`], whose thread
//! 0 is the calling (rank) thread and makes the communication calls. A
//! one-lane (vector mode) schedule runs on every thread: each compute
//! thread runs its share of the gather and compute steps, and the team
//! meets at a barrier wherever the lane switches between communication and
//! shared steps. A two-lane (task mode) schedule runs the communication
//! lane on thread 0 and the compute lane on threads `1..=C`. Rows are split
//! explicitly into nonzero-balanced chunks: OpenMP has "no concept of
//! 'subteams'" (§3.2).

use crate::exchange::{HaloExchange, Pending};
use crate::gather::GatherProgram;
use crate::kernels::{prepare_kernel, KernelKind, SpmvKernel};
use crate::modes::{KernelMode, Part, Step};
use crate::partition::RowPartition;
use crate::plan::{build_plan_distributed, RankPlan};
use crate::split::{BlockPart, SplitMatrix};
use spmv_comm::{Comm, CommError, CommStats};
use spmv_matrix::CsrMatrix;
use spmv_model::RankTraffic;
use spmv_obs::{RankTrace, TraceSink};
use spmv_smp::workshare::balanced_chunks_by;
use spmv_smp::{TeamCtx, ThreadTeam};
use std::ops::Range;
use std::sync::OnceLock;

pub use crate::exchange::{CommStrategy, DegradedPolicy};

/// Threading configuration of one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of compute threads (`>= 1`).
    pub compute_threads: usize,
    /// Whether to add a communication thread ([`KernelMode::TaskMode`]).
    pub comm_thread: bool,
    /// Node-level kernel run by all modes and by both halves of the split
    /// path (see [`crate::kernels`]).
    pub kernel: KernelKind,
    /// Halo-exchange routing; defaults to [`CommStrategy::from_env`], else
    /// flat.
    pub comm_strategy: CommStrategy,
    /// Reaction to a degraded (injected-dead) node-aware leader rank.
    pub degraded: DegradedPolicy,
    /// Measured-time tracing (see `spmv-obs`). Zero-cost when false: the
    /// engine carries no recorder. Defaults to on when the `SPMV_TRACE`
    /// environment variable is set, mirroring `SPMV_COMM_STRATEGY`.
    pub tracing: bool,
    /// Static communication-plan verification at construction (a
    /// collective check of the whole world's message graph, see
    /// [`crate::verify`]). Defaults to **on in debug builds** and off in
    /// release. Skipped when the world carries a fault plan: the verifier
    /// proves the healthy schedule, chaos runs are *supposed* to violate it.
    pub verification: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            compute_threads: 1,
            comm_thread: false,
            kernel: KernelKind::CsrScalar,
            comm_strategy: CommStrategy::from_env().unwrap_or(CommStrategy::Flat),
            degraded: DegradedPolicy::Strict,
            tracing: std::env::var_os("SPMV_TRACE").is_some(),
            verification: cfg!(debug_assertions),
        }
    }
}

impl EngineConfig {
    /// Single-threaded pure-MPI rank.
    pub fn pure_mpi() -> Self {
        Self::default()
    }

    /// Hybrid rank with `c` compute threads (vector modes).
    pub fn hybrid(c: usize) -> Self {
        Self {
            compute_threads: c,
            ..Self::default()
        }
    }

    /// Hybrid rank with `c` compute threads plus a communication thread
    /// (runs every mode; vector modes leave the comm thread idle).
    pub fn task_mode(c: usize) -> Self {
        Self {
            compute_threads: c,
            comm_thread: true,
            ..Self::default()
        }
    }

    /// Returns the config with a different node-level kernel.
    pub fn with_kernel(self, kernel: KernelKind) -> Self {
        Self { kernel, ..self }
    }

    /// Returns the config with a different halo-exchange strategy.
    pub fn with_comm_strategy(self, comm_strategy: CommStrategy) -> Self {
        Self {
            comm_strategy,
            ..self
        }
    }

    /// Returns the config with a different degraded-leader policy.
    pub fn with_degraded_policy(self, degraded: DegradedPolicy) -> Self {
        Self { degraded, ..self }
    }

    /// Returns the config with measured-time tracing switched on or off.
    pub fn with_tracing(self, tracing: bool) -> Self {
        Self { tracing, ..self }
    }

    /// Returns the config with construction-time plan verification.
    pub fn with_verification(self, verification: bool) -> Self {
        Self {
            verification,
            ..self
        }
    }
}

/// The engine's vectors for the duration of one SpMV, as raw parts: the
/// team's threads use disjoint parts of them concurrently. Every hand-off
/// between steps is ordered by the schedule (checked by the `modes`
/// tests) and the barriers between threads: the halo is read only after
/// the waitall that fills it, the send buffer is sent only after the
/// gather that fills it, and the local part of `x` is never written
/// during an SpMV.
struct Bufs {
    x: *mut f64,
    nloc: usize,
    nhalo: usize,
    send: *mut f64,
    nsend: usize,
    y: *mut f64,
}
// SAFETY: the vectors outlive the SpMV call holding the pointers, and
// concurrent users touch disjoint parts in schedule order (see above).
unsafe impl Sync for Bufs {}

impl Bufs {
    /// `x_ext[r]`.
    ///
    /// # Safety
    /// A range reaching into the halo only after the waitall that
    /// completes it (in the same lane, or behind the barrier after it).
    unsafe fn x(&self, r: Range<usize>) -> &[f64] {
        debug_assert!(r.start <= r.end && r.end <= self.nloc + self.nhalo);
        // SAFETY: in bounds; the caller orders halo reads after every
        // halo write, and nothing writes the local part during an SpMV.
        unsafe { std::slice::from_raw_parts(self.x.add(r.start), r.len()) }
    }

    /// # Safety
    /// Only from thread 0, which holds it until its waitall.
    #[allow(clippy::mut_from_ref)] // exclusive by schedule, not by borrow
    unsafe fn halo_mut(&self) -> &mut [f64] {
        // SAFETY: the halo follows the local part; the caller is its only
        // user until the waitall.
        unsafe { std::slice::from_raw_parts_mut(self.x.add(self.nloc), self.nhalo) }
    }

    /// # Safety
    /// Only after the gather (in the same lane, or behind a barrier).
    unsafe fn send_buf(&self) -> &[f64] {
        // SAFETY: the caller orders this after every gather write.
        unsafe { std::slice::from_raw_parts(self.send, self.nsend) }
    }
}

/// A prepared node-level kernel for one part of the matrix, with its
/// per-thread row chunks and the nonzeros each chunk multiplies.
type PartKernel = (Box<dyn SpmvKernel>, Vec<(Range<usize>, u64)>);

/// `threads` nonzero-balanced row chunks of `part`, each with the
/// nonzeros it multiplies; one thread takes every row.
fn part_chunks(part: &BlockPart, threads: usize) -> Vec<(Range<usize>, u64)> {
    let chunks = balanced_chunks_by(part.nrows(), threads, |i| part.nnz_before(i));
    let nnz = |r: &Range<usize>| (part.nnz_before(r.end) - part.nnz_before(r.start)) as u64;
    chunks.into_iter().map(|r| (r.clone(), nnz(&r))).collect()
}

/// The per-rank engine.
pub struct RankEngine {
    comm: Comm,
    plan: RankPlan,
    mats: SplitMatrix,
    cfg: EngineConfig,
    team: ThreadTeam,
    x_ext: Vec<f64>,
    y: Vec<f64>,
    send_buf: Vec<f64>,
    exchange: HaloExchange,
    // prepared kernels for the full, local and non-local parts, in
    // `Part` order
    kernels: [PartKernel; 3],
    spmv_calls: u64,
    // measured-time recorder (None unless cfg.tracing; see spmv-obs)
    trace: Option<Box<TraceSink>>,
}

impl RankEngine {
    /// Builds the engine collectively: every rank of `comm` passes its own
    /// row block (global column indices) and the shared partition. The
    /// engine shares the block's row pointers and values instead of
    /// copying them, so it keeps the arrays the block points into alive
    /// (a [`CsrMatrix::row_block`] points into its whole parent's).
    pub fn new(comm: Comm, block: &CsrMatrix, partition: &RowPartition, cfg: EngineConfig) -> Self {
        assert!(cfg.compute_threads >= 1, "need at least one compute thread");
        let strategy = cfg.comm_strategy.resolve(&comm, cfg.degraded);
        let plan = build_plan_distributed(&comm, block, partition);
        // prove the world's exchange schedule sound before any halo payload
        // moves (collective; chaos worlds exist to violate it)
        if cfg.verification && comm.fault_stats().is_none() {
            let map = strategy.verified_node_map(comm.size());
            crate::verify::assert_verified(&comm, &plan, map.as_ref());
        }
        let mats = SplitMatrix::build(block, &plan);
        let c = cfg.compute_threads;
        let exchange = HaloExchange::new(&comm, &plan, strategy, c);

        let team = ThreadTeam::new(c + usize::from(cfg.comm_thread));

        let part = |part: Part| {
            let m = mats.part(part);
            (prepare_kernel(cfg.kernel, m), part_chunks(m, c))
        };
        let kernels = [Part::Full, Part::Local, Part::Nonlocal].map(part);

        let trace = cfg
            .tracing
            .then(|| Box::new(TraceSink::new(comm.rank(), c)));
        Self {
            trace,
            kernels,
            x_ext: vec![0.0; plan.local_len + plan.halo_len()],
            y: vec![0.0; plan.local_len],
            send_buf: vec![0.0; plan.send_len()],
            exchange,
            comm,
            plan,
            mats,
            cfg,
            team,
            spmv_calls: 0,
        }
    }

    /// The halo-exchange strategy in effect (flat after a degraded-leader
    /// fallback or [`Self::demote_to_flat`]).
    pub fn active_strategy(&self) -> CommStrategy {
        self.exchange.strategy
    }

    /// Demotes a node-aware engine to the flat exchange mid-run: collective
    /// (every rank at the same point), but no communication.
    pub fn demote_to_flat(&mut self) {
        self.exchange.demote_to_flat(&self.plan);
    }

    /// Number of locally owned rows.
    pub fn local_len(&self) -> usize {
        self.plan.local_len
    }

    /// First global row owned by this rank.
    pub fn row_start(&self) -> usize {
        self.plan.row_start
    }

    /// The rank's communication plan.
    pub fn plan(&self) -> &RankPlan {
        &self.plan
    }

    /// The rank's matrix and its local and non-local parts.
    pub fn matrices(&self) -> &SplitMatrix {
        &self.mats
    }

    /// The communicator (for reductions in solvers).
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The threading configuration, with the strategy in effect.
    pub fn config(&self) -> EngineConfig {
        self.cfg.with_comm_strategy(self.active_strategy())
    }

    /// Mutable access to the local part of the RHS vector.
    pub fn x_local_mut(&mut self) -> &mut [f64] {
        &mut self.x_ext[..self.plan.local_len]
    }

    /// The local part of the RHS vector.
    pub fn x_local(&self) -> &[f64] {
        &self.x_ext[..self.plan.local_len]
    }

    /// The local part of the result vector.
    pub fn y_local(&self) -> &[f64] {
        &self.y
    }

    /// Copies the result back into the RHS (power-iteration style chaining).
    pub fn promote_y_to_x(&mut self) {
        let nloc = self.plan.local_len;
        self.x_ext[..nloc].copy_from_slice(&self.y);
    }

    /// Number of SpMV calls executed so far.
    pub fn spmv_calls(&self) -> u64 {
        self.spmv_calls
    }

    /// The trace sink, when tracing is on (solvers add iteration spans).
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.as_deref()
    }

    /// Drains (and resets) the recorder into this rank's measured trace,
    /// stamped with the faults injected here and any watchdog stall report;
    /// `None` when tracing is disabled.
    pub fn take_trace(&mut self) -> Option<RankTrace> {
        let ts = self.trace.as_deref()?;
        let mut rt = ts.drain();
        rt.stamp_faults(&self.comm.fault_events());
        if let Some(report) = self.comm.stall_report() {
            rt.stamp_stall(&report);
        }
        Some(rt)
    }

    /// Collective: runs `f` bracketed by barriers and returns its result with
    /// the world-global traffic delta of exactly that phase (the barriers
    /// keep every rank's traffic out of each other's phase).
    pub fn phase_delta<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, CommStats) {
        self.comm.barrier();
        let base = self.comm.stats().snapshot();
        self.comm.barrier();
        let r = f(self);
        self.comm.barrier();
        let delta = self.comm.stats().phase_delta(&base);
        (r, delta)
    }

    /// Executes one distributed SpMV `y = A x` in `mode`, collectively. A
    /// communication fault (peer killed, world poisoned by the watchdog,
    /// truncated message) returns `Err`; `y` is then unspecified, but the
    /// engine stays valid and can retry once the fault clears.
    ///
    /// # Panics
    /// Task mode on an engine without a communication thread.
    pub fn spmv_checked(&mut self, mode: KernelMode) -> Result<(), CommError> {
        assert!(
            !mode.needs_comm_thread() || self.cfg.comm_thread,
            "task mode requires an engine configured with a communication thread"
        );
        self.spmv_calls += 1;
        let (b, lanes) = (self.bufs(), mode.lanes());
        let fault = OnceLock::new();
        self.team.run(|ctx| {
            // thread 0 runs the first lane, threads 1..=C the last
            let lane = lanes[ctx.tid.min(lanes.len() - 1)];
            self.run_lane(lane.iter().copied(), &b, &ctx, &fault);
        });
        fault.into_inner().map_or(Ok(()), Err)
    }

    /// [`Self::spmv_checked`] with `x` copied in and `y` out (two extra
    /// copies; iterative solvers should use the in-place API).
    pub fn apply_checked(
        &mut self,
        x: &[f64],
        y: &mut [f64],
        mode: KernelMode,
    ) -> Result<(), CommError> {
        assert_eq!(x.len(), self.plan.local_len);
        assert_eq!(y.len(), self.plan.local_len);
        self.x_local_mut().copy_from_slice(x);
        self.spmv_checked(mode)?;
        y.copy_from_slice(&self.y);
        Ok(())
    }

    /// Runs the gather and halo exchange alone, collectively: the Fig. 4a
    /// schedule without its compute step (for timing the exchange).
    pub fn halo_exchange_checked(&mut self) -> Result<(), CommError> {
        let (b, lane) = (self.bufs(), KernelMode::VectorNoOverlap.lanes()[0]);
        let fault = OnceLock::new();
        self.team.run(|ctx| {
            let exchange = lane.iter().filter(|s| !matches!(s, Step::Compute(_)));
            self.run_lane(exchange.copied(), &b, &ctx, &fault);
        });
        fault.into_inner().map_or(Ok(()), Err)
    }

    /// The node-level kernel in use.
    pub fn kernel_kind(&self) -> KernelKind {
        self.kernels[0].0.kind()
    }

    /// The compiled gather program (compression diagnostics).
    pub fn gather_program(&self) -> &GatherProgram {
        &self.exchange.gather
    }

    /// The halo part of the extended RHS (valid after an exchange).
    pub fn halo(&self) -> &[f64] {
        &self.x_ext[self.plan.local_len..]
    }

    /// Predicted per-exchange traffic of this rank: a count over the sends
    /// of the exchange it runs, classified by the active strategy's node
    /// map (flat counts every off-rank message as inter-node).
    pub fn exchange_traffic(&self) -> RankTraffic {
        let map = self.active_strategy().rank_node_map(self.comm.size());
        self.exchange.schedule.traffic(&map)
    }

    // -- the step interpreter ------------------------------------------------

    fn bufs(&mut self) -> Bufs {
        Bufs {
            x: self.x_ext.as_mut_ptr(),
            nloc: self.plan.local_len,
            nhalo: self.x_ext.len() - self.plan.local_len,
            send: self.send_buf.as_mut_ptr(),
            nsend: self.send_buf.len(),
            y: self.y.as_mut_ptr(),
        }
    }

    /// Runs one lane's steps in order as thread `ctx.tid`, stamping a
    /// trace span per step it executes. Thread 0 makes the communication
    /// calls (trace lane 0); compute thread `s`, the team's thread
    /// `tid - 1` when it has a communication thread and `tid` otherwise,
    /// runs share `s` of the gather and compute steps (lane `1 + s`).
    /// Wherever the lane switches between the two kinds, the team meets at
    /// a barrier, as OpenMP worksharing loops end at one: this orders the
    /// send after the gather and every halo read after the waitall. After
    /// a communication fault, recorded in `fault`, thread 0 runs only
    /// barriers, so no thread waits forever.
    fn run_lane(
        &self,
        steps: impl IntoIterator<Item = Step>,
        b: &Bufs,
        ctx: &TeamCtx<'_>,
        fault: &OnceLock<CommError>,
    ) {
        let trace = self.trace.as_deref();
        let share = ctx.tid.checked_sub(usize::from(self.cfg.comm_thread));
        let (mut pending, mut faulted, mut prev_comm) = (None, false, None);
        for step in steps {
            let barrier = matches!(step, Step::Barrier(_));
            if !barrier {
                if prev_comm.is_some_and(|c| c != step.is_comm()) {
                    ctx.barrier();
                }
                prev_comm = Some(step.is_comm());
            }
            // the trace lane this thread runs the step on, if it runs it
            let lane = match step {
                Step::Barrier(_) => Some(share.map_or(0, |s| s + 1)),
                _ if faulted => None,
                _ if step.is_comm() => (ctx.tid == 0).then_some(0),
                _ => share.map(|s| s + 1),
            };
            let Some(lane) = lane else { continue };
            let t0 = trace.map_or(0.0, |ts| ts.now());
            match self.step(step, b, ctx, lane, &mut pending) {
                Ok((bytes, nnz)) => {
                    if let Some(ts) = trace {
                        ts.record(lane, step.phase(), t0, ts.now(), bytes, nnz);
                    }
                }
                Err(e) => {
                    pending = None;
                    faulted = true;
                    let _ = fault.set(e);
                }
            }
        }
    }

    /// Executes one step on trace lane `lane` (a gather or compute step
    /// runs compute share `lane - 1`); returns the `(bytes, nonzeros)` its
    /// span carries.
    fn step<'b>(
        &self,
        step: Step,
        b: &'b Bufs,
        ctx: &TeamCtx<'_>,
        lane: usize,
        pending: &mut Option<Pending<'b>>,
    ) -> Result<(u64, u64), CommError> {
        let (ex, comm) = (&self.exchange, &self.comm);
        let (halo_bytes, send_bytes) = (8 * b.nhalo as u64, 8 * b.nsend as u64);
        const POSTED: &str = "the schedule posts receives before sending and waiting";
        match step {
            Step::PostRecvs => {
                // SAFETY: thread 0 is the halo's only user until its waitall.
                let halo = unsafe { b.halo_mut() };
                *pending = Some(ex.post_recvs(comm, halo)?);
                Ok((halo_bytes, 0))
            }
            Step::Gather => {
                // SAFETY: the local part of x is never written during an
                // SpMV; `b.send` holds the whole gather, each compute
                // thread passes its own share, and no step reads the buffer
                // before the gather is done.
                let n = unsafe { ex.gather_share(lane - 1, b.x(0..b.nloc), b.send) };
                Ok((8 * n as u64, 0))
            }
            Step::Send => {
                // SAFETY: the schedule sends only after the gather.
                let send = unsafe { b.send_buf() };
                ex.send(comm, send, pending.as_mut().expect(POSTED))?;
                Ok((send_bytes, 0))
            }
            Step::Waitall => {
                ex.finish(comm, pending.take().expect(POSTED))?;
                Ok((halo_bytes, 0))
            }
            Step::Compute(part) => Ok((0, self.compute(part, b, lane - 1))),
            Step::Barrier(_) => {
                ctx.barrier();
                Ok((0, 0))
            }
        }
    }

    /// Compute share `t` of a kernel step over one part of the matrix;
    /// returns the nonzeros multiplied. The local part reads the local
    /// columns of `x_ext`, the full and non-local parts all of it; the
    /// non-local part accumulates into `y` (the Eq. 2 second write).
    fn compute(&self, part: Part, b: &Bufs, t: usize) -> u64 {
        let mat = self.mats.part(part).view();
        let (kern, chunks) = &self.kernels[part as usize];
        let (rows, nnz) = chunks[t].clone();
        // SAFETY: the schedule reads the halo only after its waitall, and
        // the row chunks are disjoint, so the compute threads write
        // disjoint rows of y.
        unsafe {
            kern.spmv_rows_raw(mat, rows, b.x(0..mat.ncols()), b.y, part == Part::Nonlocal);
        }
        nnz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RowPartition;
    use spmv_comm::CommWorld;
    use spmv_matrix::{synthetic, vecops, CsrMatrix};
    use std::sync::Arc;

    /// World creation honouring the strategy's rank → node map.
    fn world_for(ranks: usize, cfg: &EngineConfig) -> Vec<spmv_comm::Comm> {
        crate::runner::create_world(ranks, cfg)
    }

    /// Runs `modes` on `matrix` with the given rank/thread layout and
    /// compares every result against the serial reference.
    fn check_all_modes(matrix: CsrMatrix, ranks: usize, cfg: EngineConfig) {
        let n = matrix.nrows();
        let x = vecops::random_vec(n, 1234);
        let mut y_ref = vec![0.0; n];
        matrix.spmv(&x, &mut y_ref);

        let matrix = Arc::new(matrix);
        let partition = Arc::new(RowPartition::by_nnz(&matrix, ranks));
        let modes: Vec<KernelMode> = if cfg.comm_thread {
            KernelMode::ALL.to_vec()
        } else {
            vec![KernelMode::VectorNoOverlap, KernelMode::VectorNaiveOverlap]
        };

        let comms = world_for(ranks, &cfg);
        let x = Arc::new(x);
        let modes = Arc::new(modes);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let matrix = Arc::clone(&matrix);
                let partition = Arc::clone(&partition);
                let x = Arc::clone(&x);
                let modes = Arc::clone(&modes);
                std::thread::spawn(move || {
                    let range = partition.range(c.rank());
                    let block = matrix.row_block(range.clone());
                    let mut eng = RankEngine::new(c, &block, &partition, cfg);
                    let mut results = Vec::new();
                    for &mode in modes.iter() {
                        eng.x_local_mut().copy_from_slice(&x[range.clone()]);
                        eng.spmv_checked(mode).expect("fault-free world");
                        results.push((mode, eng.y_local().to_vec()));
                    }
                    (range, results)
                })
            })
            .collect();

        for h in handles {
            let (range, results) = h.join().expect("rank panicked");
            for (mode, y) in results {
                let err = vecops::max_abs_diff(&y, &y_ref[range.clone()]);
                assert!(err < 1e-11, "{mode} wrong by {err} on rows {range:?}");
            }
        }
    }

    #[test]
    fn pure_mpi_vector_modes_match_reference() {
        let m = synthetic::random_banded_symmetric(400, 30, 6.0, 5);
        check_all_modes(m, 4, EngineConfig::pure_mpi());
    }

    #[test]
    fn hybrid_vector_modes_match_reference() {
        let m = synthetic::random_general(300, 300, 9, 8);
        check_all_modes(m, 3, EngineConfig::hybrid(4));
    }

    #[test]
    fn task_mode_matches_reference() {
        let m = synthetic::random_banded_symmetric(500, 40, 7.0, 13);
        check_all_modes(m, 4, EngineConfig::task_mode(3));
    }

    #[test]
    fn task_mode_single_compute_thread() {
        // paper: pure MPI + comm thread on the SMT sibling
        let m = synthetic::random_general(200, 200, 6, 3);
        check_all_modes(m, 5, EngineConfig::task_mode(1));
    }

    #[test]
    fn scattered_matrix_heavy_communication() {
        let m = synthetic::scattered(256, 16, 9);
        check_all_modes(m, 8, EngineConfig::task_mode(2));
    }

    #[test]
    fn diagonal_matrix_no_communication() {
        let m = CsrMatrix::from_diagonal(&vecops::random_vec(128, 2));
        check_all_modes(m, 4, EngineConfig::task_mode(2));
    }

    #[test]
    fn single_rank_all_modes() {
        let m = synthetic::random_general(150, 150, 8, 4);
        check_all_modes(m, 1, EngineConfig::task_mode(3));
    }

    #[test]
    fn more_ranks_than_rows() {
        let m = synthetic::tridiagonal(5, 2.0, -1.0);
        check_all_modes(m, 8, EngineConfig::pure_mpi());
    }

    #[test]
    fn repeated_spmv_is_stable() {
        // iterate y = A x ten times and compare against serial iteration
        let n = 200;
        let m = synthetic::random_banded_symmetric(n, 15, 5.0, 77);
        let x0 = vecops::random_vec(n, 5);
        let mut x_ref = x0.clone();
        let mut y_ref = vec![0.0; n];
        for _ in 0..10 {
            m.spmv(&x_ref, &mut y_ref);
            let norm = vecops::norm2(&y_ref);
            x_ref.copy_from_slice(&y_ref);
            vecops::scale(1.0 / norm, &mut x_ref);
        }

        let m = Arc::new(m);
        let p = Arc::new(RowPartition::by_nnz(&m, 3));
        let x0 = Arc::new(x0);
        let comms = CommWorld::create(3);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let m = Arc::clone(&m);
                let p = Arc::clone(&p);
                let x0 = Arc::clone(&x0);
                std::thread::spawn(move || {
                    let range = p.range(c.rank());
                    let block = m.row_block(range.clone());
                    let mut eng = RankEngine::new(c, &block, &p, EngineConfig::task_mode(2));
                    eng.x_local_mut().copy_from_slice(&x0[range.clone()]);
                    for _ in 0..10 {
                        eng.spmv_checked(KernelMode::TaskMode)
                            .expect("fault-free world");
                        // normalize globally
                        let local_ss: f64 = eng.y_local().iter().map(|v| v * v).sum();
                        let global_ss = eng
                            .comm()
                            .allreduce_scalar(local_ss, spmv_comm::collectives::ReduceOp::Sum);
                        let norm = global_ss.sqrt();
                        eng.promote_y_to_x();
                        for v in eng.x_local_mut() {
                            *v /= norm;
                        }
                    }
                    (range, eng.x_local().to_vec())
                })
            })
            .collect();
        for h in handles {
            let (range, x) = h.join().unwrap();
            let err = vecops::max_abs_diff(&x, &x_ref[range.clone()]);
            assert!(err < 1e-10, "iterated power step diverged: {err}");
        }
    }

    #[test]
    fn all_modes_with_every_kernel_kind() {
        let m = synthetic::random_banded_symmetric(300, 25, 6.0, 19);
        for kind in crate::kernels::KernelKind::candidates() {
            check_all_modes(m.clone(), 3, EngineConfig::task_mode(2).with_kernel(kind));
        }
    }

    #[test]
    fn node_aware_all_modes_match_reference() {
        let m = synthetic::random_banded_symmetric(400, 60, 6.0, 21);
        for rpn in [2, 3, 4, 8] {
            let cfg = EngineConfig::task_mode(2).with_comm_strategy(CommStrategy::NodeAware {
                ranks_per_node: rpn,
            });
            check_all_modes(m.clone(), 8, cfg);
        }
    }

    #[test]
    fn node_aware_pure_mpi_and_hybrid() {
        let m = synthetic::scattered(256, 16, 9);
        let na2 = CommStrategy::NodeAware { ranks_per_node: 2 };
        let na3 = CommStrategy::NodeAware { ranks_per_node: 3 };
        check_all_modes(
            m.clone(),
            6,
            EngineConfig::pure_mpi().with_comm_strategy(na2),
        );
        check_all_modes(m, 6, EngineConfig::hybrid(3).with_comm_strategy(na3));
    }

    #[test]
    fn node_aware_single_node_all_intra() {
        // every rank on one node: no wires, only direct intra messages
        let m = synthetic::random_general(200, 200, 7, 6);
        let cfg = EngineConfig::task_mode(2)
            .with_comm_strategy(CommStrategy::NodeAware { ranks_per_node: 4 });
        check_all_modes(m, 4, cfg);
    }

    /// Runs one halo exchange on a world whose stats classify messages by
    /// the given node map, returning the world-level deltas and the
    /// world's predicted traffic.
    fn exchange_stats(
        matrix: &CsrMatrix,
        ranks: usize,
        ranks_per_node: usize,
        cfg: EngineConfig,
    ) -> (spmv_comm::CommStats, RankTraffic) {
        let partition = RowPartition::by_nnz(matrix, ranks);
        let map = spmv_machine::RankNodeMap::contiguous(ranks, ranks_per_node);
        let comms = CommWorld::create_with_nodes((0..ranks).map(|r| map.node_of(r)).collect());
        std::thread::scope(|scope| {
            let partition = &partition;
            let handles: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    scope.spawn(move || {
                        let block = matrix.row_block(partition.range(c.rank()));
                        let mut eng = RankEngine::new(c, &block, partition, cfg);
                        // phase_delta brackets the exchange with the
                        // message-free barriers the world-global counters need
                        let (res, delta) = eng.phase_delta(|e| e.halo_exchange_checked());
                        res.expect("fault-free world");
                        (delta, eng.exchange_traffic())
                    })
                })
                .collect();
            let out: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            (out[0].0, out.iter().map(|(_, t)| *t).sum())
        })
    }

    #[test]
    fn node_aware_cuts_inter_node_messages_same_bytes() {
        // wide band: every rank's halo spans several ranks on each side, so
        // aggregation has plenty of per-node-pair messages to merge
        let m = synthetic::random_banded_symmetric(600, 150, 5.0, 33);
        let (ranks, rpn) = (8, 4);
        // explicit Flat: immune to the SPMV_COMM_STRATEGY CI override
        let (flat, _) = exchange_stats(
            &m,
            ranks,
            rpn,
            EngineConfig::pure_mpi().with_comm_strategy(CommStrategy::Flat),
        );
        let (na, _) = exchange_stats(
            &m,
            ranks,
            rpn,
            EngineConfig::pure_mpi().with_comm_strategy(CommStrategy::NodeAware {
                ranks_per_node: rpn,
            }),
        );
        assert!(
            na.inter_messages < flat.inter_messages,
            "node-aware {} vs flat {} inter-node messages",
            na.inter_messages,
            flat.inter_messages
        );
        assert_eq!(
            na.inter_bytes, flat.inter_bytes,
            "aggregation must not duplicate inter-node payload"
        );
        // 2 nodes → at most one wire per direction
        assert!(na.inter_messages <= 2);
    }

    #[test]
    fn predicted_traffic_matches_measured_traffic() {
        // the traffic counted over each rank's op list equals what one
        // exchange of those lists puts on the wire, on a world whose node
        // map is the strategy's (flat: one rank per node, so every
        // off-rank message is inter-node)
        let m = synthetic::random_banded_symmetric(600, 150, 5.0, 33);
        for (strategy, rpn) in [
            (CommStrategy::Flat, 1),
            (CommStrategy::NodeAware { ranks_per_node: 2 }, 2),
            (CommStrategy::NodeAware { ranks_per_node: 4 }, 4),
        ] {
            let cfg = EngineConfig::pure_mpi().with_comm_strategy(strategy);
            let (measured, predicted) = exchange_stats(&m, 8, rpn, cfg);
            let as_u64 = |n: usize| n as u64;
            let label = strategy.label();
            assert_eq!(
                (measured.intra_messages, measured.inter_messages),
                (as_u64(predicted.intra_msgs), as_u64(predicted.inter_msgs)),
                "{label}:{rpn} messages"
            );
            assert_eq!(
                (measured.intra_bytes, measured.inter_bytes),
                (as_u64(predicted.intra_bytes), as_u64(predicted.inter_bytes)),
                "{label}:{rpn} bytes"
            );
            assert_eq!(
                measured.messages,
                measured.intra_messages + measured.inter_messages
            );
            if strategy == CommStrategy::Flat {
                assert_eq!(
                    predicted.intra_msgs, 0,
                    "flat counts every message inter-node"
                );
            } else {
                assert!(predicted.intra_msgs > 0 && predicted.inter_msgs > 0);
            }
        }
    }

    #[test]
    fn exchange_traffic_prediction_matches_strategy() {
        let m = synthetic::random_banded_symmetric(400, 80, 5.0, 7);
        let cfg_na = EngineConfig::pure_mpi()
            .with_comm_strategy(CommStrategy::NodeAware { ranks_per_node: 4 });
        let traffic = crate::runner::run_spmd(&m, 8, cfg_na, |eng| eng.exchange_traffic());
        let total_inter: usize = traffic.iter().map(|t| t.inter_msgs).sum();
        let cfg_flat = EngineConfig::pure_mpi().with_comm_strategy(CommStrategy::Flat);
        let flat_traffic = crate::runner::run_spmd(&m, 8, cfg_flat, |eng| eng.exchange_traffic());
        let flat_inter: usize = flat_traffic.iter().map(|t| t.inter_msgs).sum();
        assert!(total_inter < flat_inter, "{total_inter} vs {flat_inter}");
    }

    #[test]
    fn gather_program_compresses_banded_sends() {
        // banded halos are contiguous row slices → few long runs
        let m = synthetic::tridiagonal(120, 2.0, -1.0);
        let p = RowPartition::by_nnz(&m, 1);
        let comms = CommWorld::create(1);
        let eng = RankEngine::new(
            comms.into_iter().next().unwrap(),
            &m,
            &p,
            EngineConfig::pure_mpi(),
        );
        assert_eq!(eng.gather_program().total_elems(), 0, "single rank");
    }

    #[test]
    fn part_chunks_match_chunks_of_the_stored_prefix() {
        // ragged rows, three ranks: every part's chunks and weights, cut
        // on `nnz_before`, equal those cut on a prefix summed from its rows
        use spmv_smp::workshare::balanced_chunks;
        let m = synthetic::power_law_rows(600, 7.0, 1.0, 13);
        let p = RowPartition::by_nnz(&m, 3);
        for plan in crate::plan::build_plans_serial(&m, &p) {
            let s = SplitMatrix::build(&m.row_block(p.range(plan.rank)), &plan);
            for part in [&s.full, &s.local, &s.nonlocal] {
                let v = part.view();
                let mut prefix = vec![0];
                for i in 0..v.nrows() {
                    prefix.push(prefix[i] + v.row_range(i).len());
                }
                for threads in [1, 3] {
                    let want: Vec<_> = balanced_chunks(&prefix, threads)
                        .into_iter()
                        .map(|r| (r.clone(), (prefix[r.end] - prefix[r.start]) as u64))
                        .collect();
                    assert_eq!(part_chunks(part, threads), want, "rank {}", plan.rank);
                }
                assert_eq!(part_chunks(part, 1), [(0..v.nrows(), part.nnz() as u64)]);
            }
        }
    }

    #[test]
    fn engine_reads_the_callers_values_in_place() {
        let m = synthetic::power_law_rows(300, 6.0, 1.0, 4);
        let p = RowPartition::by_nnz(&m, 1);
        let comms = CommWorld::create(1);
        let cfg = EngineConfig::pure_mpi();
        let eng = RankEngine::new(comms.into_iter().next().unwrap(), &m, &p, cfg);
        assert!(std::ptr::eq(
            eng.matrices().full.view().values(),
            m.values()
        ));
        // each rank's row block points into the whole matrix's values
        let values = m.values().as_ptr_range();
        let (lo, hi) = (values.start as usize, values.end as usize);
        let inside = crate::runner::run_spmd(&m, 3, cfg, |eng| {
            let v = eng.matrices().full.view().values().as_ptr_range();
            lo <= v.start as usize && v.end as usize <= hi
        });
        assert_eq!(inside, [true; 3]);
    }

    #[test]
    fn apply_copies_in_and_out() {
        let m = synthetic::tridiagonal(30, 2.0, -1.0);
        let x = vecops::random_vec(30, 3);
        let mut y_ref = vec![0.0; 30];
        m.spmv(&x, &mut y_ref);
        let p = RowPartition::by_nnz(&m, 1);
        let comms = CommWorld::create(1);
        let mut eng = RankEngine::new(
            comms.into_iter().next().unwrap(),
            &m,
            &p,
            EngineConfig::pure_mpi(),
        );
        let mut y = vec![0.0; 30];
        eng.apply_checked(&x, &mut y, KernelMode::VectorNoOverlap)
            .expect("single rank");
        assert!(vecops::max_abs_diff(&y, &y_ref) < 1e-13);
        assert_eq!(eng.spmv_calls(), 1);
    }

    #[test]
    fn task_mode_without_comm_thread_panics() {
        let m = synthetic::tridiagonal(10, 2.0, -1.0);
        let p = RowPartition::by_nnz(&m, 1);
        let comms = CommWorld::create(1);
        let mut eng = RankEngine::new(
            comms.into_iter().next().unwrap(),
            &m,
            &p,
            EngineConfig::hybrid(2),
        );
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.spmv_checked(KernelMode::TaskMode)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn engine_reports_plan_and_config() {
        let m = synthetic::tridiagonal(40, 2.0, -1.0);
        let p = RowPartition::by_nnz(&m, 1);
        let comms = CommWorld::create(1);
        let eng = RankEngine::new(
            comms.into_iter().next().unwrap(),
            &m,
            &p,
            EngineConfig::hybrid(2),
        );
        assert_eq!(eng.local_len(), 40);
        assert_eq!(eng.row_start(), 0);
        assert_eq!(eng.config().compute_threads, 2);
        assert_eq!(eng.plan().halo_len(), 0);
        assert_eq!(eng.matrices().nonlocal.nnz(), 0);
        assert_eq!(eng.comm().size(), 1);
    }

    #[test]
    fn demote_to_flat_midrun_matches_reference() {
        let n = 400;
        let m = synthetic::random_banded_symmetric(n, 60, 6.0, 21);
        let x = vecops::random_vec(n, 9);
        let mut y_ref = vec![0.0; n];
        m.spmv(&x, &mut y_ref);
        let cfg = EngineConfig::task_mode(2)
            .with_comm_strategy(CommStrategy::NodeAware { ranks_per_node: 4 });
        let ys = crate::runner::run_spmd(&m, 8, cfg, |eng| {
            let range = eng.row_start()..eng.row_start() + eng.local_len();
            eng.x_local_mut().copy_from_slice(&x[range]);
            eng.spmv_checked(KernelMode::VectorNoOverlap)
                .expect("fault-free world");
            let y_na = eng.y_local().to_vec();
            assert_eq!(eng.active_strategy().label(), "node-aware");
            eng.demote_to_flat();
            assert_eq!(eng.active_strategy(), CommStrategy::Flat);
            // same mode → same summation order → bit-identical result
            eng.spmv_checked(KernelMode::VectorNoOverlap)
                .expect("fault-free world");
            assert_eq!(y_na, eng.y_local(), "demotion changed the result");
            eng.spmv_checked(KernelMode::TaskMode)
                .expect("flat task mode still healthy");
            (eng.row_start(), eng.y_local().to_vec())
        });
        for (start, part) in ys {
            let err = vecops::max_abs_diff(&part, &y_ref[start..start + part.len()]);
            assert!(err < 1e-11, "flat-demoted result off by {err}");
        }
    }

    #[test]
    fn tracing_records_expected_phases_per_mode() {
        use spmv_obs::RunTrace;
        let m = synthetic::random_banded_symmetric(300, 40, 5.0, 3);
        let cfg = EngineConfig::task_mode(2).with_tracing(true);
        let parts = crate::runner::run_spmd(&m, 4, cfg, |eng| {
            assert!(eng.trace_sink().is_some());
            eng.x_local_mut().fill(1.0);
            for mode in KernelMode::ALL {
                eng.spmv_checked(mode).expect("fault-free world");
            }
            eng.take_trace().expect("tracing enabled")
        });
        let trace = RunTrace::from_ranks(parts);
        assert_eq!(trace.ranks(), vec![0, 1, 2, 3]);
        assert_eq!(trace.dropped, 0);
        let labels = trace.phase_labels();
        for mode in KernelMode::ALL {
            for step in mode.lanes().iter().flat_map(|l| l.iter()) {
                let want = step.phase().label();
                assert!(labels.contains(want), "missing {want}: {labels:?}");
            }
        }
        // every traced phase span carries a nonnegative duration on the
        // shared clock
        assert!(trace.events.iter().all(|e| e.t1 >= e.t0 && e.t0 >= 0.0));
        // task mode's comm thread recorded on lane 0, compute on 1..=2
        assert!(trace.events.iter().any(|e| e.lane == 0));
        assert!(trace.events.iter().any(|e| e.lane == 2));
    }

    #[test]
    fn disabled_tracing_carries_no_recorder() {
        let m = synthetic::tridiagonal(40, 2.0, -1.0);
        let p = RowPartition::by_nnz(&m, 1);
        let comms = CommWorld::create(1);
        let mut eng = RankEngine::new(
            comms.into_iter().next().unwrap(),
            &m,
            &p,
            EngineConfig::hybrid(2).with_tracing(false),
        );
        assert!(eng.trace_sink().is_none());
        eng.x_local_mut().fill(1.0);
        eng.spmv_checked(KernelMode::VectorNoOverlap)
            .expect("fault-free world");
        assert!(eng.take_trace().is_none());
    }

    #[test]
    fn degraded_leader_triggers_flat_fallback() {
        use spmv_comm::{CommWorld, FaultPlan};
        let m = synthetic::random_banded_symmetric(300, 40, 5.0, 3);
        let p = RowPartition::by_nnz(&m, 8);
        let na = CommStrategy::NodeAware { ranks_per_node: 4 };
        // rank 4 leads the second node; plan-degrading it must flip
        // FallbackToFlat engines to the flat exchange on every rank
        let comms = CommWorld::builder(8)
            .node_map((0..8).map(|r| r / 4).collect())
            .faults(FaultPlan::new(7).degrade_leader(4))
            .build();
        let strategies = crate::runner::run_spmd_on_world(
            comms,
            &m,
            &p,
            EngineConfig::hybrid(2)
                .with_comm_strategy(na)
                .with_degraded_policy(DegradedPolicy::FallbackToFlat),
            |eng| {
                eng.x_local_mut().fill(1.0);
                eng.spmv_checked(KernelMode::VectorNaiveOverlap)
                    .expect("degraded leaders only mark the plan");
                eng.active_strategy()
            },
        );
        assert!(strategies.iter().all(|s| *s == CommStrategy::Flat));
        // Strict engines keep the requested routing
        let comms = CommWorld::builder(8)
            .node_map((0..8).map(|r| r / 4).collect())
            .faults(FaultPlan::new(7).degrade_leader(4))
            .build();
        let strategies = crate::runner::run_spmd_on_world(
            comms,
            &m,
            &p,
            EngineConfig::hybrid(2).with_comm_strategy(na),
            |eng| eng.active_strategy(),
        );
        assert!(strategies.iter().all(|s| *s == na));
    }
}
