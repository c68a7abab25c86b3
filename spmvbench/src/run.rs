//! One benchmark run: build the workload, measure, check, report.

use crate::harness::{
    engine_config, plan_batches, spmd, time_batches, timed, BenchOp, BenchOps, Tally,
};
use crate::host::{rss_bytes, steal_s, Host};
use crate::layers::{self, RankLayers};
use crate::report::{Report, Value};
use crate::stats::{median, tail, Timed};
use crate::workloads::{Size, Workload, CG_MAX_ITER, CG_TOL, SHIFT_FRAC};
use spmv_comm::collectives::ReduceOp;
use spmv_matrix::{vecops, CsrMatrix};
use spmv_solvers::cg_solve;
use spmv_solvers::operator::gershgorin_bounds;
use std::path::Path;
use std::time::Instant;

/// Every end-to-end metric, in report order: name, unit, better.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("spmv_s", "s", "lower"),
    ("spmv_s_p90", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("cg_iters", "count", "lower"),
    ("engine_mb", "MB", "lower"),
];

/// Timed SpMV batches per run, at least; rounded up to a whole number per
/// round. p90 has ten batches beyond it from 100 kept batches on, so this
/// leaves room for batches set aside as disturbed.
pub const SPMV_BATCHES: usize = 130;
/// Shortest timed batch of CG solves, in seconds.
pub const SOLVE_BATCH_S: f64 = 0.05;
/// Relative ∞-norm error allowed between the distributed and serial `y`.
pub const SPMV_REL_TOL: f64 = 1e-12;
/// True relative residual a converged solve must reach (CG stops on its
/// recursive residual at [`CG_TOL`]; the true one may drift a little).
pub const RESIDUAL_TOL: f64 = 10.0 * CG_TOL;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// The seeded inputs and the serial references they are checked against.
pub struct Inputs {
    pub x: Vec<f64>,
    pub b: Vec<f64>,
    /// Diagonal shift of the solve (0 for sAMG).
    pub shift: f64,
    pub y_ref: Vec<f64>,
}

impl Inputs {
    fn new(matrix: &CsrMatrix, w: &Workload, seed: u64) -> Self {
        let n = matrix.nrows();
        let x = vecops::random_vec(n, seed);
        let b = vecops::random_vec(n, seed ^ 0x5851_f42d_4c95_7f2d);
        let shift = if w.shifted {
            let (lo, hi) = gershgorin_bounds(matrix);
            -lo + SHIFT_FRAC * (hi - lo)
        } else {
            0.0
        };
        let mut y_ref = vec![0.0; n];
        matrix.spmv(&x, &mut y_ref);
        Self { x, b, shift, y_ref }
    }
}

/// How a run divides `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub spmv_s: f64,
    pub solve_s: f64,
    /// Per layer measurement in a traced run.
    pub layer_s: f64,
}

impl Budget {
    fn new(w: &Workload, seconds: f64, trace: bool) -> Self {
        // A traced run spends half its time on the end-to-end loop (for the
        // tracing-overhead baseline) and the rest on the layers.
        let main = if trace { 0.5 * seconds } else { seconds };
        Self {
            spmv_s: main * (1.0 - w.solve_share),
            solve_s: main * w.solve_share,
            layer_s: 0.03 * seconds,
        }
    }
}

/// What one rank measured in one round.
pub struct RankOut {
    pub ready_s: f64,
    pub row_start: usize,
    pub kernel: String,
    pub per_batch: usize,
    pub spmv: Timed,
    pub solve: Timed,
    pub iters: Vec<usize>,
    pub y: Vec<f64>,
    pub repeat_bitwise: bool,
    pub x_sol: Vec<f64>,
    pub rss_after: Option<u64>,
    pub tally: Tally,
    pub layers: Option<RankLayers>,
}

/// One measurement round on a fresh engine: first SpMV and memory
/// reading, timed SpMV batches, the correctness SpMVs, timed CG solves,
/// and (when `layers` is set) the per-layer measurements on the same
/// engine. A run spreads its time over the workload's rounds.
fn round(m: &CsrMatrix, w: &Workload, inp: &Inputs, b: &Budget, layers: bool) -> Vec<RankOut> {
    let mode = w.mode;
    let (spmv_budget, solve_budget) = (b.spmv_s / w.rounds as f64, b.solve_s / w.rounds as f64);
    spmd(
        m,
        w.ranks,
        engine_config(w.threads, false, false),
        |eng, ready_s| {
            let comm = eng.comm().clone();
            let mut tally = Tally::default();
            let (lo, n) = (eng.row_start(), eng.local_len());
            eng.x_local_mut().copy_from_slice(&inp.x[lo..lo + n]);
            tally.count(eng.spmv_checked(mode).is_ok());
            comm.barrier();
            let rss_after = if comm.rank() == 0 { rss_bytes() } else { None };
            comm.barrier();

            let batches = SPMV_BATCHES.div_ceil(w.rounds);
            let mut spmv_call = || eng.spmv_checked(mode).is_ok();
            let per_batch = plan_batches(
                Some(&comm),
                spmv_budget,
                batches,
                &mut tally,
                &mut spmv_call,
            );
            let spmv = time_batches(Some(&comm), batches, per_batch, &mut tally, spmv_call);

            // correctness SpMVs (untimed): the seeded x, twice
            eng.x_local_mut().copy_from_slice(&inp.x[lo..lo + n]);
            tally.count(eng.spmv_checked(mode).is_ok());
            let y = eng.y_local().to_vec();
            tally.count(eng.spmv_checked(mode).is_ok());
            let repeat_bitwise = y
                .iter()
                .zip(eng.y_local())
                .all(|(a, b)| a.to_bits() == b.to_bits());

            // CG solves from x = 0, timed in batches of back-to-back solves
            // (one solve at first, then enough to fill SOLVE_BATCH_S) so a
            // sample of short solves is long enough to see stolen time
            let rhs = &inp.b[lo..lo + n];
            let (mut solve, mut iters, mut x_sol) = (Timed::default(), Vec::new(), Vec::new());
            let (mut per_batch_solves, mut spent) = (1, 0.0);
            while iters.is_empty() || spent < solve_budget {
                comm.barrier();
                let ((), dt, stolen) = timed(|| {
                    for _ in 0..per_batch_solves {
                        let mut x = vec![0.0; n];
                        let ops = BenchOps::new(&comm, false);
                        let mut op = BenchOp::new(eng, mode, inp.shift, false);
                        let r = cg_solve(&mut op, &ops, rhs, &mut x, CG_TOL, CG_MAX_ITER);
                        tally.count(op.failures == 0 && r.converged);
                        iters.push(r.iterations);
                        x_sol = x;
                    }
                });
                solve.push(dt / per_batch_solves as f64, stolen);
                let slowest = comm.allreduce_scalar(dt, ReduceOp::Max);
                spent += slowest;
                per_batch_solves = per_batch_solves
                    .max((SOLVE_BATCH_S / (slowest / per_batch_solves as f64)) as usize);
            }

            let layers =
                layers.then(|| layers::rank_layers(eng, &comm, w, inp, b.layer_s, &mut tally));
            RankOut {
                ready_s,
                row_start: lo,
                kernel: eng.kernel_kind().label(),
                per_batch,
                spmv,
                solve,
                iters,
                y,
                repeat_bitwise,
                x_sol,
                rss_after,
                tally,
                layers,
            }
        },
    )
}

/// Reassembles a distributed vector from `(row_start, part)` pieces.
fn assemble<'a>(n: usize, parts: impl Iterator<Item = (usize, &'a [f64])>) -> Vec<f64> {
    let mut v = vec![0.0; n];
    for (lo, p) in parts {
        v[lo..lo + p.len()].copy_from_slice(p);
    }
    v
}

/// `‖b − (A + σI) x‖ / ‖b‖`, computed serially.
fn true_residual(m: &CsrMatrix, shift: f64, x: &[f64], b: &[f64]) -> f64 {
    let mut r = vec![0.0; m.nrows()];
    m.spmv(x, &mut r);
    vecops::axpy(shift, x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    vecops::norm2(&r) / vecops::norm2(b).max(f64::MIN_POSITIVE)
}

/// The largest error, or NaN when any is NaN (so a NaN fails the check).
fn worst(errors: &[f64]) -> f64 {
    if errors.iter().any(|e| e.is_nan()) {
        f64::NAN
    } else {
        errors.iter().copied().fold(0.0, f64::max)
    }
}

/// The directory of the benchmark package, where results are written.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Runs one workload and returns its report (`correct == false` when any
/// operation or check failed).
pub fn run(args: &Args) -> Result<Report, String> {
    let w = Workload::named(&args.workload, args.size)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let host = Host::probe(package_dir().parent().unwrap_or(package_dir()));
    let t = Instant::now();
    let matrix = w.matrix();
    let build_s = t.elapsed().as_secs_f64();
    let inp = Inputs::new(&matrix, &w, args.seed);
    let budget = Budget::new(&w, args.seconds, args.trace);

    // one throwaway engine on a trivial matrix first, so thread stacks and
    // allocator arenas exist before the memory baseline is read
    let warm = CsrMatrix::identity(2 * w.ranks);
    spmd(
        &warm,
        w.ranks,
        engine_config(w.threads, false, false),
        |eng, _| eng.spmv_checked(w.mode).is_ok(),
    );
    let rss_before = rss_bytes();
    let steal_before = steal_s();
    let rounds: Vec<Vec<RankOut>> = (0..w.rounds)
        .map(|r| round(&matrix, &w, &inp, &budget, args.trace && r + 1 == w.rounds))
        .collect();
    let steal = steal_s().zip(steal_before).map_or(f64::NAN, |(a, b)| a - b);
    let setups: Vec<f64> = rounds
        .iter()
        .map(|outs| outs.iter().map(|o| o.ready_s).fold(0.0, f64::max))
        .collect();
    let setup_s = median(&setups);

    // correctness gate (outside every timed region), on every round
    let n = matrix.nrows();
    let (mut spmv_errs, mut residuals) = (Vec::new(), Vec::new());
    for outs in &rounds {
        let y = assemble(n, outs.iter().map(|o| (o.row_start, o.y.as_slice())));
        spmv_errs.push(vecops::rel_error(&y, &inp.y_ref));
        let x_sol = assemble(n, outs.iter().map(|o| (o.row_start, o.x_sol.as_slice())));
        residuals.push(true_residual(&matrix, inp.shift, &x_sol, &inp.b));
    }
    let (spmv_err, residual) = (worst(&spmv_errs), worst(&residuals));
    let outs = || rounds.iter().flatten();
    let iters = rounds[0][0].iters[0];
    let checks = [
        ("spmv_matches_serial", spmv_err <= SPMV_REL_TOL),
        ("repeat_spmv_bitwise", outs().all(|o| o.repeat_bitwise)),
        ("true_residual", residual <= RESIDUAL_TOL),
        (
            "cg_iters_repeat",
            outs().all(|o| o.iters.iter().all(|&i| i == iters)),
        ),
    ];
    let failed_checks = checks.iter().filter(|(_, ok)| !ok).count() as u64;
    let attempted = rounds.iter().map(|r| r[0].tally.attempted).sum::<u64>() + checks.len() as u64;
    let failed = rounds
        .iter()
        .map(|r| r.iter().map(|o| o.tally.failed).max().unwrap_or(0))
        .sum::<u64>()
        + failed_checks;
    let failed_frac = failed as f64 / attempted as f64;

    // slowest rank per sample within each round, then all rounds pooled;
    // samples the hypervisor disturbed are set aside (see Timed::steady)
    let merged = |f: fn(&RankOut) -> &Timed| {
        let mut all = Timed::default();
        for outs in &rounds {
            all.extend(Timed::slowest(
                &outs.iter().map(|o| f(o).clone()).collect::<Vec<_>>(),
            ));
        }
        all
    };
    let (spmv_all, solve_all) = (merged(|o| &o.spmv), merged(|o| &o.solve));
    let (spmv, solve) = (spmv_all.steady(), solve_all.steady());
    let spmv_s = median(&spmv);
    let spmv_tail = tail(&spmv);
    let engine_mb = match (rss_before, rounds[0][0].rss_after) {
        (Some(a), Some(b)) => (b as f64 - a as f64) / 1e6,
        _ => f64::NAN,
    };

    let mut report = Report {
        workload: w.name.into(),
        seed: args.seed,
        trace: args.trace,
        correct: failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
        context: Vec::new(),
    };
    let threads_engine = w.threads_total();
    let ctx = &mut report.context;
    ctx.push(("host".into(), host.to_value()));
    ctx.push((
        "layout".into(),
        Value::Obj(vec![
            ("ranks".into(), Value::Num(w.ranks as f64)),
            ("threads_per_rank".into(), Value::Num(w.threads as f64)),
            ("threads".into(), Value::Num(threads_engine as f64)),
            ("cores".into(), Value::Num(host.nproc as f64)),
            (
                "oversubscribed".into(),
                Value::Bool(threads_engine > host.nproc),
            ),
            ("mode".into(), Value::str(w.mode.to_string())),
            ("comm_strategy".into(), Value::str("flat")),
            (
                "kernels".into(),
                Value::Arr(rounds[0].iter().map(|o| Value::str(&o.kernel)).collect()),
            ),
        ]),
    ));
    ctx.push((
        "matrix".into(),
        Value::Obj(vec![
            ("rows".into(), Value::Num(n as f64)),
            ("nnz".into(), Value::Num(matrix.nnz() as f64)),
            ("build_s".into(), Value::Num(build_s)),
            ("shift".into(), Value::Num(inp.shift)),
        ]),
    ));
    ctx.push((
        "samples".into(),
        Value::Obj(vec![
            (
                "spmv_batches".into(),
                Value::Num(spmv_all.secs.len() as f64),
            ),
            ("spmv_batches_steady".into(), Value::Num(spmv.len() as f64)),
            ("rounds".into(), Value::Num(w.rounds as f64)),
            (
                "spmv_calls_per_batch".into(),
                Value::Arr(
                    rounds
                        .iter()
                        .map(|r| Value::Num(r[0].per_batch as f64))
                        .collect(),
                ),
            ),
            (
                "spmv_tail_percentile".into(),
                Value::Num(spmv_tail.percentile),
            ),
            (
                "solves".into(),
                Value::Num(rounds.iter().map(|r| r[0].iters.len()).sum::<usize>() as f64),
            ),
            (
                "solve_batches".into(),
                Value::Num(solve_all.secs.len() as f64),
            ),
            (
                "solve_batches_steady".into(),
                Value::Num(solve.len() as f64),
            ),
            (
                "setup_constructions".into(),
                Value::Num(setups.len() as f64),
            ),
            ("steal_s".into(), Value::Num(steal)),
        ]),
    ));
    ctx.push((
        "checks".into(),
        Value::Obj(
            checks
                .iter()
                .map(|(k, ok)| (k.to_string(), Value::Bool(*ok)))
                .chain([
                    ("spmv_rel_error_max".into(), Value::Num(spmv_err)),
                    ("true_residual_max".into(), Value::Num(residual)),
                    ("failed_frac".into(), Value::Num(failed_frac)),
                ])
                .collect(),
        ),
    ));

    if args.trace {
        let per_rank = rounds
            .into_iter()
            .flatten()
            .filter_map(|o| o.layers)
            .collect();
        layers::report(
            &mut report,
            per_rank,
            matrix,
            &w,
            &inp,
            &budget,
            spmv_s,
            args.size,
        );
    } else {
        let solve_s = median(&solve);
        let values = [
            spmv_s,
            spmv_tail.value,
            setup_s,
            solve_s,
            iters as f64,
            engine_mb,
        ];
        for ((name, unit, _), v) in END_TO_END.iter().zip(values) {
            report.metric(name, unit, v);
        }
        let samples = |v: &[f64]| Value::Arr(v.iter().map(|&s| Value::Num(s)).collect());
        report.context.push((
            "raw".into(),
            Value::Obj(vec![
                ("spmv_batch_s".into(), samples(&spmv_all.secs)),
                ("spmv_batch_steal".into(), samples(&spmv_all.steal)),
                ("solve_s".into(), samples(&solve_all.secs)),
                ("solve_steal".into(), samples(&solve_all.steal)),
                ("setup_s".into(), samples(&setups)),
            ]),
        ));
    }
    Ok(report)
}
