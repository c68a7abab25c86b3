//! Model programs derived from real communication plans.
//!
//! [`build_world`] turns a matrix, rank count, [`KernelMode`] and
//! [`CommStrategy`] into a [`ModelWorld`] whose procs execute the *same*
//! schedule the engine's threads execute — gather order, barriers, and the
//! [`ExchangeSchedule`] op lists the engine runs — over the rank's real
//! split matrices: exploring it checks the engine, not a toy.
//!
//! Buffer layout per rank `r` (three buffers each):
//! * `3r`     — `x_ext = [local | halo]`, the extended RHS;
//! * `3r + 1` — the gathered send buffer;
//! * `3r + 2` — `y`, the rank's slice of the result;
//!
//! followed by every node leader's relay buffers, rank by rank.
//!
//! Each lane of the mode's schedule ([`KernelMode::lanes`]) becomes one
//! proc per rank: vector modes have one, task mode two — the dedicated
//! comm thread and the compute team — synchronized by the B1/B2 barriers
//! of Fig. 4c (barrier ids `2r` and `2r + 1`). A posted receive blocks at
//! the wait for receives, in posting order (the substrate matches it only
//! when waited); sends are eager, so the wait for sends is a no-op.

use crate::explore::{MOp, ModelWorld, Program};
use spmv_core::exchange::{Dst, Src};
use spmv_core::plan::build_plans_serial;
use spmv_core::{
    Barrier, CommStrategy, ExchangeOp, ExchangeSchedule, KernelMode, Part, RowPartition,
    SplitMatrix, Step,
};
use spmv_matrix::CsrMatrix;
use std::rc::Rc;

/// Builds a model world for a distributed SpMV of `matrix` over `ranks`
/// nonzero-balanced ranks in `mode`, exchanging halos under `strategy`,
/// with `x` as the RHS. Returns the world plus the per-rank
/// `(row_start, local_len)` layout so callers can assemble the global
/// result from the terminal `y` buffers (`3r + 2`).
pub fn build_world(
    matrix: &CsrMatrix,
    x: &[f64],
    ranks: usize,
    mode: KernelMode,
    strategy: CommStrategy,
) -> (ModelWorld, Vec<(usize, usize)>) {
    assert_eq!(x.len(), matrix.ncols(), "x must match the matrix");
    let partition = RowPartition::by_nnz(matrix, ranks);
    let plans = build_plans_serial(matrix, &partition);
    let schedules = ExchangeSchedule::world(&plans, strategy.rank_node_map(ranks).as_ref());

    let mut buffers = Vec::with_capacity(3 * ranks);
    let mut layout = Vec::with_capacity(ranks);
    for plan in &plans {
        let range = partition.range(plan.rank);
        let mut x_ext = x[range].to_vec();
        x_ext.resize(plan.local_len + plan.halo_len(), 0.0);
        buffers.push(x_ext);
        buffers.push(vec![0.0; plan.send_len()]);
        buffers.push(vec![0.0; plan.local_len]);
        layout.push((plan.row_start, plan.local_len));
    }

    let mut procs = Vec::new();
    let mut barrier_groups = Vec::new();
    for (r, (plan, schedule)) in plans.iter().zip(&schedules).enumerate() {
        let (xb, sb, yb) = (3 * r, 3 * r + 1, 3 * r + 2);
        let relay_base = buffers.len();
        buffers.extend(schedule.relay_lens.iter().map(|&l| vec![0.0; l]));
        let src = |from: Src| match from {
            Src::Send => sb,
            Src::Relay(k) => relay_base + k,
        };
        let dst = |to: Dst| match to {
            Dst::Halo => (xb, plan.local_len),
            Dst::Relay(k) => (relay_base + k, 0),
        };
        let block = matrix.row_block(partition.range(r));
        let split = SplitMatrix::build(&block, plan);
        let spmv = |part: Part| MOp::Spmv {
            mat: split.part(part).clone(),
            x_buf: xb,
            y_buf: yb,
            accumulate: part == Part::Nonlocal,
        };
        let gather_indices = Rc::new(schedule.gather_indices.clone());

        let first_proc = procs.len();
        for lane in mode.lanes() {
            let (mut ops, mut posted) = (Vec::new(), Vec::new());
            for &step in lane.iter() {
                match step {
                    Step::Gather => ops.push(MOp::Gather {
                        src: xb,
                        indices: Rc::clone(&gather_indices),
                        dst: sb,
                        off: 0,
                    }),
                    Step::Compute(part) => ops.push(spmv(part)),
                    Step::Barrier(b) => ops.push(MOp::Barrier {
                        id: 2 * r + usize::from(b == Barrier::B2),
                    }),
                    Step::PostRecvs | Step::Send | Step::Waitall => {}
                }
                for op in schedule.ops_of(step) {
                    match *op {
                        ExchangeOp::Irecv((src, tag), ref r) => posted.push(MOp::Recv {
                            src,
                            tag,
                            buf: xb,
                            off: plan.local_len + r.start,
                            len: r.len(),
                        }),
                        ExchangeOp::Isend((dst, tag), from, ref r) => ops.push(MOp::Send {
                            dst,
                            tag,
                            buf: src(from),
                            range: (r.start, r.end),
                        }),
                        ExchangeOp::Recv((src, tag), k, len) => ops.push(MOp::Recv {
                            src,
                            tag,
                            buf: relay_base + k,
                            off: 0,
                            len,
                        }),
                        // a relay copy is a gather of contiguous indices
                        ExchangeOp::Copy(from, ref r, to, at) => ops.push(MOp::Gather {
                            src: src(from),
                            indices: Rc::new((r.start as u32..r.end as u32).collect()),
                            dst: dst(to).0,
                            off: dst(to).1 + at,
                        }),
                        ExchangeOp::WaitRecvs => ops.append(&mut posted),
                        ExchangeOp::WaitSends => {}
                    }
                }
            }
            procs.push(Program { rank: r, ops });
        }
        if mode.lanes().len() > 1 {
            barrier_groups.resize(2 * r + 2, Vec::new());
            let members: Vec<usize> = (first_proc..procs.len()).collect();
            barrier_groups[2 * r] = members.clone();
            barrier_groups[2 * r + 1] = members;
        }
    }

    (
        ModelWorld {
            procs,
            buffers,
            barrier_groups,
        },
        layout,
    )
}

/// Assembles the global result vector from a terminal buffer set returned
/// by [`crate::explore::ExploreReport::terminal_buffers`].
pub fn assemble_y(terminal: &[Vec<f64>], layout: &[(usize, usize)]) -> Vec<f64> {
    let n = layout.iter().map(|&(s, l)| s + l).max().unwrap_or(0);
    let mut y = vec![0.0; n];
    for (r, &(start, len)) in layout.iter().enumerate() {
        y[start..start + len].copy_from_slice(&terminal[3 * r + 2]);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use spmv_matrix::{synthetic, vecops};

    #[test]
    fn all_modes_explore_exhaustively_on_three_ranks() {
        let m = synthetic::tridiagonal(24, 2.0, -1.0);
        let x = vecops::random_vec(24, 5);
        let mut y_ref = vec![0.0; 24];
        m.spmv(&x, &mut y_ref);
        for mode in KernelMode::ALL {
            let (world, layout) = build_world(&m, &x, 3, mode, CommStrategy::Flat);
            let report = Explorer::new(world)
                .run()
                .unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert!(
                report.schedules > 1,
                "{mode}: a 3-rank world must interleave"
            );
            let y = assemble_y(&report.terminal_buffers, &layout);
            let err = vecops::max_abs_diff(&y, &y_ref);
            assert!(err < 1e-11, "{mode}: model result drifts ({err})");
        }
    }

    #[test]
    fn task_mode_four_ranks_with_wider_halo() {
        let m = synthetic::random_banded_symmetric(32, 5, 3.0, 11);
        let x = vecops::random_vec(32, 9);
        let mut y_ref = vec![0.0; 32];
        m.spmv(&x, &mut y_ref);
        let (world, layout) = build_world(&m, &x, 4, KernelMode::TaskMode, CommStrategy::Flat);
        let report = Explorer::new(world).run().expect("task mode explores");
        let y = assemble_y(&report.terminal_buffers, &layout);
        assert!(vecops::max_abs_diff(&y, &y_ref) < 1e-11);
        assert!(report.states > 100, "8 procs should branch substantially");
    }

    #[test]
    fn node_aware_worlds_explore_to_the_flat_bits() {
        // 4 ranks on 2 nodes: each leader ships, wires, lands and forwards
        let na = CommStrategy::NodeAware { ranks_per_node: 2 };
        for m in [
            synthetic::tridiagonal(24, 2.0, -1.0),
            synthetic::random_banded_symmetric(32, 5, 3.0, 11),
        ] {
            let x = vecops::random_vec(m.nrows(), 9);
            for mode in KernelMode::ALL {
                let explore = |strategy| {
                    let (world, layout) = build_world(&m, &x, 4, mode, strategy);
                    let report = Explorer::new(world)
                        .run()
                        .unwrap_or_else(|e| panic!("{mode} ({strategy:?}): {e}"));
                    let y = assemble_y(&report.terminal_buffers, &layout);
                    (report, y)
                };
                let (flat, y_flat) = explore(CommStrategy::Flat);
                let (report, y) = explore(na);
                assert!(report.schedules > 1, "{mode}: leaders must interleave");
                assert!(
                    report.transitions > flat.transitions,
                    "{mode}: the relay adds steps"
                );
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&y), bits(&y_flat), "{mode}: node-aware y differs");
            }
        }
    }
}
