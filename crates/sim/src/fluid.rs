//! The fluid-flow discrete-event engine.
//!
//! Lanes (sequential activity streams) drain *bytes* against shared
//! resources whose instantaneous rates follow max-min-style equal splits:
//!
//! * compute/gather activities share their locality domain's bandwidth
//!   according to the measured saturation curve `b(k)` — `k` is the total
//!   number of threads currently active on the LD, and each lane receives
//!   the share proportional to its thread count;
//! * messages share per-node injection/ejection capacity, the intranode
//!   copy bandwidth (messages between ranks of one node), and — on torus
//!   networks — the per-link capacity along their dimension-order route.
//!
//! Between events all rates are constant, so the next completion time is
//! exact; the engine advances to it, processes completions, re-derives
//! rates, and repeats. Messages additionally pay a latency phase that
//! elapses only while the progress rule allows the message to move.

use crate::program::{build_program, Op, SimConfig};
use spmv_core::{Barrier, RankWorkload, Step};
use spmv_machine::network::TorusLink;
use spmv_machine::topology::ClusterSpec;
use spmv_machine::LayoutPlan;
use spmv_obs::{Phase, RunTrace, SpanEvent};
use std::collections::HashMap;

/// Result of one simulated SpMV.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Makespan of the whole operation (seconds).
    pub time_s: f64,
    /// Aggregate performance: total flops / makespan (GFlop/s).
    pub gflops: f64,
    /// Finish time of each rank.
    pub per_rank_finish_s: Vec<f64>,
    /// Total internode + intranode messages.
    pub messages: usize,
    /// Total payload bytes moved between ranks.
    pub bytes_on_wire: f64,
    /// Activity trace: one span per lane segment, typed by the step's
    /// phase (`bytes` and `nnz` are 0), on the simulated clock.
    pub trace: RunTrace,
}

#[derive(Debug, Clone, PartialEq)]
enum LaneState {
    Ready,
    Timed { remaining_s: f64 },
    Draining { remaining_bytes: f64 },
    Waiting,
    Barrier(Barrier),
    Done,
}

struct Lane {
    rank: usize,
    lane_idx: usize,
    ops: Vec<Op>,
    pc: usize,
    state: LaneState,
    /// Compute threads backing Draining ops, per global LD id.
    threads_per_ld: Vec<(usize, f64)>,
    seg_start: f64,
    seg_phase: Option<Phase>,
}

impl Lane {
    fn inside_mpi(&self) -> bool {
        match self.state {
            LaneState::Timed { .. } | LaneState::Waiting => {
                self.pc < self.ops.len() && self.ops[self.pc].step.is_comm()
            }
            _ => false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum MsgState {
    Unposted,
    Latency { remaining_s: f64 },
    Draining { remaining_bytes: f64 },
    Delivered,
}

struct Msg {
    src_rank: usize,
    dst_rank: usize,
    src_node: usize,
    dst_node: usize,
    bytes: f64,
    eager: bool,
    intranode: bool,
    links: Vec<TorusLink>,
    state: MsgState,
}

/// Simulates one SpMV of `workloads` (rank `i` ↔ `layout.ranks[i]`) on the
/// cluster.
///
/// # Panics
/// If the layout and workload counts disagree, or if the system deadlocks
/// (which would indicate an internal inconsistency — the kernels as built
/// cannot deadlock).
pub fn simulate_spmv(
    cluster: &ClusterSpec,
    layout: &LayoutPlan,
    workloads: &[RankWorkload],
    cfg: &SimConfig,
) -> SimResult {
    assert_eq!(
        layout.num_ranks(),
        workloads.len(),
        "layout ranks and workloads must correspond"
    );
    let lds_per_node = cluster.node.num_lds();
    let ld_specs = cluster.node.lds();

    // ---- build lanes -------------------------------------------------------
    let mut lanes: Vec<Lane> = Vec::new();
    for (r, w) in workloads.iter().enumerate() {
        let placement = &layout.ranks[r];
        let program = build_program(w, cfg);
        let per_ld_threads = placement.compute_threads_per_ld();
        let compute_tpl: Vec<(usize, f64)> = placement
            .lds
            .iter()
            .zip(per_ld_threads.iter())
            .filter(|(_, &t)| t > 0)
            .map(|(&ld, &t)| (ld, t as f64))
            .collect();
        let n_lanes = program.lanes.len();
        for (li, ops) in program.lanes.into_iter().enumerate() {
            // In task mode lane 0 is the comm lane: its (rare) draining ops
            // would run on one thread; the compute lane carries the threads.
            let is_comm_lane = n_lanes == 2 && li == 0;
            let tpl = if is_comm_lane {
                vec![(placement.lds[0], 1.0)]
            } else {
                compute_tpl.clone()
            };
            lanes.push(Lane {
                rank: r,
                lane_idx: li,
                ops,
                pc: 0,
                state: LaneState::Ready,
                threads_per_ld: tpl,
                seg_start: 0.0,
                seg_phase: None,
            });
        }
    }

    // ---- build messages ----------------------------------------------------
    let latency_s = cluster.network.latency_s();
    let intralat_s = cluster.intranode.latency_us * 1e-6;
    let mut msgs: Vec<Msg> = Vec::new();
    for (r, w) in workloads.iter().enumerate() {
        let src_node = layout.ranks[r].node;
        for &(peer, bytes) in &w.sends {
            let dst_node = layout.ranks[peer].node;
            let intranode = src_node == dst_node;
            msgs.push(Msg {
                src_rank: r,
                dst_rank: peer,
                src_node,
                dst_node,
                bytes: bytes as f64,
                eager: bytes <= cfg.eager_threshold_bytes,
                intranode,
                links: if intranode {
                    Vec::new()
                } else {
                    cluster.network.route(src_node, dst_node, cluster.num_nodes)
                },
                state: MsgState::Unposted,
            });
        }
    }
    let total_msgs = msgs.len();
    let total_wire_bytes: f64 = msgs.iter().map(|m| m.bytes).sum();

    // per-rank completion counters for WaitAll
    let nranks = workloads.len();
    let mut incoming_pending = vec![0usize; nranks];
    let mut outgoing_rdv_pending = vec![0usize; nranks];
    for m in &msgs {
        incoming_pending[m.dst_rank] += 1;
        if !m.eager {
            outgoing_rdv_pending[m.src_rank] += 1;
        }
    }

    // message index by source rank, for posting at SendAll completion
    let mut msgs_by_src: Vec<Vec<usize>> = vec![Vec::new(); nranks];
    for (i, m) in msgs.iter().enumerate() {
        msgs_by_src[m.src_rank].push(i);
    }

    // ---- engine state ------------------------------------------------------
    let mut now = 0.0f64;
    let mut rank_finish = vec![0.0f64; nranks];
    let mut lanes_done = 0usize;
    let mut spans: Vec<SpanEvent> = Vec::new();
    let total_flops: f64 = workloads.iter().map(|w| w.flops()).sum();

    // cached inside-MPI per rank (recomputed in cascade)
    let mut rank_inside_mpi = vec![false; nranks];

    let recompute_inside = |lanes: &[Lane], rank_inside_mpi: &mut [bool]| {
        rank_inside_mpi.iter_mut().for_each(|b| *b = false);
        for l in lanes {
            if l.inside_mpi() {
                rank_inside_mpi[l.rank] = true;
            }
        }
    };

    // barrier bookkeeping: (rank, id) -> count of arrived lanes
    let mut barrier_arrivals: HashMap<(usize, Barrier), usize> = HashMap::new();

    // Zero-time state cascade. Returns when no lane can make progress
    // without time passing.
    macro_rules! record_segment {
        ($lane:expr, $phase:expr) => {
            if let Some(phase) = $lane.seg_phase.filter(|_| now > $lane.seg_start) {
                spans.push(SpanEvent {
                    phase,
                    rank: $lane.rank,
                    lane: $lane.lane_idx,
                    t0: $lane.seg_start,
                    t1: now,
                    bytes: 0,
                    nnz: 0,
                });
            }
            $lane.seg_start = now;
            $lane.seg_phase = $phase;
        };
    }

    let mut progressed = true;
    while progressed || lanes_done < lanes.len() {
        // ---------------- cascade of instantaneous transitions ----------------
        #[allow(clippy::needless_range_loop)]
        loop {
            let mut changed = false;
            for li in 0..lanes.len() {
                // take lane state decisions one at a time
                let advance = {
                    let lane = &lanes[li];
                    match &lane.state {
                        LaneState::Done => false,
                        LaneState::Ready => true,
                        LaneState::Timed { remaining_s } => *remaining_s <= 1e-18,
                        LaneState::Draining { remaining_bytes } => *remaining_bytes <= 1e-9,
                        LaneState::Waiting => {
                            let r = lane.rank;
                            incoming_pending[r] == 0 && outgoing_rdv_pending[r] == 0
                        }
                        LaneState::Barrier(k) => {
                            *barrier_arrivals.get(&(lane.rank, *k)).unwrap_or(&0) >= 2
                        }
                    }
                };
                if !advance {
                    continue;
                }
                changed = true;
                // complete the current op's side effects
                let lane = &mut lanes[li];
                let completing_pc = lane.pc;
                match lane.state.clone() {
                    LaneState::Ready => {} // nothing completed; entering ops[pc]
                    LaneState::Barrier(_) => {
                        lane.pc += 1;
                    }
                    LaneState::Waiting => {
                        lane.pc += 1;
                    }
                    LaneState::Timed { .. } => {
                        if lane.ops[completing_pc].step == Step::Send {
                            // post this rank's messages
                            let r = lane.rank;
                            for &mi in &msgs_by_src[r] {
                                if msgs[mi].state == MsgState::Unposted {
                                    let lat = if msgs[mi].intranode {
                                        intralat_s
                                    } else {
                                        latency_s
                                    };
                                    msgs[mi].state = MsgState::Latency { remaining_s: lat };
                                }
                            }
                        }
                        lane.pc += 1;
                    }
                    LaneState::Draining { .. } => {
                        lane.pc += 1;
                    }
                    LaneState::Done => unreachable!(),
                }
                // enter the next op (or finish)
                let lane = &mut lanes[li];
                if lane.pc >= lane.ops.len() {
                    record_segment!(lane, None);
                    lane.state = LaneState::Done;
                    lanes_done += 1;
                    rank_finish[lane.rank] = rank_finish[lane.rank].max(now);
                    continue;
                }
                let w = &workloads[lane.rank];
                let op: Op = lane.ops[lane.pc];
                record_segment!(lane, Some(op.step.phase()));
                lane.state = match op.step {
                    Step::PostRecvs => LaneState::Timed {
                        remaining_s: w.recvs.len() as f64 * cfg.post_overhead_s,
                    },
                    Step::Send => LaneState::Timed {
                        remaining_s: w.sends.len() as f64 * cfg.post_overhead_s,
                    },
                    Step::Gather | Step::Compute(_) => LaneState::Draining {
                        remaining_bytes: op.bytes,
                    },
                    Step::Waitall => LaneState::Waiting,
                    Step::Barrier(k) => {
                        *barrier_arrivals.entry((lane.rank, k)).or_insert(0) += 1;
                        LaneState::Barrier(k)
                    }
                };
            }
            recompute_inside(&lanes, &mut rank_inside_mpi);
            if !changed {
                break;
            }
        }

        if lanes_done == lanes.len() {
            break;
        }

        // ---------------- rate derivation ----------------
        // compute: total active threads per global LD
        let mut ld_active: HashMap<usize, f64> = HashMap::new();
        for lane in &lanes {
            if matches!(lane.state, LaneState::Draining { .. }) {
                for &(ld, t) in &lane.threads_per_ld {
                    *ld_active.entry(ld).or_insert(0.0) += t;
                }
            }
        }
        let ld_bw = |ld: usize, active: f64| -> f64 {
            let spec = ld_specs[ld % lds_per_node];
            spec.spmv_bw.bandwidth_f(active) * 1e9
        };

        // messages: eligibility and flow counts
        let inj_bps = cluster.network.injection_bps();
        let link_bps = cluster.network.link_bps();
        let intranode_bps = cluster.intranode.bandwidth_gbs * 1e9;
        let mut inj_count: HashMap<usize, usize> = HashMap::new();
        let mut ej_count: HashMap<usize, usize> = HashMap::new();
        let mut intra_count: HashMap<usize, usize> = HashMap::new();
        let mut link_count: HashMap<TorusLink, usize> = HashMap::new();
        let eligible: Vec<bool> = msgs
            .iter()
            .map(|m| {
                let moving = matches!(
                    m.state,
                    MsgState::Latency { .. } | MsgState::Draining { .. }
                );
                moving
                    && cfg.progress.message_may_flow(
                        m.eager,
                        rank_inside_mpi[m.src_rank],
                        rank_inside_mpi[m.dst_rank],
                    )
            })
            .collect();
        for (i, m) in msgs.iter().enumerate() {
            if !eligible[i] || !matches!(m.state, MsgState::Draining { .. }) {
                continue;
            }
            if m.intranode {
                *intra_count.entry(m.src_node).or_insert(0) += 1;
            } else {
                *inj_count.entry(m.src_node).or_insert(0) += 1;
                *ej_count.entry(m.dst_node).or_insert(0) += 1;
                for l in &m.links {
                    *link_count.entry(*l).or_insert(0) += 1;
                }
            }
        }
        let msg_rate = |i: usize, m: &Msg| -> f64 {
            if m.intranode {
                intranode_bps / intra_count[&m.src_node] as f64
            } else {
                let mut rate = inj_bps / inj_count[&m.src_node] as f64;
                rate = rate.min(inj_bps / ej_count[&m.dst_node] as f64);
                if let Some(lb) = link_bps {
                    for l in &m.links {
                        rate = rate.min(lb / link_count[l] as f64);
                    }
                }
                let _ = i;
                rate
            }
        };

        // ---------------- next event time ----------------
        let mut dt = f64::INFINITY;
        for lane in &lanes {
            match &lane.state {
                LaneState::Timed { remaining_s } => dt = dt.min(*remaining_s),
                LaneState::Draining { remaining_bytes } => {
                    // lane's aggregate rate over its LDs
                    let mut rate = 0.0;
                    for &(ld, t) in &lane.threads_per_ld {
                        let active = ld_active[&ld];
                        rate += ld_bw(ld, active) * t / active;
                    }
                    if rate > 0.0 {
                        dt = dt.min(remaining_bytes / rate);
                    }
                }
                _ => {}
            }
        }
        for (i, m) in msgs.iter().enumerate() {
            if !eligible[i] {
                continue;
            }
            match m.state {
                MsgState::Latency { remaining_s } => dt = dt.min(remaining_s),
                MsgState::Draining { remaining_bytes } => {
                    let rate = msg_rate(i, m);
                    if rate > 0.0 {
                        dt = dt.min(remaining_bytes / rate);
                    }
                }
                _ => {}
            }
        }

        if !dt.is_finite() {
            let stuck: Vec<String> = lanes
                .iter()
                .filter(|l| !matches!(l.state, LaneState::Done))
                .map(|l| {
                    format!(
                        "rank {} lane {} pc {} {:?}",
                        l.rank, l.lane_idx, l.pc, l.state
                    )
                })
                .collect();
            panic!("simulation deadlock at t = {now}: {stuck:?}");
        }

        // ---------------- advance ----------------
        now += dt;
        for lane in &mut lanes {
            match &mut lane.state {
                LaneState::Timed { remaining_s } => {
                    *remaining_s = (*remaining_s - dt).max(0.0);
                }
                LaneState::Draining { remaining_bytes } => {
                    let mut rate = 0.0;
                    for &(ld, t) in &lane.threads_per_ld {
                        let active = ld_active[&ld];
                        rate += ld_bw(ld, active) * t / active;
                    }
                    *remaining_bytes = (*remaining_bytes - rate * dt).max(0.0);
                }
                _ => {}
            }
        }
        for i in 0..msgs.len() {
            if !eligible[i] {
                continue;
            }
            match msgs[i].state {
                MsgState::Latency { remaining_s } => {
                    let left = remaining_s - dt;
                    msgs[i].state = if left <= 1e-18 {
                        MsgState::Draining {
                            remaining_bytes: msgs[i].bytes,
                        }
                    } else {
                        MsgState::Latency { remaining_s: left }
                    };
                    // zero-byte messages deliver immediately after latency
                    if let MsgState::Draining { remaining_bytes } = msgs[i].state {
                        if remaining_bytes <= 0.0 {
                            deliver(
                                &mut msgs[i],
                                &mut incoming_pending,
                                &mut outgoing_rdv_pending,
                            );
                        }
                    }
                }
                MsgState::Draining { remaining_bytes } => {
                    let rate = msg_rate(i, &msgs[i]);
                    let left = remaining_bytes - rate * dt;
                    if left <= 1e-9 {
                        deliver(
                            &mut msgs[i],
                            &mut incoming_pending,
                            &mut outgoing_rdv_pending,
                        );
                    } else {
                        msgs[i].state = MsgState::Draining {
                            remaining_bytes: left,
                        };
                    }
                }
                _ => {}
            }
        }
        progressed = true;
    }

    SimResult {
        time_s: now,
        gflops: if now > 0.0 {
            total_flops / now / 1e9
        } else {
            f64::INFINITY
        },
        per_rank_finish_s: rank_finish,
        messages: total_msgs,
        bytes_on_wire: total_wire_bytes,
        trace: RunTrace::from_events(spans),
    }
}

fn deliver(m: &mut Msg, incoming: &mut [usize], outgoing_rdv: &mut [usize]) {
    m.state = MsgState::Delivered;
    incoming[m.dst_rank] -= 1;
    if !m.eager {
        outgoing_rdv[m.src_rank] -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::ProgressModel;
    use spmv_core::{workload, KernelMode, RowPartition};
    use spmv_machine::{plan_layout, presets, CommThreadPlacement, HybridLayout};
    use spmv_matrix::synthetic;

    fn setup(
        n: usize,
        nodes: usize,
        layout: HybridLayout,
        comm: CommThreadPlacement,
    ) -> (
        spmv_machine::topology::ClusterSpec,
        spmv_machine::LayoutPlan,
        Vec<RankWorkload>,
    ) {
        let cluster = presets::westmere_cluster(nodes);
        let plan = plan_layout(&cluster.node, nodes, layout, comm).unwrap();
        let m = synthetic::random_banded_symmetric(n, n / 10, 7.0, 3);
        let p = RowPartition::by_nnz(&m, plan.num_ranks());
        let w = workload::analyze(&m, &p);
        (cluster, plan, w)
    }

    #[test]
    fn single_node_no_comm_runs() {
        let (cluster, plan, w) = setup(
            20_000,
            1,
            HybridLayout::ProcessPerNode,
            CommThreadPlacement::None,
        );
        let r = simulate_spmv(
            &cluster,
            &plan,
            &w,
            &SimConfig::new(KernelMode::VectorNoOverlap),
        );
        assert!(r.time_s > 0.0);
        assert!(r.gflops > 0.1, "{}", r.gflops);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn single_node_matches_roofline_ballpark() {
        // One Westmere node on a big local matrix: the simulated GFlop/s
        // must be near the bandwidth model node_spmv_bw / balance.
        let (cluster, plan, w) = setup(
            200_000,
            1,
            HybridLayout::ProcessPerNode,
            CommThreadPlacement::None,
        );
        let r = simulate_spmv(
            &cluster,
            &plan,
            &w,
            &SimConfig::new(KernelMode::VectorNoOverlap),
        );
        let nnzr = w[0].nnz() as f64 / w[0].rows as f64;
        let balance = spmv_model::code_balance_crs(nnzr, 0.0);
        let expect = cluster.node.node_spmv_bw_gbs() / balance;
        assert!(
            (r.gflops - expect).abs() / expect < 0.15,
            "sim {} vs roofline {expect}",
            r.gflops
        );
    }

    #[test]
    fn task_mode_beats_naive_overlap_when_comm_bound() {
        // strongly coupled matrix on several nodes: the paper's headline
        let m = synthetic::scattered(60_000, 12, 5);
        let nodes = 4;
        let cluster = presets::westmere_cluster(nodes);
        let layout = plan_layout(
            &cluster.node,
            nodes,
            HybridLayout::ProcessPerLd,
            CommThreadPlacement::None,
        )
        .unwrap();
        let layout_task = plan_layout(
            &cluster.node,
            nodes,
            HybridLayout::ProcessPerLd,
            CommThreadPlacement::SmtSibling,
        )
        .unwrap();
        let p = RowPartition::by_nnz(&m, layout.num_ranks());
        let w = workload::analyze(&m, &p);
        let naive = simulate_spmv(
            &cluster,
            &layout,
            &w,
            &SimConfig::new(KernelMode::VectorNaiveOverlap),
        );
        let novl = simulate_spmv(
            &cluster,
            &layout,
            &w,
            &SimConfig::new(KernelMode::VectorNoOverlap),
        );
        let task = simulate_spmv(
            &cluster,
            &layout_task,
            &w,
            &SimConfig::new(KernelMode::TaskMode),
        );
        assert!(
            task.gflops > novl.gflops * 1.05,
            "task {} must beat no-overlap {}",
            task.gflops,
            novl.gflops
        );
        assert!(
            naive.gflops <= novl.gflops * 1.02,
            "naive overlap {} must not beat no-overlap {} (no async progress!)",
            naive.gflops,
            novl.gflops
        );
    }

    #[test]
    fn async_progress_rescues_naive_overlap() {
        let m = synthetic::scattered(60_000, 12, 6);
        let nodes = 4;
        let cluster = presets::westmere_cluster(nodes);
        let layout = plan_layout(
            &cluster.node,
            nodes,
            HybridLayout::ProcessPerLd,
            CommThreadPlacement::None,
        )
        .unwrap();
        let p = RowPartition::by_nnz(&m, layout.num_ranks());
        let w = workload::analyze(&m, &p);
        let std_ = simulate_spmv(
            &cluster,
            &layout,
            &w,
            &SimConfig::new(KernelMode::VectorNaiveOverlap),
        );
        let asy = simulate_spmv(
            &cluster,
            &layout,
            &w,
            &SimConfig::new(KernelMode::VectorNaiveOverlap).with_progress(ProgressModel::Async),
        );
        assert!(
            asy.gflops > std_.gflops * 1.05,
            "async {} should beat standard {}",
            asy.gflops,
            std_.gflops
        );
    }

    #[test]
    fn weakly_coupled_matrix_shows_no_task_mode_advantage() {
        // the Fig. 6 situation: nearest-neighbour banded matrix
        let m = synthetic::tridiagonal(500_000, 2.0, -1.0);
        let nodes = 4;
        let cluster = presets::westmere_cluster(nodes);
        let layout = plan_layout(
            &cluster.node,
            nodes,
            HybridLayout::ProcessPerLd,
            CommThreadPlacement::None,
        )
        .unwrap();
        let layout_task = plan_layout(
            &cluster.node,
            nodes,
            HybridLayout::ProcessPerLd,
            CommThreadPlacement::SmtSibling,
        )
        .unwrap();
        let p = RowPartition::by_nnz(&m, layout.num_ranks());
        let w = workload::analyze(&m, &p);
        let novl = simulate_spmv(
            &cluster,
            &layout,
            &w,
            &SimConfig::new(KernelMode::VectorNoOverlap),
        );
        let naive = simulate_spmv(
            &cluster,
            &layout,
            &w,
            &SimConfig::new(KernelMode::VectorNaiveOverlap),
        );
        let task = simulate_spmv(
            &cluster,
            &layout_task,
            &w,
            &SimConfig::new(KernelMode::TaskMode),
        );
        // With negligible communication there is nothing to overlap: task
        // mode matches naive overlap (both pay the Eq.-2 split penalty —
        // large here because N_nzr ≈ 3 for a tridiagonal matrix) and cannot
        // beat the unsplit kernel.
        let vs_naive = task.gflops / naive.gflops;
        assert!(
            (0.92..1.1).contains(&vs_naive),
            "task vs naive should be ~1 for weak coupling, got {vs_naive}"
        );
        let vs_novl = task.gflops / novl.gflops;
        assert!(
            vs_novl < 1.02,
            "task mode cannot beat the unsplit kernel without comm to hide, got {vs_novl}"
        );
    }

    #[test]
    fn kappa_slows_things_down() {
        let (cluster, plan, w) = setup(
            100_000,
            1,
            HybridLayout::ProcessPerNode,
            CommThreadPlacement::None,
        );
        let k0 = simulate_spmv(
            &cluster,
            &plan,
            &w,
            &SimConfig::new(KernelMode::VectorNoOverlap),
        );
        let k25 = simulate_spmv(
            &cluster,
            &plan,
            &w,
            &SimConfig::new(KernelMode::VectorNoOverlap).with_kappa(2.5),
        );
        assert!(k25.time_s > k0.time_s);
    }

    #[test]
    fn trace_records_phases() {
        let (cluster, plan, w) = setup(
            5_000,
            2,
            HybridLayout::ProcessPerLd,
            CommThreadPlacement::SmtSibling,
        );
        let r = simulate_spmv(&cluster, &plan, &w, &SimConfig::new(KernelMode::TaskMode));
        let t = r.trace;
        let phases: std::collections::HashSet<_> = t.events.iter().map(|e| e.phase).collect();
        for want in [
            Phase::Waitall,
            Phase::SpmvLocal,
            Phase::SpmvNonlocal,
            Phase::Gather,
        ] {
            assert!(phases.contains(&want), "{want:?}");
        }
        // events are well-formed and in `RunTrace::from_ranks` order
        for e in &t.events {
            assert!(e.t1 > e.t0 && e.bytes == 0 && e.nnz == 0, "{e:?}");
        }
        let key = |e: &SpanEvent| (e.t0, e.rank, e.lane);
        assert!(t.events.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn per_core_layout_runs_many_ranks() {
        let (cluster, plan, w) = setup(
            30_000,
            2,
            HybridLayout::ProcessPerCore,
            CommThreadPlacement::None,
        );
        assert_eq!(plan.num_ranks(), 24);
        let r = simulate_spmv(
            &cluster,
            &plan,
            &w,
            &SimConfig::new(KernelMode::VectorNoOverlap),
        );
        assert!(r.time_s.is_finite() && r.time_s > 0.0);
        assert!(r.messages > 0);
    }

    #[test]
    fn more_nodes_are_faster_until_comm_binds() {
        let m = synthetic::random_banded_symmetric(300_000, 2_000, 7.0, 9);
        let mut last = f64::INFINITY;
        for nodes in [1usize, 2, 4] {
            let cluster = presets::westmere_cluster(nodes);
            let layout = plan_layout(
                &cluster.node,
                nodes,
                HybridLayout::ProcessPerLd,
                CommThreadPlacement::None,
            )
            .unwrap();
            let p = RowPartition::by_nnz(&m, layout.num_ranks());
            let w = workload::analyze(&m, &p);
            let r = simulate_spmv(
                &cluster,
                &layout,
                &w,
                &SimConfig::new(KernelMode::VectorNoOverlap),
            );
            assert!(
                r.time_s < last,
                "strong scaling should improve up to 4 nodes here ({nodes} nodes: {} vs {last})",
                r.time_s
            );
            last = r.time_s;
        }
    }
}
