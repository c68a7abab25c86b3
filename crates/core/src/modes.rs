//! The paper's kernel variants (Fig. 4), each written once as a per-lane
//! step list ([`KernelMode::lanes`]).
//!
//! The step lists are the single source of the Fig. 4 schedules: the
//! engine interprets them, the simulator prices them and the interleaving
//! explorer lowers them to model programs. A lane is one sequential
//! activity stream; vector modes have one, task mode has two (the
//! communication lane and the compute lane) joined by the B1/B2 barriers.

use spmv_obs::Phase;

/// Which part of the rank-local matrix a compute step multiplies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Part {
    /// The whole rank-local matrix over `[local | halo]` (Eq. 1 traffic).
    Full,
    /// The columns owned by this rank; needs no halo data.
    Local,
    /// The halo columns, accumulated into the result (the Eq. 2 second
    /// write of the result vector).
    Nonlocal,
}

/// The two thread-team barriers of Fig. 4c.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Barrier {
    /// Gather finished (compute lane) / receives posted (comm lane).
    B1,
    /// Communication complete and local SpMV done.
    B2,
}

/// One step of a lane's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// Post the halo receives (`MPI_Irecv`).
    PostRecvs,
    /// Copy owed RHS elements into the send buffer.
    Gather,
    /// Post the halo sends (`MPI_Isend`).
    Send,
    /// Complete every outstanding receive and send (`MPI_Waitall`).
    Waitall,
    /// Run the node-level kernel over one part of the matrix.
    Compute(Part),
    /// Synchronize the rank's lanes.
    Barrier(Barrier),
}

impl Step {
    /// The trace phase this step records as.
    pub fn phase(self) -> Phase {
        match self {
            Step::PostRecvs => Phase::PostRecvs,
            Step::Gather => Phase::Gather,
            Step::Send => Phase::Send,
            Step::Waitall => Phase::Waitall,
            Step::Compute(Part::Full) => Phase::SpmvFull,
            Step::Compute(Part::Local) => Phase::SpmvLocal,
            Step::Compute(Part::Nonlocal) => Phase::SpmvNonlocal,
            Step::Barrier(_) => Phase::Barrier,
        }
    }

    /// Whether the step is a communication call (runs inside MPI).
    pub fn is_comm(self) -> bool {
        self.phase().is_comm()
    }
}

/// Parallelization scheme of one distributed SpMV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelMode {
    /// Fig. 4a — "vector mode, no overlap": exchange the full halo first
    /// (`Irecv` / gather / `Isend` / `Waitall`), then run the whole local
    /// SpMV in one sweep. The result vector is written once (Eq. 1
    /// balance). Pure MPI is this mode with one thread per rank.
    VectorNoOverlap,
    /// Fig. 4b — "vector mode, naive overlap": issue nonblocking calls,
    /// compute the *local* part of the SpMV, `Waitall`, then the non-local
    /// part. Intends to overlap communication with the local compute, but
    /// standard MPI progresses messages only inside MPI calls, so the
    /// overlap does not materialize — and the split kernel writes the
    /// result twice (Eq. 2 balance).
    VectorNaiveOverlap,
    /// Fig. 4c — "task mode, explicit overlap": a dedicated communication
    /// thread executes all MPI calls while the remaining threads gather,
    /// compute the local part, and (after communication completes) the
    /// non-local part. Overlap is guaranteed by construction; work
    /// distribution across compute threads is explicit (contiguous chunks
    /// of nonzeros) because OpenMP has no subteams.
    TaskMode,
}

impl KernelMode {
    /// All modes in the order of the paper's figure legends.
    pub const ALL: [KernelMode; 3] = [
        KernelMode::VectorNoOverlap,
        KernelMode::VectorNaiveOverlap,
        KernelMode::TaskMode,
    ];

    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            KernelMode::VectorNoOverlap => "vector w/o overlap",
            KernelMode::VectorNaiveOverlap => "vector naive overlap",
            KernelMode::TaskMode => "task mode",
        }
    }

    /// Whether this mode requires a dedicated communication thread.
    pub fn needs_comm_thread(&self) -> bool {
        matches!(self, KernelMode::TaskMode)
    }

    /// The mode's schedule: one step list per lane. Vector modes have a
    /// single lane; task mode has the communication lane (`lanes()[0]`)
    /// and the compute lane (`lanes()[1]`). Receives are posted before the
    /// gather, as in Fig. 4.
    pub fn lanes(self) -> &'static [&'static [Step]] {
        use Step::{Compute, Gather, PostRecvs, Waitall};
        const B1: Step = Step::Barrier(Barrier::B1);
        const B2: Step = Step::Barrier(Barrier::B2);
        match self {
            KernelMode::VectorNoOverlap => {
                &[&[PostRecvs, Gather, Step::Send, Waitall, Compute(Part::Full)]]
            }
            KernelMode::VectorNaiveOverlap => &[&[
                PostRecvs,
                Gather,
                Step::Send,
                Compute(Part::Local),
                Waitall,
                Compute(Part::Nonlocal),
            ]],
            KernelMode::TaskMode => &[
                &[PostRecvs, B1, Step::Send, Waitall, B2],
                &[
                    Gather,
                    B1,
                    Compute(Part::Local),
                    B2,
                    Compute(Part::Nonlocal),
                ],
            ],
        }
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Step::{Compute, Gather, PostRecvs, Waitall};

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<_> = KernelMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 3);
        assert!(labels.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn split_kernel_flags() {
        // only the overlapping modes run the split kernel (and pay Eq. 2)
        let parts = |mode: KernelMode| -> Vec<Part> {
            let steps = mode.lanes().iter().flat_map(|l| l.iter());
            steps
                .filter_map(|s| match s {
                    Compute(p) => Some(*p),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(parts(KernelMode::VectorNoOverlap), [Part::Full]);
        for mode in [KernelMode::VectorNaiveOverlap, KernelMode::TaskMode] {
            assert_eq!(parts(mode), [Part::Local, Part::Nonlocal], "{mode}");
        }
    }

    #[test]
    fn comm_thread_flags() {
        assert!(KernelMode::TaskMode.needs_comm_thread());
        assert!(!KernelMode::VectorNoOverlap.needs_comm_thread());
        assert!(!KernelMode::VectorNaiveOverlap.needs_comm_thread());
    }

    /// Whether step `a` happens before step `b` across the mode's lanes:
    /// earlier in the same lane, or before a barrier that `b` follows.
    fn happens_before(mode: KernelMode, a: Step, b: Step) -> bool {
        let find = |s: Step| {
            mode.lanes()
                .iter()
                .enumerate()
                .find_map(|(l, lane)| lane.iter().position(|&x| x == s).map(|p| (l, p)))
        };
        let (Some((la, pa)), Some((lb, pb))) = (find(a), find(b)) else {
            return true; // a step the mode lacks orders nothing
        };
        let lanes = mode.lanes();
        la == lb && pa < pb
            || lanes[la][pa..]
                .iter()
                .any(|s| matches!(s, Step::Barrier(_)) && lanes[lb][..pb].contains(s))
    }

    /// The orderings the engine's buffer sharing relies on: the halo is
    /// read only after the waitall that fills it, and the send buffer is
    /// sent only after the gather that fills it.
    #[test]
    fn schedules_order_every_buffer_hand_off() {
        for mode in KernelMode::ALL {
            for (a, b) in [
                (PostRecvs, Step::Send),
                (Step::Send, Waitall),
                (Gather, Step::Send),
                (Waitall, Compute(Part::Full)),
                (Waitall, Compute(Part::Nonlocal)),
            ] {
                assert!(happens_before(mode, a, b), "{mode}: {a:?} before {b:?}");
            }
            let lanes = mode.lanes();
            assert_eq!(lanes.len(), 1 + usize::from(mode.needs_comm_thread()));
            let comm_steps = lanes.iter().flat_map(|l| l.iter()).filter(|s| s.is_comm());
            assert_eq!(comm_steps.count(), 3, "{mode}: one post, send and wait");
        }
    }

    #[test]
    fn every_step_maps_to_its_own_phase() {
        let steps: Vec<Step> = KernelMode::ALL
            .iter()
            .flat_map(|m| m.lanes().iter().flat_map(|l| l.iter().copied()))
            .collect();
        for s in &steps {
            for t in steps.iter().filter(|t| t.phase() == s.phase()) {
                assert!(t == s || matches!((s, t), (Step::Barrier(_), Step::Barrier(_))));
            }
        }
    }

    #[test]
    fn display_matches_label() {
        for m in KernelMode::ALL {
            assert_eq!(format!("{m}"), m.label());
        }
    }
}
