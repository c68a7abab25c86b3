//! The shared phase vocabulary.
//!
//! The first eight variants are the phases of the Fig. 4 schedule steps
//! (`spmv_core::Step::phase` maps each step to one). The engine and the
//! simulator both record spans typed by `Phase` into a
//! [`RunTrace`](crate::RunTrace), so a measured and a simulated timeline
//! go through the same queries and exporters with no label table to keep
//! in sync. Solver iterations and injected faults get their own typed
//! variants — those exist only in measured traces.

use spmv_comm::FaultKind;

/// One phase of a traced run, measured or simulated. `label()` is the
/// canonical string every exporter writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Copy owed x-elements into the contiguous send buffer (compute lane).
    Gather,
    /// Post nonblocking receives for the halo.
    PostRecvs,
    /// Post nonblocking sends (the `Isend` of Fig. 4b/4c).
    Send,
    /// Wait for outstanding communication to complete.
    Waitall,
    /// SpMV over the local (no halo needed) part.
    SpmvLocal,
    /// SpMV over the non-local part (accumulating, Eq. 2 cost).
    SpmvNonlocal,
    /// SpMV over the whole rank-local matrix (non-overlapping mode).
    SpmvFull,
    /// Thread-team barrier (B1/B2 of task mode).
    Barrier,
    /// One CG iteration (solver lane).
    CgIter,
    /// One Lanczos step (solver lane).
    LanczosIter,
    /// Injected message delay fired (typed fault marker).
    FaultDelay,
    /// Injected reorder fired.
    FaultReorder,
    /// Injected duplicate delivery fired.
    FaultDuplicate,
    /// Injected drop-with-retransmit fired.
    FaultDrop,
    /// Injected truncation fired (unrecoverable).
    FaultTruncate,
    /// A pending operation captured by the stall watchdog's poison dump.
    Stall,
}

impl Phase {
    /// Canonical label, used by every exporter.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Gather => "gather",
            Phase::PostRecvs => "post recvs",
            Phase::Send => "send",
            Phase::Waitall => "waitall",
            Phase::SpmvLocal => "spmv(local)",
            Phase::SpmvNonlocal => "spmv(nonlocal)",
            Phase::SpmvFull => "spmv(full)",
            Phase::Barrier => "barrier",
            Phase::CgIter => "iter(cg)",
            Phase::LanczosIter => "iter(lanczos)",
            Phase::FaultDelay => "fault(delay)",
            Phase::FaultReorder => "fault(reorder)",
            Phase::FaultDuplicate => "fault(duplicate)",
            Phase::FaultDrop => "fault(drop)",
            Phase::FaultTruncate => "fault(truncate)",
            Phase::Stall => "stall",
        }
    }

    /// Communication phases: the time a rank spends driving the network.
    /// Overlap efficiency asks how much of this is hidden under compute.
    #[must_use]
    pub fn is_comm(self) -> bool {
        matches!(self, Phase::PostRecvs | Phase::Send | Phase::Waitall)
    }

    /// Compute phases: kernel time that can hide communication.
    #[must_use]
    pub fn is_compute(self) -> bool {
        matches!(
            self,
            Phase::SpmvLocal | Phase::SpmvNonlocal | Phase::SpmvFull
        )
    }

    /// Typed fault/stall markers stamped from `spmv-comm` events.
    #[must_use]
    pub fn is_fault(self) -> bool {
        matches!(
            self,
            Phase::FaultDelay
                | Phase::FaultReorder
                | Phase::FaultDuplicate
                | Phase::FaultDrop
                | Phase::FaultTruncate
                | Phase::Stall
        )
    }

    /// The typed marker for an injected message fault.
    #[must_use]
    pub fn from_fault(kind: FaultKind) -> Phase {
        match kind {
            FaultKind::Delay => Phase::FaultDelay,
            FaultKind::Reorder => Phase::FaultReorder,
            FaultKind::Duplicate => Phase::FaultDuplicate,
            FaultKind::Drop => Phase::FaultDrop,
            FaultKind::Truncate => Phase::FaultTruncate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let all = [
            Phase::Gather,
            Phase::PostRecvs,
            Phase::Send,
            Phase::Waitall,
            Phase::SpmvLocal,
            Phase::SpmvNonlocal,
            Phase::SpmvFull,
            Phase::Barrier,
            Phase::CgIter,
            Phase::LanczosIter,
            Phase::FaultDelay,
            Phase::FaultReorder,
            Phase::FaultDuplicate,
            Phase::FaultDrop,
            Phase::FaultTruncate,
            Phase::Stall,
        ];
        let mut labels: Vec<_> = all.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn classification_is_disjoint() {
        for p in [Phase::PostRecvs, Phase::Send, Phase::Waitall] {
            assert!(p.is_comm() && !p.is_compute() && !p.is_fault());
        }
        for p in [Phase::SpmvLocal, Phase::SpmvNonlocal, Phase::SpmvFull] {
            assert!(p.is_compute() && !p.is_comm());
        }
        assert!(!Phase::Gather.is_comm() && !Phase::Gather.is_compute());
        assert!(Phase::FaultDelay.is_fault() && Phase::Stall.is_fault());
    }

    #[test]
    fn fault_kinds_map_to_typed_phases() {
        assert_eq!(Phase::from_fault(FaultKind::Delay), Phase::FaultDelay);
        assert_eq!(Phase::from_fault(FaultKind::Truncate), Phase::FaultTruncate);
    }
}
