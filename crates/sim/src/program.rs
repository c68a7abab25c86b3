//! Lowering a kernel mode to per-rank lane programs with byte-accurate
//! costs.
//!
//! Every rank runs one or two *lanes* (sequential activity lists):
//!
//! * vector modes — a single lane interleaving communication calls and
//!   compute, exactly Fig. 4a/b;
//! * task mode — a communication lane and a compute lane, synchronized by
//!   the two barriers of Fig. 4c.
//!
//! Compute activities carry byte volumes derived from the paper's traffic
//! accounting (Eq. 1/2): per nonzero 8 B value + 4 B column index, per
//! result-vector write 16 B (write allocate + evict), 8 B per distinct RHS
//! element touched, plus `κ` extra bytes per nonzero for capacity-induced
//! RHS reloads. The non-local phase writes the result a second time — that
//! is precisely the Eq.-2 penalty, and it falls out of the per-phase
//! accounting here rather than being inserted by hand.

use crate::progress::ProgressModel;
use spmv_core::{KernelMode, Part, RankWorkload, Step};

/// One activity in a lane program: a schedule step with its cost. Gather
/// and compute steps drain `bytes` of memory traffic; the communication
/// steps are priced by the fluid engine from the rank's message counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// The schedule step this activity executes.
    pub step: Step,
    /// Traffic volume drained by a gather or compute step (0 otherwise).
    pub bytes: f64,
}

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Kernel variant to price.
    pub mode: KernelMode,
    /// Progress semantics.
    pub progress: ProgressModel,
    /// RHS-reload parameter κ (bytes per nonzero) for the local/full
    /// phases; use `spmv-model::estimate_kappa` or the paper's measured
    /// values (2.5 for HMeP, 3.79 for HMEp, ≈0 for sAMG).
    pub kappa: f64,
    /// Messages at or below this size are sent eagerly (buffered); above it
    /// the rendezvous protocol applies. Default 4 KiB (OpenMPI's InfiniBand
    /// BTL and MVAPICH use 4–12 KiB internode).
    pub eager_threshold_bytes: usize,
    /// CPU overhead per posted message (seconds) — send/recv call cost,
    /// which is what makes many small messages expensive ("the overhead of
    /// intranode message passing cannot be neglected", §4).
    pub post_overhead_s: f64,
}

impl SimConfig {
    /// Defaults for a given mode: standard progress, κ = 0, 4 KiB eager
    /// threshold, 1 µs per message posting overhead.
    pub fn new(mode: KernelMode) -> Self {
        Self {
            mode,
            progress: ProgressModel::InsideCallsOnly,
            kappa: 0.0,
            eager_threshold_bytes: 4096,
            post_overhead_s: 1.0e-6,
        }
    }

    /// Sets κ.
    pub fn with_kappa(mut self, kappa: f64) -> Self {
        self.kappa = kappa;
        self
    }

    /// Sets the progress model.
    pub fn with_progress(mut self, p: ProgressModel) -> Self {
        self.progress = p;
        self
    }
}

/// Traffic of a compute phase: `nnz` nonzeros over `rows` result rows
/// touching `rhs_elems` distinct RHS elements, with `kappa` extra bytes per
/// nonzero of RHS reload traffic.
fn phase_bytes(nnz: usize, rows: usize, rhs_elems: usize, kappa: f64) -> f64 {
    nnz as f64 * (12.0 + kappa) + rows as f64 * 16.0 + rhs_elems as f64 * 8.0
}

/// Gather traffic: read 8 B (RHS element) + write 16 B (buffer, with write
/// allocate) per gathered element.
fn gather_bytes(elems: usize) -> f64 {
    elems as f64 * 24.0
}

/// The lane programs of one rank for one SpMV.
#[derive(Debug, Clone, PartialEq)]
pub struct RankProgram {
    /// One activity list per lane of [`KernelMode::lanes`]: 1 for vector
    /// modes, 2 for task mode (`lanes[0]` = comm, `lanes[1]` = compute).
    pub lanes: Vec<Vec<Op>>,
}

/// Builds the lane programs for `workload` under `cfg`: the mode's
/// schedule, step for step, with each gather and compute step costed.
pub fn build_program(workload: &RankWorkload, cfg: &SimConfig) -> RankProgram {
    let w = workload;
    let bytes = |step: Step| match step {
        Step::Gather => gather_bytes(w.gather_elems),
        Step::Compute(Part::Full) => phase_bytes(w.nnz(), w.rows, w.rows + w.halo_elems, cfg.kappa),
        Step::Compute(Part::Local) => phase_bytes(w.local_nnz, w.rows, w.rows, cfg.kappa),
        // The non-local phase re-writes the whole result vector — that
        // second write is exactly the Eq.-2 delta. κ applies to *all*
        // nonzeros, as in the paper's Eq. 2 (the κ/2 term is unchanged
        // between Eq. 1 and 2): for strongly coupled matrices the halo is
        // far from cache-resident.
        Step::Compute(Part::Nonlocal) => {
            phase_bytes(w.nonlocal_nnz, w.rows, w.halo_elems, cfg.kappa)
        }
        _ => 0.0,
    };
    RankProgram {
        lanes: cfg
            .mode
            .lanes()
            .iter()
            .map(|lane| {
                lane.iter()
                    .map(|&step| Op {
                        step,
                        bytes: bytes(step),
                    })
                    .collect()
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::RowPartition;
    use spmv_matrix::synthetic;

    fn sample_workload() -> RankWorkload {
        let m = synthetic::random_banded_symmetric(200, 20, 6.0, 4);
        let p = RowPartition::by_nnz(&m, 4);
        spmv_core::workload::analyze(&m, &p).remove(1)
    }

    fn compute_bytes(p: &RankProgram) -> f64 {
        p.lanes[0]
            .iter()
            .filter(|o| matches!(o.step, Step::Compute(_)))
            .map(|o| o.bytes)
            .sum()
    }

    #[test]
    fn lanes_are_the_schedule_step_for_step() {
        let w = sample_workload();
        for mode in KernelMode::ALL {
            let p = build_program(&w, &SimConfig::new(mode));
            let steps: Vec<Vec<Step>> = p
                .lanes
                .iter()
                .map(|lane| lane.iter().map(|o| o.step).collect())
                .collect();
            let schedule: Vec<Vec<Step>> = mode.lanes().iter().map(|l| l.to_vec()).collect();
            assert_eq!(steps, schedule, "{mode}");
            for op in p.lanes.iter().flatten() {
                let drains = matches!(op.step, Step::Gather | Step::Compute(_));
                assert_eq!(op.bytes > 0.0, drains, "{mode}: {op:?}");
            }
        }
    }

    #[test]
    fn split_phases_cost_more_than_full_phase() {
        // Eq. 2 vs Eq. 1: split kernel writes the result twice.
        let w = sample_workload();
        let split = build_program(&w, &SimConfig::new(KernelMode::VectorNaiveOverlap));
        let full = build_program(&w, &SimConfig::new(KernelMode::VectorNoOverlap));
        let delta = compute_bytes(&split) - compute_bytes(&full);
        let expected_delta = w.rows as f64 * 16.0;
        assert!(
            (delta - expected_delta).abs() < 1e-6,
            "split-full = {delta} vs 16·rows = {expected_delta}"
        );
    }

    #[test]
    fn kappa_increases_compute_bytes() {
        let w = sample_workload();
        let b0 = build_program(&w, &SimConfig::new(KernelMode::VectorNoOverlap));
        let b2 = build_program(
            &w,
            &SimConfig::new(KernelMode::VectorNoOverlap).with_kappa(2.5),
        );
        assert!((compute_bytes(&b2) - compute_bytes(&b0) - 2.5 * w.nnz() as f64).abs() < 1e-6);
    }

    #[test]
    fn phase_bytes_matches_code_balance() {
        // For a square rank with rhs_elems == rows and nnzr = nnz/rows,
        // phase_bytes / (2·nnz) must equal Eq. (1).
        let nnz = 15_000usize;
        let rows = 1_000usize;
        let nnzr = nnz as f64 / rows as f64;
        let bytes = phase_bytes(nnz, rows, rows, 2.5);
        let balance = bytes / (2.0 * nnz as f64);
        let eq1 = spmv_model::code_balance_crs(nnzr, 2.5);
        assert!((balance - eq1).abs() < 1e-12, "{balance} vs {eq1}");
    }

    #[test]
    fn gather_cost_proportional_to_elements() {
        let w = sample_workload();
        let p = build_program(&w, &SimConfig::new(KernelMode::VectorNoOverlap));
        assert_eq!(p.lanes[0][1].step, Step::Gather);
        assert_eq!(p.lanes[0][1].bytes, w.gather_elems as f64 * 24.0);
    }
}
