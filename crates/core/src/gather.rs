//! Run-length-compressed gather programs (plan compression).
//!
//! The halo exchange gathers `x[send_indices[i]]` into a contiguous send
//! buffer. For matrices with banded or blocked structure the send lists are
//! dominated by *contiguous index runs* (a neighbour needs a consecutive
//! slice of our rows), so the element-by-element gather wastes its time on
//! bounds checks and strided bookkeeping. A [`GatherProgram`] detects the
//! runs once, at plan-build time, and replaces the per-element loop with one
//! `copy_from_slice` block copy per run — memcpy speed for the contiguous
//! majority, with scattered indices degrading gracefully to length-1 runs.
//!
//! The program is destination-ordered (run `k` writes the output range
//! directly after run `k-1`), so any partition of the *runs* yields disjoint
//! destination ranges — which is what makes the threaded execution path
//! safe.

use spmv_smp::workshare::balanced_chunks;
use std::ops::Range;

/// One block copy: `len` elements from `src..src+len` in the source vector
/// to `dst..dst+len` in the destination buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherRun {
    /// First source index.
    pub src: usize,
    /// First destination index.
    pub dst: usize,
    /// Run length in elements (`>= 1`).
    pub len: usize,
}

/// A compiled, run-length-encoded gather `dst[i] = src[indices[i]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherProgram {
    runs: Vec<GatherRun>,
    /// Prefix sums of run lengths (`runs.len() + 1` entries) — the weight
    /// vector for balanced thread partitioning.
    run_prefix: Vec<usize>,
    /// One past the largest source index any run reads.
    src_end: usize,
}

impl GatherProgram {
    /// Compiles the flat index list into maximal contiguous runs.
    pub fn compile(indices: &[u32]) -> Self {
        let mut runs: Vec<GatherRun> = Vec::new();
        let mut run_prefix = vec![0usize];
        for (dst, &idx) in indices.iter().enumerate() {
            let src = idx as usize;
            match runs.last_mut() {
                Some(r) if r.src + r.len == src => r.len += 1,
                _ => runs.push(GatherRun { src, dst, len: 1 }),
            }
        }
        for r in &runs {
            run_prefix.push(run_prefix.last().expect("run_prefix is seeded with 0") + r.len);
        }
        let src_end = runs.iter().map(|r| r.src + r.len).max().unwrap_or(0);
        Self {
            runs,
            run_prefix,
            src_end,
        }
    }

    /// The compiled runs, destination-ordered.
    pub fn runs(&self) -> &[GatherRun] {
        &self.runs
    }

    /// Total elements moved per execution.
    pub fn total_elems(&self) -> usize {
        *self.run_prefix.last().expect("run_prefix is seeded with 0")
    }

    /// Executes the whole program serially.
    pub fn execute(&self, src: &[f64], dst: &mut [f64]) {
        assert_eq!(dst.len(), self.total_elems(), "destination length");
        for r in &self.runs {
            dst[r.dst..r.dst + r.len].copy_from_slice(&src[r.src..r.src + r.len]);
        }
    }

    /// Splits the runs into `parts` contiguous ranges with balanced element
    /// counts, for [`GatherProgram::execute_runs_raw`] on a thread team.
    pub fn thread_run_ranges(&self, parts: usize) -> Vec<Range<usize>> {
        balanced_chunks(&self.run_prefix, parts)
    }

    /// Executes a subrange of runs through a raw destination pointer;
    /// returns the number of elements copied.
    ///
    /// # Panics
    /// If `src` is shorter than the largest source index of any run (the
    /// whole program's, checked once per call).
    ///
    /// # Safety
    /// `dst` must be valid for the whole destination buffer
    /// ([`GatherProgram::total_elems`] elements), and concurrent callers
    /// must execute *disjoint* run ranges — destination-ordering then
    /// guarantees their writes are disjoint.
    pub unsafe fn execute_runs_raw(
        &self,
        run_range: Range<usize>,
        src: &[f64],
        dst: *mut f64,
    ) -> usize {
        assert!(src.len() >= self.src_end, "source length");
        for r in &self.runs[run_range.clone()] {
            // SAFETY: every run reads below src_end <= src.len(); the
            // caller vouches for dst.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr().add(r.src), dst.add(r.dst), r.len)
            };
        }
        self.run_prefix[run_range.end] - self.run_prefix[run_range.start]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_gather(indices: &[u32], src: &[f64]) -> Vec<f64> {
        indices.iter().map(|&i| src[i as usize]).collect()
    }

    fn check(indices: &[u32], src_len: usize) -> GatherProgram {
        let src: Vec<f64> = (0..src_len).map(|i| i as f64 * 1.5 + 0.25).collect();
        let prog = GatherProgram::compile(indices);
        assert_eq!(prog.total_elems(), indices.len());
        let mut dst = vec![0.0; indices.len()];
        prog.execute(&src, &mut dst);
        assert_eq!(dst, reference_gather(indices, &src), "serial execute");
        // threaded path: every partition width must agree
        for parts in 1..=4 {
            let mut dst_t = vec![0.0; indices.len()];
            let ranges = prog.thread_run_ranges(parts);
            assert_eq!(ranges.len(), parts);
            for range in ranges {
                // SAFETY: dst_t holds total_elems elements and the ranges
                // partition the run set (serial here, trivially disjoint).
                unsafe { prog.execute_runs_raw(range, &src, dst_t.as_mut_ptr()) };
            }
            assert_eq!(dst_t, reference_gather(indices, &src), "{parts}-way");
        }
        prog
    }

    #[test]
    fn all_contiguous_compresses_to_one_run() {
        let indices: Vec<u32> = (10..50).collect();
        let prog = check(&indices, 64);
        assert_eq!(prog.runs().len(), 1);
        assert_eq!(
            prog.runs()[0],
            GatherRun {
                src: 10,
                dst: 0,
                len: 40
            }
        );
    }

    #[test]
    fn all_scattered_degrades_to_unit_runs() {
        // stride-2 access: no two indices are consecutive
        let indices: Vec<u32> = (0..30).map(|i| i * 2).collect();
        let prog = check(&indices, 64);
        assert_eq!(prog.runs().len(), 30);
        assert!(prog.runs().iter().all(|r| r.len == 1));
    }

    #[test]
    fn mixed_runs_split_correctly() {
        // [5,6,7] ++ [20] ++ [21? no: 40,41] ++ [3]
        let indices: Vec<u32> = vec![5, 6, 7, 20, 40, 41, 3];
        let prog = check(&indices, 64);
        let lens: Vec<usize> = prog.runs().iter().map(|r| r.len).collect();
        assert_eq!(lens, vec![3, 1, 2, 1]);
        // destination offsets are the prefix sums of the lengths
        let dsts: Vec<usize> = prog.runs().iter().map(|r| r.dst).collect();
        assert_eq!(dsts, vec![0, 3, 4, 6]);
    }

    #[test]
    fn descending_indices_never_merge() {
        let indices: Vec<u32> = vec![9, 8, 7, 6];
        let prog = check(&indices, 16);
        assert_eq!(prog.runs().len(), 4, "descending is not contiguous");
    }

    #[test]
    fn empty_program_is_a_no_op() {
        let prog = check(&[], 8);
        assert_eq!(prog.runs().len(), 0);
        assert_eq!(prog.total_elems(), 0);
        // thread partition of an empty program: empty ranges, no panic
        assert!(prog.thread_run_ranges(3).iter().all(|r| r.is_empty()));
    }

    #[test]
    fn repeated_index_starts_a_new_run() {
        // the same element sent twice (two peers needing one column)
        let indices: Vec<u32> = vec![4, 4, 5];
        let prog = check(&indices, 8);
        assert_eq!(prog.runs().len(), 2);
        assert_eq!(prog.runs()[1].len, 2, "[4,5] merges after the repeat");
    }

    #[test]
    #[should_panic(expected = "source length")]
    fn execute_runs_raw_checks_source_length() {
        // the last run reads src[8..10]; a 9-element source is one short
        let prog = GatherProgram::compile(&[0, 1, 8, 9]);
        let src = vec![1.0; 9];
        let mut dst = vec![0.0; 4];
        // SAFETY: dst holds total_elems elements; one caller.
        unsafe { prog.execute_runs_raw(0..1, &src, dst.as_mut_ptr()) };
    }

    #[test]
    #[should_panic(expected = "destination length")]
    fn execute_checks_destination_length() {
        let prog = GatherProgram::compile(&[0, 1, 2]);
        let mut dst = vec![0.0; 2];
        prog.execute(&[1.0, 2.0, 3.0, 4.0], &mut dst);
    }
}
