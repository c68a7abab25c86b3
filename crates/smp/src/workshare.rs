//! Work distribution for parallel loops.
//!
//! Two schedulers matter for the paper's kernels:
//!
//! * [`static_chunk`] — the default OpenMP `schedule(static)`: contiguous,
//!   near-equal index ranges per thread. Fine when all rows cost the same.
//! * [`balanced_chunks`] — explicit worksharing by *weight*: rows are split
//!   so every thread gets (approximately) the same number of nonzeros, "one
//!   contiguous chunk of nonzeros per compute thread" (§3.2). This is also
//!   how the MPI-level row distribution balances nonzeros across processes
//!   (footnote 2 of the paper).

use std::ops::Range;

/// The contiguous index range thread `tid` of `nthreads` handles for a loop
/// of `n` iterations (OpenMP static schedule, chunk = ceil division with
/// remainder spread over the first threads).
pub fn static_chunk(n: usize, nthreads: usize, tid: usize) -> Range<usize> {
    assert!(nthreads > 0);
    assert!(tid < nthreads);
    let base = n / nthreads;
    let extra = n % nthreads;
    let start = tid * base + tid.min(extra);
    let len = base + usize::from(tid < extra);
    start..start + len
}

/// Splits `0..n` (where `n = prefix.len() - 1`) into `parts` contiguous
/// ranges such that the *weight* of each range — `prefix[end] -
/// prefix[start]` — is as balanced as possible.
///
/// `prefix` must be a non-decreasing prefix-sum array (e.g. a CSR
/// `row_ptr`, so weights are nonzeros per row). Returns exactly `parts`
/// ranges covering `0..n` without gaps; some may be empty when `parts > n`.
///
/// The split points are found by binary search for the ideal cumulative
/// weight `k · total / parts`, which keeps every part within one row's
/// weight of the ideal — the same balancing rule the paper uses for its
/// MPI distribution ("a balanced distribution of nonzeros across the MPI
/// processes").
pub fn balanced_chunks(prefix: &[usize], parts: usize) -> Vec<Range<usize>> {
    assert!(!prefix.is_empty(), "prefix must have at least one entry");
    debug_assert!(
        prefix.windows(2).all(|w| w[0] <= w[1]),
        "prefix must be non-decreasing"
    );
    balanced_chunks_by(prefix.len() - 1, parts, |i| prefix[i])
}

/// [`balanced_chunks`] over `0..n` with the prefix given as a function
/// of `i` in `0..=n`, for weights whose prefix sums are computed on demand
/// rather than stored. It evaluates `prefix` at O(parts · log n) points,
/// and only at `0` and `n` for one part.
pub fn balanced_chunks_by(
    n: usize,
    parts: usize,
    prefix: impl Fn(usize) -> usize,
) -> Vec<Range<usize>> {
    assert!(parts > 0);
    let (first, total) = (prefix(0), prefix(n) - prefix(0));
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0usize);
    for k in 1..parts {
        let target = first as u128 + (total as u128 * k as u128) / parts as u128;
        // first index whose prefix value is >= target (a partition point
        // over 0..=n), clamped to be monotone with previous boundaries
        let (mut lo, mut hi) = (0, n + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if (prefix(mid) as u128) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        bounds.push(lo.clamp(bounds[k - 1], n));
    }
    bounds.push(n);
    (0..parts).map(|k| bounds[k]..bounds[k + 1]).collect()
}

/// Maximum over parts of `weight(part) / (total/parts)` — 1.0 is perfect
/// balance. Useful to assert distribution quality in tests and reports.
pub fn imbalance(prefix: &[usize], chunks: &[Range<usize>]) -> f64 {
    let total = (prefix[prefix.len() - 1] - prefix[0]) as f64;
    if total == 0.0 {
        return 1.0;
    }
    let ideal = total / chunks.len() as f64;
    chunks
        .iter()
        .map(|r| (prefix[r.end] - prefix[r.start]) as f64 / ideal)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_chunks_cover_range_disjointly() {
        for n in [0usize, 1, 7, 100, 101] {
            for t in [1usize, 2, 3, 8] {
                let mut covered = vec![false; n];
                for tid in 0..t {
                    for i in static_chunk(n, t, tid) {
                        assert!(!covered[i], "overlap at {i}");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "gap for n={n}, t={t}");
            }
        }
    }

    #[test]
    fn static_chunks_are_near_equal() {
        for tid in 0..4 {
            let len = static_chunk(10, 4, tid).len();
            assert!((2..=3).contains(&len));
        }
    }

    #[test]
    fn balanced_chunks_on_uniform_weights() {
        // rows of weight 1: behaves like static chunking
        let prefix: Vec<usize> = (0..=12).collect();
        let chunks = balanced_chunks(&prefix, 4);
        assert_eq!(chunks.len(), 4);
        assert!(chunks.iter().all(|r| r.len() == 3));
        assert!(imbalance(&prefix, &chunks) <= 1.0 + 1e-12);
    }

    #[test]
    fn balanced_chunks_on_skewed_weights() {
        // one heavy row at the front: weights 100,1,1,...,1 (12 rows)
        let mut prefix = vec![0usize];
        let weights = [100, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1];
        for w in weights {
            prefix.push(prefix.last().unwrap() + w);
        }
        let chunks = balanced_chunks(&prefix, 4);
        // first chunk should contain just the heavy row
        assert_eq!(chunks[0], 0..1);
        // coverage
        assert_eq!(chunks.last().unwrap().end, 12);
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn balanced_chunks_handles_more_parts_than_rows() {
        let prefix = vec![0, 5, 9];
        let chunks = balanced_chunks(&prefix, 5);
        assert_eq!(chunks.len(), 5);
        assert_eq!(chunks.iter().map(|r| r.len()).sum::<usize>(), 2);
        assert_eq!(chunks.last().unwrap().end, 2);
    }

    #[test]
    fn balanced_chunks_on_csr_like_prefix_is_well_balanced() {
        // pseudo-random row weights 1..32
        let mut prefix = vec![0usize];
        let mut state = 12345u64;
        for _ in 0..1000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            prefix.push(prefix.last().unwrap() + 1 + (state >> 59) as usize);
        }
        let chunks = balanced_chunks(&prefix, 8);
        let imb = imbalance(&prefix, &chunks);
        assert!(imb < 1.05, "imbalance {imb} too high for fine-grained rows");
    }

    #[test]
    fn balanced_chunks_by_cuts_at_the_slice_partition_points() {
        // the bisection over 0..=n must land where partition_point on the
        // stored prefix does, empty rows and more parts than rows included
        let mut prefix = vec![0usize];
        let mut state = 99u64;
        for _ in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            prefix.push(prefix.last().unwrap() + (state >> 60) as usize % 5);
        }
        for (n, parts) in [(200, 1), (200, 3), (200, 7), (3, 5), (0, 2)] {
            let p = &prefix[..=n];
            let total = p[n] as u128;
            let mut want = vec![0usize];
            for k in 1..parts {
                let target = total * k as u128 / parts as u128;
                let idx = p.partition_point(|&w| (w as u128) < target);
                want.push(idx.clamp(want[k - 1], n));
            }
            want.push(n);
            let want: Vec<_> = want.windows(2).map(|w| w[0]..w[1]).collect();
            assert_eq!(balanced_chunks_by(n, parts, |i| p[i]), want, "{n} {parts}");
        }
    }

    #[test]
    fn balanced_chunks_single_part() {
        let prefix = vec![0, 3, 8, 9];
        let chunks = balanced_chunks(&prefix, 1);
        assert_eq!(chunks, vec![0..3]);
        assert_eq!(imbalance(&prefix, &chunks), 1.0);
    }

    #[test]
    fn balanced_chunks_with_empty_rows() {
        // rows with zero weight must not break monotonicity
        let prefix = vec![0, 0, 0, 10, 10, 20];
        let chunks = balanced_chunks(&prefix, 2);
        assert_eq!(chunks.iter().map(|r| r.len()).sum::<usize>(), 5);
        let w0 = prefix[chunks[0].end] - prefix[chunks[0].start];
        let w1 = prefix[chunks[1].end] - prefix[chunks[1].start];
        assert_eq!(w0 + w1, 20);
        assert_eq!(w0, 10);
    }

    #[test]
    fn imbalance_of_empty_total() {
        let prefix = vec![0, 0, 0];
        let chunks = balanced_chunks(&prefix, 2);
        assert_eq!(imbalance(&prefix, &chunks), 1.0);
    }
}
