//! Order statistics over timing samples.
//!
//! Every timing the benchmark reports is a median plus the highest
//! percentile that still has at least [`MIN_BEYOND`] samples beyond it,
//! over samples that are themselves batches of many back-to-back calls.
//! Multi-rank batches are merged first: a distributed SpMV is only done
//! when the slowest rank is done, so batch `i` costs the maximum of the
//! ranks' batch-`i` times.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples:
/// the smallest rank with at least `p`% of the samples at or below it.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of no samples");
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile: which one, and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (from [`TAIL_LADDER`]).
    pub percentile: f64,
    /// The sample at that nearest rank.
    pub value: f64,
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples ranked beyond it (p90 at 100 samples). Below 20 samples no
/// percentile qualifies and the median is reported as p50.
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    let percentile = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n - nearest_rank(p, n) >= MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        percentile,
        value: s[nearest_rank(percentile, n) - 1],
    }
}

/// Merges per-rank batch samples into slowest-rank samples: entry `i` is
/// the maximum over ranks of their batch-`i` time.
///
/// # Panics
/// Panics when ranks report different batch counts (the batches were not
/// collective) or no rank reports at all.
pub fn slowest_rank(per_rank: &[Vec<f64>]) -> Vec<f64> {
    let first = per_rank.first().expect("at least one rank");
    assert!(
        per_rank.iter().all(|r| r.len() == first.len()),
        "ranks disagree on the batch count"
    );
    (0..first.len())
        .map(|i| per_rank.iter().map(|r| r[i]).fold(f64::MIN, f64::max))
        .collect()
}

/// Share of the host's CPU time the hypervisor may steal during a sample
/// before the sample counts as disturbed by other guests.
pub const STEAL_LIMIT: f64 = 0.02;

/// Timed samples with the share of CPU time stolen while each was taken.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timed {
    /// Seconds per call (batches) or per operation (solves).
    pub secs: Vec<f64>,
    /// Stolen share of the host's CPU time during each sample.
    pub steal: Vec<f64>,
}

impl Timed {
    /// Adds one sample.
    pub fn push(&mut self, secs: f64, steal: f64) {
        self.secs.push(secs);
        self.steal.push(steal);
    }

    /// Merges ranks' collective samples: slowest rank per sample, and the
    /// largest stolen share any rank saw.
    pub fn slowest(per_rank: &[Timed]) -> Timed {
        let pick = |f: fn(&Timed) -> &Vec<f64>| {
            slowest_rank(&per_rank.iter().map(|t| f(t).clone()).collect::<Vec<_>>())
        };
        Timed {
            secs: pick(|t| &t.secs),
            steal: pick(|t| &t.steal),
        }
    }

    /// Appends another set of samples.
    pub fn extend(&mut self, other: Timed) {
        self.secs.extend(other.secs);
        self.steal.extend(other.steal);
    }

    /// The samples taken while at most [`STEAL_LIMIT`] of the CPU time was
    /// stolen; when fewer than [`MIN_BEYOND`] qualify, the [`MIN_BEYOND`]
    /// least disturbed samples instead. In a long spell of heavy steal the
    /// least disturbed samples stay close to a quiet run's, while the
    /// median over all of them can double.
    pub fn steady(&self) -> Vec<f64> {
        let mut order: Vec<usize> = (0..self.secs.len()).collect();
        order.sort_by(|&a, &b| self.steal[a].total_cmp(&self.steal[b]));
        let quiet = self.steal.iter().filter(|&&s| s <= STEAL_LIMIT).count();
        order.truncate(quiet.max(MIN_BEYOND));
        order.into_iter().map(|i| self.secs[i]).collect()
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "statistic of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing sample"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn nearest_rank_matches_definition() {
        assert_eq!(nearest_rank(90.0, 100), 90);
        assert_eq!(nearest_rank(50.0, 5), 3);
        assert_eq!(nearest_rank(99.0, 10), 10);
        assert_eq!(nearest_rank(0.0, 10), 1);
    }

    #[test]
    fn tail_is_p90_at_the_planned_count() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
    }

    #[test]
    fn tail_climbs_with_more_samples_and_falls_with_fewer() {
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&big).percentile, 99.0);
        let mid: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&mid).percentile, 95.0);
        let small: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&small).percentile, 75.0);
        let tiny: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&tiny);
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 6.0);
    }

    #[test]
    fn tail_always_leaves_ten_beyond_when_it_can() {
        for n in 20..400 {
            let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&s);
            let beyond = s.iter().filter(|&&v| v > t.value).count();
            assert!(
                beyond >= MIN_BEYOND,
                "n={n}: {beyond} beyond p{}",
                t.percentile
            );
        }
    }

    #[test]
    fn slowest_rank_takes_the_per_batch_maximum() {
        let merged = slowest_rank(&[vec![1.0, 5.0, 2.0], vec![3.0, 4.0, 2.5]]);
        assert_eq!(merged, vec![3.0, 5.0, 2.5]);
        assert_eq!(slowest_rank(&[vec![7.0]]), vec![7.0]);
    }

    #[test]
    fn disturbed_samples_are_dropped_while_enough_are_quiet() {
        let mut t = Timed::default();
        for i in 0..30 {
            // every third sample disturbed; the limit itself still counts as quiet
            let steal = [0.0, 0.5, STEAL_LIMIT][i % 3];
            t.push(if steal > STEAL_LIMIT { 9.0 } else { 1.0 }, steal);
        }
        assert_eq!(t.steady(), vec![1.0; 20]);
    }

    #[test]
    fn too_few_quiet_samples_are_topped_up_with_the_least_disturbed() {
        let mut busy = Timed::default();
        for i in 0..30 {
            let steal = if i < 4 { 0.0 } else { 0.05 + 0.01 * i as f64 };
            busy.push(i as f64, steal);
        }
        let kept = busy.steady();
        assert_eq!(kept, (0..MIN_BEYOND).map(|i| i as f64).collect::<Vec<_>>());
        let few = Timed {
            secs: vec![3.0, 1.0],
            steal: vec![0.5, 0.4],
        };
        assert_eq!(few.steady(), vec![1.0, 3.0]);
    }

    #[test]
    fn timed_merge_takes_slowest_time_and_largest_steal() {
        let a = Timed {
            secs: vec![1.0, 4.0],
            steal: vec![0.0, 0.1],
        };
        let b = Timed {
            secs: vec![2.0, 3.0],
            steal: vec![0.05, 0.0],
        };
        let m = Timed::slowest(&[a, b]);
        assert_eq!(m.secs, vec![2.0, 4.0]);
        assert_eq!(m.steal, vec![0.05, 0.1]);
    }

    #[test]
    #[should_panic(expected = "batch count")]
    fn slowest_rank_rejects_ragged_batches() {
        slowest_rank(&[vec![1.0, 2.0], vec![1.0]]);
    }
}
