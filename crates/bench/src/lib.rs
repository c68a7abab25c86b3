//! Shared infrastructure for the figure/table regeneration binaries.
//!
//! Every binary accepts `--scale test|medium|paper` (default `medium`):
//! `test` runs in well under a second, `medium` reproduces every figure
//! shape in seconds to minutes, `paper` builds the full-size matrices
//! (several GB of memory, tens of minutes).

use spmv_matrix::holstein::{hamiltonian, HolsteinOrdering, HolsteinParams};
use spmv_matrix::samg::{poisson, SamgParams};
use spmv_matrix::CsrMatrix;

pub mod microbench;

/// Problem-size scaling of a regeneration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast, shapes only.
    Test,
    /// The default: faithful shapes at ~1/20 of the paper's dimensions.
    Medium,
    /// The paper's full problem sizes.
    Paper,
}

impl Scale {
    /// Parses `--scale <x>` from the process arguments.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        for w in args.windows(2) {
            if w[0] == "--scale" {
                return match w[1].as_str() {
                    "test" => Scale::Test,
                    "medium" => Scale::Medium,
                    "paper" => Scale::Paper,
                    other => panic!("unknown scale '{other}' (use test|medium|paper)"),
                };
            }
        }
        Scale::Medium
    }

    /// Label for report headers.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    }
}

/// The HMeP matrix (electron-contiguous Holstein–Hubbard) at this scale.
pub fn hmep(scale: Scale) -> CsrMatrix {
    hamiltonian(&holstein_params(
        scale,
        HolsteinOrdering::ElectronContiguous,
    ))
}

/// The HMEp matrix (phonon-contiguous) at this scale.
pub fn hmep_phonon(scale: Scale) -> CsrMatrix {
    hamiltonian(&holstein_params(scale, HolsteinOrdering::PhononContiguous))
}

/// Parameters behind [`hmep`] / [`hmep_phonon`].
///
/// The harness's `Medium` is larger than `HolsteinParams::medium_scale`
/// (1.2M rows vs 370k): strong-scaling shapes depend on per-rank message
/// sizes (eager vs rendezvous protocol), and at 370k rows a 32-node sweep
/// drops below realistic message sizes. 1.2M rows keeps the paper's
/// communication regime at a twentieth of its memory footprint.
pub fn holstein_params(scale: Scale, ordering: HolsteinOrdering) -> HolsteinParams {
    match scale {
        Scale::Test => HolsteinParams::test_scale(ordering),
        Scale::Medium => HolsteinParams {
            truncation: spmv_matrix::holstein::PhononTruncation::AtMost(8),
            ..HolsteinParams::medium_scale(ordering)
        },
        Scale::Paper => HolsteinParams::paper_scale(ordering),
    }
}

/// The sAMG car-geometry Poisson matrix at this scale.
pub fn samg(scale: Scale) -> CsrMatrix {
    poisson(&samg_params(scale))
}

/// Parameters behind [`samg`].
///
/// As with [`holstein_params`], the harness's `Medium` is larger than the
/// library's `medium_scale` (≈2.9M rows vs 1.35M): the Fig. 6 "no task-mode
/// advantage" shape depends on the surface-to-volume ratio of the per-node
/// row blocks, which degrades as `V^(-1/3)` when the problem shrinks.
pub fn samg_params(scale: Scale) -> SamgParams {
    match scale {
        Scale::Test => SamgParams::test_scale(),
        Scale::Medium => SamgParams {
            nx: 320,
            ny: 132,
            nz: 132,
            ..SamgParams::medium_scale()
        },
        Scale::Paper => SamgParams::paper_scale(),
    }
}

/// Node counts swept by the scaling figures at this scale (the paper: up
/// to 32).
pub fn node_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Test => vec![1, 2, 4],
        Scale::Medium => vec![1, 2, 4, 8, 16, 32],
        Scale::Paper => vec![1, 2, 4, 8, 16, 24, 32],
    }
}

/// The size in bytes of the highest cache level CPU 0 reports through
/// sysfs, or `None` where that is not readable (non-Linux hosts).
pub fn llc_bytes() -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.flatten()
        .filter_map(|entry| {
            let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
            let level: u32 = read("level")?.trim().parse().ok()?;
            Some((level, parse_cache_size(read("size")?.trim())?))
        })
        .max()
        .map(|(_, bytes)| bytes)
}

/// Parses a sysfs cache size such as `307200K`, `4M` or `512`.
fn parse_cache_size(s: &str) -> Option<usize> {
    let (digits, unit) = match s.strip_suffix(['K', 'M', 'G']) {
        Some(d) => (d, &s[d.len()..]),
        None => (s, ""),
    };
    let shift = match unit {
        "K" => 10,
        "M" => 20,
        "G" => 30,
        _ => 0,
    };
    digits.parse::<usize>().ok().map(|d| d << shift)
}

/// Prints a report header with a rule line.
pub fn header(title: &str) {
    println!("{title}");
    println!("{}", "=".repeat(title.len()));
}

/// Marks the paper's 50 % parallel-efficiency point on a scaling series:
/// returns the largest node count still at ≥ 50 % efficiency relative to
/// the single-node value of the same series.
pub fn efficiency_50_marker(points: &[(usize, f64)]) -> Option<usize> {
    let single = points.iter().find(|&&(n, _)| n == 1).map(|&(_, g)| g)?;
    points
        .iter()
        .filter(|&&(n, g)| g / (n as f64 * single) >= 0.5)
        .map(|&(n, _)| n)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_build_distinct_sizes() {
        let t = hmep(Scale::Test);
        assert_eq!(t.nrows(), 1260);
        let s = samg(Scale::Test);
        assert!(s.nrows() > 500);
    }

    #[test]
    fn cache_sizes_parse_with_their_units() {
        assert_eq!(parse_cache_size("307200K"), Some(300 << 20));
        assert_eq!(parse_cache_size("4M"), Some(4 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("lots"), None);
    }

    #[test]
    fn efficiency_marker_logic() {
        let pts = vec![(1, 4.0), (2, 7.0), (4, 10.0), (8, 14.0)];
        // eff: 1.0, 0.875, 0.625, 0.4375
        assert_eq!(efficiency_50_marker(&pts), Some(4));
        assert_eq!(
            efficiency_50_marker(&[(2, 8.0)]),
            None,
            "needs a 1-node baseline"
        );
    }

    #[test]
    fn node_count_sweeps_are_sorted() {
        for s in [Scale::Test, Scale::Medium, Scale::Paper] {
            let n = node_counts(s);
            assert!(n.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(n[0], 1);
        }
    }
}
