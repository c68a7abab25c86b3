//! Minimal dependency-free timing harness for the `ablations` binary.
//!
//! The methodology is the usual one: calibrate an inner iteration count
//! until one sample lasts long enough for the clock to resolve, warm up,
//! take several samples, and report the median and minimum per-iteration
//! time. The *minimum* is the least-noise estimate and is what throughput
//! numbers are derived from.

use std::time::Instant;

/// One benchmark measurement.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median seconds per iteration across samples.
    pub median_s: f64,
    /// Minimum seconds per iteration across samples (least noise).
    pub min_s: f64,
    /// Inner iterations per sample after calibration.
    pub iters: u64,
    /// Number of samples taken.
    pub samples: usize,
}

impl Measurement {
    /// Throughput in GFlop/s for a kernel doing `flops` flops per iteration.
    pub fn gflops(&self, flops: f64) -> f64 {
        flops / self.min_s / 1e9
    }
}

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// Samples per measurement.
    pub samples: usize,
    /// Target wall time per sample; the inner iteration count is grown
    /// until one sample reaches this.
    pub target_sample_s: f64,
    /// Cap on the calibrated inner iteration count.
    pub max_iters: u64,
}

impl Bench {
    /// A faster configuration for expensive setups (5 samples of >= 5 ms).
    pub fn quick() -> Self {
        Bench {
            samples: 5,
            target_sample_s: 0.005,
            max_iters: 1 << 16,
        }
    }

    /// Measures `f`, returning per-iteration statistics.
    pub fn measure<F: FnMut()>(&self, mut f: F) -> Measurement {
        // calibrate: double the iteration count until a sample is long
        // enough for the clock
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let dt = t0.elapsed().as_secs_f64();
            if dt >= self.target_sample_s || iters >= self.max_iters {
                break;
            }
            // aim straight at the target instead of pure doubling
            let scale = (self.target_sample_s / dt.max(1e-9)).ceil() as u64;
            iters = (iters * scale.clamp(2, 16)).min(self.max_iters);
        }
        // warm-up sample already ran during calibration; now measure
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            per_iter.push(t0.elapsed().as_secs_f64() / iters as f64);
        }
        per_iter.sort_by(f64::total_cmp);
        Measurement {
            median_s: per_iter[per_iter.len() / 2],
            min_s: per_iter[0],
            iters,
            samples: self.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_sane_statistics() {
        let cfg = Bench {
            samples: 3,
            target_sample_s: 1e-4,
            max_iters: 1 << 12,
        };
        let mut acc = 0u64;
        let m = cfg.measure(|| {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(acc);
        });
        assert!(m.min_s > 0.0);
        assert!(m.median_s >= m.min_s);
        assert_eq!(m.samples, 3);
        assert!(m.iters >= 1);
    }

    #[test]
    fn throughput_conversions() {
        let m = Measurement {
            median_s: 2e-3,
            min_s: 1e-3,
            iters: 10,
            samples: 5,
        };
        assert!((m.gflops(2e6) - 2.0).abs() < 1e-12);
    }
}
