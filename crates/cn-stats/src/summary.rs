//! Box-plot summaries and basic sample statistics (Fig. 2).

use serde::{Deserialize, Serialize};

/// The five-number summary plus mean, as drawn in the paper's box plots
/// (whiskers at min/max, box at quartiles, median and mean lines).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BoxStats {
    /// Smallest observation.
    pub min: f64,
    /// Lower quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Upper quartile (75th percentile).
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of observations.
    pub n: usize,
}

impl BoxStats {
    /// Compute from samples. Returns `None` for empty or non-finite input.
    pub fn from_samples(samples: &[f64]) -> Option<BoxStats> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = sorted.len();
        Some(BoxStats {
            min: sorted[0],
            q1: percentile_sorted(&sorted, 0.25),
            median: percentile_sorted(&sorted, 0.50),
            q3: percentile_sorted(&sorted, 0.75),
            max: sorted[n - 1],
            mean: sorted.iter().sum::<f64>() / n as f64,
            n,
        })
    }
}

/// Linear-interpolated percentile of an already-sorted slice
/// (the "linear"/type-7 method used by numpy's default).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let p = p.clamp(0.0, 1.0);
    let h = p * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

/// Sample mean (0 for an empty slice).
pub(crate) fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Population standard deviation (0 for fewer than 2 samples).
pub fn std_dev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    (samples.iter().map(|&x| (x - m).powi(2)).sum::<f64>() / samples.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_stats_known() {
        let s = BoxStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.n, 5);
    }

    #[test]
    fn box_stats_interpolates() {
        let s = BoxStats::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((s.q1 - 1.75).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.q3 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn box_stats_rejects_bad_input() {
        assert!(BoxStats::from_samples(&[]).is_none());
        assert!(BoxStats::from_samples(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn std_dev_known() {
        assert_eq!(std_dev(&[5.0]), 0.0);
        let sd = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((sd - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }
}
