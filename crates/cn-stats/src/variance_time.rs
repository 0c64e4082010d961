//! Variance–time plots for burstiness analysis (Fig. 3).
//!
//! The paper's procedure (§4.2): bin a point process into 100 ms intervals;
//! for each time scale `M` (1…10³ s), split the timeline into `M`-second
//! windows, compute each window's average count per 100 ms bin, and report
//! the variance of that per-window average across windows, normalized by
//! the squared mean. A Poisson process of the same rate gives a reference
//! line (`1/(mλ)` for `m` bins per window); burstier-than-Poisson traffic
//! sits above it.

use serde::{Deserialize, Serialize};

/// Bin width used by the paper: 100 ms.
pub(crate) const BIN_MS: u64 = 100;

/// One point of a variance–time plot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VarianceTimePoint {
    /// The time scale `M`, in seconds.
    pub scale_secs: u64,
    /// Normalized variance of per-window mean counts: `Var(k̄) / (E[k̄])²`.
    pub normalized_variance: f64,
    /// Number of `M`-second windows that contributed.
    pub(crate) windows: usize,
}

/// Count events into 100 ms bins over `[start_ms, end_ms)`.
///
/// `event_times_ms` need not be sorted; events outside the range are
/// ignored.
pub fn bin_counts(event_times_ms: &[u64], start_ms: u64, end_ms: u64) -> Vec<u32> {
    assert!(end_ms >= start_ms, "end before start");
    let n_bins = ((end_ms - start_ms) / BIN_MS) as usize;
    let mut bins = vec![0u32; n_bins];
    for &t in event_times_ms {
        if t >= start_ms && t < start_ms + n_bins as u64 * BIN_MS {
            bins[((t - start_ms) / BIN_MS) as usize] += 1;
        }
    }
    bins
}

/// Compute the variance–time plot of pre-binned 100 ms counts for the given
/// time scales (in seconds).
///
/// Scales for which fewer than 2 whole windows fit are skipped.
pub fn variance_time_plot(bins: &[u32], scales_secs: &[u64]) -> Vec<VarianceTimePoint> {
    let mut out = Vec::new();
    for &m in scales_secs {
        if m == 0 {
            continue;
        }
        let bins_per_window = (m * 1_000 / BIN_MS) as usize;
        if bins_per_window == 0 {
            continue;
        }
        let n_windows = bins.len() / bins_per_window;
        if n_windows < 2 {
            continue;
        }
        let means: Vec<f64> = (0..n_windows)
            .map(|w| {
                let slice = &bins[w * bins_per_window..(w + 1) * bins_per_window];
                slice.iter().map(|&c| f64::from(c)).sum::<f64>() / bins_per_window as f64
            })
            .collect();
        let grand_mean = means.iter().sum::<f64>() / n_windows as f64;
        if grand_mean <= 0.0 {
            continue;
        }
        let var = means.iter().map(|&k| (k - grand_mean).powi(2)).sum::<f64>() / n_windows as f64;
        out.push(VarianceTimePoint {
            scale_secs: m,
            normalized_variance: var / (grand_mean * grand_mean),
            windows: n_windows,
        });
    }
    out
}

/// The paper's log-spaced scale grid: 1 s to 1000 s.
pub fn default_scales() -> Vec<u64> {
    vec![1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000]
}

/// Analytic variance–time reference for a Poisson process with per-100 ms
/// rate `lambda_per_bin` at time scale `scale_secs`:
/// `Var(k̄)/(E k̄)² = 1 / (m·λ)` where `m` is the bins per window.
pub fn poisson_reference(lambda_per_bin: f64, scale_secs: u64) -> f64 {
    let m = (scale_secs * 1_000 / BIN_MS) as f64;
    1.0 / (m * lambda_per_bin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn binning_counts_correctly() {
        let times = [0, 50, 99, 100, 250, 999, 1_000];
        let bins = bin_counts(&times, 0, 1_000);
        assert_eq!(bins.len(), 10);
        assert_eq!(bins[0], 3);
        assert_eq!(bins[1], 1);
        assert_eq!(bins[2], 1);
        assert_eq!(bins[9], 1);
        assert_eq!(bins.iter().sum::<u32>(), 6); // t=1000 excluded
    }

    #[test]
    fn binning_respects_offset() {
        let times = [1_000, 1_050, 2_000];
        let bins = bin_counts(&times, 1_000, 2_000);
        assert_eq!(bins[0], 2);
        assert_eq!(bins.iter().sum::<u32>(), 2);
    }

    #[test]
    fn poisson_trace_tracks_reference() {
        // Generate a Poisson process at 5 events/s for 4000 s.
        let mut rng = StdRng::seed_from_u64(99);
        let rate_per_ms = 0.005;
        let mut t = 0.0f64;
        let mut times = Vec::new();
        let horizon = 4_000_000.0;
        loop {
            let u: f64 = 1.0 - rng.gen::<f64>();
            t += -u.ln() / rate_per_ms;
            if t >= horizon {
                break;
            }
            times.push(t as u64);
        }
        let bins = bin_counts(&times, 0, horizon as u64);
        let lambda_per_bin = rate_per_ms * BIN_MS as f64;
        let plot = variance_time_plot(&bins, &[1, 10, 100]);
        for p in plot {
            let reference = poisson_reference(lambda_per_bin, p.scale_secs);
            let ratio = p.normalized_variance / reference;
            assert!(
                (0.5..2.0).contains(&ratio),
                "scale {} ratio {}",
                p.scale_secs,
                ratio
            );
        }
    }

    #[test]
    fn bursty_trace_exceeds_poisson() {
        // Bursts: 100 events in one 100 ms bin every 100 s.
        let mut times = Vec::new();
        for burst in 0..40u64 {
            let base = burst * 100_000;
            for i in 0..100 {
                times.push(base + i % 100);
            }
        }
        let bins = bin_counts(&times, 0, 4_000_000);
        let total_bins = bins.len() as f64;
        let lambda_per_bin = times.len() as f64 / total_bins;
        let plot = variance_time_plot(&bins, &[10]);
        let p = &plot[0];
        assert!(p.normalized_variance > 5.0 * poisson_reference(lambda_per_bin, 10));
    }

    #[test]
    fn degenerate_inputs_skip_gracefully() {
        assert!(variance_time_plot(&[], &[1, 10]).is_empty());
        assert!(variance_time_plot(&[0; 100], &[1]).is_empty()); // zero mean
        let one_window = vec![1u32; 10]; // only 1 window at 1 s
        assert!(variance_time_plot(&one_window, &[1]).is_empty());
    }
}
