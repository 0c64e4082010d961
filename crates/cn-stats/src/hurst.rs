//! Hurst-exponent estimation via the aggregated-variance method.
//!
//! The variance–time plot of Fig. 3 is the graphical form of the
//! self-similarity analysis of Leland et al. (the paper's \[43\]): for a
//! self-similar count process the variance of `m`-aggregated block means
//! decays as `m^{−β}` with `β = 2 − 2H`. A Poisson process has `H = 0.5`
//! (slope −1); long-range-dependent (bursty) traffic has `H > 0.5` —
//! flatter variance–time curves, exactly what control-plane traffic shows.

use serde::{Deserialize, Serialize};

/// Result of a Hurst estimation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HurstEstimate {
    /// The estimated Hurst exponent `H = 1 − β/2`.
    pub h: f64,
    /// Coefficient of determination of the log–log regression (how well a
    /// single power law describes the decay).
    pub(crate) r_squared: f64,
    /// Number of aggregation scales used.
    pub(crate) scales: usize,
}

/// Estimate the Hurst exponent of a binned count series by the
/// aggregated-variance method.
///
/// Block sizes grow geometrically from 1 until fewer than `min_blocks`
/// whole blocks fit. Returns `None` when the series is too short (< 32
/// bins), constant, or yields fewer than 4 usable scales.
pub fn hurst_aggregated_variance(bins: &[u32], min_blocks: usize) -> Option<HurstEstimate> {
    if bins.len() < 32 {
        return None;
    }
    let min_blocks = min_blocks.max(4);
    let mut points: Vec<(f64, f64)> = Vec::new(); // (ln m, ln var)
    let mut m = 1usize;
    while bins.len() / m >= min_blocks {
        let n_blocks = bins.len() / m;
        let means: Vec<f64> = (0..n_blocks)
            .map(|b| {
                bins[b * m..(b + 1) * m]
                    .iter()
                    .map(|&c| f64::from(c))
                    .sum::<f64>()
                    / m as f64
            })
            .collect();
        let grand = means.iter().sum::<f64>() / n_blocks as f64;
        let var = means.iter().map(|&x| (x - grand).powi(2)).sum::<f64>() / n_blocks as f64;
        if var > 0.0 {
            points.push(((m as f64).ln(), var.ln()));
        }
        m = (m * 2).max(m + 1);
    }
    if points.len() < 4 {
        return None;
    }

    // Least-squares slope of ln var vs ln m.
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let beta = -(n * sxy - sx * sy) / denom; // decay exponent (positive)
    let h = (1.0 - beta / 2.0).clamp(0.0, 1.0);

    // R² of the fit.
    let mean_y = sy / n;
    let slope = -(beta);
    let intercept = (sy - slope * sx) / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        0.0
    };

    Some(HurstEstimate {
        h,
        r_squared,
        scales: points.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Poisson-ish iid bins via thinning a uniform.
    fn iid_bins(n: usize, rate: f64, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Poisson via inversion for small rates.
                let mut k = 0u32;
                let mut p = (-rate).exp();
                let mut f = p;
                let u: f64 = rng.gen();
                while u > f && k < 1_000 {
                    k += 1;
                    p *= rate / f64::from(k);
                    f += p;
                }
                k
            })
            .collect()
    }

    #[test]
    fn iid_counts_have_h_half() {
        let bins = iid_bins(65_536, 3.0, 9);
        let est = hurst_aggregated_variance(&bins, 8).unwrap();
        assert!((est.h - 0.5).abs() < 0.08, "H = {}", est.h);
        assert!(est.r_squared > 0.95, "r² = {}", est.r_squared);
    }

    #[test]
    fn bursty_series_has_high_h() {
        // Superpose heavy-tailed ON/OFF sources (classic LRD construction).
        let mut rng = StdRng::seed_from_u64(17);
        let n = 65_536;
        let mut bins = vec![0u32; n];
        for _ in 0..50 {
            let mut t = 0usize;
            let mut on = rng.gen::<bool>();
            while t < n {
                // Pareto(α = 1.2) period lengths — infinite variance.
                let u: f64 = 1.0 - rng.gen::<f64>();
                let len = (4.0 * u.powf(-1.0 / 1.2)) as usize;
                if on {
                    for tick in bins.iter_mut().skip(t).take(len) {
                        *tick += 1;
                    }
                }
                t += len.max(1);
                on = !on;
            }
        }
        let est = hurst_aggregated_variance(&bins, 8).unwrap();
        assert!(
            est.h > 0.65,
            "H = {} (expected long-range dependence)",
            est.h
        );
    }

    #[test]
    fn shuffling_destroys_dependence() {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(23);
        // Build the bursty series, then shuffle its bins.
        let mut bins = vec![0u32; 32_768];
        let mut t = 0usize;
        while t < bins.len() {
            let u: f64 = 1.0 - rng.gen::<f64>();
            let len = (4.0 * u.powf(-1.0 / 1.2)) as usize;
            for tick in bins.iter_mut().skip(t).take(len) {
                *tick += 3;
            }
            t += 2 * len.max(1);
        }
        let bursty = hurst_aggregated_variance(&bins, 8).unwrap();
        bins.shuffle(&mut rng);
        let shuffled = hurst_aggregated_variance(&bins, 8).unwrap();
        assert!(
            bursty.h > shuffled.h + 0.1,
            "bursty {} vs shuffled {}",
            bursty.h,
            shuffled.h
        );
        assert!(
            (shuffled.h - 0.5).abs() < 0.1,
            "shuffled H = {}",
            shuffled.h
        );
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(hurst_aggregated_variance(&[], 8).is_none());
        assert!(hurst_aggregated_variance(&[1; 16], 8).is_none());
        assert!(hurst_aggregated_variance(&[5; 4096], 8).is_none()); // constant
    }
}
