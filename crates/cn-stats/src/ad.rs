//! Anderson–Darling test for exponentiality.
//!
//! The A² test is a modification of K–S that weights the distribution tails
//! more heavily (§4.1.2). As in the paper — and as in scipy — it is applied
//! only to the exponential reference (the null "the data is exponential with
//! unknown scale"), using Stephens' (1974) critical values for the
//! estimated-parameter case.

use serde::{Deserialize, Serialize};

/// Significance levels for which Stephens' critical values are tabulated.
pub(crate) const AD_SIGNIFICANCE_LEVELS: [f64; 5] = [0.15, 0.10, 0.05, 0.025, 0.01];

/// Stephens' critical values for the exponential null with estimated scale,
/// applied to the corrected statistic `A*² = A²(1 + 0.6/n)`.
pub(crate) const AD_CRITICAL_VALUES: [f64; 5] = [0.922, 1.078, 1.341, 1.606, 1.957];

/// Result of an Anderson–Darling exponentiality test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdOutcome {
    /// Raw A² statistic.
    pub(crate) statistic: f64,
    /// Small-sample corrected statistic `A*² = A²(1 + 0.6/n)`.
    pub(crate) corrected: f64,
    /// Sample size.
    pub(crate) n: usize,
    /// Rate of the exponential fitted to the data (MLE).
    pub(crate) fitted_rate: f64,
}

impl AdOutcome {
    /// Whether the exponential null is *not* rejected at the given
    /// significance level (must be one of `AD_SIGNIFICANCE_LEVELS`;
    /// unknown levels use the closest tabulated one).
    pub fn passes(&self, significance: f64) -> bool {
        let idx = AD_SIGNIFICANCE_LEVELS
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (*a - significance)
                    .abs()
                    .partial_cmp(&(*b - significance).abs())
                    .expect("finite")
            })
            .map(|(i, _)| i)
            .expect("non-empty table");
        self.corrected < AD_CRITICAL_VALUES[idx]
    }
}

/// Anderson–Darling test of `samples` against the exponential family with
/// MLE-estimated rate.
///
/// Returns `None` for samples that are empty, non-finite, negative, or
/// all-zero (the exponential fit is undefined there).
pub fn ad_test_exponential(samples: &[f64]) -> Option<AdOutcome> {
    let n = samples.len();
    if n == 0 || samples.iter().any(|&x| !x.is_finite() || x < 0.0) {
        return None;
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    if mean <= 0.0 {
        return None;
    }
    let rate = 1.0 / mean;
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));

    // A² = -n - (1/n) Σ (2i-1) [ln F(x_i) + ln(1 - F(x_{n+1-i}))]
    // Clamp F away from {0, 1} so ln stays finite for ties at zero.
    let f = |x: f64| (1.0 - (-rate * x).exp()).clamp(1e-300, 1.0 - 1e-15);
    let nf = n as f64;
    let mut sum = 0.0;
    for i in 0..n {
        let fi = f(sorted[i]);
        let fni = f(sorted[n - 1 - i]);
        sum += (2.0 * i as f64 + 1.0) * (fi.ln() + (1.0 - fni).ln());
    }
    let a2 = -nf - sum / nf;
    let corrected = a2 * (1.0 + 0.6 / nf);
    Some(AdOutcome {
        statistic: a2,
        corrected,
        n,
        fitted_rate: rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Exponential;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rejects_bad_samples() {
        assert!(ad_test_exponential(&[]).is_none());
        assert!(ad_test_exponential(&[-1.0]).is_none());
        assert!(ad_test_exponential(&[0.0, 0.0]).is_none());
        assert!(ad_test_exponential(&[f64::NAN]).is_none());
    }

    #[test]
    fn exponential_data_usually_passes() {
        let truth = Exponential::new(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut passes = 0;
        let trials = 50;
        for _ in 0..trials {
            let samples: Vec<f64> = (0..300).map(|_| truth.sample(&mut rng)).collect();
            let out = ad_test_exponential(&samples).unwrap();
            if out.passes(0.05) {
                passes += 1;
            }
        }
        assert!(passes >= 43, "only {passes}/{trials} passed");
    }

    #[test]
    fn uniform_data_fails() {
        let mut rng = StdRng::seed_from_u64(23);
        let samples: Vec<f64> = (0..500).map(|_| rng.gen_range(0.5..1.5)).collect();
        let out = ad_test_exponential(&samples).unwrap();
        assert!(!out.passes(0.05), "A*² = {}", out.corrected);
    }

    #[test]
    fn heavier_tail_fails() {
        // Log-normal with large sigma is far from exponential.
        let mut rng = StdRng::seed_from_u64(29);
        let ln = crate::dist::LogNormal::new(0.0, 2.0).unwrap();
        let samples: Vec<f64> = (0..500).map(|_| ln.sample(&mut rng)).collect();
        let out = ad_test_exponential(&samples).unwrap();
        assert!(!out.passes(0.05), "A*² = {}", out.corrected);
    }

    #[test]
    fn corrected_exceeds_raw_for_small_n() {
        let samples: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let out = ad_test_exponential(&samples).unwrap();
        assert!(out.corrected > out.statistic);
        assert_eq!(out.n, 20);
    }

    #[test]
    fn passes_uses_nearest_level() {
        let out = AdOutcome {
            statistic: 1.0,
            corrected: 1.0,
            n: 100,
            fitted_rate: 1.0,
        };
        assert!(out.passes(0.05)); // 1.0 < 1.341
        assert!(!out.passes(0.15)); // 1.0 > 0.922
    }
}
