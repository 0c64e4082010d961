//! Exponential distribution — the inter-arrival law of a Poisson process.
//!
//! The predominant classic model for network traffic arrivals (§4.1 of the
//! paper): `P(A > t) = e^{-λt}` with fixed rate λ.

use crate::fit::FitError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Exponential distribution with rate `λ > 0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Create with the given rate. Returns `None` unless `rate` is finite
    /// and positive.
    pub fn new(rate: f64) -> Option<Exponential> {
        (rate.is_finite() && rate > 0.0).then_some(Exponential { rate })
    }

    /// The rate parameter λ.
    pub(crate) fn rate(&self) -> f64 {
        self.rate
    }

    /// Maximum-likelihood fit: `λ = 1 / mean(samples)`.
    pub fn fit(samples: &[f64]) -> Result<Exponential, FitError> {
        let n = samples.len();
        if n == 0 {
            return Err(FitError::Empty);
        }
        if samples.iter().any(|&x| !x.is_finite() || x < 0.0) {
            return Err(FitError::InvalidSample);
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        if mean <= 0.0 {
            return Err(FitError::Degenerate("all samples are zero".into()));
        }
        Ok(Exponential { rate: 1.0 / mean })
    }

    /// CDF: `1 - e^{-λx}` for `x ≥ 0`, else 0.
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }

    /// Mean `1/λ`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Inverse-transform sample: `-ln(U)/λ`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        -u.ln() / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructor_validates() {
        assert!(Exponential::new(0.0).is_none());
        assert!(Exponential::new(-1.0).is_none());
        assert!(Exponential::new(f64::NAN).is_none());
        assert!(Exponential::new(2.5).is_some());
    }

    #[test]
    fn cdf_known_values() {
        let d = Exponential::new(1.0).unwrap();
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.cdf(0.0), 0.0);
        assert!((d.cdf(1.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-15);
        assert!((d.cdf(f64::INFINITY) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn mle_recovers_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let truth = Exponential::new(0.25).unwrap();
        let samples: Vec<f64> = (0..100_000).map(|_| truth.sample(&mut rng)).collect();
        let fitted = Exponential::fit(&samples).unwrap();
        assert!(
            (fitted.rate() - 0.25).abs() / 0.25 < 0.02,
            "{}",
            fitted.rate()
        );
    }

    #[test]
    fn fit_rejects_bad_input() {
        assert!(matches!(Exponential::fit(&[]), Err(FitError::Empty)));
        assert!(matches!(
            Exponential::fit(&[1.0, -2.0]),
            Err(FitError::InvalidSample)
        ));
        assert!(matches!(
            Exponential::fit(&[0.0, 0.0]),
            Err(FitError::Degenerate(_))
        ));
    }

    #[test]
    fn sample_mean_matches() {
        let d = Exponential::new(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
