//! Pareto (power-law) distribution.
//!
//! Applied in the literature to model self-similarity in wide-area packet
//! traffic (§4.1): density `f(x) = α x_mᵅ x^{-(α+1)}` for `x ≥ x_m`.

use crate::fit::FitError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Pareto distribution with shape `α > 0` and scale (minimum) `x_m > 0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pareto {
    shape: f64,
    scale: f64,
}

impl Pareto {
    /// Create with shape `α` and scale `x_m`. Returns `None` unless both are
    /// finite and positive.
    pub fn new(shape: f64, scale: f64) -> Option<Pareto> {
        (shape.is_finite() && shape > 0.0 && scale.is_finite() && scale > 0.0)
            .then_some(Pareto { shape, scale })
    }

    /// Shape parameter α.
    pub(crate) fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter x_m (minimum possible value).
    pub(crate) fn scale(&self) -> f64 {
        self.scale
    }

    /// Maximum-likelihood fit: `x_m = min(samples)`,
    /// `α = n / Σ ln(x_i / x_m)`.
    pub(crate) fn fit(samples: &[f64]) -> Result<Pareto, FitError> {
        let n = samples.len();
        if n == 0 {
            return Err(FitError::Empty);
        }
        if samples.iter().any(|&x| !x.is_finite() || x <= 0.0) {
            return Err(FitError::InvalidSample);
        }
        let xm = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let log_sum: f64 = samples.iter().map(|&x| (x / xm).ln()).sum();
        if log_sum <= 0.0 {
            return Err(FitError::Degenerate("all samples equal".into()));
        }
        Ok(Pareto {
            shape: n as f64 / log_sum,
            scale: xm,
        })
    }

    /// CDF: `1 - (x_m / x)^α` for `x ≥ x_m`, else 0.
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        if x < self.scale {
            0.0
        } else {
            1.0 - (self.scale / x).powf(self.shape)
        }
    }

    /// Mean: `α x_m / (α - 1)` for `α > 1`, infinite otherwise.
    pub(crate) fn mean(&self) -> f64 {
        if self.shape > 1.0 {
            self.shape * self.scale / (self.shape - 1.0)
        } else {
            f64::INFINITY
        }
    }

    /// Inverse-transform sample: `x_m · U^{-1/α}`.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        self.scale * u.powf(-1.0 / self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructor_validates() {
        assert!(Pareto::new(0.0, 1.0).is_none());
        assert!(Pareto::new(1.0, 0.0).is_none());
        assert!(Pareto::new(f64::NAN, 1.0).is_none());
        assert!(Pareto::new(2.0, 1.0).is_some());
    }

    #[test]
    fn cdf_known_values() {
        let d = Pareto::new(2.0, 1.0).unwrap();
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(1.0), 0.0);
        assert!((d.cdf(2.0) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn mean_tail_behavior() {
        assert!(Pareto::new(0.9, 1.0).unwrap().mean().is_infinite());
        assert!((Pareto::new(3.0, 2.0).unwrap().mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mle_recovers_params() {
        let truth = Pareto::new(2.5, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..100_000).map(|_| truth.sample(&mut rng)).collect();
        let fitted = Pareto::fit(&samples).unwrap();
        assert!(
            (fitted.shape() - 2.5).abs() / 2.5 < 0.02,
            "{}",
            fitted.shape()
        );
        assert!(
            (fitted.scale() - 0.7).abs() / 0.7 < 0.01,
            "{}",
            fitted.scale()
        );
    }

    #[test]
    fn fit_rejects_bad_input() {
        assert!(matches!(Pareto::fit(&[]), Err(FitError::Empty)));
        assert!(matches!(Pareto::fit(&[0.0]), Err(FitError::InvalidSample)));
        assert!(matches!(
            Pareto::fit(&[3.0, 3.0]),
            Err(FitError::Degenerate(_))
        ));
    }

    #[test]
    fn samples_at_least_scale() {
        let d = Pareto::new(1.2, 4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1_000 {
            assert!(d.sample(&mut rng) >= 4.0);
        }
    }
}
