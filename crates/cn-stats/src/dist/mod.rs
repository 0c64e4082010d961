//! Parametric (and one empirical) probability distributions.
//!
//! These are the classic models for Internet-traffic inter-arrival time
//! evaluated in §4 of the paper — exponential (i.e. Poisson arrivals),
//! Pareto, Weibull, Tcplib — plus the log-normal used by the ground-truth
//! world simulator. Each family exposes `cdf`, `mean`, and `sample`, and a
//! maximum-likelihood `fit` constructor (see [`crate::fit`] for the shared
//! error type).

mod exponential;
mod gamma;
mod lognormal;
mod pareto;
mod tcplib;
mod weibull;

pub use exponential::Exponential;
pub use gamma::Gamma;
pub use lognormal::LogNormal;
pub use pareto::Pareto;
pub use tcplib::Tcplib;
pub use weibull::Weibull;

use crate::detmath;
use crate::ecdf::Ecdf;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Sample a standard normal deviate (Box–Muller; one value per call).
pub(crate) fn std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Draw u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A closed set of distribution models usable as a sojourn/inter-arrival
/// time law in the traffic models.
///
/// `Empirical` is the paper's own choice (§5.2); the parametric variants are
/// used by the Base/B1/B2 comparison methods and by the statistical-test
/// tables (Tables 8–10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// Exponential inter-arrival (Poisson process).
    Exponential(Exponential),
    /// Pareto (power-law) model.
    Pareto(Pareto),
    /// Weibull model.
    Weibull(Weibull),
    /// Log-normal model.
    LogNormal(LogNormal),
    /// Gamma model.
    Gamma(Gamma),
    /// Tcplib-style empirical scale family.
    Tcplib(Tcplib),
    /// Empirical CDF of the observed samples.
    Empirical(Ecdf),
}

impl Dist {
    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        match self {
            Dist::Exponential(d) => d.cdf(x),
            Dist::Pareto(d) => d.cdf(x),
            Dist::Weibull(d) => d.cdf(x),
            Dist::LogNormal(d) => d.cdf(x),
            Dist::Gamma(d) => d.cdf(x),
            Dist::Tcplib(d) => d.cdf(x),
            Dist::Empirical(e) => e.cdf(x),
        }
    }

    /// Distribution mean.
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Exponential(d) => d.mean(),
            Dist::Pareto(d) => d.mean(),
            Dist::Weibull(d) => d.mean(),
            Dist::LogNormal(d) => d.mean(),
            Dist::Gamma(d) => d.mean(),
            Dist::Tcplib(d) => d.mean(),
            Dist::Empirical(e) => e.mean(),
        }
    }

    /// Draw one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Dist::Exponential(d) => d.sample(rng),
            Dist::Pareto(d) => d.sample(rng),
            Dist::Weibull(d) => d.sample(rng),
            Dist::LogNormal(d) => d.sample(rng),
            Dist::Gamma(d) => d.sample(rng),
            Dist::Tcplib(d) => d.sample(rng),
            Dist::Empirical(e) => e.sample(rng),
        }
    }

    /// Draw one value with no libm call: the same law as [`Dist::sample`],
    /// drawn on the crate's portable kernels, so the bits are the same on
    /// every host. LogNormal is `exp(μ + σ·Z)` with a ziggurat `Z`,
    /// Exponential `−ln U / λ`, Pareto, Weibull and Gamma the formulas of
    /// `sample`; Tcplib and Empirical draw as `sample` does.
    pub fn sample_portable<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let unit = |rng: &mut R| 1.0 - rng.gen::<f64>(); // (0, 1]
        match self {
            Dist::Exponential(d) => -detmath::ln(unit(rng)) / d.rate(),
            Dist::Pareto(d) => d.scale() * detmath::pow(unit(rng), -1.0 / d.shape()),
            Dist::Weibull(d) => d.scale() * detmath::pow(-detmath::ln(unit(rng)), 1.0 / d.shape()),
            Dist::LogNormal(d) => detmath::exp(d.mu() + d.sigma() * detmath::std_normal(rng)),
            Dist::Gamma(d) => d.sample_portable(rng),
            Dist::Tcplib(d) => d.sample(rng),
            Dist::Empirical(e) => e.sample(rng),
        }
    }

    /// Multiply the distribution's *values* by `factor > 0` (e.g. scaling
    /// durations): the scaled distribution of `factor·X`.
    ///
    /// Used by the 5G adaptation (§6): making handovers `k×` more frequent
    /// shrinks HO-related sojourn/inter-arrival times by `1/k`.
    pub fn scale_values(&self, factor: f64) -> Dist {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        match self {
            Dist::Exponential(d) => {
                Dist::Exponential(Exponential::new(d.rate() / factor).expect("positive rate"))
            }
            Dist::Pareto(d) => {
                Dist::Pareto(Pareto::new(d.shape(), d.scale() * factor).expect("positive scale"))
            }
            Dist::Weibull(d) => {
                Dist::Weibull(Weibull::new(d.shape(), d.scale() * factor).expect("positive scale"))
            }
            Dist::LogNormal(d) => Dist::LogNormal(
                LogNormal::new(d.mu() + factor.ln(), d.sigma()).expect("valid params"),
            ),
            Dist::Gamma(d) => {
                Dist::Gamma(Gamma::new(d.shape(), d.scale() * factor).expect("positive scale"))
            }
            Dist::Tcplib(d) => {
                Dist::Tcplib(Tcplib::new(d.scale() * factor).expect("positive scale"))
            }
            Dist::Empirical(e) => Dist::Empirical(
                Ecdf::new(e.values().map(|x| x * factor).collect())
                    .expect("non-empty finite samples"),
            ),
        }
    }

    /// Short family name for reports ("Poisson", "Pareto", ...).
    pub fn family(&self) -> &'static str {
        match self {
            Dist::Exponential(_) => "Poisson",
            Dist::Pareto(_) => "Pareto",
            Dist::Weibull(_) => "Weibull",
            Dist::LogNormal(_) => "LogNormal",
            Dist::Gamma(_) => "Gamma",
            Dist::Tcplib(_) => "Tcplib",
            Dist::Empirical(_) => "CDF",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn std_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| std_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn dist_enum_dispatch_matches_inner() {
        let e = Exponential::new(2.0).unwrap();
        let d = Dist::Exponential(e.clone());
        assert_eq!(d.cdf(0.7), e.cdf(0.7));
        assert_eq!(d.mean(), e.mean());
        assert_eq!(d.family(), "Poisson");
    }

    #[test]
    fn scale_values_scales_the_mean() {
        let dists = vec![
            Dist::Exponential(Exponential::new(2.0).unwrap()),
            Dist::Pareto(Pareto::new(3.0, 1.0).unwrap()),
            Dist::Weibull(Weibull::new(1.5, 2.0).unwrap()),
            Dist::LogNormal(LogNormal::new(0.5, 0.7).unwrap()),
            Dist::Gamma(Gamma::new(2.0, 1.5).unwrap()),
            Dist::Tcplib(Tcplib::new(4.0).unwrap()),
            Dist::Empirical(crate::ecdf::Ecdf::new(vec![1.0, 2.0, 3.0]).unwrap()),
        ];
        for d in dists {
            let scaled = d.scale_values(2.5);
            assert!(
                (scaled.mean() - 2.5 * d.mean()).abs() / d.mean() < 1e-9,
                "{}: {} vs {}",
                d.family(),
                scaled.mean(),
                2.5 * d.mean()
            );
        }
    }

    #[test]
    fn scale_values_preserves_shape() {
        let d = Dist::Empirical(crate::ecdf::Ecdf::new(vec![2.0, 4.0]).unwrap());
        let s = d.scale_values(0.5);
        assert_eq!(s.cdf(1.0), d.cdf(2.0));
        assert_eq!(s.cdf(2.0), d.cdf(4.0));
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scale_values_rejects_nonpositive() {
        let d = Dist::Exponential(Exponential::new(1.0).unwrap());
        let _ = d.scale_values(0.0);
    }

    #[test]
    fn dist_serde_round_trip() {
        let d = Dist::Weibull(Weibull::new(1.5, 3.0).unwrap());
        let json = serde_json::to_string(&d).unwrap();
        let back: Dist = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
