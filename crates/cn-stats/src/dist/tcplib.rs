//! Tcplib-style empirical scale family.
//!
//! Tcplib (Danzig & Jamin, 1991) models wide-area TCP/IP traffic with
//! *empirical* distributions measured from real traces — for inter-arrival
//! time, the distribution of packet inter-arrivals within TELNET
//! connections. Following that approach, this module ships a fixed
//! reference *shape* (a piecewise-linear quantile function with a log-normal
//! body and a heavy upper tail, normalized to mean 1, approximating the
//! published TELNET inter-arrival curve) and fits data by scaling the shape
//! to the sample mean — a one-parameter empirical scale family, which is how
//! the paper "fits" Tcplib with MLE for its Tables 8–10.

use crate::fit::FitError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Probability levels of the reference quantile grid.
const P_GRID: [f64; 14] = [
    0.0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99, 1.0,
];

/// Reference quantile values before normalization: log-normal-like body with
/// a long upper tail, in arbitrary units.
const Q_RAW: [f64; 14] = [
    0.008, 0.025, 0.045, 0.09, 0.16, 0.26, 0.40, 0.62, 0.98, 1.70, 3.60, 6.50, 18.0, 60.0,
];

/// Mean of the piecewise-linear quantile function on `Q_RAW` (trapezoid over
/// the probability grid), used to normalize the shape to mean 1.
fn raw_mean() -> f64 {
    let mut mean = 0.0;
    for i in 1..P_GRID.len() {
        mean += (P_GRID[i] - P_GRID[i - 1]) * (Q_RAW[i] + Q_RAW[i - 1]) / 2.0;
    }
    mean
}

/// Tcplib-style empirical distribution: the fixed reference shape scaled by
/// a positive factor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tcplib {
    scale: f64,
}

impl Tcplib {
    /// Create with the given scale (which equals the distribution mean).
    /// Returns `None` unless `scale` is finite and positive.
    pub fn new(scale: f64) -> Option<Tcplib> {
        (scale.is_finite() && scale > 0.0).then_some(Tcplib { scale })
    }

    /// Scale factor (= mean, since the reference shape has mean 1).
    pub(crate) fn scale(&self) -> f64 {
        self.scale
    }

    /// Fit by matching the sample mean (the MLE for a pure scale family is
    /// mean-matching when the shape is held fixed).
    pub(crate) fn fit(samples: &[f64]) -> Result<Tcplib, FitError> {
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
        Ok(Tcplib { scale: mean })
    }

    /// Quantile function: piecewise-linear interpolation of the reference
    /// grid, scaled.
    pub(crate) fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let norm = self.scale / raw_mean();
        let i = P_GRID.partition_point(|&g| g < p).min(P_GRID.len() - 1);
        if i == 0 {
            return Q_RAW[0] * norm;
        }
        let (p0, p1) = (P_GRID[i - 1], P_GRID[i]);
        let (q0, q1) = (Q_RAW[i - 1] * norm, Q_RAW[i] * norm);
        q0 + (q1 - q0) * (p - p0) / (p1 - p0)
    }

    /// CDF: inverse of the piecewise-linear quantile function.
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        let norm = self.scale / raw_mean();
        let x_raw = x / norm;
        if x_raw <= Q_RAW[0] {
            return 0.0;
        }
        if x_raw >= Q_RAW[Q_RAW.len() - 1] {
            return 1.0;
        }
        let i = Q_RAW.partition_point(|&q| q < x_raw);
        let (q0, q1) = (Q_RAW[i - 1], Q_RAW[i]);
        let (p0, p1) = (P_GRID[i - 1], P_GRID[i]);
        p0 + (p1 - p0) * (x_raw - q0) / (q1 - q0)
    }

    /// Mean (= scale by construction of the normalized shape).
    pub(crate) fn mean(&self) -> f64 {
        self.scale
    }

    /// Inverse-transform sample from the piecewise-linear quantile function.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.gen::<f64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shape_is_monotone() {
        for w in Q_RAW.windows(2) {
            assert!(w[0] < w[1]);
        }
        for w in P_GRID.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn mean_equals_scale() {
        let d = Tcplib::new(3.5).unwrap();
        // Empirical check: average many samples.
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 3.5).abs() / 3.5 < 0.02, "mean {mean}");
    }

    #[test]
    fn cdf_quantile_inverse() {
        let d = Tcplib::new(1.0).unwrap();
        for &p in &[0.01, 0.1, 0.33, 0.5, 0.77, 0.95, 0.999] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-9, "p {p}");
        }
    }

    #[test]
    fn cdf_bounds() {
        let d = Tcplib::new(2.0).unwrap();
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(1e12), 1.0);
    }

    #[test]
    fn fit_matches_mean() {
        let samples = [1.0, 2.0, 3.0, 6.0];
        let d = Tcplib::fit(&samples).unwrap();
        assert!((d.scale() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fit_rejects_bad_input() {
        assert!(matches!(Tcplib::fit(&[]), Err(FitError::Empty)));
        assert!(matches!(Tcplib::fit(&[-1.0]), Err(FitError::InvalidSample)));
        assert!(matches!(Tcplib::fit(&[0.0]), Err(FitError::Degenerate(_))));
    }
}
