//! Weibull distribution.
//!
//! Shown to capture inter-arrival dynamics at session/flow/packet levels in
//! the Internet-traffic literature (§4.1): density
//! `f(x) = (k/λ)(x/λ)^{k-1} e^{-(x/λ)^k}` for `x ≥ 0`.

use crate::fit::FitError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Weibull distribution with shape `k > 0` and scale `λ > 0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Create with shape `k` and scale `λ`. Returns `None` unless both are
    /// finite and positive.
    pub fn new(shape: f64, scale: f64) -> Option<Weibull> {
        (shape.is_finite() && shape > 0.0 && scale.is_finite() && scale > 0.0)
            .then_some(Weibull { shape, scale })
    }

    /// Shape parameter k.
    pub(crate) fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter λ.
    pub(crate) fn scale(&self) -> f64 {
        self.scale
    }

    /// Maximum-likelihood fit via Newton–Raphson on the profile likelihood
    /// for `k`, then the closed form for `λ`.
    ///
    /// The MLE of `k` solves
    /// `Σ x^k ln x / Σ x^k − 1/k − mean(ln x) = 0`;
    /// given `k`, `λ = (Σ x^k / n)^{1/k}`.
    ///
    /// Samples must be strictly positive (the log-likelihood requires it);
    /// callers with zero inter-arrival times should pre-shift or drop them.
    pub(crate) fn fit(samples: &[f64]) -> Result<Weibull, FitError> {
        let n = samples.len();
        if n == 0 {
            return Err(FitError::Empty);
        }
        if samples.iter().any(|&x| !x.is_finite() || x <= 0.0) {
            return Err(FitError::InvalidSample);
        }
        let mean_ln: f64 = samples.iter().map(|&x| x.ln()).sum::<f64>() / n as f64;
        let var_ln: f64 = samples
            .iter()
            .map(|&x| (x.ln() - mean_ln).powi(2))
            .sum::<f64>()
            / n as f64;
        if var_ln < 1e-18 {
            return Err(FitError::Degenerate("all samples equal".into()));
        }

        // Method-of-moments-on-logs starting point: Var(ln X) = π²/(6k²).
        let mut k = (std::f64::consts::PI / (6.0f64 * var_ln).sqrt()).max(1e-3);
        for _ in 0..100 {
            let mut sum_xk = 0.0;
            let mut sum_xk_ln = 0.0;
            let mut sum_xk_ln2 = 0.0;
            for &x in samples {
                let xk = x.powf(k);
                let lx = x.ln();
                sum_xk += xk;
                sum_xk_ln += xk * lx;
                sum_xk_ln2 += xk * lx * lx;
            }
            let g = sum_xk_ln / sum_xk - 1.0 / k - mean_ln;
            let g_prime =
                (sum_xk_ln2 * sum_xk - sum_xk_ln * sum_xk_ln) / (sum_xk * sum_xk) + 1.0 / (k * k);
            if !g.is_finite() || !g_prime.is_finite() || g_prime.abs() < 1e-300 {
                return Err(FitError::DidNotConverge);
            }
            let step = g / g_prime;
            let new_k = (k - step).max(k / 10.0); // guard against overshoot below zero
            if (new_k - k).abs() < 1e-10 * k {
                k = new_k;
                break;
            }
            k = new_k;
        }
        if !k.is_finite() || k <= 0.0 {
            return Err(FitError::DidNotConverge);
        }
        let lambda = (samples.iter().map(|&x| x.powf(k)).sum::<f64>() / n as f64).powf(1.0 / k);
        Weibull::new(k, lambda).ok_or(FitError::DidNotConverge)
    }

    /// CDF: `1 - e^{-(x/λ)^k}` for `x ≥ 0`, else 0.
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-(x / self.scale).powf(self.shape)).exp()
        }
    }

    /// Mean: `λ Γ(1 + 1/k)`.
    pub(crate) fn mean(&self) -> f64 {
        self.scale * gamma(1.0 + 1.0 / self.shape)
    }

    /// Inverse-transform sample: `λ (-ln U)^{1/k}`.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        self.scale * (-u.ln()).powf(1.0 / self.shape)
    }
}

/// Gamma function via the Lanczos approximation (g = 7, n = 9), accurate to
/// ~15 significant digits for positive real arguments.
pub(crate) fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (std::f64::consts::TAU).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gamma_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-12);
        assert!((gamma(2.0) - 1.0).abs() < 1e-12);
        assert!((gamma(5.0) - 24.0).abs() < 1e-9);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn cdf_known_values() {
        // k = 1 reduces to exponential with rate 1/λ.
        let d = Weibull::new(1.0, 2.0).unwrap();
        assert!((d.cdf(2.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-14);
        assert_eq!(d.cdf(0.0), 0.0);
    }

    #[test]
    fn mean_matches_closed_form() {
        let d = Weibull::new(2.0, 3.0).unwrap();
        // mean = 3 Γ(1.5) = 3 √π / 2
        let expect = 3.0 * std::f64::consts::PI.sqrt() / 2.0;
        assert!((d.mean() - expect).abs() < 1e-10);
    }

    #[test]
    fn mle_recovers_params() {
        let truth = Weibull::new(1.7, 4.2).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let samples: Vec<f64> = (0..50_000).map(|_| truth.sample(&mut rng)).collect();
        let fitted = Weibull::fit(&samples).unwrap();
        assert!(
            (fitted.shape() - 1.7).abs() / 1.7 < 0.03,
            "{}",
            fitted.shape()
        );
        assert!(
            (fitted.scale() - 4.2).abs() / 4.2 < 0.03,
            "{}",
            fitted.scale()
        );
    }

    #[test]
    fn mle_recovers_heavy_tail_shape() {
        let truth = Weibull::new(0.5, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let samples: Vec<f64> = (0..50_000).map(|_| truth.sample(&mut rng)).collect();
        let fitted = Weibull::fit(&samples).unwrap();
        assert!(
            (fitted.shape() - 0.5).abs() / 0.5 < 0.05,
            "{}",
            fitted.shape()
        );
    }

    #[test]
    fn fit_rejects_bad_input() {
        assert!(matches!(Weibull::fit(&[]), Err(FitError::Empty)));
        assert!(matches!(
            Weibull::fit(&[1.0, 0.0]),
            Err(FitError::InvalidSample)
        ));
        assert!(matches!(
            Weibull::fit(&[2.0, 2.0]),
            Err(FitError::Degenerate(_))
        ));
    }

    #[test]
    fn samples_positive() {
        let d = Weibull::new(0.8, 1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }
}
