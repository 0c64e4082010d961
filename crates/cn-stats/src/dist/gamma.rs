//! Gamma distribution.
//!
//! A further classic traffic-modeling family (often used for session
//! volumes and aggregated inter-arrival times). Not one of the paper's
//! four tested families, but included so downstream users can extend the
//! Tables 8–10 battery: density
//! `f(x) = x^{k−1} e^{−x/θ} / (Γ(k) θ^k)` for `x > 0`.

use crate::detmath;
use crate::dist::weibull::gamma as gamma_fn;
use crate::fit::FitError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Gamma distribution with shape `k > 0` and scale `θ > 0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Create with shape `k` and scale `θ`. Returns `None` unless both are
    /// finite and positive.
    pub(crate) fn new(shape: f64, scale: f64) -> Option<Gamma> {
        (shape.is_finite() && shape > 0.0 && scale.is_finite() && scale > 0.0)
            .then_some(Gamma { shape, scale })
    }

    /// Shape parameter k.
    pub(crate) fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter θ.
    pub(crate) fn scale(&self) -> f64 {
        self.scale
    }

    /// Maximum-likelihood fit: Newton–Raphson on
    /// `ln k − ψ(k) = ln(mean) − mean(ln x)` (the standard reduction),
    /// then `θ = mean / k`.
    pub(crate) fn fit(samples: &[f64]) -> Result<Gamma, FitError> {
        let n = samples.len();
        if n == 0 {
            return Err(FitError::Empty);
        }
        if samples.iter().any(|&x| !x.is_finite() || x <= 0.0) {
            return Err(FitError::InvalidSample);
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let mean_ln = samples.iter().map(|&x| x.ln()).sum::<f64>() / n as f64;
        let s = mean.ln() - mean_ln;
        if s <= 0.0 {
            return Err(FitError::Degenerate("all samples equal".into()));
        }
        // Minka's starting point.
        let mut k = (3.0 - s + ((s - 3.0).powi(2) + 24.0 * s).sqrt()) / (12.0 * s);
        for _ in 0..100 {
            let g = k.ln() - digamma(k) - s;
            let g_prime = 1.0 / k - trigamma(k);
            if g_prime.abs() < 1e-300 || !g.is_finite() {
                return Err(FitError::DidNotConverge);
            }
            let next = (k - g / g_prime).max(k / 10.0);
            if (next - k).abs() < 1e-12 * k {
                k = next;
                break;
            }
            k = next;
        }
        if !k.is_finite() || k <= 0.0 {
            return Err(FitError::DidNotConverge);
        }
        Gamma::new(k, mean / k).ok_or(FitError::DidNotConverge)
    }

    /// CDF via the regularized lower incomplete gamma function.
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            lower_regularized_gamma(self.shape, x / self.scale)
        }
    }

    /// Mean `kθ`.
    pub(crate) fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    /// Sample via Marsaglia–Tsang (with the boost trick for `k < 1`).
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let k = self.shape;
        if k < 1.0 {
            // X_k = X_{k+1} · U^{1/k}.
            let u: f64 = 1.0 - rng.gen::<f64>();
            return Gamma {
                shape: k + 1.0,
                scale: self.scale,
            }
            .sample(rng)
                * u.powf(1.0 / k);
        }
        let d = k - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let z = crate::dist::std_normal(rng);
            let v = (1.0 + c * z).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = 1.0 - rng.gen::<f64>();
            if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
                return d * v * self.scale;
            }
        }
    }

    /// [`Gamma::sample`]'s steps on the portable kernels, for
    /// [`Dist::sample_portable`](crate::Dist::sample_portable), which
    /// replaces `sample` in the generator re-bless.
    pub(crate) fn sample_portable<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let k = self.shape;
        if k < 1.0 {
            let u: f64 = 1.0 - rng.gen::<f64>();
            return Gamma {
                shape: k + 1.0,
                scale: self.scale,
            }
            .sample_portable(rng)
                * detmath::pow(u, 1.0 / k);
        }
        let d = k - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let z = detmath::std_normal(rng);
            let t = 1.0 + c * z;
            let v = t * t * t;
            if v <= 0.0 {
                continue;
            }
            let u: f64 = 1.0 - rng.gen::<f64>();
            if detmath::ln(u) < 0.5 * z * z + d - d * v + d * detmath::ln(v) {
                return d * v * self.scale;
            }
        }
    }
}

/// Digamma function ψ(x) (asymptotic series after a recurrence shift to
/// `x ≥ 10`; |ε| ≲ 1e-12 there).
pub(crate) fn digamma(mut x: f64) -> f64 {
    let mut result = 0.0;
    while x < 10.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result + x.ln()
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)))
}

/// Trigamma function ψ′(x) (same shift-then-series scheme).
pub(crate) fn trigamma(mut x: f64) -> f64 {
    let mut result = 0.0;
    while x < 10.0 {
        result += 1.0 / (x * x);
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result
        + inv
            * (1.0
                + 0.5 * inv
                + inv2 * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 / 30.0))))
}

/// Regularized lower incomplete gamma `P(a, x)` (series for `x < a+1`,
/// continued fraction otherwise — Numerical Recipes style).
fn lower_regularized_gamma(a: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    let ln_gamma_a = gamma_fn(a).ln();
    if x < a + 1.0 {
        // Series representation.
        let mut term = 1.0 / a;
        let mut sum = term;
        let mut ap = a;
        for _ in 0..500 {
            ap += 1.0;
            term *= x / ap;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        (sum.ln() + a * x.ln() - x - ln_gamma_a)
            .exp()
            .clamp(0.0, 1.0)
    } else {
        // Continued fraction for Q(a, x) = 1 − P(a, x).
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (a * x.ln() - x - ln_gamma_a).exp() * h;
        (1.0 - q).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn special_functions_known_values() {
        // ψ(1) = −γ (Euler–Mascheroni).
        assert!((digamma(1.0) + 0.577_215_664_901_532_9).abs() < 1e-10);
        // ψ(2) = 1 − γ.
        assert!((digamma(2.0) - (1.0 - 0.577_215_664_901_532_9)).abs() < 1e-10);
        // ψ′(1) = π²/6.
        assert!((trigamma(1.0) - std::f64::consts::PI.powi(2) / 6.0).abs() < 1e-10);
    }

    #[test]
    fn cdf_known_values() {
        // Gamma(1, θ) is Exponential(1/θ).
        let g = Gamma::new(1.0, 2.0).unwrap();
        let e = crate::dist::Exponential::new(0.5).unwrap();
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0] {
            assert!((g.cdf(x) - e.cdf(x)).abs() < 1e-10, "x = {x}");
        }
        // Median of Gamma(2, 1) ≈ 1.6783.
        let g2 = Gamma::new(2.0, 1.0).unwrap();
        assert!((g2.cdf(1.678_35) - 0.5).abs() < 1e-4);
    }

    #[test]
    fn sampling_matches_moments() {
        let g = Gamma::new(2.5, 1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 3.75).abs() / 3.75 < 0.02, "mean {mean}");
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((var - 2.5 * 1.5 * 1.5).abs() / 5.625 < 0.05, "var {var}");
    }

    #[test]
    fn sampling_small_shape() {
        let g = Gamma::new(0.4, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| g.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.8).abs() / 0.8 < 0.03, "mean {mean}");
    }

    #[test]
    fn mle_recovers_params() {
        let truth = Gamma::new(3.2, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<f64> = (0..80_000).map(|_| truth.sample(&mut rng)).collect();
        let fitted = Gamma::fit(&samples).unwrap();
        assert!(
            (fitted.shape() - 3.2).abs() / 3.2 < 0.03,
            "{}",
            fitted.shape()
        );
        assert!(
            (fitted.scale() - 0.7).abs() / 0.7 < 0.03,
            "{}",
            fitted.scale()
        );
    }

    #[test]
    fn fit_rejects_bad_input() {
        assert!(matches!(Gamma::fit(&[]), Err(FitError::Empty)));
        assert!(matches!(
            Gamma::fit(&[1.0, -1.0]),
            Err(FitError::InvalidSample)
        ));
        assert!(matches!(
            Gamma::fit(&[2.0, 2.0]),
            Err(FitError::Degenerate(_))
        ));
    }
}
