//! Kolmogorov–Smirnov tests.
//!
//! The paper uses the one-sample K–S test to decide whether per-cluster
//! inter-arrival/sojourn samples are drawn from a fitted reference
//! distribution (§4.1.2, Tables 8–10; significance level 5%), and the
//! two-sample maximum-y-distance as its microscopic fidelity metric (§8.1.2).

use crate::dist::Dist;
use serde::{Deserialize, Serialize};

/// Result of a one-sample K–S test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KsOutcome {
    /// The K–S statistic `D_n = sup_x |F_n(x) − F(x)|`.
    pub statistic: f64,
    /// Asymptotic p-value for `D_n`.
    pub p_value: f64,
    /// The sample size the p-value was computed from: the sample count for
    /// one-sample tests, and the **rounded effective size** `n·m/(n+m)`
    /// for two-sample tests — so `kolmogorov_p_value(statistic, n)`
    /// reproduces `p_value` (exactly when the effective size is integral,
    /// to rounding otherwise).
    pub n: usize,
}

impl KsOutcome {
    /// Whether the null hypothesis ("samples are drawn from the reference
    /// distribution") is *not* rejected at the given significance level.
    pub fn passes(&self, significance: f64) -> bool {
        self.p_value > significance
    }
}

/// One-sample Kolmogorov–Smirnov test of `samples` against the reference
/// CDF `reference`.
///
/// Returns `None` for an empty sample. The p-value uses the
/// Stephens-corrected asymptotic Kolmogorov distribution
/// `λ = (√n + 0.12 + 0.11/√n)·D`, accurate for n ≳ 5 — the same
/// approximation scipy and Numerical Recipes use.
pub fn ks_test(samples: &[f64], reference: &Dist) -> Option<KsOutcome> {
    ks_test_cdf(samples, |x| reference.cdf(x))
}

/// One-sample K–S test against an arbitrary CDF closure.
pub(crate) fn ks_test_cdf<F: Fn(f64) -> f64>(samples: &[f64], cdf: F) -> Option<KsOutcome> {
    if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = sorted.len();
    let nf = n as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x).clamp(0.0, 1.0);
        let d_plus = (i as f64 + 1.0) / nf - f;
        let d_minus = f - i as f64 / nf;
        d = d.max(d_plus).max(d_minus);
    }
    let p = kolmogorov_p_value(d, n);
    Some(KsOutcome {
        statistic: d,
        p_value: p,
        n,
    })
}

/// Asymptotic p-value of the K–S statistic `d` for sample size `n`
/// (Kolmogorov distribution with Stephens' small-sample correction).
pub(crate) fn kolmogorov_p_value(d: f64, n: usize) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let sqrt_n = (n as f64).sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    q_ks(lambda)
}

/// Kolmogorov's `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}`.
fn q_ks(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Two-sample K–S statistic: the maximum vertical distance between the
/// empirical CDFs of `a` and `b` (the paper's "maximum y-distance").
///
/// Returns `None` when either sample is empty or contains non-finite values.
pub fn two_sample_distance(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let ea = crate::ecdf::Ecdf::new(a.to_vec())?;
    let eb = crate::ecdf::Ecdf::new(b.to_vec())?;
    Some(ea.max_y_distance(&eb))
}

/// Full two-sample K–S test: statistic plus the asymptotic p-value with
/// the effective sample size `n_eff = n·m/(n+m)`.
///
/// The returned outcome's `n` is the rounded `n_eff` — the size the
/// p-value was actually computed from — not `min(n, m)` as it once was:
/// a reported `(statistic, n)` pair now reproduces the reported p-value
/// through `kolmogorov_p_value`. The product is taken in `f64`, so
/// week-scale sample counts cannot overflow `usize` on any target.
pub fn two_sample_test(a: &[f64], b: &[f64]) -> Option<KsOutcome> {
    let d = two_sample_distance(a, b)?;
    let n_eff = a.len() as f64 * b.len() as f64 / (a.len() as f64 + b.len() as f64);
    let sqrt_n = n_eff.sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    Some(KsOutcome {
        statistic: d,
        p_value: q_ks(lambda),
        n: n_eff.round() as usize,
    })
}

/// The critical two-sample K–S distance at significance `alpha` for sample
/// sizes `n` and `m`: the smallest `D` for which [`two_sample_test`] would
/// reject. Lets a gate report its margin ("measured D vs critical D")
/// instead of a bare pass/fail.
///
/// Returns `None` for degenerate inputs (`alpha` outside `(0, 1)` or an
/// empty sample).
pub fn two_sample_critical_distance(alpha: f64, n: usize, m: usize) -> Option<f64> {
    if !(0.0..1.0).contains(&alpha) || alpha == 0.0 || n == 0 || m == 0 {
        return None;
    }
    // Multiply in f64: `n * m` in `usize` overflows for large samples on
    // 32-bit targets and for week-scale event counts even on 64-bit.
    let n_eff = n as f64 * m as f64 / (n as f64 + m as f64);
    let sqrt_n = n_eff.sqrt();
    // Invert Q(λ) = alpha by bisection (Q is continuous and strictly
    // decreasing on (0, ∞), from 1 to 0).
    let (mut lo, mut hi) = (1e-9, 4.0);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if q_ks(mid) > alpha {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi) / (sqrt_n + 0.12 + 0.11 / sqrt_n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Exponential;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_sample_is_none() {
        let d = Dist::Exponential(Exponential::new(1.0).unwrap());
        assert!(ks_test(&[], &d).is_none());
        assert!(ks_test(&[f64::NAN], &d).is_none());
    }

    #[test]
    fn exponential_data_passes_against_truth() {
        let truth = Exponential::new(0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut passes = 0;
        let trials = 50;
        for _ in 0..trials {
            let samples: Vec<f64> = (0..400).map(|_| truth.sample(&mut rng)).collect();
            let out = ks_test(&samples, &Dist::Exponential(truth.clone())).unwrap();
            if out.passes(0.05) {
                passes += 1;
            }
        }
        // Under the null, ~95% should pass; allow generous slack.
        assert!(passes >= 44, "only {passes}/{trials} passed");
    }

    #[test]
    fn uniform_data_fails_against_exponential() {
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..500).map(|_| rng.gen_range(0.0..1.0)).collect();
        let fitted = Exponential::fit(&samples).unwrap();
        let out = ks_test(&samples, &Dist::Exponential(fitted)).unwrap();
        assert!(!out.passes(0.05), "p={}", out.p_value);
    }

    #[test]
    fn p_value_monotone_in_d() {
        let p1 = kolmogorov_p_value(0.05, 100);
        let p2 = kolmogorov_p_value(0.10, 100);
        let p3 = kolmogorov_p_value(0.20, 100);
        assert!(p1 > p2 && p2 > p3);
    }

    #[test]
    fn p_value_known_magnitude() {
        // For λ ≈ 1.36, Q ≈ 0.049 (the classic 5% critical value).
        // With the Stephens correction at n = 1000, d = 1.36/√n ≈ 0.043.
        let n = 1_000;
        let d = 1.358 / (n as f64).sqrt();
        let p = kolmogorov_p_value(d, n);
        assert!((p - 0.05).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn two_sample_distance_basics() {
        assert!(two_sample_distance(&[], &[1.0]).is_none());
        let d = two_sample_distance(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(d, 0.0);
        let d2 = two_sample_distance(&[1.0, 2.0], &[10.0, 20.0]).unwrap();
        assert_eq!(d2, 1.0);
    }

    #[test]
    fn critical_distance_matches_test_boundary() {
        // A distance just below the critical value passes; just above fails.
        let (n, m) = (400, 400);
        let d_crit = two_sample_critical_distance(0.05, n, m).unwrap();
        // Classic large-sample approximation: c(α)·√((n+m)/(n·m)),
        // c(0.05) = 1.358.
        let approx = 1.358 * ((n + m) as f64 / (n * m) as f64).sqrt();
        assert!((d_crit - approx).abs() < 0.01, "{d_crit} vs {approx}");
        // Consistency with the p-value: at D = d_crit, p ≈ alpha.
        let n_eff = (n * m) as f64 / (n + m) as f64;
        let p = kolmogorov_p_value(d_crit, n_eff.round() as usize);
        assert!((p - 0.05).abs() < 0.01, "p at critical D = {p}");
    }

    #[test]
    fn critical_distance_degenerate_inputs() {
        assert!(two_sample_critical_distance(0.0, 10, 10).is_none());
        assert!(two_sample_critical_distance(1.0, 10, 10).is_none());
        assert!(two_sample_critical_distance(0.05, 0, 10).is_none());
        // Stricter alpha demands a larger distance.
        let strict = two_sample_critical_distance(0.01, 100, 100).unwrap();
        let lax = two_sample_critical_distance(0.10, 100, 100).unwrap();
        assert!(strict > lax);
    }

    #[test]
    fn two_sample_n_is_the_p_value_basis() {
        // 400 and 100 samples: n_eff = 400·100/500 = 80 exactly, so the
        // reported (statistic, n) pair must reproduce the reported p-value.
        let mut rng = StdRng::seed_from_u64(5);
        let a: Vec<f64> = (0..400).map(|_| rng.gen_range(0.0..1.0)).collect();
        let b: Vec<f64> = (0..100).map(|_| rng.gen_range(0.0..1.0)).collect();
        let out = two_sample_test(&a, &b).unwrap();
        assert_eq!(out.n, 80);
        let p = kolmogorov_p_value(out.statistic, out.n);
        assert!((p - out.p_value).abs() < 1e-12, "{p} vs {}", out.p_value);
    }

    #[test]
    fn critical_distance_survives_week_scale_sample_counts() {
        // The old `usize` product overflowed here (debug: panic; release:
        // wraparound garbage). In f64 the result is small, positive, and
        // consistent with the large-sample approximation.
        let n = usize::MAX / 2;
        let d = two_sample_critical_distance(0.05, n, n).unwrap();
        assert!(d.is_finite() && d > 0.0, "d = {d}");
        let approx = 1.358 * (2.0 / n as f64).sqrt();
        assert!((d - approx).abs() / approx < 0.05, "{d} vs {approx}");
    }

    #[test]
    fn two_sample_test_discriminates() {
        let mut rng = StdRng::seed_from_u64(31);
        let a: Vec<f64> = (0..400).map(|_| rng.gen_range(0.0..1.0)).collect();
        let b: Vec<f64> = (0..400).map(|_| rng.gen_range(0.0..1.0)).collect();
        let same = two_sample_test(&a, &b).unwrap();
        assert!(same.passes(0.05), "same-dist p = {}", same.p_value);
        let c: Vec<f64> = (0..400).map(|_| rng.gen_range(0.3..1.3)).collect();
        let diff = two_sample_test(&a, &c).unwrap();
        assert!(!diff.passes(0.05), "shifted p = {}", diff.p_value);
    }

    #[test]
    fn ks_statistic_hand_computed() {
        // Samples {0.5} against U(0,1)-like cdf(x) = x.
        let out = ks_test_cdf(&[0.5], |x| x.clamp(0.0, 1.0)).unwrap();
        // F_n steps 0→1 at 0.5; sup distance = max(1-0.5, 0.5-0) = 0.5.
        assert!((out.statistic - 0.5).abs() < 1e-12);
    }
}
