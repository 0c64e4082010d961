//! Empirical cumulative distribution functions.
//!
//! The paper's key modeling decision (§5.2) is to model sojourn times with
//! the *empirical CDF* of the observed samples rather than a fitted
//! parametric family. An [`Ecdf`] stores the sorted samples and supports
//! CDF evaluation, quantiles, inverse-transform sampling, and the
//! maximum-y-distance comparison used as the paper's microscopic fidelity
//! metric (§8.1.2).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// An empirical CDF over `f64` samples.
///
/// Invariant: `samples` is non-empty, finite, and sorted ascending.
///
/// ```
/// use cn_stats::Ecdf;
/// let e = Ecdf::new(vec![2.0, 1.0, 4.0, 4.0]).unwrap();
/// assert_eq!(e.cdf(1.0), 0.25);
/// assert_eq!(e.cdf(4.0), 1.0);
/// assert_eq!(e.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    samples: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (any order). Returns `None` when `samples` is
    /// empty or contains non-finite values.
    pub fn new(mut samples: Vec<f64>) -> Option<Ecdf> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        Some(Ecdf { samples })
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Always false: an `Ecdf` holds at least one sample.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.samples[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.samples.last().expect("non-empty")
    }

    /// Sample mean.
    pub(crate) fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Number of samples ≤ `x` — the counting core behind [`Ecdf::cdf`].
    ///
    /// Inlined with a fast path for the single-sample ECDF: degenerate
    /// fitted models (one observed sojourn in a cluster-hour) are common
    /// enough that they should not pay the binary-search setup.
    #[inline]
    pub(crate) fn count_le(&self, x: f64) -> usize {
        if self.samples.len() == 1 {
            return usize::from(self.samples[0] <= x);
        }
        self.samples.partition_point(|&s| s <= x)
    }

    /// Number of samples strictly less than `x` (the left-limit core
    /// behind [`Ecdf::cdf`]'s step structure), with the same
    /// single-sample fast path as [`Ecdf::count_le`].
    #[inline]
    #[cfg(test)]
    fn count_lt(&self, x: f64) -> usize {
        if self.samples.len() == 1 {
            return usize::from(self.samples[0] < x);
        }
        self.samples.partition_point(|&s| s < x)
    }

    /// Empirical CDF: fraction of samples ≤ `x`.
    #[inline]
    pub fn cdf(&self, x: f64) -> f64 {
        self.count_le(x) as f64 / self.samples.len() as f64
    }

    /// Empirical quantile for `p ∈ [0, 1]` (inverse CDF, lower
    /// interpolation): the smallest sample `x` with `cdf(x) >= p`.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if p <= 0.0 {
            return self.min();
        }
        let n = self.samples.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.samples[idx]
    }

    /// Draw one value by inverse-transform sampling (a uniformly random
    /// observed sample — the paper's generator "follows the CDF", §7).
    ///
    /// **RNG contract:** consumes exactly one draw. The generator's
    /// per-event sampling (`cn-gen`'s `sample_gap` and the state-machine
    /// sojourns) relies on this draw-for-draw stability — reordering or
    /// batching draws *within one RNG stream* would shift every
    /// subsequent event and break the pinned golden traces.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let idx = rng.gen_range(0..self.samples.len());
        self.samples[idx]
    }

    /// Draw one value by *smoothed* inverse-transform sampling: linear
    /// interpolation between adjacent order statistics, so synthetic values
    /// are not limited to exactly the observed points.
    pub fn sample_smoothed<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let n = self.samples.len();
        if n == 1 {
            return self.samples[0];
        }
        let u: f64 = rng.gen::<f64>() * (n - 1) as f64;
        let lo = u.floor() as usize;
        let frac = u - lo as f64;
        let hi = (lo + 1).min(n - 1);
        self.samples[lo] + (self.samples[hi] - self.samples[lo]) * frac
    }

    /// Maximum vertical distance between this ECDF and `other`
    /// (the two-sample Kolmogorov–Smirnov statistic; the paper's
    /// "maximum y-distance of the CDF", §8.1.2).
    ///
    /// A single merge sweep over both sorted sample arrays: at every
    /// distinct step location the sweep counts give both CDF values
    /// directly, so the statistic costs O(n + m) instead of the
    /// O((n + m) log(nm)) of evaluating two binary searches per step.
    /// Left limits need no separate pass — the value just below a step
    /// equals the value at the previous step (or 0 before the first),
    /// which the sweep has already compared.
    pub fn max_y_distance(&self, other: &Ecdf) -> f64 {
        let a = &self.samples;
        let b = &other.samples;
        let (n, m) = (a.len() as f64, b.len() as f64);
        let (mut i, mut j) = (0usize, 0usize);
        let mut d: f64 = 0.0;
        while i < a.len() || j < b.len() {
            let x = match (a.get(i), b.get(j)) {
                (Some(&xa), Some(&xb)) => xa.min(xb),
                (Some(&xa), None) => xa,
                (None, Some(&xb)) => xb,
                (None, None) => unreachable!("loop guard"),
            };
            while i < a.len() && a[i] == x {
                i += 1;
            }
            while j < b.len() && b[j] == x {
                j += 1;
            }
            d = d.max((i as f64 / n - j as f64 / m).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_empty_and_nan() {
        assert!(Ecdf::new(vec![]).is_none());
        assert!(Ecdf::new(vec![1.0, f64::NAN]).is_none());
        assert!(Ecdf::new(vec![f64::INFINITY]).is_none());
    }

    #[test]
    fn cdf_steps() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.0), 0.75);
        assert_eq!(e.cdf(3.0), 0.75);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.cdf(99.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.25), 10.0);
        assert_eq!(e.quantile(0.26), 20.0);
        assert_eq!(e.quantile(0.5), 20.0);
        assert_eq!(e.quantile(1.0), 40.0);
    }

    #[test]
    fn sampling_stays_in_support() {
        let e = Ecdf::new(vec![3.0, 7.0, 9.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let x = e.sample(&mut rng);
            assert!([3.0, 7.0, 9.0].contains(&x));
            let y = e.sample_smoothed(&mut rng);
            assert!((3.0..=9.0).contains(&y));
        }
    }

    #[test]
    fn max_y_distance_identical_is_zero() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(e.max_y_distance(&e.clone()), 0.0);
    }

    #[test]
    fn max_y_distance_disjoint_is_one() {
        let a = Ecdf::new(vec![1.0, 2.0]).unwrap();
        let b = Ecdf::new(vec![10.0, 20.0]).unwrap();
        assert_eq!(a.max_y_distance(&b), 1.0);
        assert_eq!(b.max_y_distance(&a), 1.0);
    }

    #[test]
    fn max_y_distance_known_value() {
        // a: steps at 1,2,3,4 ; b: steps at 1,2 shifted mass
        let a = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Ecdf::new(vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        // At x slightly below 3: a has cdf 0.5, b has 0 → 0.5.
        assert!((a.max_y_distance(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip() {
        let e = Ecdf::new(vec![2.0, 1.0, 5.5]).unwrap();
        let json = serde_json::to_string(&e).unwrap();
        let back: Ecdf = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn counts_match_linear_scan() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        for x in [0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0] {
            assert_eq!(
                e.count_le(x),
                e.samples().iter().filter(|&&s| s <= x).count()
            );
            assert_eq!(
                e.count_lt(x),
                e.samples().iter().filter(|&&s| s < x).count()
            );
        }
        // The single-sample fast path agrees with the general path.
        let one = Ecdf::new(vec![3.0]).unwrap();
        assert_eq!((one.count_le(2.9), one.count_le(3.0)), (0, 1));
        assert_eq!((one.count_lt(3.0), one.count_lt(3.1)), (0, 1));
        assert_eq!(one.cdf(3.0), 1.0);
    }

    mod sweep_props {
        use super::*;
        use proptest::prelude::*;

        fn samples() -> impl Strategy<Value = Vec<f64>> {
            prop::collection::vec(0..200u32, 1..40)
                .prop_map(|v| v.into_iter().map(|x| f64::from(x) / 4.0).collect())
        }

        /// The pre-sweep reference: two binary searches per step, left
        /// limits probed explicitly.
        fn naive_max_y(a: &Ecdf, b: &Ecdf) -> f64 {
            let cdf_below = |e: &Ecdf, x: f64| e.count_lt(x) as f64 / e.len() as f64;
            let mut d: f64 = 0.0;
            for &x in a.samples().iter().chain(b.samples()) {
                d = d.max((a.cdf(x) - b.cdf(x)).abs());
                d = d.max((cdf_below(a, x) - cdf_below(b, x)).abs());
            }
            d
        }

        proptest! {
            #[test]
            fn sweep_equals_naive_ks(xs in samples(), ys in samples()) {
                let a = Ecdf::new(xs).unwrap();
                let b = Ecdf::new(ys).unwrap();
                prop_assert_eq!(a.max_y_distance(&b), naive_max_y(&a, &b));
                prop_assert_eq!(b.max_y_distance(&a), a.max_y_distance(&b));
            }
        }
    }
}
