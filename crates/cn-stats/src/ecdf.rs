//! Empirical cumulative distribution functions.
//!
//! The paper's key modeling decision (§5.2) is to model sojourn times with
//! the *empirical CDF* of the observed samples rather than a fitted
//! parametric family. An [`Ecdf`] stores the sorted samples and supports
//! CDF evaluation, quantiles, inverse-transform sampling, and the
//! maximum-y-distance comparison used as the paper's microscopic fidelity
//! metric (§8.1.2).
//!
//! The sorted samples live in one of two private stores. When every
//! sample is exactly `m as f64 / 1000.0` for a `u32` `m` — every fitted
//! sojourn is, since it is `duration_ms as f64 / 1000.0` — the store holds
//! the `u32` milliseconds and rebuilds each value bit for bit; otherwise
//! (a fraction of a millisecond, −0.0, 2³² ms or more) it holds the `f64`s.
//! Half the bytes keeps the generator's random sample loads in cache; no
//! method, draw or serialised byte can tell the two stores apart.

use rand::Rng;
use serde::{DeError, Deserialize, Serialize, Value};

/// An empirical CDF over `f64` samples.
///
/// Invariant: the samples are non-empty, finite, and sorted ascending.
///
/// ```
/// use cn_stats::Ecdf;
/// let e = Ecdf::new(vec![2.0, 1.0, 4.0, 4.0]).unwrap();
/// assert_eq!(e.cdf(1.0), 0.25);
/// assert_eq!(e.cdf(4.0), 1.0);
/// assert_eq!(e.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct Ecdf {
    store: Store,
}

/// Boxed slices, not `Vec`s: no capacity word keeps an `Ecdf`, and so a
/// [`crate::dist::Dist`], at 24 bytes.
#[derive(Debug, Clone)]
enum Store {
    /// Whole milliseconds: sample `i` is `secs(ms[i])`, bit for bit.
    Millis(Box<[u32]>),
    /// Any other finite samples.
    F64(Box<[f64]>),
}

fn secs(ms: u32) -> f64 {
    f64::from(ms) / 1000.0
}

/// `x` as whole milliseconds, when [`secs`] rebuilds it bit for bit.
fn as_millis(x: f64) -> Option<u32> {
    let m = (x * 1000.0).round();
    if !(0.0..=f64::from(u32::MAX)).contains(&m) {
        return None;
    }
    let m = m as u32;
    (secs(m).to_bits() == x.to_bits()).then_some(m)
}

impl Store {
    fn len(&self) -> usize {
        match self {
            Store::Millis(v) => v.len(),
            Store::F64(v) => v.len(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> Option<f64> {
        match self {
            Store::Millis(v) => v.get(i).map(|&m| secs(m)),
            Store::F64(v) => v.get(i).copied(),
        }
    }

    /// The index of the first sample for which `pred` is false.
    #[inline]
    fn partition_point(&self, pred: impl Fn(f64) -> bool) -> usize {
        match self {
            Store::Millis(v) => v.partition_point(|&m| pred(secs(m))),
            Store::F64(v) => v.partition_point(|&x| pred(x)),
        }
    }
}

impl Ecdf {
    /// Build from samples (any order). Returns `None` when `samples` is
    /// empty or contains non-finite values.
    pub fn new(mut samples: Vec<f64>) -> Option<Ecdf> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        let store = match samples.iter().map(|&x| as_millis(x)).collect() {
            Some(ms) => Store::Millis(ms),
            None => Store::F64(samples.into_boxed_slice()),
        };
        Some(Ecdf { store })
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Always false: an `Ecdf` holds at least one sample.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sorted samples, ascending.
    pub fn values(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        (0..self.len()).map(|i| self.at(i))
    }

    #[inline]
    fn at(&self, i: usize) -> f64 {
        self.store.get(i).expect("index below len")
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.at(0)
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.at(self.len() - 1)
    }

    /// Sample mean.
    pub(crate) fn mean(&self) -> f64 {
        self.values().sum::<f64>() / self.len() as f64
    }

    /// Number of samples ≤ `x` — the counting core behind [`Ecdf::cdf`].
    ///
    /// Inlined with a fast path for the single-sample ECDF: degenerate
    /// fitted models (one observed sojourn in a cluster-hour) are common
    /// enough that they should not pay the binary-search setup.
    #[inline]
    pub(crate) fn count_le(&self, x: f64) -> usize {
        if self.len() == 1 {
            return usize::from(self.at(0) <= x);
        }
        self.store.partition_point(|s| s <= x)
    }

    /// Number of samples strictly less than `x` (the left-limit core
    /// behind [`Ecdf::cdf`]'s step structure), with the same
    /// single-sample fast path as [`Ecdf::count_le`].
    #[inline]
    #[cfg(test)]
    fn count_lt(&self, x: f64) -> usize {
        if self.len() == 1 {
            return usize::from(self.at(0) < x);
        }
        self.store.partition_point(|s| s < x)
    }

    /// Empirical CDF: fraction of samples ≤ `x`.
    #[inline]
    pub fn cdf(&self, x: f64) -> f64 {
        self.count_le(x) as f64 / self.len() as f64
    }

    /// Empirical quantile for `p ∈ [0, 1]` (inverse CDF, lower
    /// interpolation): the smallest sample `x` with `cdf(x) >= p`.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if p <= 0.0 {
            return self.min();
        }
        let n = self.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.at(idx)
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
        let idx = rng.gen_range(0..self.len());
        self.at(idx)
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
        let (a, b) = (&self.store, &other.store);
        let (n, m) = (a.len() as f64, b.len() as f64);
        let (mut i, mut j) = (0usize, 0usize);
        let mut d: f64 = 0.0;
        loop {
            let x = match (a.get(i), b.get(j)) {
                (Some(xa), Some(xb)) => xa.min(xb),
                (Some(xa), None) => xa,
                (None, Some(xb)) => xb,
                (None, None) => return d,
            };
            while a.get(i) == Some(x) {
                i += 1;
            }
            while b.get(j) == Some(x) {
                j += 1;
            }
            d = d.max((i as f64 / n - j as f64 / m).abs());
        }
    }
}

/// Equal when the sorted samples are, whichever store holds them.
impl PartialEq for Ecdf {
    fn eq(&self, other: &Ecdf) -> bool {
        self.values().eq(other.values())
    }
}

/// `{"samples":[…]}`, the sorted samples as JSON numbers.
impl Serialize for Ecdf {
    fn to_value(&self) -> Value {
        let samples = Value::Arr(self.values().map(Value::Float).collect());
        Value::Obj(vec![("samples".to_string(), samples)])
    }
}

/// Through [`Ecdf::new`]: an empty or non-finite array is an error, an
/// unsorted one is sorted.
impl Deserialize for Ecdf {
    fn from_value(v: &Value) -> Result<Ecdf, DeError> {
        let fields = v
            .as_obj()
            .ok_or_else(|| DeError::expected("object (Ecdf)", v))?;
        let samples = Vec::<f64>::from_value(serde::obj_field(fields, "samples")?)?;
        Ecdf::new(samples).ok_or_else(|| DeError::msg("Ecdf samples must be non-empty and finite"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(xs: impl Iterator<Item = f64>) -> Vec<u64> {
        xs.map(f64::to_bits).collect()
    }

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
        assert_eq!(json, r#"{"samples":[1.0,2.0,5.5]}"#);
        let back: Ecdf = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn counts_match_linear_scan() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        for x in [0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0] {
            assert_eq!(e.count_le(x), e.values().filter(|&s| s <= x).count());
            assert_eq!(e.count_lt(x), e.values().filter(|&s| s < x).count());
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
            for x in a.values().chain(b.values()) {
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

    mod store_props {
        use super::*;
        use proptest::prelude::*;

        /// A fitted sojourn, spelled as `cn-fit` spells it.
        fn fitted(ms: u32) -> f64 {
            ms as f64 / 1000.0
        }

        /// Whole milliseconds: what every fitted sojourn is.
        fn millis() -> impl Strategy<Value = f64> {
            prop_oneof![
                (0..3_000u32).prop_map(fitted),
                any::<u32>().prop_map(fitted)
            ]
        }

        /// Any finite sample, including each kind the compact store refuses.
        fn finite() -> impl Strategy<Value = f64> {
            prop_oneof![
                millis(),
                Just(-0.0),
                (-3_000i64..0).prop_map(|m| m as f64 / 1000.0),
                ((1u64 << 32)..(1u64 << 44)).prop_map(|m| m as f64 / 1000.0),
                0.0..50.0f64,
                any::<f64>(),
            ]
        }

        /// Samples, and whether they are all fitted sojourns.
        fn vectors() -> impl Strategy<Value = (Vec<f64>, bool)> {
            prop_oneof![
                prop::collection::vec(millis(), 1..40).prop_map(|v| (v, true)),
                prop::collection::vec(finite(), 1..40).prop_map(|v| (v, false)),
            ]
        }

        /// The oracle: the same samples in the `f64` store, built directly.
        fn oracle(xs: &[f64]) -> Ecdf {
            let mut sorted = xs.to_vec();
            sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
            Ecdf {
                store: Store::F64(sorted.into_boxed_slice()),
            }
        }

        proptest! {
            #[test]
            fn both_stores_answer_bit_for_bit(
                (xs, all_fitted) in vectors(),
                (ys, _) in vectors(),
                seed in any::<u64>(),
                ps in prop::collection::vec(0.0..1.0f64, 8),
            ) {
                let (e, o) = (Ecdf::new(xs.clone()).unwrap(), oracle(&xs));
                let other = Ecdf::new(ys.clone()).unwrap();
                prop_assert!(!all_fitted || matches!(e.store, Store::Millis(_)));
                prop_assert_eq!(bits(e.values()), bits(o.values()));

                let draws = |e: &Ecdf| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let plain: Vec<u64> = (0..16).map(|_| e.sample(&mut rng).to_bits()).collect();
                    (plain, rng.gen::<u64>())
                };
                prop_assert_eq!(draws(&e), draws(&o));

                let probes = xs.iter().chain(&ys).flat_map(|&x| [x, x - 1e-4, x + 1e-4]);
                prop_assert_eq!(bits(probes.clone().map(|x| e.cdf(x))), bits(probes.map(|x| o.cdf(x))));
                let qs = ps.iter().copied().chain([0.0, 1.0]);
                prop_assert_eq!(bits(qs.clone().map(|p| e.quantile(p))), bits(qs.map(|p| o.quantile(p))));
                prop_assert_eq!(
                    bits([e.min(), e.max(), e.mean()].into_iter()),
                    bits([o.min(), o.max(), o.mean()].into_iter())
                );
                prop_assert_eq!(
                    e.max_y_distance(&other).to_bits(),
                    o.max_y_distance(&oracle(&ys)).to_bits()
                );
                prop_assert_eq!(
                    other.max_y_distance(&e).to_bits(),
                    oracle(&ys).max_y_distance(&o).to_bits()
                );
                prop_assert_eq!(serde_json::to_string(&e).unwrap(), serde_json::to_string(&o).unwrap());
            }

            #[test]
            fn every_u32_millisecond_is_compact(m in prop_oneof![any::<u32>(), Just(0), Just(u32::MAX)]) {
                prop_assert_eq!(as_millis(fitted(m)), Some(m));
                prop_assert!(matches!(Ecdf::new(vec![fitted(m)]).unwrap().store, Store::Millis(_)));
            }
        }

        #[test]
        fn refused_values_keep_f64() {
            for x in [-0.0, -0.001, 0.0005, secs(u32::MAX) + 0.001, 1e300] {
                assert_eq!(as_millis(x), None, "{x}");
                assert!(matches!(
                    Ecdf::new(vec![1.0, x]).unwrap().store,
                    Store::F64(_)
                ));
            }
        }
    }

    mod json_props {
        use super::*;
        use proptest::prelude::*;

        /// One JSON array element, valid as a sample or not.
        fn element() -> impl Strategy<Value = String> {
            prop_oneof![
                any::<f64>().prop_map(|x| format!("{x:?}")),
                (0..100_000u32).prop_map(|m| secs(m).to_string()),
                Just("-0.0".to_string()),
                Just("1e999".to_string()),
                Just("null".to_string()),
                Just("\"7\"".to_string()),
                Just("[1]".to_string()),
                Just("true".to_string()),
            ]
        }

        proptest! {
            #[test]
            fn json_arrays_load_through_new_or_fail(
                elements in prop::collection::vec(element(), 0..12)
            ) {
                let json = format!("{{\"samples\":[{}]}}", elements.join(","));
                let parsed: Option<Vec<f64>> = elements
                    .iter()
                    .map(|s| serde_json::from_str::<f64>(s).ok().filter(|x| x.is_finite()))
                    .collect();
                let expected = parsed.and_then(Ecdf::new);
                match serde_json::from_str::<Ecdf>(&json) {
                    Ok(e) => {
                        let want = expected.expect("accepted only what `new` accepts");
                        prop_assert_eq!(bits(e.values()), bits(want.values()));
                        prop_assert!(e.values().zip(e.values().skip(1)).all(|(a, b)| a <= b));
                        let text = serde_json::to_string(&e).unwrap();
                        prop_assert_eq!(serde_json::from_str::<Ecdf>(&text).unwrap(), e);
                    }
                    Err(_) => prop_assert!(expected.is_none()),
                }
            }
        }
    }
}
