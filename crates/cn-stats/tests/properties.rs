//! Property-based tests for the statistics substrate.

use cn_stats::dist::{Dist, Exponential, LogNormal, Pareto, Tcplib, Weibull};
use cn_stats::{two_sample_distance, Ecdf};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        (0.01f64..50.0).prop_map(|r| Dist::Exponential(Exponential::new(r).unwrap())),
        ((0.2f64..8.0), (0.01f64..10.0))
            .prop_map(|(a, xm)| Dist::Pareto(Pareto::new(a, xm).unwrap())),
        ((0.2f64..5.0), (0.01f64..10.0))
            .prop_map(|(k, l)| Dist::Weibull(Weibull::new(k, l).unwrap())),
        ((-3.0f64..3.0), (0.05f64..2.5))
            .prop_map(|(m, s)| Dist::LogNormal(LogNormal::new(m, s).unwrap())),
        (0.01f64..100.0).prop_map(|s| Dist::Tcplib(Tcplib::new(s).unwrap())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CDFs are monotone non-decreasing and bounded in [0, 1].
    #[test]
    fn cdf_monotone_bounded(d in arb_dist(), mut xs in prop::collection::vec(-10.0f64..1000.0, 2..40)) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &xs {
            let c = d.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c), "cdf({x}) = {c}");
            prop_assert!(c >= prev - 1e-12);
            prev = c;
        }
    }

    /// Samples land in the support and the CDF at a sample is in (0, 1].
    #[test]
    fn samples_in_support(d in arb_dist(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = d.sample(&mut rng);
            prop_assert!(x.is_finite());
            prop_assert!(x >= 0.0 || matches!(d, Dist::LogNormal(_)), "negative sample {x}");
        }
    }

    /// ECDF quantile/cdf are mutually consistent: cdf(quantile(p)) >= p.
    #[test]
    fn ecdf_quantile_cdf_consistent(
        samples in prop::collection::vec(0.0f64..1000.0, 1..100),
        p in 0.0f64..1.0,
    ) {
        let e = Ecdf::new(samples).unwrap();
        let q = e.quantile(p);
        prop_assert!(e.cdf(q) >= p - 1e-12);
        prop_assert!(q >= e.min() && q <= e.max());
    }

    /// Two-sample distance is a metric-like quantity: symmetric, in [0,1],
    /// zero on identical samples.
    #[test]
    fn two_sample_distance_properties(
        a in prop::collection::vec(0.0f64..100.0, 1..60),
        b in prop::collection::vec(0.0f64..100.0, 1..60),
    ) {
        let dab = two_sample_distance(&a, &b).unwrap();
        let dba = two_sample_distance(&b, &a).unwrap();
        prop_assert!((dab - dba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&dab));
        let daa = two_sample_distance(&a, &a).unwrap();
        prop_assert_eq!(daa, 0.0);
    }

    /// MLE of the exponential always reproduces the sample mean.
    #[test]
    fn exponential_fit_mean_inverse(
        samples in prop::collection::vec(0.001f64..1e6, 1..200),
    ) {
        let d = Exponential::fit(&samples).unwrap();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!((d.mean() - mean).abs() / mean < 1e-9);
    }
}
