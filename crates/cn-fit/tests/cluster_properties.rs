//! Property-based tests for the adaptive clustering scheme.

use cn_fit::cluster::{cluster, ClusteringParams};
use proptest::prelude::*;

fn arb_features() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..200.0, 4..=4), 0..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Clustering is a partition: every UE in exactly one cluster, and
    /// assignments agree with the member lists.
    #[test]
    fn clustering_is_partition(features in arb_features(), theta_n in 1usize..100) {
        let params = ClusteringParams { theta_f: 5.0, theta_n, ..Default::default() };
        let c = cluster(&features, &params);
        prop_assert_eq!(c.assignments.len(), features.len());
        let total: usize = c.clusters.iter().map(|i| i.members.len()).sum();
        prop_assert_eq!(total, features.len());
        let mut seen = vec![false; features.len()];
        for info in &c.clusters {
            prop_assert!(!info.members.is_empty(), "empty cluster emitted");
            for &m in &info.members {
                prop_assert!(!seen[m]);
                seen[m] = true;
                prop_assert_eq!(c.assignments[m], info.id);
            }
        }
    }

    /// Every final cluster satisfies a stop criterion: similar (< θ_f range
    /// on every feature) or small (< θ_n members) — or hit the depth guard,
    /// which requires an enormous dynamic range we don't generate here.
    #[test]
    fn leaves_satisfy_stop_criteria(features in arb_features(), theta_n in 1usize..100) {
        let params = ClusteringParams { theta_f: 5.0, theta_n, ..Default::default() };
        let c = cluster(&features, &params);
        for info in &c.clusters {
            let similar = info
                .feature_min
                .iter()
                .zip(&info.feature_max)
                .all(|(lo, hi)| hi - lo < params.theta_f);
            prop_assert!(
                similar || info.members.len() < params.theta_n,
                "cluster {:?}: range not similar and size {} >= {}",
                info.id, info.members.len(), params.theta_n
            );
        }
    }

    /// Clustering is deterministic.
    #[test]
    fn deterministic(features in arb_features()) {
        let params = ClusteringParams::default();
        let a = cluster(&features, &params);
        let b = cluster(&features, &params);
        prop_assert_eq!(a, b);
    }

    /// Cluster bounding data is consistent: member features lie inside
    /// [feature_min, feature_max].
    #[test]
    fn member_features_within_bounds(features in arb_features()) {
        let params = ClusteringParams { theta_f: 10.0, theta_n: 5, ..Default::default() };
        let c = cluster(&features, &params);
        for info in &c.clusters {
            for &m in &info.members {
                for (d, &f) in features[m].iter().enumerate() {
                    prop_assert!(f >= info.feature_min[d] - 1e-9);
                    prop_assert!(f <= info.feature_max[d] + 1e-9);
                }
            }
        }
    }
}
