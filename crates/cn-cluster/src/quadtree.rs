//! The recursive adaptive partition.
//!
//! Algorithm (§5.3): start with all UEs in one cluster spanning the
//! complete feature space. For each cluster, stop if either every feature's
//! value range (max − min over members) is below `θ_f`, or the member count
//! is below `θ_n`. Otherwise cut the cluster's feature box into equal-sized
//! sub-boxes — halving the (up to) `max_split_dims` dimensions with the
//! largest member value range, i.e. a quadtree for the default of 2 —
//! assign members to sub-boxes, and recurse. Leaves of the resulting tree
//! are the final clusters.

use serde::{Deserialize, Serialize};

/// Identifier of a final cluster (dense, 0-based, per clustering run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// Index usable for per-cluster vectors.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Thresholds controlling the adaptive partition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusteringParams {
    /// Similarity threshold `θ_f`: a cluster is "similar enough" when every
    /// feature's member value range is `< θ_f`. The paper's binary search
    /// found `θ_f = 5` sufficient.
    pub theta_f: f64,
    /// Size threshold `θ_n`: clusters smaller than this stop splitting.
    /// The paper uses `θ_n = 1000`.
    pub theta_n: usize,
    /// Number of dimensions halved per split (2 ⇒ quadtree, the paper's
    /// configuration).
    pub max_split_dims: usize,
    /// Hard recursion depth bound (defensive; splits always shrink boxes so
    /// this only triggers on pathological input).
    pub max_depth: usize,
}

impl Default for ClusteringParams {
    fn default() -> Self {
        ClusteringParams {
            theta_f: 5.0,
            theta_n: 1_000,
            max_split_dims: 2,
            max_depth: 64,
        }
    }
}

/// Summary of one final cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterInfo {
    /// The cluster id.
    pub id: ClusterId,
    /// Indices (into the input feature slice) of member UEs.
    pub members: Vec<usize>,
    /// Per-dimension minimum of member feature values.
    pub feature_min: Vec<f64>,
    /// Per-dimension maximum of member feature values.
    pub feature_max: Vec<f64>,
}

/// Result of a clustering run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clustering {
    /// For every input index, its assigned cluster.
    pub assignments: Vec<ClusterId>,
    /// The final clusters (every input index appears in exactly one).
    pub clusters: Vec<ClusterInfo>,
}

/// Run the adaptive partition over one feature vector per UE.
///
/// All vectors must share the same dimension; non-finite feature values are
/// clamped to 0 (they arise from UEs with no observations and belong with
/// the least-active UEs).
///
/// ```
/// use cn_cluster::{cluster, ClusteringParams};
/// let features = vec![
///     vec![1.0, 1.0], vec![2.0, 2.0],      // a quiet cohort
///     vec![120.0, 80.0], vec![118.0, 82.0], // a busy cohort
/// ];
/// let params = ClusteringParams { theta_f: 5.0, theta_n: 1, ..Default::default() };
/// let c = cluster(&features, &params);
/// assert_eq!(c.assignments[0], c.assignments[1]);
/// assert_eq!(c.assignments[2], c.assignments[3]);
/// assert_ne!(c.assignments[0], c.assignments[2]);
/// ```
///
/// # Panics
/// Panics if feature vectors have inconsistent dimensions.
pub fn cluster(features: &[Vec<f64>], params: &ClusteringParams) -> Clustering {
    if features.is_empty() {
        return Clustering {
            assignments: Vec::new(),
            clusters: Vec::new(),
        };
    }
    let dim = features[0].len();
    assert!(
        features.iter().all(|f| f.len() == dim),
        "inconsistent feature dimensions"
    );
    let sane: Vec<Vec<f64>> = features
        .iter()
        .map(|f| {
            f.iter()
                .map(|&x| if x.is_finite() { x } else { 0.0 })
                .collect()
        })
        .collect();

    let mut clusters: Vec<ClusterInfo> = Vec::new();
    let all: Vec<usize> = (0..sane.len()).collect();
    let root_box = bounding_box(&sane, &all);
    split_recursive(&sane, all, root_box, params, 0, &mut clusters);

    let mut assignments = vec![ClusterId(0); sane.len()];
    for c in &clusters {
        for &m in &c.members {
            assignments[m] = c.id;
        }
    }
    Clustering {
        assignments,
        clusters,
    }
}

/// (lo, hi) per dimension over the member values.
fn bounding_box(features: &[Vec<f64>], members: &[usize]) -> (Vec<f64>, Vec<f64>) {
    let dim = features[members[0]].len();
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    for &m in members {
        for d in 0..dim {
            lo[d] = lo[d].min(features[m][d]);
            hi[d] = hi[d].max(features[m][d]);
        }
    }
    (lo, hi)
}

fn split_recursive(
    features: &[Vec<f64>],
    members: Vec<usize>,
    node_box: (Vec<f64>, Vec<f64>),
    params: &ClusteringParams,
    depth: usize,
    out: &mut Vec<ClusterInfo>,
) {
    let (value_lo, value_hi) = bounding_box(features, &members);
    let dim = value_lo.len();

    // Termination: similar members, small cluster, or depth guard.
    let similar = (0..dim).all(|d| value_hi[d] - value_lo[d] < params.theta_f);
    if similar || members.len() < params.theta_n || depth >= params.max_depth {
        out.push(ClusterInfo {
            id: ClusterId(out.len() as u32),
            members,
            feature_min: value_lo,
            feature_max: value_hi,
        });
        return;
    }

    // Choose the dimensions to halve: the (≤ max_split_dims) with the
    // largest member value ranges among those still dissimilar.
    let mut ranges: Vec<(usize, f64)> = (0..dim)
        .map(|d| (d, value_hi[d] - value_lo[d]))
        .filter(|&(_, r)| r >= params.theta_f)
        .collect();
    ranges.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite ranges"));
    let split_dims: Vec<usize> = ranges
        .iter()
        .take(params.max_split_dims.max(1))
        .map(|&(d, _)| d)
        .collect();

    let (box_lo, box_hi) = node_box;
    // Midpoints of the *member value* range, not the node box: this keeps
    // every split effective even when members occupy a corner of the box.
    let mids: Vec<f64> = split_dims
        .iter()
        .map(|&d| (value_lo[d] + value_hi[d]) / 2.0)
        .collect();

    // Partition members into 2^k children by side-of-midpoint per split dim.
    let n_children = 1usize << split_dims.len();
    let mut child_members: Vec<Vec<usize>> = vec![Vec::new(); n_children];
    for m in members {
        let mut idx = 0usize;
        for (bit, (&d, &mid)) in split_dims.iter().zip(mids.iter()).enumerate() {
            if features[m][d] > mid {
                idx |= 1 << bit;
            }
        }
        child_members[idx].push(m);
    }

    for (idx, child) in child_members.into_iter().enumerate() {
        if child.is_empty() {
            continue;
        }
        let mut c_lo = box_lo.clone();
        let mut c_hi = box_hi.clone();
        for (bit, (&d, &mid)) in split_dims.iter().zip(mids.iter()).enumerate() {
            if idx & (1 << bit) == 0 {
                c_hi[d] = mid;
            } else {
                c_lo[d] = mid;
            }
        }
        split_recursive(features, child, (c_lo, c_hi), params, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(theta_f: f64, theta_n: usize) -> ClusteringParams {
        ClusteringParams {
            theta_f,
            theta_n,
            ..ClusteringParams::default()
        }
    }

    #[test]
    fn empty_input_is_empty_clustering() {
        let c = cluster(&[], &ClusteringParams::default());
        assert_eq!(c.clusters.len(), 0);
        assert!(c.assignments.is_empty());
    }

    #[test]
    fn similar_ues_form_one_cluster() {
        let features = vec![vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 1.5]];
        let c = cluster(&features, &params(5.0, 1));
        assert_eq!(c.clusters.len(), 1);
        assert_eq!(c.clusters[0].members.len(), 3);
    }

    #[test]
    fn dissimilar_groups_separate() {
        // Two well-separated blobs in 2-D.
        let mut features = Vec::new();
        for i in 0..20 {
            features.push(vec![i as f64 * 0.1, 0.0]); // near origin
        }
        for i in 0..20 {
            features.push(vec![100.0 + i as f64 * 0.1, 100.0]); // far corner
        }
        let c = cluster(&features, &params(5.0, 1));
        assert!(c.clusters.len() >= 2);
        // The two blobs never share a cluster.
        let a = c.assignments[0];
        let b = c.assignments[20];
        assert_ne!(a, b);
        // Every final cluster satisfies a stop criterion.
        for info in &c.clusters {
            let similar = info
                .feature_min
                .iter()
                .zip(&info.feature_max)
                .all(|(lo, hi)| hi - lo < 5.0);
            assert!(similar || info.members.is_empty(), "cluster {:?}", info.id);
        }
    }

    #[test]
    fn theta_n_stops_splitting() {
        // Wildly dissimilar but below the size threshold: stays together.
        let features = vec![vec![0.0, 0.0], vec![1000.0, 1000.0]];
        let c = cluster(&features, &params(5.0, 10));
        assert_eq!(c.clusters.len(), 1);
    }

    #[test]
    fn partition_is_total_and_disjoint() {
        let features: Vec<Vec<f64>> = (0..500)
            .map(|i| {
                vec![
                    (i % 97) as f64,
                    (i % 31) as f64,
                    (i % 7) as f64,
                    (i % 13) as f64,
                ]
            })
            .collect();
        let c = cluster(&features, &params(5.0, 20));
        assert_eq!(c.assignments.len(), 500);
        let total: usize = c.clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, 500);
        // Disjoint: each index appears exactly once.
        let mut seen = vec![false; 500];
        for info in &c.clusters {
            for &m in &info.members {
                assert!(!seen[m], "index {m} in two clusters");
                seen[m] = true;
            }
        }
        // Assignments agree with membership lists.
        for info in &c.clusters {
            for &m in &info.members {
                assert_eq!(c.assignments[m], info.id);
            }
        }
    }

    #[test]
    fn non_finite_features_clamped() {
        let features = vec![vec![f64::NAN, 1.0], vec![1.0, f64::INFINITY]];
        let c = cluster(&features, &params(5.0, 1));
        assert_eq!(c.assignments.len(), 2);
        for info in &c.clusters {
            assert!(info.feature_min.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn identical_points_terminate() {
        // 3000 identical points exceed θ_n but are trivially similar.
        let features = vec![vec![7.0; 4]; 3_000];
        let c = cluster(&features, &params(5.0, 1_000));
        assert_eq!(c.clusters.len(), 1);
        assert_eq!(c.clusters[0].members.len(), 3_000);
    }

    #[test]
    fn skewed_heavy_tail_gets_many_clusters() {
        // Heavy-tailed activity: most UEs near zero, a few very large.
        let features: Vec<Vec<f64>> = (0..2_000)
            .map(|i| {
                let x = if i % 100 == 0 {
                    (i as f64) * 3.0
                } else {
                    (i % 10) as f64
                };
                vec![x, x / 2.0]
            })
            .collect();
        let c = cluster(&features, &params(5.0, 50));
        assert!(c.clusters.len() > 4, "got {}", c.clusters.len());
    }
}
