//! Model compaction: bounded-size snapshots.
//!
//! The paper's fitted artifact is ~20K Semi-Markov models; with empirical
//! CDFs storing every observed sojourn, a carrier-scale snapshot reaches
//! gigabytes. Compaction replaces each stored ECDF with an evenly-spaced
//! quantile subsample of at most `max_samples` points. The substituted
//! law's K–S distance to the original is at most ~`1/max_samples`, so
//! generation fidelity degrades gracefully and measurably.

use crate::model::ModelSet;
use crate::semi_markov::{SemiMarkovModel, TransitionLike};
use cn_stats::dist::Dist;
use cn_stats::Ecdf;

/// Subsample an ECDF to at most `max_samples` evenly-spaced quantiles
/// (returns the input when it is already small enough).
pub(crate) fn compact_ecdf(ecdf: &Ecdf, max_samples: usize) -> Ecdf {
    let max_samples = max_samples.max(2);
    if ecdf.len() <= max_samples {
        return ecdf.clone();
    }
    let samples: Vec<f64> = (0..max_samples)
        .map(|i| {
            // Include both extremes so min/max survive compaction.
            let p = i as f64 / (max_samples - 1) as f64;
            ecdf.quantile(p)
        })
        .collect();
    Ecdf::new(samples).expect("quantiles of a valid ECDF are valid")
}

fn compact_dist(d: &Dist, max_samples: usize) -> Dist {
    match d {
        Dist::Empirical(e) => Dist::Empirical(compact_ecdf(e, max_samples)),
        other => other.clone(),
    }
}

fn compact_semi_markov<T: TransitionLike>(
    m: &SemiMarkovModel<T>,
    max_samples: usize,
) -> SemiMarkovModel<T> {
    m.map_branches(|b| {
        let mut b = b.clone();
        b.sojourn = compact_dist(&b.sojourn, max_samples);
        Some(b)
    })
}

/// Compact every empirical law in a model set to at most `max_samples`
/// points (sojourn CDFs, inter-arrival laws, first-event offsets).
pub fn compact_model_set(set: &ModelSet, max_samples: usize) -> ModelSet {
    let mut out = set.clone();
    for dm in &mut out.devices {
        for hm in &mut dm.hours {
            for c in &mut hm.clusters {
                c.top = compact_semi_markov(&c.top, max_samples);
                c.bottom = compact_semi_markov(&c.bottom, max_samples);
                if let Some(d) = &c.ho_interarrival {
                    c.ho_interarrival = Some(compact_dist(d, max_samples));
                }
                if let Some(d) = &c.tau_interarrival {
                    c.tau_interarrival = Some(compact_dist(d, max_samples));
                }
                if let Some(e) = &c.first_event.offset_secs {
                    c.first_event.offset_secs = Some(compact_ecdf(e, max_samples));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fit, FitConfig, Method};
    use cn_trace::PopulationMix;
    use cn_world::{generate_world, WorldConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn compacted_ecdf_is_close_and_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| rng.gen::<f64>().powi(3) * 500.0)
            .collect();
        let full = Ecdf::new(samples).unwrap();
        let small = compact_ecdf(&full, 100);
        assert_eq!(small.len(), 100);
        assert_eq!(small.min(), full.min());
        assert_eq!(small.max(), full.max());
        let d = full.max_y_distance(&small);
        assert!(d < 0.02, "K–S distance {d}");
    }

    #[test]
    fn small_ecdfs_pass_through() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(compact_ecdf(&e, 100), e);
    }

    #[test]
    fn compacted_models_verify_and_shrink() {
        let world = generate_world(&WorldConfig::new(PopulationMix::new(60, 25, 15), 2.0, 9));
        let set = fit(&world, &FitConfig::new(Method::Ours));
        let compacted = compact_model_set(&set, 64);
        assert!(crate::inspect::verify(&compacted).is_empty());
        let full_size = set.to_json().unwrap().len();
        let small_size = compacted.to_json().unwrap().len();
        assert!(
            small_size * 2 < full_size,
            "compaction saved too little: {small_size} vs {full_size}"
        );
    }
}
