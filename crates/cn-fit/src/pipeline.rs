//! The end-to-end fitting pipeline: trace → [`ModelSet`].

use crate::first_event::FirstEventModel;
use crate::method::{Method, StateMachineKind};
use crate::model::{ClusterHourModel, DeviceModels, HourModels, ModelSet};
use crate::semi_markov::{fit_sojourn, SemiMarkovModel};
use crate::sojourn::UeObservations;
use cn_cluster::{ClusterId, Clustering, ClusteringParams};
use cn_statemachine::{BottomTransition, TlState, TopTransition};
use cn_trace::{DeviceType, HourOfDay, Trace, TraceRecord, UeId, MS_PER_DAY};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of a fitting run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitConfig {
    /// Which Table 3 method to fit.
    pub(crate) method: Method,
    /// Clustering thresholds (θ_f, θ_n); ignored by unclustered methods.
    pub clustering: ClusteringParams,
    /// Days spanned by the trace; `0` = infer from the last timestamp.
    pub n_days: u64,
    /// Worker threads for the replay pass (`0` = all cores).
    pub(crate) threads: usize,
}

impl FitConfig {
    /// Default configuration for a method (paper thresholds).
    pub fn new(method: Method) -> FitConfig {
        FitConfig {
            method,
            clustering: ClusteringParams::default(),
            n_days: 0,
            threads: 0,
        }
    }
}

/// Fit a model set to a trace (§5).
///
/// ```
/// use cn_fit::{fit, FitConfig, Method};
/// use cn_trace::PopulationMix;
/// use cn_world::{generate_world, WorldConfig};
/// let world = generate_world(&WorldConfig::new(PopulationMix::new(15, 5, 3), 1.0, 7));
/// let models = fit(&world, &FitConfig::new(Method::Ours));
/// assert_eq!(models.devices.len(), 3);
/// assert!(cn_fit::inspect::verify(&models).is_empty());
/// ```
pub fn fit(trace: &Trace, config: &FitConfig) -> ModelSet {
    let n_days = if config.n_days > 0 {
        config.n_days
    } else {
        trace.end().map_or(1, |t| t.as_millis() / MS_PER_DAY + 1)
    };

    let observations = observe_all(trace, config.threads);

    let devices = DeviceType::ALL
        .into_iter()
        .map(|device| {
            let device_obs: Vec<&UeObservations> =
                observations.iter().filter(|o| o.device == device).collect();
            fit_device(device, &device_obs, config, n_days)
        })
        .collect();

    ModelSet {
        method: config.method,
        devices,
        n_days,
    }
}

/// Replay and observe every UE, in parallel.
fn observe_all(trace: &Trace, threads: usize) -> Vec<UeObservations> {
    let per_ue = trace.per_ue();
    let entries: Vec<_> = per_ue.iter().collect();
    if entries.is_empty() {
        return Vec::new();
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    } else {
        threads
    }
    .min(entries.len())
    .max(1);
    let chunk = entries.len().div_ceil(threads);
    let observe_share = |slice: &[(UeId, &[TraceRecord])]| {
        slice
            .iter()
            .map(|(_, events)| {
                let device = events.first().map_or(DeviceType::Phone, |r| r.device);
                UeObservations::observe(device, events)
            })
            .collect::<Vec<_>>()
    };
    // The calling thread observes the last share itself instead of idling
    // in `join` (as `cn_world::generate_world` does, for the same reason).
    let mut shares: Vec<_> = entries.chunks(chunk).collect();
    let own = shares.pop().expect("entries is non-empty");
    std::thread::scope(|scope| {
        let observe_share = &observe_share;
        let handles: Vec<_> = shares
            .into_iter()
            .map(|slice| scope.spawn(move || observe_share(slice)))
            .collect();
        let own = observe_share(own);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("observer panicked"))
            .chain(own)
            .collect()
    })
}

/// Fit all 24 hour slots of one device type.
fn fit_device(
    device: DeviceType,
    obs: &[&UeObservations],
    config: &FitConfig,
    n_days: u64,
) -> DeviceModels {
    let mut personas = vec![[ClusterId(0); 24]; obs.len()];
    let mut hours = Vec::with_capacity(24);
    if obs.is_empty() {
        for _ in 0..24 {
            hours.push(HourModels {
                clusters: Vec::new(),
            });
        }
        return DeviceModels {
            device,
            personas,
            hours,
        };
    }

    for hour in HourOfDay::all() {
        let clustering = if config.method.clustered() {
            let features: Vec<Vec<f64>> = obs
                .iter()
                .map(|o| o.features_for_hour(hour, n_days))
                .collect();
            cn_cluster::cluster(&features, &config.clustering)
        } else {
            // A single cluster holding every UE.
            single_cluster(obs.len())
        };
        for (i, &c) in clustering.assignments.iter().enumerate() {
            personas[i][hour.index()] = c;
        }
        let clusters = clustering
            .clusters
            .iter()
            .map(|info| fit_cluster_hour(obs, &info.members, hour, config, n_days))
            .collect();
        hours.push(HourModels { clusters });
    }

    DeviceModels {
        device,
        personas,
        hours,
    }
}

fn single_cluster(n: usize) -> Clustering {
    let members: Vec<usize> = (0..n).collect();
    Clustering {
        assignments: vec![ClusterId(0); n],
        clusters: vec![cn_cluster::ClusterInfo {
            id: ClusterId(0),
            members,
            feature_min: Vec::new(),
            feature_max: Vec::new(),
        }],
    }
}

/// Fit the model of one (cluster, hour) from its member UEs' observations.
fn fit_cluster_hour(
    obs: &[&UeObservations],
    members: &[usize],
    hour: HourOfDay,
    config: &FitConfig,
    n_days: u64,
) -> ClusterHourModel {
    let h = hour.index();
    let dist_kind = config.method.distribution();

    // Pool sojourn samples across member UEs (events of different UEs are
    // i.i.d. within a cluster, §4.1.1).
    let mut top: HashMap<TopTransition, Vec<f64>> = HashMap::new();
    let mut bottom: HashMap<BottomTransition, Vec<f64>> = HashMap::new();
    let mut censored: HashMap<TlState, usize> = HashMap::new();
    let mut ho_gaps: Vec<f64> = Vec::new();
    let mut tau_gaps: Vec<f64> = Vec::new();
    let mut firsts: Vec<(cn_trace::EventType, f64)> = Vec::new();
    let mut active_obs = 0usize;

    for &m in members {
        let o = obs[m];
        for (&t, s) in &o.top_by_hour[h] {
            top.entry(t).or_default().extend_from_slice(s);
        }
        if config.method.machine() == StateMachineKind::TwoLevel {
            for (&t, s) in &o.bottom_by_hour[h] {
                bottom.entry(t).or_default().extend_from_slice(s);
            }
            for (&s, &n) in &o.bottom_censored_by_hour[h] {
                *censored.entry(s).or_insert(0) += n;
            }
        } else {
            ho_gaps.extend_from_slice(&o.ho_gaps_by_hour[h]);
            tau_gaps.extend_from_slice(&o.tau_gaps_by_hour[h]);
        }
        for ((_, fh), &(e, off)) in &o.first_by_day_hour {
            if *fh == hour.get() {
                firsts.push((e, off));
                active_obs += 1;
            }
        }
    }

    let idle_obs = (members.len() * n_days as usize).saturating_sub(active_obs);
    let (ho_ia, tau_ia) = if config.method.machine() == StateMachineKind::EmmEcm {
        (
            (!ho_gaps.is_empty()).then(|| fit_sojourn(&ho_gaps, dist_kind)),
            (!tau_gaps.is_empty()).then(|| fit_sojourn(&tau_gaps, dist_kind)),
        )
    } else {
        (None, None)
    };

    // Competing-risks correction: P(no second-level event | visit) per
    // bottom-capable state = censored visits / all completed visits.
    let mut fired: HashMap<TlState, usize> = HashMap::new();
    for (t, s) in &bottom {
        use crate::semi_markov::TransitionLike;
        *fired.entry(t.from_state()).or_insert(0) += s.len();
    }
    let mut bottom_exit: Vec<(TlState, f64)> = censored
        .keys()
        .chain(fired.keys())
        .copied()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|s| {
            let c = *censored.get(&s).unwrap_or(&0) as f64;
            let f = *fired.get(&s).unwrap_or(&0) as f64;
            (s, c / (c + f).max(1.0))
        })
        .collect();
    bottom_exit.sort_by_key(|(s, _)| *s);

    ClusterHourModel {
        top: SemiMarkovModel::fit(&top, dist_kind),
        bottom: SemiMarkovModel::fit(&bottom, dist_kind),
        bottom_exit,
        ho_interarrival: ho_ia,
        tau_interarrival: tau_ia,
        first_event: FirstEventModel::fit(&firsts, idle_obs),
        n_ues: members.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::PopulationMix;
    use cn_world::{generate_world, WorldConfig};

    fn small_world() -> Trace {
        generate_world(&WorldConfig::new(PopulationMix::new(30, 15, 10), 2.0, 11))
    }

    #[test]
    fn fit_produces_models_for_all_devices_and_hours() {
        let trace = small_world();
        let set = fit(&trace, &FitConfig::new(Method::Ours));
        assert_eq!(set.devices.len(), 3);
        assert_eq!(set.n_days, 2);
        for device in DeviceType::ALL {
            let dm = set.device(device);
            assert_eq!(dm.hours.len(), 24);
            assert!(dm.model_count() >= 24, "{device}");
            // Busy daytime hours must have usable models.
            let noon = dm.hour(HourOfDay(12));
            assert!(
                noon.clusters.iter().any(|c| !c.top.is_empty()),
                "{device}: no top model at noon"
            );
        }
    }

    #[test]
    fn ours_uses_ecdf_b2_uses_poisson() {
        use cn_stats::dist::Dist;
        let trace = small_world();
        let ours = fit(&trace, &FitConfig::new(Method::Ours));
        let b2 = fit(&trace, &FitConfig::new(Method::B2));
        let check = |set: &ModelSet, want_exp: bool| {
            let dm = set.device(DeviceType::Phone);
            let mut seen = false;
            for hm in &dm.hours {
                for c in &hm.clusters {
                    for t in TopTransition::ALL {
                        if let Some(d) = c.top.sojourn(t) {
                            seen = true;
                            match (want_exp, d) {
                                (true, Dist::Exponential(_)) | (false, Dist::Empirical(_)) => {}
                                // Degenerate Poisson fits legitimately fall
                                // back to ECDF.
                                (true, Dist::Empirical(e)) => {
                                    assert!(e.max() <= 0.0, "non-degenerate fallback")
                                }
                                (want, d) => panic!("want_exp={want}, got {}", d.family()),
                            }
                        }
                    }
                }
            }
            assert!(seen, "no sojourn models at all");
        };
        check(&ours, false);
        check(&b2, true);
    }

    #[test]
    fn emm_ecm_methods_have_interarrival_models_not_bottom() {
        let trace = small_world();
        let base = fit(&trace, &FitConfig::new(Method::Base));
        let dm = base.device(DeviceType::ConnectedCar);
        let mut saw_ho = false;
        for hm in &dm.hours {
            // Base: exactly one cluster per hour.
            assert_eq!(hm.clusters.len(), 1);
            let c = &hm.clusters[0];
            assert!(c.bottom.is_empty());
            saw_ho |= c.ho_interarrival.is_some();
        }
        assert!(saw_ho, "cars never produced HO gaps");
    }

    #[test]
    fn two_level_methods_have_bottom_models_not_interarrival() {
        let trace = small_world();
        let ours = fit(&trace, &FitConfig::new(Method::Ours));
        let dm = ours.device(DeviceType::ConnectedCar);
        let mut saw_bottom = false;
        for hm in &dm.hours {
            for c in &hm.clusters {
                assert!(c.ho_interarrival.is_none());
                assert!(c.tau_interarrival.is_none());
                saw_bottom |= !c.bottom.is_empty();
            }
        }
        assert!(saw_bottom, "cars never produced second-level transitions");
    }

    #[test]
    fn personas_reference_valid_clusters() {
        let trace = small_world();
        let set = fit(&trace, &FitConfig::new(Method::Ours));
        for dm in &set.devices {
            for row in &dm.personas {
                for (h, &c) in row.iter().enumerate() {
                    assert!(
                        c.index() < dm.hours[h].clusters.len(),
                        "{:?} hour {h}: persona cluster {c} out of range",
                        dm.device
                    );
                }
            }
        }
    }

    #[test]
    fn clustered_methods_split_more_than_one_cluster_somewhere() {
        let trace = small_world();
        let mut config = FitConfig::new(Method::Ours);
        // Small θ_n so our small population can still split.
        config.clustering.theta_n = 5;
        let set = fit(&trace, &config);
        let dm = set.device(DeviceType::Phone);
        let max_clusters = dm.hours.iter().map(|h| h.clusters.len()).max().unwrap();
        assert!(max_clusters > 1, "no hour split at all");
    }

    #[test]
    fn empty_trace_fits_empty_models() {
        let set = fit(&Trace::new(), &FitConfig::new(Method::Ours));
        assert_eq!(set.model_count(), 0);
        for dm in &set.devices {
            assert!(dm.personas.is_empty());
        }
    }

    #[test]
    fn model_set_json_round_trip() {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(5, 2, 2), 1.0, 3));
        let set = fit(&trace, &FitConfig::new(Method::Ours));
        // Exact f64 round-tripping needs serde_json's `float_roundtrip`
        // feature (enabled workspace-wide); with it, deep equality holds.
        let json = set.to_json().unwrap();
        let back = ModelSet::from_json(&json).unwrap();
        assert_eq!(set, back);
    }
}
