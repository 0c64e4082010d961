//! Model inspection: what did the fit actually learn?
//!
//! The paper reports its fitted artifact as "20,216 two-level
//! state-machine-based Semi-Markov models" (§5.3). This module produces
//! the equivalent inventory for any [`ModelSet`] — cluster counts per
//! hour, sample coverage, transition-probability summaries — for sanity
//! checking, debugging, and documentation.

use crate::method::StateMachineKind;
use crate::model::ModelSet;
use crate::semi_markov::TransitionLike;
use cn_statemachine::{BottomTransition, TopTransition};
use cn_trace::{DeviceType, HourOfDay};
use serde::{Deserialize, Serialize};

/// Inventory of one fitted model set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInventory {
    /// Method name.
    pub method: String,
    /// Total cluster-hour models.
    pub total_models: usize,
    /// Models that carry no information at all.
    pub empty_models: usize,
    /// Per device: mean clusters per hour.
    pub mean_clusters_per_hour: [f64; 3],
    /// Per device: modeled UEs (persona rows).
    pub modeled_ues: [usize; 3],
    /// Fraction of cluster-hours with a usable top-level model.
    pub top_coverage: f64,
    /// Fraction of cluster-hours with a usable second-level model
    /// (0 for EMM–ECM methods).
    pub(crate) bottom_coverage: f64,
    /// Fraction of cluster-hours with a first-event model.
    pub first_event_coverage: f64,
    /// Mean transition probability of `IDLE → CONNECTED` where present
    /// (how session-dominated the modeled idle departures are).
    pub(crate) mean_idle_to_conn_prob: f64,
}

/// Build the inventory of a model set.
pub fn inventory(set: &ModelSet) -> ModelInventory {
    let mut total = 0usize;
    let mut empty = 0usize;
    let mut top_ok = 0usize;
    let mut bottom_ok = 0usize;
    let mut fe_ok = 0usize;
    let mut idle_probs: Vec<f64> = Vec::new();
    let mut mean_clusters = [0f64; 3];
    let mut modeled = [0usize; 3];

    for device in DeviceType::ALL {
        let dm = set.device(device);
        modeled[device.code() as usize] = dm.personas.len();
        let mut clusters = 0usize;
        for hour in HourOfDay::all() {
            let hm = dm.hour(hour);
            clusters += hm.clusters.len();
            for c in &hm.clusters {
                total += 1;
                if c.is_empty() {
                    empty += 1;
                }
                if !c.top.is_empty() {
                    top_ok += 1;
                }
                if !c.bottom.is_empty() {
                    bottom_ok += 1;
                }
                if !c.first_event.is_empty() {
                    fe_ok += 1;
                }
                let p = c.top.prob(TopTransition::IdleToConn);
                if p > 0.0 {
                    idle_probs.push(p);
                }
            }
        }
        mean_clusters[device.code() as usize] = clusters as f64 / 24.0;
    }

    let frac = |n: usize| {
        if total == 0 {
            0.0
        } else {
            n as f64 / total as f64
        }
    };
    ModelInventory {
        method: set.method.name().to_string(),
        total_models: total,
        empty_models: empty,
        mean_clusters_per_hour: mean_clusters,
        modeled_ues: modeled,
        top_coverage: frac(top_ok),
        bottom_coverage: frac(bottom_ok),
        first_event_coverage: frac(fe_ok),
        mean_idle_to_conn_prob: if idle_probs.is_empty() {
            0.0
        } else {
            idle_probs.iter().sum::<f64>() / idle_probs.len() as f64
        },
    }
}

/// Consistency problems detectable in a fitted model set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelDefect {
    /// A state's branch probabilities do not sum to ~1.
    UnnormalizedBranches {
        /// Device the defect is in.
        device: DeviceType,
        /// Hour of the defective model.
        hour: u8,
        /// Cluster index within the hour.
        cluster: usize,
        /// The offending probability sum.
        sum: f64,
    },
    /// An exit probability is outside [0, 1].
    BadExitProb {
        /// Device the defect is in.
        device: DeviceType,
        /// Hour of the defective model.
        hour: u8,
        /// The offending value.
        value: f64,
    },
    /// A persona row references a cluster id that does not exist.
    DanglingPersona {
        /// Device the defect is in.
        device: DeviceType,
        /// Hour at which the reference dangles.
        hour: u8,
    },
}

/// Verify the structural invariants of a fitted model set.
pub fn verify(set: &ModelSet) -> Vec<ModelDefect> {
    let mut defects = Vec::new();
    for device in DeviceType::ALL {
        let dm = set.device(device);
        for hour in HourOfDay::all() {
            let hm = dm.hour(hour);
            for (ci, c) in hm.clusters.iter().enumerate() {
                for state in c.top.states() {
                    let sum: f64 = c.top.outgoing(state).iter().map(|b| b.prob).sum();
                    if (sum - 1.0).abs() > 1e-6 {
                        defects.push(ModelDefect::UnnormalizedBranches {
                            device,
                            hour: hour.get(),
                            cluster: ci,
                            sum,
                        });
                    }
                }
                for state in c.bottom.states() {
                    let sum: f64 = c.bottom.outgoing(state).iter().map(|b| b.prob).sum();
                    if (sum - 1.0).abs() > 1e-6 {
                        defects.push(ModelDefect::UnnormalizedBranches {
                            device,
                            hour: hour.get(),
                            cluster: ci,
                            sum,
                        });
                    }
                }
                for &(_, p) in &c.bottom_exit {
                    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                        defects.push(ModelDefect::BadExitProb {
                            device,
                            hour: hour.get(),
                            value: p,
                        });
                    }
                }
            }
        }
        for row in &dm.personas {
            for (h, c) in row.iter().enumerate() {
                if c.index() >= dm.hours[h].clusters.len() {
                    defects.push(ModelDefect::DanglingPersona {
                        device,
                        hour: h as u8,
                    });
                }
            }
        }
    }
    defects
}

/// Whether the model set's machine kind matches its contents (EMM–ECM sets
/// must not carry second-level models, and vice versa for inter-arrival
/// overlays).
pub fn machine_consistent(set: &ModelSet) -> bool {
    let two_level = set.method.machine() == StateMachineKind::TwoLevel;
    set.devices.iter().all(|dm| {
        dm.hours.iter().all(|hm| {
            hm.clusters.iter().all(|c| {
                if two_level {
                    c.ho_interarrival.is_none() && c.tau_interarrival.is_none()
                } else {
                    c.bottom.is_empty()
                        && BottomTransition::all()
                            .iter()
                            .all(|t| c.bottom.sojourn(*t).is_none())
                }
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fit, FitConfig, Method};
    use cn_trace::{PopulationMix, Trace};
    use cn_world::{generate_world, WorldConfig};

    fn small() -> Trace {
        generate_world(&WorldConfig::new(PopulationMix::new(30, 12, 8), 1.0, 19))
    }

    #[test]
    fn inventory_counts_are_sane() {
        let set = fit(&small(), &FitConfig::new(Method::Ours));
        let inv = inventory(&set);
        assert_eq!(inv.method, "Ours");
        assert!(inv.total_models >= 72, "{}", inv.total_models);
        assert!(inv.top_coverage > 0.3, "{}", inv.top_coverage);
        assert!(inv.first_event_coverage > 0.3);
        assert!(
            inv.mean_idle_to_conn_prob > 0.5,
            "{}",
            inv.mean_idle_to_conn_prob
        );
        assert_eq!(inv.modeled_ues, [30, 12, 8]);
    }

    #[test]
    fn fitted_models_verify_clean() {
        for method in Method::ALL {
            let set = fit(&small(), &FitConfig::new(method));
            assert!(
                verify(&set).is_empty(),
                "{method}: {:?}",
                verify(&set).first()
            );
            assert!(machine_consistent(&set), "{method}");
        }
    }

    #[test]
    fn verify_catches_corruption() {
        let mut set = fit(&small(), &FitConfig::new(Method::Ours));
        // Corrupt an exit probability.
        let dm = &mut set.devices[0];
        'outer: for hm in &mut dm.hours {
            for c in &mut hm.clusters {
                if let Some(first) = c.bottom_exit.first_mut() {
                    first.1 = 1.5;
                    break 'outer;
                }
            }
        }
        let defects = verify(&set);
        assert!(
            defects
                .iter()
                .any(|d| matches!(d, ModelDefect::BadExitProb { .. })),
            "{defects:?}"
        );
    }
}
