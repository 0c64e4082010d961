//! The fitted model set: one Semi-Markov model per (cluster, hour, device).

use crate::cluster::ClusterId;
use crate::first_event::FirstEventModel;
use crate::method::Method;
use crate::semi_markov::SemiMarkovModel;
use cn_statemachine::{BottomTransition, TlState, TopTransition};
use cn_stats::dist::Dist;
use cn_trace::{DeviceType, HourOfDay};
use serde::{Deserialize, Serialize};

/// The model of one (cluster, hour, device) combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterHourModel {
    /// Top-level (EMM–ECM) Semi-Markov model.
    pub top: SemiMarkovModel<TopTransition>,
    /// Second-level Semi-Markov model (empty for EMM–ECM methods).
    pub bottom: SemiMarkovModel<BottomTransition>,
    /// Per bottom-capable state: the probability that a visit produces *no*
    /// second-level event before the next top-level move (estimated from
    /// censored visits during replay). The generator arms its second-level
    /// timer only with probability `1 − p`; without this competing-risks
    /// correction the two-level model floods the trace with HO/TAU.
    pub bottom_exit: Vec<(TlState, f64)>,
    /// `HO` inter-arrival law for EMM–ECM methods (the baseline's overlaid
    /// Poisson process); `None` for two-level methods.
    pub ho_interarrival: Option<Dist>,
    /// `TAU` inter-arrival law for EMM–ECM methods.
    pub tau_interarrival: Option<Dist>,
    /// First-event model for traces starting in this hour.
    pub first_event: FirstEventModel,
    /// Number of UEs that contributed to this model.
    pub n_ues: usize,
}

impl ClusterHourModel {
    /// A model with no information (silent cluster-hour).
    pub fn empty() -> ClusterHourModel {
        ClusterHourModel {
            top: SemiMarkovModel::default(),
            bottom: SemiMarkovModel::default(),
            bottom_exit: Vec::new(),
            ho_interarrival: None,
            tau_interarrival: None,
            first_event: FirstEventModel::empty(),
            n_ues: 0,
        }
    }

    /// True when the model carries no transition information at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.top.is_empty() && self.bottom.is_empty() && self.first_event.is_empty()
    }

    /// Probability that a visit to `state` produces no second-level event
    /// (`None` when the state was never observed in this cluster-hour).
    pub fn exit_prob(&self, state: TlState) -> Option<f64> {
        self.bottom_exit
            .iter()
            .find(|(s, _)| *s == state)
            .map(|(_, p)| *p)
    }
}

/// The 24 hourly model slots of one device type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HourModels {
    /// Per-cluster models, indexed by [`ClusterId`].
    pub clusters: Vec<ClusterHourModel>,
}

impl HourModels {
    /// The model of a cluster, falling back to an empty model for unknown
    /// ids (robustness against persona/cluster mismatches).
    pub fn cluster(&self, id: ClusterId) -> &ClusterHourModel {
        static EMPTY: std::sync::OnceLock<ClusterHourModel> = std::sync::OnceLock::new();
        self.clusters
            .get(id.index())
            .unwrap_or_else(|| EMPTY.get_or_init(ClusterHourModel::empty))
    }
}

/// All models of one device type, plus the persona table that ties a
/// modeled UE to its cluster in every hour (§7: generators are distributed
/// over clusters "according to the distribution of the UEs in the modeled
/// trace"; sampling a persona row reproduces exactly that distribution
/// while keeping a UE's cluster trajectory consistent across hours).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceModels {
    /// The device type.
    pub device: DeviceType,
    /// One row per modeled UE: its cluster in each of the 24 hours.
    pub personas: Vec<[ClusterId; 24]>,
    /// The 24 hourly model slots.
    pub hours: Vec<HourModels>,
}

impl DeviceModels {
    /// Models for one hour-of-day.
    pub fn hour(&self, hour: HourOfDay) -> &HourModels {
        &self.hours[hour.index()]
    }

    /// Total number of distinct cluster-hour models.
    pub(crate) fn model_count(&self) -> usize {
        self.hours.iter().map(|h| h.clusters.len()).sum()
    }
}

/// A complete fitted model: the paper's "20,216 two-level
/// state-machine-based Semi-Markov models" artifact, at our scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSet {
    /// The method that produced this model (Table 3).
    pub method: Method,
    /// Per-device models, indexed by [`DeviceType::code`].
    pub devices: Vec<DeviceModels>,
    /// Days spanned by the modeled trace (used for per-day feature scaling).
    pub n_days: u64,
}

impl ModelSet {
    /// Models of one device type.
    pub fn device(&self, device: DeviceType) -> &DeviceModels {
        &self.devices[device.code() as usize]
    }

    /// Total number of instantiated cluster-hour models across devices.
    pub fn model_count(&self) -> usize {
        self.devices.iter().map(DeviceModels::model_count).sum()
    }

    /// Serialize to JSON (model snapshot).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Load from a JSON snapshot. A snapshot the generator cannot step —
    /// not one device per [`DeviceType`] at its [`DeviceType::code`], or
    /// a device without 24 hourly slots — is an error here, not an index
    /// out of bounds at the first draw.
    pub fn from_json(json: &str) -> serde_json::Result<ModelSet> {
        let set: ModelSet = serde_json::from_str(json)?;
        let invalid = |msg: String| Err(serde::DeError::msg(msg).into());
        if set.devices.len() != DeviceType::ALL.len() {
            return invalid(format!("{} device models, not 3", set.devices.len()));
        }
        for (code, models) in set.devices.iter().enumerate() {
            if models.device.code() as usize != code {
                return invalid(format!("{} models at device index {code}", models.device));
            }
            if models.hours.len() != 24 {
                let hours = models.hours.len();
                return invalid(format!(
                    "{} models span {hours} hours, not 24",
                    models.device
                ));
            }
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_model_is_empty() {
        let m = ClusterHourModel::empty();
        assert!(m.is_empty());
        assert_eq!(m.n_ues, 0);
    }

    #[test]
    fn hour_models_fallback_for_unknown_cluster() {
        let h = HourModels { clusters: vec![] };
        assert!(h.cluster(ClusterId(99)).is_empty());
    }
}
