//! Ground-truth model construction.
//!
//! Round-trip validation needs a model whose every parameter is known
//! exactly, so that the distributions recovered by re-fitting a generated
//! trace can be compared against their true counterparts. [`GroundTruth`]
//! builds a deliberately simple but fully-featured [`ModelSet`]: one
//! cluster, the same law in all 24 hours, all five top-level and all six
//! CONNECTED-side second-level transitions present, every sojourn law an
//! empirical CDF whose support — the hand-drawn sample vectors kept in
//! [`GroundTruth::top_samples`] / [`GroundTruth::bottom_samples`] — doubles
//! as the reference sample for the two-sample K–S comparison.
//!
//! Two deliberate design choices keep the round trip statistically clean:
//!
//! * **Top sojourns are long, bottom sojourns short** (minutes vs. ~tens of
//!   seconds). The generator arms second-level timers *conditioned on firing
//!   before the next top-level move* (competing risks, §5.3), which biases
//!   observed bottom sojourns low when the two time scales are close. With
//!   an order of magnitude between them the truncation bias is far below
//!   the K–S resolution at the harness's sample caps.
//! * **IDLE sub-states always exit** (`bottom_exit = 1.0`), so the idle
//!   sub-machine stays silent and the Fig. 5 starred edge (`TAU_S_IDLE`
//!   needs an `S1_CONN_REL` before `SRV_REQ` may leave IDLE) never injects
//!   generator-fabricated release events into the re-fit pools.

use std::collections::HashMap;

use cn_fit::cluster::ClusterId;
use cn_fit::method::DistributionKind;
use cn_fit::{
    ClusterHourModel, DeviceModels, FirstEventModel, HourModels, Method, ModelSet, SemiMarkovModel,
};
use cn_statemachine::{BottomTransition, ConnSub, IdleSub, TlState, TopTransition};
use cn_trace::{DeviceType, EventType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fully known model plus the exact sample vectors its sojourn CDFs were
/// built from.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// The model set handed to the generator.
    pub set: ModelSet,
    /// Per top-level transition: the samples (seconds) behind its CDF.
    pub(crate) top_samples: HashMap<TopTransition, Vec<f64>>,
    /// Per second-level transition: the samples (seconds) behind its CDF.
    pub(crate) bottom_samples: HashMap<BottomTransition, Vec<f64>>,
}

/// Shifted-exponential sample vector: `min + Exp(mean_excess)`, `n` draws.
fn shifted_exp(rng: &mut StdRng, n: usize, min: f64, mean_excess: f64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            min - mean_excess * u.ln()
        })
        .collect()
}

impl GroundTruth {
    /// The standard single-cluster ground truth. Different seeds produce
    /// different (but equally valid) sample vectors; the same seed always
    /// produces bit-identical models.
    pub fn standard(seed: u64) -> GroundTruth {
        let mut rng = StdRng::seed_from_u64(seed);

        // Top level: sample counts encode the branch probabilities
        // (0.95/0.05 out of CONNECTED, 0.9/0.1 out of IDLE), sample values
        // the sojourn laws. All supports start ≥ 30 s — an order of
        // magnitude above the bottom-level time scale.
        let mut top_samples = HashMap::new();
        top_samples.insert(
            TopTransition::DeregToConn,
            shifted_exp(&mut rng, 2_000, 30.0, 150.0),
        );
        top_samples.insert(
            TopTransition::ConnToIdle,
            shifted_exp(&mut rng, 1_900, 90.0, 150.0),
        );
        top_samples.insert(
            TopTransition::ConnToDereg,
            shifted_exp(&mut rng, 100, 90.0, 300.0),
        );
        top_samples.insert(
            TopTransition::IdleToConn,
            shifted_exp(&mut rng, 1_800, 45.0, 180.0),
        );
        top_samples.insert(
            TopTransition::IdleToDereg,
            shifted_exp(&mut rng, 200, 45.0, 360.0),
        );

        // Bottom level: the six CONNECTED-side transitions, distinct means
        // so a swapped pool cannot pass by accident. No IDLE-side
        // transitions — the idle sub-machine is kept silent (see module
        // docs).
        let mut bottom_samples = HashMap::new();
        bottom_samples.insert(
            BottomTransition::SrvReqToHo,
            shifted_exp(&mut rng, 1_200, 2.0, 14.0),
        );
        bottom_samples.insert(
            BottomTransition::SrvReqToTauConn,
            shifted_exp(&mut rng, 800, 2.0, 20.0),
        );
        bottom_samples.insert(
            BottomTransition::HoToHo,
            shifted_exp(&mut rng, 700, 2.0, 12.0),
        );
        bottom_samples.insert(
            BottomTransition::HoToTauConn,
            shifted_exp(&mut rng, 700, 2.0, 18.0),
        );
        bottom_samples.insert(
            BottomTransition::TauConnToHo,
            shifted_exp(&mut rng, 600, 2.0, 16.0),
        );
        bottom_samples.insert(
            BottomTransition::TauConnToTauConn,
            shifted_exp(&mut rng, 600, 2.0, 22.0),
        );

        let top = SemiMarkovModel::fit(&top_samples, DistributionKind::EmpiricalCdf);
        let bottom = SemiMarkovModel::fit(&bottom_samples, DistributionKind::EmpiricalCdf);

        // Visits to a CONNECTED sub-state stay silent with these
        // probabilities; IDLE sub-states always exit (prob 1.0).
        let bottom_exit = vec![
            (TlState::Connected(ConnSub::SrvReqS), 0.45),
            (TlState::Connected(ConnSub::HoS), 0.50),
            (TlState::Connected(ConnSub::TauSConn), 0.50),
            (TlState::Idle(IdleSub::S1RelS1), 1.0),
            (TlState::Idle(IdleSub::TauSIdle), 1.0),
            (TlState::Idle(IdleSub::S1RelS2), 1.0),
        ];

        // Every UE's first event is an ATCH, uniformly placed in the hour,
        // and every UE is active (active_prob = 1): the generated
        // population boots deterministically into the machine.
        let firsts: Vec<(EventType, f64)> = (0..1_200)
            .map(|_| (EventType::Attach, rng.gen_range(0.0..3_600.0)))
            .collect();
        let first_event = FirstEventModel::fit(&firsts, 0);

        let chm = ClusterHourModel {
            top,
            bottom,
            bottom_exit,
            ho_interarrival: None,
            tau_interarrival: None,
            first_event,
            n_ues: 64,
        };

        let hours: Vec<HourModels> = (0..24)
            .map(|_| HourModels {
                clusters: vec![chm.clone()],
            })
            .collect();
        let personas = vec![[ClusterId(0); 24]; 16];
        let devices = DeviceType::ALL
            .into_iter()
            .map(|device| DeviceModels {
                device,
                personas: personas.clone(),
                hours: hours.clone(),
            })
            .collect();

        GroundTruth {
            set: ModelSet {
                method: Method::Ours,
                devices,
                n_days: 1,
            },
            top_samples,
            bottom_samples,
        }
    }

    /// The single cluster-hour model all (device, hour) slots share.
    #[cfg(test)]
    fn cluster_hour(&self) -> &ClusterHourModel {
        &self.set.devices[0].hours[0].clusters[0]
    }

    /// True branch probability of a top-level transition, derived from the
    /// sample counts.
    pub(crate) fn top_prob(&self, t: TopTransition) -> f64 {
        let own = self.top_samples.get(&t).map_or(0, Vec::len);
        let total: usize = TopTransition::ALL
            .into_iter()
            .filter(|o| o.from() == t.from())
            .filter_map(|o| self.top_samples.get(&o).map(Vec::len))
            .sum();
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// True branch probability of a second-level transition.
    pub(crate) fn bottom_prob(&self, t: BottomTransition) -> f64 {
        let own = self.bottom_samples.get(&t).map_or(0, Vec::len);
        let total: usize = BottomTransition::ALL
            .into_iter()
            .filter(|o| o.from() == t.from())
            .filter_map(|o| self.bottom_samples.get(&o).map(Vec::len))
            .sum();
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_is_deterministic() {
        let a = GroundTruth::standard(7);
        let b = GroundTruth::standard(7);
        assert_eq!(a.set, b.set);
        let c = GroundTruth::standard(8);
        assert_ne!(a.set, c.set);
    }

    #[test]
    fn probabilities_match_sample_counts() {
        let gt = GroundTruth::standard(3);
        assert!((gt.top_prob(TopTransition::ConnToIdle) - 0.95).abs() < 1e-12);
        assert!((gt.top_prob(TopTransition::ConnToDereg) - 0.05).abs() < 1e-12);
        assert!((gt.top_prob(TopTransition::DeregToConn) - 1.0).abs() < 1e-12);
        assert!((gt.bottom_prob(BottomTransition::SrvReqToHo) - 0.6).abs() < 1e-12);
        // The fitted model agrees with the count-derived truth.
        for t in TopTransition::ALL {
            assert!(
                (gt.cluster_hour().top.prob(t) - gt.top_prob(t)).abs() < 1e-12,
                "{t:?}"
            );
        }
    }

    #[test]
    fn model_supports_separate_time_scales() {
        let gt = GroundTruth::standard(5);
        for (t, s) in &gt.top_samples {
            let min = s.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(min >= 30.0, "top {t:?} min {min}");
        }
        for (t, s) in &gt.bottom_samples {
            let max = s.iter().cloned().fold(0.0, f64::max);
            assert!(max < 300.0, "bottom {t:?} max {max}");
            let min = s.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(min >= 2.0, "bottom {t:?} min {min}");
        }
    }

    #[test]
    fn idle_substates_always_exit() {
        let gt = GroundTruth::standard(1);
        let chm = gt.cluster_hour();
        for sub in [IdleSub::S1RelS1, IdleSub::TauSIdle, IdleSub::S1RelS2] {
            assert_eq!(chm.exit_prob(TlState::Idle(sub)), Some(1.0));
        }
    }
}
