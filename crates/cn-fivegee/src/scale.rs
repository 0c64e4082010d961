//! Deriving 5G model parameters by scaling the fitted 4G model (§6).
//!
//! With no large-scale 5G trace available, the paper scales the 4G model:
//! if a UE incurs `k×` more HO events on 5G, HO-triggered transitions are
//! upweighted by `k` (then renormalized against their sibling branches)
//! and their sojourn/inter-arrival laws shrunk by `1/k`. For 5G SA, TAU
//! does not exist: every TAU-triggered branch — and, transitively, every
//! branch leaving a TAU-entered state — is removed, reducing the machine
//! to Fig. 6.

use crate::mapping::Event5G;
use cn_fit::{Branch, ModelSet, TransitionLike};
use cn_statemachine::two_level::{ConnSub, IdleSub};
use cn_statemachine::TlState;
use cn_trace::EventType;
use serde::{Deserialize, Serialize};

/// 5G deployment mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FiveGMode {
    /// Non-standalone: 5G RAN on the LTE core; keeps LTE's machine/events.
    Nsa,
    /// Standalone: 5G core; Table 2 vocabulary, no TAU (Fig. 6 machine).
    Sa,
}

impl FiveGMode {
    /// Display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FiveGMode::Nsa => "5G NSA",
            FiveGMode::Sa => "5G SA",
        }
    }
}

impl std::fmt::Display for FiveGMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Event-frequency scaling factors for a 5G adaptation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingProfile {
    /// Deployment mode (SA additionally removes TAU).
    pub mode: FiveGMode,
    /// HO frequency multiplier.
    pub ho_factor: f64,
}

impl ScalingProfile {
    /// The paper's NSA profile: HO ×4.6 (from the mmWave measurement study
    /// the paper cites as \[32\]).
    pub const NSA: ScalingProfile = ScalingProfile {
        mode: FiveGMode::Nsa,
        ho_factor: 4.6,
    };

    /// The paper's SA profile: HO ×3.0 (the authors' controlled
    /// walking/driving experiment, §8.2).
    pub const SA: ScalingProfile = ScalingProfile {
        mode: FiveGMode::Sa,
        ho_factor: 3.0,
    };
}

/// Whether a flattened two-level state is TAU-entered (removed under SA).
fn is_tau_state(s: TlState) -> bool {
    matches!(
        s,
        TlState::Connected(ConnSub::TauSConn)
            | TlState::Idle(IdleSub::TauSIdle)
            | TlState::Idle(IdleSub::S1RelS2)
    )
}

/// Scale/transform one branch set according to the profile.
fn adapt_branch<T: TransitionLike<State = S>, S: Copy>(
    b: &Branch<T>,
    profile: &ScalingProfile,
    tau_state: impl Fn(S) -> bool,
) -> Option<Branch<T>> {
    let event = b.transition.trigger();
    if profile.mode == FiveGMode::Sa {
        // SA has no TAU: drop TAU branches and branches touching
        // TAU-entered states (S1_REL_S_2 exists only to serve idle TAUs).
        if event == EventType::Tau
            || tau_state(b.transition.from_state())
            || tau_state(b.transition.to_state())
        {
            return None;
        }
    }
    if event == EventType::Handover {
        Some(Branch {
            transition: b.transition,
            prob: b.prob * profile.ho_factor,
            sojourn: b.sojourn.scale_values(1.0 / profile.ho_factor),
        })
    } else {
        Some(b.clone())
    }
}

/// Adapt a fitted 4G model set into a 5G model set (§6).
///
/// The returned set keeps the 4G event vocabulary (5G renaming is a pure
/// relabeling, [`Event5G::from_4g`]); for SA, `TAU` simply never occurs.
pub fn adapt_model(set: &ModelSet, profile: &ScalingProfile) -> ModelSet {
    let mut out = set.clone();
    for dm in &mut out.devices {
        for hm in &mut dm.hours {
            for c in &mut hm.clusters {
                // Scale the per-visit *arming* probabilities first (they
                // need the original branch mix): a state visit that produced
                // a second-level event with probability `a = 1 − p_exit`
                // does so `k×` as often when its HO-triggered share is
                // boosted by `k` (and not at all via branches SA removes).
                c.bottom_exit = c
                    .bottom_exit
                    .iter()
                    .filter(|(s, _)| profile.mode != FiveGMode::Sa || !is_tau_state(*s))
                    .map(|&(s, p_exit)| {
                        let armed = 1.0 - p_exit;
                        let weight: f64 = c
                            .bottom
                            .outgoing(s)
                            .iter()
                            .map(|b| {
                                let ev = b.transition.trigger();
                                if profile.mode == FiveGMode::Sa
                                    && (ev == EventType::Tau
                                        || is_tau_state(b.transition.to_state()))
                                {
                                    0.0
                                } else if ev == EventType::Handover {
                                    b.prob * profile.ho_factor
                                } else {
                                    b.prob
                                }
                            })
                            .sum();
                        (s, 1.0 - (armed * weight).min(1.0))
                    })
                    .collect();
                c.top = c.top.map_branches(|b| adapt_branch(b, profile, |_| false));
                c.bottom = c
                    .bottom
                    .map_branches(|b| adapt_branch(b, profile, is_tau_state));
                if profile.mode == FiveGMode::Sa {
                    c.tau_interarrival = None;
                    // Remove TAU from first-event mixes and renormalize.
                    let kept: Vec<(EventType, f64)> = c
                        .first_event
                        .events
                        .iter()
                        .filter(|(e, _)| Event5G::from_4g(*e).is_some())
                        .copied()
                        .collect();
                    let total: f64 = kept.iter().map(|(_, p)| p).sum();
                    if total > 0.0 {
                        c.first_event.events =
                            kept.into_iter().map(|(e, p)| (e, p / total)).collect();
                    } else {
                        c.first_event = cn_fit::FirstEventModel::empty();
                    }
                }
                if let Some(d) = &c.ho_interarrival {
                    c.ho_interarrival = Some(d.scale_values(1.0 / profile.ho_factor));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_fit::{fit, FitConfig, Method};
    use cn_statemachine::BottomTransition;
    use cn_trace::{DeviceType, PopulationMix};
    use cn_world::{generate_world, WorldConfig};

    fn fitted() -> ModelSet {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(40, 25, 10), 2.0, 13));
        fit(&trace, &FitConfig::new(Method::Ours))
    }

    #[test]
    fn sa_removes_all_tau() {
        let set = fitted();
        let sa = adapt_model(&set, &ScalingProfile::SA);
        for dm in &sa.devices {
            for hm in &dm.hours {
                for c in &hm.clusters {
                    for t in BottomTransition::ALL {
                        if t.event() == EventType::Tau || is_tau_state(t.from()) {
                            assert_eq!(c.bottom.prob(t), 0.0, "{t} survived SA");
                        }
                    }
                    assert!(c.tau_interarrival.is_none());
                    assert!(c
                        .first_event
                        .events
                        .iter()
                        .all(|(e, _)| *e != EventType::Tau));
                }
            }
        }
    }

    #[test]
    fn nsa_keeps_tau_but_boosts_ho() {
        let set = fitted();
        let nsa = adapt_model(&set, &ScalingProfile::NSA);
        let mut ho_boosted = false;
        let mut tau_survives = false;
        for (dm4, dm5) in set.devices.iter().zip(&nsa.devices) {
            for (h4, h5) in dm4.hours.iter().zip(&dm5.hours) {
                for (c4, c5) in h4.clusters.iter().zip(&h5.clusters) {
                    for t in BottomTransition::ALL {
                        let p4 = c4.bottom.prob(t);
                        let p5 = c5.bottom.prob(t);
                        if t.event() == EventType::Tau && p4 > 0.0 {
                            tau_survives |= p5 > 0.0;
                        }
                        if t.event() == EventType::Handover && p4 > 0.0 && p4 < 1.0 {
                            ho_boosted |= p5 > p4;
                        }
                    }
                }
            }
        }
        assert!(tau_survives, "NSA must keep TAU");
        assert!(ho_boosted, "NSA must upweight HO branches");
    }

    #[test]
    fn ho_sojourns_shrink() {
        let set = fitted();
        let nsa = adapt_model(&set, &ScalingProfile::NSA);
        let mut checked = false;
        for (dm4, dm5) in set.devices.iter().zip(&nsa.devices) {
            for (h4, h5) in dm4.hours.iter().zip(&dm5.hours) {
                for (c4, c5) in h4.clusters.iter().zip(&h5.clusters) {
                    for t in BottomTransition::ALL {
                        if t.event() != EventType::Handover {
                            continue;
                        }
                        if let (Some(d4), Some(d5)) = (c4.bottom.sojourn(t), c5.bottom.sojourn(t)) {
                            assert!(
                                (d5.mean() - d4.mean() / 4.6).abs() / d4.mean() < 1e-9,
                                "{t}: {} vs {}",
                                d5.mean(),
                                d4.mean() / 4.6
                            );
                            checked = true;
                        }
                    }
                }
            }
        }
        assert!(checked, "no HO sojourn laws found");
    }

    #[test]
    fn probabilities_stay_normalized() {
        let set = fitted();
        for profile in [ScalingProfile::NSA, ScalingProfile::SA] {
            let adapted = adapt_model(&set, &profile);
            for dm in &adapted.devices {
                for hm in &dm.hours {
                    for c in &hm.clusters {
                        for state in c.bottom.states() {
                            let total: f64 = c.bottom.outgoing(state).iter().map(|b| b.prob).sum();
                            assert!((total - 1.0).abs() < 1e-9, "{profile:?} {state:?}: {total}");
                        }
                        for state in c.top.states() {
                            let total: f64 = c.top.outgoing(state).iter().map(|b| b.prob).sum();
                            assert!((total - 1.0).abs() < 1e-9);
                        }
                        let fe_total: f64 = c.first_event.events.iter().map(|(_, p)| p).sum();
                        assert!(
                            c.first_event.is_empty() || (fe_total - 1.0).abs() < 1e-9,
                            "first-event probs {fe_total}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sa_generated_traces_obey_fig6() {
        use cn_gen::{generate, GenConfig};
        use cn_statemachine::fiveg::Sa5gState;
        use cn_trace::Timestamp;
        let set = fitted();
        let sa = adapt_model(&set, &ScalingProfile::SA);
        let config = GenConfig::new(
            PopulationMix::new(20, 10, 5),
            Timestamp::at_hour(0, 10),
            2.0,
            17,
        );
        let trace = generate(&sa, &config);
        assert!(!trace.is_empty());
        // No TAU at all, and every per-UE stream walks the Fig. 6 machine.
        for (ue, events) in trace.per_ue().iter() {
            let mut state = match events[0].event {
                EventType::Attach => Sa5gState::Deregistered,
                EventType::S1ConnRelease | EventType::Handover => {
                    Sa5gState::Connected(cn_statemachine::fiveg::ConnSub5g::SrvReqS)
                }
                _ => Sa5gState::Idle,
            };
            for r in events {
                assert_ne!(r.event, EventType::Tau, "{ue}: TAU in SA trace");
                state = state
                    .apply(r.event)
                    .unwrap_or_else(|| panic!("{ue}: {} illegal in {state}", r.event));
            }
        }
        let _ = DeviceType::ALL; // silence unused import lint paths
    }
}
