//! The Semi-Markov model over a state machine (§5.2).
//!
//! Given a state machine's legal transitions, the Semi-Markov model attaches
//! to each transition `x → y` a probability `p_xy` (estimated from
//! transition counts) and a sojourn law `F_xy(t)` (the time spent in `x`
//! before taking the transition — estimated as an empirical CDF or an
//! MLE-fitted parametric model). Unlike a Markov chain it makes *no*
//! exponential assumption about sojourn times, which §4 shows is essential
//! for control-plane traffic.

use cn_stats::dist::Dist;
use cn_stats::ecdf::Ecdf;
use cn_stats::Exponential;
use cn_trace::EventType;
use rand::Rng;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;

use crate::method::DistributionKind;

/// A transition of some state machine: source/destination states and the
/// triggering event. Implemented by `TopTransition` and `BottomTransition`.
pub trait TransitionLike:
    Copy + Eq + Hash + Ord + std::fmt::Debug + Serialize + DeserializeOwned
{
    /// The machine's state type.
    type State: Copy + Eq + Hash + Ord + std::fmt::Debug + Serialize + DeserializeOwned;

    /// Source state.
    #[allow(clippy::wrong_self_convention)]
    fn from_state(self) -> Self::State;
    /// Destination state.
    fn to_state(self) -> Self::State;
    /// Triggering event.
    fn trigger(self) -> EventType;
    /// All legal transitions of the machine.
    fn all() -> &'static [Self];
}

impl TransitionLike for cn_statemachine::TopTransition {
    type State = cn_statemachine::TopState;

    fn from_state(self) -> Self::State {
        self.from()
    }
    fn to_state(self) -> Self::State {
        self.to()
    }
    fn trigger(self) -> EventType {
        self.event()
    }
    fn all() -> &'static [Self] {
        &cn_statemachine::TopTransition::ALL
    }
}

impl TransitionLike for cn_statemachine::BottomTransition {
    type State = cn_statemachine::TlState;

    fn from_state(self) -> Self::State {
        self.from()
    }
    fn to_state(self) -> Self::State {
        self.to()
    }
    fn trigger(self) -> EventType {
        self.event()
    }
    fn all() -> &'static [Self] {
        &cn_statemachine::BottomTransition::ALL
    }
}

/// One outgoing branch of a state in the Semi-Markov model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(bound(serialize = "T: Serialize", deserialize = "T: DeserializeOwned"))]
pub struct Branch<T> {
    /// The transition this branch takes.
    pub transition: T,
    /// Probability of taking this branch when leaving the state.
    pub prob: f64,
    /// Sojourn-time law (seconds spent in the source state).
    pub sojourn: Dist,
}

/// A fitted Semi-Markov model over transition type `T`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(bound = "")]
pub struct SemiMarkovModel<T: TransitionLike> {
    /// Outgoing branches per source state, probabilities summing to 1 for
    /// each state that has any.
    branches: Vec<(T::State, Vec<Branch<T>>)>,
}

impl<T: TransitionLike> Default for SemiMarkovModel<T> {
    fn default() -> Self {
        SemiMarkovModel {
            branches: Vec::new(),
        }
    }
}

impl<T: TransitionLike> SemiMarkovModel<T> {
    /// Estimate the model from per-transition sojourn samples (seconds).
    ///
    /// `p_xy` is the fraction of observed departures from `x` that took
    /// transition `x → y`; the sojourn law is fitted per `kind`. Transitions
    /// with no samples are omitted; samples that cannot be fitted (e.g. all
    /// zero for Poisson) fall back to the empirical CDF.
    pub fn fit(samples: &HashMap<T, Vec<f64>>, kind: DistributionKind) -> SemiMarkovModel<T> {
        let mut by_state: HashMap<T::State, Vec<(T, &Vec<f64>)>> = HashMap::new();
        for (&t, s) in samples {
            if !s.is_empty() {
                by_state.entry(t.from_state()).or_default().push((t, s));
            }
        }
        let mut branches: Vec<(T::State, Vec<Branch<T>>)> = Vec::new();
        for (state, mut outs) in by_state {
            outs.sort_by_key(|(t, _)| *t);
            let total: usize = outs.iter().map(|(_, s)| s.len()).sum();
            let bs: Vec<Branch<T>> = outs
                .into_iter()
                .map(|(t, s)| Branch {
                    transition: t,
                    prob: s.len() as f64 / total as f64,
                    sojourn: fit_sojourn(s, kind),
                })
                .collect();
            branches.push((state, bs));
        }
        branches.sort_by_key(|(s, _)| *s);
        SemiMarkovModel { branches }
    }

    /// Outgoing branches of a state (empty slice when unobserved).
    pub fn outgoing(&self, state: T::State) -> &[Branch<T>] {
        self.branches
            .binary_search_by_key(&state, |(s, _)| *s)
            .map(|i| self.branches[i].1.as_slice())
            .unwrap_or(&[])
    }

    /// All states that have at least one outgoing branch.
    pub fn states(&self) -> impl Iterator<Item = T::State> + '_ {
        self.branches.iter().map(|(s, _)| *s)
    }

    /// True if the model has no branches at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// Sample the next transition and sojourn time (seconds) from `state`.
    /// Returns `None` when the state has no observed departures.
    pub fn sample_next<R: Rng + ?Sized>(&self, state: T::State, rng: &mut R) -> Option<(T, f64)> {
        let outs = self.outgoing(state);
        if outs.is_empty() {
            return None;
        }
        let mut pick = rng.gen::<f64>();
        for b in outs {
            pick -= b.prob;
            if pick <= 0.0 {
                return Some((b.transition, b.sojourn.sample(rng).max(0.0)));
            }
        }
        let b = outs.last().expect("non-empty");
        Some((b.transition, b.sojourn.sample(rng).max(0.0)))
    }

    /// Rebuild the model by transforming every branch: `f` returns the
    /// branch to keep (its `prob` is treated as an unnormalized weight) or
    /// `None` to drop it. Probabilities are renormalized per source state
    /// and states left with no branches are removed.
    ///
    /// This is the primitive behind the 5G adaptation (§6): dropping TAU
    /// branches (SA) and reweighting/rescaling HO branches.
    pub fn map_branches<F>(&self, mut f: F) -> SemiMarkovModel<T>
    where
        F: FnMut(&Branch<T>) -> Option<Branch<T>>,
    {
        let mut branches: Vec<(T::State, Vec<Branch<T>>)> = Vec::new();
        for (state, bs) in &self.branches {
            let mut kept: Vec<Branch<T>> = bs.iter().filter_map(&mut f).collect();
            let total: f64 = kept.iter().map(|b| b.prob).sum();
            if kept.is_empty() || total <= 0.0 {
                continue;
            }
            for b in &mut kept {
                b.prob /= total;
            }
            branches.push((*state, kept));
        }
        SemiMarkovModel { branches }
    }

    /// The fitted probability of transition `t` (0 when unobserved).
    pub fn prob(&self, t: T) -> f64 {
        self.outgoing(t.from_state())
            .iter()
            .find(|b| b.transition == t)
            .map_or(0.0, |b| b.prob)
    }

    /// The fitted sojourn law of transition `t`, if observed.
    pub fn sojourn(&self, t: T) -> Option<&Dist> {
        self.outgoing(t.from_state())
            .iter()
            .find(|b| b.transition == t)
            .map(|b| &b.sojourn)
    }
}

/// Fit a sojourn law per the method's distribution kind, falling back to the
/// empirical CDF when the parametric fit is degenerate.
pub(crate) fn fit_sojourn(samples: &[f64], kind: DistributionKind) -> Dist {
    match kind {
        DistributionKind::Poisson => Exponential::fit(samples)
            .map(Dist::Exponential)
            .unwrap_or_else(|_| empirical(samples)),
        DistributionKind::EmpiricalCdf => empirical(samples),
    }
}

fn empirical(samples: &[f64]) -> Dist {
    let clean: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    Dist::Empirical(Ecdf::new(if clean.is_empty() { vec![0.0] } else { clean }).expect("non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_statemachine::TopTransition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_map(entries: &[(TopTransition, &[f64])]) -> HashMap<TopTransition, Vec<f64>> {
        entries.iter().map(|(t, s)| (*t, s.to_vec())).collect()
    }

    #[test]
    fn probabilities_from_counts() {
        let samples = sample_map(&[
            (TopTransition::ConnToIdle, &[1.0, 2.0, 3.0]),
            (TopTransition::ConnToDereg, &[10.0]),
        ]);
        let m = SemiMarkovModel::fit(&samples, DistributionKind::EmpiricalCdf);
        assert!((m.prob(TopTransition::ConnToIdle) - 0.75).abs() < 1e-12);
        assert!((m.prob(TopTransition::ConnToDereg) - 0.25).abs() < 1e-12);
        assert_eq!(m.prob(TopTransition::IdleToConn), 0.0);
    }

    #[test]
    fn single_outbound_edge_has_prob_one() {
        let samples = sample_map(&[(TopTransition::DeregToConn, &[5.0, 6.0])]);
        let m = SemiMarkovModel::fit(&samples, DistributionKind::EmpiricalCdf);
        assert_eq!(m.prob(TopTransition::DeregToConn), 1.0);
    }

    #[test]
    fn empty_states_sample_none() {
        let m: SemiMarkovModel<TopTransition> =
            SemiMarkovModel::fit(&HashMap::new(), DistributionKind::Poisson);
        assert!(m.is_empty());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(m
            .sample_next(cn_statemachine::TopState::Idle, &mut rng)
            .is_none());
    }

    #[test]
    fn sampling_respects_probabilities() {
        let samples = sample_map(&[
            (TopTransition::IdleToConn, &[1.0; 90]),
            (TopTransition::IdleToDereg, &[1.0; 10]),
        ]);
        let m = SemiMarkovModel::fit(&samples, DistributionKind::EmpiricalCdf);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let conn = (0..n)
            .filter(|_| {
                let (t, _) = m
                    .sample_next(cn_statemachine::TopState::Idle, &mut rng)
                    .unwrap();
                t == TopTransition::IdleToConn
            })
            .count();
        let frac = conn as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "{frac}");
    }

    #[test]
    fn poisson_kind_fits_exponential() {
        let samples = sample_map(&[(TopTransition::ConnToIdle, &[2.0, 4.0, 6.0])]);
        let m = SemiMarkovModel::fit(&samples, DistributionKind::Poisson);
        match m.sojourn(TopTransition::ConnToIdle).unwrap() {
            Dist::Exponential(e) => assert!((e.mean() - 4.0).abs() < 1e-12),
            other => panic!("expected exponential, got {}", other.family()),
        }
    }

    #[test]
    fn degenerate_poisson_falls_back_to_ecdf() {
        let samples = sample_map(&[(TopTransition::ConnToIdle, &[0.0, 0.0])]);
        let m = SemiMarkovModel::fit(&samples, DistributionKind::Poisson);
        assert!(matches!(
            m.sojourn(TopTransition::ConnToIdle).unwrap(),
            Dist::Empirical(_)
        ));
    }

    #[test]
    fn serde_round_trip() {
        let samples = sample_map(&[(TopTransition::ConnToIdle, &[1.5, 2.5])]);
        let m = SemiMarkovModel::fit(&samples, DistributionKind::EmpiricalCdf);
        let json = serde_json::to_string(&m).unwrap();
        let back: SemiMarkovModel<TopTransition> = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn bottom_transitions_implement_transition_like() {
        use cn_statemachine::BottomTransition;
        for &t in BottomTransition::all() {
            assert!(t.from_state().apply(t.trigger()).is_some());
        }
    }
}
