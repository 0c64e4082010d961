//! The paper's two-level hierarchical state machine (Fig. 5).
//!
//! The top level is the merged EMM–ECM machine (`crate::emm_ecm`). Inside
//! CONNECTED and IDLE, two sub-state machines capture the dependence of the
//! Category-2 events (`HO`, `TAU`):
//!
//! * **CONNECTED sub-machine** — states `SRV_REQ_S`, `HO_S`, `TAU_S_CONN`;
//!   entered at `SRV_REQ_S` (after `SRV_REQ` or `ATCH`). `HO` moves to
//!   `HO_S` (self-looping), `TAU` moves to `TAU_S_CONN` (self-looping).
//! * **IDLE sub-machine** — states `S1_REL_S_1`, `TAU_S_IDLE`,
//!   `S1_REL_S_2`; entered at `S1_REL_S_1` (after the releasing
//!   `S1_CONN_REL`). A `TAU` in idle moves to `TAU_S_IDLE`, after which an
//!   `S1_CONN_REL` *always* follows (releasing the TAU's signaling
//!   resources) moving to `S1_REL_S_2`, from which further `TAU`s may
//!   repeat. Per Fig. 5's starred edge, `SRV_REQ` may leave IDLE only from
//!   `S1_REL_S_1` or `S1_REL_S_2` — never from `TAU_S_IDLE`.
//!
//! The flattened [`TlState`] drives replay; the nine [`BottomTransition`]s
//! are exactly the second-level transitions of the paper's Table 10.

use crate::emm_ecm::TopState;
use cn_trace::EventType;
use serde::{Deserialize, Serialize};

/// Sub-state within ECM-CONNECTED.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ConnSub {
    /// `SRV_REQ_S` — entered after `SRV_REQ` (or `ATCH`).
    SrvReqS,
    /// `HO_S` — entered after a `HO`.
    HoS,
    /// `TAU_S_CONN` — entered after a `TAU` while connected.
    TauSConn,
}

/// Sub-state within ECM-IDLE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IdleSub {
    /// `S1_REL_S_1` — entered by the CONNECTED → IDLE release.
    S1RelS1,
    /// `TAU_S_IDLE` — entered after a `TAU` while idle.
    TauSIdle,
    /// `S1_REL_S_2` — entered by the `S1_CONN_REL` that releases the idle
    /// TAU's signaling resources.
    S1RelS2,
}

/// Flattened state of the two-level machine: the top-level state plus,
/// where applicable, the second-level sub-state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TlState {
    /// `EMM_DEREGISTERED` (no sub-machine).
    Deregistered,
    /// `ECM_CONNECTED` with its sub-state.
    Connected(ConnSub),
    /// `ECM_IDLE` with its sub-state.
    Idle(IdleSub),
}

impl TlState {
    /// All seven flattened states.
    #[cfg(test)]
    pub(crate) const ALL: [TlState; 7] = [
        TlState::Deregistered,
        TlState::Connected(ConnSub::SrvReqS),
        TlState::Connected(ConnSub::HoS),
        TlState::Connected(ConnSub::TauSConn),
        TlState::Idle(IdleSub::S1RelS1),
        TlState::Idle(IdleSub::TauSIdle),
        TlState::Idle(IdleSub::S1RelS2),
    ];

    /// Project to the top-level EMM–ECM state.
    pub fn top(self) -> TopState {
        match self {
            TlState::Deregistered => TopState::Deregistered,
            TlState::Connected(_) => TopState::Connected,
            TlState::Idle(_) => TopState::Idle,
        }
    }

    /// Paper label of the flattened state.
    pub fn label(self) -> &'static str {
        match self {
            TlState::Deregistered => "EMM_DEREGISTERED",
            TlState::Connected(ConnSub::SrvReqS) => "SRV_REQ_S",
            TlState::Connected(ConnSub::HoS) => "HO_S",
            TlState::Connected(ConnSub::TauSConn) => "TAU_S_CONN",
            TlState::Idle(IdleSub::S1RelS1) => "S1_REL_S_1",
            TlState::Idle(IdleSub::TauSIdle) => "TAU_S_IDLE",
            TlState::Idle(IdleSub::S1RelS2) => "S1_REL_S_2",
        }
    }

    /// Apply an event to the two-level machine. Returns the next flattened
    /// state, or `None` if the event is illegal here.
    pub fn apply(self, event: EventType) -> Option<TlState> {
        use ConnSub::*;
        use EventType::*;
        use IdleSub::*;
        use TlState::*;
        match (self, event) {
            // Top-level transitions.
            (Deregistered, Attach) => Some(Connected(SrvReqS)),
            (Connected(_), Detach) => Some(Deregistered),
            (Connected(_), S1ConnRelease) => Some(Idle(S1RelS1)),
            (Idle(_), Detach) => Some(Deregistered),
            // SRV_REQ may leave IDLE only from the S1_REL states (Fig. 5, *).
            (Idle(S1RelS1), ServiceRequest) | (Idle(S1RelS2), ServiceRequest) => {
                Some(Connected(SrvReqS))
            }
            (Idle(TauSIdle), ServiceRequest) => None,
            // CONNECTED sub-machine.
            (Connected(_), Handover) => Some(Connected(HoS)),
            (Connected(_), Tau) => Some(Connected(TauSConn)),
            // IDLE sub-machine.
            (Idle(S1RelS1), Tau) | (Idle(S1RelS2), Tau) => Some(Idle(TauSIdle)),
            (Idle(TauSIdle), S1ConnRelease) => Some(Idle(S1RelS2)),
            (Idle(TauSIdle), Tau) => None, // a release must intervene
            (Idle(S1RelS1), S1ConnRelease) | (Idle(S1RelS2), S1ConnRelease) => None,
            (Idle(_), Handover) => None,
            (Deregistered, _) => None,
            (Connected(_), Attach) | (Connected(_), ServiceRequest) => None,
            (Idle(_), Attach) => None,
        }
    }

    /// The state a UE is inferred to be in *before* its first observed
    /// event, chosen so that the event is legal there: an attach finds the
    /// UE deregistered, a release or handover needs CONNECTED, and a
    /// detach, service request or TAU most plausibly finds it idle.
    pub fn before(first: EventType) -> TlState {
        match first {
            EventType::Attach => TlState::Deregistered,
            EventType::S1ConnRelease | EventType::Handover => TlState::Connected(ConnSub::SrvReqS),
            EventType::Detach | EventType::ServiceRequest | EventType::Tau => {
                TlState::Idle(IdleSub::S1RelS1)
            }
        }
    }

    /// The lenient step every consumer of an event stream takes: apply
    /// `event`, or, when it is illegal here, resynchronize to the state the
    /// event itself leads to (NAS-style recovery, so one bad event does not
    /// cascade). Ambiguous events resolve to the paper's sub-state semantics
    /// ("each state corresponds to the event that happens right before
    /// entering it"). Returns the next state and whether `event` was legal.
    pub fn step(self, event: EventType) -> (TlState, bool) {
        use TlState::*;
        if let Some(next) = self.apply(event) {
            return (next, true);
        }
        let forced = match event {
            EventType::Attach | EventType::ServiceRequest => Connected(ConnSub::SrvReqS),
            EventType::Detach => Deregistered,
            EventType::S1ConnRelease => Idle(IdleSub::S1RelS1),
            EventType::Handover => Connected(ConnSub::HoS),
            EventType::Tau if matches!(self, Connected(_)) => Connected(ConnSub::TauSConn),
            EventType::Tau => Idle(IdleSub::TauSIdle),
        };
        (forced, false)
    }
}

impl std::fmt::Display for TlState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One of the nine second-level transitions (the rows of the paper's
/// Table 10, labeled `outbound-state − trigger-event`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BottomTransition {
    /// `SRV_REQ_S` —`HO`→ `HO_S`.
    SrvReqToHo,
    /// `HO_S` —`HO`→ `HO_S` (self-loop).
    HoToHo,
    /// `TAU_S_CONN` —`HO`→ `HO_S`.
    TauConnToHo,
    /// `SRV_REQ_S` —`TAU`→ `TAU_S_CONN`.
    SrvReqToTauConn,
    /// `TAU_S_CONN` —`TAU`→ `TAU_S_CONN` (self-loop).
    TauConnToTauConn,
    /// `HO_S` —`TAU`→ `TAU_S_CONN`.
    HoToTauConn,
    /// `S1_REL_S_1` —`TAU`→ `TAU_S_IDLE`.
    S1Rel1ToTauIdle,
    /// `S1_REL_S_2` —`TAU`→ `TAU_S_IDLE`.
    S1Rel2ToTauIdle,
    /// `TAU_S_IDLE` —`S1_CONN_REL`→ `S1_REL_S_2`.
    TauIdleToS1Rel2,
}

impl BottomTransition {
    /// All nine second-level transitions, in Table 10 column order.
    pub const ALL: [BottomTransition; 9] = [
        BottomTransition::SrvReqToHo,
        BottomTransition::HoToHo,
        BottomTransition::TauConnToHo,
        BottomTransition::SrvReqToTauConn,
        BottomTransition::TauConnToTauConn,
        BottomTransition::HoToTauConn,
        BottomTransition::S1Rel1ToTauIdle,
        BottomTransition::S1Rel2ToTauIdle,
        BottomTransition::TauIdleToS1Rel2,
    ];

    /// Source flattened state.
    pub fn from(self) -> TlState {
        use BottomTransition::*;
        match self {
            SrvReqToHo | SrvReqToTauConn => TlState::Connected(ConnSub::SrvReqS),
            HoToHo | HoToTauConn => TlState::Connected(ConnSub::HoS),
            TauConnToHo | TauConnToTauConn => TlState::Connected(ConnSub::TauSConn),
            S1Rel1ToTauIdle => TlState::Idle(IdleSub::S1RelS1),
            S1Rel2ToTauIdle => TlState::Idle(IdleSub::S1RelS2),
            TauIdleToS1Rel2 => TlState::Idle(IdleSub::TauSIdle),
        }
    }

    /// Destination flattened state.
    pub fn to(self) -> TlState {
        use BottomTransition::*;
        match self {
            SrvReqToHo | HoToHo | TauConnToHo => TlState::Connected(ConnSub::HoS),
            SrvReqToTauConn | TauConnToTauConn | HoToTauConn => {
                TlState::Connected(ConnSub::TauSConn)
            }
            S1Rel1ToTauIdle | S1Rel2ToTauIdle => TlState::Idle(IdleSub::TauSIdle),
            TauIdleToS1Rel2 => TlState::Idle(IdleSub::S1RelS2),
        }
    }

    /// The triggering event.
    pub fn event(self) -> EventType {
        use BottomTransition::*;
        match self {
            SrvReqToHo | HoToHo | TauConnToHo => EventType::Handover,
            SrvReqToTauConn | TauConnToTauConn | HoToTauConn | S1Rel1ToTauIdle
            | S1Rel2ToTauIdle => EventType::Tau,
            TauIdleToS1Rel2 => EventType::S1ConnRelease,
        }
    }

    /// Look up the transition for a `(state, event)` pair, if it is a legal
    /// second-level move.
    pub(crate) fn lookup(from: TlState, event: EventType) -> Option<BottomTransition> {
        BottomTransition::ALL
            .into_iter()
            .find(|t| t.from() == from && t.event() == event)
    }

    /// Table 10 column label, e.g. `SRV_REQ_S-HO`.
    pub fn label(self) -> &'static str {
        use BottomTransition::*;
        match self {
            SrvReqToHo => "SRV_REQ_S-HO",
            HoToHo => "HO_S-HO",
            TauConnToHo => "TAU_S_C-HO",
            SrvReqToTauConn => "SRV_REQ_S-TAU",
            TauConnToTauConn => "TAU_S_C-TAU",
            HoToTauConn => "HO_S-TAU",
            S1Rel1ToTauIdle => "S1_REL_1-TAU",
            S1Rel2ToTauIdle => "S1_REL_2-TAU",
            TauIdleToS1Rel2 => "TAU_S_I-S1_REL",
        }
    }
}

impl std::fmt::Display for BottomTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_nine_bottom_transitions_and_they_apply() {
        assert_eq!(BottomTransition::ALL.len(), 9);
        for t in BottomTransition::ALL {
            assert_eq!(t.from().apply(t.event()), Some(t.to()), "{t}");
            assert_eq!(BottomTransition::lookup(t.from(), t.event()), Some(t));
        }
    }

    #[test]
    fn attach_enters_srv_req_s() {
        assert_eq!(
            TlState::Deregistered.apply(EventType::Attach),
            Some(TlState::Connected(ConnSub::SrvReqS))
        );
    }

    #[test]
    fn srv_req_only_from_s1_rel_states() {
        // Fig. 5 starred edge.
        assert!(TlState::Idle(IdleSub::S1RelS1)
            .apply(EventType::ServiceRequest)
            .is_some());
        assert!(TlState::Idle(IdleSub::S1RelS2)
            .apply(EventType::ServiceRequest)
            .is_some());
        assert!(TlState::Idle(IdleSub::TauSIdle)
            .apply(EventType::ServiceRequest)
            .is_none());
    }

    #[test]
    fn s1_conn_rel_from_any_connected_substate() {
        for sub in [ConnSub::SrvReqS, ConnSub::HoS, ConnSub::TauSConn] {
            assert_eq!(
                TlState::Connected(sub).apply(EventType::S1ConnRelease),
                Some(TlState::Idle(IdleSub::S1RelS1)),
            );
        }
    }

    #[test]
    fn idle_tau_release_alternation() {
        // S1_REL_S_1 -TAU-> TAU_S_IDLE -S1_REL-> S1_REL_S_2 -TAU-> TAU_S_IDLE.
        let s = TlState::Idle(IdleSub::S1RelS1);
        let s = s.apply(EventType::Tau).unwrap();
        assert_eq!(s, TlState::Idle(IdleSub::TauSIdle));
        assert!(s.apply(EventType::Tau).is_none(), "TAU-TAU without release");
        let s = s.apply(EventType::S1ConnRelease).unwrap();
        assert_eq!(s, TlState::Idle(IdleSub::S1RelS2));
        let s = s.apply(EventType::Tau).unwrap();
        assert_eq!(s, TlState::Idle(IdleSub::TauSIdle));
    }

    #[test]
    fn no_handover_in_idle() {
        for sub in [IdleSub::S1RelS1, IdleSub::TauSIdle, IdleSub::S1RelS2] {
            assert!(TlState::Idle(sub).apply(EventType::Handover).is_none());
        }
    }

    #[test]
    fn connected_ho_tau_interleavings() {
        let s = TlState::Connected(ConnSub::SrvReqS);
        let s = s.apply(EventType::Handover).unwrap();
        assert_eq!(s, TlState::Connected(ConnSub::HoS));
        let s = s.apply(EventType::Handover).unwrap();
        assert_eq!(s, TlState::Connected(ConnSub::HoS));
        let s = s.apply(EventType::Tau).unwrap();
        assert_eq!(s, TlState::Connected(ConnSub::TauSConn));
        let s = s.apply(EventType::Tau).unwrap();
        assert_eq!(s, TlState::Connected(ConnSub::TauSConn));
        let s = s.apply(EventType::Handover).unwrap();
        assert_eq!(s, TlState::Connected(ConnSub::HoS));
    }

    #[test]
    fn top_projection_consistent_with_apply() {
        // Whenever the flattened machine makes a move, the projected top
        // state must agree with the merged EMM–ECM machine — except for the
        // idle TAU-release, which is a *second-level* S1_CONN_REL invisible
        // to the top machine (the two levels run concurrently, §5.1).
        for s in TlState::ALL {
            for e in EventType::ALL {
                if s == TlState::Idle(IdleSub::TauSIdle) && e == EventType::S1ConnRelease {
                    continue;
                }
                if let Some(next) = s.apply(e) {
                    let top_next = s.top().apply(e);
                    assert_eq!(top_next, Some(next.top()), "{s} --{e}--> {next}");
                }
            }
        }
    }

    #[test]
    fn deregistered_only_accepts_attach() {
        for e in EventType::ALL {
            let expect = e == EventType::Attach;
            assert_eq!(TlState::Deregistered.apply(e).is_some(), expect, "{e}");
        }
    }

    #[test]
    fn before_makes_the_first_event_legal() {
        assert_eq!(TlState::before(EventType::Attach), TlState::Deregistered);
        assert_eq!(
            TlState::before(EventType::Handover),
            TlState::Connected(ConnSub::SrvReqS)
        );
        assert_eq!(
            TlState::before(EventType::ServiceRequest),
            TlState::Idle(IdleSub::S1RelS1)
        );
        for e in EventType::ALL {
            assert!(TlState::before(e).step(e).1, "{e}");
        }
    }

    #[test]
    fn step_resyncs_into_a_reachable_state() {
        for s in TlState::ALL {
            for e in EventType::ALL {
                let (next, legal) = s.step(e);
                assert_eq!(legal, s.apply(e).is_some(), "{s} --{e}");
                // Legal or forced, the landing state is one some state
                // reaches by `e`.
                let reachable = TlState::ALL.into_iter().any(|p| p.apply(e) == Some(next));
                assert!(reachable, "{s} --{e}--> {next}");
            }
        }
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<&str> = TlState::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 7);
    }
}
