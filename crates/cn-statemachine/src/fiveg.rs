//! The adjusted two-level state machine for 5G SA (Fig. 6).
//!
//! 5G SA has a one-to-one mapping of every primary event type and UE state
//! with LTE *except* TAU, which has no 5G counterpart (Table 2). Removing
//! the TAU states and transitions from Fig. 5 yields this machine:
//! RM-DEREGISTERED, CM-CONNECTED (sub-states `SRV_REQ_S`, `HO_S`) and
//! CM-IDLE (no sub-structure left once the TAU chain is gone).
//!
//! The machine operates on the LTE [`EventType`] vocabulary — the 4G↔5G
//! *renaming* (ATCH→REGISTER, S1_CONN_REL→AN_REL, …) is applied by
//! `cn_fit::fiveg::TABLE2` at output time; `TAU` is simply illegal here.
//!
//! 5G NSA runs on LTE's core, shares LTE's event types, and therefore uses
//! the unmodified two-level machine of [`crate::two_level`] (§6, footnote).

use cn_trace::EventType;
use serde::{Deserialize, Serialize};

/// Sub-state within CM-CONNECTED for 5G SA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ConnSub5g {
    /// `SRV_REQ_S` — entered after `SRV_REQ` (or `REGISTER`).
    SrvReqS,
    /// `HO_S` — entered after a `HO`.
    HoS,
}

/// Flattened state of the 5G SA machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Sa5gState {
    /// `RM-DEREGISTERED`.
    Deregistered,
    /// `CM-CONNECTED` with its sub-state.
    Connected(ConnSub5g),
    /// `CM-IDLE` (no sub-states in 5G SA).
    Idle,
}

impl Sa5gState {
    /// All four flattened states.
    pub(crate) const ALL: [Sa5gState; 4] = [
        Sa5gState::Deregistered,
        Sa5gState::Connected(ConnSub5g::SrvReqS),
        Sa5gState::Connected(ConnSub5g::HoS),
        Sa5gState::Idle,
    ];

    /// Apply an event (LTE vocabulary; `Tau` is always illegal).
    pub fn apply(self, event: EventType) -> Option<Sa5gState> {
        use EventType::*;
        use Sa5gState::*;
        match (self, event) {
            (Deregistered, Attach) => Some(Connected(ConnSub5g::SrvReqS)),
            (Connected(_), Detach) => Some(Deregistered),
            (Connected(_), S1ConnRelease) => Some(Idle),
            (Connected(_), Handover) => Some(Connected(ConnSub5g::HoS)),
            (Idle, ServiceRequest) => Some(Connected(ConnSub5g::SrvReqS)),
            (Idle, Detach) => Some(Deregistered),
            (_, Tau) => None,
            _ => None,
        }
    }

    /// The state a UE occupies right after the given event, independent of
    /// the predecessor state — the SA analogue of the resync in
    /// [`crate::TlState::step`], used to infer an initial state when
    /// a trace starts mid-stream (a UE's first event of the window need not
    /// be a registration). `None` for `Tau`, which has no SA counterpart.
    pub fn after_event(event: EventType) -> Option<Sa5gState> {
        match event {
            EventType::Attach | EventType::ServiceRequest => {
                Some(Sa5gState::Connected(ConnSub5g::SrvReqS))
            }
            EventType::Handover => Some(Sa5gState::Connected(ConnSub5g::HoS)),
            EventType::S1ConnRelease => Some(Sa5gState::Idle),
            EventType::Detach => Some(Sa5gState::Deregistered),
            EventType::Tau => None,
        }
    }

    /// 5G label of the state (Table 2 vocabulary).
    pub(crate) fn label(self) -> &'static str {
        match self {
            Sa5gState::Deregistered => "RM-DEREGISTERED",
            Sa5gState::Connected(ConnSub5g::SrvReqS) => "SRV_REQ_S",
            Sa5gState::Connected(ConnSub5g::HoS) => "HO_S",
            Sa5gState::Idle => "CM-IDLE",
        }
    }
}

impl std::fmt::Display for Sa5gState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_is_never_legal() {
        for s in Sa5gState::ALL {
            assert!(s.apply(EventType::Tau).is_none(), "{s}");
        }
    }

    #[test]
    fn register_release_cycle() {
        let s = Sa5gState::Deregistered.apply(EventType::Attach).unwrap();
        assert_eq!(s, Sa5gState::Connected(ConnSub5g::SrvReqS));
        let s = s.apply(EventType::Handover).unwrap();
        assert_eq!(s, Sa5gState::Connected(ConnSub5g::HoS));
        let s = s.apply(EventType::Handover).unwrap();
        assert_eq!(s, Sa5gState::Connected(ConnSub5g::HoS));
        let s = s.apply(EventType::S1ConnRelease).unwrap();
        assert_eq!(s, Sa5gState::Idle);
        let s = s.apply(EventType::ServiceRequest).unwrap();
        assert_eq!(s, Sa5gState::Connected(ConnSub5g::SrvReqS));
        let s = s.apply(EventType::Detach).unwrap();
        assert_eq!(s, Sa5gState::Deregistered);
    }

    #[test]
    fn idle_has_no_substructure() {
        assert!(Sa5gState::Idle.apply(EventType::S1ConnRelease).is_none());
        assert!(Sa5gState::Idle.apply(EventType::Handover).is_none());
    }

    #[test]
    fn mirrors_two_level_machine_minus_tau() {
        // Every legal 5G SA move must also be legal in the LTE two-level
        // machine (after mapping CM-IDLE to IDLE/S1_REL_S_1).
        use crate::two_level::{ConnSub, IdleSub, TlState};
        let map = |s: Sa5gState| match s {
            Sa5gState::Deregistered => TlState::Deregistered,
            Sa5gState::Connected(ConnSub5g::SrvReqS) => TlState::Connected(ConnSub::SrvReqS),
            Sa5gState::Connected(ConnSub5g::HoS) => TlState::Connected(ConnSub::HoS),
            Sa5gState::Idle => TlState::Idle(IdleSub::S1RelS1),
        };
        for s in Sa5gState::ALL {
            for e in EventType::ALL {
                if let Some(next) = s.apply(e) {
                    let lte_next = map(s).apply(e);
                    assert_eq!(lte_next, Some(map(next)), "{s} --{e}--> {next}");
                }
            }
        }
    }
}
