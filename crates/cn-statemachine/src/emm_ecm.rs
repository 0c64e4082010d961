//! The merged top-level EMM–ECM state machine (§5.1, top level of Fig. 5).
//!
//! Because a UE that transitions DEREGISTERED → REGISTERED always enters
//! CONNECTED at the same time (3GPP attach procedure), the EMM and ECM
//! machines merge into a single three-state machine:
//! DEREGISTERED, CONNECTED, IDLE. This is both the top level of the paper's
//! two-level machine and the *entire* machine of the Base/B1 comparison
//! methods (Table 3).

use cn_trace::EventType;
use serde::{Deserialize, Serialize};

/// State of the merged EMM–ECM machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TopState {
    /// `EMM_DEREGISTERED`.
    Deregistered,
    /// `EMM_REGISTERED` + `ECM_CONNECTED`.
    Connected,
    /// `EMM_REGISTERED` + `ECM_IDLE`.
    Idle,
}

impl TopState {
    /// Paper label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            TopState::Deregistered => "DEREGISTERED",
            TopState::Connected => "CONNECTED",
            TopState::Idle => "IDLE",
        }
    }

    /// Apply a **Category-1** event to the merged machine. Returns the next
    /// state, or `None` if illegal. Category-2 events (HO/TAU) do not drive
    /// this machine; passing them returns the current state if they are
    /// legal *in* it (HO needs CONNECTED, TAU needs REGISTERED) and `None`
    /// otherwise.
    pub fn apply(self, event: EventType) -> Option<TopState> {
        use EventType::*;
        use TopState::*;
        match (self, event) {
            (Deregistered, Attach) => Some(Connected),
            (Connected, S1ConnRelease) => Some(Idle),
            (Connected, Detach) => Some(Deregistered),
            (Idle, ServiceRequest) => Some(Connected),
            (Idle, Detach) => Some(Deregistered),
            (Connected, Handover) => Some(Connected),
            (Connected, Tau) => Some(Connected),
            (Idle, Tau) => Some(Idle),
            _ => None,
        }
    }
}

impl std::fmt::Display for TopState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A legal transition of the merged top-level machine.
///
/// These five transitions are the edges of the top level of Fig. 5; the
/// Semi-Markov model attaches a probability and a sojourn-time CDF to each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TopTransition {
    /// DEREGISTERED → CONNECTED on `ATCH`.
    DeregToConn,
    /// CONNECTED → IDLE on `S1_CONN_REL`.
    ConnToIdle,
    /// CONNECTED → DEREGISTERED on `DTCH`.
    ConnToDereg,
    /// IDLE → CONNECTED on `SRV_REQ`.
    IdleToConn,
    /// IDLE → DEREGISTERED on `DTCH`.
    IdleToDereg,
}

impl TopTransition {
    /// All five legal top-level transitions.
    pub const ALL: [TopTransition; 5] = [
        TopTransition::DeregToConn,
        TopTransition::ConnToIdle,
        TopTransition::ConnToDereg,
        TopTransition::IdleToConn,
        TopTransition::IdleToDereg,
    ];

    /// Source state.
    pub fn from(self) -> TopState {
        match self {
            TopTransition::DeregToConn => TopState::Deregistered,
            TopTransition::ConnToIdle | TopTransition::ConnToDereg => TopState::Connected,
            TopTransition::IdleToConn | TopTransition::IdleToDereg => TopState::Idle,
        }
    }

    /// Destination state.
    pub fn to(self) -> TopState {
        match self {
            TopTransition::DeregToConn | TopTransition::IdleToConn => TopState::Connected,
            TopTransition::ConnToIdle => TopState::Idle,
            TopTransition::ConnToDereg | TopTransition::IdleToDereg => TopState::Deregistered,
        }
    }

    /// The event that triggers the transition.
    pub fn event(self) -> EventType {
        match self {
            TopTransition::DeregToConn => EventType::Attach,
            TopTransition::ConnToIdle => EventType::S1ConnRelease,
            TopTransition::ConnToDereg | TopTransition::IdleToDereg => EventType::Detach,
            TopTransition::IdleToConn => EventType::ServiceRequest,
        }
    }

    /// Look up the transition for a `(state, event)` pair, if legal.
    pub(crate) fn lookup(from: TopState, event: EventType) -> Option<TopTransition> {
        TopTransition::ALL
            .into_iter()
            .find(|t| t.from() == from && t.event() == event)
    }

    /// Transitions leaving the given state.
    #[cfg(test)]
    fn outgoing(from: TopState) -> Vec<TopTransition> {
        TopTransition::ALL
            .into_iter()
            .filter(|t| t.from() == from)
            .collect()
    }
}

impl std::fmt::Display for TopTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}", self.from().label(), self.event().mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_enters_connected_directly() {
        // §5.1: DEREGISTERED → REGISTERED always lands in CONNECTED.
        assert_eq!(
            TopState::Deregistered.apply(EventType::Attach),
            Some(TopState::Connected)
        );
    }

    #[test]
    fn transitions_agree_with_apply() {
        for t in TopTransition::ALL {
            assert_eq!(t.from().apply(t.event()), Some(t.to()), "{t:?}");
            assert_eq!(TopTransition::lookup(t.from(), t.event()), Some(t));
        }
    }

    #[test]
    fn illegal_pairs_rejected() {
        assert!(TopState::Deregistered
            .apply(EventType::ServiceRequest)
            .is_none());
        assert!(TopState::Deregistered.apply(EventType::Handover).is_none());
        assert!(TopState::Connected.apply(EventType::Attach).is_none());
        assert!(TopState::Connected
            .apply(EventType::ServiceRequest)
            .is_none());
        assert!(TopState::Idle.apply(EventType::S1ConnRelease).is_none());
        assert!(TopState::Idle.apply(EventType::Handover).is_none());
    }

    #[test]
    fn outgoing_edge_counts() {
        assert_eq!(TopTransition::outgoing(TopState::Deregistered).len(), 1);
        assert_eq!(TopTransition::outgoing(TopState::Connected).len(), 2);
        assert_eq!(TopTransition::outgoing(TopState::Idle).len(), 2);
    }

    #[test]
    fn display_labels() {
        assert_eq!(
            TopTransition::ConnToIdle.to_string(),
            "CONNECTED-S1_CONN_REL"
        );
    }
}
