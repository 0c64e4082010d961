//! The 4G ↔ 5G event mapping (Table 2).

use cn_trace::EventType;
use serde::{Deserialize, Serialize};

/// A primary 5G (SA) control-plane event type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Event5G {
    /// `REGISTER` (Registration) — 4G `ATCH`.
    Register,
    /// `DEREGISTER` (Deregistration) — 4G `DTCH`.
    Deregister,
    /// `SRV_REQ` (Service Request) — same name in 4G.
    ServiceRequest,
    /// `AN_REL` (AN Release) — 4G `S1_CONN_REL`.
    AnRelease,
    /// `HO` (Handover) — same name in 4G.
    Handover,
}

impl Event5G {
    /// The paper's 5G mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Event5G::Register => "REGISTER",
            Event5G::Deregister => "DEREGISTER",
            Event5G::ServiceRequest => "SRV_REQ",
            Event5G::AnRelease => "AN_REL",
            Event5G::Handover => "HO",
        }
    }

    /// Map a 4G event to its 5G counterpart; `TAU` has none (Table 2's "−").
    pub fn from_4g(event: EventType) -> Option<Event5G> {
        match event {
            EventType::Attach => Some(Event5G::Register),
            EventType::Detach => Some(Event5G::Deregister),
            EventType::ServiceRequest => Some(Event5G::ServiceRequest),
            EventType::S1ConnRelease => Some(Event5G::AnRelease),
            EventType::Handover => Some(Event5G::Handover),
            EventType::Tau => None,
        }
    }

    /// Map back to the 4G vocabulary (always defined — every 5G event has a
    /// 4G counterpart).
    pub fn to_4g(self) -> EventType {
        match self {
            Event5G::Register => EventType::Attach,
            Event5G::Deregister => EventType::Detach,
            Event5G::ServiceRequest => EventType::ServiceRequest,
            Event5G::AnRelease => EventType::S1ConnRelease,
            Event5G::Handover => EventType::Handover,
        }
    }
}

impl std::fmt::Display for Event5G {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Table 2 rows: `(4G event, 5G counterpart or None)`.
pub const TABLE2: [(EventType, Option<Event5G>); 6] = [
    (EventType::Attach, Some(Event5G::Register)),
    (EventType::Detach, Some(Event5G::Deregister)),
    (EventType::ServiceRequest, Some(Event5G::ServiceRequest)),
    (EventType::S1ConnRelease, Some(Event5G::AnRelease)),
    (EventType::Handover, Some(Event5G::Handover)),
    (EventType::Tau, None),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_one_to_one_except_tau() {
        for e in EventType::ALL {
            match Event5G::from_4g(e) {
                Some(g) => assert_eq!(g.to_4g(), e),
                None => assert_eq!(e, EventType::Tau),
            }
        }
    }

    #[test]
    fn table2_is_consistent_with_from_4g() {
        for (e4, e5) in TABLE2 {
            assert_eq!(Event5G::from_4g(e4), e5);
        }
        assert_eq!(TABLE2.len(), 6);
    }

    #[test]
    fn mnemonics() {
        assert_eq!(Event5G::AnRelease.to_string(), "AN_REL");
        assert_eq!(Event5G::Register.to_string(), "REGISTER");
    }
}
