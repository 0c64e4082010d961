//! LTE control-plane event types (Table 1 of the paper).
//!
//! The six event types exchanged between UE/RAN and the mobile core network
//! (events private to UE↔RAN are out of scope, as in the paper). Events fall
//! into two categories (§5.1):
//!
//! * **Category-1** events drive the top-level EMM–ECM state machine:
//!   [`EventType::Attach`], [`EventType::Detach`], [`EventType::ServiceRequest`],
//!   [`EventType::S1ConnRelease`].
//! * **Category-2** events do not change the top-level UE state but depend on
//!   it: [`EventType::Handover`] (CONNECTED only) and [`EventType::Tau`]
//!   (both CONNECTED and IDLE).

use serde::{Deserialize, Serialize};

/// One of the six primary LTE control-plane event types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum EventType {
    /// `ATCH` — registers the UE with the mobile core network (power-on).
    Attach = 0,
    /// `DTCH` — deregisters the UE from the core network (power-off).
    Detach = 1,
    /// `SRV_REQ` — creates a signaling connection to send/receive data.
    ServiceRequest = 2,
    /// `S1_CONN_REL` — releases the signaling connection and associated
    /// data-plane resources.
    S1ConnRelease = 3,
    /// `HO` — hands the UE over from its serving cell to another cell.
    Handover = 4,
    /// `TAU` — tracking-area update, on tracking-area change or periodic
    /// timer expiry.
    Tau = 5,
}

impl EventType {
    /// All six event types, in Table 1 order.
    pub const ALL: [EventType; 6] = [
        EventType::Attach,
        EventType::Detach,
        EventType::ServiceRequest,
        EventType::S1ConnRelease,
        EventType::Handover,
        EventType::Tau,
    ];

    /// The paper's short mnemonic for the event (e.g. `SRV_REQ`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            EventType::Attach => "ATCH",
            EventType::Detach => "DTCH",
            EventType::ServiceRequest => "SRV_REQ",
            EventType::S1ConnRelease => "S1_CONN_REL",
            EventType::Handover => "HO",
            EventType::Tau => "TAU",
        }
    }

    /// Stable numeric code used by the binary trace format.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`EventType::code`].
    pub fn from_code(code: u8) -> Option<EventType> {
        EventType::ALL.get(usize::from(code)).copied()
    }

    /// Parse the paper's mnemonic (as produced by [`EventType::mnemonic`]).
    pub(crate) fn from_mnemonic(s: &str) -> Option<EventType> {
        EventType::ALL.into_iter().find(|e| e.mnemonic() == s)
    }
}

impl std::fmt::Display for EventType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for e in EventType::ALL {
            assert_eq!(EventType::from_code(e.code()), Some(e));
        }
        assert_eq!(EventType::from_code(6), None);
        assert_eq!(EventType::from_code(255), None);
    }

    #[test]
    fn mnemonics_round_trip() {
        for e in EventType::ALL {
            assert_eq!(EventType::from_mnemonic(e.mnemonic()), Some(e));
        }
        assert_eq!(EventType::from_mnemonic("NOPE"), None);
    }

    #[test]
    fn display_is_mnemonic() {
        assert_eq!(EventType::ServiceRequest.to_string(), "SRV_REQ");
    }
}
