//! 3GPP procedure message flows behind each control-plane event.
//!
//! A Table 1 "event" is really a whole signaling procedure: an attach is
//! ~19 messages across five interfaces (NAS authentication and security
//! against the HSS, session establishment through SGW/PGW, policy from the
//! PCRF). This module encodes the simplified standard flows (TS 23.401
//! call flows at message granularity), expands event traces into message
//! traces, and derives per-NF load directly from the flows — giving MCN
//! simulations a finer-grained drive signal than event counts.

use crate::nf::{NetworkFunction, TransactionMatrix};
use cn_trace::{EventType, Timestamp, Trace, UeId};
use serde::{Deserialize, Serialize};

/// Control-plane interfaces of the EPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Interface {
    /// NAS / S1AP — UE/eNB ↔ MME.
    S1,
    /// S6a — MME ↔ HSS (Diameter).
    S6a,
    /// S11 — MME ↔ SGW (GTP-C).
    S11,
    /// S5/S8 — SGW ↔ PGW (GTP-C).
    S5,
    /// Gx — PGW ↔ PCRF (Diameter).
    Gx,
}

impl Interface {
    /// All five interfaces.
    pub(crate) const ALL: [Interface; 5] = [
        Interface::S1,
        Interface::S6a,
        Interface::S11,
        Interface::S5,
        Interface::Gx,
    ];

    /// Display name.
    #[cfg(test)]
    fn name(self) -> &'static str {
        match self {
            Interface::S1 => "S1(NAS/S1AP)",
            Interface::S6a => "S6a",
            Interface::S11 => "S11",
            Interface::S5 => "S5/S8",
            Interface::Gx => "Gx",
        }
    }

    /// The two network functions terminating the interface
    /// (the UE/eNB side of S1 is not an NF).
    pub(crate) fn endpoints(self) -> (Option<NetworkFunction>, Option<NetworkFunction>) {
        match self {
            Interface::S1 => (None, Some(NetworkFunction::Mme)),
            Interface::S6a => (Some(NetworkFunction::Mme), Some(NetworkFunction::Hss)),
            Interface::S11 => (Some(NetworkFunction::Mme), Some(NetworkFunction::Sgw)),
            Interface::S5 => (Some(NetworkFunction::Sgw), Some(NetworkFunction::Pgw)),
            Interface::Gx => (Some(NetworkFunction::Pgw), Some(NetworkFunction::Pcrf)),
        }
    }
}

/// One signaling message within a procedure.
///
/// (`Serialize`-only: the names are static 3GPP strings, not data to
/// round-trip.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Message {
    /// The 3GPP message name.
    pub(crate) name: &'static str,
    /// The interface it travels on.
    pub(crate) interface: Interface,
}

const fn m(name: &'static str, interface: Interface) -> Message {
    Message { name, interface }
}

use Interface::*;

/// The attach procedure (TS 23.401 §5.3.2, simplified).
pub(crate) const ATTACH_FLOW: [Message; 19] = [
    m("Attach Request", S1),
    m("Authentication-Information-Request", S6a),
    m("Authentication-Information-Answer", S6a),
    m("Authentication Request", S1),
    m("Authentication Response", S1),
    m("Security Mode Command", S1),
    m("Security Mode Complete", S1),
    m("Update-Location-Request", S6a),
    m("Update-Location-Answer", S6a),
    m("Create Session Request", S11),
    m("Create Session Request", S5),
    m("CCR-Initial", Gx),
    m("CCA-Initial", Gx),
    m("Create Session Response", S5),
    m("Create Session Response", S11),
    m("Attach Accept", S1),
    m("Attach Complete", S1),
    m("Modify Bearer Request", S11),
    m("Modify Bearer Response", S11),
];

/// The UE-initiated detach procedure (TS 23.401 §5.3.8, simplified; the
/// switched-off UE is purged from the HSS).
pub(crate) const DETACH_FLOW: [Message; 10] = [
    m("Detach Request", S1),
    m("Delete Session Request", S11),
    m("Delete Session Request", S5),
    m("CCR-Termination", Gx),
    m("CCA-Termination", Gx),
    m("Delete Session Response", S5),
    m("Delete Session Response", S11),
    m("Detach Accept", S1),
    m("Purge-UE-Request", S6a),
    m("Purge-UE-Answer", S6a),
];

/// The service request procedure (TS 23.401 §5.3.4.1).
pub(crate) const SERVICE_REQUEST_FLOW: [Message; 5] = [
    m("Service Request", S1),
    m("Initial Context Setup Request", S1),
    m("Initial Context Setup Response", S1),
    m("Modify Bearer Request", S11),
    m("Modify Bearer Response", S11),
];

/// The S1 release procedure (TS 23.401 §5.3.5).
pub(crate) const S1_RELEASE_FLOW: [Message; 5] = [
    m("UE Context Release Request", S1),
    m("Release Access Bearers Request", S11),
    m("Release Access Bearers Response", S11),
    m("UE Context Release Command", S1),
    m("UE Context Release Complete", S1),
];

/// X2 handover with S1 path switch (TS 23.401 §5.5.1.1).
pub(crate) const HANDOVER_FLOW: [Message; 4] = [
    m("Path Switch Request", S1),
    m("Modify Bearer Request", S11),
    m("Modify Bearer Response", S11),
    m("Path Switch Request Acknowledge", S1),
];

/// The tracking-area update procedure without SGW change (TS 23.401
/// §5.3.3.1, simplified).
pub(crate) const TAU_FLOW: [Message; 3] = [
    m("Tracking Area Update Request", S1),
    m("Tracking Area Update Accept", S1),
    m("Tracking Area Update Complete", S1),
];

/// The message flow of one control-plane event.
pub fn procedure(event: EventType) -> &'static [Message] {
    match event {
        EventType::Attach => &ATTACH_FLOW,
        EventType::Detach => &DETACH_FLOW,
        EventType::ServiceRequest => &SERVICE_REQUEST_FLOW,
        EventType::S1ConnRelease => &S1_RELEASE_FLOW,
        EventType::Handover => &HANDOVER_FLOW,
        EventType::Tau => &TAU_FLOW,
    }
}

/// A signaling message instance in an expanded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MessageRecord {
    /// Message time: the event timestamp plus 1 ms per flow step
    /// (a synthetic serialization of the procedure; real inter-message
    /// delays depend on deployment RTTs).
    pub(crate) t: Timestamp,
    /// The UE whose procedure this message belongs to.
    pub(crate) ue: UeId,
    /// The message.
    pub(crate) message: Message,
}

/// Expand an event trace into its signaling messages, lazily.
pub fn expand(trace: &Trace) -> impl Iterator<Item = MessageRecord> + '_ {
    trace.iter().flat_map(|r| {
        procedure(r.event)
            .iter()
            .enumerate()
            .map(move |(i, &message)| MessageRecord {
                t: r.t.saturating_add(i as u64),
                ue: r.ue,
                message,
            })
    })
}

/// Total messages per interface for a trace.
pub fn interface_load(trace: &Trace) -> [u64; 5] {
    // Count per event type once, then multiply — traces are large,
    // procedures are static.
    let mut per_event = [[0u64; 5]; 6];
    for e in EventType::ALL {
        for msg in procedure(e) {
            let idx = Interface::ALL
                .iter()
                .position(|&i| i == msg.interface)
                .expect("known");
            per_event[e.code() as usize][idx] += 1;
        }
    }
    let mut event_counts = [0u64; 6];
    for r in trace.iter() {
        event_counts[r.event.code() as usize] += 1;
    }
    let mut totals = [0u64; 5];
    for e in 0..6 {
        for i in 0..5 {
            totals[i] += event_counts[e] * per_event[e][i];
        }
    }
    totals
}

/// Derive a [`TransactionMatrix`] from the message flows: an NF's
/// transactions for an event are the messages on interfaces it terminates.
/// Finer-grained than [`TransactionMatrix::default_epc`] (which counts
/// procedure legs), but consistent with it in shape.
pub fn derived_matrix() -> TransactionMatrix {
    let mut transactions = [[0u32; 5]; 6];
    for e in EventType::ALL {
        for msg in procedure(e) {
            let (a, b) = msg.interface.endpoints();
            for nf in [a, b].into_iter().flatten() {
                let idx = NetworkFunction::ALL
                    .iter()
                    .position(|&n| n == nf)
                    .expect("known");
                transactions[e.code() as usize][idx] += 1;
            }
        }
    }
    TransactionMatrix { transactions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{DeviceType, TraceRecord};

    #[test]
    fn attach_is_by_far_the_heaviest_flow() {
        for e in EventType::ALL {
            assert!(
                ATTACH_FLOW.len() >= procedure(e).len(),
                "{e} flow longer than attach"
            );
        }
        assert_eq!(procedure(EventType::Attach).len(), 19);
        assert_eq!(procedure(EventType::Tau).len(), 3);
    }

    #[test]
    fn flows_use_expected_interfaces() {
        // HO and TAU never touch HSS/PCRF interfaces.
        for e in [EventType::Handover, EventType::Tau] {
            for msg in procedure(e) {
                assert!(
                    !matches!(msg.interface, Interface::S6a | Interface::Gx),
                    "{e}: {} on {}",
                    msg.name,
                    msg.interface.name()
                );
            }
        }
        // Attach touches every interface.
        let used: std::collections::HashSet<Interface> =
            ATTACH_FLOW.iter().map(|m| m.interface).collect();
        assert_eq!(used.len(), 5);
    }

    #[test]
    fn expansion_counts_and_orders() {
        let trace = Trace::from_records(vec![
            TraceRecord::new(
                Timestamp::from_millis(1_000),
                UeId(1),
                DeviceType::Phone,
                EventType::ServiceRequest,
            ),
            TraceRecord::new(
                Timestamp::from_millis(2_000),
                UeId(1),
                DeviceType::Phone,
                EventType::Tau,
            ),
        ]);
        let msgs: Vec<MessageRecord> = expand(&trace).collect();
        assert_eq!(msgs.len(), 5 + 3);
        assert_eq!(msgs[0].message.name, "Service Request");
        assert_eq!(msgs[0].t.as_millis(), 1_000);
        assert_eq!(msgs[4].t.as_millis(), 1_004);
        assert_eq!(msgs[5].message.name, "Tracking Area Update Request");
    }

    #[test]
    fn interface_load_matches_expansion() {
        let trace = Trace::from_records(vec![TraceRecord::new(
            Timestamp::from_millis(0),
            UeId(0),
            DeviceType::Phone,
            EventType::Attach,
        )]);
        let load = interface_load(&trace);
        let total: u64 = load.iter().sum();
        assert_eq!(total, ATTACH_FLOW.len() as u64);
        // S1 carries the NAS bulk of an attach.
        assert_eq!(load[0], 7);
        assert_eq!(load[1], 4); // S6a
    }

    #[test]
    fn derived_matrix_is_consistent_with_the_coarse_one() {
        let derived = derived_matrix();
        let coarse = TransactionMatrix::default_epc();
        // Qualitative agreement: attach heaviest at every NF it touches,
        // HO/TAU never reach the HSS, MME present everywhere.
        for e in EventType::ALL {
            assert!(derived.of(e, NetworkFunction::Mme) > 0, "{e}");
            let zero_coarse = coarse.of(e, NetworkFunction::Hss) == 0;
            let zero_derived = derived.of(e, NetworkFunction::Hss) == 0;
            assert_eq!(zero_coarse, zero_derived, "{e}: HSS presence disagrees");
        }
        assert!(
            derived.of(EventType::Attach, NetworkFunction::Mme)
                > derived.of(EventType::ServiceRequest, NetworkFunction::Mme)
        );
    }
}
