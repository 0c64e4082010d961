//! Per-network-function transaction fan-out.
//!
//! A control-plane event does not touch only the MME: an attach involves
//! the HSS (authentication, subscription), the SGW/PGW (session setup) and
//! the PCRF (policy); a handover touches the SGW (path switch); and so on.
//! Modeling the per-NF transaction load this way follows Dababneh et al.
//! (the paper's reference \[24\]), which models total control-plane volume per LTE NF
//! from per-subscriber transaction counts — the paper's generator is the
//! realistic *arrival process* such capacity models lacked.

use cn_trace::Trace;
use serde::{Deserialize, Serialize};

/// The five EPC network functions of §2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NetworkFunction {
    /// Mobility Management Entity — the signaling anchor.
    Mme,
    /// Home Subscriber Server — authentication and subscription data.
    Hss,
    /// Policy and Charging Rules Function.
    Pcrf,
    /// Serving Gateway (control interface).
    Sgw,
    /// PDN Gateway (control interface).
    Pgw,
}

impl NetworkFunction {
    /// All five NFs.
    pub const ALL: [NetworkFunction; 5] = [
        NetworkFunction::Mme,
        NetworkFunction::Hss,
        NetworkFunction::Pcrf,
        NetworkFunction::Sgw,
        NetworkFunction::Pgw,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NetworkFunction::Mme => "MME",
            NetworkFunction::Hss => "HSS",
            NetworkFunction::Pcrf => "PCRF",
            NetworkFunction::Sgw => "SGW",
            NetworkFunction::Pgw => "PGW",
        }
    }
}

impl std::fmt::Display for NetworkFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Transactions each control-plane event causes at each NF.
///
/// Rows follow the 3GPP procedure flows at message-pair granularity: e.g.
/// an attach is MME-heavy (NAS + S1AP), authenticates at the HSS, creates a
/// session at SGW→PGW, and pulls policy from the PCRF.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransactionMatrix {
    /// `transactions[event][nf]`, indexed by [`cn_trace::EventType::code`] and the
    /// position in [`NetworkFunction::ALL`].
    pub transactions: [[u32; 5]; 6],
}

impl TransactionMatrix {
    /// A default matrix following the standard LTE procedure flows.
    pub fn default_epc() -> TransactionMatrix {
        // Columns: MME, HSS, PCRF, SGW, PGW
        TransactionMatrix {
            transactions: [
                [6, 2, 1, 2, 2], // ATCH: auth + update-location + create-session + policy
                [3, 1, 1, 1, 1], // DTCH: detach + purge + delete-session
                [3, 0, 0, 1, 0], // SRV_REQ: NAS service request + modify-bearer at SGW
                [2, 0, 0, 1, 0], // S1_CONN_REL: UE-context release + release-access-bearer
                [2, 0, 0, 1, 0], // HO: path-switch at MME and SGW
                [2, 0, 0, 0, 0], // TAU: tracking-area update accept/complete
            ],
        }
    }

    /// Transactions at `nf` caused by one `event`.
    #[cfg(test)]
    pub(crate) fn of(&self, event: cn_trace::EventType, nf: NetworkFunction) -> u32 {
        let nf_idx = NetworkFunction::ALL
            .iter()
            .position(|&n| n == nf)
            .expect("known NF");
        self.transactions[event.code() as usize][nf_idx]
    }
}

/// Per-NF transaction load of a trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NfLoad {
    /// Total transactions per NF, in [`NetworkFunction::ALL`] order.
    pub(crate) totals: [u64; 5],
    /// Trace span in seconds (0 for an empty trace).
    pub(crate) span_secs: f64,
}

impl NfLoad {
    /// Total transactions at one NF.
    pub fn total(&self, nf: NetworkFunction) -> u64 {
        let idx = NetworkFunction::ALL
            .iter()
            .position(|&n| n == nf)
            .expect("known NF");
        self.totals[idx]
    }

    /// Mean transactions/second at one NF.
    pub fn rate(&self, nf: NetworkFunction) -> f64 {
        if self.span_secs <= 0.0 {
            0.0
        } else {
            self.total(nf) as f64 / self.span_secs
        }
    }
}

/// Compute the per-NF transaction load a trace imposes.
pub fn nf_load(trace: &Trace, matrix: &TransactionMatrix) -> NfLoad {
    let mut totals = [0u64; 5];
    for r in trace.iter() {
        let row = &matrix.transactions[r.event.code() as usize];
        for (total, &tx) in totals.iter_mut().zip(row) {
            *total += u64::from(tx);
        }
    }
    let span_secs = match (trace.start(), trace.end()) {
        (Some(s), Some(e)) => e.since(s) as f64 / 1_000.0,
        _ => 0.0,
    };
    NfLoad { totals, span_secs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{DeviceType, EventType, Timestamp, TraceRecord, UeId};

    fn rec(t: u64, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t), UeId(0), DeviceType::Phone, e)
    }

    #[test]
    fn attach_is_the_heaviest_procedure() {
        let m = TransactionMatrix::default_epc();
        let total =
            |e: EventType| -> u32 { NetworkFunction::ALL.iter().map(|&nf| m.of(e, nf)).sum() };
        for e in EventType::ALL {
            assert!(total(EventType::Attach) >= total(e), "{e}");
        }
        // MME participates in everything.
        for e in EventType::ALL {
            assert!(m.of(e, NetworkFunction::Mme) > 0, "{e} skips the MME");
        }
        // HO never touches the HSS.
        assert_eq!(m.of(EventType::Handover, NetworkFunction::Hss), 0);
    }

    #[test]
    fn load_accumulates_and_rates() {
        let trace = Trace::from_records(vec![
            rec(0, EventType::Attach),
            rec(5_000, EventType::ServiceRequest),
            rec(10_000, EventType::S1ConnRelease),
        ]);
        let load = nf_load(&trace, &TransactionMatrix::default_epc());
        assert_eq!(load.total(NetworkFunction::Mme), 6 + 3 + 2);
        assert_eq!(load.total(NetworkFunction::Hss), 2);
        assert_eq!(load.total(NetworkFunction::Sgw), 2 + 1 + 1);
        assert!((load.span_secs - 10.0).abs() < 1e-9);
        assert!((load.rate(NetworkFunction::Mme) - 1.1).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_has_zero_load() {
        let load = nf_load(&Trace::new(), &TransactionMatrix::default_epc());
        assert_eq!(load.totals, [0; 5]);
        assert_eq!(load.rate(NetworkFunction::Pgw), 0.0);
    }
}
