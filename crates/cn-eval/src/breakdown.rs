//! Macroscopic event breakdowns with ECM-context attribution.
//!
//! Tables 4/11 split `HO` and `TAU` by the ECM state they fired in: a
//! correct model only produces `HO` in CONNECTED, while the EMM–ECM
//! baselines leak large `HO (IDLE)` shares. Context is attributed by
//! replaying each UE's stream (`cn-statemachine::replay` tolerates the
//! baselines' protocol violations and still reports the state each event
//! fired in).

use cn_statemachine::{replay_ue, TopState};
use cn_trace::{DeviceType, EventType, Trace};
use serde::{Deserialize, Serialize};

/// The eight rows of Tables 4/11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BreakdownRow {
    /// `ATCH`.
    Atch,
    /// `DTCH`.
    Dtch,
    /// `SRV_REQ`.
    SrvReq,
    /// `S1_CONN_REL`.
    S1ConnRel,
    /// `HO` fired in ECM-CONNECTED.
    HoConn,
    /// `HO` fired in ECM-IDLE (or deregistered) — a protocol violation.
    HoIdle,
    /// `TAU` fired in ECM-CONNECTED.
    TauConn,
    /// `TAU` fired in ECM-IDLE.
    TauIdle,
}

impl BreakdownRow {
    /// All eight rows in table order.
    pub(crate) const ALL: [BreakdownRow; 8] = [
        BreakdownRow::Atch,
        BreakdownRow::Dtch,
        BreakdownRow::SrvReq,
        BreakdownRow::S1ConnRel,
        BreakdownRow::HoConn,
        BreakdownRow::HoIdle,
        BreakdownRow::TauConn,
        BreakdownRow::TauIdle,
    ];

    /// The paper's row label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            BreakdownRow::Atch => "ATCH",
            BreakdownRow::Dtch => "DTCH",
            BreakdownRow::SrvReq => "SRV_REQ",
            BreakdownRow::S1ConnRel => "S1_CONN_REL",
            BreakdownRow::HoConn => "HO (CONN.)",
            BreakdownRow::HoIdle => "HO (IDLE)",
            BreakdownRow::TauConn => "TAU (CONN.)",
            BreakdownRow::TauIdle => "TAU (IDLE)",
        }
    }

    /// Index in [`Breakdown::shares`].
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// Event-share breakdown of one device type's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Share of each [`BreakdownRow`], summing to 1 (all zero when the
    /// trace holds no events of this device type).
    pub shares: [f64; 8],
    /// Total events counted.
    pub total: usize,
}

impl Breakdown {
    /// Share of one row.
    pub fn share(&self, row: BreakdownRow) -> f64 {
        self.shares[row.index()]
    }

    /// Per-row differences `other − self` (the paper reports
    /// `synthesized − real`).
    pub(crate) fn diff(&self, synthesized: &Breakdown) -> [f64; 8] {
        let mut d = [0.0; 8];
        for (i, di) in d.iter_mut().enumerate() {
            *di = synthesized.shares[i] - self.shares[i];
        }
        d
    }

    /// Largest absolute per-row difference vs `synthesized`.
    pub(crate) fn max_abs_diff(&self, synthesized: &Breakdown) -> f64 {
        self.diff(synthesized)
            .iter()
            .fold(0.0f64, |m, d| m.max(d.abs()))
    }
}

/// Compute the context-attributed breakdown for one device type.
pub fn breakdown(trace: &Trace, device: DeviceType) -> Breakdown {
    let mut counts = [0usize; 8];
    let per_ue = trace.per_ue();
    for (_, events) in per_ue.iter() {
        if events.first().map(|r| r.device) != Some(device) {
            continue;
        }
        let outcome = replay_ue(events);
        for (r, ctx) in events.iter().zip(&outcome.event_context) {
            let row = match (r.event, ctx) {
                (EventType::Attach, _) => BreakdownRow::Atch,
                (EventType::Detach, _) => BreakdownRow::Dtch,
                (EventType::ServiceRequest, _) => BreakdownRow::SrvReq,
                (EventType::S1ConnRelease, _) => BreakdownRow::S1ConnRel,
                (EventType::Handover, TopState::Connected) => BreakdownRow::HoConn,
                (EventType::Handover, _) => BreakdownRow::HoIdle,
                (EventType::Tau, TopState::Connected) => BreakdownRow::TauConn,
                (EventType::Tau, _) => BreakdownRow::TauIdle,
            };
            counts[row.index()] += 1;
        }
    }
    let total: usize = counts.iter().sum();
    let mut shares = [0.0; 8];
    if total > 0 {
        for i in 0..8 {
            shares[i] = counts[i] as f64 / total as f64;
        }
    }
    Breakdown { shares, total }
}

/// Simple six-way breakdown (Table 1, no context split).
pub fn breakdown_simple(trace: &Trace, device: DeviceType) -> [f64; 6] {
    let mut counts = [0usize; 6];
    for r in trace.iter() {
        if r.device == device {
            counts[r.event.code() as usize] += 1;
        }
    }
    let total: usize = counts.iter().sum();
    let mut shares = [0.0; 6];
    if total > 0 {
        for i in 0..6 {
            shares[i] = counts[i] as f64 / total as f64;
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{Timestamp, TraceRecord, UeId};

    fn rec(t: u64, ue: u32, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t), UeId(ue), DeviceType::Phone, e)
    }

    #[test]
    fn context_attribution() {
        use EventType::*;
        let trace = Trace::from_records(vec![
            rec(0, 0, Attach),
            rec(1_000, 0, Handover),      // CONNECTED
            rec(2_000, 0, Tau),           // CONNECTED
            rec(3_000, 0, S1ConnRelease), // → IDLE
            rec(4_000, 0, Tau),           // IDLE
            rec(5_000, 0, Handover),      // IDLE — violation
        ]);
        let b = breakdown(&trace, DeviceType::Phone);
        assert_eq!(b.total, 6);
        assert!((b.share(BreakdownRow::HoConn) - 1.0 / 6.0).abs() < 1e-12);
        assert!((b.share(BreakdownRow::HoIdle) - 1.0 / 6.0).abs() < 1e-12);
        assert!((b.share(BreakdownRow::TauConn) - 1.0 / 6.0).abs() < 1e-12);
        assert!((b.share(BreakdownRow::TauIdle) - 1.0 / 6.0).abs() < 1e-12);
        let sum: f64 = b.shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn other_device_ignored() {
        let trace = Trace::from_records(vec![rec(0, 0, EventType::Attach)]);
        let b = breakdown(&trace, DeviceType::Tablet);
        assert_eq!(b.total, 0);
        assert_eq!(b.shares, [0.0; 8]);
    }

    #[test]
    fn diff_is_signed() {
        let a = Breakdown {
            shares: [0.1, 0.0, 0.5, 0.4, 0.0, 0.0, 0.0, 0.0],
            total: 100,
        };
        let b = Breakdown {
            shares: [0.0, 0.0, 0.6, 0.4, 0.0, 0.0, 0.0, 0.0],
            total: 100,
        };
        let d = a.diff(&b);
        assert!((d[0] + 0.1).abs() < 1e-12);
        assert!((d[2] - 0.1).abs() < 1e-12);
        assert!((a.max_abs_diff(&b) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn simple_breakdown_matches_counts() {
        use EventType::*;
        let trace = Trace::from_records(vec![
            rec(0, 0, Attach),
            rec(1, 0, ServiceRequest),
            rec(2, 0, ServiceRequest),
            rec(3, 0, S1ConnRelease),
        ]);
        let s = breakdown_simple(&trace, DeviceType::Phone);
        assert!((s[EventType::ServiceRequest.code() as usize] - 0.5).abs() < 1e-12);
        assert!((s[EventType::Attach.code() as usize] - 0.25).abs() < 1e-12);
    }
}
