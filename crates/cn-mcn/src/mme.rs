//! Per-UE state tracking, as a signaling function would perform it.

use cn_statemachine::TlState;
use cn_trace::{Trace, TraceRecord, UeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Counters produced by processing a trace through the MME.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MmeReport {
    /// Events processed in total.
    pub processed: u64,
    /// Events per type, indexed by [`cn_trace::EventType::code`].
    pub by_type: [u64; 6],
    /// Distinct UEs seen.
    pub ues: u64,
    /// Events that were illegal for the UE's tracked state (the MME
    /// recovers by resynchronizing the state, mirroring real NAS recovery):
    /// `cn_statemachine::replay_trace`'s violation count on the same trace.
    pub protocol_errors: u64,
    /// UEs currently in ECM-CONNECTED at end of trace.
    pub connected_at_end: u64,
    /// Peak number of simultaneously ECM-CONNECTED UEs.
    pub peak_connected: u64,
}

/// An MME-style control-plane processor with a per-UE state table.
///
/// ```
/// use cn_mcn::Mme;
/// use cn_trace::{DeviceType, EventType, Timestamp, Trace, TraceRecord, UeId};
/// let rec = |t, e| TraceRecord::new(Timestamp::from_secs(t), UeId(0), DeviceType::Phone, e);
/// let trace = Trace::from_records(vec![
///     rec(0, EventType::Attach),
///     rec(10, EventType::S1ConnRelease),
/// ]);
/// let report = Mme::new().run(&trace);
/// assert_eq!(report.protocol_errors, 0);
/// assert_eq!(report.peak_connected, 1);
/// assert_eq!(report.connected_at_end, 0);
/// ```
#[derive(Debug, Default)]
pub struct Mme {
    table: HashMap<UeId, TlState>,
    connected: u64,
    report: MmeReport,
}

impl Mme {
    /// A fresh MME with an empty state table.
    pub fn new() -> Mme {
        Mme::default()
    }

    /// Process one labeled event.
    pub(crate) fn process(&mut self, rec: &TraceRecord) {
        self.report.processed += 1;
        self.report.by_type[rec.event.code() as usize] += 1;

        let mut newly_seen = false;
        let state = self.table.entry(rec.ue).or_insert_with(|| {
            newly_seen = true;
            TlState::before(rec.event)
        });
        if newly_seen {
            self.report.ues += 1;
            // A UE first seen mid-connection joins the connected census —
            // otherwise its release would underflow the counter.
            if matches!(state, TlState::Connected(_)) {
                self.connected += 1;
                self.report.peak_connected = self.report.peak_connected.max(self.connected);
            }
        }
        let was_connected = matches!(state, TlState::Connected(_));
        // Replay's step: an illegal event counts as a protocol error and
        // resynchronizes the tracked state (NAS-style recovery).
        let (next, legal) = state.step(rec.event);
        self.report.protocol_errors += u64::from(!legal);
        let is_connected = matches!(next, TlState::Connected(_));
        match (was_connected, is_connected) {
            (false, true) => {
                self.connected += 1;
                self.report.peak_connected = self.report.peak_connected.max(self.connected);
            }
            (true, false) => self.connected -= 1,
            _ => {}
        }
        *state = next;
    }

    /// Process a whole trace and return the final report.
    pub fn run(mut self, trace: &Trace) -> MmeReport {
        for rec in trace.iter() {
            self.process(rec);
        }
        self.report.connected_at_end = self.connected;
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{DeviceType, EventType, Timestamp};

    fn rec(t: u64, ue: u32, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t), UeId(ue), DeviceType::Phone, e)
    }

    #[test]
    fn tracks_connected_population() {
        use EventType::*;
        let trace = Trace::from_records(vec![
            rec(0, 0, Attach),
            rec(10, 1, Attach),
            rec(20, 0, S1ConnRelease),
            rec(30, 2, ServiceRequest),
            rec(40, 1, S1ConnRelease),
            rec(50, 2, S1ConnRelease),
        ]);
        let report = Mme::new().run(&trace);
        assert_eq!(report.processed, 6);
        assert_eq!(report.ues, 3);
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(report.peak_connected, 2);
        assert_eq!(report.connected_at_end, 0);
    }

    #[test]
    fn recovers_from_protocol_errors() {
        use EventType::*;
        // HO for a UE the MME believes is idle.
        let trace = Trace::from_records(vec![
            rec(0, 0, ServiceRequest),
            rec(10, 0, S1ConnRelease),
            rec(20, 0, Handover), // illegal in IDLE
            rec(30, 0, S1ConnRelease),
        ]);
        let report = Mme::new().run(&trace);
        assert_eq!(report.protocol_errors, 1);
        assert_eq!(report.processed, 4);
    }

    #[test]
    fn mid_connection_first_sight_does_not_underflow() {
        use EventType::*;
        // A UE first seen with a release (mid-connection): the census must
        // count it as connected on entry, or the release underflows.
        let trace = Trace::from_records(vec![
            rec(0, 0, S1ConnRelease),
            rec(10, 0, ServiceRequest),
            rec(20, 0, S1ConnRelease),
        ]);
        let report = Mme::new().run(&trace);
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(report.peak_connected, 1);
        assert_eq!(report.connected_at_end, 0);
    }

    #[test]
    fn by_type_counts() {
        use EventType::*;
        let trace = Trace::from_records(vec![
            rec(0, 0, ServiceRequest),
            rec(10, 0, Tau),
            rec(20, 0, Tau),
        ]);
        let report = Mme::new().run(&trace);
        assert_eq!(report.by_type[EventType::Tau.code() as usize], 2);
        assert_eq!(report.by_type[EventType::ServiceRequest.code() as usize], 1);
    }
}
