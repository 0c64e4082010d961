//! Descriptive summaries of a trace.
//!
//! Quick answers to "what is in this trace?": span, per-device and
//! per-event volumes, rates, and per-UE activity distribution — the
//! numbers a paper's "Dataset" paragraph reports (§4 reports 37,325 UEs,
//! 196,827,464 events, one week, millisecond granularity).

use crate::device::DeviceType;
use crate::event::EventType;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// Summary statistics of a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Total events.
    pub events: u64,
    /// Distinct UEs.
    pub ues: u64,
    /// Span in seconds (0 when fewer than 2 events).
    pub(crate) span_secs: f64,
    /// Mean events per second over the span (0 for degenerate spans).
    pub events_per_sec: f64,
    /// Events per device type, indexed by [`DeviceType::code`].
    pub(crate) by_device: [u64; 3],
    /// Events per event type, indexed by [`EventType::code`].
    pub by_event: [u64; 6],
    /// Events of the busiest UE.
    pub(crate) max_events_per_ue: u64,
    /// Median events per active UE.
    pub(crate) median_events_per_ue: u64,
}

impl TraceSummary {
    /// Compute the summary of a trace.
    pub fn of(trace: &Trace) -> TraceSummary {
        let mut by_device = [0u64; 3];
        let mut by_event = [0u64; 6];
        let mut per_ue: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for r in trace.iter() {
            by_device[r.device.code() as usize] += 1;
            by_event[r.event.code() as usize] += 1;
            *per_ue.entry(r.ue.get()).or_insert(0) += 1;
        }
        let span_secs = match (trace.start(), trace.end()) {
            (Some(s), Some(e)) if e > s => e.since(s) as f64 / 1_000.0,
            _ => 0.0,
        };
        let mut counts: Vec<u64> = per_ue.values().copied().collect();
        counts.sort_unstable();
        TraceSummary {
            events: trace.len() as u64,
            ues: counts.len() as u64,
            span_secs,
            events_per_sec: if span_secs > 0.0 {
                trace.len() as f64 / span_secs
            } else {
                0.0
            },
            by_device,
            by_event,
            max_events_per_ue: counts.last().copied().unwrap_or(0),
            median_events_per_ue: counts.get(counts.len() / 2).copied().unwrap_or(0),
        }
    }

    /// Share of events of one device type.
    pub(crate) fn device_share(&self, device: DeviceType) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.by_device[device.code() as usize] as f64 / self.events as f64
        }
    }

    /// Share of events of one event type.
    pub(crate) fn event_share(&self, event: EventType) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.by_event[event.code() as usize] as f64 / self.events as f64
        }
    }
}

impl std::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} events from {} UEs over {:.1} h ({:.1} ev/s)",
            self.events,
            self.ues,
            self.span_secs / 3_600.0,
            self.events_per_sec
        )?;
        for d in DeviceType::ALL {
            write!(f, "  {}: {:.1}%", d.abbrev(), self.device_share(d) * 100.0)?;
        }
        writeln!(f)?;
        for e in EventType::ALL {
            write!(f, "  {}: {:.1}%", e.mnemonic(), self.event_share(e) * 100.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{TraceRecord, UeId};
    use crate::time::Timestamp;

    fn rec(t: u64, ue: u32, d: DeviceType, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t), UeId(ue), d, e)
    }

    #[test]
    fn empty_summary() {
        let s = TraceSummary::of(&Trace::new());
        assert_eq!(s.events, 0);
        assert_eq!(s.ues, 0);
        assert_eq!(s.events_per_sec, 0.0);
        assert_eq!(s.device_share(DeviceType::Phone), 0.0);
    }

    #[test]
    fn counts_and_shares() {
        let t = Trace::from_records(vec![
            rec(0, 0, DeviceType::Phone, EventType::ServiceRequest),
            rec(1_000, 0, DeviceType::Phone, EventType::S1ConnRelease),
            rec(2_000, 1, DeviceType::Tablet, EventType::Tau),
            rec(10_000, 0, DeviceType::Phone, EventType::ServiceRequest),
        ]);
        let s = TraceSummary::of(&t);
        assert_eq!(s.events, 4);
        assert_eq!(s.ues, 2);
        assert!((s.span_secs - 10.0).abs() < 1e-9);
        assert!((s.events_per_sec - 0.4).abs() < 1e-9);
        assert!((s.device_share(DeviceType::Phone) - 0.75).abs() < 1e-12);
        assert!((s.event_share(EventType::ServiceRequest) - 0.5).abs() < 1e-12);
        assert_eq!(s.max_events_per_ue, 3);
        assert_eq!(s.median_events_per_ue, 3);
        let text = s.to_string();
        assert!(text.contains("4 events from 2 UEs"));
    }
}
