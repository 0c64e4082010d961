//! Overload control: priority shedding under signaling storms.
//!
//! Real MMEs shed load when the signaling queue saturates (3GPP TS 23.401
//! NAS-level congestion control): low-priority procedures are rejected so
//! attaches and service requests survive. This module implements a token-
//! bucket admission controller with per-event priorities and reports what
//! a given policy would shed under a trace — one of the design questions
//! a realistic control-plane generator exists to answer (§3.1).

use cn_trace::{EventType, Trace};
use serde::{Deserialize, Serialize};

/// Admission priority classes, highest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Never shed (registration integrity): `ATCH`, `DTCH`.
    Critical,
    /// Shed last (user-visible connectivity): `SRV_REQ`, `S1_CONN_REL`.
    High,
    /// Shed first (mobility housekeeping): `HO`, `TAU`.
    Low,
}

impl Priority {
    /// All three classes, highest first (the [`ShedReport`] array order).
    pub(crate) const ALL: [Priority; 3] = [Priority::Critical, Priority::High, Priority::Low];

    /// Lowercase label for metrics (`{priority="critical"}`).
    pub(crate) fn label(self) -> &'static str {
        match self {
            Priority::Critical => "critical",
            Priority::High => "high",
            Priority::Low => "low",
        }
    }
}

/// Default 3GPP-style priority assignment.
pub fn priority_of(event: EventType) -> Priority {
    match event {
        EventType::Attach | EventType::Detach => Priority::Critical,
        EventType::ServiceRequest | EventType::S1ConnRelease => Priority::High,
        EventType::Handover | EventType::Tau => Priority::Low,
    }
}

/// A token-bucket admission controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionPolicy {
    /// Sustained admission rate, events per second.
    pub rate_per_sec: f64,
    /// Burst capacity, events.
    pub burst: f64,
    /// Fraction of the bucket reserved for [`Priority::High`] and above
    /// (low-priority events are shed once the bucket falls below this).
    pub high_reserve: f64,
    /// Fraction reserved for [`Priority::Critical`] only.
    pub critical_reserve: f64,
}

impl AdmissionPolicy {
    /// A policy sized for an expected load: admit `expected_eps` with 2×
    /// headroom, reserving 30% of the bucket for high-priority and 10% for
    /// critical procedures.
    pub fn sized_for(expected_eps: f64) -> AdmissionPolicy {
        AdmissionPolicy {
            rate_per_sec: (expected_eps * 2.0).max(1.0),
            burst: (expected_eps * 4.0).max(8.0),
            high_reserve: 0.3,
            critical_reserve: 0.1,
        }
    }
}

/// What the controller did with a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedReport {
    /// Admitted events per priority class (Critical, High, Low).
    pub admitted: [u64; 3],
    /// Shed events per priority class.
    pub shed: [u64; 3],
}

impl ShedReport {
    /// Total admitted events.
    pub fn total_admitted(&self) -> u64 {
        self.admitted.iter().sum()
    }

    /// Total shed events.
    pub fn total_shed(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Shed fraction of one priority class.
    pub fn shed_fraction(&self, p: Priority) -> f64 {
        let i = p as usize;
        let total = self.admitted[i] + self.shed[i];
        if total == 0 {
            0.0
        } else {
            self.shed[i] as f64 / total as f64
        }
    }
}

/// The token-bucket state of one [`AdmissionPolicy`]: the crate's only
/// bucket update, shared by [`apply`] and the simulator's front door
/// (`DesSim::admit`) so the two cannot drift apart.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    policy: AdmissionPolicy,
    tokens: f64,
    last_us: Option<u64>,
}

impl TokenBucket {
    /// A full bucket.
    pub(crate) fn new(policy: AdmissionPolicy) -> TokenBucket {
        TokenBucket {
            policy,
            tokens: policy.burst,
            last_us: None,
        }
    }

    /// Replenish up to `now_us`, then take one token for an arrival of
    /// `priority` unless that would dip into a reserve held for a higher
    /// class. Arrival times must not decrease.
    ///
    /// `#[inline]`: `DesSim::admit` calls this once per record from
    /// another module, which may be another codegen unit.
    #[inline]
    pub(crate) fn admit(&mut self, now_us: u64, priority: Priority) -> bool {
        let policy = &self.policy;
        if let Some(prev_us) = self.last_us {
            self.tokens = (self.tokens
                + now_us.saturating_sub(prev_us) as f64 / 1e6 * policy.rate_per_sec)
                .min(policy.burst);
        }
        self.last_us = Some(now_us);
        let floor = match priority {
            Priority::Critical => 0.0,
            Priority::High => policy.burst * policy.critical_reserve,
            Priority::Low => policy.burst * (policy.critical_reserve + policy.high_reserve),
        };
        let admitted = self.tokens >= floor + 1.0;
        if admitted {
            self.tokens -= 1.0;
        }
        admitted
    }
}

/// Run the admission controller over a trace; returns the report and the
/// admitted sub-trace.
pub fn apply(trace: &Trace, policy: &AdmissionPolicy) -> (ShedReport, Trace) {
    let mut report = ShedReport::default();
    let mut admitted = Vec::new();
    let mut bucket = TokenBucket::new(*policy);
    for rec in trace.iter() {
        let priority = priority_of(rec.event);
        if bucket.admit(rec.t.as_millis() * 1_000, priority) {
            report.admitted[priority as usize] += 1;
            admitted.push(*rec);
        } else {
            report.shed[priority as usize] += 1;
        }
    }
    (report, Trace::from_records(admitted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{DeviceType, Timestamp, TraceRecord, UeId};

    fn rec(t_ms: u64, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t_ms), UeId(0), DeviceType::Phone, e)
    }

    #[test]
    fn priorities_follow_3gpp_intent() {
        assert_eq!(priority_of(EventType::Attach), Priority::Critical);
        assert_eq!(priority_of(EventType::ServiceRequest), Priority::High);
        assert_eq!(priority_of(EventType::Tau), Priority::Low);
        assert!(Priority::Critical < Priority::Low);
    }

    #[test]
    fn unloaded_controller_admits_everything() {
        let trace = Trace::from_records(
            (0..50)
                .map(|i| rec(i * 1_000, EventType::ServiceRequest))
                .collect(),
        );
        let policy = AdmissionPolicy::sized_for(10.0);
        let (report, admitted) = apply(&trace, &policy);
        assert_eq!(report.total_shed(), 0);
        assert_eq!(admitted.len(), 50);
    }

    #[test]
    fn storm_sheds_low_priority_first() {
        // A burst of mixed traffic far above the admission rate.
        let mut records = Vec::new();
        for i in 0..300u64 {
            let e = match i % 3 {
                0 => EventType::Handover,
                1 => EventType::ServiceRequest,
                _ => EventType::Attach,
            };
            records.push(rec(i, e)); // 1 ms apart: a storm
        }
        let trace = Trace::from_records(records);
        let policy = AdmissionPolicy {
            rate_per_sec: 50.0,
            burst: 40.0,
            high_reserve: 0.3,
            critical_reserve: 0.1,
        };
        let (report, _) = apply(&trace, &policy);
        assert!(report.total_shed() > 0, "storm must overload the bucket");
        let low = report.shed_fraction(Priority::Low);
        let high = report.shed_fraction(Priority::High);
        let critical = report.shed_fraction(Priority::Critical);
        // The policy guarantees an *ordering*, not absolute survival: a
        // storm larger than bucket + replenishment must shed even some
        // critical traffic, but strictly less than the lower classes.
        assert!(low > high, "low {low} vs high {high}");
        assert!(high > critical, "high {high} vs critical {critical}");
        // Low-priority housekeeping is shed almost entirely.
        assert!(low > 0.9, "low shed {low}");
    }

    #[test]
    fn tokens_replenish_between_bursts() {
        // Two bursts separated by a quiet second: the second burst admits
        // as well as the first.
        let mut records: Vec<TraceRecord> =
            (0..20).map(|i| rec(i, EventType::ServiceRequest)).collect();
        records.extend((0..20).map(|i| rec(2_000 + i, EventType::ServiceRequest)));
        let trace = Trace::from_records(records);
        let policy = AdmissionPolicy {
            rate_per_sec: 20.0,
            burst: 25.0,
            high_reserve: 0.0,
            critical_reserve: 0.0,
        };
        let (report, _) = apply(&trace, &policy);
        assert_eq!(report.total_shed(), 0, "{report:?}");
    }
}
