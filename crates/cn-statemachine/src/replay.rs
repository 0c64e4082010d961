//! Replay a per-UE event stream through the two-level machine.
//!
//! Replay serves three purposes in the pipeline:
//!
//! 1. **Sojourn extraction** (§4.1.1, §5.2): walking the trace through the
//!    machine yields, for every legal transition taken, the time spent in
//!    the outbound state — the samples from which the Semi-Markov model's
//!    per-transition CDFs and transition probabilities are estimated.
//! 2. **Protocol conformance**: illegal `(state, event)` pairs are reported
//!    as [`Violation`]s. Traces produced by our own two-level generator
//!    must replay violation-free; traces from the EMM–ECM baselines
//!    generally do not (e.g. `HO` in IDLE), which is exactly what Tables
//!    4/11 measure.
//! 3. **Context attribution**: every event is labeled with the top-level
//!    state it fired in, so evaluation can split `HO`/`TAU` into their
//!    CONNECTED/IDLE contexts.
//!
//! Replay folds the machine's one lenient step ([`TlState::step`]) over the
//! stream: a violating event is recorded and the machine resynchronizes to
//! the state the event leads to, so one bad event does not cascade. No
//! sojourn samples are emitted for forced moves. Because a trace usually
//! starts mid-stream, the initial state is inferred from the first event
//! ([`TlState::before`]) and no sojourn is emitted for it (its entry time
//! is unknown).

use crate::emm_ecm::{TopState, TopTransition};
use crate::two_level::{BottomTransition, TlState};
use cn_trace::{EventType, Timestamp, TraceRecord};
use serde::{Deserialize, Serialize};

/// A sojourn-time observation for one transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SojournSample<T> {
    /// Which transition was taken.
    pub transition: T,
    /// When the outbound state was entered (start of the sojourn).
    pub enter: Timestamp,
    /// Time spent in the outbound state, in milliseconds.
    pub duration_ms: u64,
}

/// An event that was illegal in the state it fired in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Index of the event within the replayed slice.
    pub(crate) index: usize,
    /// The state the machine was in.
    pub(crate) state: TlState,
    /// The offending event.
    pub(crate) event: EventType,
    /// When it fired.
    pub(crate) t: Timestamp,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "event #{}: {} illegal in {} at {}",
            self.index, self.event, self.state, self.t
        )
    }
}

/// Everything replay learns from one UE's event stream.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReplayOutcome {
    /// Sojourn observations for top-level (EMM–ECM) transitions.
    pub top_sojourns: Vec<SojournSample<TopTransition>>,
    /// Sojourn observations for second-level transitions.
    pub bottom_sojourns: Vec<SojournSample<BottomTransition>>,
    /// Protocol violations encountered (empty for conformant traces).
    pub violations: Vec<Violation>,
    /// For every input event, the top-level state it fired in.
    pub event_context: Vec<TopState>,
    /// Bottom-state visits that ended *without* a second-level transition
    /// (the residence was cut short by a top-level move). These censored
    /// visits are what lets the Semi-Markov fit estimate the probability
    /// that a state visit produces no Category-2 event at all — without
    /// them, a generator would arm an HO/TAU timer on every visit and
    /// flood the trace with Category-2 events.
    pub bottom_censored: Vec<(TlState, Timestamp)>,
}

impl ReplayOutcome {
    /// True when the stream replayed with no protocol violations.
    pub fn is_conformant(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A [`Violation`] attributed to the UE whose stream produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UeViolation {
    /// The UE whose stream violated the protocol.
    pub(crate) ue: cn_trace::UeId,
    /// The violation itself.
    pub(crate) violation: Violation,
}

impl std::fmt::Display for UeViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.ue, self.violation)
    }
}

/// Structured conformance diagnostics for a whole population trace —
/// what a caller gets instead of a bare conformant/not-conformant bool.
///
/// Produced by [`replay_trace`]. Besides the verdict it carries every
/// rejection with its UE and `(state, event)` pair, a rejection histogram
/// for quick triage, and the pooled per-transition sojourn samples that
/// model re-fitting needs — so one pass over the trace serves both the
/// conformance gate and the statistical round trip.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PopulationReplay {
    /// Number of distinct UEs replayed.
    pub ue_count: usize,
    /// Total number of events replayed.
    pub total_events: usize,
    /// Every protocol violation, with the offending UE.
    pub violations: Vec<UeViolation>,
    /// Pooled top-level sojourn observations across all UEs.
    pub top_sojourns: Vec<SojournSample<TopTransition>>,
    /// Pooled second-level sojourn observations across all UEs.
    pub bottom_sojourns: Vec<SojournSample<BottomTransition>>,
}

impl PopulationReplay {
    /// True when every event of every UE replayed legally.
    pub fn is_conformant(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of events accepted by the machine.
    pub fn accepted_events(&self) -> usize {
        self.total_events - self.violations.len()
    }

    /// Fraction of events the machine accepted (1.0 for an empty trace).
    pub fn acceptance_rate(&self) -> f64 {
        if self.total_events == 0 {
            1.0
        } else {
            self.accepted_events() as f64 / self.total_events as f64
        }
    }

    /// Rejections grouped by `(state, event)`, most frequent first — the
    /// shape of *how* a trace violates the protocol (e.g. all counts on
    /// `(IDLE, HO)` is the EMM–ECM baseline's signature).
    pub fn rejection_histogram(&self) -> Vec<((TlState, EventType), usize)> {
        let mut counts: Vec<((TlState, EventType), usize)> = Vec::new();
        for v in &self.violations {
            let key = (v.violation.state, v.violation.event);
            match counts.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => counts.push((key, 1)),
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        counts
    }
}

/// Replay a time-sorted population trace, one UE at a time, and aggregate
/// the outcomes into a [`PopulationReplay`].
///
/// One stable sort by UE groups the records, so each UE's stream keeps
/// trace order (and is time-sorted iff the input is: population traces
/// from `cn-trace` and `cn-gen` guarantee this) and the outcome is
/// UE-major in ascending id.
pub fn replay_trace(records: &[TraceRecord]) -> PopulationReplay {
    let mut by_ue = records.to_vec();
    by_ue.sort_by_key(|r| r.ue);
    let mut pop = PopulationReplay {
        total_events: records.len(),
        ..Default::default()
    };
    for stream in by_ue.chunk_by(|a, b| a.ue == b.ue) {
        let ue = stream[0].ue;
        let out = replay_ue(stream);
        pop.ue_count += 1;
        pop.violations.extend(
            out.violations
                .into_iter()
                .map(|violation| UeViolation { ue, violation }),
        );
        pop.top_sojourns.extend(out.top_sojourns);
        pop.bottom_sojourns.extend(out.bottom_sojourns);
    }
    pop
}

/// Replay one UE's time-sorted events through the two-level machine.
///
/// ```
/// use cn_statemachine::replay_ue;
/// use cn_trace::{DeviceType, EventType, Timestamp, TraceRecord, UeId};
/// let rec = |t, e| TraceRecord::new(Timestamp::from_secs(t), UeId(0), DeviceType::Phone, e);
/// let events = [
///     rec(0, EventType::Attach),
///     rec(30, EventType::S1ConnRelease),
///     rec(90, EventType::ServiceRequest),
/// ];
/// let out = replay_ue(&events);
/// assert!(out.is_conformant());
/// assert_eq!(out.top_sojourns[0].duration_ms, 30_000); // CONNECTED for 30 s
/// assert_eq!(out.top_sojourns[1].duration_ms, 60_000); // IDLE for 60 s
/// ```
pub fn replay_ue(events: &[TraceRecord]) -> ReplayOutcome {
    let mut out = ReplayOutcome::default();
    let Some(first) = events.first() else {
        return out;
    };
    let mut state = TlState::before(first.event);
    // Entry times are unknown until the first transition into a state.
    let mut top_enter: Option<Timestamp> = None;
    let mut sub_enter: Option<Timestamp> = None;

    for (index, rec) in events.iter().enumerate() {
        let (event, t) = (rec.event, rec.t);
        out.event_context.push(state.top());
        let (next, legal) = state.step(event);
        if legal {
            // Emit sojourn samples for legal moves with known entry time.
            if next.top() != state.top() {
                if let (Some(enter), Some(tr)) =
                    (top_enter, TopTransition::lookup(state.top(), event))
                {
                    out.top_sojourns.push(SojournSample {
                        transition: tr,
                        enter,
                        duration_ms: t.since(enter),
                    });
                }
            }
            match (BottomTransition::lookup(state, event), sub_enter) {
                (Some(bt), Some(enter)) => out.bottom_sojourns.push(SojournSample {
                    transition: bt,
                    enter,
                    duration_ms: t.since(enter),
                }),
                // A top-level move ended this bottom-state visit:
                // censored (no Category-2 event this visit).
                (None, Some(enter)) if state != TlState::Deregistered => {
                    out.bottom_censored.push((state, enter));
                }
                _ => {}
            }
        } else {
            out.violations.push(Violation {
                index,
                state,
                event,
                t,
            });
        }
        if next.top() != state.top() {
            top_enter = Some(t);
        }
        sub_enter = Some(t);
        state = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_level::IdleSub;
    use cn_trace::{DeviceType, UeId};

    fn stream(events: &[(u64, EventType)]) -> Vec<TraceRecord> {
        events
            .iter()
            .map(|&(t, e)| {
                TraceRecord::new(Timestamp::from_millis(t), UeId(0), DeviceType::Phone, e)
            })
            .collect()
    }

    #[test]
    fn empty_stream_is_empty_outcome() {
        let out = replay_ue(&[]);
        assert!(out.event_context.is_empty());
        assert!(out.top_sojourns.is_empty());
        assert!(out.is_conformant());
    }

    #[test]
    fn full_lifecycle_is_conformant() {
        use EventType::*;
        let evs = stream(&[
            (0, Attach),
            (1_000, Handover),
            (2_000, Tau),
            (5_000, S1ConnRelease),
            (9_000, Tau),
            (9_500, S1ConnRelease),
            (20_000, ServiceRequest),
            (30_000, S1ConnRelease),
            (60_000, Detach),
        ]);
        let out = replay_ue(&evs);
        assert!(out.is_conformant(), "{:?}", out.violations);
    }

    #[test]
    fn top_sojourns_measure_connected_and_idle() {
        use EventType::*;
        let evs = stream(&[
            (0, Attach),
            (5_000, S1ConnRelease),   // CONNECTED for 5 s
            (25_000, ServiceRequest), // IDLE for 20 s
            (26_000, S1ConnRelease),  // CONNECTED for 1 s
        ]);
        let out = replay_ue(&evs);
        assert!(out.is_conformant());
        let durations: Vec<(TopTransition, u64)> = out
            .top_sojourns
            .iter()
            .map(|s| (s.transition, s.duration_ms))
            .collect();
        assert_eq!(
            durations,
            vec![
                (TopTransition::ConnToIdle, 5_000),
                (TopTransition::IdleToConn, 20_000),
                (TopTransition::ConnToIdle, 1_000),
            ]
        );
    }

    #[test]
    fn first_event_emits_no_sojourn() {
        use EventType::*;
        // Stream starts mid-connection with a release: entry time unknown.
        let evs = stream(&[(10_000, S1ConnRelease), (40_000, ServiceRequest)]);
        let out = replay_ue(&evs);
        assert!(out.is_conformant());
        // Only the IDLE sojourn (30 s) is measurable.
        assert_eq!(out.top_sojourns.len(), 1);
        assert_eq!(out.top_sojourns[0].transition, TopTransition::IdleToConn);
        assert_eq!(out.top_sojourns[0].duration_ms, 30_000);
    }

    #[test]
    fn bottom_sojourns_include_self_loops() {
        use EventType::*;
        let evs = stream(&[
            (0, Attach),
            (1_000, Handover), // SRV_REQ_S --HO--> HO_S (1s)
            (3_000, Handover), // HO_S --HO--> HO_S (2s)
            (6_000, Tau),      // HO_S --TAU--> TAU_S_CONN (3s)
        ]);
        let out = replay_ue(&evs);
        assert!(out.is_conformant());
        let bt: Vec<(BottomTransition, u64)> = out
            .bottom_sojourns
            .iter()
            .map(|s| (s.transition, s.duration_ms))
            .collect();
        assert_eq!(
            bt,
            vec![
                (BottomTransition::SrvReqToHo, 1_000),
                (BottomTransition::HoToHo, 2_000),
                (BottomTransition::HoToTauConn, 3_000),
            ]
        );
    }

    #[test]
    fn idle_tau_release_chain_sojourns() {
        use EventType::*;
        let evs = stream(&[
            (0, Attach),
            (1_000, S1ConnRelease), // → Idle(S1RelS1)
            (4_000, Tau),           // S1_REL_1 --TAU--> TAU_S_IDLE (3s)
            (4_200, S1ConnRelease), // TAU_S_IDLE --S1_REL--> S1_REL_S_2 (0.2s)
            (9_200, Tau),           // S1_REL_2 --TAU--> TAU_S_IDLE (5s)
        ]);
        let out = replay_ue(&evs);
        assert!(out.is_conformant(), "{:?}", out.violations);
        let bt: Vec<(BottomTransition, u64)> = out
            .bottom_sojourns
            .iter()
            .map(|s| (s.transition, s.duration_ms))
            .collect();
        assert_eq!(
            bt,
            vec![
                (BottomTransition::S1Rel1ToTauIdle, 3_000),
                (BottomTransition::TauIdleToS1Rel2, 200),
                (BottomTransition::S1Rel2ToTauIdle, 5_000),
            ]
        );
        // The idle TAU-release is NOT a top-level transition.
        assert_eq!(out.top_sojourns.len(), 1);
        assert_eq!(out.top_sojourns[0].transition, TopTransition::ConnToIdle);
    }

    #[test]
    fn violations_recorded_and_recovered() {
        use EventType::*;
        // HO while idle — the Base method's classic mistake.
        let evs = stream(&[
            (0, Attach),
            (1_000, S1ConnRelease),
            (2_000, Handover), // illegal in IDLE
            (3_000, S1ConnRelease),
        ]);
        let out = replay_ue(&evs);
        assert_eq!(out.violations.len(), 1);
        let v = out.violations[0];
        assert_eq!(v.index, 2);
        assert_eq!(v.event, Handover);
        assert_eq!(v.state, TlState::Idle(IdleSub::S1RelS1));
        // Forced to HO_S (connected), so the final release is legal again.
        assert_eq!(out.event_context[3], TopState::Connected);
    }

    #[test]
    fn event_context_attributes_top_state() {
        use EventType::*;
        let evs = stream(&[
            (0, Attach),            // fired in DEREGISTERED
            (1_000, Handover),      // fired in CONNECTED
            (2_000, S1ConnRelease), // fired in CONNECTED
            (3_000, Tau),           // fired in IDLE
        ]);
        let out = replay_ue(&evs);
        assert_eq!(
            out.event_context,
            vec![
                TopState::Deregistered,
                TopState::Connected,
                TopState::Connected,
                TopState::Idle
            ]
        );
    }

    #[test]
    fn population_replay_aggregates_per_ue() {
        use EventType::*;
        // UE 0 conformant, UE 1 fires HO in IDLE (one violation).
        let mk =
            |t, ue, e| TraceRecord::new(Timestamp::from_millis(t), UeId(ue), DeviceType::Phone, e);
        let records = vec![
            mk(0, 0, Attach),
            mk(500, 1, Attach),
            mk(1_000, 0, S1ConnRelease),
            mk(1_500, 1, S1ConnRelease),
            mk(2_000, 1, Handover), // illegal: UE 1 is IDLE
            mk(3_000, 0, ServiceRequest),
        ];
        let pop = replay_trace(&records);
        assert_eq!(pop.ue_count, 2);
        assert_eq!(pop.total_events, 6);
        assert!(!pop.is_conformant());
        assert_eq!(pop.accepted_events(), 5);
        assert!((pop.acceptance_rate() - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(pop.violations.len(), 1);
        assert_eq!(pop.violations[0].ue, UeId(1));
        assert_eq!(pop.violations[0].violation.event, Handover);
        let hist = pop.rejection_histogram();
        assert_eq!(hist, vec![((TlState::Idle(IdleSub::S1RelS1), Handover), 1)]);
        // Sojourns pooled from both UEs: each had a measurable CONNECTED
        // sojourn; UE 0 also has a measurable IDLE sojourn.
        assert_eq!(pop.top_sojourns.len(), 3);
    }

    #[test]
    fn population_replay_of_empty_trace() {
        let pop = replay_trace(&[]);
        assert!(pop.is_conformant());
        assert_eq!(pop.acceptance_rate(), 1.0);
        assert_eq!(pop.ue_count, 0);
    }
}
