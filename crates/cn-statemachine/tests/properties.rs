//! Property-based tests for the state machines and the replay engine.

use cn_statemachine::two_level::TlState;
use cn_statemachine::{replay_ue, BottomTransition, TopTransition};
use cn_trace::{DeviceType, EventType, Timestamp, TraceRecord, UeId};
use proptest::prelude::*;

fn rec(t: u64, e: EventType) -> TraceRecord {
    TraceRecord::new(Timestamp::from_millis(t), UeId(0), DeviceType::Phone, e)
}

/// A random *legal* walk through the two-level machine starting from
/// DEREGISTERED, as (time, event) pairs with random gaps.
fn legal_walk() -> impl Strategy<Value = Vec<TraceRecord>> {
    (
        prop::collection::vec((0usize..16, 1u64..100_000), 0..120),
        Just(()),
    )
        .prop_map(|(choices, ())| {
            let mut state = TlState::Deregistered;
            let mut t = 0u64;
            let mut out = Vec::new();
            for (pick, gap) in choices {
                t += gap;
                let legal: Vec<EventType> = EventType::ALL
                    .into_iter()
                    .filter(|&e| state.apply(e).is_some())
                    .collect();
                if legal.is_empty() {
                    break;
                }
                let e = legal[pick % legal.len()];
                state = state.apply(e).expect("chosen legal");
                out.push(rec(t, e));
            }
            out
        })
}

fn arbitrary_stream() -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec((1u64..100_000, 0u8..6), 0..120).prop_map(|pairs| {
        let mut t = 0;
        pairs
            .into_iter()
            .map(|(gap, code)| {
                t += gap;
                rec(t, EventType::from_code(code).unwrap())
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Legal walks replay with zero violations, and every sojourn duration
    /// is consistent with the event gaps.
    #[test]
    fn legal_walks_are_conformant(events in legal_walk()) {
        let out = replay_ue(&events);
        prop_assert!(out.is_conformant(), "violations: {:?}", out.violations);
        prop_assert_eq!(out.event_context.len(), events.len());
        for s in &out.top_sojourns {
            prop_assert!(s.duration_ms > 0);
        }
    }

    /// Replay never panics on arbitrary event soup and recovers after every
    /// violation (the forced state makes the stream continue).
    #[test]
    fn arbitrary_streams_replay_totally(events in arbitrary_stream()) {
        let out = replay_ue(&events);
        prop_assert_eq!(out.event_context.len(), events.len());
        // Violations + legal moves = all events.
        prop_assert!(out.violations.len() <= events.len());
    }

    /// Replaying twice is deterministic.
    #[test]
    fn replay_is_deterministic(events in arbitrary_stream()) {
        let a = replay_ue(&events);
        let b = replay_ue(&events);
        prop_assert_eq!(a.violations, b.violations);
        prop_assert_eq!(a.top_sojourns.len(), b.top_sojourns.len());
        prop_assert_eq!(a.bottom_sojourns.len(), b.bottom_sojourns.len());
    }

    /// Every emitted sojourn references a transition whose trigger event
    /// actually exists at `enter + duration` in the stream.
    #[test]
    fn sojourns_match_stream_events(events in legal_walk()) {
        let out = replay_ue(&events);
        for s in &out.top_sojourns {
            let fire = s.enter.as_millis() + s.duration_ms;
            prop_assert!(
                events.iter().any(|r| r.t.as_millis() == fire
                    && r.event == TopTransition::event(s.transition)),
                "no {} at {}", TopTransition::event(s.transition), fire
            );
        }
        for s in &out.bottom_sojourns {
            let fire = s.enter.as_millis() + s.duration_ms;
            prop_assert!(
                events.iter().any(|r| r.t.as_millis() == fire
                    && r.event == BottomTransition::event(s.transition)),
                "no {} at {}", BottomTransition::event(s.transition), fire
            );
        }
    }
}
