//! Round-trip tests for the LTE → 5G SA pipeline (Table 2 + §6).
//!
//! Two invariants tie the mapping, the renderer, and the 5G SA state
//! machine together:
//!
//! * **count preservation** — converting a TAU-free LTE trace to SA
//!   records is a per-UE bijection: every UE keeps exactly its events, in
//!   order, with timestamps intact, and `to_4g ∘ from_4g` is the identity;
//! * **machine acceptance** — a trace generated from an SA-adapted model
//!   never contains an event the SA machine ([`Sa5gState`]) rejects, for
//!   any UE, starting from `DEREGISTERED`.

use std::collections::HashMap;

use cn_fit::fiveg::{adapt_model, to_sa_records, Event5G, ScalingProfile};
use cn_statemachine::fiveg::Sa5gState;
use cn_statemachine::TlState;
use cn_trace::{DeviceType, EventType, Timestamp, Trace, TraceRecord, UeId};
use proptest::prelude::*;

/// A random *legal* LTE two-level walk with no TAU events, across several
/// UEs — the SA-eligible subset of LTE traffic.
fn tau_free_walks() -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec((0u32..3, 0usize..16, 1u64..50_000), 0..150).prop_map(|steps| {
        let mut state: HashMap<u32, (TlState, u64)> = HashMap::new();
        let mut out = Vec::new();
        for (ue, pick, gap) in steps {
            let (s, t) = state.entry(ue).or_insert((TlState::Deregistered, 0));
            let legal: Vec<EventType> = EventType::ALL
                .into_iter()
                .filter(|&e| e != EventType::Tau && s.apply(e).is_some())
                .collect();
            if legal.is_empty() {
                continue;
            }
            let e = legal[pick % legal.len()];
            *s = s.apply(e).expect("chosen legal");
            *t += gap;
            out.push(TraceRecord::new(
                Timestamp::from_millis(*t),
                UeId(ue),
                DeviceType::Phone,
                e,
            ));
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mapping + rendering a TAU-free LTE trace preserves each UE's event
    /// count, order, timestamps, and (via `to_4g`) the events themselves.
    #[test]
    fn sa_rendering_preserves_per_ue_events(records in tau_free_walks()) {
        let trace = Trace::from_records(records);
        let sa = to_sa_records(&trace).expect("TAU-free traces always convert");
        prop_assert_eq!(sa.len(), trace.len());

        let mut lte_counts: HashMap<UeId, usize> = HashMap::new();
        for r in trace.iter() {
            *lte_counts.entry(r.ue).or_default() += 1;
        }
        let mut sa_counts: HashMap<UeId, usize> = HashMap::new();
        for r in &sa {
            *sa_counts.entry(r.ue).or_default() += 1;
        }
        prop_assert_eq!(&sa_counts, &lte_counts);

        // Pointwise: the renderer is order-preserving and the Table 2
        // mapping inverts exactly.
        for (lte, sa_rec) in trace.iter().zip(&sa) {
            prop_assert_eq!(sa_rec.t, lte.t);
            prop_assert_eq!(sa_rec.ue, lte.ue);
            prop_assert_eq!(sa_rec.event.to_4g(), lte.event);
        }
    }

    /// Every TAU-free legal LTE walk maps to a walk the 5G SA machine
    /// accepts: the SA machine is a faithful quotient of the two-level
    /// machine on the TAU-free sublanguage.
    #[test]
    fn sa_machine_accepts_mapped_legal_walks(records in tau_free_walks()) {
        let trace = Trace::from_records(records);
        let mut states: HashMap<UeId, Sa5gState> = HashMap::new();
        for r in trace.iter() {
            let s = states.entry(r.ue).or_insert(Sa5gState::Deregistered);
            let next = s.apply(r.event);
            prop_assert!(
                next.is_some(),
                "SA machine rejected {:?} in {:?} for {:?}",
                r.event, s, r.ue
            );
            *s = next.unwrap();
        }
    }
}

/// End-to-end: fit a model on simulated ground truth, adapt it to SA
/// (dropping TAU branches), generate — and require that the 5G machine
/// accepts every generated event for every UE. This is the "never emits an
/// event the 5G SA machine rejects" guarantee of §6.
#[test]
fn generated_sa_traces_are_accepted_by_the_sa_machine() {
    use cn_fit::{fit, FitConfig, Method};
    use cn_gen::{generate, GenConfig};
    use cn_trace::PopulationMix;
    use cn_world::{generate_world, WorldConfig};

    let world = generate_world(&WorldConfig::new(PopulationMix::new(24, 10, 6), 1.0, 3));
    let sa = adapt_model(
        &fit(&world, &FitConfig::new(Method::Ours)),
        &ScalingProfile::SA,
    );
    let trace = generate(
        &sa,
        &GenConfig::new(
            PopulationMix::new(30, 12, 8),
            Timestamp::at_hour(0, 10),
            4.0,
            77,
        ),
    );
    assert!(!trace.is_empty(), "SA generation produced an empty trace");

    // No TAU anywhere (the renderer enforces this too), and the mapped
    // stream walks the SA machine legally per UE. A UE's first event of the
    // window need not be a registration (the first-event model can start a
    // UE mid-session), so the initial state is inferred from it.
    let records = to_sa_records(&trace).expect("SA model must not emit TAU");
    assert_eq!(records.len(), trace.len());
    let mut states: HashMap<UeId, Sa5gState> = HashMap::new();
    for r in trace.iter() {
        match states.get_mut(&r.ue) {
            None => {
                let s = Sa5gState::after_event(r.event)
                    .unwrap_or_else(|| panic!("first event {:?} has no SA state", r.event));
                states.insert(r.ue, s);
            }
            Some(s) => {
                let next = s.apply(r.event).unwrap_or_else(|| {
                    panic!(
                        "SA machine rejected {:?} in {:?} for {:?} at {}",
                        r.event, s, r.ue, r.t
                    )
                });
                *s = next;
            }
        }
    }
    // The conversion kept every UE's event count.
    let mut lte_counts: HashMap<UeId, usize> = HashMap::new();
    for r in trace.iter() {
        *lte_counts.entry(r.ue).or_default() += 1;
    }
    let mut sa_counts: HashMap<UeId, usize> = HashMap::new();
    for r in &records {
        *sa_counts.entry(r.ue).or_default() += 1;
    }
    assert_eq!(sa_counts, lte_counts);
}

#[test]
fn event5g_mapping_is_total_except_tau() {
    for e in EventType::ALL {
        match Event5G::from_4g(e) {
            Some(g) => assert_eq!(g.to_4g(), e),
            None => assert_eq!(e, EventType::Tau, "only TAU has no SA counterpart"),
        }
    }
}

/// An SA-adapted model of a one-day world generates a trace that renders
/// to SA records one for one.
#[test]
fn generated_sa_traces_render() {
    use cn_fit::{fit, FitConfig, Method};
    use cn_gen::{generate, GenConfig};
    use cn_trace::PopulationMix;
    use cn_world::{generate_world, WorldConfig};
    let world = generate_world(&WorldConfig::new(PopulationMix::new(20, 10, 5), 1.0, 3));
    let sa = adapt_model(
        &fit(&world, &FitConfig::new(Method::Ours)),
        &ScalingProfile::SA,
    );
    let trace = generate(
        &sa,
        &GenConfig::new(
            PopulationMix::new(20, 10, 5),
            Timestamp::at_hour(0, 12),
            3.0,
            8,
        ),
    );
    let records = to_sa_records(&trace).expect("SA model emits no TAU");
    assert_eq!(records.len(), trace.len());
}

/// An SA-adapted model of a two-day world generates no TAU, and every
/// UE's stream walks the Fig. 6 machine from the state its first event
/// implies.
#[test]
fn sa_generated_traces_obey_fig6() {
    use cn_fit::{fit, FitConfig, Method};
    use cn_gen::{generate, GenConfig};
    use cn_statemachine::fiveg::ConnSub5g;
    use cn_trace::PopulationMix;
    use cn_world::{generate_world, WorldConfig};
    let world = generate_world(&WorldConfig::new(PopulationMix::new(40, 25, 10), 2.0, 13));
    let sa = adapt_model(
        &fit(&world, &FitConfig::new(Method::Ours)),
        &ScalingProfile::SA,
    );
    let config = GenConfig::new(
        PopulationMix::new(20, 10, 5),
        Timestamp::at_hour(0, 10),
        2.0,
        17,
    );
    let trace = generate(&sa, &config);
    assert!(!trace.is_empty());
    for (ue, events) in trace.per_ue().iter() {
        let mut state = match events[0].event {
            EventType::Attach => Sa5gState::Deregistered,
            EventType::S1ConnRelease | EventType::Handover => {
                Sa5gState::Connected(ConnSub5g::SrvReqS)
            }
            _ => Sa5gState::Idle,
        };
        for r in events {
            assert_ne!(r.event, EventType::Tau, "{ue}: TAU in SA trace");
            state = state
                .apply(r.event)
                .unwrap_or_else(|| panic!("{ue}: {} illegal in {state}", r.event));
        }
    }
}
