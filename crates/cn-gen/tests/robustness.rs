//! Generator robustness against degenerate and hostile model inputs.
//!
//! The generator must terminate and stay within its window no matter how
//! sparse or broken the fitted models are — silent cluster-hours, missing
//! transitions, empty personas, zero-probability corner cases.

use cn_cluster::ClusterId;
use cn_fit::{
    ClusterHourModel, DeviceModels, FirstEventModel, HourModels, Method, ModelSet, SemiMarkovModel,
};
use cn_gen::{generate, GenConfig, PopulationStream, ShardedStream, UeEventIter};
use cn_statemachine::TopTransition;
use cn_stats::Ecdf;
use cn_trace::{DeviceType, EventType, PopulationMix, RecordSource, Timestamp, Trace, UeId};
use std::collections::HashMap;

fn empty_device(device: DeviceType) -> DeviceModels {
    DeviceModels {
        device,
        personas: vec![[ClusterId(0); 24]],
        hours: (0..24)
            .map(|_| HourModels {
                clusters: vec![ClusterHourModel::empty()],
            })
            .collect(),
    }
}

fn model_set(devices: Vec<DeviceModels>) -> ModelSet {
    ModelSet {
        method: Method::Ours,
        devices,
        n_days: 1,
    }
}

#[test]
fn all_empty_models_terminate_silently() {
    let set = model_set(vec![
        empty_device(DeviceType::Phone),
        empty_device(DeviceType::ConnectedCar),
        empty_device(DeviceType::Tablet),
    ]);
    let config = GenConfig::new(
        PopulationMix::new(10, 5, 5),
        Timestamp::at_hour(0, 0),
        48.0,
        1,
    );
    let trace = generate(&set, &config);
    assert!(trace.is_empty(), "{} events from empty models", trace.len());
}

#[test]
fn first_event_only_models_emit_exactly_the_bootstrap() {
    // A model with a first-event distribution but no transitions: each
    // generator emits its bootstrap event and then nothing.
    let mut device = empty_device(DeviceType::Phone);
    for hm in &mut device.hours {
        hm.clusters[0].first_event = FirstEventModel::fit(
            &[
                (EventType::ServiceRequest, 100.0),
                (EventType::ServiceRequest, 900.0),
            ],
            0,
        );
    }
    let set = model_set(vec![
        device,
        empty_device(DeviceType::ConnectedCar),
        empty_device(DeviceType::Tablet),
    ]);
    let trace = UeEventIter::new(
        set.device(DeviceType::Phone),
        Method::Ours,
        UeId(0),
        Timestamp::at_hour(0, 3),
        Timestamp::at_hour(0, 5),
        7,
    )
    .collect::<Trace>();
    assert_eq!(trace.len(), 1, "{trace:?}");
    assert_eq!(trace.records()[0].event, EventType::ServiceRequest);
}

#[test]
fn top_only_models_oscillate_legally() {
    // Only CONNECTED↔IDLE transitions, no bottom machine, no exit info:
    // the generator must produce a legal SRV_REQ/S1_CONN_REL alternation.
    let mut device = empty_device(DeviceType::Phone);
    for hm in &mut device.hours {
        let c = &mut hm.clusters[0];
        c.first_event = FirstEventModel::fit(&[(EventType::ServiceRequest, 10.0)], 0);
        let mut samples: HashMap<TopTransition, Vec<f64>> = HashMap::new();
        samples.insert(TopTransition::ConnToIdle, vec![5.0, 8.0, 13.0]);
        samples.insert(TopTransition::IdleToConn, vec![30.0, 60.0, 90.0]);
        c.top = SemiMarkovModel::fit(&samples, cn_fit::DistributionKind::EmpiricalCdf);
    }
    let set = model_set(vec![
        device,
        empty_device(DeviceType::ConnectedCar),
        empty_device(DeviceType::Tablet),
    ]);
    let trace = UeEventIter::new(
        set.device(DeviceType::Phone),
        Method::Ours,
        UeId(0),
        Timestamp::at_hour(0, 0),
        Timestamp::at_hour(0, 2),
        3,
    )
    .collect::<Trace>();
    assert!(trace.len() > 10, "only {} events", trace.len());
    // Strict alternation after the bootstrap.
    for w in trace.records().windows(2) {
        assert_ne!(w[0].event, w[1].event, "{w:?}");
    }
    let out = cn_statemachine::replay_ue(trace.records());
    assert!(out.is_conformant());
}

#[test]
fn degenerate_sojourns_do_not_livelock() {
    // All-zero sojourn samples: every transition fires "immediately", but
    // the millisecond bump keeps time moving and the window bounds work.
    let mut device = empty_device(DeviceType::Tablet);
    for hm in &mut device.hours {
        let c = &mut hm.clusters[0];
        c.first_event = FirstEventModel::fit(&[(EventType::ServiceRequest, 0.0)], 0);
        let mut samples: HashMap<TopTransition, Vec<f64>> = HashMap::new();
        samples.insert(TopTransition::ConnToIdle, vec![0.0]);
        samples.insert(TopTransition::IdleToConn, vec![0.0]);
        c.top = SemiMarkovModel::fit(&samples, cn_fit::DistributionKind::EmpiricalCdf);
    }
    let set = model_set(vec![
        empty_device(DeviceType::Phone),
        empty_device(DeviceType::ConnectedCar),
        device,
    ]);
    let trace = UeEventIter::new(
        set.device(DeviceType::Tablet),
        Method::Ours,
        UeId(0),
        Timestamp::at_hour(0, 0),
        Timestamp::from_millis(2_000), // tiny window
        11,
    )
    .collect::<Trace>();
    // Terminates, bounded by the window (≤ 1 event per ms).
    assert!(trace.len() <= 2_000);
    assert!(!trace.is_empty());
    for r in trace.iter() {
        assert!(r.t.as_millis() < 2_000);
    }
}

#[test]
fn non_finite_and_negative_durations_yield_empty_traces() {
    // A model set that demonstrably generates for a sane window, so an
    // empty result below is attributable to the duration handling alone.
    let world = cn_world::generate_world(&cn_world::WorldConfig::new(
        PopulationMix::new(12, 5, 3),
        1.0,
        3,
    ));
    let set = cn_fit::fit(&world, &cn_fit::FitConfig::new(Method::Ours));
    let sane = GenConfig::new(
        PopulationMix::new(12, 5, 3),
        Timestamp::at_hour(0, 10),
        1.0,
        11,
    );
    assert!(!generate(&set, &sane).is_empty(), "sane window generates");

    // `duration_hours` is a public field, so hostile values can bypass the
    // constructor's saturation; every engine must produce an *empty* trace
    // (end == start), never garbage or a never-ending stream.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0] {
        let mut config = sane;
        config.duration_hours = bad;
        assert_eq!(config.end(), config.start, "duration {bad}");
        assert!(generate(&set, &config).is_empty(), "batch, duration {bad}");
        assert_eq!(
            PopulationStream::new(&set, &config).count(),
            0,
            "stream, duration {bad}"
        );
        let (sharded, _) = ShardedStream::with_shards(&set, &config, 2)
            .collect_trace()
            .expect("no fault injected");
        assert!(sharded.is_empty(), "sharded, duration {bad}");
    }
}

#[test]
fn broken_ecdf_probabilities_stay_in_window() {
    // A first-event model whose offsets exceed the hour (hostile input
    // crafted via direct struct construction): events must still be
    // clamped into the generation window.
    let mut device = empty_device(DeviceType::Phone);
    for hm in &mut device.hours {
        hm.clusters[0].first_event = FirstEventModel {
            events: vec![(EventType::ServiceRequest, 1.0)],
            offset_secs: Some(Ecdf::new(vec![86_400.0]).unwrap()), // a day!
            active_prob: 1.0,
        };
    }
    let set = model_set(vec![
        device,
        empty_device(DeviceType::ConnectedCar),
        empty_device(DeviceType::Tablet),
    ]);
    let trace = UeEventIter::new(
        set.device(DeviceType::Phone),
        Method::Ours,
        UeId(0),
        Timestamp::at_hour(0, 0),
        Timestamp::at_hour(0, 6),
        1,
    )
    .collect::<Trace>();
    // The absurd offset never lands inside any hour, so nothing is emitted
    // — but nothing panics or escapes the window either.
    for r in trace.iter() {
        assert!(r.t < Timestamp::at_hour(0, 6));
    }
}
