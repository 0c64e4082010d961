//! Quick-scale integration tests of the verification harness itself.
//!
//! The acceptance-scale round trip (2,000 UEs over 6 hours) lives in the
//! workspace root's `tests/round_trip.rs`; here the same machinery runs at
//! a size suited to the inner development loop.

use cn_verify::{
    check_pinned, run_golden, run_golden_observed, run_round_trip, GroundTruth, RoundTripConfig,
};

#[test]
fn quick_round_trip_recovers_the_model() {
    let gt = GroundTruth::standard(11);
    let report = run_round_trip(&gt, &RoundTripConfig::quick(911));
    assert_eq!(
        report.violations,
        0,
        "replay rejected events:\n{}",
        report.report.render()
    );
    assert_eq!(report.acceptance_rate, 1.0);
    // All 11 ground-truth transitions (5 top + 6 bottom) were observed and
    // checked.
    assert_eq!(report.checks.len(), 11);
    assert!(report.all_pass(), "{}", report.report.render());
}

#[test]
fn round_trip_is_deterministic() {
    let gt = GroundTruth::standard(11);
    let cfg = RoundTripConfig::quick(4242);
    let a = run_round_trip(&gt, &cfg);
    let b = run_round_trip(&gt, &cfg);
    assert_eq!(a, b);
    // A different generator seed draws a different trace.
    let c = run_round_trip(&gt, &RoundTripConfig::quick(4243));
    assert_ne!(a.generated_events, 0);
    assert_ne!(
        serde_json::to_string(&a.checks).unwrap(),
        serde_json::to_string(&c.checks).unwrap()
    );
}

#[test]
fn golden_hashes_agree_across_engines_and_match_the_pin() {
    let gt = GroundTruth::standard(11);
    let report = run_golden(&gt.set, &cn_verify::golden::standard_config());
    // stream, sharded × shards {1,8}, and the out-of-core exporter with
    // all-memory, spill-everything and split budgets.
    assert_eq!(report.cases.len(), 6);
    assert!(report.consistent, "{}", report.render());
    // Explicit workload-size accounting: a hash agreement over truncated
    // traces would be meaningless, so every engine must also have drained
    // the full (non-empty) workload.
    let expected = report.cases[0].events;
    assert!(expected > 0, "golden workload must not be empty");
    for c in &report.cases {
        assert_eq!(
            c.events, expected,
            "{} (shards={}) drained a different workload",
            c.engine, c.shards
        );
    }
    let hash = report.hash().expect("consistent");
    check_pinned("standard-v1", hash).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn observed_golden_run_is_identical_and_keeps_a_balanced_ledger() {
    let gt = GroundTruth::standard(11);
    let config = cn_verify::golden::standard_config();
    let registry = cn_obs::Registry::new();
    let observed = run_golden_observed(&gt.set, &config, &registry);
    // Instrumentation must be inert: the observed run reproduces the
    // unobserved hashes byte for byte.
    assert_eq!(observed, run_golden(&gt.set, &config));
    let events = observed.cases[0].events as u64;
    assert!(events > 0, "golden workload must not be empty");
    // Every case drained the same, full workload (also enforced inside
    // run_golden_observed, and folded into `consistent`).
    assert!(observed.cases.iter().all(|c| c.events as u64 == events));
    let snap = registry.snapshot();
    // Two sharded cases (shards 1 and 8) drained through the merge; only
    // the 8-shard case runs parallel workers with per-shard counters.
    assert_eq!(snap.counter("cn_gen_merge_events_total"), Some(2 * events));
    assert_eq!(
        snap.counter_total("cn_gen_shard_events_total"),
        Some(events)
    );
    // Failure telemetry for a clean gate: all eight workers of the 8-shard
    // case exited `completed`; nothing panicked or was cancelled.
    let outcome = |o: &str| {
        snap.get("cn_gen_worker_exit", &[("outcome", o)])
            .map(|m| match m.value {
                cn_obs::MetricValue::Counter { value } => value,
                _ => panic!("worker exit must be a counter"),
            })
    };
    assert_eq!(outcome("completed"), Some(8));
    assert_eq!(outcome("panicked"), None);
    assert_eq!(outcome("cancelled"), None);
    assert_eq!(snap.counter_total("cn_gen_shard_panics_total"), None);
}

#[test]
fn a_corrupted_trace_fails_conformance() {
    use cn_statemachine::replay::replay_trace;
    use cn_trace::{DeviceType, EventType, Timestamp, TraceRecord, UeId};
    // HO while deregistered is illegal in the two-level machine.
    let records = vec![
        TraceRecord::new(
            Timestamp::from_secs(1),
            UeId(0),
            DeviceType::Phone,
            EventType::Attach,
        ),
        TraceRecord::new(
            Timestamp::from_secs(2),
            UeId(0),
            DeviceType::Phone,
            EventType::Detach,
        ),
        TraceRecord::new(
            Timestamp::from_secs(3),
            UeId(0),
            DeviceType::Phone,
            EventType::Handover,
        ),
    ];
    let replay = replay_trace(&records);
    assert!(!replay.is_conformant());
    assert_eq!(replay.violations.len(), 1);
    assert!(replay.acceptance_rate() < 1.0);
}
