//! The scenario metamorphic suite: golden pins plus the confinement and
//! determinism properties from the scenario engine's contract.
//!
//! Three claims, all over the standard golden config:
//!
//! * **identity** — the empty scenario reproduces the `standard-v1`
//!   steady-state pin byte for byte on every engine;
//! * **confinement** — for arbitrary valid two-phase scenarios, records
//!   outside every phase window are *verbatim* the unperturbed trace, and
//!   the in-window multiset delta (injections positive, outage
//!   suppressions negative) is confined to the declaring phase's window
//!   and UE subset;
//! * **determinism** — a scenario replays identically per seed,
//!   independent of engine and shard count.

use std::collections::BTreeMap;

use cn_gen::{generate, ShardedStream};
use cn_obs::Registry;
use cn_scenario::{
    apply_scenario, Phase, PhaseKind, ScenarioSpec, ScenarioStream, StormKind, TimeWindow, UeSubset,
};
use cn_trace::{DeviceType, RecordSource, Trace, TraceRecord};
use cn_verify::golden::standard_config;
use cn_verify::{
    check_pinned, flash_crowd_spec, identity_spec, paging_storm_spec, run_scenario_golden,
    GroundTruth, PIN_FLASH_CROWD, PIN_IDENTITY, PIN_PAGING_STORM,
};
use proptest::prelude::*;

#[test]
fn identity_scenario_reproduces_the_steady_state_pin() {
    let gt = GroundTruth::standard(11);
    let report = run_scenario_golden(
        &gt.set,
        &standard_config(),
        &identity_spec(),
        &Registry::disabled(),
    );
    // scenario-batch, scenario-sharded × {1,8}, scenario-outofcore.
    assert_eq!(report.cases.len(), 4);
    assert!(report.consistent, "{}", report.render());
    // The identity overlay must be byte-inert: same pin as the plain
    // steady-state golden gate, not merely internally consistent.
    let hash = report.hash().expect("consistent");
    check_pinned(PIN_IDENTITY, hash).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn canonical_scenarios_match_their_pins() {
    let gt = GroundTruth::standard(11);
    let config = standard_config();
    for (spec, key) in [
        (flash_crowd_spec(), PIN_FLASH_CROWD),
        (paging_storm_spec(), PIN_PAGING_STORM),
    ] {
        let report = run_scenario_golden(&gt.set, &config, &spec, &Registry::disabled());
        assert!(report.consistent, "{}:\n{}", spec.name, report.render());
        let hash = report.hash().expect("consistent");
        check_pinned(key, hash).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn canonical_scenarios_emit_their_counter_families() {
    let gt = GroundTruth::standard(11);
    let config = standard_config();
    let registry = Registry::new();
    let (_, stats) = apply_scenario(&paging_storm_spec(), &gt.set, &config, &registry).unwrap();
    assert!(stats.injected > 0, "storm injected nothing");
    assert!(stats.suppressed > 0, "outage suppressed nothing");
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter_total("cn_scenario_injected_total"),
        Some(stats.injected)
    );
    assert_eq!(
        snap.counter_total("cn_scenario_suppressed_total"),
        Some(stats.suppressed)
    );
    assert!(snap
        .get(
            "cn_scenario_suppressed_total",
            &[("phase", "site-down"), ("kind", "outage")]
        )
        .is_some());
}

// ---------------------------------------------------------------------------
// Arbitrary valid scenarios for the metamorphic properties.
// ---------------------------------------------------------------------------

/// A subset within the standard 40-UE population.
fn arb_subset() -> impl Strategy<Value = UeSubset> {
    (0u32..34, 1u32..7).prop_map(|(lo, len)| UeSubset::new(lo, (lo + len).min(40)))
}

fn arb_storm_kind() -> impl Strategy<Value = StormKind> {
    prop_oneof![
        Just(StormKind::Paging),
        Just(StormKind::Reestablishment),
        Just(StormKind::TauFlood),
    ]
}

fn arb_kind() -> impl Strategy<Value = PhaseKind> {
    prop_oneof![
        (arb_subset(), 1u32..5, 0u32..4).prop_map(|(ues, waves, handovers_per_ue)| {
            PhaseKind::FlashCrowd {
                ues,
                waves,
                handovers_per_ue,
            }
        }),
        (arb_subset(), arb_storm_kind(), 1u32..6).prop_map(|(ues, kind, bursts_per_ue)| {
            PhaseKind::SignalingStorm {
                ues,
                kind,
                bursts_per_ue,
            }
        }),
        arb_subset().prop_map(|ues| PhaseKind::Outage { ues }),
        (arb_subset(), 20u32..400).prop_map(|(ues, period)| PhaseKind::M2mReporting {
            ues,
            period_s: f64::from(period),
            device: DeviceType::Tablet,
        }),
    ]
}

/// Two phases with structurally disjoint windows inside the standard
/// 2-hour run: the first in the first hour, the second in the second.
fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        0u64..1_000,
        (0u32..3_000, 30u32..600, arb_kind()),
        (3_700u32..6_600, 30u32..600, arb_kind()),
    )
        .prop_map(|(seed, (s1, d1, k1), (s2, d2, k2))| ScenarioSpec {
            name: "arb".into(),
            seed,
            phases: vec![
                Phase {
                    name: "p0".into(),
                    window: TimeWindow::new(f64::from(s1), f64::from(d1)),
                    kind: k1,
                },
                Phase {
                    name: "p1".into(),
                    window: TimeWindow::new(f64::from(s2), f64::from(d2.min(6_900 - s2))),
                    kind: k2,
                },
            ],
        })
}

fn multiset(trace: &Trace) -> BTreeMap<TraceRecord, i64> {
    let mut m = BTreeMap::new();
    for r in trace.iter() {
        *m.entry(*r).or_insert(0) += 1;
    }
    m
}

/// True when `rec` falls in `phase`'s resolved window and UE subset.
fn in_phase(rec: &TraceRecord, phase: &Phase, config: &cn_gen::GenConfig) -> bool {
    let t = rec.t.as_millis();
    phase.window.start_ms(config.start) <= t
        && t < phase.window.end_ms(config.start)
        && phase.kind.ues().contains(rec.ue.get())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (b) of the metamorphic contract: every perturbation is confined to
    /// its declared window and subset; everything else is untouched.
    #[test]
    fn perturbations_are_confined_to_their_phase(spec in arb_spec()) {
        let gt = GroundTruth::standard(11);
        let config = standard_config();
        spec.validate().unwrap();
        let baseline = generate(&gt.set, &config);
        let (out, stats) =
            apply_scenario(&spec, &gt.set, &config, &Registry::disabled()).unwrap();

        // Records outside *every* phase window are a verbatim subsequence:
        // filtering both traces to outside-window instants yields equal
        // sequences.
        let outside = |t: &Trace| -> Vec<TraceRecord> {
            t.iter()
                .filter(|r| {
                    spec.phases.iter().all(|p| {
                        let ms = r.t.as_millis();
                        ms < p.window.start_ms(config.start)
                            || ms >= p.window.end_ms(config.start)
                    })
                })
                .copied()
                .collect()
        };
        prop_assert_eq!(outside(&out), outside(&baseline));

        // The multiset delta is confined: every injected record lies in a
        // non-outage phase's window+subset, every suppressed record in an
        // outage phase's window+subset.
        let base_counts = multiset(&baseline);
        let out_counts = multiset(&out);
        let mut injected = 0u64;
        let mut suppressed = 0u64;
        let keys: std::collections::BTreeSet<_> =
            base_counts.keys().chain(out_counts.keys()).collect();
        for rec in keys {
            let delta = out_counts.get(rec).copied().unwrap_or(0)
                - base_counts.get(rec).copied().unwrap_or(0);
            if delta > 0 {
                injected += delta as u64;
                prop_assert!(
                    spec.phases.iter().any(|p| {
                        !matches!(p.kind, PhaseKind::Outage { .. }) && in_phase(rec, p, &config)
                    }),
                    "injected record escaped its phase: {rec:?}"
                );
            } else if delta < 0 {
                suppressed += (-delta) as u64;
                prop_assert!(
                    spec.phases.iter().any(|p| {
                        matches!(p.kind, PhaseKind::Outage { .. }) && in_phase(rec, p, &config)
                    }),
                    "suppressed record outside every outage phase: {rec:?}"
                );
            }
        }
        prop_assert_eq!(stats.injected, injected);
        prop_assert_eq!(stats.suppressed, suppressed);
        prop_assert!(cn_trace::check_well_formed(&out).is_empty());
    }

    /// (c) of the metamorphic contract: replay determinism per seed,
    /// across engines and shard counts.
    #[test]
    fn scenarios_replay_deterministically(spec in arb_spec()) {
        let gt = GroundTruth::standard(11);
        let config = standard_config();
        let registry = Registry::disabled();
        let (a, _) = apply_scenario(&spec, &gt.set, &config, &registry).unwrap();
        let (b, _) = apply_scenario(&spec, &gt.set, &config, &registry).unwrap();
        prop_assert_eq!(&a, &b);
        for shards in [1usize, 8] {
            let source = ShardedStream::with_shards(&gt.set, &config, shards);
            let stream = ScenarioStream::new(&spec, &config, source, &registry).unwrap();
            let (sharded, _) = stream.collect_trace().unwrap();
            prop_assert_eq!(&sharded, &a, "shards={} diverged", shards);
        }
    }
}
