//! Property suite for [`ScenarioSpec`]: serde round-trips, typed
//! validation rejections, and seed-determinism of the overlay across
//! shard counts — the spec-level half of the metamorphic contract
//! (`cn-verify`'s scenario suite holds the trace-level half).

use std::sync::OnceLock;

use cn_fit::{fit, FitConfig, Method, ModelSet};
use cn_gen::{GenConfig, ShardedStream};
use cn_obs::Registry;
use cn_scenario::{
    apply_scenario, Phase, PhaseKind, ScenarioSpec, ScenarioStream, SpecError, StormKind,
    TimeWindow, UeSubset,
};
use cn_trace::{DeviceType, PopulationMix, RecordSource, Timestamp};
use cn_world::{generate_world, WorldConfig};
use proptest::prelude::*;

/// One fitted model set shared by every case (fitting per case would
/// dominate the suite's runtime without adding coverage).
fn models() -> &'static ModelSet {
    static MODELS: OnceLock<ModelSet> = OnceLock::new();
    MODELS.get_or_init(|| {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(16, 6, 4), 2.0, 3));
        fit(&trace, &FitConfig::new(Method::Ours))
    })
}

fn config() -> GenConfig {
    GenConfig::new(
        PopulationMix::new(16, 6, 4),
        Timestamp::at_hour(0, 9),
        1.0,
        0xD00D,
    )
}

fn arb_subset() -> impl Strategy<Value = UeSubset> {
    (0u32..22, 1u32..6).prop_map(|(lo, len)| UeSubset::new(lo, lo + len))
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
        (arb_subset(), 1u32..4, 0u32..3).prop_map(|(ues, waves, handovers_per_ue)| {
            PhaseKind::FlashCrowd {
                ues,
                waves,
                handovers_per_ue,
            }
        }),
        (arb_subset(), arb_storm_kind(), 1u32..5).prop_map(|(ues, kind, bursts_per_ue)| {
            PhaseKind::SignalingStorm {
                ues,
                kind,
                bursts_per_ue,
            }
        }),
        arb_subset().prop_map(|ues| PhaseKind::Outage { ues }),
        (arb_subset(), 10u32..200).prop_map(|(ues, period)| PhaseKind::M2mReporting {
            ues,
            period_s: f64::from(period),
            device: DeviceType::ConnectedCar,
        }),
    ]
}

/// A valid spec: up to three phases, windows structurally disjoint (each
/// phase confined to its own 1200 s slot of the hour).
fn arb_valid_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        0u64..10_000,
        prop::collection::vec((0u32..900, 30u32..300, arb_kind()), 0..3),
    )
        .prop_map(|(seed, phases)| ScenarioSpec {
            name: "prop".into(),
            seed,
            phases: phases
                .into_iter()
                .enumerate()
                .map(|(i, (offset, dur, kind))| Phase {
                    name: format!("p{i}"),
                    window: TimeWindow::new(f64::from(i as u32 * 1_200 + offset), f64::from(dur)),
                    kind,
                })
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Specs survive a serde round trip exactly (including phase order,
    /// float windows, and every kind variant).
    #[test]
    fn spec_serde_round_trips(spec in arb_valid_spec()) {
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(spec, back);
    }

    /// Structurally disjoint windows always validate.
    #[test]
    fn disjoint_specs_validate(spec in arb_valid_spec()) {
        prop_assert_eq!(spec.validate(), Ok(()));
    }

    /// Corrupting any window float with NaN / infinity / a negative value
    /// yields the matching typed error, never a panic or a silent clamp.
    #[test]
    fn corrupted_windows_are_rejected_with_typed_errors(
        spec in arb_valid_spec(),
        which in 0usize..3,
        bad in 0usize..4,
    ) {
        prop_assume!(!spec.phases.is_empty());
        let mut spec = spec;
        let i = which % spec.phases.len();
        let w = &mut spec.phases[i].window;
        let expect_field = match bad {
            0 => { w.start_s = f64::NAN; "window.start_s" }
            1 => { w.duration_s = f64::INFINITY; "window.duration_s" }
            2 => { w.start_s = -4.5; "window.start_s" }
            _ => { w.duration_s = -0.25; "window.duration_s" }
        };
        match spec.validate() {
            Err(SpecError::NonFinite { phase, field, .. })
            | Err(SpecError::Negative { phase, field, .. }) => {
                prop_assert_eq!(phase, i);
                prop_assert_eq!(field, expect_field);
            }
            other => return Err(TestCaseError::fail(format!(
                "expected a typed window error, got {other:?}"
            ))),
        }
    }

    /// Shrinking a phase window onto a later one is always caught as an
    /// overlap (or stays valid if the windows remain disjoint) — never a
    /// different error class.
    #[test]
    fn overlap_detection_is_order_independent(
        spec in arb_valid_spec(),
        stretch in 1u32..2_000,
    ) {
        prop_assume!(spec.phases.len() >= 2);
        let mut spec = spec;
        spec.phases[0].window.duration_s += f64::from(stretch);
        let overlaps = spec.phases[0].window.end_ms(Timestamp::from_millis(0))
            > spec.phases[1].window.start_ms(Timestamp::from_millis(0));
        let verdict = spec.validate();
        if overlaps {
            prop_assert!(
                matches!(verdict, Err(SpecError::OverlappingWindows { .. })),
                "stretched window must overlap: {verdict:?}"
            );
            // Declaration order must not matter.
            spec.phases.reverse();
            prop_assert!(matches!(
                spec.validate(),
                Err(SpecError::OverlappingWindows { .. })
            ));
        } else {
            prop_assert_eq!(verdict, Ok(()));
        }
    }

    /// The overlay is a pure function of the spec seed: the same spec
    /// replays identically over shard counts {1, 4, 8}, and (when it
    /// injects anything) a different seed moves the injected events.
    #[test]
    fn overlay_is_seed_deterministic_across_shards(spec in arb_valid_spec()) {
        let models = models();
        let config = config();
        let registry = Registry::disabled();
        let (batch, stats) = apply_scenario(&spec, models, &config, &registry).unwrap();
        for shards in [1usize, 4, 8] {
            let source = ShardedStream::with_shards(models, &config, shards);
            let stream = ScenarioStream::new(&spec, &config, source, &registry).unwrap();
            let (out, sharded_stats) = stream.collect_trace().unwrap();
            prop_assert_eq!(&out, &batch, "shards={} diverged", shards);
            prop_assert_eq!(&sharded_stats, &stats);
        }
        // Storms and crowds draw times from the seeded RNG, so reseeding
        // moves them; the purely structural phases (outage, M2M) are
        // seed-independent by design.
        let seed_sensitive = spec.phases.iter().any(|p| match &p.kind {
            PhaseKind::FlashCrowd { .. } => true,
            PhaseKind::SignalingStorm { .. } => true,
            PhaseKind::Outage { .. } | PhaseKind::M2mReporting { .. } => false,
        });
        if seed_sensitive {
            let mut reseeded = spec.clone();
            reseeded.seed = spec.seed.wrapping_add(1);
            let (other, _) = apply_scenario(&reseeded, models, &config, &registry).unwrap();
            prop_assert_ne!(other, batch);
        }
    }
}
