//! Scenario golden gates: the metamorphic regression suite for
//! `cn-scenario`.
//!
//! Three executable claims, mirroring the engine-equivalence gate in
//! [`crate::golden`]:
//!
//! * **identity** — the empty scenario is *inert*: overlaying it on the
//!   standard golden config reproduces the `standard-v1` pinned hash byte
//!   for byte, on every engine (batch, sharded × {1,8}, out-of-core);
//! * **engine equivalence** — a *perturbed* scenario also hashes
//!   identically across all engines, because injections are a pure
//!   function of `(seed, phase, ue)` and never read baseline state;
//! * **stability** — the two canonical perturbed scenarios (a flash
//!   crowd, a paging storm after an outage) are pinned in
//!   `golden/hashes.json` next to the steady-state pin, re-blessable with
//!   `CN_VERIFY_BLESS=1`.
//!
//! Hashes are taken over the canonical binary serialization; the
//! out-of-core case hashes the *sink bytes* of
//! [`cn_scenario::write_scenario_binary`] directly, proving the streaming
//! export path emits the same bytes the batch path serializes.

use cn_fit::ModelSet;
use cn_gen::{generate_out_of_core, GenConfig, OutOfCoreConfig, ShardedStream};
use cn_obs::Registry;
use cn_scenario::{
    apply_scenario, write_scenario_binary, IterSource, Phase, PhaseKind, ScenarioSpec,
    ScenarioStream, StormKind, TimeWindow, UeSubset,
};
use cn_trace::{DeviceType, RecordSource};

use crate::golden::{fnv1a64, trace_hash, GoldenCase, GoldenReport};

/// Pin key for the identity-scenario gate (shares the steady-state value:
/// identity must be byte-inert).
pub const PIN_IDENTITY: &str = "standard-v1";
/// Pin key for the canonical flash-crowd scenario.
pub const PIN_FLASH_CROWD: &str = "scenario-flash-crowd-v1";
/// Pin key for the canonical paging-storm scenario.
pub const PIN_PAGING_STORM: &str = "scenario-paging-storm-v1";

/// The identity scenario over the standard golden config.
pub fn identity_spec() -> ScenarioSpec {
    ScenarioSpec::identity("identity", 0)
}

/// Canonical flash crowd: 16 UEs attach in 4 waves over a 15-minute
/// window (each with a couple of handovers as the crowd moves between
/// cells), followed by a synchronized M2M reporting fleet — the stadium
/// scenario plus the metering fleet that doesn't care about the game.
pub fn flash_crowd_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "flash-crowd".into(),
        seed: 0xF1A5_4C04,
        phases: vec![
            Phase {
                name: "stadium-ingress".into(),
                window: TimeWindow::new(600.0, 900.0),
                kind: PhaseKind::FlashCrowd {
                    ues: UeSubset::new(0, 16),
                    waves: 4,
                    handovers_per_ue: 2,
                },
            },
            Phase {
                name: "meter-fleet".into(),
                window: TimeWindow::new(3600.0, 1800.0),
                kind: PhaseKind::M2mReporting {
                    ues: UeSubset::new(24, 32),
                    period_s: 300.0,
                    device: DeviceType::Tablet,
                },
            },
        ],
    }
}

/// Canonical paging storm: a half-hour outage over a third of the
/// population, then the re-registration avalanche — a TAU flood opening
/// the recovery, a paging storm riding on top of it.
pub fn paging_storm_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "paging-storm".into(),
        seed: 0x9A61_0570,
        phases: vec![
            Phase {
                name: "site-down".into(),
                window: TimeWindow::new(1200.0, 1800.0),
                kind: PhaseKind::Outage {
                    ues: UeSubset::new(0, 14),
                },
            },
            Phase {
                name: "tau-avalanche".into(),
                window: TimeWindow::new(3000.0, 600.0),
                kind: PhaseKind::SignalingStorm {
                    ues: UeSubset::new(0, 14),
                    kind: StormKind::TauFlood,
                    bursts_per_ue: 3,
                },
            },
            Phase {
                name: "paging-burst".into(),
                window: TimeWindow::new(3600.0, 900.0),
                kind: PhaseKind::SignalingStorm {
                    ues: UeSubset::new(0, 20),
                    kind: StormKind::Paging,
                    bursts_per_ue: 4,
                },
            },
        ],
    }
}

/// Overlay `spec` on every engine and hash each result.
///
/// Cases: `scenario-batch` (materialized overlay), `scenario-sharded` ×
/// shards {1, 8} (fallible streaming overlay), and `scenario-outofcore`
/// (baseline generated with a spill-everything out-of-core pass, decoded,
/// overlaid, and re-exported through [`write_scenario_binary`] — hashing
/// the sink bytes, not a re-serialization). `consistent` demands one hash
/// and one event count across all four.
pub fn run_scenario_golden(
    models: &ModelSet,
    config: &GenConfig,
    spec: &ScenarioSpec,
    registry: &Registry,
) -> GoldenReport {
    let mut cases = Vec::new();
    {
        let (trace, _) = apply_scenario(spec, models, config, registry)
            .unwrap_or_else(|e| panic!("scenario '{}' batch overlay failed: {e}", spec.name));
        cases.push(GoldenCase {
            engine: "scenario-batch".into(),
            shards: 0,
            events: trace.len(),
            hash: trace_hash(&trace),
        });
    }
    for shards in [1usize, 8] {
        let source = ShardedStream::with_shards(models, config, shards);
        let stream = ScenarioStream::new(spec, config, source, registry)
            .unwrap_or_else(|e| panic!("scenario '{}' rejected: {e}", spec.name));
        let (trace, _) = stream.collect_trace().unwrap_or_else(|e| {
            panic!(
                "scenario '{}' sharded overlay (shards={shards}) failed: {e}",
                spec.name
            )
        });
        cases.push(GoldenCase {
            engine: "scenario-sharded".into(),
            shards,
            events: trace.len(),
            hash: trace_hash(&trace),
        });
    }
    {
        // Baseline through the out-of-core pipeline (spill everything so
        // the disk path actually runs), then overlay the decoded records
        // and hash the streaming export's sink bytes.
        let occ = OutOfCoreConfig {
            chunk_ues: 7,
            buffer_budget_bytes: 0,
            temp_dir: None,
        };
        let (_, sink) =
            generate_out_of_core(models, config, &occ, std::io::Cursor::new(Vec::new()))
                .unwrap_or_else(|e| {
                    panic!("scenario '{}' out-of-core baseline failed: {e}", spec.name)
                });
        let baseline = cn_trace::io::from_binary(&sink.into_inner())
            .unwrap_or_else(|e| panic!("out-of-core baseline bytes unreadable: {e}"));
        let stream = ScenarioStream::new(
            spec,
            config,
            IterSource(baseline.into_records().into_iter()),
            registry,
        )
        .unwrap_or_else(|e| panic!("scenario '{}' rejected: {e}", spec.name));
        let mut out = std::io::Cursor::new(Vec::new());
        let stats = write_scenario_binary(stream, &mut out)
            .unwrap_or_else(|e| panic!("scenario '{}' out-of-core export failed: {e}", spec.name));
        cases.push(GoldenCase {
            engine: "scenario-outofcore".into(),
            shards: 0,
            events: stats.events as usize,
            hash: fnv1a64(&out.into_inner()),
        });
    }
    let consistent = cases
        .windows(2)
        .all(|w| w[0].hash == w[1].hash && w[0].events == w[1].events);
    GoldenReport { cases, consistent }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::standard_config;
    use crate::model::GroundTruth;

    #[test]
    fn canonical_specs_validate() {
        identity_spec().validate().unwrap();
        flash_crowd_spec().validate().unwrap();
        paging_storm_spec().validate().unwrap();
    }

    #[test]
    fn canonical_specs_fit_inside_the_standard_window() {
        let config = standard_config();
        let end = config.end().as_millis();
        for spec in [flash_crowd_spec(), paging_storm_spec()] {
            for phase in &spec.phases {
                assert!(
                    phase.window.end_ms(config.start) <= end,
                    "{}/{} overruns the standard config window",
                    spec.name,
                    phase.name
                );
            }
        }
    }

    #[test]
    fn canonical_specs_target_in_population_ues() {
        let total = standard_config().population.total();
        for spec in [flash_crowd_spec(), paging_storm_spec()] {
            for phase in &spec.phases {
                assert!(
                    phase.kind.ues().hi <= total,
                    "{}/{} targets UEs beyond the standard population",
                    spec.name,
                    phase.name
                );
            }
        }
    }

    #[test]
    fn perturbed_scenarios_change_the_trace() {
        let gt = GroundTruth::standard(11);
        let config = standard_config();
        let registry = Registry::disabled();
        let id = run_scenario_golden(&gt.set, &config, &identity_spec(), &registry);
        for spec in [flash_crowd_spec(), paging_storm_spec()] {
            let report = run_scenario_golden(&gt.set, &config, &spec, &registry);
            assert!(report.consistent, "{}", report.render());
            assert_ne!(
                report.hash(),
                id.hash(),
                "scenario '{}' did not perturb the trace",
                spec.name
            );
        }
    }
}
