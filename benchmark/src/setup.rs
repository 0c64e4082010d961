//! What every workload shares: the set-up (simulate a world, fit the
//! models), the population mix, the storm block and the simulator
//! configuration. All of it is a pure function of `--seed`.

use crate::harness::Staged;
use cn_fit::{fit, FitConfig, Method, ModelSet};
use cn_gen::GenConfig;
use cn_mcn::{AdmissionPolicy, DesConfig};
use cn_scenario::{Phase, PhaseKind, ScenarioSpec, StormKind, TimeWindow, UeSubset};
use cn_trace::{DeviceType, PopulationMix, Timestamp};
use cn_world::{generate_world, WorldConfig};
use std::time::Instant;

/// Full size, or the `--smoke` size: populations / 100 and a world a tenth
/// the size over two days, so all four workloads run in seconds. Smoke
/// numbers check the plumbing and mean nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    /// A full-size UE count at this scale.
    pub fn ues(&self, full: u32) -> u32 {
        if self.smoke {
            full / 100
        } else {
            full
        }
    }

    fn world(&self, seed: u64) -> WorldConfig {
        if self.smoke {
            WorldConfig::new(PopulationMix::new(120, 50, 25), 2.0, seed)
        } else {
            WorldConfig::new(PopulationMix::new(1200, 500, 250), 7.0, seed)
        }
    }
}

/// `total` UEs in the benchmark's fixed mix: 62.5 % phones, 25 % connected
/// cars, 12.5 % tablets (the `gen_bench` mix).
pub fn mix(total: u32) -> PopulationMix {
    PopulationMix::new(total * 5 / 8, total / 4, total / 8)
}

/// A generation run of `ues` UEs over `hours`, starting 06:00 on day 0.
pub fn gen_config(ues: u32, hours: f64, seed: u64) -> GenConfig {
    GenConfig::new(mix(ues), Timestamp::at_hour(0, 6), hours, seed)
}

/// One set-up's measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetUp {
    pub simulate_s: f64,
    pub fit_s: f64,
    pub world_events: u64,
    /// `replay_trace` over the world trace: seconds and violations. Only the
    /// traced run replays; set-up itself does not need it.
    pub replay_s: f64,
    pub violations: u64,
    pub cells: u64,
}

impl SetUp {
    /// What `setup_s` reports: the work every workload pays before timing.
    pub fn seconds(&self) -> f64 {
        self.simulate_s + self.fit_s
    }
}

/// Simulate the world and fit `Method::Ours` to it. The world trace is
/// dropped before returning, so it never counts towards a workload's RSS.
/// With `staged`, each layer's entry point becomes a span and the world
/// trace is additionally replayed through the state machine.
pub fn set_up(seed: u64, scale: Scale, staged: Option<&mut Staged>) -> (ModelSet, SetUp) {
    let world_config = scale.world(seed);
    let fit_config = FitConfig::new(Method::Ours);
    let mut out = SetUp::default();
    let models = match staged {
        None => {
            let t0 = Instant::now();
            let world = generate_world(&world_config);
            out.simulate_s = t0.elapsed().as_secs_f64();
            out.world_events = world.len() as u64;
            let t0 = Instant::now();
            let models = fit(&world, &fit_config);
            out.fit_s = t0.elapsed().as_secs_f64();
            models
        }
        Some(staged) => {
            let (world, s) =
                staged.stage("setup", "world.simulate", || generate_world(&world_config));
            out.simulate_s = s;
            out.world_events = world.len() as u64;
            let (replay, s) = staged.stage("setup", "statemachine.replay", || {
                cn_statemachine::replay_trace(world.records())
            });
            out.replay_s = s;
            out.violations = replay.violations.len() as u64;
            drop(replay);
            let (models, s) = staged.stage("setup", "fit.fit", || fit(&world, &fit_config));
            out.fit_s = s;
            models
        }
    };
    out.cells = cn_fit::inventory(&models).total_models as u64;
    (models, out)
}

/// Hours one storm block spans from its anchor (the last phase ends here).
pub const STORM_BLOCK_HOURS: f64 = 5.5;

/// The storm scenario: one block of four disjoint perturbations per anchor
/// hour, UE subsets as fractions of a `ues` population (20 000 at full
/// size: flash crowd 0–4000, outage + TAU flood 4000–10000, paging storm
/// 0–8000, M2M fleet 17500–19500).
pub fn storm_spec(ues: u32, seed: u64, anchors_h: &[f64]) -> ScenarioSpec {
    let at = |per_20k: u32| (u64::from(ues) * u64::from(per_20k) / 20_000) as u32;
    let subset = |lo: u32, hi: u32| UeSubset::new(at(lo), at(hi).max(at(lo) + 1));
    let mut phases = Vec::new();
    for (block, &anchor_h) in anchors_h.iter().enumerate() {
        let mut phase = |name: &str, start_h: f64, duration_s: f64, kind: PhaseKind| {
            phases.push(Phase {
                name: format!("{name}-{block}"),
                window: TimeWindow::new((anchor_h + start_h) * 3600.0, duration_s),
                kind,
            });
        };
        phase(
            "flash-crowd",
            1.0,
            600.0,
            PhaseKind::FlashCrowd {
                ues: subset(0, 4_000),
                waves: 4,
                handovers_per_ue: 2,
            },
        );
        phase(
            "outage",
            2.0,
            1_800.0,
            PhaseKind::Outage {
                ues: subset(4_000, 10_000),
            },
        );
        phase(
            "tau-flood",
            2.5,
            300.0,
            PhaseKind::SignalingStorm {
                ues: subset(4_000, 10_000),
                kind: StormKind::TauFlood,
                bursts_per_ue: 3,
            },
        );
        phase(
            "paging-storm",
            3.5,
            600.0,
            PhaseKind::SignalingStorm {
                ues: subset(0, 8_000),
                kind: StormKind::Paging,
                bursts_per_ue: 4,
            },
        );
        phase(
            "m2m-reporting",
            4.5,
            3_600.0,
            PhaseKind::M2mReporting {
                ues: subset(17_500, 19_500),
                period_s: 60.0,
                device: DeviceType::Tablet,
            },
        );
    }
    let spec = ScenarioSpec {
        name: "storm".into(),
        seed,
        phases,
    };
    spec.validate()
        .expect("the storm block's phases are disjoint");
    spec
}

/// The benchmark-owned simulator configuration: `default_epc` with every
/// service time × 25, which at 20 000 UEs idles the MME near 30 %
/// utilisation and lets the storms drive it through autoscaling, plus a
/// token bucket sized so the storms (the zero-jitter M2M beacons most of
/// all) shed a few percent. Shedding is a simulated statistic, not a failed
/// operation.
pub fn des_config(ues: u32, seed: u64) -> DesConfig {
    let mut config = DesConfig::default_epc(seed);
    for nf in &mut config.nfs {
        nf.service = nf.service.scale_values(25.0);
    }
    let per_20k = f64::from(ues) / 20_000.0;
    config.with_admission(AdmissionPolicy {
        rate_per_sec: (200.0 * per_20k).max(1.0),
        burst: (2_400.0 * per_20k).max(8.0),
        high_reserve: 0.3,
        critical_reserve: 0.1,
    })
}
