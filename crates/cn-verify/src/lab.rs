//! The experiment lab: shared, lazily computed artifacts.
//!
//! Reproducing the paper's evaluation needs a handful of expensive
//! artifacts — the 7-day "real" world trace, four fitted model sets (Base,
//! B1, B2, Ours), two validation-scenario real traces, and synthesized
//! traces per (method, scenario). [`Lab`] memoizes each behind a
//! `OnceLock` so the full table battery shares work. Of the world it also
//! keeps one `WorldProfile` (the §4 characterization), one test-battery
//! result per clustering mode (Tables 8–10) and each Fig. 3 stream once it
//! is read; of a validation trace it keeps only the [`Profile`] every
//! comparison reads.

use crate::profile::Profile;
use crate::report::Table;
use crate::testsuite::{run_suite, run_suite_with, SuiteResult, SuiteTest};
use crate::world_profile::{Stream, WorldProfile, STREAMS};
use cn_fit::cluster::ClusteringParams;
use cn_fit::{fit, FitConfig, Method, ModelSet};
use cn_gen::{generate, GenConfig};
use cn_trace::{DeviceType, PopulationMix, Timestamp, Trace};
use cn_world::{generate_world, WorldConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Validation scenarios of §8.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// Scenario 1: a population the size of the modeled trace (≈1×).
    One,
    /// Scenario 2: ten times the modeled population.
    Two,
}

impl Scenario {
    /// Index usable for per-scenario arrays.
    pub(crate) const fn index(self) -> usize {
        match self {
            Scenario::One => 0,
            Scenario::Two => 1,
        }
    }
}

/// Scale and seed configuration of an experiment battery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Population of the modeled ("training") world trace.
    pub model_mix: PopulationMix,
    /// Scenario 1 validation population (paper: 38K ≈ 1×).
    pub(crate) scenario1_mix: PopulationMix,
    /// Scenario 2 validation population (paper: 380K = 10×).
    pub(crate) scenario2_mix: PopulationMix,
    /// Length of the modeled trace in days (paper: 7).
    pub(crate) days: f64,
    /// Length of the synthesized 5G trace in days (Table 7).
    pub(crate) fiveg_days: f64,
    /// Master seed.
    pub seed: u64,
    /// The "busy hour" used for the validation scenarios.
    pub busy_hour: u8,
    /// Clustering thresholds.
    pub(crate) clustering: ClusteringParams,
}

impl ExperimentConfig {
    /// Small configuration for tests and smoke runs (seconds, not minutes).
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            model_mix: PopulationMix::new(60, 25, 15),
            scenario1_mix: PopulationMix::new(60, 25, 15),
            scenario2_mix: PopulationMix::new(180, 75, 45),
            days: 2.0,
            fiveg_days: 1.0,
            seed: 2024,
            busy_hour: 18,
            clustering: ClusteringParams {
                theta_n: 20,
                ..ClusteringParams::default()
            },
        }
    }

    /// Default reproduction scale: ~1/20 of the paper's populations, same
    /// structure (7-day modeled week, 1× and 10× validation scenarios).
    /// Runs the full battery in minutes on a laptop.
    pub fn default_scale() -> ExperimentConfig {
        ExperimentConfig {
            model_mix: PopulationMix::new(1_170, 465, 230),
            scenario1_mix: PopulationMix::new(1_190, 475, 235),
            scenario2_mix: PopulationMix::new(11_900, 4_750, 2_350),
            days: 7.0,
            fiveg_days: 2.0,
            seed: 2023,
            busy_hour: 18,
            clustering: ClusteringParams {
                theta_n: 60,
                ..ClusteringParams::default()
            },
        }
    }

    /// The paper's full scale (37,325 modeled UEs; 38K / 380K scenarios).
    /// `repro --scale paper all` took 522 s on a 2-vCPU machine, against
    /// seconds for `default_scale`; use that unless you mean it.
    pub fn paper_scale() -> ExperimentConfig {
        ExperimentConfig {
            model_mix: PopulationMix::PAPER,
            scenario1_mix: PopulationMix::new(23_810, 9_475, 4_715),
            scenario2_mix: PopulationMix::new(238_100, 94_750, 47_150),
            days: 7.0,
            fiveg_days: 7.0,
            seed: 2023,
            busy_hour: 18,
            clustering: ClusteringParams::default(),
        }
    }

    /// Population of a scenario.
    pub(crate) fn scenario_mix(&self, s: Scenario) -> PopulationMix {
        match s {
            Scenario::One => self.scenario1_mix,
            Scenario::Two => self.scenario2_mix,
        }
    }
}

/// Memoized experiment artifacts.
pub struct Lab {
    /// The configuration this lab runs at.
    pub cfg: ExperimentConfig,
    world: OnceLock<Trace>,
    world_profile: OnceLock<WorldProfile>,
    streams: [[OnceLock<Stream>; 4]; 3],
    suites: [OnceLock<SuiteResult>; 2],
    real: [OnceLock<Profile>; 2],
    // Crate-visible so tests can swap a method's models or draws.
    pub(crate) models: [OnceLock<ModelSet>; 4],
    pub(crate) synth: [[OnceLock<Profile>; 2]; 4],
}

impl Lab {
    /// Create a lab for a configuration (computes nothing yet).
    pub fn new(cfg: ExperimentConfig) -> Lab {
        Lab {
            cfg,
            world: OnceLock::new(),
            world_profile: OnceLock::new(),
            streams: std::array::from_fn(|_| std::array::from_fn(|_| OnceLock::new())),
            suites: std::array::from_fn(|_| OnceLock::new()),
            real: std::array::from_fn(|_| OnceLock::new()),
            models: std::array::from_fn(|_| OnceLock::new()),
            synth: std::array::from_fn(|_| std::array::from_fn(|_| OnceLock::new())),
        }
    }

    /// The modeled ("training") world trace: `days` of the model
    /// population.
    pub fn world(&self) -> &Trace {
        self.world.get_or_init(|| {
            generate_world(&WorldConfig::new(
                self.cfg.model_mix,
                self.cfg.days,
                self.cfg.seed,
            ))
        })
    }

    /// The modeled world measured for Table 1 and Figs. 2–4.
    pub(crate) fn world_profile(&self) -> &WorldProfile {
        self.world_profile
            .get_or_init(|| WorldProfile::of(self.world(), self.cfg.days, self.cfg.busy_hour))
    }

    /// Fig. 3's stream `STREAMS[s]` of `device` in the world.
    pub(crate) fn stream(&self, device: DeviceType, s: usize) -> &Stream {
        self.streams[device.code() as usize][s]
            .get_or_init(|| Stream::of_world(self.world(), device, STREAMS[s]))
    }

    /// The paper's test battery over the world, without (Table 8) or with
    /// (Tables 9/10) UE clustering.
    pub(crate) fn suite(&self, clustered: bool) -> &SuiteResult {
        self.suites[usize::from(clustered)]
            .get_or_init(|| run_suite(self.world(), clustered, &self.cfg.clustering))
    }

    /// Table 9's cells with the extended battery's two added families
    /// after them (keys index `SuiteTest::EXTENDED`). With Table 9
    /// memoized only the added families run; otherwise one pass runs all
    /// seven, and its first five rows become Table 9's memo.
    pub(crate) fn suite_extended(&self) -> HashMap<(usize, DeviceType), Vec<Option<f64>>> {
        let paper = SuiteTest::ALL.len();
        let run = |tests| run_suite_with(self.world(), true, &self.cfg.clustering, tests);
        if let Some(table9) = self.suites[1].get() {
            let added = run(&SuiteTest::EXTENDED[paper..]).main.into_iter();
            let shifted = added.map(|((ti, d), c)| ((ti + paper, d), c));
            return table9.main.clone().into_iter().chain(shifted).collect();
        }
        let mut all = run(&SuiteTest::EXTENDED);
        let cells = all.main.clone();
        all.retain_tests(paper);
        let _ = self.suites[1].set(all);
        cells
    }

    /// The profile of a validation scenario's real busy hour (see
    /// [`Lab::real_trace`]).
    pub(crate) fn real(&self, scenario: Scenario) -> &Profile {
        self.real[scenario.index()].get_or_init(|| {
            Profile::of(&self.real_trace(scenario), self.cfg.scenario_mix(scenario))
        })
    }

    /// The real busy-hour trace of a validation scenario: an independently
    /// seeded world of the scenario population, windowed to
    /// `[busy_hour, busy_hour+1)` — the paper samples fresh UEs of the
    /// corresponding size from the same carrier.
    fn real_trace(&self, scenario: Scenario) -> Trace {
        let mix = self.cfg.scenario_mix(scenario);
        let horizon_days = f64::from(self.cfg.busy_hour + 1) / 24.0;
        let seed = self.cfg.seed ^ (0xBEEF + scenario.index() as u64);
        let full = generate_world(&WorldConfig::new(mix, horizon_days, seed));
        full.window(
            Timestamp::at_hour(0, self.cfg.busy_hour),
            Timestamp::at_hour(0, self.cfg.busy_hour + 1),
        )
    }

    /// The fitted model set of a method.
    pub fn models(&self, method: Method) -> &ModelSet {
        let idx = Method::ALL
            .iter()
            .position(|&m| m == method)
            .expect("known method");
        self.models[idx].get_or_init(|| {
            let mut config = FitConfig::new(method);
            config.clustering = self.cfg.clustering;
            config.n_days = self.cfg.days.ceil() as u64;
            fit(self.world(), &config)
        })
    }

    /// The profile of the synthesized busy hour of (method, scenario).
    pub(crate) fn synth(&self, method: Method, scenario: Scenario) -> &Profile {
        let midx = Method::ALL
            .iter()
            .position(|&m| m == method)
            .expect("known method");
        self.synth[midx][scenario.index()].get_or_init(|| {
            let seed = self.cfg.seed ^ ((0xC0DE + (midx as u64)) << 8) ^ scenario.index() as u64;
            self.synthesize(self.models(method), scenario, seed)
        })
    }

    /// The profile of a busy hour synthesized from `models` for the
    /// population of `scenario`.
    pub(crate) fn synthesize(&self, models: &ModelSet, scenario: Scenario, seed: u64) -> Profile {
        let mix = self.cfg.scenario_mix(scenario);
        let config = GenConfig::new(mix, Timestamp::at_hour(0, self.cfg.busy_hour), 1.0, seed);
        Profile::of(&generate(models, &config), mix)
    }

    /// Synthesize a multi-day trace from an arbitrary model set (used for
    /// the 5G projections of Table 7).
    pub(crate) fn synth_days(&self, models: &ModelSet, days: f64, seed: u64) -> Trace {
        let config = GenConfig::new(
            self.cfg.model_mix,
            Timestamp::at_hour(0, 0),
            days * 24.0,
            seed,
        );
        generate(models, &config)
    }
}

/// Render a small "lab scale" summary table (used by the repro binary).
pub fn scale_summary(cfg: &ExperimentConfig) -> Table {
    let mut t = Table::new("Lab configuration", &["parameter", "value"]);
    t.push_row(vec![
        "modeled UEs".into(),
        cfg.model_mix.total().to_string(),
    ]);
    t.push_row(vec!["modeled days".into(), cfg.days.to_string()]);
    t.push_row(vec![
        "scenario 1 UEs".into(),
        cfg.scenario1_mix.total().to_string(),
    ]);
    t.push_row(vec![
        "scenario 2 UEs".into(),
        cfg.scenario2_mix.total().to_string(),
    ]);
    t.push_row(vec!["busy hour".into(), format!("{:02}h", cfg.busy_hour)]);
    t.push_row(vec!["seed".into(), cfg.seed.to_string()]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::DeviceType;

    #[test]
    fn lab_memoizes() {
        let lab = Lab::new(ExperimentConfig::quick());
        let a = lab.world() as *const Trace;
        let b = lab.world() as *const Trace;
        assert_eq!(a, b);
        assert!(!lab.world().is_empty());
    }

    #[test]
    fn real_traces_are_busy_hour_windows() {
        let lab = Lab::new(ExperimentConfig::quick());
        let r = lab.real_trace(Scenario::One);
        assert!(!r.is_empty());
        for rec in r.iter() {
            assert_eq!(rec.t.hour_of_day().get(), 18);
        }
    }

    #[test]
    fn synth_covers_population_devices() {
        let lab = Lab::new(ExperimentConfig::quick());
        let s = lab.synth(Method::Ours, Scenario::One);
        for device in DeviceType::ALL {
            assert!(s.device(device).shares != [0.0; 8], "no {device} events");
        }
    }

    #[test]
    fn scenario_two_is_larger() {
        let cfg = ExperimentConfig::quick();
        assert!(cfg.scenario2_mix.total() > cfg.scenario1_mix.total());
    }
}
