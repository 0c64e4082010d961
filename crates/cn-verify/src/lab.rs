//! The experiment lab: shared, lazily computed artifacts.
//!
//! Reproducing the paper's evaluation needs a handful of expensive
//! artifacts — the 7-day "real" world trace, four fitted model sets (Base,
//! B1, B2, Ours), two validation-scenario real traces, and synthesized
//! traces per (method, scenario). [`Lab`] memoizes each behind a
//! `OnceLock` so the full table battery shares work.

use crate::report::Table;
use cn_fit::cluster::ClusteringParams;
use cn_fit::{fit, FitConfig, Method, ModelSet};
use cn_gen::{generate, GenConfig};
use cn_trace::{PopulationMix, Timestamp, Trace};
use cn_world::{generate_world, WorldConfig};
use serde::{Deserialize, Serialize};
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
    real: [OnceLock<Trace>; 2],
    models: [OnceLock<ModelSet>; 4],
    synth: [[OnceLock<Trace>; 2]; 4],
}

impl Lab {
    /// Create a lab for a configuration (computes nothing yet).
    pub fn new(cfg: ExperimentConfig) -> Lab {
        Lab {
            cfg,
            world: OnceLock::new(),
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

    /// The real busy-hour trace of a validation scenario: an independently
    /// seeded world of the scenario population, windowed to
    /// `[busy_hour, busy_hour+1)` — the paper samples fresh UEs of the
    /// corresponding size from the same carrier.
    pub(crate) fn real(&self, scenario: Scenario) -> &Trace {
        self.real[scenario.index()].get_or_init(|| {
            let mix = self.cfg.scenario_mix(scenario);
            let horizon_days = f64::from(self.cfg.busy_hour + 1) / 24.0;
            let seed = self.cfg.seed ^ (0xBEEF + scenario.index() as u64);
            let full = generate_world(&WorldConfig::new(mix, horizon_days, seed));
            full.window(
                Timestamp::at_hour(0, self.cfg.busy_hour),
                Timestamp::at_hour(0, self.cfg.busy_hour + 1),
            )
        })
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

    /// A synthesized busy-hour trace for (method, scenario).
    pub(crate) fn synth(&self, method: Method, scenario: Scenario) -> &Trace {
        let midx = Method::ALL
            .iter()
            .position(|&m| m == method)
            .expect("known method");
        self.synth[midx][scenario.index()].get_or_init(|| {
            let config = GenConfig::new(
                self.cfg.scenario_mix(scenario),
                Timestamp::at_hour(0, self.cfg.busy_hour),
                1.0,
                self.cfg.seed ^ ((0xC0DE + (midx as u64)) << 8) ^ scenario.index() as u64,
            );
            generate(self.models(method), &config)
        })
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
        let r = lab.real(Scenario::One);
        assert!(!r.is_empty());
        for rec in r.iter() {
            assert_eq!(rec.t.hour_of_day().get(), 18);
        }
    }

    #[test]
    fn synth_covers_population_devices() {
        let lab = Lab::new(ExperimentConfig::quick());
        let s = lab.synth(Method::Ours, Scenario::One);
        assert!(!s.is_empty());
        let devices: std::collections::HashSet<DeviceType> = s.iter().map(|r| r.device).collect();
        assert_eq!(devices.len(), 3, "missing device types: {devices:?}");
    }

    #[test]
    fn scenario_two_is_larger() {
        let cfg = ExperimentConfig::quick();
        assert!(cfg.scenario2_mix.total() > cfg.scenario1_mix.total());
    }
}
