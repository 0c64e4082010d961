//! Generalizability study (the paper's §9).
//!
//! The paper argues its *methodology* — two-level machine + Semi-Markov +
//! adaptive clustering — transfers to populations with different traffic
//! characteristics (other regions, massive IoT, self-driving cars), even
//! though the fitted *parameters* do not. We test that claim directly:
//! build worlds from behavioral profiles the models were never calibrated
//! against, fit Ours and Base on each, and check that the method ordering
//! survives.

use crate::breakdown::{breakdown, BreakdownRow};
use crate::report::{pct, Table};
use cn_fit::{fit, FitConfig, Method};
use cn_gen::{generate, GenConfig};
use cn_trace::{DeviceType, PopulationMix, Timestamp, Trace};
use cn_world::{generate_world, DeviceProfile, WorldConfig};

/// A named alternative population.
pub(crate) struct AltWorld {
    /// Display name.
    pub(crate) name: &'static str,
    /// World configuration.
    pub(crate) config: WorldConfig,
}

/// The §9 candidate populations: massive IoT and self-driving cars, at a
/// size suitable for a minutes-scale study.
pub(crate) fn alt_worlds(seed: u64, scale: u32) -> Vec<AltWorld> {
    let mix = PopulationMix::new(0, 4 * scale, 0);
    let mut iot = WorldConfig::new(mix, 3.0, seed ^ 0x107);
    iot.profiles[DeviceType::ConnectedCar.code() as usize] =
        DeviceProfile::iot_sensor(DeviceType::ConnectedCar);
    let mut sdc = WorldConfig::new(mix, 3.0, seed ^ 0x5dc);
    sdc.profiles[DeviceType::ConnectedCar.code() as usize] =
        DeviceProfile::self_driving_car(DeviceType::ConnectedCar);
    vec![
        AltWorld {
            name: "massive IoT sensors",
            config: iot,
        },
        AltWorld {
            name: "self-driving cars",
            config: sdc,
        },
    ]
}

/// Fit Ours and Base on an alternative world and compare busy-hour
/// breakdown error (max absolute difference across the 8 rows) plus the
/// HO(IDLE) leak.
fn study(world: &Trace, mix: PopulationMix, busy_hour: u8, seed: u64) -> [(f64, f64); 2] {
    let real = world.window(
        Timestamp::at_hour(1, busy_hour),
        Timestamp::at_hour(1, busy_hour + 1),
    );
    let mut out = [(0.0, 0.0); 2];
    for (i, method) in [Method::Ours, Method::Base].into_iter().enumerate() {
        let models = fit(world, &FitConfig::new(method));
        let config = GenConfig::new(mix, Timestamp::at_hour(1, busy_hour), 1.0, seed);
        let synth = generate(&models, &config);
        let r = breakdown(&real, DeviceType::ConnectedCar);
        let s = breakdown(&synth, DeviceType::ConnectedCar);
        out[i] = (r.max_abs_diff(&s), s.share(BreakdownRow::HoIdle));
    }
    out
}

/// The generalizability table: per alternative population, Ours vs Base
/// busy-hour fidelity.
pub fn generalizability(seed: u64, scale: u32) -> Table {
    let mut t = Table::new(
        "Extension (§9): methodology transfer to new device classes",
        &[
            "population",
            "Ours max diff",
            "Base max diff",
            "Ours HO(IDLE)",
            "Base HO(IDLE)",
        ],
    );
    for alt in alt_worlds(seed, scale) {
        let world = generate_world(&alt.config);
        let busy = 14;
        let results = study(&world, alt.config.mix, busy, seed ^ 0x9e);
        t.push_row(vec![
            alt.name.to_string(),
            pct(results[0].0),
            pct(results[1].0),
            pct(results[0].1),
            pct(results[1].1),
        ]);
    }
    t
}

/// Extension: UE-level holdout evaluation. The paper fits on one UE sample
/// and validates against freshly sampled UEs of the same carrier; here we
/// make the equivalent check *within* one world — fit on a random half of
/// the UEs, evaluate busy-hour fidelity against the held-out half — so no
/// generation seed or world regeneration can leak into the comparison.
pub fn holdout(world: &Trace, busy_hour: u8, seed: u64) -> Table {
    let mut t = Table::new(
        "Extension: UE-level holdout (fit on half the UEs, compare vs the rest)",
        &["device", "max |breakdown diff|", "HO(IDLE) synth"],
    );
    let (train, test) = world.partition_ues(0.5, seed);
    let models = fit(&train, &FitConfig::new(Method::Ours));
    // Population matching the held-out half's device composition.
    let mut counts = [0u32; 3];
    for ue in test.ues() {
        if let Some(d) = test.device_of(ue) {
            counts[d.code() as usize] += 1;
        }
    }
    let mix = PopulationMix::new(counts[0], counts[1], counts[2]);
    let config = GenConfig::new(mix, Timestamp::at_hour(1, busy_hour), 1.0, seed ^ 0x401d);
    let synth = generate(&models, &config);
    let real = test.window(
        Timestamp::at_hour(1, busy_hour),
        Timestamp::at_hour(1, busy_hour + 1),
    );
    for device in DeviceType::ALL {
        let r = breakdown(&real, device);
        let s = breakdown(&synth, device);
        t.push_row(vec![
            device.abbrev().into(),
            pct(r.max_abs_diff(&s)),
            pct(s.share(BreakdownRow::HoIdle)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn methodology_transfers_to_new_device_classes() {
        let t = generalizability(77, 12);
        assert_eq!(t.rows.len(), 2);
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        for row in &t.rows {
            let ours = parse(&row[1]);
            let base = parse(&row[2]);
            let ours_leak = parse(&row[3]);
            // Ours never leaks HO into IDLE, whatever the population.
            assert_eq!(ours_leak, 0.0, "{}: leak {ours_leak}", row[0]);
            // And its total error does not exceed the baseline's by much —
            // for mobility-heavy populations it should win outright.
            assert!(
                ours <= base + 3.0,
                "{}: Ours {ours}% vs Base {base}%",
                row[0]
            );
        }
    }

    #[test]
    fn holdout_generalizes() {
        let world = generate_world(&WorldConfig::new(PopulationMix::new(80, 30, 20), 2.0, 404));
        let t = holdout(&world, 18, 5);
        assert_eq!(t.rows.len(), 3);
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        for row in &t.rows {
            // Held-out fidelity stays bounded and HO never lands in IDLE.
            assert!(parse(&row[1]) < 30.0, "{}: diff {}", row[0], row[1]);
            assert_eq!(parse(&row[2]), 0.0, "{}: HO(IDLE)", row[0]);
        }
    }

    #[test]
    fn alt_worlds_have_distinct_traffic() {
        let worlds: Vec<Trace> = alt_worlds(5, 10)
            .into_iter()
            .map(|a| generate_world(&a.config))
            .collect();
        // The IoT world is far sparser than the self-driving one.
        assert!(
            worlds[1].len() > 3 * worlds[0].len(),
            "sdc {} vs iot {}",
            worlds[1].len(),
            worlds[0].len()
        );
    }
}
