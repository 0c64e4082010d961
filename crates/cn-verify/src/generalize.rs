//! Generalizability study (the paper's §9).
//!
//! The paper argues its *methodology* — two-level machine + Semi-Markov +
//! adaptive clustering — transfers to populations with different traffic
//! characteristics (other regions, massive IoT, self-driving cars), even
//! though the fitted *parameters* do not. We test that claim directly:
//! build worlds from behavioral profiles the models were never calibrated
//! against, fit Ours and Base on each, and check that the method ordering
//! survives.

use crate::profile::{BreakdownRow, DeviceProfile, Profile};
use crate::report::{pct, Table};
use cn_fit::{fit, FitConfig, Method};
use cn_gen::{generate, GenConfig};
use cn_trace::{DeviceType, PopulationMix, Timestamp, Trace};
use cn_world::{generate_world, WorldConfig};

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
        cn_world::DeviceProfile::iot_sensor(DeviceType::ConnectedCar);
    let mut sdc = WorldConfig::new(mix, 3.0, seed ^ 0x5dc);
    sdc.profiles[DeviceType::ConnectedCar.code() as usize] =
        cn_world::DeviceProfile::self_driving_car(DeviceType::ConnectedCar);
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

/// Busy hour (of day 1) the §9 study compares.
const STUDY_BUSY_HOUR: u8 = 14;

/// Generate an alternative (connected-car) world, fit Ours and Base on it,
/// and profile its busy hour three ways: the world's own, then Ours' and
/// Base's synthesis.
fn study(alt: &AltWorld, seed: u64) -> [DeviceProfile; 3] {
    let world = generate_world(&alt.config);
    let mix = alt.config.mix;
    let start = Timestamp::at_hour(1, STUDY_BUSY_HOUR);
    let real = world.window(start, Timestamp::at_hour(1, STUDY_BUSY_HOUR + 1));
    let synth = |method| {
        let models = fit(&world, &FitConfig::new(method));
        let config = GenConfig::new(mix, start, 1.0, seed ^ 0x9e);
        Profile::of(&generate(&models, &config), mix)
    };
    [
        Profile::of(&real, mix),
        synth(Method::Ours),
        synth(Method::Base),
    ]
    .map(|p| p.device(DeviceType::ConnectedCar).clone())
}

/// The generalizability table: per alternative population, Ours vs Base
/// busy-hour fidelity — the connected cars' max absolute breakdown
/// difference across the 8 rows, plus the HO(IDLE) leak.
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
        let [real, ours, base] = study(&alt, seed);
        t.push_row(vec![
            alt.name.to_string(),
            pct(real.max_share_diff(&ours)),
            pct(real.max_share_diff(&base)),
            pct(ours.share(BreakdownRow::HoIdle)),
            pct(base.share(BreakdownRow::HoIdle)),
        ]);
    }
    t
}

/// Fit Ours on a random half of the UEs; profile the held-out half's busy
/// hour and a synthesis for a population of the held-out half's
/// composition.
fn holdout_profiles(world: &Trace, busy_hour: u8, seed: u64) -> [Profile; 2] {
    let (train, test) = world.partition_ues(0.5, seed);
    let models = fit(&train, &FitConfig::new(Method::Ours));
    let mut counts = [0u32; 3];
    for ue in test.ues() {
        if let Some(d) = test.device_of(ue) {
            counts[d.code() as usize] += 1;
        }
    }
    let mix = PopulationMix::new(counts[0], counts[1], counts[2]);
    let config = GenConfig::new(mix, Timestamp::at_hour(1, busy_hour), 1.0, seed ^ 0x401d);
    let real = test.window(
        Timestamp::at_hour(1, busy_hour),
        Timestamp::at_hour(1, busy_hour + 1),
    );
    [
        Profile::of(&real, mix),
        Profile::of(&generate(&models, &config), mix),
    ]
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
    let [real, synth] = holdout_profiles(world, busy_hour, seed);
    for device in DeviceType::ALL {
        let (r, s) = (real.device(device), synth.device(device));
        t.push_row(vec![
            device.abbrev().into(),
            pct(r.max_share_diff(s)),
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
        for alt in alt_worlds(77, 12) {
            let [real, ours, base] = study(&alt, 77);
            // Ours never leaks HO into IDLE, whatever the population.
            let leak = ours.share(BreakdownRow::HoIdle);
            assert_eq!(leak, 0.0, "{}: leak {leak}", alt.name);
            // And its total error does not exceed the baseline's by much —
            // for mobility-heavy populations it should win outright.
            let (ours, base) = (real.max_share_diff(&ours), real.max_share_diff(&base));
            assert!(
                ours <= base + 0.03,
                "{}: Ours {ours} vs Base {base}",
                alt.name
            );
        }
    }

    #[test]
    fn holdout_generalizes() {
        let world = generate_world(&WorldConfig::new(PopulationMix::new(80, 30, 20), 2.0, 404));
        assert_eq!(holdout(&world, 18, 5).rows.len(), 3);
        let [real, synth] = holdout_profiles(&world, 18, 5);
        for device in DeviceType::ALL {
            let (r, s) = (real.device(device), synth.device(device));
            // Held-out fidelity stays bounded and HO never lands in IDLE.
            let diff = r.max_share_diff(s);
            assert!(diff < 0.30, "{device}: diff {diff}");
            assert_eq!(s.share(BreakdownRow::HoIdle), 0.0, "{device}: HO(IDLE)");
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
