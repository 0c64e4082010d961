//! Population-scale world generation.
//!
//! Simulates every UE of a [`PopulationMix`] independently (the paper's UEs
//! are i.i.d. given their type, §4.1.1) and merges the per-UE streams into
//! one time-sorted trace. UEs are partitioned across worker threads; each
//! UE derives its own RNG seed from the world seed, so results are
//! identical regardless of thread count.

use crate::profile::DeviceProfile;
use cn_trace::{DeviceType, PopulationMix, Trace, UeId};
use serde::{Deserialize, Serialize};

/// Configuration of a ground-truth world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// How many UEs of each device type to simulate.
    pub mix: PopulationMix,
    /// Trace length in days (day 0 starts at midnight, t = 0).
    pub days: f64,
    /// Master seed; every UE's stream is a pure function of
    /// `(seed, ue_index)`.
    pub seed: u64,
    /// Per-device behavioral profiles, indexed by [`DeviceType::code`].
    pub profiles: Vec<DeviceProfile>,
    /// Number of worker threads (`0` = all available cores).
    pub threads: usize,
}

impl WorldConfig {
    /// A world with preset profiles for the given population and length.
    pub fn new(mix: PopulationMix, days: f64, seed: u64) -> WorldConfig {
        WorldConfig {
            mix,
            days,
            seed,
            profiles: DeviceProfile::all_presets().to_vec(),
            threads: 0,
        }
    }

    /// Serialize the full world configuration (profiles included) to JSON
    /// — a reproducible description of a synthetic "carrier".
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Load a world configuration from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<WorldConfig> {
        serde_json::from_str(json)
    }

    /// Device type of the UE at `index` (phones first, then connected
    /// cars, then tablets — matching [`PopulationMix`] order).
    pub fn device_of(&self, index: u32) -> DeviceType {
        if index < self.mix.phones {
            DeviceType::Phone
        } else if index < self.mix.phones + self.mix.connected_cars {
            DeviceType::ConnectedCar
        } else {
            DeviceType::Tablet
        }
    }
}

/// SplitMix64 — derives decorrelated per-UE seeds from the master seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-UE seed for a world.
pub fn ue_seed(world_seed: u64, ue_index: u32) -> u64 {
    splitmix64(world_seed ^ splitmix64(u64::from(ue_index).wrapping_add(0xA5A5_5A5A)))
}

/// Generate the world trace.
///
/// # Panics
/// Panics if `profiles` does not cover all three device types.
pub fn generate_world(config: &WorldConfig) -> Trace {
    let total = config.mix.total();
    if total == 0 || config.days <= 0.0 {
        return Trace::new();
    }
    for device in DeviceType::ALL {
        assert!(
            config
                .profiles
                .get(device.code() as usize)
                .is_some_and(|p| p.device == device),
            "profiles must be indexed by device code"
        );
    }
    let horizon_secs = config.days * 86_400.0;
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    } else {
        config.threads
    }
    .min(total as usize)
    .max(1);

    let chunk = total.div_ceil(threads as u32);
    let simulate_share = |w: u32| {
        let lo = w * chunk;
        let hi = ((w + 1) * chunk).min(total);
        let mut traces = Vec::new();
        for index in lo..hi {
            let device = config.device_of(index);
            let profile = &config.profiles[device.code() as usize];
            traces.push(crate::ue::simulate_ue(
                UeId(index),
                profile,
                horizon_secs,
                ue_seed(config.seed, index),
            ));
        }
        Trace::merge(traces)
    };
    // The calling thread takes the last share itself instead of idling in
    // `join`: one spawn fewer, and on two cores a single worker at a time,
    // so which allocator arena each thread inherits no longer depends on
    // which of two symmetric workers happened to exit first.
    let last = threads as u32 - 1;
    let partial: Vec<Trace> = std::thread::scope(|scope| {
        let simulate_share = &simulate_share;
        let handles: Vec<_> = (0..last)
            .map(|w| scope.spawn(move || simulate_share(w)))
            .collect();
        let own = simulate_share(last);
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .chain(std::iter::once(own))
            .collect()
    });

    Trace::merge(partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::check_well_formed;

    fn tiny_config(seed: u64, threads: usize) -> WorldConfig {
        let mut c = WorldConfig::new(PopulationMix::new(12, 6, 4), 1.0, seed);
        c.threads = threads;
        c
    }

    #[test]
    fn empty_population_or_zero_days() {
        let c = WorldConfig::new(PopulationMix::new(0, 0, 0), 1.0, 1);
        assert!(generate_world(&c).is_empty());
        let c = WorldConfig::new(PopulationMix::new(5, 0, 0), 0.0, 1);
        assert!(generate_world(&c).is_empty());
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let a = generate_world(&tiny_config(99, 1));
        let b = generate_world(&tiny_config(99, 4));
        assert_eq!(a, b);
    }

    #[test]
    fn world_is_well_formed_and_covers_population() {
        let c = tiny_config(7, 0);
        let t = generate_world(&c);
        assert!(check_well_formed(&t).is_empty());
        // Nearly every UE should emit something in a full day.
        let ues = t.ues();
        assert!(ues.len() >= 20, "only {} of 22 UEs active", ues.len());
        // Device assignment follows the mix layout.
        assert_eq!(t.device_of(UeId(0)), Some(DeviceType::Phone));
        for r in t.iter() {
            assert_eq!(r.device, c.device_of(r.ue.get()));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_world(&tiny_config(1, 2));
        let b = generate_world(&tiny_config(2, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn device_of_partitions() {
        let c = WorldConfig::new(PopulationMix::new(3, 2, 1), 1.0, 0);
        let devices: Vec<DeviceType> = (0..6).map(|i| c.device_of(i)).collect();
        assert_eq!(
            devices,
            vec![
                DeviceType::Phone,
                DeviceType::Phone,
                DeviceType::Phone,
                DeviceType::ConnectedCar,
                DeviceType::ConnectedCar,
                DeviceType::Tablet
            ]
        );
    }

    #[test]
    fn config_json_round_trip_reproduces_worlds() {
        let config = tiny_config(17, 2);
        let json = config.to_json().unwrap();
        let back = WorldConfig::from_json(&json).unwrap();
        assert_eq!(config, back);
        assert_eq!(generate_world(&config), generate_world(&back));
    }

    #[test]
    fn ue_seed_decorrelates() {
        let s: Vec<u64> = (0..100).map(|i| ue_seed(42, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 100);
    }
}
