//! Device types and UE population mixes.
//!
//! The paper studies three primary device types derived from the Type
//! Allocation Code of each UE's IMEI: phones, connected cars, and tablets
//! (§4). The sampled population was 23,388 phones, 9,308 connected cars and
//! 4,629 tablets.

use serde::{Deserialize, Serialize};

/// A primary device type, as classified by TAC in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum DeviceType {
    /// Smartphones ("P" in the paper's tables).
    Phone = 0,
    /// Connected cars ("CC").
    ConnectedCar = 1,
    /// Tablets ("T").
    Tablet = 2,
}

impl DeviceType {
    /// All device types, in the paper's table order.
    pub const ALL: [DeviceType; 3] = [
        DeviceType::Phone,
        DeviceType::ConnectedCar,
        DeviceType::Tablet,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceType::Phone => "Phones",
            DeviceType::ConnectedCar => "Connected Cars",
            DeviceType::Tablet => "Tablets",
        }
    }

    /// The paper's single/double-letter abbreviation (P / CC / T).
    pub fn abbrev(self) -> &'static str {
        match self {
            DeviceType::Phone => "P",
            DeviceType::ConnectedCar => "CC",
            DeviceType::Tablet => "T",
        }
    }

    /// Stable numeric code used by the binary trace format.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`DeviceType::code`].
    pub fn from_code(code: u8) -> Option<DeviceType> {
        DeviceType::ALL.get(usize::from(code)).copied()
    }
}

impl std::fmt::Display for DeviceType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of UEs of each device type in a population.
///
/// A mix is used both to describe the modeled ("real") population and to
/// scale the synthesized population (design goal 3: arbitrary UE population
/// sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PopulationMix {
    /// Number of phones.
    pub phones: u32,
    /// Number of connected cars.
    pub connected_cars: u32,
    /// Number of tablets.
    pub tablets: u32,
}

impl PopulationMix {
    /// The paper's modeled population (§4): 23,388 / 9,308 / 4,629.
    pub const PAPER: PopulationMix = PopulationMix {
        phones: 23_388,
        connected_cars: 9_308,
        tablets: 4_629,
    };

    /// Create a mix with the given per-type counts.
    pub fn new(phones: u32, connected_cars: u32, tablets: u32) -> Self {
        PopulationMix {
            phones,
            connected_cars,
            tablets,
        }
    }

    /// Total number of UEs.
    pub fn total(&self) -> u32 {
        self.phones + self.connected_cars + self.tablets
    }

    /// Scale every count by `factor`, rounding to the nearest UE.
    ///
    /// Used to build e.g. the paper's validation Scenario 1 (~38K UEs, 1×)
    /// and Scenario 2 (~380K UEs, 10×) populations from the modeled mix.
    pub fn scaled(&self, factor: f64) -> PopulationMix {
        let s = |n: u32| (f64::from(n) * factor).round() as u32;
        PopulationMix {
            phones: s(self.phones),
            connected_cars: s(self.connected_cars),
            tablets: s(self.tablets),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for d in DeviceType::ALL {
            assert_eq!(DeviceType::from_code(d.code()), Some(d));
        }
        assert_eq!(DeviceType::from_code(3), None);
    }

    #[test]
    fn paper_population_totals() {
        assert_eq!(PopulationMix::PAPER.total(), 37_325);
    }

    #[test]
    fn scaling() {
        let mix = PopulationMix::new(100, 50, 25);
        let double = mix.scaled(2.0);
        assert_eq!(double, PopulationMix::new(200, 100, 50));
        let tenth = mix.scaled(0.1);
        assert_eq!(tenth, PopulationMix::new(10, 5, 3)); // 2.5 rounds to 3 (round-half-up away from zero)
    }
}
