//! Hour-of-day activity curves.
//!
//! Fig. 2 of the paper shows strong diurnal rhythms with device-specific
//! shape and magnitude: per-device-hour event volume drops from peak to
//! trough by 2.3×–86× for phones, 3.4×–1309× for connected cars, and
//! 1.5×–90× for tablets. These presets reproduce those shapes: phones ramp
//! through the day and peak in the evening; connected cars have two
//! commute peaks and an almost-dead night; tablets peak in the evening.

use cn_trace::{DeviceType, Timestamp};
use serde::{Deserialize, Serialize};

/// A 24-entry multiplicative activity curve (1.0 = the profile's base
/// rate), with a separate weekend variant (days 5 and 6 of each week —
/// day 0 is a Monday by convention).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DiurnalCurve {
    multipliers: [f64; 24],
    weekend: [f64; 24],
}

impl DiurnalCurve {
    /// A flat curve (no diurnal variation).
    pub(crate) fn flat() -> DiurnalCurve {
        DiurnalCurve {
            multipliers: [1.0; 24],
            weekend: [1.0; 24],
        }
    }

    /// The weekday multiplier in effect during the given hour.
    #[cfg(test)]
    fn at(&self, hour: cn_trace::HourOfDay) -> f64 {
        self.multipliers[hour.index()]
    }

    /// The multiplier in effect at a point in time (weekend-aware; day 0
    /// is a Monday, so days ≡ 5, 6 (mod 7) are the weekend).
    pub(crate) fn at_time(&self, t: Timestamp) -> f64 {
        let table = if t.day() % 7 >= 5 {
            &self.weekend
        } else {
            &self.multipliers
        };
        table[t.hour_of_day().index()]
    }

    /// Peak-to-trough ratio of the weekday curve (∞ when the trough is 0).
    #[cfg(test)]
    fn swing(&self) -> f64 {
        let max = self.multipliers.iter().copied().fold(f64::MIN, f64::max);
        let min = self.multipliers.iter().copied().fold(f64::MAX, f64::min);
        max / min
    }

    /// Preset curve for a device type, calibrated to Fig. 2's swings, with
    /// a weekend variant (later mornings; cars lose the commute peaks;
    /// tablets gain daytime leisure).
    pub(crate) fn preset(device: DeviceType) -> DiurnalCurve {
        let (multipliers, weekend) = match device {
            // Phones: quiet 2–5 am, busy 9 am – 10 pm (swing ≈ 30×).
            DeviceType::Phone => (
                [
                    0.30, 0.15, 0.08, 0.05, 0.05, 0.08, 0.20, 0.45, 0.80, 1.10, 1.25, 1.30, //
                    1.35, 1.30, 1.25, 1.30, 1.35, 1.45, 1.50, 1.45, 1.30, 1.05, 0.75, 0.45,
                ],
                [
                    0.40, 0.22, 0.12, 0.07, 0.06, 0.07, 0.10, 0.20, 0.45, 0.80, 1.10, 1.25, //
                    1.30, 1.30, 1.25, 1.25, 1.30, 1.35, 1.40, 1.40, 1.35, 1.15, 0.90, 0.60,
                ],
            ),
            // Connected cars: commute peaks 7–9 am and 4–7 pm, nearly dead
            // at night (swing ≈ 400×); weekends flatten into a midday hump.
            DeviceType::ConnectedCar => (
                [
                    0.015, 0.008, 0.005, 0.005, 0.01, 0.06, 0.50, 1.60, 1.90, 1.10, 0.85,
                    0.90, //
                    1.00, 0.95, 0.95, 1.25, 1.80, 2.00, 1.70, 1.00, 0.55, 0.25, 0.10, 0.04,
                ],
                [
                    0.02, 0.01, 0.006, 0.005, 0.008, 0.02, 0.08, 0.25, 0.60, 0.95, 1.20,
                    1.30, //
                    1.30, 1.25, 1.20, 1.15, 1.10, 1.05, 0.95, 0.75, 0.50, 0.30, 0.15, 0.06,
                ],
            ),
            // Tablets: evening-heavy leisure use (swing ≈ 45×).
            DeviceType::Tablet => (
                [
                    0.25, 0.10, 0.05, 0.04, 0.04, 0.06, 0.12, 0.30, 0.55, 0.75, 0.90, 1.00, //
                    1.05, 1.00, 0.95, 1.00, 1.10, 1.30, 1.60, 1.80, 1.70, 1.35, 0.90, 0.50,
                ],
                [
                    0.35, 0.15, 0.08, 0.05, 0.05, 0.06, 0.10, 0.25, 0.60, 0.95, 1.20, 1.30, //
                    1.35, 1.30, 1.25, 1.25, 1.30, 1.45, 1.70, 1.85, 1.75, 1.45, 1.00, 0.60,
                ],
            ),
        };
        DiurnalCurve {
            multipliers,
            weekend,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::HourOfDay;

    #[test]
    fn presets_have_expected_swings() {
        let p = DiurnalCurve::preset(DeviceType::Phone).swing();
        assert!((10.0..100.0).contains(&p), "phone swing {p}");
        let c = DiurnalCurve::preset(DeviceType::ConnectedCar).swing();
        assert!((100.0..2000.0).contains(&c), "car swing {c}");
        let t = DiurnalCurve::preset(DeviceType::Tablet).swing();
        assert!((10.0..100.0).contains(&t), "tablet swing {t}");
    }

    #[test]
    fn cars_peak_at_commute_phones_in_evening() {
        let car = DiurnalCurve::preset(DeviceType::ConnectedCar);
        assert!(car.at(HourOfDay(8)) > car.at(HourOfDay(12)));
        assert!(car.at(HourOfDay(17)) > car.at(HourOfDay(12)));
        let phone = DiurnalCurve::preset(DeviceType::Phone);
        assert!(phone.at(HourOfDay(18)) > phone.at(HourOfDay(3)));
    }

    #[test]
    fn flat_is_flat() {
        let f = DiurnalCurve::flat();
        assert_eq!(f.swing(), 1.0);
        assert_eq!(f.at(HourOfDay(7)), 1.0);
    }

    #[test]
    fn weekends_differ_from_weekdays() {
        let car = DiurnalCurve::preset(DeviceType::ConnectedCar);
        let monday_8am = Timestamp::at_hour(0, 8);
        let saturday_8am = Timestamp::at_hour(5, 8);
        assert!(car.at_time(monday_8am) > 2.0 * car.at_time(saturday_8am));
        // Tablets gain weekend daytime use.
        let tab = DiurnalCurve::preset(DeviceType::Tablet);
        let monday_noon = Timestamp::at_hour(0, 12);
        let sunday_noon = Timestamp::at_hour(6, 12);
        assert!(tab.at_time(sunday_noon) > tab.at_time(monday_noon));
    }
}
