//! Millisecond timestamps and hour-of-day arithmetic.
//!
//! The paper's trace has millisecond granularity and all modeling is done on
//! non-overlapping 1-hour intervals, with the same hour-of-day pooled across
//! days (§4.1.1). We therefore use a plain `u64` millisecond counter with
//! `t = 0` defined as midnight of day 0.

use serde::{Deserialize, Serialize};

/// Milliseconds per second.
pub const MS_PER_SEC: u64 = 1_000;
/// Milliseconds per minute.
pub(crate) const MS_PER_MIN: u64 = 60 * MS_PER_SEC;
/// Milliseconds per hour.
pub const MS_PER_HOUR: u64 = 60 * MS_PER_MIN;
/// Milliseconds per day.
pub const MS_PER_DAY: u64 = 24 * MS_PER_HOUR;

/// A point in time, in milliseconds since midnight of day 0.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs * MS_PER_SEC)
    }

    /// Construct from fractional seconds (values below zero clamp to zero).
    pub fn from_secs_f64(secs: f64) -> Self {
        Timestamp((secs.max(0.0) * MS_PER_SEC as f64).round() as u64)
    }

    /// Construct from a (day, hour-of-day) pair, at the start of that hour.
    pub const fn at_hour(day: u64, hour: u8) -> Self {
        Timestamp(day * MS_PER_DAY + hour as u64 * MS_PER_HOUR)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The hour of day (0–23) this timestamp falls in.
    pub fn hour_of_day(self) -> HourOfDay {
        HourOfDay(((self.0 % MS_PER_DAY) / MS_PER_HOUR) as u8)
    }

    /// The day index (0-based) this timestamp falls in.
    pub const fn day(self) -> u64 {
        self.0 / MS_PER_DAY
    }

    /// Offset in milliseconds from the start of the containing hour.
    pub const fn offset_in_hour(self) -> u64 {
        self.0 % MS_PER_HOUR
    }

    /// Saturating addition of a millisecond duration.
    pub const fn saturating_add(self, ms: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(ms))
    }

    /// Duration in milliseconds from `earlier` to `self` (panics in debug
    /// builds if `earlier > self`).
    pub fn since(self, earlier: Timestamp) -> u64 {
        debug_assert!(earlier.0 <= self.0, "since() called with later start");
        self.0 - earlier.0
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let day = self.day();
        let rem = self.0 % MS_PER_DAY;
        let h = rem / MS_PER_HOUR;
        let m = (rem % MS_PER_HOUR) / MS_PER_MIN;
        let s = (rem % MS_PER_MIN) / MS_PER_SEC;
        let ms = rem % MS_PER_SEC;
        write!(f, "d{day} {h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

/// An hour of the day, 0–23.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct HourOfDay(pub u8);

impl HourOfDay {
    /// All 24 hours in order.
    pub fn all() -> impl Iterator<Item = HourOfDay> {
        (0..24).map(HourOfDay)
    }

    /// Raw hour value, 0–23.
    pub const fn get(self) -> u8 {
        self.0
    }

    /// Index usable for 24-element lookup tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for HourOfDay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:02}h", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_and_day_extraction() {
        let t = Timestamp::at_hour(3, 17).saturating_add(42 * MS_PER_MIN);
        assert_eq!(t.day(), 3);
        assert_eq!(t.hour_of_day(), HourOfDay(17));
        assert_eq!(t.offset_in_hour(), 42 * MS_PER_MIN);
    }

    #[test]
    fn secs_round_trip() {
        let t = Timestamp::from_secs_f64(1.234);
        assert_eq!(t.as_millis(), 1234);
        assert_eq!(Timestamp::from_secs_f64(-5.0).as_millis(), 0);
    }

    #[test]
    fn display_formats() {
        let t = Timestamp::at_hour(2, 5).saturating_add(61_500);
        assert_eq!(t.to_string(), "d2 05:01:01.500");
        assert_eq!(HourOfDay(9).to_string(), "09h");
    }

    #[test]
    fn since_computes_difference() {
        let a = Timestamp::from_millis(500);
        let b = Timestamp::from_millis(1_700);
        assert_eq!(b.since(a), 1_200);
    }
}
