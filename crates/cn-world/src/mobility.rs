//! Mobility sampling: handovers, tracking-area crossings, periodic TAU.

use crate::profile::MobilityProfile;
use crate::session::piecewise_exp_gap;
use cn_trace::Timestamp;
use rand::Rng;

/// Decide whether a session starting now happens "in motion" (only moving
/// sessions produce handovers).
pub(crate) fn session_is_moving<R: Rng + ?Sized>(profile: &MobilityProfile, rng: &mut R) -> bool {
    rng.gen::<f64>() < profile.moving_prob
}

/// Cell dwell time (seconds) until the next handover while connected and
/// moving.
pub(crate) fn next_cell_dwell<R: Rng + ?Sized>(profile: &MobilityProfile, rng: &mut R) -> f64 {
    profile.cell_dwell.sample(rng).max(0.5)
}

/// Whether a handover also crosses a tracking-area boundary (producing a
/// connected-mode TAU).
pub(crate) fn ho_crosses_ta<R: Rng + ?Sized>(profile: &MobilityProfile, rng: &mut R) -> bool {
    rng.gen::<f64>() < profile.tau_per_ho_prob
}

/// Waiting time (seconds) until the next idle-mode tracking-area crossing,
/// modulated by the diurnal curve (people and cars move when they are
/// active). `None` when the rate is effectively zero.
pub(crate) fn next_idle_crossing<R: Rng + ?Sized>(
    profile: &MobilityProfile,
    now_secs: f64,
    rate_multiplier: impl Fn(Timestamp) -> f64,
    rng: &mut R,
) -> Option<f64> {
    piecewise_exp_gap(
        now_secs,
        |t| profile.idle_crossing_rate_per_hour * rate_multiplier(t),
        rng,
    )
}

/// Delay (seconds) between an idle TAU and its releasing `S1_CONN_REL`.
pub(crate) fn idle_tau_release_delay<R: Rng + ?Sized>(
    profile: &MobilityProfile,
    rng: &mut R,
) -> f64 {
    profile.idle_tau_release_delay.sample(rng).max(0.05)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;
    use cn_trace::DeviceType;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moving_fraction_tracks_profile() {
        let p = DeviceProfile::preset(DeviceType::ConnectedCar);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let moving = (0..n)
            .filter(|_| session_is_moving(&p.mobility, &mut rng))
            .count();
        let frac = moving as f64 / n as f64;
        assert!((frac - p.mobility.moving_prob).abs() < 0.02, "{frac}");
    }

    #[test]
    fn dwell_times_positive() {
        let p = DeviceProfile::preset(DeviceType::Phone);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..1_000 {
            assert!(next_cell_dwell(&p.mobility, &mut rng) >= 0.5);
        }
    }

    #[test]
    fn cars_cross_tas_more_than_tablets() {
        let car = DeviceProfile::preset(DeviceType::ConnectedCar);
        let tab = DeviceProfile::preset(DeviceType::Tablet);
        let mut rng = StdRng::seed_from_u64(13);
        let mean_gap = |p: &MobilityProfile, rng: &mut StdRng| {
            let n = 2_000;
            (0..n)
                .filter_map(|_| next_idle_crossing(p, 12.0 * 3_600.0, |_| 1.0, rng))
                .sum::<f64>()
                / n as f64
        };
        let car_gap = mean_gap(&car.mobility, &mut rng);
        let tab_gap = mean_gap(&tab.mobility, &mut rng);
        assert!(car_gap < tab_gap, "car {car_gap} vs tablet {tab_gap}");
    }

    #[test]
    fn release_delay_short() {
        let p = DeviceProfile::preset(DeviceType::Phone);
        let mut rng = StdRng::seed_from_u64(14);
        let n = 5_000;
        let mean: f64 = (0..n)
            .map(|_| idle_tau_release_delay(&p.mobility, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!(mean < 10.0, "mean {mean}");
    }
}
