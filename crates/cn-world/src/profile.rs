//! Behavioral parameter sets per device type.
//!
//! The presets are calibrated so that a simulated week reproduces the
//! *shape* of the paper's Table 1 event breakdown and Fig. 2 diversity:
//! phones and tablets are session-heavy with few handovers; connected cars
//! are mobility-heavy (2–4× the HO/TAU share) with strong commute rhythms;
//! per-UE activity is heavy-tailed so some UEs are orders of magnitude
//! busier than others.

use crate::diurnal::DiurnalCurve;
use cn_stats::dist::{Dist, LogNormal, Pareto};
use cn_trace::DeviceType;
use serde::{Deserialize, Serialize};

/// User-session behavior (drives `SRV_REQ`/`S1_CONN_REL`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionProfile {
    /// Session arrival rate (per hour) at diurnal multiplier 1.0 and
    /// activity multiplier 1.0.
    pub(crate) base_rate_per_hour: f64,
    /// Probability that the next session follows in the same clump
    /// (burstiness knob: clump sizes are geometric).
    pub(crate) burst_prob: f64,
    /// Gap between sessions within a clump, in seconds.
    pub(crate) burst_gap: LogNormal,
    /// Session-duration mixture: `(weight, component)`; weights are
    /// normalized at sampling time. The CONNECTED sojourn is this duration
    /// (the inactivity timer that precedes the release is folded in).
    pub(crate) durations: Vec<(f64, Dist)>,
}

/// Mobility behavior (drives `HO`/`TAU`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobilityProfile {
    /// Probability that a given session happens while the UE is in motion
    /// (only moving sessions produce handovers).
    pub(crate) moving_prob: f64,
    /// Cell dwell time while connected and moving, in seconds (each dwell
    /// expiry is a `HO`).
    pub(crate) cell_dwell: LogNormal,
    /// Probability that a handover also crosses a tracking-area boundary
    /// (producing a connected-mode `TAU` right after the `HO`);
    /// ≈ 1 / cells-per-tracking-area.
    pub(crate) tau_per_ho_prob: f64,
    /// Rate (per hour, at diurnal multiplier 1.0) of idle-mode
    /// tracking-area crossings, each producing an idle `TAU`.
    pub(crate) idle_crossing_rate_per_hour: f64,
    /// Periodic TAU timer (3GPP T3412), seconds of *continuous idleness*
    /// after which a periodic `TAU` fires. LTE's default is 54 min.
    pub(crate) periodic_tau_secs: f64,
    /// Delay between an idle `TAU` and the `S1_CONN_REL` that releases its
    /// signaling connection, in seconds.
    pub(crate) idle_tau_release_delay: LogNormal,
    /// Rate (per hour, at diurnal multiplier 1.0) of *trips*: long
    /// continuously-connected journeys (commutes, drives) that produce
    /// dense handover runs — the dominant source of HO burstiness.
    pub(crate) trip_rate_per_hour: f64,
    /// Trip duration, seconds.
    pub(crate) trip_duration: LogNormal,
}

/// Power-cycling behavior (drives `ATCH`/`DTCH`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerProfile {
    /// Expected power-off events per day.
    pub(crate) cycles_per_day: f64,
    /// How long the UE stays off, in seconds.
    pub(crate) off_duration: LogNormal,
    /// Duration of the brief signaling connection that follows `ATCH`
    /// (registration hold), in seconds.
    pub(crate) attach_hold: LogNormal,
}

/// Complete behavioral profile of one device type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// The device type this profile describes.
    pub(crate) device: DeviceType,
    /// Hour-of-day activity curve.
    pub(crate) diurnal: DiurnalCurve,
    /// Per-UE activity multiplier distribution (mean ≈ 1; heavy-tailed so
    /// UEs differ by orders of magnitude, per Fig. 2's min–max spreads).
    pub(crate) activity: LogNormal,
    /// Session behavior.
    pub(crate) session: SessionProfile,
    /// Mobility behavior.
    pub(crate) mobility: MobilityProfile,
    /// Power-cycling behavior.
    pub(crate) power: PowerProfile,
}

/// Log-normal with mean exactly 1 for a given σ (μ = −σ²/2).
fn unit_mean_lognormal(sigma: f64) -> LogNormal {
    LogNormal::new(-sigma * sigma / 2.0, sigma).expect("valid sigma")
}

fn ln(median: f64, sigma: f64) -> LogNormal {
    LogNormal::from_median(median, sigma).expect("valid lognormal")
}

impl DeviceProfile {
    /// Preset profile for one device type (see module docs for the
    /// calibration targets).
    pub(crate) fn preset(device: DeviceType) -> DeviceProfile {
        match device {
            DeviceType::Phone => DeviceProfile {
                device,
                diurnal: DiurnalCurve::preset(device),
                activity: unit_mean_lognormal(0.9),
                session: SessionProfile {
                    base_rate_per_hour: 6.0,
                    burst_prob: 0.35,
                    burst_gap: ln(20.0, 0.9),
                    durations: vec![
                        (0.55, Dist::LogNormal(ln(8.0, 1.0))),
                        (0.35, Dist::LogNormal(ln(45.0, 0.9))),
                        (0.10, Dist::Pareto(Pareto::new(1.5, 120.0).expect("valid"))),
                    ],
                },
                mobility: MobilityProfile {
                    moving_prob: 0.08,
                    cell_dwell: ln(80.0, 0.8),
                    tau_per_ho_prob: 0.18,
                    idle_crossing_rate_per_hour: 0.12,
                    periodic_tau_secs: 5_400.0,
                    idle_tau_release_delay: ln(2.0, 0.6),
                    trip_rate_per_hour: 0.035,
                    trip_duration: ln(900.0, 0.6),
                },
                power: PowerProfile {
                    cycles_per_day: 0.15,
                    off_duration: ln(3_600.0, 1.0),
                    attach_hold: ln(5.0, 0.5),
                },
            },
            DeviceType::ConnectedCar => DeviceProfile {
                device,
                diurnal: DiurnalCurve::preset(device),
                activity: unit_mean_lognormal(0.6),
                session: SessionProfile {
                    base_rate_per_hour: 4.5,
                    burst_prob: 0.45,
                    burst_gap: ln(15.0, 0.8),
                    durations: vec![
                        (0.70, Dist::LogNormal(ln(6.0, 0.8))),
                        (0.25, Dist::LogNormal(ln(60.0, 0.9))),
                        (0.05, Dist::Pareto(Pareto::new(1.4, 180.0).expect("valid"))),
                    ],
                },
                mobility: MobilityProfile {
                    moving_prob: 0.10,
                    cell_dwell: ln(90.0, 0.7),
                    tau_per_ho_prob: 0.25,
                    idle_crossing_rate_per_hour: 0.70,
                    periodic_tau_secs: 7_200.0,
                    idle_tau_release_delay: ln(2.0, 0.6),
                    trip_rate_per_hour: 0.08,
                    trip_duration: ln(1_200.0, 0.6),
                },
                power: PowerProfile {
                    cycles_per_day: 2.8,
                    off_duration: ln(4.0 * 3_600.0, 0.9),
                    attach_hold: ln(6.0, 0.5),
                },
            },
            DeviceType::Tablet => DeviceProfile {
                device,
                diurnal: DiurnalCurve::preset(device),
                activity: unit_mean_lognormal(1.1),
                session: SessionProfile {
                    base_rate_per_hour: 3.5,
                    burst_prob: 0.40,
                    burst_gap: ln(25.0, 0.9),
                    durations: vec![
                        (0.45, Dist::LogNormal(ln(10.0, 1.0))),
                        (0.40, Dist::LogNormal(ln(90.0, 0.9))),
                        (0.15, Dist::Pareto(Pareto::new(1.5, 200.0).expect("valid"))),
                    ],
                },
                mobility: MobilityProfile {
                    moving_prob: 0.03,
                    cell_dwell: ln(100.0, 0.8),
                    tau_per_ho_prob: 0.15,
                    idle_crossing_rate_per_hour: 0.18,
                    periodic_tau_secs: 7_200.0,
                    idle_tau_release_delay: ln(2.0, 0.6),
                    trip_rate_per_hour: 0.016,
                    trip_duration: ln(600.0, 0.6),
                },
                power: PowerProfile {
                    cycles_per_day: 2.4,
                    off_duration: ln(6.0 * 3_600.0, 1.0),
                    attach_hold: ln(5.0, 0.5),
                },
            },
        }
    }

    /// A massive-IoT sensor profile (§9's generalizability discussion):
    /// sparse, machine-timed reporting sessions, no mobility, very long
    /// idle periods dominated by the periodic TAU timer. Assigned to any
    /// [`DeviceType`] slot (the slot only labels the records).
    pub fn iot_sensor(slot: DeviceType) -> DeviceProfile {
        DeviceProfile {
            device: slot,
            diurnal: DiurnalCurve::flat(), // machines don't sleep
            activity: unit_mean_lognormal(0.3),
            session: SessionProfile {
                base_rate_per_hour: 0.5, // one report every ~2 h
                burst_prob: 0.05,
                burst_gap: ln(30.0, 0.5),
                durations: vec![
                    (0.9, Dist::LogNormal(ln(3.0, 0.4))),
                    (0.1, Dist::LogNormal(ln(15.0, 0.5))),
                ],
            },
            mobility: MobilityProfile {
                moving_prob: 0.0,
                cell_dwell: ln(600.0, 0.5),
                tau_per_ho_prob: 0.0,
                idle_crossing_rate_per_hour: 0.0,
                periodic_tau_secs: 3_600.0 * 6.0,
                idle_tau_release_delay: ln(1.0, 0.4),
                trip_rate_per_hour: 0.0,
                trip_duration: ln(60.0, 0.3),
            },
            power: PowerProfile {
                cycles_per_day: 0.02, // battery devices rarely restart
                off_duration: ln(1_800.0, 0.8),
                attach_hold: ln(4.0, 0.4),
            },
        }
    }

    /// A self-driving-car profile (§9): continuously connected while in
    /// service with dense HO runs, frequent telemetry when parked.
    pub fn self_driving_car(slot: DeviceType) -> DeviceProfile {
        DeviceProfile {
            device: slot,
            diurnal: DiurnalCurve::preset(DeviceType::ConnectedCar),
            activity: unit_mean_lognormal(0.4),
            session: SessionProfile {
                base_rate_per_hour: 12.0, // constant telemetry
                burst_prob: 0.6,
                burst_gap: ln(8.0, 0.5),
                durations: vec![
                    (0.8, Dist::LogNormal(ln(4.0, 0.5))),
                    (0.2, Dist::LogNormal(ln(30.0, 0.7))),
                ],
            },
            mobility: MobilityProfile {
                moving_prob: 0.3,
                cell_dwell: ln(45.0, 0.5), // fast, small cells
                tau_per_ho_prob: 0.3,
                idle_crossing_rate_per_hour: 1.5,
                periodic_tau_secs: 3_600.0,
                idle_tau_release_delay: ln(1.5, 0.5),
                trip_rate_per_hour: 0.3, // in service much of the day
                trip_duration: ln(1_800.0, 0.5),
            },
            power: PowerProfile {
                cycles_per_day: 1.0,
                off_duration: ln(2.0 * 3_600.0, 0.8),
                attach_hold: ln(6.0, 0.4),
            },
        }
    }

    /// Presets for all three device types, indexed by
    /// [`DeviceType::code`].
    pub(crate) fn all_presets() -> [DeviceProfile; 3] {
        [
            DeviceProfile::preset(DeviceType::Phone),
            DeviceProfile::preset(DeviceType::ConnectedCar),
            DeviceProfile::preset(DeviceType::Tablet),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unit_mean_activity() {
        let mut rng = StdRng::seed_from_u64(1);
        for device in DeviceType::ALL {
            let p = DeviceProfile::preset(device);
            let n = 50_000;
            let mean: f64 = (0..n).map(|_| p.activity.sample(&mut rng)).sum::<f64>() / n as f64;
            assert!((mean - 1.0).abs() < 0.1, "{device}: mean {mean}");
        }
    }

    #[test]
    fn duration_weights_positive() {
        for device in DeviceType::ALL {
            let p = DeviceProfile::preset(device);
            assert!(!p.session.durations.is_empty());
            assert!(p.session.durations.iter().all(|(w, _)| *w > 0.0));
        }
    }

    #[test]
    fn cars_are_the_most_mobile() {
        let phone = DeviceProfile::preset(DeviceType::Phone);
        let car = DeviceProfile::preset(DeviceType::ConnectedCar);
        let tablet = DeviceProfile::preset(DeviceType::Tablet);
        assert!(car.mobility.moving_prob > phone.mobility.moving_prob);
        assert!(phone.mobility.moving_prob > tablet.mobility.moving_prob);
        assert!(
            car.mobility.idle_crossing_rate_per_hour > phone.mobility.idle_crossing_rate_per_hour
        );
    }

    #[test]
    fn alternative_profiles_have_distinct_signatures() {
        let iot = DeviceProfile::iot_sensor(DeviceType::Tablet);
        assert_eq!(iot.device, DeviceType::Tablet);
        assert_eq!(iot.mobility.moving_prob, 0.0);
        assert!(iot.session.base_rate_per_hour < 1.0);
        let sdc = DeviceProfile::self_driving_car(DeviceType::ConnectedCar);
        assert!(sdc.mobility.trip_rate_per_hour > 0.1);
        assert!(sdc.session.base_rate_per_hour > 10.0);
    }

    #[test]
    fn presets_indexable_by_device_code() {
        let all = DeviceProfile::all_presets();
        for device in DeviceType::ALL {
            assert_eq!(all[device.code() as usize].device, device);
        }
    }
}
