//! The modeled world, measured once, for the paper's §4 characterization.
//!
//! Table 1, Fig. 2 (panels and summary), Fig. 4 and the real side of the
//! diurnal profile all read a few aggregates of the same week per device
//! type. [`WorldProfile::of`] groups the world by UE once and replays each
//! UE once, keeping only those aggregates. A UE's device type is that of
//! its first record. Fig. 3's streams are population level, so each is one
//! filter over the time-ordered world ([`Stream::of_world`]), built only
//! when read.

use cn_statemachine::{replay_ue, TopTransition};
use cn_stats::hurst_aggregated_variance;
use cn_stats::variance_time::{bin_counts, default_scales, variance_time_plot, VarianceTimePoint};
use cn_trace::{DeviceType, EventType, HourOfDay, Timestamp, Trace, MS_PER_SEC};

/// The four event streams of Fig. 2's panels, its summary and Fig. 3.
pub(crate) const STREAMS: [EventType; 4] = [
    EventType::ServiceRequest,
    EventType::S1ConnRelease,
    EventType::Handover,
    EventType::Tau,
];

/// Fig. 3's view of one device's event stream, binned into 100 ms counts
/// over `[0, end of the world)`.
pub(crate) struct Stream {
    /// The variance–time plot at [`default_scales`].
    pub(crate) variance: Vec<VarianceTimePoint>,
    /// Events per 100 ms bin.
    pub(crate) rate: f64,
    /// The aggregated-variance Hurst exponent, if estimable.
    pub(crate) hurst: Option<f64>,
}

impl Stream {
    /// The `(device, event)` stream of `world`.
    pub(crate) fn of_world(world: &Trace, device: DeviceType, event: EventType) -> Stream {
        let times: Vec<u64> = world
            .iter()
            .filter(|r| r.device == device && r.event == event)
            .map(|r| r.t.as_millis())
            .collect();
        let bins = bin_counts(&times, 0, world.end().map_or(0, |e| e.as_millis()));
        Stream {
            variance: variance_time_plot(&bins, &default_scales()),
            rate: times.len() as f64 / bins.len().max(1) as f64,
            hurst: hurst_aggregated_variance(&bins, 8).map(|e| e.h),
        }
    }
}

/// What the modeled world shows, per device type (indexed by code).
pub(crate) struct WorldProfile {
    /// Share of each event type in the device's events (Table 1).
    pub(crate) shares: [[f64; 6]; 3],
    /// UEs of the device.
    pub(crate) ues: [usize; 3],
    /// Per (event, hour): how many (UE, day) windows hold `n` events, at
    /// index `n` (Fig. 2).
    windows: [[[Vec<usize>; 24]; 6]; 3],
    /// Events per hour of day, averaged over whole days (the diurnal
    /// profile's real side).
    pub(crate) volumes: [[f64; 24]; 3],
    /// Fig. 4's busy-hour samples (seconds), in UE order: CONNECTED and
    /// IDLE sojourns entered in the busy hour, then HO and TAU gaps within
    /// one (day, busy hour) window.
    pub(crate) busy: [[Vec<f64>; 4]; 3],
}

impl WorldProfile {
    /// Measure a world of `days` days (a record past the last whole day
    /// counts in it).
    pub(crate) fn of(world: &Trace, days: f64, busy_hour: u8) -> WorldProfile {
        let n_days = days.ceil() as usize;
        let weight = 1.0 / days.max(1.0);
        let busy = HourOfDay(busy_hour);
        let mut counts = [[0usize; 6]; 3];
        let mut ues = [0usize; 3];
        let mut windows: [[[Vec<usize>; 24]; 6]; 3] = Default::default();
        // Every addend is `weight`, so each sum is independent of order.
        let mut volumes = [[0f64; 24]; 3];
        let mut samples: [[Vec<f64>; 4]; 3] = Default::default();
        let mut per_window = vec![0usize; 6 * 24 * n_days];
        for (_, events) in world.per_ue().iter() {
            let Some(first) = events.first() else {
                continue;
            };
            let d = first.device.code() as usize;
            ues[d] += 1;
            per_window.fill(0);
            let mut last: [Option<Timestamp>; 4] = [None; 4];
            for r in events {
                let (e, h) = (r.event.code() as usize, r.t.hour_of_day().index());
                counts[d][e] += 1;
                volumes[d][h] += weight;
                per_window[(e * 24 + h) * n_days + (r.t.day() as usize).min(n_days - 1)] += 1;
                let Some(s) = STREAMS.iter().position(|&x| x == r.event) else {
                    continue;
                };
                // HO and TAU gaps, within one (day, hour) window only, per
                // the paper's §4.1.1 preprocessing.
                if s >= 2 {
                    let window = (r.t.day(), r.t.hour_of_day());
                    if let Some(prev) = last[s] {
                        if window.1 == busy && (prev.day(), prev.hour_of_day()) == window {
                            samples[d][s].push(r.t.since(prev) as f64 / MS_PER_SEC as f64);
                        }
                    }
                    last[s] = Some(r.t);
                }
            }
            let cells = windows[d].iter_mut().flatten();
            for (cell, counts) in cells.zip(per_window.chunks(n_days)) {
                for &n in counts {
                    if cell.len() <= n {
                        cell.resize(n + 1, 0);
                    }
                    cell[n] += 1;
                }
            }
            for s in &replay_ue(events).top_sojourns {
                if s.enter.hour_of_day() != busy {
                    continue;
                }
                let secs = s.duration_ms as f64 / MS_PER_SEC as f64;
                match s.transition {
                    TopTransition::ConnToIdle => samples[d][0].push(secs),
                    TopTransition::IdleToConn => samples[d][1].push(secs),
                    _ => {}
                }
            }
        }
        WorldProfile {
            shares: counts.map(crate::profile::shares_of),
            ues,
            windows,
            volumes,
            busy: samples,
        }
    }

    /// Events of `(device, event)` in each (UE, day) window of `hour`, one
    /// sample per window, ascending.
    pub(crate) fn window_counts(
        &self,
        device: DeviceType,
        event: EventType,
        hour: HourOfDay,
    ) -> Vec<f64> {
        let repeat = |(n, &windows): (usize, &usize)| std::iter::repeat_n(n as f64, windows);
        let cell = self.cell(device, event, hour).iter().enumerate();
        cell.flat_map(repeat).collect()
    }

    /// Events of `(device, event)` in `hour`, over every day.
    pub(crate) fn events(&self, device: DeviceType, event: EventType, hour: HourOfDay) -> usize {
        let cell = self.cell(device, event, hour).iter().enumerate();
        cell.map(|(n, &windows)| n * windows).sum()
    }

    fn cell(&self, device: DeviceType, event: EventType, hour: HourOfDay) -> &[usize] {
        &self.windows[device.code() as usize][event.code() as usize][hour.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{TraceRecord, UeId};

    #[test]
    fn windows_and_busy_gaps() {
        use EventType::*;
        let car = DeviceType::ConnectedCar;
        let rec = |day, minute: u64, ue, event| {
            let t = Timestamp::at_hour(day, 18).as_millis() + minute * 60_000;
            TraceRecord::new(Timestamp::from_millis(t), UeId(ue), car, event)
        };
        let world = Trace::from_records(vec![
            rec(0, 10, 0, Handover),
            rec(0, 20, 0, Handover),
            rec(1, 5, 0, Handover),
            rec(1, 7, 1, Tau),
        ]);
        let w = WorldProfile::of(&world, 2.0, 18);
        // UE 1's two days hold no HO; UE 0's hold two and one.
        let hour = HourOfDay(18);
        assert_eq!(w.window_counts(car, Handover, hour), [0.0, 0.0, 1.0, 2.0]);
        assert_eq!(w.events(car, Handover, hour), 3);
        assert_eq!(w.ues, [0, 2, 0]);
        assert_eq!(w.shares[1][Handover.code() as usize], 0.75);
        // The gap into day 1 spans two windows, so only day 0's is seen.
        assert_eq!(w.busy[1][2], [600.0]);
        assert!(w.busy[1][3].is_empty());
    }
}
