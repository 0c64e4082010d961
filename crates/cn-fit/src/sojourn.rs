//! Per-UE observation extraction.
//!
//! One replay pass per UE produces everything the fitting pipeline needs:
//! per-hour-of-day sojourn samples for top- and second-level transitions
//! (pooled across days, §4.1.1), per-hour `HO`/`TAU` inter-arrival gaps
//! (for the EMM–ECM baseline methods), per-(day, hour) first events
//! (§5.4), per-hour event counts, and the paper's four clustering features.

use cn_statemachine::{replay_ue, BottomTransition, TlState, TopTransition};
use cn_stats::summary::std_dev;
use cn_trace::{DeviceType, EventType, HourOfDay, TraceRecord, MS_PER_SEC};
use std::collections::HashMap;

/// Everything observed about one UE, bucketed by hour-of-day.
#[derive(Debug, Clone)]
pub(crate) struct UeObservations {
    /// Its device type.
    pub(crate) device: DeviceType,
    /// Top-level sojourn samples (seconds), by hour of state entry.
    pub(crate) top_by_hour: Vec<HashMap<TopTransition, Vec<f64>>>,
    /// Second-level sojourn samples (seconds), by hour of state entry.
    pub(crate) bottom_by_hour: Vec<HashMap<BottomTransition, Vec<f64>>>,
    /// Bottom-state visits ending with no second-level transition
    /// (censored by a top-level move), by hour of state entry.
    pub(crate) bottom_censored_by_hour: Vec<HashMap<TlState, usize>>,
    /// Gaps between consecutive `HO` events *within the same (day, hour)
    /// window* (seconds), bucketed by hour-of-day — the paper's §4.1.1
    /// preprocessing observes inter-arrival times per 1-hour interval, so
    /// gaps spanning interval boundaries are never seen; the EMM–ECM
    /// baselines fit these (burst-dominated) gaps as Poisson arrivals,
    /// which is precisely what makes them flood the trace with HO.
    pub(crate) ho_gaps_by_hour: Vec<Vec<f64>>,
    /// Same for `TAU`.
    pub(crate) tau_gaps_by_hour: Vec<Vec<f64>>,
    /// First event and offset-in-hour (seconds) per (day, hour) window that
    /// had any events.
    pub(crate) first_by_day_hour: HashMap<(u64, u8), (EventType, f64)>,
    /// Event counts per hour-of-day × event type, summed over days.
    pub(crate) counts_by_hour: [[u32; 6]; 24],
}

impl UeObservations {
    /// Extract observations from one UE's time-sorted events.
    pub(crate) fn observe(device: DeviceType, events: &[TraceRecord]) -> UeObservations {
        let outcome = replay_ue(events);
        let mut obs = UeObservations {
            device,
            top_by_hour: vec![HashMap::new(); 24],
            bottom_by_hour: vec![HashMap::new(); 24],
            bottom_censored_by_hour: vec![HashMap::new(); 24],
            ho_gaps_by_hour: vec![Vec::new(); 24],
            tau_gaps_by_hour: vec![Vec::new(); 24],
            first_by_day_hour: HashMap::new(),
            counts_by_hour: [[0; 6]; 24],
        };
        for s in &outcome.top_sojourns {
            let h = s.enter.hour_of_day().index();
            obs.top_by_hour[h]
                .entry(s.transition)
                .or_default()
                .push(s.duration_ms as f64 / MS_PER_SEC as f64);
        }
        for s in &outcome.bottom_sojourns {
            let h = s.enter.hour_of_day().index();
            obs.bottom_by_hour[h]
                .entry(s.transition)
                .or_default()
                .push(s.duration_ms as f64 / MS_PER_SEC as f64);
        }
        for &(state, enter) in &outcome.bottom_censored {
            let h = enter.hour_of_day().index();
            *obs.bottom_censored_by_hour[h].entry(state).or_insert(0) += 1;
        }
        let mut last_ho: Option<cn_trace::Timestamp> = None;
        let mut last_tau: Option<cn_trace::Timestamp> = None;
        let window = |t: cn_trace::Timestamp| (t.day(), t.hour_of_day().get());
        for r in events {
            let h = r.t.hour_of_day().index();
            obs.counts_by_hour[h][r.event.code() as usize] += 1;
            let key = window(r.t);
            obs.first_by_day_hour
                .entry(key)
                .or_insert_with(|| (r.event, r.t.offset_in_hour() as f64 / MS_PER_SEC as f64));
            match r.event {
                EventType::Handover => {
                    if let Some(prev) = last_ho {
                        if window(prev) == key {
                            obs.ho_gaps_by_hour[h].push(r.t.since(prev) as f64 / MS_PER_SEC as f64);
                        }
                    }
                    last_ho = Some(r.t);
                }
                EventType::Tau => {
                    if let Some(prev) = last_tau {
                        if window(prev) == key {
                            obs.tau_gaps_by_hour[h]
                                .push(r.t.since(prev) as f64 / MS_PER_SEC as f64);
                        }
                    }
                    last_tau = Some(r.t);
                }
                _ => {}
            }
        }
        obs
    }

    /// The paper's four clustering features for one hour-of-day (§5.3):
    /// `[srv_req count/day, std(CONNECTED sojourn), s1_conn_rel count/day,
    /// std(IDLE sojourn)]`.
    pub(crate) fn features_for_hour(&self, hour: HourOfDay, n_days: u64) -> Vec<f64> {
        let h = hour.index();
        let days = n_days.max(1) as f64;
        let srv = f64::from(self.counts_by_hour[h][EventType::ServiceRequest.code() as usize]);
        let rel = f64::from(self.counts_by_hour[h][EventType::S1ConnRelease.code() as usize]);
        let conn: Vec<f64> = [TopTransition::ConnToIdle, TopTransition::ConnToDereg]
            .iter()
            .flat_map(|t| self.top_by_hour[h].get(t).into_iter().flatten().copied())
            .collect();
        let idle: Vec<f64> = [TopTransition::IdleToConn, TopTransition::IdleToDereg]
            .iter()
            .flat_map(|t| self.top_by_hour[h].get(t).into_iter().flatten().copied())
            .collect();
        vec![srv / days, std_dev(&conn), rel / days, std_dev(&idle)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{Timestamp, UeId, MS_PER_HOUR};

    fn rec(t_ms: u64, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t_ms), UeId(0), DeviceType::Phone, e)
    }

    #[test]
    fn empty_stream_gives_empty_observations() {
        let obs = UeObservations::observe(DeviceType::Phone, &[]);
        assert!(obs.first_by_day_hour.is_empty());
        assert_eq!(obs.counts_by_hour[0].iter().sum::<u32>(), 0);
        assert_eq!(obs.features_for_hour(HourOfDay(0), 1), vec![0.0; 4]);
    }

    #[test]
    fn sojourns_bucketed_by_entry_hour() {
        use EventType::*;
        // Attach at 00:30, release at 01:10 → CONNECTED sojourn of 2400 s
        // assigned to hour 0 (entry time).
        let events = vec![
            rec(MS_PER_HOUR / 2, Attach),
            rec(MS_PER_HOUR + 10 * 60 * 1000, S1ConnRelease),
        ];
        let obs = UeObservations::observe(DeviceType::Phone, &events);
        let h0 = &obs.top_by_hour[0];
        let conn = h0.get(&TopTransition::ConnToIdle).unwrap();
        assert_eq!(conn.len(), 1);
        assert!((conn[0] - 2_400.0).abs() < 1e-9);
        assert!(obs.top_by_hour[1].is_empty());
    }

    #[test]
    fn first_events_per_day_hour() {
        use EventType::*;
        let events = vec![
            rec(1_000, ServiceRequest),
            rec(2_000, S1ConnRelease),
            rec(MS_PER_HOUR + 500, ServiceRequest),
            rec(24 * MS_PER_HOUR + 42_000, Tau),
        ];
        let obs = UeObservations::observe(DeviceType::Phone, &events);
        assert_eq!(
            obs.first_by_day_hour.get(&(0, 0)),
            Some(&(ServiceRequest, 1.0))
        );
        assert_eq!(
            obs.first_by_day_hour.get(&(0, 1)),
            Some(&(ServiceRequest, 0.5))
        );
        assert_eq!(obs.first_by_day_hour.get(&(1, 0)), Some(&(Tau, 42.0)));
        assert_eq!(obs.first_by_day_hour.len(), 3);
    }

    #[test]
    fn ho_gaps_are_window_local() {
        use EventType::*;
        let events = vec![
            rec(1_000, ServiceRequest),
            rec(10_000, Handover),
            rec(250_000, Handover),              // same hour 0: gap of 240 s
            rec(MS_PER_HOUR + 5_000, Handover),  // next hour: gap discarded
            rec(MS_PER_HOUR + 90_000, Handover), // hour 1: gap of 85 s
        ];
        let obs = UeObservations::observe(DeviceType::Phone, &events);
        assert_eq!(obs.ho_gaps_by_hour[0], vec![240.0]);
        // The cross-boundary gap is never observed (§4.1.1 preprocessing).
        assert_eq!(obs.ho_gaps_by_hour[1], vec![85.0]);
    }

    #[test]
    fn features_scale_by_days() {
        use EventType::*;
        let events = vec![
            rec(1_000, ServiceRequest),
            rec(5_000, S1ConnRelease),
            rec(24 * MS_PER_HOUR + 1_000, ServiceRequest),
            rec(24 * MS_PER_HOUR + 9_000, S1ConnRelease),
        ];
        let obs = UeObservations::observe(DeviceType::Phone, &events);
        let f = obs.features_for_hour(HourOfDay(0), 2);
        assert!((f[0] - 1.0).abs() < 1e-12, "srv/day {}", f[0]);
        assert!((f[2] - 1.0).abs() < 1e-12);
        // Two CONNECTED sojourns (4 s and 8 s) → std = 2.
        assert!((f[1] - 2.0).abs() < 1e-9, "conn std {}", f[1]);
    }
}
