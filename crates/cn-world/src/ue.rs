//! Per-UE discrete-event behavioral simulation.
//!
//! One UE is simulated as an alternating sequence of idle periods and
//! sessions, with mobility and power processes superimposed:
//!
//! * at the top of the main loop the UE is powered-on and ECM-IDLE;
//! * the next thing to happen is the earliest of (a) the pending session
//!   start, (b) an idle-mode TAU (tracking-area crossing or periodic-timer
//!   expiry — whichever comes first), or (c) a power-off;
//! * an idle TAU is emitted as the atomic pair `TAU` → `S1_CONN_REL`
//!   (Fig. 5's `TAU_S_IDLE` → `S1_REL_S_2` behavior); a session start that
//!   would fall inside the pair is deferred past the release;
//! * a session emits `SRV_REQ`, a stream of `HO` (and occasional connected
//!   `TAU`) while moving, and the closing `S1_CONN_REL`; a power-off during
//!   the session truncates it with `DTCH`;
//! * after `DTCH` the UE sleeps for the off-duration and re-enters with
//!   `ATCH`, a short registration hold, and a release.
//!
//! The emitted stream is conformant to the two-level machine by
//! construction; timestamps are strictly increasing per UE (sub-millisecond
//! collisions are bumped by 1 ms).

use crate::mobility;
use crate::profile::DeviceProfile;
use crate::session;
use cn_trace::{EventType, Timestamp, TraceRecord, UeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulate one UE over `[0, horizon_secs)`, appending its events in time order.
///
/// The per-UE activity multiplier is drawn from the profile's activity
/// distribution using `seed`, so a fixed `(profile, horizon, seed)` triple
/// is fully reproducible.
pub(crate) fn simulate_ue(
    ue: UeId,
    profile: &DeviceProfile,
    horizon_secs: f64,
    seed: u64,
    records: &mut Vec<TraceRecord>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let activity = profile.activity.sample(&mut rng).clamp(0.05, 50.0);
    let mut sim = UeSim {
        ue,
        profile,
        activity,
        horizon_secs,
        records,
        last_ms: None,
    };
    sim.run(&mut rng);
}

struct UeSim<'a> {
    ue: UeId,
    profile: &'a DeviceProfile,
    activity: f64,
    horizon_secs: f64,
    records: &'a mut Vec<TraceRecord>,
    last_ms: Option<u64>,
}

impl UeSim<'_> {
    /// Emit an event at `t_secs`, bumping to keep per-UE times strictly
    /// increasing. Events at/after the horizon are dropped.
    fn emit(&mut self, t_secs: f64, event: EventType) {
        if t_secs >= self.horizon_secs {
            return;
        }
        let mut ms = (t_secs * 1_000.0).round() as u64;
        if let Some(last) = self.last_ms {
            ms = ms.max(last + 1);
        }
        if ms >= (self.horizon_secs * 1_000.0) as u64 {
            return;
        }
        self.last_ms = Some(ms);
        self.records.push(TraceRecord::new(
            Timestamp::from_millis(ms),
            self.ue,
            self.profile.device,
            event,
        ));
    }

    /// Diurnal (weekend-aware) × per-UE-activity rate multiplier for
    /// sessions.
    fn session_mult(&self) -> impl Fn(Timestamp) -> f64 + '_ {
        move |t| self.profile.diurnal.at_time(t) * self.activity
    }

    /// Diurnal multiplier for mobility (movement follows the activity
    /// rhythm but not the per-UE session appetite).
    fn mobility_mult(&self) -> impl Fn(Timestamp) -> f64 + '_ {
        move |t| self.profile.diurnal.at_time(t)
    }

    /// Waiting time to the next power-off: log-normal with the profile's
    /// mean interval (people cycle devices irregularly, not memorylessly —
    /// and an exponential here would make the REGISTERED sojourn genuinely
    /// Poisson, which real registration behavior is not).
    fn power_gap(&self, rng: &mut StdRng) -> f64 {
        let mean = 86_400.0 / self.profile.power.cycles_per_day.max(1e-9);
        let sigma = 1.3f64;
        let mu = mean.ln() - sigma * sigma / 2.0;
        cn_stats::dist::LogNormal::new(mu, sigma)
            .expect("valid lognormal")
            .sample(rng)
            .max(60.0)
    }

    fn run(&mut self, rng: &mut StdRng) {
        let mut now = 0.0f64;
        // Desynchronize periodic TAU timers across UEs.
        let mut idle_since = now - rng.gen::<f64>() * self.profile.mobility.periodic_tau_secs;
        let mut next_power_off = now + self.power_gap(rng);
        let mut pending_session = self.next_session_time(now, rng).unwrap_or(f64::INFINITY);
        let mut pending_trip = self.next_trip_time(now, rng).unwrap_or(f64::INFINITY);

        while now < self.horizon_secs {
            // Next idle TAU: crossing or periodic expiry, whichever first.
            let crossing = mobility::next_idle_crossing(
                &self.profile.mobility,
                now,
                self.mobility_mult(),
                rng,
            )
            .map_or(f64::INFINITY, |g| now + g);
            let periodic = idle_since + self.profile.mobility.periodic_tau_secs;
            let next_tau = crossing.min(periodic.max(now));

            let next = pending_session
                .min(next_tau)
                .min(next_power_off)
                .min(pending_trip);
            if next >= self.horizon_secs {
                break;
            }

            if next == next_power_off {
                // Power off from idle, sleep, re-attach.
                now = self.power_cycle(next, rng);
                idle_since = now;
                next_power_off = now + self.power_gap(rng);
                pending_session = self.next_session_time(now, rng).unwrap_or(f64::INFINITY);
                pending_trip = self.next_trip_time(now, rng).unwrap_or(f64::INFINITY);
            } else if next == pending_trip {
                // A trip: a long connected period with a dense HO run.
                let (end, powered_off) = self.run_session(pending_trip, next_power_off, rng, true);
                now = end;
                idle_since = now;
                if powered_off {
                    now = self.finish_power_cycle(end, rng);
                    idle_since = now;
                    next_power_off = now + self.power_gap(rng);
                }
                pending_trip = self.next_trip_time(now, rng).unwrap_or(f64::INFINITY);
                if pending_session <= now {
                    pending_session = self.next_session_time(now, rng).unwrap_or(f64::INFINITY);
                }
            } else if next == next_tau {
                // Idle TAU: atomic TAU → S1_CONN_REL pair.
                let release = next + mobility::idle_tau_release_delay(&self.profile.mobility, rng);
                if next_power_off > next && next_power_off <= release {
                    // Power-off interrupts before the release.
                    self.emit(next, EventType::Tau);
                    now = self.power_cycle(next_power_off, rng);
                    idle_since = now;
                    next_power_off = now + self.power_gap(rng);
                    pending_session = self.next_session_time(now, rng).unwrap_or(f64::INFINITY);
                    pending_trip = self.next_trip_time(now, rng).unwrap_or(f64::INFINITY);
                } else {
                    self.emit(next, EventType::Tau);
                    self.emit(release, EventType::S1ConnRelease);
                    now = release;
                    idle_since = now;
                    if pending_session <= release {
                        // The deferred service request follows promptly.
                        pending_session = release + 0.5 + rng.gen::<f64>() * 2.0;
                    }
                }
            } else {
                // Session.
                let (end, powered_off) =
                    self.run_session(pending_session, next_power_off, rng, false);
                now = end;
                idle_since = now;
                if powered_off {
                    now = self.finish_power_cycle(end, rng);
                    idle_since = now;
                    next_power_off = now + self.power_gap(rng);
                }
                pending_session = self.next_session_time(now, rng).unwrap_or(f64::INFINITY);
                if pending_trip <= now {
                    pending_trip = self.next_trip_time(now, rng).unwrap_or(f64::INFINITY);
                }
            }
        }
    }

    /// Absolute time of the next session start after `now`.
    fn next_session_time(&self, now: f64, rng: &mut StdRng) -> Option<f64> {
        session::next_session_gap(&self.profile.session, now, self.session_mult(), rng)
            .map(|g| now + g)
    }

    /// Absolute time of the next trip start after `now` (diurnal-modulated;
    /// trips follow the movement rhythm, not the per-UE session appetite).
    fn next_trip_time(&self, now: f64, rng: &mut StdRng) -> Option<f64> {
        session::piecewise_exp_gap(
            now,
            |t| self.profile.mobility.trip_rate_per_hour * self.profile.diurnal.at_time(t),
            rng,
        )
        .map(|g| now + g)
    }

    /// Run one session starting at `start`. Returns `(end_time,
    /// powered_off)`; when `powered_off` the session was truncated by
    /// `DTCH` at `end_time` and the caller must complete the power cycle.
    fn run_session(
        &mut self,
        start: f64,
        power_off: f64,
        rng: &mut StdRng,
        trip: bool,
    ) -> (f64, bool) {
        self.emit(start, EventType::ServiceRequest);
        let duration = if trip {
            self.profile.mobility.trip_duration.sample(rng).max(30.0)
        } else {
            session::sample_duration(&self.profile.session, rng)
        };
        let end = start + duration;
        let moving = trip || mobility::session_is_moving(&self.profile.mobility, rng);
        let hard_end = end.min(power_off);

        if moving {
            let mut t = start + mobility::next_cell_dwell(&self.profile.mobility, rng);
            while t < hard_end {
                self.emit(t, EventType::Handover);
                // The TA-crossing TAU must stay inside the session: a TAU
                // sorted after the closing release would land in IDLE and
                // make the next SRV_REQ illegal.
                if t + 0.2 < hard_end && mobility::ho_crosses_ta(&self.profile.mobility, rng) {
                    self.emit(t + 0.2, EventType::Tau);
                }
                t += mobility::next_cell_dwell(&self.profile.mobility, rng);
            }
        }

        if power_off < end {
            self.emit(power_off, EventType::Detach);
            (power_off, true)
        } else {
            self.emit(end, EventType::S1ConnRelease);
            (end, false)
        }
    }

    /// Power off at `off_time` from idle: `DTCH`, sleep, `ATCH`, short
    /// registration hold, release. Returns the time the UE is idle again.
    fn power_cycle(&mut self, off_time: f64, rng: &mut StdRng) -> f64 {
        self.emit(off_time, EventType::Detach);
        self.finish_power_cycle(off_time, rng)
    }

    /// After a `DTCH` at `off_time`: sleep, re-attach, hold, release.
    fn finish_power_cycle(&mut self, off_time: f64, rng: &mut StdRng) -> f64 {
        let off_dur = self.profile.power.off_duration.sample(rng).max(10.0);
        let on_time = off_time + off_dur;
        self.emit(on_time, EventType::Attach);
        let hold = self.profile.power.attach_hold.sample(rng).max(0.5);
        self.emit(on_time + hold, EventType::S1ConnRelease);
        on_time + hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_statemachine::replay_ue;
    use cn_trace::{DeviceType, Trace};

    fn sim(device: DeviceType, hours: f64, seed: u64) -> Trace {
        let profile = DeviceProfile::preset(device);
        let mut records = Vec::new();
        simulate_ue(UeId(0), &profile, hours * 3_600.0, seed, &mut records);
        Trace::from_records(records)
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = sim(DeviceType::Phone, 24.0, 42);
        let b = sim(DeviceType::Phone, 24.0, 42);
        assert_eq!(a, b);
        let c = sim(DeviceType::Phone, 24.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn produces_events_within_horizon() {
        let t = sim(DeviceType::Phone, 24.0, 1);
        assert!(!t.is_empty(), "a day of phone activity can't be empty");
        assert!(t.end().unwrap().as_millis() < 24 * 3_600 * 1_000);
    }

    #[test]
    fn per_ue_times_strictly_increase() {
        let t = sim(DeviceType::ConnectedCar, 48.0, 7);
        let recs = t.records();
        for w in recs.windows(2) {
            assert!(w[0].t < w[1].t, "{:?} then {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn streams_are_conformant_to_two_level_machine() {
        for device in DeviceType::ALL {
            for seed in 0..20 {
                let t = sim(device, 48.0, seed);
                let out = replay_ue(t.records());
                assert!(
                    out.is_conformant(),
                    "{device} seed {seed}: {:?}",
                    out.violations.first()
                );
            }
        }
    }

    #[test]
    fn event_mix_is_plausible() {
        // Aggregate several UEs; SRV_REQ and S1_CONN_REL should dominate
        // and be nearly paired; HO should exceed zero; cars should have a
        // larger HO share than tablets.
        let share = |device: DeviceType| {
            let mut counts = [0usize; 6];
            let mut total = 0usize;
            for seed in 0..30 {
                let t = sim(device, 72.0, 1_000 + seed);
                for r in t.iter() {
                    counts[r.event.code() as usize] += 1;
                    total += 1;
                }
            }
            let ho = counts[EventType::Handover.code() as usize] as f64 / total as f64;
            let srv = counts[EventType::ServiceRequest.code() as usize] as f64 / total as f64;
            let rel = counts[EventType::S1ConnRelease.code() as usize] as f64 / total as f64;
            (srv, rel, ho)
        };
        let (p_srv, p_rel, p_ho) = share(DeviceType::Phone);
        assert!(p_srv > 0.35 && p_srv < 0.55, "phone SRV share {p_srv}");
        assert!(p_rel >= p_srv - 0.02, "releases {p_rel} < requests {p_srv}");
        assert!(p_ho > 0.005, "phone HO share {p_ho}");
        let (_, _, car_ho) = share(DeviceType::ConnectedCar);
        let (_, _, tab_ho) = share(DeviceType::Tablet);
        assert!(car_ho > tab_ho, "car {car_ho} vs tablet {tab_ho}");
    }

    #[test]
    fn diurnal_rhythm_visible() {
        // Cars at 3 am should be far quieter than at 8 am.
        let profile = DeviceProfile::preset(DeviceType::ConnectedCar);
        let mut night = 0usize;
        let mut rush = 0usize;
        for seed in 0..60 {
            let mut t = Vec::new();
            simulate_ue(UeId(0), &profile, 7.0 * 86_400.0, 5_000 + seed, &mut t);
            for r in &t {
                match r.t.hour_of_day().get() {
                    2..=3 => night += 1,
                    7..=8 => rush += 1,
                    _ => {}
                }
            }
        }
        assert!(
            rush as f64 > 5.0 * night.max(1) as f64,
            "rush {rush} vs night {night}"
        );
    }

    #[test]
    fn zero_horizon_is_empty() {
        let t = sim(DeviceType::Phone, 0.0, 9);
        assert!(t.is_empty());
    }
}
