//! A single per-UE traffic generator, as a resumable event iterator.
//!
//! [`UeEventIter`] implements the §7 semantics one event at a time, so a
//! population can be synthesized either by collecting each UE's iterator
//! or by merging hundreds of thousands of live generators into one
//! time-ordered stream with bounded memory ([`crate::PopulationStream`]). The pool holds them as model-free
//! [`UeState`]s, so threads sharing one model set can step any of them.

use crate::engine::HourSemantics;
use cn_fit::{ClusterHourModel, DeviceModels, Method, ModelSet, StateMachineKind};
use cn_statemachine::two_level::IdleSub;
use cn_statemachine::{BottomTransition, TlState, TopState, TopTransition};
use cn_trace::{DeviceType, EventType, Timestamp, TraceRecord, UeId, MS_PER_HOUR};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hard bound on consecutive silent hours before a generator gives up
/// waiting for a usable model (prevents livelock on pathological models).
const MAX_SILENT_HOURS: u32 = 24 * 14;

/// Start of the hour following time `t` (seconds).
fn next_hour_boundary(t_secs: f64) -> f64 {
    let hour_len = (MS_PER_HOUR / 1_000) as f64;
    (t_secs / hour_len).floor() * hour_len + hour_len
}

/// Per-method dynamic state of the generator.
enum Mode {
    /// Not yet bootstrapped (first event pending).
    Boot,
    /// Two-level semantics (B2 / Ours).
    TwoLevel {
        state: TlState,
        top_pending: Option<(TopTransition, f64)>,
        top_retry: f64,
        bottom_pending: Option<(BottomTransition, f64)>,
        bottom_retry: f64,
    },
    /// EMM–ECM semantics with overlaid HO/TAU processes (Base / B1).
    EmmEcm {
        state: TopState,
        top_pending: Option<(TopTransition, f64)>,
        top_retry: f64,
        ho_next: Option<f64>,
        ho_retry: f64,
        tau_next: Option<f64>,
        tau_retry: f64,
    },
    /// Exhausted.
    Done,
}

/// A resumable per-UE event generator (see module docs): model-free
/// generator state, stepped with the device models it was created from.
pub struct UeEventIter<'m> {
    dm: &'m DeviceModels,
    state: UeState,
}

impl<'m> UeEventIter<'m> {
    /// Create a generator for `[start, end)`; identical `(seed, ue)` pairs
    /// yield identical streams.
    pub fn new(
        dm: &'m DeviceModels,
        method: Method,
        ue: UeId,
        start: Timestamp,
        end: Timestamp,
        seed: u64,
    ) -> UeEventIter<'m> {
        Self::with_semantics(dm, method, ue, start, end, seed, HourSemantics::EntryHour)
    }

    /// As [`UeEventIter::new`] with explicit hour-boundary semantics (§7
    /// leaves this open; see [`HourSemantics`]).
    pub(crate) fn with_semantics(
        dm: &'m DeviceModels,
        method: Method,
        ue: UeId,
        start: Timestamp,
        end: Timestamp,
        seed: u64,
        semantics: HourSemantics,
    ) -> UeEventIter<'m> {
        let state = UeState::new(dm, method, ue, start, end, seed, semantics);
        UeEventIter { dm, state }
    }
}

impl Iterator for UeEventIter<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        self.state.next(self.dm)
    }
}

/// A per-UE generator without its model: plain `Send` data, stepped by
/// [`UeState::next`] with the [`DeviceModels`] it was created from, so a
/// pool's generators can move between threads that share one model set.
pub(crate) struct UeState {
    method: Method,
    device: DeviceType,
    persona: [cn_fit::cluster::ClusterId; 24],
    ue: UeId,
    start: Timestamp,
    end_secs: f64,
    rng: StdRng,
    last_ms: Option<u64>,
    /// Event emitted together with another at the same instant (the idle
    /// TAU-release that must precede a top-level SRV_REQ).
    queued: Option<TraceRecord>,
    mode: Mode,
    guard: u32,
    semantics: HourSemantics,
}

impl UeState {
    pub(crate) fn new(
        dm: &DeviceModels,
        method: Method,
        ue: UeId,
        start: Timestamp,
        end: Timestamp,
        seed: u64,
        semantics: HourSemantics,
    ) -> UeState {
        let mut rng = StdRng::seed_from_u64(seed);
        let mode = if dm.personas.is_empty() || start >= end {
            Mode::Done
        } else {
            Mode::Boot
        };
        let persona = if dm.personas.is_empty() {
            [cn_fit::cluster::ClusterId(0); 24]
        } else {
            dm.personas[rng.gen_range(0..dm.personas.len())]
        };
        UeState {
            method,
            device: dm.device,
            persona,
            ue,
            start,
            end_secs: end.as_millis() as f64 / 1_000.0,
            rng,
            last_ms: None,
            queued: None,
            mode,
            guard: 0,
            semantics,
        }
    }

    /// A pool's step: the next event, from `models`' models of this UE's
    /// device type, as `(ms since base_ms, event)`.
    pub(crate) fn advance(&mut self, models: &ModelSet, base_ms: u64) -> Option<(u64, EventType)> {
        let rec = self.next(models.device(self.device))?;
        Some((rec.t.as_millis() - base_ms, rec.event))
    }

    /// Under truncating semantics, a fire time past the sampling hour's end
    /// is discarded — the retry machinery then resamples from the next
    /// hour's model at the boundary.
    fn truncate<T>(&self, base: f64, pending: Option<(T, f64)>) -> Option<(T, f64)> {
        match (self.semantics, &pending) {
            (HourSemantics::TruncateAtBoundary, Some((_, fire)))
                if *fire >= next_hour_boundary(base) =>
            {
                None
            }
            _ => pending,
        }
    }

    fn model_at<'d>(&self, dm: &'d DeviceModels, t_secs: f64) -> &'d ClusterHourModel {
        let hour = Timestamp::from_secs_f64(t_secs).hour_of_day();
        dm.hour(hour).cluster(self.persona[hour.index()])
    }

    /// Build the record for an event at `t_secs` with the monotonic-ms
    /// bump; `None` when it falls at/after the end.
    fn stamp(&mut self, t_secs: f64, event: EventType) -> Option<TraceRecord> {
        if t_secs >= self.end_secs {
            return None;
        }
        let mut ms = (t_secs * 1_000.0).round() as u64;
        if let Some(last) = self.last_ms {
            ms = ms.max(last + 1);
        }
        if ms >= (self.end_secs * 1_000.0) as u64 {
            return None;
        }
        self.last_ms = Some(ms);
        Some(TraceRecord::new(
            Timestamp::from_millis(ms),
            self.ue,
            self.device,
            event,
        ))
    }

    /// Bootstrap via the first-event models (§5.4).
    fn first_event(&mut self, dm: &DeviceModels) -> Option<(EventType, f64)> {
        let mut cursor = self.start.as_millis() as f64 / 1_000.0;
        let hour_len = (MS_PER_HOUR / 1_000) as f64;
        for _ in 0..MAX_SILENT_HOURS {
            if cursor >= self.end_secs {
                return None;
            }
            let model = self.model_at(dm, cursor);
            if let Some((event, offset)) = model.first_event.sample(&mut self.rng) {
                let hour_start = (cursor / hour_len).floor() * hour_len;
                let t = (hour_start + offset).max(cursor);
                if t < self.end_secs && t < hour_start + hour_len {
                    return Some((event, t));
                }
                // Offset fell before a mid-hour start or past the end:
                // treat this hour as silent and move on.
            }
            cursor = next_hour_boundary(cursor);
        }
        None
    }

    /// Sample the next top-level move from `model`, the model of `base`'s
    /// hour: a caller arming several timers at one instant looks it up once.
    fn sample_top(
        &mut self,
        model: &ClusterHourModel,
        s: TopState,
        base: f64,
    ) -> Option<(TopTransition, f64)> {
        let pending = model
            .top
            .sample_next(s, &mut self.rng)
            .map(|(tr, d)| (tr, base + d));
        self.truncate(base, pending)
    }

    /// Arm the second-level timer for a fresh visit to `s`: with the fitted
    /// exit probability the visit is silent (no Category-2 event until the
    /// next top-level move); otherwise the sampled sojourn is conditioned
    /// on landing *before* `top_fire` — the empirical delays were observed
    /// within completed visits, so a free race against an independently
    /// redrawn top sojourn would systematically under-generate HO/TAU.
    fn arm_bottom(
        &mut self,
        model: &ClusterHourModel,
        s: TlState,
        base: f64,
        top_fire: f64,
    ) -> (Option<(BottomTransition, f64)>, f64) {
        match model.exit_prob(s) {
            Some(p) if self.rng.gen::<f64>() < p => (None, f64::INFINITY),
            _ => {
                for _ in 0..16 {
                    match model.bottom.sample_next(s, &mut self.rng) {
                        Some((tr, d)) if base + d < top_fire => {
                            let pending = self.truncate(base, Some((tr, base + d)));
                            return match pending {
                                Some(p) => (Some(p), next_hour_boundary(base)),
                                // Truncated: retry at the boundary.
                                None => (None, next_hour_boundary(base)),
                            };
                        }
                        Some(_) => continue,
                        None => return (None, next_hour_boundary(base)),
                    }
                }
                // No draw fits in the residual residence: silent.
                (None, f64::INFINITY)
            }
        }
    }

    /// Sample the next HO/TAU inter-arrival fire time. Draws through a
    /// borrowed distribution — an empirical law here holds its full sample
    /// vector, and this is called once per overlay event, so cloning it
    /// would put a heap allocation + memcpy on the hot path.
    fn sample_gap(&mut self, model: &ClusterHourModel, ho: bool, base: f64) -> Option<f64> {
        let dist = if ho {
            model.ho_interarrival.as_ref()
        } else {
            model.tau_interarrival.as_ref()
        };
        let pending = dist.map(|d| ((), base + d.sample(&mut self.rng).max(0.0)));
        self.truncate(base, pending).map(|((), fire)| fire)
    }

    /// Bootstrap into the appropriate mode, returning the first record.
    fn boot(&mut self, dm: &DeviceModels) -> Option<TraceRecord> {
        let Some((first, t0)) = self.first_event(dm) else {
            self.mode = Mode::Done;
            return None;
        };
        let rec = self.stamp(t0, first);
        if rec.is_none() {
            self.mode = Mode::Done;
            return None;
        }
        match self.method.machine() {
            StateMachineKind::TwoLevel => {
                let state = TlState::before(first).step(first).0;
                let model = self.model_at(dm, t0);
                let top_pending = self.sample_top(model, state.top(), t0);
                let tf = top_pending.map_or(f64::INFINITY, |(_, t)| t);
                let (bottom_pending, bottom_retry) = self.arm_bottom(model, state, t0, tf);
                self.mode = Mode::TwoLevel {
                    state,
                    top_pending,
                    top_retry: next_hour_boundary(t0),
                    bottom_pending,
                    bottom_retry,
                };
            }
            StateMachineKind::EmmEcm => {
                let state = match first {
                    EventType::Attach | EventType::ServiceRequest | EventType::Handover => {
                        TopState::Connected
                    }
                    EventType::Detach => TopState::Deregistered,
                    EventType::S1ConnRelease | EventType::Tau => TopState::Idle,
                };
                let model = self.model_at(dm, t0);
                let top_pending = self.sample_top(model, state, t0);
                let ho_next = self.sample_gap(model, true, t0);
                let tau_next = self.sample_gap(model, false, t0);
                self.mode = Mode::EmmEcm {
                    state,
                    top_pending,
                    top_retry: next_hour_boundary(t0),
                    ho_next,
                    ho_retry: next_hour_boundary(t0),
                    tau_next,
                    tau_retry: next_hour_boundary(t0),
                };
            }
        }
        rec
    }

    /// Advance the two-level machine by one step. `Some(Some(rec))` emits,
    /// `Some(None)` exhausts the stream, `None` made progress without an
    /// emission (caller loops).
    fn step_two_level(&mut self, dm: &DeviceModels) -> Option<Option<TraceRecord>> {
        let Mode::TwoLevel {
            mut state,
            mut top_pending,
            mut top_retry,
            mut bottom_pending,
            mut bottom_retry,
        } = std::mem::replace(&mut self.mode, Mode::Done)
        else {
            return Some(None);
        };

        // Re-arm empty timers at hour boundaries.
        if top_pending.is_none() {
            if top_retry >= self.end_secs {
                if bottom_pending.is_none() {
                    return Some(None); // done
                }
            } else {
                top_pending = self.sample_top(self.model_at(dm, top_retry), state.top(), top_retry);
                top_retry = next_hour_boundary(top_retry);
                if top_pending.is_none() {
                    self.guard += 1;
                    if self.guard > MAX_SILENT_HOURS {
                        return Some(None);
                    }
                    self.mode = Mode::TwoLevel {
                        state,
                        top_pending,
                        top_retry,
                        bottom_pending,
                        bottom_retry,
                    };
                    return None;
                }
                self.guard = 0;
            }
        }
        if bottom_pending.is_none() && bottom_retry < self.end_secs {
            let tf = top_pending.map_or(f64::INFINITY, |(_, t)| t);
            let base = bottom_retry;
            (bottom_pending, bottom_retry) =
                self.arm_bottom(self.model_at(dm, base), state, base, tf);
            if bottom_pending.is_none() && top_pending.is_none() {
                self.guard += 1;
                if self.guard > MAX_SILENT_HOURS {
                    return Some(None);
                }
                self.mode = Mode::TwoLevel {
                    state,
                    top_pending,
                    top_retry,
                    bottom_pending,
                    bottom_retry,
                };
                return None;
            }
        }

        let top_fire = top_pending.map_or(f64::INFINITY, |(_, t)| t);
        let bottom_fire = bottom_pending.map_or(f64::INFINITY, |(_, t)| t);
        if top_fire == f64::INFINITY && bottom_fire == f64::INFINITY {
            return Some(None);
        }

        let emitted;
        if top_fire <= bottom_fire {
            let (tr, t) = top_pending.take().expect("top fires");
            if t >= self.end_secs {
                return Some(None);
            }
            let event = cn_fit::TransitionLike::trigger(tr);
            // The idle TAU's release must precede a top-level SRV_REQ
            // (Fig. 5's starred edge).
            if state == TlState::Idle(IdleSub::TauSIdle) && event == EventType::ServiceRequest {
                let Some(rel) = self.stamp(t, EventType::S1ConnRelease) else {
                    return Some(None);
                };
                state = TlState::Idle(IdleSub::S1RelS2);
                match self.stamp(t, event) {
                    Some(rec) => self.queued = Some(rec),
                    None => {
                        // Release emitted but the follow-up clipped.
                        self.mode = Mode::Done;
                        return Some(Some(rel));
                    }
                }
                emitted = Some(rel);
            } else {
                let Some(rec) = self.stamp(t, event) else {
                    return Some(None);
                };
                emitted = Some(rec);
            }
            state = state.step(event).0;
            let model = self.model_at(dm, t);
            top_pending = self.sample_top(model, state.top(), t);
            top_retry = next_hour_boundary(t);
            let tf = top_pending.map_or(f64::INFINITY, |(_, t)| t);
            (bottom_pending, bottom_retry) = self.arm_bottom(model, state, t, tf);
        } else {
            let (tr, t) = bottom_pending.take().expect("bottom fires");
            if t >= self.end_secs {
                if top_fire >= self.end_secs {
                    return Some(None);
                }
                self.mode = Mode::TwoLevel {
                    state,
                    top_pending,
                    top_retry,
                    bottom_pending,
                    bottom_retry,
                };
                return None;
            }
            let event = cn_fit::TransitionLike::trigger(tr);
            if let Some(next) = state.apply(event) {
                let Some(rec) = self.stamp(t, event) else {
                    return Some(None);
                };
                state = next;
                emitted = Some(rec);
            } else {
                emitted = None;
            }
            let tf = top_pending.map_or(f64::INFINITY, |(_, t)| t);
            (bottom_pending, bottom_retry) = self.arm_bottom(self.model_at(dm, t), state, t, tf);
        }

        self.mode = Mode::TwoLevel {
            state,
            top_pending,
            top_retry,
            bottom_pending,
            bottom_retry,
        };
        emitted.map(Some)
    }

    /// Advance the EMM–ECM machine by one step (same convention as
    /// [`Self::step_two_level`]).
    fn step_emm_ecm(&mut self, dm: &DeviceModels) -> Option<Option<TraceRecord>> {
        let Mode::EmmEcm {
            mut state,
            mut top_pending,
            mut top_retry,
            mut ho_next,
            mut ho_retry,
            mut tau_next,
            mut tau_retry,
        } = std::mem::replace(&mut self.mode, Mode::Done)
        else {
            return Some(None);
        };

        if top_pending.is_none() && top_retry < self.end_secs {
            top_pending = self.sample_top(self.model_at(dm, top_retry), state, top_retry);
            top_retry = next_hour_boundary(top_retry);
        }
        if ho_next.is_none() && ho_retry < self.end_secs {
            ho_next = self.sample_gap(self.model_at(dm, ho_retry), true, ho_retry);
            ho_retry = next_hour_boundary(ho_retry);
        }
        if tau_next.is_none() && tau_retry < self.end_secs {
            tau_next = self.sample_gap(self.model_at(dm, tau_retry), false, tau_retry);
            tau_retry = next_hour_boundary(tau_retry);
        }

        let top_fire = top_pending.map_or(f64::INFINITY, |(_, t)| t);
        let ho_fire = ho_next.unwrap_or(f64::INFINITY);
        let tau_fire = tau_next.unwrap_or(f64::INFINITY);
        let next = top_fire.min(ho_fire).min(tau_fire);
        if next >= self.end_secs {
            let retries_exhausted = top_retry >= self.end_secs
                && ho_retry >= self.end_secs
                && tau_retry >= self.end_secs;
            if next == f64::INFINITY && !retries_exhausted {
                self.guard += 1;
                if self.guard > MAX_SILENT_HOURS {
                    return Some(None);
                }
                self.mode = Mode::EmmEcm {
                    state,
                    top_pending,
                    top_retry,
                    ho_next,
                    ho_retry,
                    tau_next,
                    tau_retry,
                };
                return None;
            }
            return Some(None);
        }
        self.guard = 0;

        let emitted;
        if next == top_fire {
            let (tr, t) = top_pending.take().expect("top fires");
            let event = cn_fit::TransitionLike::trigger(tr);
            let Some(rec) = self.stamp(t, event) else {
                return Some(None);
            };
            emitted = rec;
            state = state.apply(event).unwrap_or(state);
            top_pending = self.sample_top(self.model_at(dm, t), state, t);
            top_retry = next_hour_boundary(t);
        } else if next == ho_fire {
            let t = ho_next.take().expect("ho fires");
            // The baseline's defining flaw: HO fires whatever the state.
            let Some(rec) = self.stamp(t, EventType::Handover) else {
                return Some(None);
            };
            emitted = rec;
            ho_next = self.sample_gap(self.model_at(dm, t), true, t);
            ho_retry = next_hour_boundary(t);
        } else {
            let t = tau_next.take().expect("tau fires");
            let Some(rec) = self.stamp(t, EventType::Tau) else {
                return Some(None);
            };
            emitted = rec;
            tau_next = self.sample_gap(self.model_at(dm, t), false, t);
            tau_retry = next_hour_boundary(t);
        }

        self.mode = Mode::EmmEcm {
            state,
            top_pending,
            top_retry,
            ho_next,
            ho_retry,
            tau_next,
            tau_retry,
        };
        Some(Some(emitted))
    }

    /// The UE's next event, sampled from `dm` — the device models this
    /// state was created from.
    pub(crate) fn next(&mut self, dm: &DeviceModels) -> Option<TraceRecord> {
        if let Some(queued) = self.queued.take() {
            return Some(queued);
        }
        loop {
            let step = match &self.mode {
                Mode::Done => return None,
                Mode::Boot => return self.boot(dm),
                Mode::TwoLevel { .. } => self.step_two_level(dm),
                Mode::EmmEcm { .. } => self.step_emm_ecm(dm),
            };
            match step {
                Some(Some(rec)) => return Some(rec),
                Some(None) => {
                    self.mode = Mode::Done;
                    return None;
                }
                None => continue,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_fit::{fit, FitConfig};
    use cn_trace::{PopulationMix, Trace};
    use cn_world::{generate_world, WorldConfig};

    fn fitted(method: Method) -> cn_fit::ModelSet {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(40, 20, 12), 2.0, 5));
        fit(&trace, &FitConfig::new(method))
    }

    /// One UE's events over `[start, end)`, collected.
    fn generate_ue(
        dm: &DeviceModels,
        method: Method,
        ue: UeId,
        start: Timestamp,
        end: Timestamp,
        seed: u64,
    ) -> Trace {
        UeEventIter::new(dm, method, ue, start, end, seed).collect()
    }

    #[test]
    fn generates_events_within_window() {
        let set = fitted(Method::Ours);
        let start = Timestamp::at_hour(0, 10);
        let end = Timestamp::at_hour(0, 12);
        let mut produced = 0;
        for seed in 0..40 {
            let t = generate_ue(
                set.device(DeviceType::Phone),
                Method::Ours,
                UeId(0),
                start,
                end,
                seed,
            );
            produced += t.len();
            for r in t.iter() {
                assert!(r.t >= start && r.t < end);
                assert_eq!(r.device, DeviceType::Phone);
            }
        }
        assert!(produced > 20, "only {produced} events across 40 UEs");
    }

    #[test]
    fn deterministic_per_seed() {
        let set = fitted(Method::Ours);
        let start = Timestamp::at_hour(0, 9);
        let end = Timestamp::at_hour(0, 11);
        let dm = set.device(DeviceType::ConnectedCar);
        let a = generate_ue(dm, Method::Ours, UeId(3), start, end, 77);
        let b = generate_ue(dm, Method::Ours, UeId(3), start, end, 77);
        assert_eq!(a, b);
    }

    #[test]
    fn two_level_output_is_conformant() {
        use cn_statemachine::replay_ue;
        let set = fitted(Method::Ours);
        let start = Timestamp::at_hour(0, 8);
        let end = Timestamp::at_hour(0, 14);
        for device in DeviceType::ALL {
            for seed in 0..25 {
                let t = generate_ue(set.device(device), Method::Ours, UeId(0), start, end, seed);
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
    fn baseline_generates_ho_in_idle() {
        use cn_statemachine::replay_ue;
        let set = fitted(Method::Base);
        let start = Timestamp::at_hour(0, 8);
        let end = Timestamp::at_hour(0, 16);
        let mut idle_ho = 0usize;
        for seed in 0..60 {
            let t = generate_ue(
                set.device(DeviceType::ConnectedCar),
                Method::Base,
                UeId(0),
                start,
                end,
                seed,
            );
            let out = replay_ue(t.records());
            for (r, ctx) in t.iter().zip(&out.event_context) {
                if r.event == EventType::Handover && *ctx != TopState::Connected {
                    idle_ho += 1;
                }
            }
        }
        assert!(idle_ho > 0, "baseline should mis-place HO events");
    }

    #[test]
    fn empty_models_generate_nothing() {
        let dm = DeviceModels {
            device: DeviceType::Phone,
            personas: Vec::new(),
            hours: (0..24)
                .map(|_| cn_fit::HourModels {
                    clusters: Vec::new(),
                })
                .collect(),
        };
        let t = generate_ue(
            &dm,
            Method::Ours,
            UeId(0),
            Timestamp::at_hour(0, 0),
            Timestamp::at_hour(0, 5),
            1,
        );
        assert!(t.is_empty());
    }

    #[test]
    fn degenerate_window_is_empty() {
        let set = fitted(Method::Ours);
        let t = generate_ue(
            set.device(DeviceType::Phone),
            Method::Ours,
            UeId(0),
            Timestamp::at_hour(0, 5),
            Timestamp::at_hour(0, 5),
            1,
        );
        assert!(t.is_empty());
    }

    #[test]
    fn iterator_yields_time_ordered_events() {
        let set = fitted(Method::Ours);
        for seed in 0..20 {
            let iter = UeEventIter::new(
                set.device(DeviceType::Phone),
                Method::Ours,
                UeId(1),
                Timestamp::at_hour(0, 8),
                Timestamp::at_hour(0, 20),
                seed,
            );
            let events: Vec<TraceRecord> = iter.collect();
            for w in events.windows(2) {
                assert!(w[0].t < w[1].t, "seed {seed}: out of order");
            }
        }
    }

    #[test]
    fn truncating_semantics_is_conformant_and_distinct() {
        use crate::engine::HourSemantics;
        use cn_statemachine::replay_ue;
        let set = fitted(Method::Ours);
        let dm = set.device(DeviceType::Phone);
        let start = Timestamp::at_hour(0, 6);
        let end = Timestamp::at_hour(0, 23);
        let mut differs = false;
        for seed in 0..15 {
            let entry = generate_ue(dm, Method::Ours, UeId(0), start, end, seed);
            let trunc: Trace = UeEventIter::with_semantics(
                dm,
                Method::Ours,
                UeId(0),
                start,
                end,
                seed,
                HourSemantics::TruncateAtBoundary,
            )
            .collect();
            let out = replay_ue(trunc.records());
            assert!(
                out.is_conformant(),
                "seed {seed}: {:?}",
                out.violations.first()
            );
            differs |= entry != trunc;
        }
        assert!(differs, "semantics never changed the output");
    }
}
