//! A single per-UE traffic generator, as a resumable event iterator.
//!
//! [`UeEventIter`] implements the §7 semantics one event at a time, so a
//! population can be synthesized either by collecting each UE's iterator
//! or by merging hundreds of thousands of live generators into one
//! time-ordered stream with bounded memory ([`crate::PopulationStream`]).
//!
//! The pool holds each generator as a model-free [`UeState`], so threads
//! sharing one model set can step any of them, and it holds only what
//! differs per UE. A state is split in two. `Ue` is the UE's random
//! process: its rng, its persona (an index into the device's personas),
//! its millisecond clock, the event queued behind a release, its end and
//! semantics. `Mode` is the machine: the two-level and EMM–ECM machines
//! each own their timers and step them in place, and the method and start
//! live only in `Mode::Boot`. A step returns a [`Step`]: an emission, a
//! re-armed timer and no emission yet, or the end of the stream. The UE id
//! is not state: [`UeEventIter`] stamps it, and the pool keys by slot.

use crate::engine::HourSemantics;
use cn_fit::{ClusterHourModel, DeviceModels, Method, ModelSet, StateMachineKind, TransitionLike};
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

/// What one step of a machine did.
enum Step {
    /// An event at `ms` (milliseconds since the epoch).
    Emit(u64, EventType),
    /// Progress without an emission: step again.
    Again,
    /// The stream is exhausted.
    Done,
}

/// One of a machine's concurrent timers: its pending fire, and the hour
/// boundary at which it is re-armed while empty.
struct Timer<T> {
    next: Option<(T, f64)>,
    retry: f64,
}

impl<T: Copy> Timer<T> {
    fn fire(&self) -> f64 {
        self.next.map_or(f64::INFINITY, |(_, t)| t)
    }
}

/// A resumable per-UE event generator (see module docs): model-free
/// generator state, stepped with the device models it was created from.
pub struct UeEventIter<'m> {
    pub(crate) dm: &'m DeviceModels,
    pub(crate) ue: UeId,
    pub(crate) state: UeState,
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
        let state = UeState::new(dm, method, start, end, seed, HourSemantics::EntryHour);
        UeEventIter { dm, ue, state }
    }
}

impl Iterator for UeEventIter<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let (ms, event) = self.state.next(self.dm)?;
        let t = Timestamp::from_millis(ms);
        Some(TraceRecord::new(t, self.ue, self.dm.device, event))
    }
}

/// A per-UE generator without its model: plain `Send` data, stepped by
/// [`UeState::next`] with the [`DeviceModels`] it was created from, so a
/// pool's generators can move between threads that share one model set.
pub(crate) struct UeState {
    ue: Ue,
    mode: Mode,
}

/// The UE's random process: what every machine step draws from and stamps
/// with, besides the machine's own timers.
struct Ue {
    rng: StdRng,
    /// Row of the device's `personas`: the UE's cluster in each hour.
    persona: u32,
    /// Consecutive steps that armed nothing (see [`Ue::idle`]).
    guard: u32,
    /// The least millisecond the next event may take: a UE's events are
    /// strictly increasing.
    min_ms: u64,
    /// Event due at the instant of the last emission (the top-level
    /// SRV_REQ behind an idle TAU's release), stamped when taken.
    queued: Option<(f64, EventType)>,
    end_secs: f64,
    device: DeviceType,
    semantics: HourSemantics,
}

/// The machine of a [`UeState`].
enum Mode {
    /// Not yet bootstrapped: the first event is drawn from `start` on, and
    /// then `machine` runs.
    Boot {
        start: Timestamp,
        machine: StateMachineKind,
    },
    TwoLevel(TwoLevel),
    EmmEcm(EmmEcm),
    Done,
}

/// Two-level semantics (B2 / Ours): a top-level timer races a second-level
/// one, and every top-level move re-arms both.
struct TwoLevel {
    state: TlState,
    top: Timer<TopTransition>,
    bottom: Timer<BottomTransition>,
}

/// EMM–ECM semantics with overlaid HO/TAU processes (Base / B1).
struct EmmEcm {
    state: TopState,
    top: Timer<TopTransition>,
    ho: Timer<()>,
    tau: Timer<()>,
}

impl UeState {
    pub(crate) fn new(
        dm: &DeviceModels,
        method: Method,
        start: Timestamp,
        end: Timestamp,
        seed: u64,
        semantics: HourSemantics,
    ) -> UeState {
        let mut rng = StdRng::seed_from_u64(seed);
        let live = !dm.personas.is_empty() && start < end;
        // The persona is the rng's first draw.
        let persona = if live {
            rng.gen_range(0..dm.personas.len()) as u32
        } else {
            0
        };
        let ue = Ue {
            rng,
            persona,
            guard: 0,
            min_ms: 0,
            queued: None,
            end_secs: end.as_millis() as f64 / 1_000.0,
            device: dm.device,
            semantics,
        };
        let mode = if live {
            Mode::Boot {
                start,
                machine: method.machine(),
            }
        } else {
            Mode::Done
        };
        UeState { ue, mode }
    }

    /// A pool's step: the next event, from `models`' models of this UE's
    /// device type, as `(ms since base_ms, event)`.
    pub(crate) fn advance(&mut self, models: &ModelSet, base_ms: u64) -> Option<(u64, EventType)> {
        let (ms, event) = self.next(models.device(self.ue.device))?;
        Some((ms - base_ms, event))
    }

    /// The UE's next event as `(ms, event)`, sampled from `dm` — the device
    /// models this state was created from.
    pub(crate) fn next(&mut self, dm: &DeviceModels) -> Option<(u64, EventType)> {
        loop {
            let step = match (&mut self.mode, self.ue.queued.take()) {
                (Mode::Done, _) => return None,
                (_, Some((t, event))) => self.ue.emit(t, event),
                (&mut Mode::Boot { start, machine }, None) => self.boot(dm, start, machine),
                (Mode::TwoLevel(m), None) => m.step(&mut self.ue, dm),
                (Mode::EmmEcm(m), None) => m.step(&mut self.ue, dm),
            };
            match step {
                Step::Emit(ms, event) => return Some((ms, event)),
                Step::Again => {}
                Step::Done => {
                    self.mode = Mode::Done;
                    return None;
                }
            }
        }
    }

    /// Bootstrap via the first-event models (§5.4) into `machine`.
    fn boot(&mut self, dm: &DeviceModels, start: Timestamp, machine: StateMachineKind) -> Step {
        let ue = &mut self.ue;
        let Some((first, t0)) = ue.first_event(dm, start) else {
            return Step::Done;
        };
        self.mode = match machine {
            StateMachineKind::TwoLevel => {
                let state = TlState::before(first).step(first).0;
                Mode::TwoLevel(TwoLevel::enter(ue, dm, state, t0))
            }
            StateMachineKind::EmmEcm => Mode::EmmEcm(EmmEcm::boot(ue, dm, first, t0)),
        };
        ue.emit(t0, first)
    }
}

impl Ue {
    /// Emit `event` at `t_secs`, bumped past the last emission's
    /// millisecond; `Done` when it falls at or after the end.
    fn emit(&mut self, t_secs: f64, event: EventType) -> Step {
        let ms = ((t_secs * 1_000.0).round() as u64).max(self.min_ms);
        if t_secs >= self.end_secs || ms >= (self.end_secs * 1_000.0) as u64 {
            return Step::Done;
        }
        self.min_ms = ms + 1;
        Step::Emit(ms, event)
    }

    /// A step that armed nothing: `Again`, until more than
    /// `MAX_SILENT_HOURS` in a row end the stream.
    fn idle(&mut self) -> Step {
        self.guard += 1;
        if self.guard > MAX_SILENT_HOURS {
            Step::Done
        } else {
            Step::Again
        }
    }

    fn model_at<'d>(&self, dm: &'d DeviceModels, t_secs: f64) -> &'d ClusterHourModel {
        let hour = Timestamp::from_secs_f64(t_secs).hour_of_day();
        dm.hour(hour)
            .cluster(dm.personas[self.persona as usize][hour.index()])
    }

    /// A timer sampled at `base`, re-armed at the next hour boundary. Under
    /// truncating semantics a fire time past the sampling hour's end is
    /// discarded: the retry then resamples from the next hour's model.
    fn timer<T>(&self, base: f64, next: Option<(T, f64)>) -> Timer<T> {
        let retry = next_hour_boundary(base);
        let truncate = self.semantics == HourSemantics::TruncateAtBoundary;
        let next = next.filter(|&(_, fire)| !truncate || fire < retry);
        Timer { next, retry }
    }

    /// Bootstrap via the first-event models (§5.4): the first event and
    /// its time, drawn hour by hour from `start`.
    fn first_event(&mut self, dm: &DeviceModels, start: Timestamp) -> Option<(EventType, f64)> {
        let mut cursor = start.as_millis() as f64 / 1_000.0;
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
    ) -> Timer<TopTransition> {
        let next = model.top.sample_next(s, &mut self.rng);
        self.timer(base, next.map(|(tr, d)| (tr, base + d)))
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
    ) -> Timer<BottomTransition> {
        let silent = Timer {
            next: None,
            retry: f64::INFINITY,
        };
        if model
            .exit_prob(s)
            .is_some_and(|p| self.rng.gen::<f64>() < p)
        {
            return silent;
        }
        for _ in 0..16 {
            match model.bottom.sample_next(s, &mut self.rng) {
                Some((tr, d)) if base + d < top_fire => {
                    return self.timer(base, Some((tr, base + d)))
                }
                Some(_) => continue,
                None => return self.timer(base, None),
            }
        }
        // No draw fits in the residual residence: silent.
        silent
    }

    /// Sample the next HO/TAU inter-arrival fire time. Draws through a
    /// borrowed distribution — an empirical law here holds its full sample
    /// vector, and this is called once per overlay event, so cloning it
    /// would put a heap allocation + memcpy on the hot path.
    fn sample_gap(&mut self, model: &ClusterHourModel, ho: bool, base: f64) -> Timer<()> {
        let dist = if ho {
            model.ho_interarrival.as_ref()
        } else {
            model.tau_interarrival.as_ref()
        };
        let next = dist.map(|d| ((), base + d.sample(&mut self.rng).max(0.0)));
        self.timer(base, next)
    }
}

impl TwoLevel {
    /// The machine on entering `state` at `t`: both timers armed afresh.
    fn enter(ue: &mut Ue, dm: &DeviceModels, state: TlState, t: f64) -> TwoLevel {
        let model = ue.model_at(dm, t);
        let top = ue.sample_top(model, state.top(), t);
        let bottom = ue.arm_bottom(model, state, t, top.fire());
        TwoLevel { state, top, bottom }
    }

    fn step(&mut self, ue: &mut Ue, dm: &DeviceModels) -> Step {
        // Re-arm empty timers at hour boundaries.
        if self.top.next.is_none() {
            if self.top.retry < ue.end_secs {
                let base = self.top.retry;
                self.top = ue.sample_top(ue.model_at(dm, base), self.state.top(), base);
                if self.top.next.is_none() {
                    return ue.idle();
                }
                ue.guard = 0;
            } else if self.bottom.next.is_none() {
                return Step::Done;
            }
        }
        if self.bottom.next.is_none() && self.bottom.retry < ue.end_secs {
            let base = self.bottom.retry;
            self.bottom = ue.arm_bottom(ue.model_at(dm, base), self.state, base, self.top.fire());
            if self.bottom.next.is_none() && self.top.next.is_none() {
                return ue.idle();
            }
        }

        let (top_fire, bottom_fire) = (self.top.fire(), self.bottom.fire());
        if top_fire.min(bottom_fire) >= ue.end_secs {
            return Step::Done;
        }
        if top_fire <= bottom_fire {
            let event = self.top.next.expect("top fires").0.trigger();
            let mut emitted = event;
            // The idle TAU's release must precede a top-level SRV_REQ
            // (Fig. 5's starred edge).
            if self.state == TlState::Idle(IdleSub::TauSIdle) && event == EventType::ServiceRequest
            {
                self.state = TlState::Idle(IdleSub::S1RelS2);
                ue.queued = Some((top_fire, event));
                emitted = EventType::S1ConnRelease;
            }
            *self = TwoLevel::enter(ue, dm, self.state.step(event).0, top_fire);
            ue.emit(top_fire, emitted)
        } else {
            let event = self.bottom.next.expect("bottom fires").0.trigger();
            let next = self.state.apply(event);
            self.state = next.unwrap_or(self.state);
            let model = ue.model_at(dm, bottom_fire);
            self.bottom = ue.arm_bottom(model, self.state, bottom_fire, top_fire);
            match next {
                Some(_) => ue.emit(bottom_fire, event),
                None => Step::Again,
            }
        }
    }
}

impl EmmEcm {
    /// The machine after the first event, `first` at `t0`: all three
    /// timers armed.
    fn boot(ue: &mut Ue, dm: &DeviceModels, first: EventType, t0: f64) -> EmmEcm {
        let state = match first {
            EventType::Attach | EventType::ServiceRequest | EventType::Handover => {
                TopState::Connected
            }
            EventType::Detach => TopState::Deregistered,
            EventType::S1ConnRelease | EventType::Tau => TopState::Idle,
        };
        let model = ue.model_at(dm, t0);
        EmmEcm {
            state,
            top: ue.sample_top(model, state, t0),
            ho: ue.sample_gap(model, true, t0),
            tau: ue.sample_gap(model, false, t0),
        }
    }

    fn step(&mut self, ue: &mut Ue, dm: &DeviceModels) -> Step {
        let end = ue.end_secs;
        // Re-arm empty timers at hour boundaries.
        if self.top.next.is_none() && self.top.retry < end {
            let base = self.top.retry;
            self.top = ue.sample_top(ue.model_at(dm, base), self.state, base);
        }
        if self.ho.next.is_none() && self.ho.retry < end {
            let base = self.ho.retry;
            self.ho = ue.sample_gap(ue.model_at(dm, base), true, base);
        }
        if self.tau.next.is_none() && self.tau.retry < end {
            let base = self.tau.retry;
            self.tau = ue.sample_gap(ue.model_at(dm, base), false, base);
        }

        let t = self.top.fire().min(self.ho.fire()).min(self.tau.fire());
        if t >= end {
            let retries_exhausted =
                self.top.retry >= end && self.ho.retry >= end && self.tau.retry >= end;
            return if t == f64::INFINITY && !retries_exhausted {
                ue.idle()
            } else {
                Step::Done
            };
        }
        ue.guard = 0;
        let model = ue.model_at(dm, t);
        if t == self.top.fire() {
            let event = self.top.next.expect("top fires").0.trigger();
            self.state = self.state.apply(event).unwrap_or(self.state);
            self.top = ue.sample_top(model, self.state, t);
            ue.emit(t, event)
        } else if t == self.ho.fire() {
            // The baseline's defining flaw: HO fires whatever the state.
            self.ho = ue.sample_gap(model, true, t);
            ue.emit(t, EventType::Handover)
        } else {
            self.tau = ue.sample_gap(model, false, t);
            ue.emit(t, EventType::Tau)
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
    fn generator_state_holds_only_per_ue_state() {
        // The rng is 32 B; persona index and guard 4 + 4; clock and end 8 + 8;
        // the queued event 16; device and semantics 1 + 1 (the process pads
        // to 80). The machine is 80: EMM–ECM's three 24 B timers and state.
        let size = std::mem::size_of::<UeState>();
        assert!(size <= 176, "UeState is {size} B");
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
        use cn_statemachine::replay_ue;
        let set = fitted(Method::Ours);
        let dm = set.device(DeviceType::Phone);
        let start = Timestamp::at_hour(0, 6);
        let end = Timestamp::at_hour(0, 23);
        let mut differs = false;
        for seed in 0..15 {
            let entry = generate_ue(dm, Method::Ours, UeId(0), start, end, seed);
            let semantics = HourSemantics::TruncateAtBoundary;
            let state = UeState::new(dm, Method::Ours, start, end, seed, semantics);
            let trunc: Trace = UeEventIter {
                dm,
                ue: UeId(0),
                state,
            }
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
