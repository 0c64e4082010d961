//! The scenario overlay stream: baseline engine × compiled scenario.
//!
//! [`ScenarioStream`] is a two-way ordered merge between a baseline
//! [`RecordSource`] (any generation engine) and the scenario's injected
//! events, with outage phases *suppressing* baseline records inside their
//! window/subset. Because phase windows are pairwise disjoint and each
//! phase's injections are sorted, the global injection sequence is the
//! concatenation of per-phase sequences — the stream materializes at most
//! **one phase at a time**, keeping memory bounded by the largest phase
//! rather than the whole scenario.
//!
//! Metamorphic contract (enforced by `cn-verify`'s suite):
//!
//! * the **identity scenario** (no phases) emits the baseline byte for
//!   byte — the overlay machinery is provably inert;
//! * every emitted perturbation is confined to its phase's window and UE
//!   subset; records outside every window pass through verbatim;
//! * the output is replay-deterministic per `(spec seed, config)`,
//!   independent of the baseline engine or shard count.
//!
//! Failure containment follows the sharded-stream contract: a baseline
//! fault surfaces through [`ScenarioStream::try_next`] as the same typed
//! [`StreamError`], and everything emitted before the fault is a verbatim
//! prefix of the fault-free scenario stream.

use std::collections::VecDeque;

use crate::inject::materialize_phase;
use crate::spec::{PhaseKind, ScenarioSpec, SpecError, UeSubset};
use cn_fit::ModelSet;
use cn_gen::GenConfig;
use cn_obs::{Counter, Registry};
use cn_trace::{IterSource, RecordSource, StreamError, Trace, TraceRecord};

/// One compiled (validated + resolved) phase.
struct CompiledPhase {
    index: usize,
    start_ms: u64,
    end_ms: u64,
    ues: UeSubset,
    suppresses: bool,
    injected: Counter,
    suppressed: Counter,
}

/// What a drained scenario stream did, by phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScenarioStats {
    /// Records emitted in total (baseline survivors + injections).
    pub events: u64,
    /// Baseline records passed through untouched.
    pub passthrough: u64,
    /// Records injected by scenario phases.
    pub injected: u64,
    /// Baseline records suppressed by outage phases.
    pub suppressed: u64,
}

/// A scenario applied over a baseline source (see module docs).
pub struct ScenarioStream<'m, S> {
    source: S,
    spec: &'m ScenarioSpec,
    config: GenConfig,
    /// Phase order by window start; `next_phase` indexes into this.
    order: Vec<CompiledPhase>,
    next_phase: usize,
    queue: VecDeque<TraceRecord>,
    /// Index into `order` of the phase currently draining in `queue`.
    queue_phase: usize,
    src_peek: Option<TraceRecord>,
    src_done: bool,
    stats: ScenarioStats,
    passthrough: Counter,
    emitted: Counter,
}

impl<'m, S: RecordSource> ScenarioStream<'m, S> {
    /// Compile `spec` against `config` and wrap `source`. Fails with the
    /// spec's typed validation error; a returned stream can no longer
    /// fail for spec reasons.
    ///
    /// `registry` feeds the `cn_scenario_*` counter family
    /// (`cn_scenario_injected_total{phase=..}`,
    /// `cn_scenario_suppressed_total{phase=..}`,
    /// `cn_scenario_passthrough_total`, `cn_scenario_events_total`);
    /// pass [`Registry::disabled`] for a zero-cost no-op.
    pub fn new(
        spec: &'m ScenarioSpec,
        config: &GenConfig,
        source: S,
        registry: &Registry,
    ) -> Result<ScenarioStream<'m, S>, SpecError> {
        spec.validate()?;
        let mut order: Vec<CompiledPhase> = spec
            .phases
            .iter()
            .enumerate()
            .map(|(index, phase)| {
                let labels: &[(&str, &str)] =
                    &[("phase", phase.name.as_str()), ("kind", phase.kind.label())];
                CompiledPhase {
                    index,
                    start_ms: phase.window.start_ms(config.start),
                    end_ms: phase.window.end_ms(config.start),
                    ues: phase.kind.ues(),
                    suppresses: matches!(phase.kind, PhaseKind::Outage { .. }),
                    injected: registry.counter_with("cn_scenario_injected_total", labels),
                    suppressed: registry.counter_with("cn_scenario_suppressed_total", labels),
                }
            })
            .collect();
        order.sort_by_key(|p| p.start_ms);
        Ok(ScenarioStream {
            source,
            spec,
            config: *config,
            order,
            next_phase: 0,
            queue: VecDeque::new(),
            queue_phase: usize::MAX,
            src_peek: None,
            src_done: false,
            stats: ScenarioStats::default(),
            passthrough: registry.counter("cn_scenario_passthrough_total"),
            emitted: registry.counter("cn_scenario_events_total"),
        })
    }

    /// Pull the next scenario record, or a typed baseline fault.
    pub fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        // Fill the baseline peek slot, dropping suppressed records.
        while self.src_peek.is_none() && !self.src_done {
            match self.source.try_next()? {
                None => self.src_done = true,
                Some(rec) => {
                    if let Some(p) = self.suppressor_of(&rec) {
                        self.order[p].suppressed.inc();
                        self.stats.suppressed += 1;
                    } else {
                        self.src_peek = Some(rec);
                    }
                }
            }
        }
        // Fill the injection queue from the next phase in window order.
        while self.queue.is_empty() && self.next_phase < self.order.len() {
            let p = &self.order[self.next_phase];
            // Cold: once per phase, not per record.
            let _inject = cn_obs::trace::global_span("cn_scenario_inject");
            self.queue = materialize_phase(
                &self.spec.phases[p.index],
                p.index,
                self.spec.seed,
                &self.config,
            )
            .into();
            self.queue_phase = self.next_phase;
            self.next_phase += 1;
        }
        // Ordered two-way merge; ties go to the baseline so equal records
        // interleave deterministically.
        let take_source = match (&self.src_peek, self.queue.front()) {
            (None, None) => return Ok(None),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(s), Some(q)) => s <= q,
        };
        self.stats.events += 1;
        self.emitted.inc();
        if take_source {
            self.stats.passthrough += 1;
            self.passthrough.inc();
            Ok(self.src_peek.take())
        } else {
            self.order[self.queue_phase].injected.inc();
            self.stats.injected += 1;
            Ok(self.queue.pop_front())
        }
    }

    /// The outage phase (index into `order`) that suppresses `rec`, if
    /// any.
    fn suppressor_of(&self, rec: &TraceRecord) -> Option<usize> {
        let t = rec.t.as_millis();
        self.order.iter().position(|p| {
            p.suppresses && p.start_ms <= t && t < p.end_ms && p.ues.contains(rec.ue.get())
        })
    }

    /// Wind down: drains nothing further, but propagates the baseline
    /// source's terminal verdict (a panicked shard worker fails `finish`
    /// even if its records were never needed).
    pub fn finish(self) -> Result<ScenarioStats, StreamError> {
        self.source.finish()?;
        Ok(self.stats)
    }
}

/// A scenario overlay is itself a [`RecordSource`]: downstream stages
/// (binary export, the live pacing server) drain it through the same
/// fallible protocol as any engine, and `finish` keeps the containment
/// contract (a panicked baseline worker still fails the wind-down).
impl<S: RecordSource> RecordSource for ScenarioStream<'_, S> {
    type Stats = ScenarioStats;

    fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        ScenarioStream::try_next(self)
    }

    fn finish(self) -> Result<ScenarioStats, StreamError> {
        ScenarioStream::finish(self)
    }
}

/// Apply a scenario over the **batch** engine: generate with
/// [`cn_gen::generate`], overlay, materialize.
pub fn apply_scenario(
    spec: &ScenarioSpec,
    models: &ModelSet,
    config: &GenConfig,
    registry: &Registry,
) -> Result<(Trace, ScenarioStats), ScenarioError> {
    let baseline = cn_gen::generate(models, config);
    let stream = ScenarioStream::new(
        spec,
        config,
        IterSource(baseline.into_records().into_iter()),
        registry,
    )?;
    Ok(stream.collect_trace()?)
}

/// A scenario failure: either the spec was invalid, or the baseline
/// stream faulted.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The spec failed validation.
    Spec(SpecError),
    /// The baseline engine or the export sink faulted.
    Stream(StreamError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Spec(e) => write!(f, "invalid scenario spec: {e}"),
            ScenarioError::Stream(e) => write!(f, "scenario stream fault: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<SpecError> for ScenarioError {
    fn from(e: SpecError) -> Self {
        ScenarioError::Spec(e)
    }
}

impl From<StreamError> for ScenarioError {
    fn from(e: StreamError) -> Self {
        ScenarioError::Stream(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Phase, StormKind, TimeWindow};
    use cn_fit::{fit, FitConfig, Method};
    use cn_trace::{PopulationMix, Timestamp};
    use cn_world::{generate_world, WorldConfig};

    fn fitted() -> ModelSet {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(20, 8, 4), 2.0, 3));
        fit(&trace, &FitConfig::new(Method::Ours))
    }

    fn config() -> GenConfig {
        GenConfig::new(
            PopulationMix::new(20, 8, 4),
            Timestamp::at_hour(0, 9),
            2.0,
            0xBEEF,
        )
    }

    fn storm_spec(bursts: u32) -> ScenarioSpec {
        ScenarioSpec {
            name: "storm".into(),
            seed: 31,
            phases: vec![Phase {
                name: "tau-flood".into(),
                window: TimeWindow::new(600.0, 900.0),
                kind: PhaseKind::SignalingStorm {
                    ues: UeSubset::new(0, 16),
                    kind: StormKind::TauFlood,
                    bursts_per_ue: bursts,
                },
            }],
        }
    }

    #[test]
    fn identity_scenario_is_inert() {
        let models = fitted();
        let config = config();
        let spec = ScenarioSpec::identity("id", 5);
        let baseline = cn_gen::generate(&models, &config);
        let (out, stats) = apply_scenario(&spec, &models, &config, &Registry::disabled()).unwrap();
        assert_eq!(out, baseline);
        assert_eq!(stats.injected, 0);
        assert_eq!(stats.suppressed, 0);
        assert_eq!(stats.passthrough, baseline.len() as u64);
    }

    #[test]
    fn storm_injects_exactly_its_events_and_stays_sorted() {
        let models = fitted();
        let config = config();
        let spec = storm_spec(4);
        let baseline = cn_gen::generate(&models, &config);
        let (out, stats) = apply_scenario(&spec, &models, &config, &Registry::disabled()).unwrap();
        assert_eq!(stats.injected, 16 * 4);
        assert_eq!(stats.suppressed, 0);
        assert_eq!(out.len(), baseline.len() + 16 * 4);
        assert!(cn_trace::check_well_formed(&out).is_empty());
    }

    #[test]
    fn invalid_spec_is_a_typed_error() {
        let models = fitted();
        let config = config();
        let mut spec = storm_spec(4);
        spec.phases[0].window.duration_s = f64::NAN;
        let err = apply_scenario(&spec, &models, &config, &Registry::disabled()).unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Spec(SpecError::NonFinite { .. })
        ));
    }

    #[test]
    fn outage_suppresses_only_its_subset() {
        let models = fitted();
        let config = config();
        let spec = ScenarioSpec {
            name: "dark".into(),
            seed: 1,
            phases: vec![Phase {
                name: "site-down".into(),
                window: TimeWindow::new(0.0, 3600.0),
                kind: PhaseKind::Outage {
                    ues: UeSubset::new(0, 8),
                },
            }],
        };
        let baseline = cn_gen::generate(&models, &config);
        let (out, stats) = apply_scenario(&spec, &models, &config, &Registry::disabled()).unwrap();
        let (s, e) = (
            spec.phases[0].window.start_ms(config.start),
            spec.phases[0].window.end_ms(config.start),
        );
        let dropped = baseline
            .iter()
            .filter(|r| r.ue.get() < 8 && s <= r.t.as_millis() && r.t.as_millis() < e)
            .count() as u64;
        assert!(dropped > 0, "outage window saw no baseline traffic");
        assert_eq!(stats.suppressed, dropped);
        assert_eq!(out.len() as u64 + dropped, baseline.len() as u64);
        // Nothing outside the subset/window was touched.
        assert!(out
            .iter()
            .all(|r| !(r.ue.get() < 8 && s <= r.t.as_millis() && r.t.as_millis() < e)));
    }

    #[test]
    fn scenario_counters_mirror_stats() {
        let models = fitted();
        let config = config();
        let spec = storm_spec(2);
        let registry = Registry::new();
        let (_, stats) = apply_scenario(&spec, &models, &config, &registry).unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_total("cn_scenario_injected_total"),
            Some(stats.injected)
        );
        assert_eq!(
            snap.counter_total("cn_scenario_passthrough_total"),
            Some(stats.passthrough)
        );
        assert_eq!(
            snap.counter_total("cn_scenario_events_total"),
            Some(stats.events)
        );
        // Registered at stream construction, never incremented by a storm.
        assert_eq!(snap.counter_total("cn_scenario_suppressed_total"), Some(0));
        assert!(snap
            .get(
                "cn_scenario_injected_total",
                &[("phase", "tau-flood"), ("kind", "signaling_storm")]
            )
            .is_some());
    }

    #[test]
    fn sharded_and_batch_scenarios_agree() {
        let models = fitted();
        let config = config();
        let spec = storm_spec(3);
        let (batch, _) = apply_scenario(&spec, &models, &config, &Registry::disabled()).unwrap();
        for shards in [1usize, 4, 8] {
            let source = cn_gen::ShardedStream::with_shards(&models, &config, shards);
            let stream =
                ScenarioStream::new(&spec, &config, source, &Registry::disabled()).unwrap();
            let (out, _) = stream.collect_trace().unwrap();
            assert_eq!(out, batch, "{shards}-shard scenario diverged");
        }
    }
}
