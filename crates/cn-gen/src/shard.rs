//! Parallel population streaming: one slab pool, its fill shared out.
//!
//! [`ShardedStream`] *is* a [`PopulationStream`] over the whole population
//! whose slab fills `threads − 1` helper threads share with the calling
//! thread, chunk by chunk (the pool's module docs, *Sharing the fill*, have
//! the protocol). One thread — `with_shards(.., 1)`, a one-UE population,
//! or [`ShardedStream::new`] on a single-core box — spawns no helper and
//! clones no model; more clone the model set once into an `Arc` the
//! helpers share. A population smaller than `threads × 256` UEs is cut
//! into one chunk per thread, so every thread has work. The output is
//! **byte-identical** to the sequential stream at any thread count: a
//! chunk's keys do not depend on which thread fills it, and the chunk
//! buffers are sorted in slot order. Memory is one slab in flight plus one
//! being drained, whatever the thread count and horizon.
//!
//! ### Failure semantics
//!
//! A trace that ends early is indistinguishable from a complete one, so a
//! failure must never masquerade as clean exhaustion. Every chunk fill, on
//! a helper or on the caller, runs under [`std::panic::catch_unwind`]; a
//! panic becomes a [`StreamError::WorkerPanicked`] naming the chunk, which
//! [`ShardedStream::try_next`] returns — never an unwinding `try_next`. The
//! first slab (about a second wide) is filled by the caller before any
//! helper starts, so a fault there poisons the stream before its first
//! record. There is deliberately no `Iterator` impl: an infallible view
//! would end early on a failure and look complete. A failed stream is
//! *poisoned* (every further `try_next` repeats the error); `finish`
//! refuses success if any fill panicked, even in a slab never reached; and
//! shutdown records every thread's [`WorkerOutcome`] in
//! `cn_gen_worker_exit{outcome=…}`, plus `cn_gen_shard_panics_total` for
//! the failed chunk. Faults are injected by chunk through [`FaultPlan`].
//!
//! Telemetry (listed on [`ShardedStream::with_shards_observed`]) counts
//! per slab, never per record: once a stream is drained, the summed
//! `cn_gen_shard_events_total{shard=i}` equal `cn_gen_merge_events_total`.

use crate::engine::GenConfig;
use crate::fault::FaultPlan;
use crate::per_ue::UeState;
use crate::pool::{FillObs, PopulationStream, Shared, Stop, CHUNK_SLOTS, SLAB_TARGET_EVENTS};
use cn_fit::ModelSet;
use cn_obs::{Counter, Registry};
use cn_trace::{EventType, RecordSource, StreamError, TraceRecord};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// How a generating thread's run ended (see module docs, *Failure
/// semantics*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// Generation completed: every run is dry, and this thread generated
    /// `events` of the records.
    Completed {
        /// Records this thread generated.
        events: u64,
    },
    /// A chunk fill on this thread panicked.
    Panicked {
        /// The fill's [`StreamError`], rendered: the chunk and the panic
        /// payload.
        payload: String,
    },
    /// The stream was finished or dropped before generation completed —
    /// the deliberate wind-down, not a failure.
    Cancelled,
}

impl WorkerOutcome {
    /// The `outcome` label value used for `cn_gen_worker_exit`.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            WorkerOutcome::Completed { .. } => "completed",
            WorkerOutcome::Panicked { .. } => "panicked",
            WorkerOutcome::Cancelled => "cancelled",
        }
    }
}

/// What a fully wound-down stream reports from
/// [`ShardedStream::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Records this stream handed to the consumer.
    pub events: u64,
    /// Terminal state of each generating thread: the helpers in spawn
    /// order, then the calling thread. Empty when no helper was spawned.
    pub outcomes: Vec<WorkerOutcome>,
}

/// A globally time-ordered population event stream whose slab fills are
/// shared between helper threads and the calling thread — or, at one
/// thread, done by the caller alone (see module docs).
///
/// ```no_run
/// use cn_gen::{GenConfig, ShardedStream};
/// # let models: cn_fit::ModelSet = unimplemented!();
/// # let config: GenConfig = unimplemented!();
/// // Failure-contained consumption: a generator panic becomes a typed
/// // error instead of a silently truncated trace.
/// use cn_trace::{RecordSource, StreamError};
/// let stats = ShardedStream::new(&models, &config).drain(|record| {
///     let _ = record;
///     Ok::<(), StreamError>(())
/// })?;
/// println!("complete: {} events", stats.events);
/// # Ok::<(), StreamError>(())
/// ```
pub struct ShardedStream<'m> {
    stream: PopulationStream<'m>,
    /// The helpers; `None` when the caller generates alone.
    crew: Option<Crew>,
    /// The first failure; once set, the stream emits nothing further.
    poisoned: Option<StreamError>,
}

/// The helper threads and the model clone they step their chunks with.
struct Crew {
    models: Arc<ModelSet>,
    helpers: Vec<JoinHandle<WorkerOutcome>>,
    /// Every thread's outcome, collected exactly once at shutdown.
    outcomes: Option<Vec<WorkerOutcome>>,
    registry: Registry,
}

impl<'m> ShardedStream<'m> {
    /// Stream `config`'s population on `config.threads` generating
    /// threads, the caller included (`0` = all cores via
    /// [`crate::effective_parallelism`]).
    pub fn new(models: &'m ModelSet, config: &GenConfig) -> ShardedStream<'m> {
        Self::new_observed(models, config, &Registry::disabled())
    }

    /// As [`ShardedStream::new`], recording pipeline telemetry into
    /// `registry` (see [`ShardedStream::with_shards_observed`] for the
    /// metrics emitted).
    pub fn new_observed(
        models: &'m ModelSet,
        config: &GenConfig,
        registry: &Registry,
    ) -> ShardedStream<'m> {
        Self::with_shards_observed(models, config, config.resolved_threads(), registry)
    }

    /// As [`ShardedStream::new`] with `shards` generating threads, the
    /// caller included. One thread (after clamping to the population size)
    /// spawns nothing; more spawn `shards − 1` helpers, cloning the model
    /// set once so they can outlive the caller's borrow.
    pub fn with_shards(
        models: &'m ModelSet,
        config: &GenConfig,
        shards: usize,
    ) -> ShardedStream<'m> {
        Self::with_shards_observed(models, config, shards, &Registry::disabled())
    }

    /// As [`ShardedStream::with_shards`], recording pipeline telemetry
    /// into `registry`:
    ///
    /// * `cn_gen_shard_events_total{shard=i}` — keys each thread generated
    ///   (helpers `0..`, the caller as `shard="caller"`; no series when no
    ///   helper runs);
    /// * `cn_gen_shard_stall_ns_total{shard=i}` — time each helper spent
    ///   waiting for a slab to open (the consumer's pace);
    /// * `cn_gen_slabs_total` — slabs filled, each a `cn_gen_slab_fill`
    ///   span on every thread that helped when a trace sink is installed;
    /// * `cn_gen_merge_events_total` — records emitted (equals the summed
    ///   per-thread counters once the stream is fully drained);
    /// * `cn_gen_shard_mode_parallel` / `cn_gen_shard_workers` — gauges
    ///   exposing whether helpers run, and how many;
    /// * `cn_gen_worker_exit{outcome=completed|panicked|cancelled}` — one
    ///   increment per thread at wind-down ([`ShardedStream::finish`] or
    ///   drop), plus `cn_gen_shard_panics_total{shard=c}` for each chunk
    ///   `c` whose fill panicked.
    ///
    /// With a disabled registry every handle is a no-op and the pipeline
    /// is byte-for-byte the unobserved one (the stall timer is not even
    /// read).
    pub fn with_shards_observed(
        models: &'m ModelSet,
        config: &GenConfig,
        shards: usize,
        registry: &Registry,
    ) -> ShardedStream<'m> {
        let ues = 0..config.population.total();
        let layout = layout(config, shards);
        Self::with_layout(models, config, ues, layout, registry, &FaultPlan::new())
    }

    /// **Test support** — as [`ShardedStream::with_shards_observed`], with
    /// a deterministic [`FaultPlan`] injected into the chunks, whichever
    /// thread fills them. Production code has no reason to call this; the
    /// tier-1 failure-containment suite uses it to prove every injected
    /// fault surfaces as a typed [`StreamError`].
    ///
    /// Panics if the plan is non-empty but the stream resolves to one
    /// thread (fault containment is about helpers, and a silently
    /// un-injected fault would make a test vacuous), or names a chunk the
    /// stream does not have.
    pub fn with_shards_faulted(
        models: &'m ModelSet,
        config: &GenConfig,
        shards: usize,
        registry: &Registry,
        plan: &FaultPlan,
    ) -> ShardedStream<'m> {
        let layout = layout(config, shards);
        assert!(
            layout.threads >= 2 || plan.is_empty(),
            "fault injection requires at least one helper (≥ 2 effective threads)"
        );
        let ues = 0..config.population.total();
        Self::with_layout(models, config, ues, layout, registry, plan)
    }

    /// The stream over `indices` (strictly increasing, as for
    /// [`PopulationStream`]) on an explicit [`Layout`].
    fn with_layout(
        models: &'m ModelSet,
        config: &GenConfig,
        indices: impl Iterator<Item = u32>,
        layout: Layout,
        registry: &Registry,
        plan: &FaultPlan,
    ) -> ShardedStream<'m> {
        let helpers = layout.threads - 1;
        registry
            .gauge("cn_gen_shard_mode_parallel")
            .set(u64::from(helpers > 0));
        registry.gauge("cn_gen_shard_workers").set(helpers as u64);
        let mut stream = PopulationStream::with_layout(
            models,
            config,
            indices,
            layout.chunk_slots,
            layout.target,
        );
        let trace = cn_obs::trace::global();
        let caller = FillObs {
            events: if helpers > 0 {
                registry.counter_with("cn_gen_shard_events_total", &[("shard", "caller")])
            } else {
                Counter::noop()
            },
            trace: trace.clone(),
        };
        stream.observe(
            registry.counter("cn_gen_merge_events_total"),
            registry.counter("cn_gen_slabs_total"),
            caller,
        );
        stream.inject(plan);
        // The first slab, alone, on the calling thread: a fault in it
        // poisons the stream before any helper starts.
        let poisoned = stream.fill().err();
        let crew = (helpers > 0).then(|| {
            let mut crew = Crew {
                models: Arc::new(models.clone()),
                helpers: Vec::with_capacity(helpers),
                outcomes: None,
                registry: registry.clone(),
            };
            let base_ms = config.start.as_millis();
            for i in 0..helpers {
                let (models, shared) = (Arc::clone(&crew.models), Arc::clone(stream.shared()));
                let label = i.to_string();
                let labels: &[(&str, &str)] = &[("shard", &label)];
                let obs = FillObs {
                    events: registry.counter_with("cn_gen_shard_events_total", labels),
                    trace: trace.clone(),
                };
                let stall_ns = registry.counter_with("cn_gen_shard_stall_ns_total", labels);
                let advance = move |gen: &mut UeState| gen.advance(&models, base_ms);
                let helper = std::thread::Builder::new()
                    .name(format!("cn-gen-helper-{i}"))
                    .spawn(move || serve(&shared, &advance, &obs, &stall_ns))
                    .expect("spawn generator helper");
                crew.helpers.push(helper);
            }
            crew
        });
        ShardedStream {
            stream,
            crew,
            poisoned,
        }
    }

    /// Number of helper threads backing this stream — `0` when the caller
    /// generates alone.
    pub fn worker_threads(&self) -> usize {
        self.crew.as_ref().map_or(0, |crew| crew.helpers.len())
    }

    /// The fallible pull: `Ok(Some(record))` while records flow,
    /// `Ok(None)` on clean exhaustion, and `Err` when a chunk fill
    /// panicked — at which point the stream is poisoned and every further
    /// call repeats the error.
    pub fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        self.stream
            .pull()
            .inspect_err(|e| self.poisoned = Some(e.clone()))
    }

    /// Wind the stream down and account for every thread: stops and joins
    /// the helpers, records their exit outcomes (and the
    /// `cn_gen_worker_exit` / `cn_gen_shard_panics_total` counters when
    /// observed), and returns the stream's statistics — or the
    /// [`StreamError`] if the stream was poisoned **or any chunk fill
    /// turns out to have panicked**, even in a slab the consumer never
    /// reached.
    ///
    /// Calling `finish` before draining the stream is a *deliberate* early
    /// stop: the threads are cancelled (reported as
    /// [`WorkerOutcome::Cancelled`], not as failures) and `events` counts
    /// what was actually emitted. A complete, failure-free export is
    /// therefore exactly: drain `try_next` to `Ok(None)`, then `finish()?` —
    /// which is what [`RecordSource::drain`] does.
    pub fn finish(mut self) -> Result<StreamStats, StreamError> {
        let outcomes = self.shutdown();
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        Ok(StreamStats {
            events: self.stream.emitted(),
            outcomes,
        })
    }

    /// Stop and join the helpers and account for every thread — exactly
    /// once; later calls return the cached outcomes. A failure a helper
    /// met in a slab nobody collected poisons the stream here.
    fn shutdown(&mut self) -> Vec<WorkerOutcome> {
        let Some(crew) = &mut self.crew else {
            return Vec::new();
        };
        if crew.outcomes.is_none() {
            let shared = self.stream.shared();
            shared.stop(Stop::Cancelled);
            let mut outcomes: Vec<WorkerOutcome> = (crew.helpers.drain(..))
                .map(|helper| {
                    // A join error would mean a panic escaped the helper's
                    // fills; report it as one.
                    helper.join().unwrap_or_else(|_| WorkerOutcome::Panicked {
                        payload: "helper exited without an outcome".into(),
                    })
                })
                .collect();
            outcomes.push(self.stream.outcome());
            for outcome in &outcomes {
                (crew.registry)
                    .counter_with("cn_gen_worker_exit", &[("outcome", outcome.label())])
                    .inc();
            }
            if let Some(failure) = shared.failure() {
                if let StreamError::WorkerPanicked { shard, .. } = &failure {
                    let shard = shard.to_string();
                    let labels: &[(&str, &str)] = &[("shard", &shard)];
                    (crew.registry)
                        .counter_with("cn_gen_shard_panics_total", labels)
                        .inc();
                }
                self.poisoned.get_or_insert(failure);
            }
            crew.outcomes = Some(outcomes);
        }
        crew.outcomes.clone().expect("outcomes just collected")
    }
}

impl RecordSource for ShardedStream<'_> {
    type Stats = StreamStats;

    fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        ShardedStream::try_next(self)
    }

    fn finish(self) -> Result<StreamStats, StreamError> {
        ShardedStream::finish(self)
    }
}

impl Drop for ShardedStream<'_> {
    fn drop(&mut self) {
        // Join the helpers and *record* every thread's terminal state
        // instead of swallowing it — an abandoned or poisoned stream still
        // leaves evidence.
        self.shutdown();
    }
}

/// How a stream's fill is shared: generating threads (the caller
/// included), slots per chunk, and the slab target.
#[derive(Debug, Clone, Copy)]
struct Layout {
    threads: usize,
    chunk_slots: usize,
    target: usize,
}

/// `shards` threads clamped to the population, and the chunk size that
/// gives every thread work: [`CHUNK_SLOTS`], or less for a population
/// smaller than `threads × CHUNK_SLOTS`. One thread keeps its slots in one
/// chunk, as the sequential stream does.
fn layout(config: &GenConfig, shards: usize) -> Layout {
    let total = config.population.total() as usize;
    let threads = shards.clamp(1, total.max(1));
    let chunk_slots = match threads {
        1 => usize::MAX,
        _ => CHUNK_SLOTS.min(total.div_ceil(threads)),
    };
    Layout {
        threads,
        chunk_slots,
        target: SLAB_TARGET_EVENTS,
    }
}

/// A helper's life: fill chunks of every slab the caller opens until the
/// stream stops, or one of its fills panics.
fn serve(
    shared: &Shared<UeState>,
    advance: &impl Fn(&mut UeState) -> Option<(u64, EventType)>,
    obs: &FillObs,
    stall_ns: &Counter,
) -> WorkerOutcome {
    // The caller fills slab 0 before any helper starts.
    let (mut seen, mut events) = (0, 0);
    loop {
        let waiting = stall_ns.is_enabled().then(Instant::now);
        let next = shared.next_window(seen);
        if let Some(waiting) = waiting {
            stall_ns.add(u64::try_from(waiting.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let (epoch, end) = match next {
            Ok(window) => window,
            Err(Stop::Completed) => return WorkerOutcome::Completed { events },
            Err(Stop::Cancelled) => return WorkerOutcome::Cancelled,
        };
        seen = epoch;
        let _span = obs.trace.span("cn_gen_slab_fill");
        match shared.help(epoch, end, advance) {
            Ok(keys) => {
                events += keys;
                obs.events.add(keys);
            }
            Err(e) => {
                return WorkerOutcome::Panicked {
                    payload: e.to_string(),
                }
            }
        }
    }
}

/// Render a panic payload for [`WorkerOutcome::Panicked`] and
/// [`StreamError::WorkerPanicked`].
pub(crate) fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{reference, HourSemantics};
    use cn_fit::{fit, FitConfig, Method};
    use cn_trace::{PopulationMix, Timestamp, Trace};
    use cn_world::{generate_world, WorldConfig};
    use std::panic::AssertUnwindSafe;

    fn fitted() -> ModelSet {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(24, 10, 6), 2.0, 5));
        fit(&trace, &FitConfig::new(Method::Ours))
    }

    fn config() -> GenConfig {
        GenConfig::new(
            PopulationMix::new(18, 8, 5),
            Timestamp::at_hour(0, 9),
            2.0,
            7,
        )
    }

    /// Drain and finish an unfaulted stream.
    fn drained(stream: ShardedStream<'_>) -> (Trace, StreamStats) {
        stream.collect_trace().expect("no fault injected")
    }

    fn sequential_count(models: &ModelSet, config: &GenConfig) -> u64 {
        PopulationStream::new(models, config).count() as u64
    }

    /// The chunked engine is the reference merge at every helper count,
    /// chunk size and slab target, for contiguous and strided index sets,
    /// under both hour semantics: which thread fills which chunk, and how
    /// the slots and the horizon are cut, never moves a byte.
    #[test]
    fn chunked_engine_equals_the_reference() {
        let models = fitted();
        for semantics in [HourSemantics::EntryHour, HourSemantics::TruncateAtBoundary] {
            let mut config = GenConfig::new(
                PopulationMix::new(14, 6, 4),
                Timestamp::at_hour(0, 7),
                9.0,
                41,
            );
            config.semantics = semantics;
            let total = config.population.total();
            let index_sets: [Vec<u32>; 2] = [(0..total).collect(), (1..total).step_by(3).collect()];
            for indices in index_sets {
                let expected = reference(&models, &config, indices.iter().copied());
                assert!(expected.len() > 200, "only {} events", expected.len());
                for helpers in [0, 1, 3, 7] {
                    for chunk_slots in [1, 7, CHUNK_SLOTS] {
                        for target in [1, 97, SLAB_TARGET_EVENTS] {
                            let layout = Layout {
                                threads: helpers + 1,
                                chunk_slots,
                                target,
                            };
                            let stream = ShardedStream::with_layout(
                                &models,
                                &config,
                                indices.iter().copied(),
                                layout,
                                &Registry::disabled(),
                                &FaultPlan::new(),
                            );
                            assert_eq!(stream.worker_threads(), helpers);
                            let (got, stats) = drained(stream);
                            assert_eq!(stats.events, got.len() as u64);
                            assert!(
                                got.records() == expected,
                                "{semantics:?}, {} UEs, {layout:?}: output diverged",
                                indices.len()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_equals_sequential_for_any_shard_count() {
        let models = fitted();
        let config = config();
        let sequential: Trace = PopulationStream::new(&models, &config).collect();
        for shards in [1usize, 2, 5, 31, 64] {
            let (sharded, _) = drained(ShardedStream::with_shards(&models, &config, shards));
            assert_eq!(sharded, sequential, "{shards} shards diverged");
        }
    }

    #[test]
    fn single_shard_runs_inline_without_worker_threads() {
        // One thread must not pay for helpers it cannot use: the caller
        // fills every chunk, which is the sequential stream.
        let models = fitted();
        let config = config();
        let stream = ShardedStream::with_shards(&models, &config, 1);
        assert_eq!(stream.worker_threads(), 0, "one thread spawns no helper");
        assert!(stream.crew.is_none(), "and clones no model");
        let n = drained(stream).1.events;
        assert_eq!(n, sequential_count(&models, &config));
    }

    #[test]
    fn n_threads_spawn_n_minus_one_helpers() {
        let models = fitted();
        let config = config();
        let stream = ShardedStream::with_shards(&models, &config, 4);
        assert_eq!(stream.worker_threads(), 3, "the caller is the fourth");
    }

    #[test]
    fn one_ue_population_is_inline_regardless_of_request() {
        // Clamping to the population size can collapse a parallel request
        // to one thread; that too must bypass the helper machinery.
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(1, 0, 0),
            Timestamp::at_hour(0, 9),
            2.0,
            7,
        );
        let stream = ShardedStream::with_shards(&models, &config, 8);
        assert_eq!(stream.worker_threads(), 0);
    }

    #[test]
    fn shard_count_exceeding_population_is_clamped() {
        let models = fitted();
        let config = config();
        // 31 UEs, 64 requested threads: 31 threads, one UE per chunk, and
        // every record still streams.
        let stream = ShardedStream::with_shards(&models, &config, 64);
        assert_eq!(stream.worker_threads(), 30);
        let n = drained(stream).1.events;
        assert_eq!(n, sequential_count(&models, &config));
    }

    #[test]
    fn empty_population_streams_nothing() {
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(0, 0, 0),
            Timestamp::at_hour(0, 0),
            1.0,
            1,
        );
        let (trace, stats) = drained(ShardedStream::with_shards(&models, &config, 4));
        assert_eq!((trace.len(), stats.events), (0, 0));
    }

    #[test]
    fn abandoning_the_stream_mid_run_terminates_workers() {
        let models = fitted();
        let mut config = config();
        config.duration_hours = 6.0;
        let mut stream = ShardedStream::with_shards(&models, &config, 3);
        for _ in 0..10 {
            if stream.try_next().expect("no fault").is_none() {
                break;
            }
        }
        drop(stream); // must not hang: Drop stops and joins the helpers
    }

    #[test]
    fn dropped_streams_release_the_model_clone() {
        // No leaked model and no detached helper: once a parallel stream
        // is dropped, the clone its helpers stepped with has no owner but
        // the handle this test keeps.
        let models = fitted();
        let mut config = config();
        config.duration_hours = 6.0;
        for taken in 0..100 {
            let mut stream = ShardedStream::with_shards(&models, &config, 3);
            for _ in 0..taken {
                stream.try_next().expect("no fault");
            }
            let clone = Arc::clone(&stream.crew.as_ref().expect("helpers run").models);
            drop(stream);
            assert_eq!(Arc::strong_count(&clone), 1, "after {taken} records");
        }
    }

    #[test]
    fn finish_reports_stats_on_every_path() {
        let models = fitted();
        let config = config();
        let expected = sequential_count(&models, &config);

        // Helpers: drain, then finish — every thread completed, and
        // between them they generated exactly the workload.
        let (_, stats) = drained(ShardedStream::with_shards(&models, &config, 3));
        assert_eq!(stats.events, expected);
        assert_eq!(stats.outcomes.len(), 3);
        let generated: u64 = stats
            .outcomes
            .iter()
            .map(|o| match o {
                WorkerOutcome::Completed { events } => *events,
                other => panic!("unexpected outcome {other:?}"),
            })
            .sum();
        assert_eq!(
            generated, expected,
            "threads generated exactly the workload"
        );

        // Caller alone: same contract, no outcomes (no helpers exist).
        let (_, stats) = drained(ShardedStream::with_shards(&models, &config, 1));
        assert_eq!(stats.events, expected);
        assert!(stats.outcomes.is_empty());
    }

    #[test]
    fn early_finish_is_a_cancellation_not_an_error() {
        let models = fitted();
        let mut config = config();
        config.duration_hours = 6.0;
        let mut stream = ShardedStream::with_shards(&models, &config, 3);
        let mut taken = 0u64;
        for _ in 0..10 {
            if stream.try_next().expect("no fault").is_none() {
                break;
            }
            taken += 1;
        }
        let stats = stream.finish().expect("early stop is deliberate");
        assert_eq!(stats.events, taken);
        // Threads were cancelled (or, for a tiny workload, completed);
        // none panicked.
        assert!(stats
            .outcomes
            .iter()
            .all(|o| !matches!(o, WorkerOutcome::Panicked { .. })));
    }

    #[test]
    fn observed_parallel_counters_balance_exactly() {
        let models = fitted();
        let config = config();
        let expected = sequential_count(&models, &config);
        let registry = Registry::new();
        let stream = ShardedStream::with_shards_observed(&models, &config, 4, &registry);
        let n = drained(stream).1.events;
        assert_eq!(n, expected);

        let snap = registry.snapshot();
        // The ledger: per-thread generation sums to exactly what was
        // emitted, which is exactly the sequential count.
        assert_eq!(snap.counter_total("cn_gen_shard_events_total"), Some(n));
        assert_eq!(snap.counter("cn_gen_merge_events_total"), Some(n));
        // One series per helper, and the caller's own.
        for shard in ["0", "1", "2", "caller"] {
            assert!(
                snap.get("cn_gen_shard_events_total", &[("shard", shard)])
                    .is_some(),
                "missing events counter for thread {shard}"
            );
        }
        assert!(snap.counter("cn_gen_slabs_total") >= Some(1));
        assert_eq!(snap.gauge("cn_gen_shard_mode_parallel"), Some(1));
        assert_eq!(snap.gauge("cn_gen_shard_workers"), Some(3));
        // `finish` joined the helpers, so the exit ledger is written: all
        // four threads completed, none panicked.
        assert_eq!(
            snap.get("cn_gen_worker_exit", &[("outcome", "completed")])
                .map(|m| m.value.clone()),
            Some(cn_obs::MetricValue::Counter { value: 4 })
        );
        assert!(snap
            .get("cn_gen_worker_exit", &[("outcome", "panicked")])
            .is_none());
        assert_eq!(snap.counter_total("cn_gen_shard_panics_total"), None);
    }

    #[test]
    fn observed_inline_counts_and_flags_mode() {
        let models = fitted();
        let config = config();
        let registry = Registry::new();
        let mut stream = ShardedStream::with_shards_observed(&models, &config, 1, &registry);
        let mut n = 0u64;
        while stream.try_next().expect("no fault injected").is_some() {
            n += 1;
        }
        // Exhaustion settles the count before `finish` does anything.
        let merged = || registry.snapshot().counter("cn_gen_merge_events_total");
        assert_eq!(merged(), Some(n));
        assert_eq!(stream.finish().expect("no fault injected").events, n);
        assert_eq!(n, sequential_count(&models, &config));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cn_gen_merge_events_total"), Some(n));
        // No helpers → no per-thread series at all.
        assert_eq!(snap.counter_total("cn_gen_shard_events_total"), None);
        assert_eq!(snap.gauge("cn_gen_shard_mode_parallel"), Some(0));
        assert_eq!(snap.gauge("cn_gen_shard_workers"), Some(0));
    }

    #[test]
    fn observed_inline_counts_emitted_on_finish_and_drop() {
        // The merge count is fed per slab; a stream finished or abandoned
        // mid-slab, early or many slabs in, still reports exactly what it
        // emitted.
        let models = fitted();
        let config = config();
        let total = sequential_count(&models, &config);
        for taken in [10, total / 2] {
            for finish in [false, true] {
                let registry = Registry::new();
                let mut stream =
                    ShardedStream::with_shards_observed(&models, &config, 1, &registry);
                for _ in 0..taken {
                    let rec = stream.try_next().expect("no fault injected");
                    assert!(rec.is_some(), "fewer than {taken} records");
                }
                if finish {
                    let stats = stream.finish().expect("no fault injected");
                    assert_eq!(stats.events, taken);
                } else {
                    drop(stream);
                }
                assert_eq!(
                    registry.snapshot().counter("cn_gen_merge_events_total"),
                    Some(taken),
                    "{taken} taken, finished: {finish}"
                );
            }
        }
    }

    #[test]
    fn observed_stream_is_byte_identical_to_unobserved() {
        let models = fitted();
        let config = config();
        let (plain, _) = drained(ShardedStream::with_shards(&models, &config, 3));
        let registry = Registry::new();
        let (observed, _) = drained(ShardedStream::with_shards_observed(
            &models, &config, 3, &registry,
        ));
        assert_eq!(observed, plain, "telemetry must never change the stream");
    }

    #[test]
    fn faulting_an_inline_stream_is_refused() {
        // A fault plan on a stream without helpers would test nothing the
        // suite is about.
        let models = fitted();
        let config = config();
        let plan = FaultPlan::new().panic_shard_at(0, 1);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ShardedStream::with_shards_faulted(&models, &config, 1, &Registry::disabled(), &plan)
        }));
        assert!(err.is_err(), "one thread + non-empty plan must panic");
        // An empty plan is the unfaulted stream, one thread included.
        let unfaulted = ShardedStream::with_shards_faulted(
            &models,
            &config,
            1,
            &Registry::disabled(),
            &FaultPlan::new(),
        );
        assert_eq!(
            drained(unfaulted).1.events,
            sequential_count(&models, &config)
        );
    }

    #[test]
    fn a_fault_in_a_missing_chunk_is_refused() {
        // 31 UEs on 2 threads are two chunks: a plan naming a third could
        // never fire.
        let models = fitted();
        let config = config();
        let plan = FaultPlan::new().panic_shard_at(2, 0);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ShardedStream::with_shards_faulted(&models, &config, 2, &Registry::disabled(), &plan)
        }));
        assert!(err.is_err(), "a plan naming a missing chunk must panic");
    }
}
