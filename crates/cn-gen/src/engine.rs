//! Population-scale synthesis: K per-UE generators in parallel.

use crate::shard::ShardedStream;
use cn_fit::ModelSet;
use cn_trace::{DeviceType, PopulationMix, RecordSource, Timestamp, Trace, MS_PER_HOUR};
use serde::{Deserialize, Serialize};

/// How the per-UE generator treats sojourns that cross hour boundaries —
/// a point §7 of the paper leaves open ("runs the per-hour state machine
/// one after another").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HourSemantics {
    /// Sample the sojourn from the model of the hour the state was
    /// *entered* and keep the absolute fire time (our default: no
    /// truncation artifacts; overnight idles survive intact).
    #[default]
    EntryHour,
    /// Discard fire times beyond the sampling hour and resample from the
    /// next hour's model at the boundary (a stricter reading of "one
    /// after another"; long sojourns become products of hourly survival).
    TruncateAtBoundary,
}

/// Configuration of a synthesis run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenConfig {
    /// How many UEs of each device type to synthesize (design goal 3:
    /// arbitrary population sizes, independent of the modeled population).
    pub population: PopulationMix,
    /// Trace start (its hour-of-day is the paper's "starting hour H").
    pub start: Timestamp,
    /// Trace length in hours.
    pub duration_hours: f64,
    /// Master seed; every UE's stream is a pure function of `(seed, ue)`.
    pub seed: u64,
    /// Worker threads (`0` = all cores).
    pub threads: usize,
    /// Hour-boundary sojourn semantics (see [`HourSemantics`]).
    pub semantics: HourSemantics,
}

impl GenConfig {
    /// A synthesis run for `population` UEs over `duration_hours` starting
    /// at `start`.
    pub fn new(
        population: PopulationMix,
        start: Timestamp,
        duration_hours: f64,
        seed: u64,
    ) -> Self {
        debug_assert!(
            duration_hours.is_finite() && duration_hours >= 0.0,
            "GenConfig duration_hours must be finite and non-negative, got {duration_hours}"
        );
        // Saturate rather than propagate: a NaN/negative/infinite duration
        // means an empty synthesis window, never a garbage end timestamp.
        let duration_hours = if duration_hours.is_finite() {
            duration_hours.max(0.0)
        } else {
            0.0
        };
        GenConfig {
            population,
            start,
            duration_hours,
            seed,
            threads: 0,
            semantics: HourSemantics::EntryHour,
        }
    }

    /// [`GenConfig::threads`] with `0` resolved to
    /// [`effective_parallelism`] — what every engine spawns or shards by.
    pub(crate) fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            effective_parallelism()
        } else {
            self.threads
        }
    }

    /// Device type of the synthesized UE at `index` (phones first, then
    /// connected cars, then tablets).
    pub fn device_of(&self, index: u32) -> DeviceType {
        if index < self.population.phones {
            DeviceType::Phone
        } else if index < self.population.phones + self.population.connected_cars {
            DeviceType::ConnectedCar
        } else {
            DeviceType::Tablet
        }
    }

    /// End of the synthesis window. `duration_hours` is a public field, so
    /// a non-finite or non-positive value can reach this point even though
    /// [`GenConfig::new`] saturates: such a duration yields an empty window
    /// (`end == start`), never a garbage timestamp (a bare `as u64` cast
    /// maps NaN to `0` but `+inf` to `u64::MAX`, which would send the
    /// generators off to synthesize forever).
    pub fn end(&self) -> Timestamp {
        let ms = self.duration_hours * MS_PER_HOUR as f64;
        if !ms.is_finite() || ms <= 0.0 {
            return self.start;
        }
        self.start.saturating_add(ms as u64)
    }
}

/// Worker threads / shards to use when a caller asks for "all cores"
/// (`GenConfig::threads == 0`): [`std::thread::available_parallelism`],
/// falling back to **1** when the parallelism cannot be determined
/// (restricted cgroups, exotic platforms).
///
/// The fallback is deliberately conservative. With an unknown core budget
/// the sequential path is always correct and never slower, whereas
/// speculatively spawning workers pays thread, channel, and merge tax for
/// potentially zero parallelism — exactly the regression the adaptive
/// sharded path exists to avoid. Shared by [`crate::ShardedStream::new`]
/// (and so [`generate`]), [`crate::generate_out_of_core`], and cp-bench so
/// every "0 = all cores" knob resolves identically.
pub fn effective_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Per-UE stream seed: decorrelated from the master seed via SplitMix64,
/// so a UE's stream is the same whichever pool or shard generates it.
pub(crate) fn ue_stream_seed(seed: u64, index: u32) -> u64 {
    splitmix64(seed ^ splitmix64(u64::from(index) + 0x5F0F))
}

/// SplitMix64 seed derivation (decorrelated per-UE seeds).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Synthesize a population trace from a fitted model set (§7).
///
/// ```
/// use cn_fit::{fit, FitConfig, Method};
/// use cn_gen::{generate, GenConfig};
/// use cn_trace::{PopulationMix, Timestamp};
/// use cn_world::{generate_world, WorldConfig};
/// let world = generate_world(&WorldConfig::new(PopulationMix::new(15, 5, 3), 1.0, 7));
/// let models = fit(&world, &FitConfig::new(Method::Ours));
/// // A busy hour for a 4x population — sizes are decoupled (goal 3).
/// let config = GenConfig::new(PopulationMix::new(60, 20, 12), Timestamp::at_hour(0, 18), 1.0, 1);
/// let trace = generate(&models, &config);
/// assert!(trace.iter().all(|r| r.t >= config.start && r.t < config.end()));
/// ```
pub fn generate(models: &ModelSet, config: &GenConfig) -> Trace {
    let (trace, _) = ShardedStream::new(models, config)
        .collect_trace()
        .unwrap_or_else(|e| panic!("generator panicked: {e}"));
    trace
}

/// The §7 merge by definition — every UE of `ues` generated on its own,
/// then all records sorted — for tests to hold every engine against.
#[cfg(test)]
pub(crate) fn reference(
    models: &ModelSet,
    config: &GenConfig,
    ues: impl IntoIterator<Item = u32>,
) -> Vec<cn_trace::TraceRecord> {
    let mut records: Vec<_> = (ues.into_iter())
        .flat_map(|ue| {
            crate::per_ue::UeEventIter::with_semantics(
                models.device(config.device_of(ue)),
                models.method,
                cn_trace::UeId(ue),
                config.start,
                config.end(),
                ue_stream_seed(config.seed, ue),
                config.semantics,
            )
        })
        .collect();
    records.sort();
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PopulationStream;
    use cn_fit::{fit, FitConfig, Method};
    use cn_trace::check_well_formed;
    use cn_world::{generate_world, WorldConfig};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// Models fitted once per method and shared by every test here.
    fn fitted_with(method: Method) -> &'static ModelSet {
        static OURS: OnceLock<ModelSet> = OnceLock::new();
        static BASE: OnceLock<ModelSet> = OnceLock::new();
        let cell = if method == Method::Ours { &OURS } else { &BASE };
        cell.get_or_init(|| {
            let world = generate_world(&WorldConfig::new(PopulationMix::new(40, 20, 12), 2.0, 5));
            fit(&world, &FitConfig::new(method))
        })
    }

    /// The determinism matrix: for every hour semantics and both state-
    /// machine families, the sequential stream, [`generate`] at 1 and 4
    /// threads, and the sharded stream at 1, 3, and 8 shards all equal the
    /// reference merge.
    #[test]
    fn every_engine_equals_the_reference() {
        for method in [Method::Ours, Method::Base] {
            let models = fitted_with(method);
            for semantics in [HourSemantics::EntryHour, HourSemantics::TruncateAtBoundary] {
                let mut config = GenConfig::new(
                    PopulationMix::new(30, 14, 8),
                    Timestamp::at_hour(0, 16),
                    3.0,
                    41,
                );
                config.semantics = semantics;
                let expected = reference(models, &config, 0..config.population.total());
                let check = |got: &[cn_trace::TraceRecord], engine: String| {
                    assert!(
                        got == expected,
                        "{method:?}/{semantics:?}: {engine} diverged"
                    );
                };
                let sequential: Vec<_> = PopulationStream::new(models, &config).collect();
                check(&sequential, "the sequential stream".into());
                for threads in [1usize, 4] {
                    config.threads = threads;
                    check(
                        generate(models, &config).records(),
                        format!("{threads}-thread generate"),
                    );
                }
                for shards in [1usize, 3, 8] {
                    let (sharded, _) = ShardedStream::with_shards(models, &config, shards)
                        .collect_trace()
                        .expect("no fault injected");
                    check(sharded.records(), format!("the {shards}-shard stream"));
                }
            }
        }
    }

    fn arb_config() -> impl Strategy<Value = GenConfig> {
        (1u32..20, 0u32..8, 0u32..6, 0u8..24, 1u8..6, 0u64..10_000).prop_map(
            |(p, c, t, hour, hours, seed)| {
                GenConfig::new(
                    PopulationMix::new(p, c, t),
                    Timestamp::at_hour(0, hour),
                    f64::from(hours),
                    seed,
                )
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The sharded stream is the reference merge, event for event, at
        /// any shard count.
        #[test]
        fn sharded_stream_matches_the_reference(
            config in arb_config(),
            shards in prop_oneof![Just(1usize), Just(2), Just(3), Just(8)],
        ) {
            let set = fitted_with(Method::Ours);
            let expected = reference(set, &config, 0..config.population.total());
            let (sharded, _) = ShardedStream::with_shards(set, &config, shards)
                .collect_trace()
                .expect("no fault injected");
            prop_assert_eq!(sharded.records(), &expected[..]);
        }
    }

    #[test]
    fn population_trace_is_well_formed() {
        let set = fitted_with(Method::Ours);
        let config = GenConfig::new(
            PopulationMix::new(25, 10, 8),
            Timestamp::at_hour(0, 10),
            2.0,
            9,
        );
        let t = generate(set, &config);
        assert!(!t.is_empty());
        assert!(check_well_formed(&t).is_empty());
        for r in t.iter() {
            assert_eq!(r.device, config.device_of(r.ue.get()));
            assert!(r.t >= config.start && r.t < config.end());
        }
    }

    #[test]
    fn thread_count_invariant() {
        let set = fitted_with(Method::Ours);
        let mut config = GenConfig::new(
            PopulationMix::new(12, 5, 4),
            Timestamp::at_hour(0, 9),
            1.0,
            3,
        );
        config.threads = 1;
        let a = generate(set, &config);
        config.threads = 4;
        let b = generate(set, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn scales_to_larger_population_than_modeled() {
        // Design goal 3: the modeled trace had 72 UEs; synthesize 400.
        let set = fitted_with(Method::Ours);
        let config = GenConfig::new(
            PopulationMix::new(250, 100, 50),
            Timestamp::at_hour(0, 12),
            1.0,
            21,
        );
        let t = generate(set, &config);
        let active = t.ues().len();
        assert!(active > 150, "only {active} of 400 UEs active");
    }

    #[test]
    fn empty_population_is_empty() {
        let set = fitted_with(Method::Ours);
        let config = GenConfig::new(
            PopulationMix::new(0, 0, 0),
            Timestamp::at_hour(0, 0),
            1.0,
            1,
        );
        assert!(generate(set, &config).is_empty());
    }
}
