//! Population-scale synthesis: K per-UE generators in parallel.

use crate::per_ue::generate_ue_with;
use cn_fit::ModelSet;
use cn_trace::{DeviceType, PopulationMix, Timestamp, Trace, UeId, MS_PER_HOUR};
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
/// sharded path exists to avoid. Shared by [`generate`],
/// [`crate::ShardedStream::new`], and cp-bench so every
/// "0 = all cores" knob resolves identically.
pub fn effective_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Per-UE stream seed: decorrelated from the master seed via SplitMix64.
/// Shared by the batch engine and [`crate::stream::PopulationStream`] so
/// both produce identical per-UE streams.
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
    let total = config.population.total();
    // A NaN duration must take the empty-trace path too, not fall through
    // to the generators (`NaN <= 0.0` is false).
    if total == 0 || config.duration_hours.is_nan() || config.duration_hours <= 0.0 {
        return Trace::new();
    }
    let end = config.end();
    let threads = config.resolved_threads().min(total as usize).max(1);
    let chunk = total.div_ceil(threads as u32);

    let partial: Vec<Trace> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u32)
            .map(|w| {
                scope.spawn(move |_| {
                    let lo = w * chunk;
                    let hi = ((w + 1) * chunk).min(total);
                    let mut traces = Vec::new();
                    for index in lo..hi {
                        let device = config.device_of(index);
                        traces.push(generate_ue_with(
                            models.device(device),
                            models.method,
                            UeId(index),
                            config.start,
                            end,
                            ue_stream_seed(config.seed, index),
                            config.semantics,
                        ));
                    }
                    Trace::merge(traces)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator panicked"))
            .collect()
    })
    .expect("scope panicked");

    Trace::merge(partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_fit::{fit, FitConfig, Method};
    use cn_trace::check_well_formed;
    use cn_world::{generate_world, WorldConfig};

    fn fitted() -> ModelSet {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(40, 20, 12), 2.0, 5));
        fit(&trace, &FitConfig::new(Method::Ours))
    }

    #[test]
    fn population_trace_is_well_formed() {
        let set = fitted();
        let config = GenConfig::new(
            PopulationMix::new(25, 10, 8),
            Timestamp::at_hour(0, 10),
            2.0,
            9,
        );
        let t = generate(&set, &config);
        assert!(!t.is_empty());
        assert!(check_well_formed(&t).is_empty());
        for r in t.iter() {
            assert_eq!(r.device, config.device_of(r.ue.get()));
            assert!(r.t >= config.start && r.t < config.end());
        }
    }

    #[test]
    fn thread_count_invariant() {
        let set = fitted();
        let mut config = GenConfig::new(
            PopulationMix::new(12, 5, 4),
            Timestamp::at_hour(0, 9),
            1.0,
            3,
        );
        config.threads = 1;
        let a = generate(&set, &config);
        config.threads = 4;
        let b = generate(&set, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn scales_to_larger_population_than_modeled() {
        // Design goal 3: the modeled trace had 72 UEs; synthesize 400.
        let set = fitted();
        let config = GenConfig::new(
            PopulationMix::new(250, 100, 50),
            Timestamp::at_hour(0, 12),
            1.0,
            21,
        );
        let t = generate(&set, &config);
        let active = t.ues().len();
        assert!(active > 150, "only {active} of 400 UEs active");
    }

    #[test]
    fn empty_population_is_empty() {
        let set = fitted();
        let config = GenConfig::new(
            PopulationMix::new(0, 0, 0),
            Timestamp::at_hour(0, 0),
            1.0,
            1,
        );
        assert!(generate(&set, &config).is_empty());
    }
}
