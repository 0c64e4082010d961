//! Bounded-memory population streaming.
//!
//! [`PopulationStream`] merges one live [`UeEventIter`] per UE into a
//! single globally time-ordered event stream. Memory is O(population)
//! generator states — a few hundred bytes per UE — instead of
//! O(total events): a week of 380K UEs (hundreds of millions of events)
//! can be written straight to disk without ever materializing the trace.
//!
//! The merge engine is the struct-of-arrays [`UePool`]
//! (see [`crate::pool`]): it generates by time slab — every UE run up to
//! the slab's end in slot order, one packed `(t_ms, ue, event)` `u64` key
//! per event, a stable radix sort on the time bits — so emitting one
//! record is a read of the next sorted key: no heap, no pointer chase, no
//! allocation, and no structure sized by the window. For multi-core
//! throughput see [`crate::shard::ShardedStream`], which runs disjoint UE
//! shards on worker threads and produces the *same* byte-identical stream.
//!
//! Streamed output is *per-UE* identical to the batch API (both drive the
//! same iterator with the same seed), and globally it is the k-way merge
//! of those per-UE streams — i.e. exactly [`crate::generate`]'s output
//! order for the same configuration.

use crate::engine::GenConfig;
use crate::pool::UePool;
use cn_fit::ModelSet;
use cn_trace::{RecordSource, StreamError, TraceRecord};

/// A time-ordered event stream over a whole synthesized population.
pub struct PopulationStream<'m> {
    pool: UePool<'m>,
}

impl<'m> PopulationStream<'m> {
    /// Create the stream for a generation configuration (same seeds and
    /// semantics as [`crate::generate`]).
    pub fn new(models: &'m ModelSet, config: &GenConfig) -> PopulationStream<'m> {
        PopulationStream {
            pool: UePool::new(models, config, 0..config.population.total()),
        }
    }

    /// Number of UEs that still have events to emit, counted at slab
    /// granularity (see [`UePool::live`]): `live_ues() == 0` exactly when
    /// `next()` would return `None`.
    pub fn live_ues(&self) -> usize {
        self.pool.live()
    }
}

impl Iterator for PopulationStream<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        self.pool.next_record()
    }
}

/// The sequential stream cannot fail: it is the [`Iterator`] above under
/// the fallible pull every downstream stage speaks.
impl RecordSource for PopulationStream<'_> {
    type Stats = ();

    fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        Ok(self.next())
    }

    fn finish(self) -> Result<(), StreamError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HourSemantics;
    use crate::generate;
    use crate::shard::ShardedStream;
    use cn_fit::{fit, FitConfig, Method};
    use cn_trace::{PopulationMix, Timestamp, Trace};
    use cn_world::{generate_world, WorldConfig};

    fn fitted_with(method: Method) -> ModelSet {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(30, 14, 8), 2.0, 5));
        fit(&trace, &FitConfig::new(method))
    }

    fn fitted() -> ModelSet {
        fitted_with(Method::Ours)
    }

    /// The determinism matrix: for every hour semantics (and both state-
    /// machine families), the sequential stream, the batch engine at 1 and
    /// 4 threads, and the sharded parallel stream at 1, 3, and 8 shards
    /// must all produce bit-identical traces.
    #[test]
    fn stream_equals_batch_generation() {
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
                let sequential: Trace = PopulationStream::new(&models, &config).collect();
                for threads in [1usize, 4] {
                    config.threads = threads;
                    let batch = generate(&models, &config);
                    assert_eq!(
                        batch, sequential,
                        "{method:?}/{semantics:?}: batch with {threads} threads diverged"
                    );
                }
                for shards in [1usize, 3, 8] {
                    let (sharded, _) = ShardedStream::with_shards(&models, &config, shards)
                        .collect_trace()
                        .expect("no fault injected");
                    assert_eq!(
                        sharded, sequential,
                        "{method:?}/{semantics:?}: {shards}-shard stream diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_is_globally_time_ordered() {
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(20, 8, 5),
            Timestamp::at_hour(0, 10),
            2.0,
            13,
        );
        let mut last: Option<TraceRecord> = None;
        let mut n = 0usize;
        for rec in PopulationStream::new(&models, &config) {
            if let Some(prev) = last {
                assert!(prev <= rec, "{prev:?} then {rec:?}");
            }
            last = Some(rec);
            n += 1;
        }
        assert!(n > 50, "stream produced only {n} events");
    }

    #[test]
    fn live_ues_drains_to_zero() {
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(10, 4, 2),
            Timestamp::at_hour(0, 12),
            1.0,
            3,
        );
        let mut stream = PopulationStream::new(&models, &config);
        assert!(stream.live_ues() <= 16);
        for _ in stream.by_ref() {}
        assert_eq!(stream.live_ues(), 0);
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
        assert_eq!(PopulationStream::new(&models, &config).count(), 0);
    }
}
