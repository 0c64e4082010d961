//! The stream contract: how every layer pulls an ordered record stream.
//!
//! The generator's output is one time-ordered, UE-labeled event stream,
//! and every later stage (scenario overlay, binary export, the live
//! pacing server, the core-network simulator) only ever *pulls* it.
//! [`RecordSource`] is that pull, and it is the only one:
//!
//! * [`RecordSource::try_next`] yields records in non-decreasing
//!   [`TraceRecord`] order, `Ok(None)` on clean exhaustion (and on every
//!   later call), or a typed [`StreamError`]. Everything delivered before
//!   an error is a verbatim prefix of the fault-free stream.
//! * [`RecordSource::finish`] winds the source down and gives its
//!   terminal verdict: a source with workers refuses success if any of
//!   them failed, even one whose records were never needed. Finishing
//!   before exhaustion is a deliberate early stop, not an error.
//! * [`RecordSource::drain`] is how a whole stream is consumed: pull to
//!   `Ok(None)`, **then** `finish`, returning `finish`'s verdict —
//!   "drained but never finished" cannot be written with it.
//!
//! Failure is typed, never a silently shorter stream; there is no
//! infallible view of a fallible source.

use crate::record::TraceRecord;
use crate::trace::Trace;

/// A failure of a record stream, surfaced by [`RecordSource::try_next`] /
/// [`RecordSource::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A generator shard worker panicked; the records it had not yet
    /// shipped are lost, so the stream refuses to pose as cleanly
    /// exhausted.
    WorkerPanicked {
        /// Index of the shard whose worker died.
        shard: usize,
        /// The worker's panic payload.
        payload: String,
    },
    /// A spill, export or wire I/O operation failed. The same containment
    /// contract as a worker panic applies: the failure is surfaced as
    /// this typed error and an export sink is left in the
    /// finish-or-recover state — never posing as a complete trace.
    Io {
        /// Pipeline stage that failed: `spill-create`, `spill-write`,
        /// `spill-read`, `export-header`, `export-write`,
        /// `export-finish`, or `live-read`.
        stage: &'static str,
        /// The underlying I/O error, stringified (keeps the error `Clone`
        /// and comparable for tests).
        message: String,
    },
    /// A live-service consumer (`cn-live`) fell behind its bounded send
    /// queue and record frames addressed to it were dropped. The wire
    /// stream carries an explicit gap marker at the drop position and the
    /// consumer's terminal verdict is this typed error — honest
    /// degradation, never a silently truncated or reordered stream.
    ConsumerLagged {
        /// Id of the lagging consumer (the live server's accept order).
        consumer: usize,
        /// Number of record frames dropped for this consumer.
        dropped: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::WorkerPanicked { shard, payload } => {
                write!(f, "shard {shard} worker panicked: {payload}")
            }
            StreamError::Io { stage, message } => {
                write!(f, "out-of-core {stage} I/O failure: {message}")
            }
            StreamError::ConsumerLagged { consumer, dropped } => {
                write!(
                    f,
                    "live consumer {consumer} lagged: {dropped} record frames dropped"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// A fallible, ordered record source (see module docs for the contract).
pub trait RecordSource {
    /// What a clean wind-down reports (`()` for sources with nothing to
    /// account for).
    type Stats;

    /// Pull the next record, or a typed stream fault.
    fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError>;

    /// Wind the source down and return its terminal verdict.
    fn finish(self) -> Result<Self::Stats, StreamError>
    where
        Self: Sized;

    /// Pull every record into `sink`, then [`finish`](Self::finish). A
    /// sink failure stops the pull at once and is returned as is; a
    /// source fault is returned through `E`'s `From<StreamError>`.
    fn drain<E: From<StreamError>>(
        mut self,
        mut sink: impl FnMut(TraceRecord) -> Result<(), E>,
    ) -> Result<Self::Stats, E>
    where
        Self: Sized,
    {
        while let Some(record) = self.try_next()? {
            sink(record)?;
        }
        Ok(self.finish()?)
    }

    /// [`drain`](Self::drain) into a materialized [`Trace`].
    fn collect_trace(self) -> Result<(Trace, Self::Stats), StreamError>
    where
        Self: Sized,
    {
        let mut records = Vec::new();
        let stats = self.drain(|r| {
            records.push(r);
            Ok::<(), StreamError>(())
        })?;
        // `from_records` re-sorts and would hide an ordering violation,
        // so assert the contract here where it is consumed.
        debug_assert!(
            records.windows(2).all(|w| w[0] <= w[1]),
            "record source emitted out of order"
        );
        Ok((Trace::from_records(records), stats))
    }
}

/// Adapter making any record iterator a (never-failing) [`RecordSource`].
pub struct IterSource<I>(pub I);

impl<I: Iterator<Item = TraceRecord>> RecordSource for IterSource<I> {
    type Stats = ();

    fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        Ok(self.0.next())
    }

    fn finish(self) -> Result<(), StreamError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceType, EventType, Timestamp, UeId};

    fn rec(t: u64) -> TraceRecord {
        TraceRecord::new(
            Timestamp::from_millis(t),
            UeId(0),
            DeviceType::Phone,
            EventType::Tau,
        )
    }

    /// Pulls cleanly, but its wind-down reports a loss (as a lagged live
    /// consumer's does).
    struct LossyFinish(IterSource<std::vec::IntoIter<TraceRecord>>);

    impl RecordSource for LossyFinish {
        type Stats = ();

        fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
            self.0.try_next()
        }

        fn finish(self) -> Result<(), StreamError> {
            Err(StreamError::ConsumerLagged {
                consumer: 0,
                dropped: 3,
            })
        }
    }

    #[test]
    fn drain_returns_the_finish_verdict_even_after_a_clean_pull() {
        let records: Vec<TraceRecord> = (1..=4).map(rec).collect();
        let mut seen = Vec::new();
        let verdict = LossyFinish(IterSource(records.clone().into_iter())).drain(|r| {
            seen.push(r);
            Ok::<(), StreamError>(())
        });
        assert_eq!(seen, records, "every record is delivered first");
        assert_eq!(
            verdict,
            Err(StreamError::ConsumerLagged {
                consumer: 0,
                dropped: 3
            })
        );
    }

    #[test]
    fn a_sink_failure_stops_the_pull_at_once() {
        #[derive(Debug, PartialEq)]
        enum SinkError {
            Full,
            Stream(StreamError),
        }
        impl From<StreamError> for SinkError {
            fn from(e: StreamError) -> Self {
                SinkError::Stream(e)
            }
        }
        let mut taken = 0;
        let got = IterSource((1..=10).map(rec)).drain(|_| {
            taken += 1;
            if taken == 2 {
                Err(SinkError::Full)
            } else {
                Ok(())
            }
        });
        assert_eq!(got, Err(SinkError::Full));
        assert_eq!(taken, 2);
    }
}
