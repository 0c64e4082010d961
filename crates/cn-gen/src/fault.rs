//! Deterministic fault injection for the generation pipelines — **test
//! support only**.
//!
//! "Every worker failure becomes a typed [`cn_trace::StreamError`], never
//! a silently short trace" is only worth anything if it is exercised.
//! [`FaultPlan`] makes failures reproducible, keyed by the unit of work
//! and checked once per fill of it: a chunk of [`crate::ShardedStream`]'s
//! slots, whichever thread fills it; an out-of-core chunk, per block its
//! worker encodes; or an out-of-core merge slice. A unit the plan does not
//! name gets no [`ShardFault`] at all.
//!
//! * **panic unit *s* at record *k*** — the fill that takes unit `s` past
//!   its `k`-th record panics; `k == 0` panics in its first;
//! * **slow unit** — the unit sleeps before publishing each fill, holding
//!   its thread busy while the stream flows or is abandoned.
//!
//! The third leg of the harness — a sink that fails after *n* bytes, for
//! proving writer errors propagate as typed I/O errors — lives with the
//! writers it tests: `cn_trace::io::FailingWriter`.

use std::time::Duration;

/// A deterministic set of faults to inject into a sharded or out-of-core
/// run.
///
/// Built with the builder methods, handed to
/// [`crate::ShardedStream::with_shards_faulted`]; each chunk receives only
/// its own slice of the plan. An empty plan behaves exactly like the
/// unfaulted constructors.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// `(unit, k)`: the unit panics after producing exactly `k` records.
    panics: Vec<(usize, u64)>,
    /// `(unit, delay)`: the unit sleeps `delay` before publishing each
    /// fill.
    delays: Vec<(usize, Duration)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.panics.is_empty() && self.delays.is_empty()
    }

    /// Panic unit `shard` — a sharded stream's chunk, an out-of-core
    /// chunk or merge slice — once it has produced exactly `k` records
    /// (so `k == 0` panics before the first record). The panic payload
    /// names the unit and record, and surfaces verbatim in
    /// `StreamError::WorkerPanicked`, whose `shard` names the unit.
    pub fn panic_shard_at(mut self, shard: usize, k: u64) -> FaultPlan {
        self.panics.push((shard, k));
        self
    }

    /// Make unit `shard` sleep `delay` before publishing each of its fills
    /// — enough to keep the thread doing it busy while a test abandons or
    /// out-paces the stream.
    pub fn slow_shard(mut self, shard: usize, delay: Duration) -> FaultPlan {
        self.delays.push((shard, delay));
        self
    }

    /// Every unit the plan names.
    pub(crate) fn targets(&self) -> impl Iterator<Item = usize> + '_ {
        (self.panics.iter().map(|p| p.0)).chain(self.delays.iter().map(|d| d.0))
    }

    /// One unit's faults, extracted from the plan; `None` when the plan
    /// does not name it.
    pub(crate) fn for_shard(&self, shard: usize) -> Option<ShardFault> {
        self.targets().any(|t| t == shard).then(|| ShardFault {
            shard,
            panic_at: self
                .panics
                .iter()
                .filter(|(s, _)| *s == shard)
                .map(|&(_, k)| k)
                .min(),
            delay: self
                .delays
                .iter()
                .find(|(s, _)| *s == shard)
                .map(|&(_, d)| d),
            produced: 0,
        })
    }
}

/// One unit's live faults (see [`FaultPlan::for_shard`]).
#[derive(Debug, Clone)]
pub(crate) struct ShardFault {
    shard: usize,
    panic_at: Option<u64>,
    delay: Option<Duration>,
    produced: u64,
}

impl ShardFault {
    /// Called once per fill of the unit that produced `records`, before it
    /// is published: sleeps when slow, and panics when the fill took the
    /// unit past its `k`-th record, or is its first at or after it.
    pub(crate) fn on_fill(&mut self, records: u64) {
        if let Some(delay) = self.delay {
            std::thread::sleep(delay);
        }
        if let Some(k) = self.panic_at {
            if (self.produced..self.produced + records.max(1)).contains(&k) {
                panic!(
                    "injected fault: shard {} panicked at record {k}",
                    self.shard
                );
            }
        }
        self.produced += records;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_slices_per_shard() {
        let plan = FaultPlan::new()
            .panic_shard_at(1, 5)
            .panic_shard_at(1, 3)
            .slow_shard(2, Duration::from_millis(1));
        assert!(!plan.is_empty());
        // The earliest panic wins when a shard has several.
        assert_eq!(plan.for_shard(1).unwrap().panic_at, Some(3));
        assert!(plan.for_shard(0).is_none());
        let slow = plan.for_shard(2).unwrap();
        assert_eq!(slow.delay, Some(Duration::from_millis(1)));
        assert_eq!(slow.panic_at, None);
    }

    #[test]
    fn shard_fault_panics_at_exactly_k() {
        let mut hook = FaultPlan::new().panic_shard_at(0, 2).for_shard(0).unwrap();
        hook.on_fill(1);
        hook.on_fill(1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook.on_fill(1)));
        let payload = err.expect_err("third record must panic");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("shard 0"), "{msg}");
        assert!(msg.contains("record 2"), "{msg}");
    }

    #[test]
    fn chunk_fault_fires_in_the_fill_that_reaches_k() {
        let fires = |k: u64, fills: &[u64]| {
            let mut hook = FaultPlan::new().panic_shard_at(0, k).for_shard(0).unwrap();
            fills.iter().position(|&records| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook.on_fill(records)))
                    .is_err()
            })
        };
        // k = 0 fires on the first fill, even an empty one.
        assert_eq!(fires(0, &[0, 5]), Some(0));
        // A fill ending exactly at k leaves the fault to the next fill.
        assert_eq!(fires(5, &[3, 2, 0, 4]), Some(2));
        assert_eq!(fires(5, &[3, 3]), Some(1));
        assert_eq!(fires(9, &[3, 3]), None);
    }
}
