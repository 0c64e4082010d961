//! Deterministic fault injection for the generation pipelines — **test
//! support only**.
//!
//! "Every worker failure becomes a typed [`cn_trace::StreamError`], never
//! a silently short trace" is only worth anything if it is exercised.
//! [`FaultPlan`] makes failures reproducible, keyed by the unit of work: a
//! chunk of [`crate::ShardedStream`]'s slots, whichever thread fills it,
//! checked once per fill; or an out-of-core chunk, whose workers take the
//! plan through the [`FaultHook`] trait, monomorphized so production's
//! zero-sized [`NoFault`] compiles to nothing.
//!
//! * **panic unit *s* at record *k*** — the fill (or record) that takes
//!   unit `s` past its `k`-th record panics; `k == 0` panics in its first;
//! * **slow unit** — the unit sleeps before publishing each fill or block,
//!   holding its thread busy while the stream flows or is abandoned.
//!
//! The third leg of the harness — a sink that fails after *n* bytes, for
//! proving writer errors propagate as typed I/O errors — lives with the
//! writers it tests: `cn_trace::io::FailingWriter`.

use std::time::Duration;

/// Per-record / per-block callbacks an out-of-core chunk worker drives.
/// Production code uses [`NoFault`]; tests inject a [`ShardFault`]
/// derived from a [`FaultPlan`].
pub(crate) trait FaultHook: Send + 'static {
    /// Called once per generated record, *before* it is appended to the
    /// outgoing block. May panic — that is the point.
    fn on_record(&mut self);

    /// Called once per block, *before* it is shipped to the consumer.
    fn on_block(&mut self);
}

/// The production hook: does nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoFault;

impl FaultHook for NoFault {
    #[inline(always)]
    fn on_record(&mut self) {}

    #[inline(always)]
    fn on_block(&mut self) {}
}

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
    /// block or fill.
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
    /// chunk — once it has produced exactly `k` records (so `k == 0`
    /// panics before the first record). The panic payload names the unit
    /// and record, and surfaces verbatim in `StreamError::WorkerPanicked`,
    /// whose `shard` names the unit.
    pub fn panic_shard_at(mut self, shard: usize, k: u64) -> FaultPlan {
        self.panics.push((shard, k));
        self
    }

    /// Make unit `shard` sleep `delay` before publishing each of its fills
    /// or blocks — enough to keep the thread doing it busy while a test
    /// abandons or out-paces the stream.
    pub fn slow_shard(mut self, shard: usize, delay: Duration) -> FaultPlan {
        self.delays.push((shard, delay));
        self
    }

    /// Every unit the plan names.
    pub(crate) fn targets(&self) -> impl Iterator<Item = usize> + '_ {
        (self.panics.iter().map(|p| p.0)).chain(self.delays.iter().map(|d| d.0))
    }

    /// The hook for one unit: its faults, extracted from the plan.
    pub(crate) fn for_shard(&self, shard: usize) -> ShardFault {
        ShardFault {
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
        }
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
    /// Called once per chunk fill that produced `records`, before it is
    /// published: sleeps when slow, and panics when the fill took the
    /// chunk past its `k`-th record, or is its first at or after it.
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

impl FaultHook for ShardFault {
    fn on_record(&mut self) {
        if Some(self.produced) == self.panic_at {
            panic!(
                "injected fault: shard {} panicked at record {}",
                self.shard, self.produced
            );
        }
        self.produced += 1;
    }

    fn on_block(&mut self) {
        if let Some(delay) = self.delay {
            std::thread::sleep(delay);
        }
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
        assert_eq!(plan.for_shard(1).panic_at, Some(3));
        assert_eq!(plan.for_shard(0).panic_at, None);
        assert_eq!(plan.for_shard(2).delay, Some(Duration::from_millis(1)));
        assert_eq!(plan.for_shard(2).panic_at, None);
    }

    #[test]
    fn shard_fault_panics_at_exactly_k() {
        let mut hook = FaultPlan::new().panic_shard_at(0, 2).for_shard(0);
        hook.on_record();
        hook.on_record();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook.on_record()));
        let payload = err.expect_err("third record must panic");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("shard 0"), "{msg}");
        assert!(msg.contains("record 2"), "{msg}");
    }

    #[test]
    fn chunk_fault_fires_in_the_fill_that_reaches_k() {
        let fires = |k: u64, fills: &[u64]| {
            let mut hook = FaultPlan::new().panic_shard_at(0, k).for_shard(0);
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

    #[test]
    fn no_fault_is_inert() {
        let mut hook = NoFault;
        for _ in 0..10 {
            hook.on_record();
            hook.on_block();
        }
    }
}
