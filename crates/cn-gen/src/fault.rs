//! Deterministic fault injection for the sharded pipeline — **test
//! support only**.
//!
//! The failure-containment contract of [`crate::ShardedStream`] ("every
//! worker failure becomes a typed [`cn_trace::StreamError`], never a silently
//! short trace") is only worth anything if it is *exercised*: a panic path
//! nobody can trigger on demand is a panic path nobody has ever seen work.
//! [`FaultPlan`] makes worker failures reproducible:
//!
//! * **panic shard *s* at record *k*** — the worker raises a panic after
//!   producing exactly `k` records, at any point of its run: before its
//!   first block ships (the consumer learns at spawn), mid-stream (the
//!   consumer learns at a block boundary), or after other shards finished;
//! * **slow shard** — the worker sleeps before shipping each block,
//!   letting tests hold a worker *blocked on a full channel* while the
//!   consumer abandons the stream (the cancellation path).
//!
//! Faults are threaded into the worker loop through the [`FaultHook`]
//! trait, monomorphized per worker: the production pipeline instantiates
//! the zero-sized [`NoFault`], whose empty `#[inline]` callbacks compile
//! to nothing — the unfaulted hot path carries **no** per-record branch
//! for this machinery. Only [`crate::ShardedStream::with_shards_faulted`]
//! (used by the tier-1 failure-containment suite) instantiates a live
//! [`ShardFault`].
//!
//! The third leg of the harness — a sink that fails after *n* bytes, for
//! proving writer errors propagate as typed I/O errors — lives with the
//! writers it tests: `cn_trace::io::FailingWriter`.

use std::time::Duration;

/// Per-record / per-block callbacks a shard worker drives. Production
/// code uses [`NoFault`]; tests inject a [`ShardFault`] derived from a
/// [`FaultPlan`].
pub trait FaultHook: Send + 'static {
    /// Called once per generated record, *before* it is appended to the
    /// outgoing block. May panic — that is the point.
    fn on_record(&mut self);

    /// Called once per block, *before* it is shipped to the consumer.
    fn on_block(&mut self);
}

/// The production hook: does nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFault;

impl FaultHook for NoFault {
    #[inline(always)]
    fn on_record(&mut self) {}

    #[inline(always)]
    fn on_block(&mut self) {}
}

/// A deterministic set of faults to inject into a sharded run.
///
/// Built with the builder methods, handed to
/// [`crate::ShardedStream::with_shards_faulted`]; each worker receives
/// only its own shard's slice of the plan. An empty plan behaves exactly
/// like the unfaulted constructors (modulo monomorphization).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// `(shard, k)`: shard panics after producing exactly `k` records.
    panics: Vec<(usize, u64)>,
    /// `(shard, delay)`: shard sleeps `delay` before shipping each block.
    delays: Vec<(usize, Duration)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty() && self.delays.is_empty()
    }

    /// Panic `shard`'s worker after it has produced exactly `k` records
    /// (so `k == 0` panics before the first record). The panic payload
    /// names the shard and record, and surfaces verbatim in
    /// `StreamError::WorkerPanicked`.
    pub fn panic_shard_at(mut self, shard: usize, k: u64) -> FaultPlan {
        self.panics.push((shard, k));
        self
    }

    /// Make `shard`'s worker sleep `delay` before shipping each block —
    /// enough to keep it alive (or blocked on a full channel) while a
    /// test abandons or out-paces the stream.
    pub fn slow_shard(mut self, shard: usize, delay: Duration) -> FaultPlan {
        self.delays.push((shard, delay));
        self
    }

    /// The hook for one worker: this shard's faults, extracted from the
    /// plan.
    pub fn for_shard(&self, shard: usize) -> ShardFault {
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

/// One worker's live faults (see [`FaultPlan::for_shard`]).
#[derive(Debug, Clone)]
pub struct ShardFault {
    shard: usize,
    panic_at: Option<u64>,
    delay: Option<Duration>,
    produced: u64,
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
    fn no_fault_is_inert() {
        let mut hook = NoFault;
        for _ in 0..10 {
            hook.on_record();
            hook.on_block();
        }
    }
}
