//! Open-loop pacing against absolute deadlines, one quantum at a time.
//!
//! Each record's wall deadline is computed from the stream origin:
//!
//! ```text
//! deadline_ns = origin_wall_ns + (t_ms − origin_trace_ms) · 1e6 / compression
//! ```
//!
//! The pacer sleeps until an *absolute* monotonic deadline — never
//! "sleep for the inter-record delta". The difference matters under
//! load: with relative sleeps every stall (slow source pull, consumer
//! back-pressure, scheduler hiccup) shifts the rest of the stream
//! permanently, and the error accumulates for the whole run. With
//! absolute deadlines a stall produces transient lag on the records
//! whose deadlines passed during it, and the very next record whose
//! deadline is still in the future is emitted exactly on time again.
//! Lag is therefore a *measurement*, not a debt — it is recorded per
//! record into the `cn_live_lag_ms` histogram and decays to zero as soon
//! as the server catches up.
//!
//! ### The quantum law
//!
//! A sleep costs the same wake chain (timer, futex, socket write,
//! consumer wake) whether it paces one record or a thousand, so the
//! serve loop does not sleep per record. It gathers a **block**: every
//! record whose deadline lies less than [`PACE_QUANTUM_NS`] after the
//! block's first, sleeps **once**, until the *last* deadline in the
//! block, and emits the block whole. Two bounds follow, for a record
//! with deadline `d` in a block spanning `[first, last]`:
//!
//! * it is emitted at `last ≥ d` — **never early**;
//! * it is emitted `last − d < PACE_QUANTUM_NS` after its deadline —
//!   the **added lag is under one quantum**, on top of whatever
//!   overshoot the sleep itself has. Records at least a quantum apart
//!   are blocks of one and are paced exactly as [`Pacer::pace`] would.
//!
//! The quantum is the trade between CPU per event and emission lag; it
//! is a crate constant rather than a [`LiveConfig`](crate::LiveConfig)
//! field because 500 µs sits below `cn_live_lag_ms`'s 1 ms resolution
//! and below the 1 ms grain of the trace timestamps themselves at 1×
//! (at 3600× it is ≤ 1.8 s of trace time). The bound assumes the source
//! is pulled faster than it is paced (true of every generation engine):
//! a block is not emitted until the pull that closes it returns.

use cn_obs::{Histogram, TraceSink};

use crate::clock::Clock;

/// The pacing quantum: deadlines closer than this to a block's first
/// are coalesced into that block's single sleep (see the module docs for
/// the never-early / under-one-quantum-late law).
pub const PACE_QUANTUM_NS: u64 = 500_000;

/// Sleeps projected to last at least this long get a trace span; the
/// threshold keeps sleep-vs-emit visible in Perfetto without producing
/// one event per record at high compression (where inter-record sleeps
/// are sub-microsecond and mostly elided by the deadline math anyway).
const TRACE_SLEEP_MIN_NS: u64 = 100_000;

/// Absolute-deadline scheduler for one serve run.
pub struct Pacer<'c> {
    clock: &'c dyn Clock,
    /// Wall nanoseconds per trace millisecond (`1e6 / compression`).
    ns_per_trace_ms: f64,
    origin_trace_ms: u64,
    origin_wall_ns: u64,
    lag_ms: Histogram,
    /// Resolved once at construction (never per record): the global
    /// trace sink, for `cn_live_pacer_sleep` spans on long sleeps.
    trace: TraceSink,
}

impl<'c> Pacer<'c> {
    /// Anchor the schedule: trace time `origin_trace_ms` corresponds to
    /// wall "now". `compression` must be finite and positive (validated
    /// by the server config before any pacer exists).
    pub fn new(
        clock: &'c dyn Clock,
        compression: f64,
        origin_trace_ms: u64,
        lag_ms: Histogram,
    ) -> Pacer<'c> {
        debug_assert!(
            compression.is_finite() && compression > 0.0,
            "unvalidated compression factor {compression}"
        );
        Pacer {
            ns_per_trace_ms: 1.0e6 / compression,
            origin_trace_ms,
            origin_wall_ns: clock.now_ns(),
            clock,
            lag_ms,
            trace: cn_obs::trace::global(),
        }
    }

    /// The absolute wall deadline for trace time `t_ms`.
    pub(crate) fn deadline_ns(&self, t_ms: u64) -> u64 {
        let dt_ms = t_ms.saturating_sub(self.origin_trace_ms);
        let dt_ns = (dt_ms as f64 * self.ns_per_trace_ms) as u64;
        self.origin_wall_ns.saturating_add(dt_ns)
    }

    /// Block until `t_ms`'s deadline, then return the transient lag in
    /// nanoseconds (0 when the deadline was met). The lag is also
    /// recorded, in milliseconds, into the `cn_live_lag_ms` histogram.
    pub fn pace(&self, t_ms: u64) -> u64 {
        let deadline = self.deadline_ns(t_ms);
        let now = self.sleep_until(deadline);
        self.record_lag(now, deadline)
    }

    /// Block until `deadline_ns` — for a quantum block, the *last*
    /// deadline in it — and return the clock's reading after the sleep.
    pub(crate) fn sleep_until(&self, deadline_ns: u64) -> u64 {
        if self.trace.is_enabled()
            && deadline_ns.saturating_sub(self.clock.now_ns()) >= TRACE_SLEEP_MIN_NS
        {
            let _sleep = self.trace.span("cn_live_pacer_sleep");
            self.clock.sleep_until(deadline_ns);
        } else {
            self.clock.sleep_until(deadline_ns);
        }
        self.clock.now_ns()
    }

    /// Record one record's lag at `now_ns` behind its own `deadline_ns`
    /// into `cn_live_lag_ms` and return it in nanoseconds. A block's
    /// records all take the one `now_ns` its single sleep returned.
    pub(crate) fn record_lag(&self, now_ns: u64, deadline_ns: u64) -> u64 {
        let lag_ns = now_ns.saturating_sub(deadline_ns);
        self.lag_ms.record(lag_ns / 1_000_000);
        lag_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn deadlines_scale_with_compression() {
        let clock = ManualClock::new();
        clock.advance(500); // non-zero wall origin
        for (compression, t_ms, want_offset_ns) in [
            (1.0, 1_000u64, 1_000_000_000u64),
            (60.0, 60_000, 1_000_000_000),
            (3600.0, 3_600_000, 1_000_000_000),
            (2.0, 10, 5_000_000),
        ] {
            let pacer = Pacer::new(&clock, compression, 0, Histogram::noop());
            assert_eq!(pacer.deadline_ns(t_ms), 500 + want_offset_ns);
        }
    }

    #[test]
    fn lag_is_transient_not_accumulated() {
        let clock = ManualClock::new();
        let pacer = Pacer::new(&clock, 1.0, 0, Histogram::noop());
        assert_eq!(pacer.pace(1_000), 0);
        // A 5 s stall: the t=2s and t=4s deadlines pass during it.
        clock.advance(5_000_000_000);
        assert_eq!(pacer.pace(2_000), 4_000_000_000);
        assert_eq!(pacer.pace(4_000), 2_000_000_000);
        // First record past the stall horizon is exactly on time again.
        assert_eq!(pacer.pace(7_000), 0);
        assert_eq!(clock.now_ns(), 7_000_000_000);
    }

    #[test]
    fn a_block_sleeps_once_and_takes_each_lag_from_that_one_reading() {
        let clock = ManualClock::new();
        let pacer = Pacer::new(&clock, 1.0, 0, Histogram::noop());
        // Deadlines at 1 s, 3 s, 4 s: one sleep to the last; the lags
        // behind the single reading are 3 s, 1 s, 0.
        let deadlines = [1_000, 3_000, 4_000].map(|t| pacer.deadline_ns(t));
        let now = pacer.sleep_until(deadlines[2]);
        assert_eq!(clock.sleeps(), vec![(0, 4_000_000_000)]);
        let lags = deadlines.map(|d| pacer.record_lag(now, d));
        assert_eq!(lags, [3_000_000_000, 1_000_000_000, 0]);
    }
}
