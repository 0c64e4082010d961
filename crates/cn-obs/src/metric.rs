//! The three metric kinds and their lock-free cores.
//!
//! Handles are cheap clones of an `Arc`'d core (or of nothing — the
//! no-op form a disabled [`crate::Registry`] hands out). All updates use
//! relaxed atomics: metrics are monotone accumulators read at snapshot
//! time, not synchronization primitives.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Number of log₂ histogram buckets: bucket 0 holds the value `0`,
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, and bucket 64 tops
/// out at `u64::MAX` — every `u64` has a bucket, nothing wraps.
pub(crate) const BUCKETS: usize = 65;

/// Bucket index of a value: `0` for `0`, otherwise its bit length
/// (`64 - leading_zeros`). Total, branch-free, and overflow-safe:
/// `u64::MAX` maps to bucket 64.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    64 - value.leading_zeros() as usize
}

/// Inclusive upper bound of a bucket: `2^i - 1` for `i < 64`, saturating
/// to `u64::MAX` for the last bucket (where `2^64 - 1` *is* the bound —
/// computed without ever forming `2^64`).
#[inline]
pub(crate) fn bucket_upper_bound(index: usize) -> u64 {
    debug_assert!(index < BUCKETS);
    if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// Saturating atomic add: metric accumulators must degrade to a pinned
/// ceiling, never wrap back to small (and plausible-looking) values.
#[inline]
fn saturating_add(cell: &AtomicU64, v: u64) {
    if v == 0 {
        return;
    }
    // fetch_update never returns Err when the closure is total.
    let _ = cell.fetch_update(Relaxed, Relaxed, |cur| Some(cur.saturating_add(v)));
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
pub(crate) struct CounterCore {
    pub(crate) value: AtomicU64,
}

/// A monotone event counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    pub(crate) core: Option<Arc<CounterCore>>,
}

impl Counter {
    /// A counter that ignores every update — what a disabled registry
    /// hands out.
    pub fn noop() -> Counter {
        Counter { core: None }
    }

    /// False for the no-op form; hot paths may skip ancillary work
    /// (e.g. reading the clock) when their metrics are disabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (saturating at `u64::MAX`).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(core) = &self.core {
            saturating_add(&core.value, n);
        }
    }

    /// Current value (0 for the no-op form).
    pub fn get(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.value.load(Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
pub(crate) struct GaugeCore {
    pub(crate) value: AtomicU64,
}

/// A settable level (queue depth, live workers, a 0/1 mode flag).
/// Decrements saturate at zero: a release crossing with a not-yet-seen
/// acquire must read as "empty", not as 2⁶⁴ − 1 in-flight items.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    pub(crate) core: Option<Arc<GaugeCore>>,
}

impl Gauge {
    /// A gauge that ignores every update.
    #[cfg(test)]
    fn noop() -> Gauge {
        Gauge { core: None }
    }

    /// Set the level outright.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(core) = &self.core {
            core.value.store(v, Relaxed);
        }
    }

    /// Raise by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Raise by `n` (saturating at `u64::MAX`).
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        if let Some(core) = &self.core {
            saturating_add(&core.value, n);
        }
    }

    /// Lower by one, saturating at zero.
    #[inline]
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Lower by `n`, saturating at zero.
    #[inline]
    pub(crate) fn sub(&self, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(core) = &self.core {
            let _ = core
                .value
                .fetch_update(Relaxed, Relaxed, |cur| Some(cur.saturating_sub(n)));
        }
    }

    /// Raise the level to `v` if it is higher than the current value — a
    /// high-watermark gauge (peak queue backlog, worst-case depth). Safe
    /// under concurrent writers: the stored value only ever grows.
    #[inline]
    pub fn record_max(&self, v: u64) {
        if let Some(core) = &self.core {
            core.value.fetch_max(v, Relaxed);
        }
    }

    /// Current level (0 for the no-op form).
    pub fn get(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.value.load(Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) struct HistogramCore {
    pub(crate) buckets: [AtomicU64; BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log₂ histogram over `u64` values. `record` is
/// allocation-free (three relaxed atomic adds); the bucket layout is
/// identical in every histogram, so per-shard histograms merge by plain
/// bucket-wise addition ([`HistogramSnapshot::merge`]).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    pub(crate) core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// A histogram that ignores every update.
    pub fn noop() -> Histogram {
        Histogram { core: None }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.core {
            core.buckets[bucket_index(value)].fetch_add(1, Relaxed);
            core.count.fetch_add(1, Relaxed);
            saturating_add(&core.sum, value);
        }
    }

    /// Fold a pre-aggregated snapshot in — how a worker's thread-local
    /// histogram lands in the shared registry without per-record atomics.
    pub fn merge_snapshot(&self, snap: &HistogramSnapshot) {
        if let Some(core) = &self.core {
            for (cell, &n) in core.buckets.iter().zip(&snap.buckets) {
                saturating_add(cell, n);
            }
            saturating_add(&core.count, snap.count);
            saturating_add(&core.sum, snap.sum);
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.count.load(Relaxed))
    }

    /// Sum of recorded values (saturating).
    #[cfg(test)]
    fn sum(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.sum.load(Relaxed))
    }

    /// Freeze into a plain (mergeable, serializable) snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.core {
            None => HistogramSnapshot::new(),
            Some(core) => HistogramSnapshot {
                count: core.count.load(Relaxed),
                sum: core.sum.load(Relaxed),
                buckets: core.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            },
        }
    }
}

/// A frozen histogram: plain counts, mergeable and serializable.
///
/// `merge` is associative, commutative, and count-preserving (saturating
/// addition is associative over `u64`), so any shard split of a record
/// stream folds back to the same aggregate — the property
/// `tests/properties.rs` pins.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub(crate) sum: u64,
    /// Per-bucket counts, `BUCKETS` entries (see `bucket_index`).
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::new()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn new() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Record one observation (the non-atomic twin of
    /// [`Histogram::record`], for thread-local accumulation).
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] = self.buckets[bucket_index(value)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }

    /// Fold `other` in: bucket-wise saturating addition.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        // A foreign snapshot may carry fewer buckets (never more — the
        // layout is fixed); missing trailing buckets merge as zero.
        for (mine, &theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.saturating_add(theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// True when nothing was recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value, `None` when empty.
    #[cfg(test)]
    fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0 ≤ q ≤ 1`), `None` when empty. A log₂ histogram answers
    /// "p99 ≤ 2ᵏ", which is the right precision for stage telemetry.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= rank {
                return Some(bucket_upper_bound(i));
            }
        }
        Some(u64::MAX)
    }

    /// Point estimate of the `q`-quantile (`0 ≤ q ≤ 1`), `None` when
    /// empty.
    ///
    /// [`Self::quantile_upper_bound`] answers with the whole bucket's
    /// ceiling, overstating by up to 2× for values near a bucket's
    /// floor. This estimator interpolates *inside* the bucket on the
    /// log scale (the scale the buckets are uniform on): the quantile's
    /// fractional rank within bucket `i ≥ 1` maps geometrically across
    /// `[2^(i-1), 2^i)`. The estimate always lies within the bucket
    /// bounds that contain the true order statistic, so
    /// `floor ≤ est ≤ quantile_upper_bound`.
    pub fn quantile_est(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut before = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            let cumulative = before.saturating_add(n);
            if cumulative >= rank && n > 0 {
                if i == 0 {
                    return Some(0.0); // bucket 0 holds exactly the value 0
                }
                let lo = (1u64 << (i - 1)) as f64; // bucket floor, 2^(i-1)
                let hi = bucket_upper_bound(i) as f64;
                // Fractional position of the rank inside this bucket,
                // mid-point convention so a single observation estimates
                // the bucket's geometric middle rather than either edge.
                let frac = ((rank - before) as f64 - 0.5) / n as f64;
                return Some((lo * frac.exp2()).clamp(lo, hi));
            }
            before = cumulative;
        }
        Some(bucket_upper_bound(BUCKETS - 1) as f64)
    }

    /// The per-window delta `self − prev`: bucket-wise saturating
    /// subtraction, for turning two cumulative snapshots into the
    /// distribution of observations recorded *between* them. With
    /// `prev` an earlier snapshot of the same histogram the result is
    /// exact (cumulative buckets are monotone); saturation only engages
    /// on mismatched inputs and degrades to zeros instead of wrapping.
    pub(crate) fn delta_since(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::new();
        for (i, slot) in out.buckets.iter_mut().enumerate() {
            let cur = self.buckets.get(i).copied().unwrap_or(0);
            let old = prev.buckets.get(i).copied().unwrap_or(0);
            *slot = cur.saturating_sub(old);
        }
        out.count = self.count.saturating_sub(prev.count);
        out.sum = self.sum.saturating_sub(prev.sum);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_whole_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index((1 << 20) - 1), 20);
        assert_eq!(bucket_index(1 << 20), 21);
        assert_eq!(bucket_index(1 << 63), 64);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert!(bucket_index(u64::MAX) < BUCKETS, "MAX must not overflow");
    }

    #[test]
    fn bucket_bounds_are_inclusive_and_overflow_safe() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(63), (1u64 << 63) - 1);
        // The last bucket's bound is u64::MAX itself — 2^64 is never formed.
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value is ≤ its own bucket's bound and > the previous one's.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX - 1, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} above its bucket bound");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "{v} below its bucket");
            }
        }
    }

    #[test]
    fn histogram_swallows_u64_max_without_wrapping() {
        let h = crate::Registry::new().histogram("cn_test_extreme");
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, u64::MAX, "sum saturates, never wraps");
        assert_eq!(snap.buckets[64], 2);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.quantile_upper_bound(1.0), Some(u64::MAX));
    }

    #[test]
    fn gauge_decrement_below_zero_saturates() {
        let g = crate::Registry::new().gauge("cn_test_gauge");
        g.inc();
        g.sub(100);
        assert_eq!(g.get(), 0, "gauge must floor at zero, not wrap");
        g.dec();
        assert_eq!(g.get(), 0);
        g.set(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.add(u64::MAX);
        assert_eq!(g.get(), u64::MAX, "gauge increments saturate at the top");
    }

    #[test]
    fn gauge_record_max_is_a_high_watermark() {
        let g = crate::Registry::new().gauge("cn_test_watermark");
        g.record_max(7);
        assert_eq!(g.get(), 7);
        g.record_max(3);
        assert_eq!(g.get(), 7, "a lower sample must not regress the peak");
        g.record_max(9);
        assert_eq!(g.get(), 9);
        // The no-op form stays inert.
        let noop = Gauge::noop();
        noop.record_max(42);
        assert_eq!(noop.get(), 0);
    }

    #[test]
    fn counter_saturates_at_the_ceiling() {
        let c = crate::Registry::new().counter("cn_test_counter_total");
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn noop_handles_ignore_everything() {
        let c = Counter::noop();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        assert!(!c.is_enabled());
        let g = Gauge::noop();
        g.set(7);
        g.inc();
        assert_eq!(g.get(), 0);
        let h = Histogram::noop();
        h.record(42);
        assert_eq!(h.count(), 0);
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn snapshot_quantiles_bound_the_data() {
        let mut s = HistogramSnapshot::new();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            s.record(v);
        }
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1110);
        let p50 = s.quantile_upper_bound(0.5).unwrap();
        assert!((3..=3).contains(&p50), "p50 bound {p50}");
        let p100 = s.quantile_upper_bound(1.0).unwrap();
        assert!(p100 >= 1000, "max bound {p100}");
        assert!((s.mean().unwrap() - 185.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_est_pins_known_distributions() {
        // Uniform over one bucket: 1024 values filling [512, 1024)
        // (bucket 10). The estimator must spread estimates across the
        // bucket instead of answering 1023 for every quantile.
        let mut s = HistogramSnapshot::new();
        for v in 512u64..1024 {
            s.record(v);
            s.record(v);
        }
        let p01 = s.quantile_est(0.01).unwrap();
        let p50 = s.quantile_est(0.50).unwrap();
        let p99 = s.quantile_est(0.99).unwrap();
        assert!(p01 < p50 && p50 < p99, "{p01} {p50} {p99}");
        assert!((512.0..600.0).contains(&p01), "p01 near the floor: {p01}");
        // Geometric mid of [512, 1024) is 512·√2 ≈ 724.
        assert!((650.0..800.0).contains(&p50), "p50 near geo-mid: {p50}");
        assert!((950.0..=1023.0).contains(&p99), "p99 near the top: {p99}");
        // The coarse bound answers 1023 for all three.
        assert_eq!(s.quantile_upper_bound(0.5), Some(1023));

        // Two-point distribution: 99 ones and one value of 1000 —
        // p50 must sit on the low mode, p100 inside 1000's bucket.
        let mut s = HistogramSnapshot::new();
        for _ in 0..99 {
            s.record(1);
        }
        s.record(1000);
        assert_eq!(s.quantile_est(0.5), Some(1.0));
        let p100 = s.quantile_est(1.0).unwrap();
        assert!((512.0..=1023.0).contains(&p100), "p100 {p100}");

        // All zeros → exactly 0; empty → None.
        let mut z = HistogramSnapshot::new();
        z.record(0);
        assert_eq!(z.quantile_est(0.99), Some(0.0));
        assert_eq!(HistogramSnapshot::new().quantile_est(0.5), None);

        // The estimate never exceeds the coarse upper bound and never
        // undershoots the containing bucket's floor.
        let mut s = HistogramSnapshot::new();
        for v in [1u64, 3, 7, 9, 100, 5000, 70_000] {
            s.record(v);
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let est = s.quantile_est(q).unwrap();
            let ub = s.quantile_upper_bound(q).unwrap() as f64;
            assert!(est <= ub, "q={q}: est {est} above bound {ub}");
            assert!(est >= 0.0 && est.is_finite());
        }
    }

    #[test]
    fn delta_since_recovers_the_window() {
        let mut early = HistogramSnapshot::new();
        for v in [1u64, 8, 8, 300] {
            early.record(v);
        }
        let mut late = early.clone();
        for v in [2u64, 8, 4000] {
            late.record(v);
        }
        let window = late.delta_since(&early);
        assert_eq!(window.count, 3);
        assert_eq!(window.sum, 2 + 8 + 4000);
        let mut expect = HistogramSnapshot::new();
        for v in [2u64, 8, 4000] {
            expect.record(v);
        }
        assert_eq!(window, expect, "delta must be the in-between records");
        // Self-delta is empty; mismatched inputs saturate to zero.
        assert!(late.delta_since(&late).is_empty());
        assert!(early.delta_since(&late).is_empty());
    }

    #[test]
    fn merge_snapshot_folds_into_a_live_histogram() {
        let registry = crate::Registry::new();
        let h = registry.histogram("cn_test_merge");
        h.record(8);
        let mut local = HistogramSnapshot::new();
        local.record(8);
        local.record(9);
        h.merge_snapshot(&local);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 25);
        assert_eq!(h.snapshot().buckets[bucket_index(8)], 3);
    }
}
