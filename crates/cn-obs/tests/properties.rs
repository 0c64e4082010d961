//! Property tests for the metric layer.
//!
//! The sharded generator merges per-worker telemetry into one registry,
//! so [`HistogramSnapshot::merge`] must be order-free: whatever way a
//! record stream is split across shards and whatever order the partial
//! histograms fold back together, the
//! aggregate is identical — merge is associative, commutative, and
//! count-preserving. Counters must likewise survive concurrent
//! increment from multiple worker threads without losing updates.

use cn_obs::{HistogramSnapshot, Registry};
use proptest::prelude::*;

/// Values spanning every bucket regime: small, mid-range, and the
/// extremes where boundary arithmetic could overflow.
fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            0u64..16,
            1u64..1_000_000,
            (u64::MAX - 1000)..=u64::MAX,
            Just(u64::MAX),
        ],
        0..300,
    )
}

fn record_all(values: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any shard split of a value stream, merged back in shard order,
    /// equals recording the whole stream into one histogram — and the
    /// total count is preserved exactly.
    #[test]
    fn merge_is_count_preserving_across_arbitrary_shard_splits(
        values in arb_values(),
        shards in 1usize..9,
    ) {
        // Stripe values over shards the way ShardedStream stripes UEs.
        let mut parts: Vec<HistogramSnapshot> =
            (0..shards).map(|_| HistogramSnapshot::new()).collect();
        for (i, &v) in values.iter().enumerate() {
            parts[i % shards].record(v);
        }
        let mut merged = HistogramSnapshot::new();
        for part in &parts {
            merged.merge(part);
        }
        let whole = record_all(&values);
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(merged.count, values.len() as u64);
    }

    /// Merge order is irrelevant: a ⊕ b == b ⊕ a.
    #[test]
    fn merge_is_commutative(a in arb_values(), b in arb_values()) {
        let (ha, hb) = (record_all(&a), record_all(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// Merge grouping is irrelevant: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn merge_is_associative(a in arb_values(), b in arb_values(), c in arb_values()) {
        let (ha, hb, hc) = (record_all(&a), record_all(&b), record_all(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Folding thread-local snapshots into a shared atomic histogram
    /// (the worker → registry path) matches recording directly.
    #[test]
    fn local_accumulation_matches_direct_recording(
        values in arb_values(),
        shards in 1usize..5,
    ) {
        let registry = Registry::new();
        let shared = registry.histogram("cn_test_fold");
        let mut parts: Vec<HistogramSnapshot> =
            (0..shards).map(|_| HistogramSnapshot::new()).collect();
        for (i, &v) in values.iter().enumerate() {
            parts[i % shards].record(v);
        }
        for part in &parts {
            shared.merge_snapshot(part);
        }
        prop_assert_eq!(shared.snapshot(), record_all(&values));
    }
}

/// `threads` workers hammer one shared counter (and one gauge, and one
/// histogram) concurrently; no update may be lost.
fn concurrent_updates(threads: usize) {
    const PER_THREAD: u64 = 20_000;
    let registry = Registry::new();
    let counter = registry.counter("cn_test_concurrent_total");
    let gauge = registry.gauge("cn_test_concurrent_gauge");
    let hist = registry.histogram("cn_test_concurrent_hist");
    std::thread::scope(|scope| {
        for t in 0..threads {
            let counter = counter.clone();
            let gauge = gauge.clone();
            let hist = hist.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.record(t as u64 * PER_THREAD + i);
                    gauge.inc();
                    gauge.dec();
                }
            });
        }
    });
    let expected = threads as u64 * PER_THREAD;
    assert_eq!(counter.get(), expected, "lost counter increments");
    assert_eq!(hist.count(), expected, "lost histogram records");
    assert_eq!(gauge.get(), 0, "balanced inc/dec must return to zero");
    let snap = registry.snapshot();
    assert_eq!(
        snap.histogram("cn_test_concurrent_hist")
            .unwrap()
            .buckets
            .iter()
            .sum::<u64>(),
        expected,
        "bucket totals must equal the record count"
    );
}

#[test]
fn concurrent_counters_one_thread() {
    concurrent_updates(1);
}

#[test]
fn concurrent_counters_four_threads() {
    concurrent_updates(4);
}
