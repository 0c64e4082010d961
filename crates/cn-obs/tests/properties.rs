//! Property tests for the metric layer.
//!
//! The sharded generator merges per-worker telemetry into one registry,
//! so [`HistogramSnapshot::merge`] must be order-free: whatever way a
//! record stream is split across shards and whatever order the partial
//! histograms fold back together, the
//! aggregate is identical — merge is associative, commutative, and
//! count-preserving. Counters must likewise survive concurrent
//! increment from multiple worker threads without losing updates.
//!
//! The text parsers — [`PromText::parse`] and the recorder's
//! `validate_jsonl` / `validate_forensics` — read files a crashed or
//! hostile process may have written, so they must answer any input with
//! `Ok` or an error: never a panic, a hang, or an allocation sized by a
//! count the input spells out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use cn_obs::recorder::{validate_forensics, validate_jsonl};
use cn_obs::{FlightRecorder, HistogramSnapshot, PromText, RecorderConfig, Registry};
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

/// Tracks the largest single allocation the current thread requests
/// while a [`largest_alloc_during`] section is open.
struct PeakAlloc;

thread_local! {
    /// `Some(peak)` while a measured section is open on this thread.
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

// SAFETY: defers to `System` for every operation; the bookkeeping is a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

fn note(size: usize) {
    PEAK.with(|peak| {
        if let Some(so_far) = peak.get() {
            peak.set(Some(so_far.max(size)));
        }
    });
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

fn largest_alloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(Some(0)));
    let out = f();
    let peak = PEAK.with(|peak| peak.take()).unwrap_or(0);
    (out, peak)
}

/// Valid inputs of all three parsers, from one registry with a counter,
/// a labeled gauge whose label value needs escaping, and a histogram:
/// its Prometheus text, a two-frame recorder JSONL and a forensics dump.
fn valid_inputs() -> (String, String, String) {
    let registry = Registry::new();
    let events = registry.counter("cn_test_events_total");
    registry
        .gauge_with("cn_test_depth", &[("queue", "a \"b\"\\c\nd")])
        .set(7);
    let lag = registry.histogram("cn_test_lag_ms");
    let cfg = RecorderConfig {
        // The tests take every frame by hand.
        interval: Duration::from_secs(3600),
        ring_frames: 4,
        ..RecorderConfig::default()
    };
    let recorder = FlightRecorder::start(&registry, cfg).unwrap();
    let mut jsonl = String::new();
    for i in 1..=2 {
        events.add(10 * i);
        lag.record(100 * i);
        // Frames need strictly increasing milliseconds.
        std::thread::sleep(Duration::from_millis(2));
        jsonl += &serde_json::to_string(&recorder.sample_now()).unwrap();
        jsonl.push('\n');
    }
    // One path per call: tests on parallel threads each dump and delete
    // their own file.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let name = format!("cn_obs_props_{}_{call}.json", std::process::id());
    let path = std::env::temp_dir().join(name);
    recorder.dump_forensics(&path).unwrap();
    recorder.stop();
    let forensics = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    (registry.snapshot().prometheus(), jsonl, forensics)
}

/// Arbitrary bytes, or one of the valid inputs with one byte replaced.
fn hostile_text() -> impl Strategy<Value = Vec<u8>> {
    let (prom, jsonl, forensics) = valid_inputs();
    let mutated = |valid: String| {
        let valid = valid.into_bytes();
        (0..valid.len(), any::<u8>()).prop_map(move |(at, byte)| {
            let mut bytes = valid.clone();
            bytes[at] = byte;
            bytes
        })
    };
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..400),
        mutated(prom),
        mutated(jsonl),
        mutated(forensics),
    ]
}

#[test]
fn valid_inputs_parse() {
    let (prom, jsonl, forensics) = valid_inputs();
    let scrape = PromText::parse(&prom).unwrap();
    assert_eq!(scrape.counter("cn_test_events_total"), Some(30));
    assert_eq!(validate_jsonl(&jsonl), Ok(2));
    assert_eq!(validate_forensics(&forensics), Ok(3));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every parser answers hostile text with `Ok` or an error — never a
    /// panic — and asks the allocator for no more than a small multiple
    /// of the input's size.
    #[test]
    fn parsers_survive_hostile_text(bytes in hostile_text()) {
        let text = String::from_utf8_lossy(&bytes);
        let budget = 64 * bytes.len() + 4096;
        let ((), peak) = largest_alloc_during(|| {
            let _ = PromText::parse(&text);
            let _ = validate_jsonl(&text);
            let _ = validate_forensics(&text);
        });
        prop_assert!(peak <= budget, "{} byte input, {peak} byte allocation", bytes.len());
    }
}
