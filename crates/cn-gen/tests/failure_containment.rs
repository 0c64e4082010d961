//! Tier-1 failure-containment suite: every injected generator fault must
//! surface as a typed [`StreamError`] — **never** as a silently truncated
//! trace — while the no-fault path stays byte-identical to the sequential
//! stream.
//!
//! Faults are injected deterministically via [`cn_gen::FaultPlan`]
//! (`panic chunk s at record k`, `slow chunk`) through
//! [`ShardedStream::with_shards_faulted`]. A fault is keyed by the chunk
//! of UE slots, whichever thread fills it: a population of `n` UEs on `t`
//! threads is cut into chunks of `min(256, ⌈n / t⌉)` consecutive UEs, and
//! the stream's first slab is filled by the calling thread before any
//! helper starts. The corrupt-sink leg of the
//! harness (`cn_trace::io::FailingWriter`) is exercised in `cn-trace`.
//! See TESTING.md § "Reading a failed run" for how the worker-exit
//! telemetry these tests assert on is meant to be used.

use cn_fit::{fit, FitConfig, Method, ModelSet};
use cn_gen::{FaultPlan, GenConfig, PopulationStream, ShardedStream, WorkerOutcome};
use cn_obs::Registry;
use cn_trace::{PopulationMix, RecordSource, StreamError, Timestamp, TraceRecord};
use cn_world::{generate_world, WorldConfig};
use std::time::Duration;

fn fitted() -> ModelSet {
    let trace = generate_world(&WorldConfig::new(PopulationMix::new(24, 10, 6), 2.0, 5));
    fit(&trace, &FitConfig::new(Method::Ours))
}

/// A workload whose chunks each produce thousands of records over many
/// slabs, so mid-stream faults land *after* data has flowed.
fn big_config() -> GenConfig {
    GenConfig::new(
        PopulationMix::new(240, 100, 60),
        Timestamp::at_hour(0, 9),
        3.0,
        2023,
    )
}

/// A small workload for spawn-time faults and byte-identity checks.
fn small_config() -> GenConfig {
    GenConfig::new(
        PopulationMix::new(18, 8, 5),
        Timestamp::at_hour(0, 9),
        2.0,
        7,
    )
}

fn sequential(models: &ModelSet, config: &GenConfig) -> Vec<TraceRecord> {
    PopulationStream::new(models, config).collect()
}

/// Drain a stream through the fallible API, returning the records pulled
/// before the terminal result.
fn drain(stream: &mut ShardedStream<'_>) -> (Vec<TraceRecord>, Result<(), StreamError>) {
    let mut records = Vec::new();
    loop {
        match stream.try_next() {
            Ok(Some(rec)) => records.push(rec),
            Ok(None) => return (records, Ok(())),
            Err(e) => return (records, Err(e)),
        }
    }
}

#[test]
fn mid_stream_panic_becomes_typed_error_never_a_short_trace() {
    let models = fitted();
    let config = big_config();
    let expected = sequential(&models, &config);
    // Two threads cut the 400 UEs into two chunks of 200. Chunk 1 must
    // reach its 5 000th record slabs into the run, so the fault fires
    // after the consumer has already drained whole slabs.
    assert!(
        expected.len() > 2 * 6000,
        "workload too small to place a post-block fault (got {} events)",
        expected.len()
    );
    let plan = FaultPlan::new().panic_shard_at(1, 5000);
    let mut stream =
        ShardedStream::with_shards_faulted(&models, &config, 2, &Registry::disabled(), &plan);
    let (prefix, result) = drain(&mut stream);
    let err = result.expect_err("an injected panic must surface as a StreamError");
    let StreamError::WorkerPanicked { shard, payload } = &err else {
        panic!("expected WorkerPanicked, got {err}");
    };
    assert_eq!(*shard, 1, "the error names the faulted chunk");
    assert!(
        payload.contains("injected fault"),
        "payload kept: {payload}"
    );
    // Some records flowed (the fault was genuinely mid-stream), the
    // stream did NOT pose as complete, and everything emitted before the
    // failure is a verbatim prefix of the true sequence.
    assert!(!prefix.is_empty(), "fault should land after data flowed");
    assert!(prefix.len() < expected.len());
    assert_eq!(prefix[..], expected[..prefix.len()]);
    // Poisoned: the error repeats, and finish refuses to report success.
    assert_eq!(stream.try_next(), Err(err.clone()));
    assert_eq!(stream.finish(), Err(err));
}

#[test]
fn spawn_time_panic_poisons_before_any_record() {
    let models = fitted();
    let config = small_config();
    for shard in 0..3 {
        let plan = FaultPlan::new().panic_shard_at(shard, 0);
        let mut stream =
            ShardedStream::with_shards_faulted(&models, &config, 3, &Registry::disabled(), &plan);
        let (prefix, result) = drain(&mut stream);
        assert!(
            prefix.is_empty(),
            "no record may precede a spawn-time fault"
        );
        let err = result.expect_err("spawn-time panic must be typed");
        let StreamError::WorkerPanicked { shard: s, .. } = &err else {
            panic!("expected WorkerPanicked, got {err}");
        };
        assert_eq!(*s, shard);
    }
}

#[test]
fn panic_in_an_unneeded_shard_still_fails_finish() {
    // The consumer pulls nothing, so it never reaches the fault —
    // finish() must still refuse to report success: chunk 2's first fill
    // panicked at construction, before the stream could be cancelled.
    let models = fitted();
    let config = small_config();
    let plan = FaultPlan::new().panic_shard_at(2, 0);
    let stream =
        ShardedStream::with_shards_faulted(&models, &config, 3, &Registry::disabled(), &plan);
    // Pull nothing; just wind down.
    let err = stream
        .finish()
        .expect_err("a panicked worker is an error even if its records were never pulled");
    let StreamError::WorkerPanicked { shard, .. } = &err else {
        panic!("expected WorkerPanicked, got {err}");
    };
    assert_eq!(*shard, 2);
}

#[test]
fn drain_returns_the_typed_error_instead_of_ending_cleanly() {
    // Whole-stream consumption goes through `RecordSource::drain`; there
    // is no infallible view that could end early and look complete.
    let models = fitted();
    let config = big_config();
    let expected = sequential(&models, &config);
    let plan = FaultPlan::new().panic_shard_at(0, 5000);
    let stream =
        ShardedStream::with_shards_faulted(&models, &config, 2, &Registry::disabled(), &plan);
    let mut collected: Vec<TraceRecord> = Vec::new();
    let err = stream
        .drain(|r| {
            collected.push(r);
            Ok::<(), StreamError>(())
        })
        .expect_err("a faulted stream must not drain cleanly");
    assert!(collected.len() < expected.len());
    assert_eq!(collected[..], expected[..collected.len()]);
    let StreamError::WorkerPanicked { shard, .. } = err else {
        panic!("expected WorkerPanicked, got {err}");
    };
    assert_eq!(shard, 0);
}

#[test]
fn no_fault_plan_is_byte_identical_to_sequential() {
    let models = fitted();
    let config = small_config();
    let expected = sequential(&models, &config);
    for shards in [2usize, 3, 8] {
        let mut stream = ShardedStream::with_shards_faulted(
            &models,
            &config,
            shards,
            &Registry::disabled(),
            &FaultPlan::new(),
        );
        let (records, result) = drain(&mut stream);
        result.expect("no fault injected");
        assert_eq!(records, expected, "{shards} shards diverged");
        let stats = stream.finish().expect("clean run");
        assert_eq!(stats.events, expected.len() as u64);
        assert!(stats
            .outcomes
            .iter()
            .all(|o| matches!(o, WorkerOutcome::Completed { .. })));
    }
}

#[test]
fn slow_shard_delays_but_never_corrupts_or_fails() {
    let models = fitted();
    let config = small_config();
    let expected = sequential(&models, &config);
    let plan = FaultPlan::new().slow_shard(0, Duration::from_millis(2));
    let mut stream =
        ShardedStream::with_shards_faulted(&models, &config, 3, &Registry::disabled(), &plan);
    let (records, result) = drain(&mut stream);
    result.expect("slowness is not a failure");
    assert_eq!(records, expected);
    let stats = stream.finish().expect("clean run");
    assert_eq!(stats.events, expected.len() as u64);
}

#[test]
fn abandoned_stream_with_blocked_worker_is_cancelled_not_panicked() {
    // Drop under an abandoned mid-run stream whose helper is parked
    // waiting for the next slab — must not deadlock, and the recorded
    // outcome of both threads must be `Cancelled`, not `Panicked`.
    let models = fitted();
    // A deliberately oversized workload: the stream must hold far more
    // records than it ever buffers.
    let config = GenConfig::new(
        PopulationMix::new(480, 200, 120),
        Timestamp::at_hour(0, 9),
        24.0,
        2023,
    );
    let total = sequential(&models, &config).len();
    // At most one slab is in flight beyond the one being drained, each
    // steered towards 32 768 records (overshooting only by the event
    // rate's jump from one slab to the next), and the first slabs are far
    // narrower. With the stream several times two slabs, generation is
    // mid-run when we abandon; were it not, it would complete and the
    // outcome check would fail.
    let buffered = 2 * 32_768;
    assert!(
        total > 2 * buffered,
        "workload too small to guarantee a mid-run stream (got {total} events)"
    );
    let registry = Registry::new();
    let mut stream = ShardedStream::with_shards_observed(&models, &config, 2, &registry);
    for _ in 0..10 {
        let head = stream.try_next().expect("no fault injected");
        assert!(head.is_some(), "workload starts with records");
    }
    drop(stream); // must return promptly: the stop wakes the parked helper
    let snap = registry.snapshot();
    let outcome = |o: &str| {
        snap.get("cn_gen_worker_exit", &[("outcome", o)])
            .map(|m| match m.value {
                cn_obs::MetricValue::Counter { value } => value,
                _ => panic!("worker exit must be a counter"),
            })
    };
    assert_eq!(outcome("cancelled"), Some(2), "both threads were cancelled");
    assert_eq!(outcome("panicked"), None, "cancellation is not a panic");
    assert_eq!(outcome("completed"), None);
    assert_eq!(snap.counter_total("cn_gen_shard_panics_total"), None);
}

#[test]
fn panicked_run_records_failure_telemetry() {
    // The obs ledger cannot balance after a fault — instead it must say
    // *why*: one panicked exit, the panicking chunk named.
    let models = fitted();
    let config = big_config();
    let plan = FaultPlan::new().panic_shard_at(1, 5000);
    let registry = Registry::new();
    let mut stream = ShardedStream::with_shards_faulted(&models, &config, 2, &registry, &plan);
    let (_, result) = drain(&mut stream);
    assert!(result.is_err());
    drop(stream);
    let snap = registry.snapshot();
    let panicked = snap
        .get("cn_gen_worker_exit", &[("outcome", "panicked")])
        .map(|m| m.value.clone());
    assert_eq!(panicked, Some(cn_obs::MetricValue::Counter { value: 1 }));
    assert_eq!(
        snap.get("cn_gen_shard_panics_total", &[("shard", "1")])
            .map(|m| m.value.clone()),
        Some(cn_obs::MetricValue::Counter { value: 1 }),
        "the panicking chunk is named in the ledger"
    );
    // Exactly two threads exited, the helper and the caller, one way or
    // another.
    let exits: u64 = ["completed", "panicked", "cancelled"]
        .iter()
        .filter_map(|o| snap.get("cn_gen_worker_exit", &[("outcome", o)]))
        .map(|m| match m.value {
            cn_obs::MetricValue::Counter { value } => value,
            _ => 0,
        })
        .sum();
    assert_eq!(exits, 2);
}

#[test]
fn a_fault_on_the_calling_thread_surfaces_typed() {
    // The caller fills the first slab alone, before its helper starts, so
    // a fault at chunk 1's first record is raised on the calling thread.
    // It must come back as the typed error, never as a panic unwinding
    // out of `try_next` — while chunk 0 is slow, holding the helper's
    // share of every later slab back.
    let models = fitted();
    let config = small_config();
    let plan = FaultPlan::new()
        .slow_shard(0, Duration::from_millis(20))
        .panic_shard_at(1, 0);
    let registry = Registry::new();
    let mut stream = ShardedStream::with_shards_faulted(&models, &config, 2, &registry, &plan);
    assert_eq!(stream.worker_threads(), 1);
    let (prefix, result) = drain(&mut stream);
    assert!(prefix.is_empty(), "no record may precede the fault");
    let err = result.expect_err("a fault on the caller must be typed");
    let StreamError::WorkerPanicked { shard, payload } = &err else {
        panic!("expected WorkerPanicked, got {err}");
    };
    assert_eq!(*shard, 1, "the error names the faulted chunk");
    assert!(
        payload.contains("injected fault"),
        "payload kept: {payload}"
    );
    assert_eq!(stream.try_next(), Err(err.clone()));
    assert_eq!(stream.finish(), Err(err));
    let snap = registry.snapshot();
    let exits = |o: &str| {
        snap.get("cn_gen_worker_exit", &[("outcome", o)])
            .map(|m| m.value.clone())
    };
    let one = Some(cn_obs::MetricValue::Counter { value: 1 });
    assert_eq!(exits("panicked"), one, "the caller panicked");
    assert_eq!(exits("cancelled"), one, "the helper was cancelled");
}
