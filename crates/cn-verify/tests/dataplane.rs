//! The ordered-record dataplane, checked in one place: one contract
//! table over every [`RecordSource`] implementation, and one
//! hostile-bytes property over every decoder of the 14-byte codec.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cn_fit::ModelSet;
use cn_gen::{generate, FaultPlan, GenConfig, PopulationStream, ShardedStream};
use cn_live::{decode_frame, encode_frame, Frame, LiveRecordSource};
use cn_obs::Registry;
use cn_scenario::{
    apply_scenario, ComposedStream, Phase, PhaseKind, PopulationSlot, ScenarioSpec, ScenarioStream,
    StormKind, TimeWindow, UeSubset,
};
use cn_trace::io::{decode_record, from_binary, recover_binary, BINARY_MAGIC};
use cn_trace::{
    IterSource, PopulationMix, RecordSource, StreamError, Timestamp, Trace, TraceRecord, UeId,
    RECORD_BYTES,
};
use cn_verify::GroundTruth;
use proptest::prelude::*;

/// A workload whose shards each ship well past one 4096-record channel
/// block, so an injected worker fault lands after data has flowed.
fn config() -> GenConfig {
    GenConfig::new(
        PopulationMix::new(240, 100, 60),
        Timestamp::at_hour(0, 9),
        3.0,
        0xDA7A,
    )
}

fn storm() -> ScenarioSpec {
    ScenarioSpec {
        name: "storm".into(),
        seed: 99,
        phases: vec![Phase {
            name: "paging".into(),
            window: TimeWindow::new(300.0, 6_000.0),
            kind: PhaseKind::SignalingStorm {
                ues: UeSubset::new(0, 16),
                kind: StormKind::Paging,
                bursts_per_ue: 5,
            },
        }],
    }
}

/// A live connection's bytes: header, one frame per record, then `tail`.
fn wire(records: &[TraceRecord], tail: &[u8]) -> Vec<u8> {
    let mut wire = BINARY_MAGIC.to_vec();
    wire.extend_from_slice(&0u64.to_le_bytes());
    for r in records {
        wire.extend_from_slice(&encode_frame(&Frame::Record(*r)));
    }
    wire.extend_from_slice(tail);
    wire
}

/// The clean half of the contract: sorted output equal to the batch
/// trace, a sticky `Ok(None)`, a clean `finish`, and `drain` delivering
/// exactly the batch trace's records.
fn check_clean<S: RecordSource>(name: &str, make: impl Fn() -> S, batch: &[TraceRecord]) {
    let mut source = make();
    let mut pulled = Vec::new();
    while let Some(r) = source.try_next().unwrap_or_else(|e| panic!("{name}: {e}")) {
        pulled.push(r);
    }
    assert!(pulled.windows(2).all(|w| w[0] <= w[1]), "{name}: unsorted");
    assert_eq!(pulled, batch, "{name}: diverges from the batch trace");
    for _ in 0..3 {
        assert_eq!(source.try_next(), Ok(None), "{name}: Ok(None) not sticky");
    }
    assert!(source.finish().is_ok(), "{name}: clean finish");

    let mut drained = 0usize;
    let verdict = make().drain(|_| {
        drained += 1;
        Ok::<(), StreamError>(())
    });
    assert!(verdict.is_ok(), "{name}: clean drain");
    assert_eq!(drained, batch.len(), "{name}: drain count");
}

/// The faulted half: `drain` returns the typed error, and what it
/// delivered first is a non-empty, proper, verbatim prefix of `batch`.
fn check_faulted<S: RecordSource>(
    name: &str,
    source: S,
    batch: &[TraceRecord],
    is_expected: impl Fn(&StreamError) -> bool,
) {
    let mut prefix = Vec::new();
    let err = match source.drain(|r| {
        prefix.push(r);
        Ok::<(), StreamError>(())
    }) {
        Ok(_) => panic!("{name}: a faulted source drained cleanly"),
        Err(e) => e,
    };
    assert!(is_expected(&err), "{name}: unexpected fault {err}");
    assert!(!prefix.is_empty(), "{name}: fault landed before any data");
    assert!(prefix.len() < batch.len(), "{name}: nothing was lost");
    assert_eq!(prefix, batch[..prefix.len()], "{name}: prefix not verbatim");
}

#[test]
fn every_record_source_keeps_the_stream_contract() {
    let gt = GroundTruth::standard(11);
    let models: &ModelSet = &gt.set;
    let config = config();
    let off = Registry::disabled();
    let batch: Vec<TraceRecord> = generate(models, &config).into_records();
    assert!(
        batch.len() > 3 * 6_000,
        "workload too small: {}",
        batch.len()
    );

    // Clean rows: every implementation, against the batch engine.
    for shards in [1usize, 3] {
        check_clean(
            &format!("sharded/{shards}"),
            || ShardedStream::with_shards(models, &config, shards),
            &batch,
        );
    }
    check_clean(
        "population",
        || PopulationStream::new(models, &config),
        &batch,
    );
    check_clean("iter", || IterSource(batch.iter().copied()), &batch);

    let spec = storm();
    let (overlaid, _) = apply_scenario(&spec, models, &config, &off).unwrap();
    let overlaid = overlaid.into_records();
    assert!(overlaid.len() > batch.len(), "the storm injects records");
    let scenario = |source| ScenarioStream::new(&spec, &config, source, &off).unwrap();
    check_clean(
        "scenario",
        || scenario(ShardedStream::with_shards(models, &config, 3)),
        &overlaid,
    );

    // Two populations side by side: the second one's UEs shift past the
    // first one's range.
    let mut second = config;
    second.seed ^= 1;
    let slots = [config, second].map(|config| PopulationSlot {
        models,
        config,
        offset_hours: 0.0,
    });
    let shifted = generate(models, &second)
        .into_records()
        .into_iter()
        .map(|r| {
            let ue = UeId(r.ue.get() + config.population.total());
            TraceRecord::new(r.t, ue, r.device, r.event)
        });
    let composed = Trace::from_records(batch.iter().copied().chain(shifted).collect());
    check_clean(
        "composed",
        || ComposedStream::new(&slots).unwrap(),
        composed.records(),
    );

    let end = encode_frame(&Frame::End {
        emitted: batch.len() as u64,
    });
    let clean_wire = wire(&batch, &end);
    check_clean(
        "live",
        || LiveRecordSource::new(&clean_wire[..], 0).unwrap(),
        &batch,
    );

    // Faulted rows: every implementation that can fail.
    let worker_panic = |e: &StreamError| matches!(e, StreamError::WorkerPanicked { shard: 1, .. });
    let faulted = || {
        let plan = FaultPlan::new().panic_shard_at(1, 5_000);
        ShardedStream::with_shards_faulted(models, &config, 3, &off, &plan)
    };
    check_faulted("sharded/3", faulted(), &batch, worker_panic);
    check_faulted("scenario", scenario(faulted()), &overlaid, worker_panic);
    let half = batch.len() / 2;
    let torn = wire(&batch[..half], &end[..5]);
    check_faulted(
        "live/torn",
        LiveRecordSource::new(&torn[..], 0).unwrap(),
        &batch,
        |e| {
            matches!(
                e,
                StreamError::Io {
                    stage: "live-read",
                    ..
                }
            )
        },
    );
    let gap = wire(&batch[..half], &encode_frame(&Frame::Gap { dropped: 9 }));
    check_faulted(
        "live/gap",
        LiveRecordSource::new(&gap[..], 4).unwrap(),
        &batch,
        |e| {
            *e == StreamError::ConsumerLagged {
                consumer: 4,
                dropped: 9,
            }
        },
    );
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

/// Arbitrary bytes, half of the time behind a valid magic so the decoders
/// get past their first check and read the (hostile) count and payload.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    let raw = || prop::collection::vec(any::<u8>(), 0..400);
    prop_oneof![
        raw(),
        raw().prop_map(|tail| [&BINARY_MAGIC[..], &tail].concat()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every decoder of the record codec answers arbitrary input with
    /// `Ok` or a typed error — never a panic — and never asks the
    /// allocator for more than the input could possibly decode to (a
    /// 14-byte frame is a 16-byte record; sorting may double that).
    #[test]
    fn decoders_survive_hostile_bytes(bytes in hostile_bytes()) {
        let budget = 4 * bytes.len() + 1024;
        let ((), peak) = largest_alloc_during(|| {
            for frame in bytes.chunks_exact(RECORD_BYTES) {
                let frame: &[u8; RECORD_BYTES] = frame.try_into().unwrap();
                let _ = decode_record(frame);
                let _ = decode_frame(frame);
            }
            let _ = from_binary(&bytes);
            if let Ok(trace) = recover_binary(&bytes) {
                assert_eq!(16 + trace.len() * RECORD_BYTES, bytes.len());
            }
            if let Ok(mut source) = LiveRecordSource::new(&bytes[..], 0) {
                // Gaps are typed errors the stream continues after; any
                // other fault, End, or a clean close ends the read.
                let mut pulls = 0usize;
                loop {
                    pulls += 1;
                    assert!(pulls <= bytes.len(), "reader does not terminate");
                    match source.try_next() {
                        Ok(Some(_)) | Err(StreamError::ConsumerLagged { .. }) => {}
                        Ok(None) | Err(_) => break,
                    }
                }
                let _ = source.finish();
            }
        });
        prop_assert!(peak <= budget, "{} byte input, {peak} byte allocation", bytes.len());
    }
}
