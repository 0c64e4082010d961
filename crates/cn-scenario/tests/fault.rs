//! Failure containment through the scenario overlay.
//!
//! The scenario stream sits between a fallible baseline engine and a
//! fallible export sink; both legs must keep the sharded-stream
//! containment contract when a scenario is riding on top:
//!
//! * a **worker panic** mid-storm surfaces through
//!   [`ScenarioStream::try_next`] as the same typed
//!   [`StreamError::WorkerPanicked`], and every record emitted before the
//!   fault is a *verbatim prefix* of the fault-free scenario stream;
//! * a **sink failure** mid-storm surfaces from
//!   [`write_scenario_binary`] as [`StreamError::Io`] with the failing
//!   export stage, and the bytes that reached the sink obey the
//!   finish-or-recover contract: `from_binary` rejects them,
//!   `recover_binary` salvages a byte-identical prefix of the fault-free
//!   export.

use cn_fit::{fit, FitConfig, Method, ModelSet};
use cn_gen::{FaultPlan, GenConfig, ShardedStream, StreamError};
use cn_obs::Registry;
use cn_scenario::{
    apply_scenario, write_scenario_binary, IterSource, Phase, PhaseKind, ScenarioSpec,
    ScenarioStream, StormKind, TimeWindow, UeSubset,
};
use cn_trace::io::{from_binary, recover_binary, to_binary, FailingWriter, UNFINISHED_COUNT};
use cn_trace::{PopulationMix, Timestamp, Trace, TraceRecord};
use cn_world::{generate_world, WorldConfig};

fn fitted() -> ModelSet {
    let trace = generate_world(&WorldConfig::new(PopulationMix::new(16, 6, 4), 2.0, 3));
    fit(&trace, &FitConfig::new(Method::Ours))
}

fn config() -> GenConfig {
    GenConfig::new(
        PopulationMix::new(16, 6, 4),
        Timestamp::at_hour(0, 9),
        2.0,
        0xFA11,
    )
}

/// A workload whose shards each produce well past one channel block
/// (4096 records), so a mid-stream worker fault fires *after* data has
/// flowed into the scenario merge — the same sizing discipline as
/// `cn-gen`'s failure-containment suite.
fn big_config() -> GenConfig {
    GenConfig::new(
        PopulationMix::new(240, 100, 60),
        Timestamp::at_hour(0, 9),
        3.0,
        0xFA12,
    )
}

/// A storm that spans most of the run, so faults land mid-storm.
fn storm_spec() -> ScenarioSpec {
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

/// The fault-free scenario trace `config` + the storm spec produce.
fn clean_trace(models: &ModelSet, config: &GenConfig) -> Trace {
    let (trace, _) = apply_scenario(&storm_spec(), models, config, &Registry::disabled())
        .expect("clean scenario run");
    trace
}

#[test]
fn worker_panic_mid_storm_surfaces_typed_with_a_verbatim_prefix() {
    let models = fitted();
    let config = big_config();
    let spec = storm_spec();
    let clean = clean_trace(&models, &config);
    // Shard 1 of 2 panics well past its first shipped block, so the
    // fault is genuinely mid-stream: scenario records have flowed.
    let plan = FaultPlan::new().panic_shard_at(1, 5_000);
    let source =
        ShardedStream::with_shards_faulted(&models, &config, 2, &Registry::disabled(), &plan);
    let mut stream = ScenarioStream::new(&spec, &config, source, &Registry::disabled()).unwrap();
    let mut got: Vec<TraceRecord> = Vec::new();
    let err = loop {
        match stream.try_next() {
            Ok(Some(r)) => got.push(r),
            Ok(None) => panic!("faulted stream drained cleanly"),
            Err(e) => break e,
        }
    };
    assert!(
        matches!(err, StreamError::WorkerPanicked { shard: 1, .. }),
        "{err}"
    );
    // Containment: everything emitted before the fault is a verbatim
    // prefix of the fault-free scenario stream — injected storm events
    // included, nothing reordered or fabricated.
    assert!(!got.is_empty(), "fault should land after data flowed");
    assert!(
        got.len() < clean.len(),
        "fault must truncate the stream ({} vs {})",
        got.len(),
        clean.len()
    );
    let clean_records: Vec<TraceRecord> = clean.iter().copied().collect();
    assert_eq!(got.as_slice(), &clean_records[..got.len()]);
    // The prefix is not baseline-only: injected storm events made it out
    // before the fault (the overlay keeps streaming, not batching).
    let baseline: Vec<TraceRecord> = cn_gen::generate(&models, &config).into_records();
    assert_ne!(
        got.as_slice(),
        &baseline[..got.len().min(baseline.len())],
        "prefix should contain injected events"
    );
    // finish() refuses to bless the run.
    assert!(stream.finish().is_err());
}

#[test]
fn sink_failure_mid_storm_is_typed_and_prefix_identical() {
    let models = fitted();
    let config = config();
    let spec = storm_spec();
    let clean = clean_trace(&models, &config);
    let clean_bytes = to_binary(&clean);

    let baseline = cn_gen::generate(&models, &config);
    let stream = ScenarioStream::new(
        &spec,
        &config,
        IterSource(baseline.into_records().into_iter()),
        &Registry::disabled(),
    )
    .unwrap();
    // Enough budget for the header plus 100 whole records, then the disk
    // "fills up" mid-storm.
    let prefix_records = 100usize;
    let mut sink = FailingWriter::new(std::io::Cursor::new(Vec::new()), 16 + prefix_records * 14);
    let err = write_scenario_binary(stream, &mut sink).unwrap_err();
    assert!(
        matches!(
            err,
            StreamError::Io {
                stage: "export-write",
                ..
            }
        ),
        "{err}"
    );
    let bytes = sink.into_inner().into_inner();
    assert!(!bytes.is_empty(), "header and prefix reached the sink");
    // Byte-identical prefix policy: what landed is exactly the fault-free
    // export's head, except for the header count (unfinished sentinel).
    assert_eq!(bytes.len(), 16 + prefix_records * 14);
    assert_eq!(&bytes[..8], &clean_bytes[..8], "magic differs");
    assert_eq!(
        &bytes[8..16],
        &UNFINISHED_COUNT.to_le_bytes(),
        "count must be unpatched"
    );
    assert_eq!(
        &bytes[16..],
        &clean_bytes[16..bytes.len()],
        "payload prefix differs"
    );
    // Finish-or-recover: the partial file can never pose as complete…
    assert!(from_binary(&bytes).is_err());
    // …but every record that landed is salvageable and verbatim.
    let salvaged = recover_binary(&bytes).unwrap();
    assert_eq!(salvaged.len(), prefix_records);
    let clean_records: Vec<TraceRecord> = clean.iter().copied().collect();
    let salvaged_records: Vec<TraceRecord> = salvaged.iter().copied().collect();
    assert_eq!(
        salvaged_records.as_slice(),
        &clean_records[..prefix_records]
    );
}

#[test]
fn no_sink_fault_offset_yields_bytes_that_parse() {
    // Every byte budget through the header and the first records, then a
    // stride coprime to the record size: the export fails typed, what
    // landed is the clean export's head (count field aside) cut at a
    // record boundary, and only `recover_binary` reads it.
    let models = fitted();
    let config = config();
    let spec = storm_spec();
    let clean_bytes = to_binary(&clean_trace(&models, &config));
    let baseline = cn_gen::generate(&models, &config).into_records();
    let head = 16 + 4 * 14;
    assert!(clean_bytes.len() > head);
    for budget in (0..head).chain((head..clean_bytes.len()).step_by(97)) {
        let stream = ScenarioStream::new(
            &spec,
            &config,
            IterSource(baseline.clone().into_iter()),
            &Registry::disabled(),
        )
        .unwrap();
        let mut sink = FailingWriter::new(std::io::Cursor::new(Vec::new()), budget);
        let err = write_scenario_binary(stream, &mut sink).unwrap_err();
        assert!(
            matches!(err, StreamError::Io { stage, .. } if stage.starts_with("export-")),
            "budget {budget}: {err}"
        );
        let landed = sink.into_inner().into_inner();
        // Magic, count and records are each one all-or-nothing write.
        let want_len = match budget {
            0..=7 => 0,
            8..=15 => 8,
            _ => 16 + (budget - 16) / 14 * 14,
        };
        assert_eq!(landed.len(), want_len, "budget {budget}");
        let mut want = clean_bytes[..want_len].to_vec();
        if let Some(count) = want.get_mut(8..16) {
            count.copy_from_slice(&UNFINISHED_COUNT.to_le_bytes());
        }
        assert_eq!(landed, want, "budget {budget}: not a prefix");
        assert!(from_binary(&landed).is_err(), "budget {budget}: parsed");
        if landed.len() >= 16 {
            let salvaged = recover_binary(&landed).expect("whole records landed");
            assert_eq!(to_binary(&salvaged)[16..], clean_bytes[16..want_len]);
        }
    }
}

#[test]
fn header_failure_is_typed_before_any_record_work() {
    let models = fitted();
    let config = config();
    let spec = storm_spec();
    let baseline = cn_gen::generate(&models, &config);
    let stream = ScenarioStream::new(
        &spec,
        &config,
        IterSource(baseline.into_records().into_iter()),
        &Registry::disabled(),
    )
    .unwrap();
    // Not even the 8-byte magic fits.
    let mut sink = FailingWriter::new(std::io::Cursor::new(Vec::new()), 4);
    let err = write_scenario_binary(stream, &mut sink).unwrap_err();
    assert!(
        matches!(
            err,
            StreamError::Io {
                stage: "export-header",
                ..
            }
        ),
        "{err}"
    );
    assert!(sink.into_inner().into_inner().is_empty());
}

#[test]
fn worker_panic_fails_export_even_when_the_sink_is_healthy() {
    let models = fitted();
    let config = big_config();
    let spec = storm_spec();
    let plan = FaultPlan::new().panic_shard_at(0, 5_000);
    let source =
        ShardedStream::with_shards_faulted(&models, &config, 2, &Registry::disabled(), &plan);
    let stream = ScenarioStream::new(&spec, &config, source, &Registry::disabled()).unwrap();
    let mut sink = std::io::Cursor::new(Vec::new());
    let err = write_scenario_binary(stream, &mut sink).unwrap_err();
    assert!(
        matches!(err, StreamError::WorkerPanicked { shard: 0, .. }),
        "{err}"
    );
    // The sink holds an unfinished (recoverable, never complete-looking)
    // non-empty prefix: the records that flowed before the worker died.
    let bytes = sink.into_inner();
    assert!(from_binary(&bytes).is_err());
    let salvaged = recover_binary(&bytes).unwrap();
    assert!(!salvaged.is_empty(), "records flowed before the fault");
    let clean = clean_trace(&models, &config);
    assert!(salvaged.iter().zip(clean.iter()).all(|(a, b)| a == b));
}
