//! The ordered-record dataplane, checked in one place: one contract
//! table over every [`RecordSource`] implementation, one hostile-bytes
//! property over every decoder of the 14-byte codec, and one each over
//! the JSON a closed loop reads: the simulator configuration, a scenario
//! spec, a resume checkpoint and a model snapshot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cn_fit::cluster::ClusterId;
use cn_fit::method::DistributionKind;
use cn_fit::{
    ClusterHourModel, DeviceModels, FirstEventModel, HourModels, Method, ModelSet, SemiMarkovModel,
};
use cn_gen::{generate, FaultPlan, GenConfig, PopulationStream, ShardedStream};
use cn_live::{
    decode_frame, encode_frame, Checkpoint, Frame, LiveConfig, LiveRecordSource, LiveServer,
    SystemClock,
};
use cn_mcn::{DesConfig, DesSim};
use cn_obs::Registry;
use cn_scenario::{
    apply_scenario, ComposedStream, Phase, PhaseKind, PopulationSlot, ScenarioSpec, ScenarioStream,
    StormKind, TimeWindow, UeSubset,
};
use cn_statemachine::{BottomTransition, ConnSub, TlState, TopTransition};
use cn_trace::io::{decode_record, from_binary, recover_binary, BINARY_MAGIC};
use cn_trace::{
    DeviceType, EventType, IterSource, PopulationMix, RecordSource, StreamError, Timestamp, Trace,
    TraceRecord, UeId, RECORD_BYTES,
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

/// `DesConfig::default_epc(1)` rendered as JSON.
fn des_config_json() -> String {
    serde_json::to_string(&DesConfig::default_epc(1)).unwrap()
}

/// `valid` with one byte replaced: a near miss of every field, bracket
/// and digit in turn.
fn mutated(valid: String) -> impl Strategy<Value = Vec<u8>> {
    let valid = valid.into_bytes();
    (0..valid.len(), any::<u8>()).prop_map(move |(at, byte)| {
        let mut bytes = valid.clone();
        bytes[at] = byte;
        bytes
    })
}

/// `valid` with one of its numbers replaced by an extreme — a count,
/// period or duration a careless constructor might size something by.
fn extreme(valid: String) -> impl Strategy<Value = Vec<u8>> {
    const EXTREMES: [&str; 7] = [
        "0",
        "-1",
        "0.5",
        "4294967295",
        "18446744073709551615",
        "1e308",
        "-1e308",
    ];
    let bytes = valid.as_bytes();
    let is_number = |b: &u8| b.is_ascii_digit() || b".-+eE".contains(b);
    let numbers: Vec<(usize, usize)> = (1..bytes.len())
        .filter(|&at| b":[,".contains(&bytes[at - 1]) && is_number(&bytes[at]))
        .map(|start| {
            let len = bytes[start..].iter().take_while(|b| is_number(b)).count();
            (start, start + len)
        })
        .collect();
    (0..numbers.len(), 0..EXTREMES.len()).prop_map(move |(n, e)| {
        let (start, end) = numbers[n];
        format!("{}{}{}", &valid[..start], EXTREMES[e], &valid[end..]).into_bytes()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A simulator configuration parsed from hostile JSON is `Ok` or a
    /// typed error at `from_str` and again at `DesSim::new` — never a
    /// panic — and neither step allocates by a count the input spells out
    /// (a `Value` and its key per two input bytes, doubled by `Vec`
    /// growth, bounds what a parse can honestly need).
    #[test]
    fn des_config_survives_hostile_json(
        bytes in prop_oneof![
            hostile_bytes(),
            mutated(des_config_json()),
            extreme(des_config_json()),
        ],
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let budget = 64 * bytes.len() + 4096;
        let ((), peak) = largest_alloc_during(|| {
            if let Ok(config) = serde_json::from_str::<DesConfig>(&text) {
                let _ = DesSim::new(config);
            }
        });
        prop_assert!(peak <= budget, "{} byte input, {peak} byte allocation", bytes.len());
    }
}

/// A scenario with a phase of every kind, rendered as JSON.
fn scenario_json() -> String {
    let mut spec = storm();
    let mut phase = |name: &str, start_s: f64, duration_s: f64, kind: PhaseKind| {
        spec.phases.push(Phase {
            name: name.into(),
            window: TimeWindow::new(start_s, duration_s),
            kind,
        })
    };
    phase(
        "crowd",
        7_000.0,
        600.0,
        PhaseKind::FlashCrowd {
            ues: UeSubset::new(16, 32),
            waves: 4,
            handovers_per_ue: 2,
        },
    );
    phase(
        "outage",
        8_000.0,
        1_800.0,
        PhaseKind::Outage {
            ues: UeSubset::new(0, 40),
        },
    );
    phase(
        "fleet",
        10_000.0,
        3_600.0,
        PhaseKind::M2mReporting {
            ues: UeSubset::new(400, 408),
            period_s: 60.0,
            device: DeviceType::Tablet,
        },
    );
    serde_json::to_string(&spec).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A scenario spec parsed from hostile JSON is `Ok` or a typed error
    /// at `from_str` and again at `validate` — never a panic — within the
    /// JSON parse budget above. A spec that validates is bounded by what
    /// it injects, not by the counts it spells out: its overlay on an
    /// empty baseline drains, holding at most the per-phase cap of 2²²
    /// records a phase.
    #[test]
    fn scenario_spec_survives_hostile_json(
        bytes in prop_oneof![
            hostile_bytes(),
            mutated(scenario_json()),
            extreme(scenario_json()),
        ],
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let budget = 64 * bytes.len() + 4096;
        let (spec, peak) = largest_alloc_during(|| {
            serde_json::from_str::<ScenarioSpec>(&text)
                .ok()
                .filter(|spec| spec.validate().is_ok())
        });
        prop_assert!(peak <= budget, "{} byte input, {peak} byte allocation", bytes.len());
        if let Some(spec) = spec {
            let empty = IterSource(std::iter::empty());
            let mut overlay = ScenarioStream::new(&spec, &config(), empty, &Registry::disabled())
                .expect("a validated spec compiles");
            let mut injected = 0u64;
            while overlay.try_next().expect("an empty baseline cannot fail").is_some() {
                injected += 1;
            }
            prop_assert!(injected <= spec.phases.len() as u64 * (1 << 22), "{injected}");
        }
    }
}

/// A resumable serve's checkpoint rendered as JSON: a small window with a
/// storm overlaid.
fn checkpoint_json() -> String {
    let mut config = config();
    config.population = PopulationMix::new(24, 8, 8);
    config.duration_hours = 1.5;
    let ckpt = Checkpoint {
        emitted: 1234,
        compression: 3600.0,
        config,
        scenario: Some(storm()),
    };
    serde_json::to_string(&ckpt).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A checkpoint file of hostile JSON fails to load with a typed error,
    /// or loads into what a resume builds — its generation stream, its
    /// scenario overlay and its live server — without a panic. Loading
    /// stays within the JSON parse budget above, and building the stream
    /// allocates by the population the load accepted (a slot per UE),
    /// never by a count the file merely spells out.
    #[test]
    fn checkpoint_survives_hostile_json(
        bytes in prop_oneof![
            hostile_bytes(),
            mutated(checkpoint_json()),
            extreme(checkpoint_json()),
        ],
    ) {
        static MODELS: std::sync::OnceLock<ModelSet> = std::sync::OnceLock::new();
        let models = MODELS.get_or_init(|| GroundTruth::standard(11).set);
        let path = std::env::temp_dir()
            .join(format!("cn-verify-hostile-ckpt-{}.json", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let budget = 64 * bytes.len() + 4096;
        let (loaded, peak) = largest_alloc_during(|| Checkpoint::load(&path));
        std::fs::remove_file(&path).ok();
        prop_assert!(peak <= budget, "{} byte input, {peak} byte allocation", bytes.len());
        if let Ok(ckpt) = loaded {
            let (stream, peak) = largest_alloc_during(|| ShardedStream::new(models, &ckpt.config));
            let ues = ckpt.config.population.total() as usize;
            prop_assert!(peak <= 1024 * (ues + 16), "{ues} UEs, {peak} byte allocation");
            let registry = Registry::disabled();
            if let Some(spec) = &ckpt.scenario {
                ScenarioStream::new(spec, &ckpt.config, stream, &registry)
                    .expect("a loaded scenario compiles");
            }
            LiveServer::new(SystemClock::new(), LiveConfig::new(ckpt.compression), &registry)
                .expect("a loaded compression serves");
        }
    }
}

/// A model snapshot small enough to fuzz: a phone model fitted from two
/// samples a law in the hour generation starts, every other slot empty.
fn model_set_json() -> String {
    static JSON: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    let samples = |law: usize| vec![(10 * law + 1) as f64, (10 * law + 4) as f64];
    JSON.get_or_init(|| {
        let top = TopTransition::ALL.into_iter().enumerate();
        let bottom = BottomTransition::ALL.into_iter().enumerate();
        let firsts = [
            (EventType::Attach, 60.0),
            (EventType::ServiceRequest, 900.0),
        ];
        let model = ClusterHourModel {
            top: SemiMarkovModel::fit(
                &top.map(|(law, t)| (t, samples(law + 3))).collect(),
                DistributionKind::EmpiricalCdf,
            ),
            bottom: SemiMarkovModel::fit(
                &bottom.map(|(law, t)| (t, samples(law))).collect(),
                DistributionKind::EmpiricalCdf,
            ),
            bottom_exit: vec![(TlState::Connected(ConnSub::SrvReqS), 0.5)],
            ho_interarrival: None,
            tau_interarrival: None,
            first_event: FirstEventModel::fit(&firsts, 1),
            n_ues: 2,
        };
        let mut devices: Vec<DeviceModels> = DeviceType::ALL
            .into_iter()
            .map(|device| DeviceModels {
                device,
                personas: vec![[ClusterId(0); 24]],
                hours: vec![HourModels { clusters: vec![] }; 24],
            })
            .collect();
        devices[0].hours[9].clusters.push(model);
        let set = ModelSet {
            method: Method::Ours,
            devices,
            n_days: 1,
        };
        serde_json::to_string(&set).unwrap()
    })
    .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A model snapshot of hostile JSON fails to load with a typed error,
    /// or loads into a set the generator steps — four phones through an
    /// hour — without a panic. Loading stays within the JSON
    /// parse budget above.
    #[test]
    fn model_set_survives_hostile_json(
        bytes in prop_oneof![
            hostile_bytes(),
            mutated(model_set_json()),
            extreme(model_set_json()),
        ],
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let budget = 64 * bytes.len() + 4096;
        let (loaded, peak) = largest_alloc_during(|| ModelSet::from_json(&text));
        prop_assert!(peak <= budget, "{} byte input, {peak} byte allocation", bytes.len());
        if let Ok(models) = loaded {
            let phones = PopulationMix::new(4, 0, 0);
            generate(&models, &GenConfig::new(phones, Timestamp::at_hour(0, 9), 1.0, 7));
        }
    }
}
