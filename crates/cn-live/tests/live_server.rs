//! End-to-end live service tests over real sockets and real engines.
//!
//! These run at an extreme compression factor so the paced stream
//! degenerates to "as fast as possible" — the properties under test are
//! wire fidelity (the served bytes are the batch trace, byte for byte),
//! checkpoint/resume exactness, and the typed end-of-stream semantics,
//! not the wall schedule (that is `tests/pacing.rs`, on the mock
//! clock).

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, OnceLock};

use cn_fit::{fit, FitConfig, Method, ModelSet};
use cn_gen::{GenConfig, ShardedStream};
use cn_live::{
    capture, CapturedStream, Checkpoint, LiveConfig, LiveError, LiveServer, ManualClock,
    SystemClock, FRAME_BYTES,
};
use cn_obs::Registry;
use cn_scenario::{ComposedStream, PopulationSlot};
use cn_trace::io::to_binary;
use cn_trace::{
    IterSource, PopulationMix, RecordSource, StreamError, Timestamp, Trace, TraceRecord,
};
use cn_world::{generate_world, WorldConfig};

fn models() -> &'static ModelSet {
    static MODELS: OnceLock<ModelSet> = OnceLock::new();
    MODELS.get_or_init(|| {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(16, 6, 4), 2.0, 3));
        fit(&trace, &FitConfig::new(Method::Ours))
    })
}

fn config() -> GenConfig {
    GenConfig::new(
        PopulationMix::new(10, 4, 2),
        Timestamp::at_hour(0, 9),
        1.0,
        2024,
    )
}

/// Effectively-unpaced serving: one trace hour per 3.6 wall-µs.
const FAST: f64 = 1.0e9;

#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn await_consumers<C: cn_live::Clock>(server: &LiveServer<C>, n: usize) {
    for _ in 0..5_000 {
        if server.hub().consumer_count() >= n {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    panic!("consumers never attached");
}

#[test]
fn tcp_consumer_receives_the_batch_trace_byte_for_byte() {
    let batch = cn_gen::generate(models(), &config());
    let registry = Registry::new();
    let server = LiveServer::new(SystemClock::new(), LiveConfig::new(FAST), &registry).unwrap();
    let addr = server.bind("127.0.0.1:0").unwrap();
    let consumer = std::thread::spawn(move || -> CapturedStream {
        let stream = TcpStream::connect(addr).expect("connect to live server");
        capture(stream).expect("drain live stream")
    });
    await_consumers(&server, 1);
    let source = ShardedStream::new(models(), &config());
    let report = server.serve(source, 0, None).unwrap();
    assert!(report.completed);
    assert_eq!(report.served as usize, batch.len());

    let captured = consumer.join().unwrap();
    let received: Trace = captured.records.iter().copied().collect();
    assert_eq!(received, batch, "live bytes diverge from the batch trace");
    assert_eq!(captured.end, Some(batch.len() as u64));
    assert_eq!(captured.verdict(0), Ok(()));
    assert_eq!(
        registry.snapshot().counter("cn_live_emitted_total"),
        Some(batch.len() as u64)
    );
    // The consumer's writer saw a healthy connection end-to-end.
    let consumer_report = report.consumers[0].as_ref().unwrap();
    assert_eq!(consumer_report.dropped, 0);
    assert_eq!(consumer_report.verdict(), Ok(()));
}

#[test]
fn stop_and_resume_reproduce_the_stream_byte_for_byte() {
    let batch = cn_gen::generate(models(), &config());
    let total = batch.len() as u64;
    let cut = total / 3;
    let ckpt_path =
        std::env::temp_dir().join(format!("cn-live-resume-test-{}.json", std::process::id()));
    let template = Checkpoint {
        emitted: 0,
        compression: FAST,
        config: config(),
        scenario: None,
    };

    // First incarnation: killed (stop_after) at the cut watermark — at
    // this factor mid-quantum, so the block must be cut there, with a
    // periodic checkpoint landing mid-quantum on the way.
    let registry = Registry::disabled();
    let mut cfg = LiveConfig::new(FAST);
    cfg.stop_after = Some(cut);
    cfg.checkpoint_every = 5;
    let server = LiveServer::new(SystemClock::new(), cfg, &registry).unwrap();
    let sink1 = SharedSink::default();
    server.hub().add_writer(sink1.clone());
    let report1 = server
        .serve(
            ShardedStream::new(models(), &config()),
            0,
            Some((ckpt_path.clone(), template.clone())),
        )
        .unwrap();
    assert!(!report1.completed);
    assert_eq!(report1.emitted, cut);
    let captured1 = capture(&sink1.0.lock().unwrap()[..]).unwrap();
    // Abrupt stop: no End marker — the wire itself says "incomplete".
    assert_eq!(captured1.end, None);
    assert_eq!(captured1.records.len() as u64, cut);
    let wire1_len = sink1.0.lock().unwrap().len() as u64;
    assert_eq!(wire1_len, 16 + cut * FRAME_BYTES as u64);

    // Second incarnation: rebuilt from the checkpoint alone.
    let ckpt = Checkpoint::load(&ckpt_path).unwrap();
    assert_eq!(ckpt.emitted, cut);
    assert_eq!(ckpt.config, config());
    let server = LiveServer::new(
        SystemClock::new(),
        LiveConfig::new(ckpt.compression),
        &registry,
    )
    .unwrap();
    let sink2 = SharedSink::default();
    server.hub().add_writer(sink2.clone());
    let report2 = server
        .serve(
            ShardedStream::new(models(), &ckpt.config),
            ckpt.emitted,
            Some((ckpt_path.clone(), template)),
        )
        .unwrap();
    std::fs::remove_file(&ckpt_path).ok();
    assert!(report2.completed);
    assert_eq!(report2.skipped, cut);
    assert_eq!(report2.emitted, total);
    let captured2 = capture(&sink2.0.lock().unwrap()[..]).unwrap();
    assert_eq!(captured2.end, Some(total));

    // Concatenating both incarnations' records reproduces the batch
    // trace exactly.
    let mut joined: Vec<TraceRecord> = captured1.records;
    joined.extend_from_slice(&captured2.records);
    let joined: Trace = joined.into_iter().collect();
    assert_eq!(joined, batch, "kill/resume did not splice byte-exactly");
}

/// Serves `left` records of the inner stream, then faults — a crash
/// stand-in that makes `serve` return before its wind-down checkpoint.
struct FaultAfter<I> {
    inner: IterSource<I>,
    left: u64,
}

impl<I: Iterator<Item = TraceRecord>> RecordSource for FaultAfter<I> {
    type Stats = ();

    fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        if self.left == 0 {
            return Err(StreamError::WorkerPanicked {
                shard: 0,
                payload: "injected crash".into(),
            });
        }
        self.left -= 1;
        self.inner.try_next()
    }

    fn finish(self) -> Result<(), StreamError> {
        Ok(())
    }
}

#[test]
fn a_crash_resumes_from_the_last_periodic_checkpoint() {
    // Sparse (every record its own block) and with the whole stream
    // inside one pacing quantum, where the periodic watermark and the
    // fault both land mid-quantum and must still cut the block.
    for compression in [3600.0, FAST] {
        crash_and_resume_at(compression);
    }
}

fn crash_and_resume_at(compression: f64) {
    // The only crash-recovery path: `checkpoint_every = k`, the serve
    // dies mid-stream (no graceful final save), and the next incarnation
    // has nothing but the periodic file on disk.
    const EVERY: u64 = 7;
    let batch = cn_gen::generate(models(), &config());
    let total = batch.len() as u64;
    let crash_at = (total / 2 / EVERY) * EVERY + 3;
    let ckpt_path =
        std::env::temp_dir().join(format!("cn-live-periodic-test-{}.json", std::process::id()));
    let template = Checkpoint {
        emitted: 0,
        compression,
        config: config(),
        scenario: None,
    };
    let registry = Registry::disabled();

    let mut cfg = LiveConfig::new(template.compression);
    cfg.checkpoint_every = EVERY;
    let server = LiveServer::new(ManualClock::new(), cfg, &registry).unwrap();
    let sink1 = SharedSink::default();
    server.hub().add_writer(sink1.clone());
    let crashed = server.serve(
        FaultAfter {
            inner: IterSource(batch.iter().copied()),
            left: crash_at,
        },
        0,
        Some((ckpt_path.clone(), template.clone())),
    );
    assert!(matches!(crashed, Err(LiveError::Stream(_))), "{crashed:?}");
    server.hub().abort(); // join the writer so the sink holds every frame sent
    let wire1 = sink1.0.lock().unwrap().clone();
    assert_eq!(wire1.len() as u64, 16 + crash_at * FRAME_BYTES as u64);

    // What survived the crash is the last periodic save: it trails the
    // wire by the records sent since, never by a whole period.
    let ckpt = Checkpoint::load(&ckpt_path).unwrap();
    let replayed = crash_at - ckpt.emitted;
    assert_eq!(ckpt.emitted % EVERY, 0);
    assert!(replayed < EVERY, "{replayed} records replayed");
    assert_eq!(replayed, 3);

    let server = LiveServer::new(
        ManualClock::new(),
        LiveConfig::new(ckpt.compression),
        &registry,
    )
    .unwrap();
    let sink2 = SharedSink::default();
    server.hub().add_writer(sink2.clone());
    let report = server
        .serve(
            ShardedStream::new(models(), &ckpt.config),
            ckpt.emitted,
            None,
        )
        .unwrap();
    std::fs::remove_file(&ckpt_path).ok();
    assert!(report.completed);
    assert_eq!(report.emitted, total);
    let wire2 = sink2.0.lock().unwrap().clone();
    assert_eq!(capture(&wire2[..]).unwrap().end, Some(total));

    // At-least-once across the crash: the first incarnation's bytes up
    // to the checkpoint plus everything the resumed one sent (minus its
    // End frame) are the uninterrupted stream, and the replayed records
    // are the same bytes both times.
    let cut = 16 + ckpt.emitted as usize * FRAME_BYTES;
    let resumed = &wire2[16..wire2.len() - FRAME_BYTES];
    let spliced = [&wire1[16..cut], resumed].concat();
    assert_eq!(spliced, to_binary(&batch)[16..]);
    assert_eq!(wire1[cut..], resumed[..replayed as usize * FRAME_BYTES]);
}

#[test]
fn composed_stream_serves_identically_to_its_batch_collection() {
    // The tentpole meets the ordering bugfix: a composition with a
    // clamping negative offset is served live and must match its batch
    // collection record for record.
    let mk = || {
        [
            PopulationSlot {
                models: models(),
                config: GenConfig::new(
                    PopulationMix::new(6, 2, 2),
                    Timestamp::at_hour(0, 9),
                    1.0,
                    7,
                ),
                offset_hours: -9.25,
            },
            PopulationSlot {
                models: models(),
                config: GenConfig::new(
                    PopulationMix::new(5, 2, 1),
                    Timestamp::at_hour(0, 9),
                    1.0,
                    8,
                ),
                offset_hours: 0.0,
            },
        ]
    };
    let batch: Vec<TraceRecord> = ComposedStream::new(&mk()).unwrap().collect();
    let registry = Registry::disabled();
    let server = LiveServer::new(SystemClock::new(), LiveConfig::new(FAST), &registry).unwrap();
    let sink = SharedSink::default();
    server.hub().add_writer(sink.clone());
    let report = server
        .serve(ComposedStream::new(&mk()).unwrap(), 0, None)
        .unwrap();
    assert!(report.completed);
    let captured = capture(&sink.0.lock().unwrap()[..]).unwrap();
    assert_eq!(captured.records, batch);
    assert_eq!(captured.verdict(0), Ok(()));
}
