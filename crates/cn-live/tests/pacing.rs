//! Deterministic pacing and back-pressure tests on the mock clock.
//!
//! Everything here runs without wall-clock waiting: [`ManualClock`]
//! jumps straight to requested deadlines and records the schedule, and
//! consumer stalls are modeled with a gated sink the test opens
//! explicitly. The properties under test are the live service's core
//! contracts: absolute-deadline pacing (drift is transient, never
//! accumulated), exact compression-factor scaling, the quantum law
//! (deadlines inside one `PACE_QUANTUM_NS` share a sleep; no record is
//! emitted early, none a quantum late — that block cuts keep
//! checkpoints and resume exact is `tests/live_server.rs`), and honest
//! degradation for lagged consumers (whole
//! blocks dropped, positioned gap markers plus a typed
//! [`StreamError::ConsumerLagged`] verdict — never a reordered or
//! silently truncated stream).

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use cn_gen::StreamError;
use cn_live::{
    capture, decode_frame, encode_frame, Clock, Frame, Hub, LiveConfig, LiveServer, ManualClock,
    FRAME_BYTES, PACE_QUANTUM_NS,
};
use cn_obs::{Counter, Registry};
use cn_trace::{DeviceType, EventType, IterSource, RecordSource, Timestamp, TraceRecord, UeId};

fn rec(t_ms: u64, ue: u32) -> TraceRecord {
    TraceRecord::new(
        Timestamp::from_millis(t_ms),
        UeId(ue),
        DeviceType::Phone,
        EventType::ServiceRequest,
    )
}

/// A sorted in-memory record source.
type VecSource = IterSource<std::vec::IntoIter<TraceRecord>>;

fn vec_source(records: Vec<TraceRecord>) -> VecSource {
    IterSource(records.into_iter())
}

/// A source that stalls the (mock) world once, at a chosen pull — the
/// deterministic stand-in for a slow pull or a scheduler hiccup.
struct StutterSource {
    inner: VecSource,
    clock: ManualClock,
    stall_at_pull: usize,
    stall_ns: u64,
    pulls: usize,
}

impl RecordSource for StutterSource {
    type Stats = ();

    fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        if self.pulls == self.stall_at_pull {
            self.clock.advance(self.stall_ns);
        }
        self.pulls += 1;
        self.inner.try_next()
    }

    fn finish(self) -> Result<(), StreamError> {
        Ok(())
    }
}

/// In-memory sink a test can read back after the writer thread exits.
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

/// A sink whose writes block until the test opens its gate (a consumer
/// wedged mid-`write(2)`), flagging once the writer thread reaches it.
#[derive(Clone)]
struct GatedSink {
    gate: Arc<(Mutex<bool>, Condvar)>,
    reached: Arc<AtomicBool>,
    out: SharedSink,
}

impl GatedSink {
    fn new() -> GatedSink {
        GatedSink {
            gate: Arc::new((Mutex::new(false), Condvar::new())),
            reached: Arc::new(AtomicBool::new(false)),
            out: SharedSink::default(),
        }
    }

    fn open(&self) {
        let (lock, cvar) = &*self.gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }

    /// Wait (real time, bounded) until the writer thread is blocked in
    /// a write against the closed gate.
    fn await_blocked(&self) {
        for _ in 0..5_000 {
            if self.reached.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("writer never reached its first sink write");
    }
}

impl Write for GatedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.reached.store(true, Ordering::SeqCst);
        let (lock, cvar) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cvar.wait(open).unwrap();
        }
        drop(open);
        self.out.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Emission deadlines must scale exactly with the compression factor:
/// the same trace served at 1x, 60x, and 3600x compresses its wall
/// schedule by exactly those factors.
#[test]
fn compression_factors_scale_the_wall_schedule_exactly() {
    // 3 records spaced one trace-hour apart.
    let records: Vec<TraceRecord> = (0..3).map(|i| rec(i * 3_600_000, i as u32)).collect();
    for (compression, want_step_ns) in [
        (1.0, 3_600_000_000_000u64),
        (60.0, 60_000_000_000),
        (3600.0, 1_000_000_000),
    ] {
        let clock = ManualClock::new();
        let registry = Registry::disabled();
        let server =
            LiveServer::new(clock.clone(), LiveConfig::new(compression), &registry).unwrap();
        let report = server.serve(vec_source(records.clone()), 0, None).unwrap();
        assert!(report.completed);
        assert_eq!(report.served, 3);
        // The pacer anchors at the first record, so total wall time is
        // exactly two compressed steps.
        assert_eq!(
            clock.now_ns(),
            2 * want_step_ns,
            "wrong wall schedule at {compression}x"
        );
    }
}

/// A stall makes the records whose deadlines passed during it late, and
/// only those: the first record whose deadline lies beyond the stall is
/// emitted exactly on time again. (A sleep-accumulation pacer would
/// shift every subsequent record by the stall instead.)
#[test]
fn drift_is_transient_under_a_stalled_world() {
    let clock = ManualClock::new();
    let registry = Registry::new();
    let records: Vec<TraceRecord> = (0..10).map(|i| rec(i * 1_000, i as u32)).collect();
    let source = StutterSource {
        inner: vec_source(records),
        clock: clock.clone(),
        stall_at_pull: 3, // 5 s stall before the t=3s record
        stall_ns: 5_000_000_000,
        pulls: 0,
    };
    let server = LiveServer::new(clock.clone(), LiveConfig::new(1.0), &registry).unwrap();
    let sink = SharedSink::default();
    server.hub().add_writer(sink.clone());
    let report = server.serve(source, 0, None).unwrap();
    assert!(report.completed);

    // Records t=3..7s were overtaken by the stall (wall was at 7 s when
    // they emitted); t=8s and t=9s are on time again, so the run ends at
    // exactly the t=9s deadline — not 9s + the 5s stall.
    assert_eq!(clock.now_ns(), 9_000_000_000);
    let snapshot = registry.snapshot();
    let lag = snapshot.histogram("cn_live_lag_ms").unwrap();
    // Worst transient lag: the t=3s record emitted at wall 7s = 4000 ms
    // late. The log2 histogram's p100 upper bound must cover it without
    // extending past the next bucket (no accumulated 5s+ drift).
    let p100 = lag.quantile_upper_bound(1.0).unwrap();
    assert!(
        (4_000..8_192).contains(&p100),
        "worst lag bucket {p100} ms inconsistent with a 4 s transient"
    );
    // And the consumer still saw every record, in order, with a clean
    // End marker: pacing trouble must never corrupt the stream.
    let captured = capture(&sink.0.lock().unwrap()[..]).unwrap();
    assert_eq!(captured.records.len(), 10);
    assert!(captured.records.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(captured.end, Some(10));
    assert_eq!(captured.verdict(0), Ok(()));
}

/// A consumer wedged in `write(2)` overflows its bounded queue: the
/// overflow must surface as one positioned gap marker plus the typed
/// `ConsumerLagged` verdict, while the delivered prefix stays in order
/// and untruncated.
#[test]
fn lagged_consumer_gets_a_positioned_gap_and_a_typed_verdict() {
    let registry = Registry::new();
    let hub = Hub::new(4, &registry);
    let sink = GatedSink::new();
    let id = hub.add_writer(sink.clone());
    assert_eq!(id, 0);
    // The writer sends the 16-byte header before its first queue pull;
    // once it is blocked there, the queue (capacity 4) fills and the
    // remaining broadcasts must drop.
    sink.await_blocked();
    for i in 0..10 {
        hub.broadcast(encode_frame(&Frame::Record(rec(i * 100, i as u32))));
    }
    sink.open();
    let reports = hub.finish(10);
    assert_eq!(reports.len(), 1);
    let report = reports[0].as_ref().unwrap();
    assert_eq!(report.dropped, 6);
    assert_eq!(
        report.verdict(),
        Err(StreamError::ConsumerLagged {
            consumer: 0,
            dropped: 6
        })
    );

    let captured = capture(&sink.out.0.lock().unwrap()[..]).unwrap();
    // Delivered prefix: the first 4 records, in broadcast order — then
    // the gap marker at exactly the loss position, then the End.
    let expected: Vec<TraceRecord> = (0..4).map(|i| rec(i * 100, i as u32)).collect();
    assert_eq!(captured.records, expected);
    assert_eq!(captured.gaps, vec![6]);
    assert_eq!(captured.end, Some(10));
    assert_eq!(
        captured.verdict(id),
        Err(StreamError::ConsumerLagged {
            consumer: 0,
            dropped: 6
        })
    );

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("cn_live_drops_total"), Some(6));
    assert_eq!(snapshot.gauge("cn_live_backlog_blocks"), Some(4));
}

/// A healthy consumer sharing the hub with a wedged one must see the
/// full stream: degradation is strictly per-consumer.
#[test]
fn a_fast_consumer_is_unaffected_by_a_lagged_one() {
    let registry = Registry::disabled();
    let hub = Hub::new(8, &registry);
    let fast = SharedSink::default();
    let fast_id = hub.add_writer(fast.clone());
    let slow = GatedSink::new();
    let slow_id = hub.add_writer(slow.clone());
    slow.await_blocked();

    // Pace broadcasts on the fast consumer's *observed* progress (its
    // writer flushes whenever its queue runs empty), so its queue depth
    // stays at 1 and it can never drop — while the wedged consumer's
    // 8-deep queue fills and then overflows deterministically.
    let total = 100u64;
    for i in 0..total {
        hub.broadcast(encode_frame(&Frame::Record(rec(i * 10, i as u32))));
        let want = 16 + (i as usize + 1) * 14;
        for _ in 0..5_000 {
            if fast.0.lock().unwrap().len() >= want {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(
            fast.0.lock().unwrap().len() >= want,
            "fast consumer stalled"
        );
    }
    slow.open();
    let reports = hub.finish(total);
    let fast_report = reports[0].as_ref().unwrap();
    let slow_report = reports[1].as_ref().unwrap();
    assert_eq!(fast_report.dropped, 0);
    assert_eq!(fast_report.verdict(), Ok(()));
    assert!(slow_report.dropped > 0);

    let captured = capture(&fast.0.lock().unwrap()[..]).unwrap();
    assert_eq!(captured.records.len(), total as usize);
    assert!(captured.records.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(captured.end, Some(total));
    assert_eq!(captured.verdict(fast_id), Ok(()));

    let slow_captured = capture(&slow.out.0.lock().unwrap()[..]).unwrap();
    assert!(slow_captured.verdict(slow_id).is_err());
    // Even the lagged stream is never reordered: what was delivered is
    // a subsequence of the broadcast order.
    assert!(slow_captured.records.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(
        slow_captured.records.len() as u64 + slow_captured.dropped(),
        total
    );
}

/// Trace-ms → wall-ns is exactly ×1000 at this factor (no float
/// rounding in the deadlines), so one quantum is 500 trace-ms.
const KILO: f64 = 1_000.0;

/// `n` records ~4 trace-ms apart: over 100 deadlines per quantum.
fn dense(n: u64) -> Vec<TraceRecord> {
    (0..n).map(|i| rec(4 * i + i % 3, i as u32)).collect()
}

/// A sink stamping every frame it is handed with the mock clock.
#[derive(Clone)]
struct StampedSink {
    clock: ManualClock,
    /// Bytes received, and the clock reading per whole frame past the
    /// 16-byte header.
    seen: Arc<Mutex<(usize, Vec<u64>)>>,
}

impl Write for StampedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut seen = self.seen.lock().unwrap();
        seen.0 += buf.len();
        let frames = seen.0.saturating_sub(16) / FRAME_BYTES;
        seen.1.resize(frames, self.clock.now_ns());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The mock clock, held back until the sink has every frame broadcast so
/// far (`cn_live_emitted_total` is bumped right after each broadcast,
/// before the next sleep): time cannot move between a block's broadcast
/// and its write, so the sink's stamps *are* the broadcast times.
struct LockstepClock {
    clock: ManualClock,
    emitted: Counter,
    sink: StampedSink,
}

impl Clock for LockstepClock {
    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn sleep_until(&self, deadline_ns: u64) {
        let want = self.emitted.get() as usize;
        for _ in 0..5_000 {
            if self.sink.seen.lock().unwrap().1.len() >= want {
                return self.clock.sleep_until(deadline_ns);
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("the writer never drained {want} broadcast frames");
    }
}

/// The quantum law on a dense stream: one sleep per quantum of
/// deadlines, no record broadcast before its own deadline, none a whole
/// quantum after it.
#[test]
fn a_dense_stream_sleeps_once_per_quantum_never_early_never_a_quantum_late() {
    let records = dense(5_000);
    let clock = ManualClock::new();
    clock.advance(12_345); // non-zero wall origin
    let registry = Registry::new();
    let sink = StampedSink {
        clock: clock.clone(),
        seen: Arc::default(),
    };
    let lockstep = LockstepClock {
        clock: clock.clone(),
        emitted: registry.counter("cn_live_emitted_total"),
        sink: sink.clone(),
    };
    let server = LiveServer::new(lockstep, LiveConfig::new(KILO), &registry).unwrap();
    server.hub().add_writer(sink.clone());
    let report = server.serve(vec_source(records.clone()), 0, None).unwrap();
    assert!(report.completed);
    assert_eq!(report.served, 5_000);

    let t0 = records[0].t.as_millis();
    let deadline = |r: &TraceRecord| 12_345 + (r.t.as_millis() - t0) * 1_000;
    let stamps = sink.seen.lock().unwrap().1.clone();
    assert_eq!(stamps.len(), 5_000 + 1, "records + the End marker");
    for (record, &sent) in records.iter().zip(&stamps) {
        let due = deadline(record);
        assert!(sent >= due, "record due {due} broadcast early, at {sent}");
        assert!(sent - due < PACE_QUANTUM_NS, "record due {due} sent {sent}");
    }
    let span = deadline(&records[4_999]) - deadline(&records[0]);
    let sleeps = clock.sleeps().len() as u64;
    assert!(sleeps <= span / PACE_QUANTUM_NS + 1, "{sleeps} sleeps");
    assert!(
        5_000 / sleeps >= 50,
        "only {} records per sleep",
        5_000 / sleeps
    );
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("cn_live_blocks_total"), Some(sleeps));
    assert_eq!(snapshot.histogram("cn_live_lag_ms").unwrap().count, 5_000);
}

/// Records a whole quantum (or more) apart are blocks of one: each gets
/// its own sleep, to exactly its own deadline.
#[test]
fn records_a_quantum_apart_each_get_their_own_sleep() {
    let quantum_ms = PACE_QUANTUM_NS / 1_000; // in trace-ms at KILO
    let times = [0, quantum_ms, 2 * quantum_ms, 5 * quantum_ms + 1];
    let records: Vec<TraceRecord> = times.iter().map(|&t| rec(t, 0)).collect();
    let clock = ManualClock::new();
    let server = LiveServer::new(clock.clone(), LiveConfig::new(KILO), &Registry::disabled());
    let report = server.unwrap().serve(vec_source(records), 0, None).unwrap();
    assert_eq!(report.served, 4);
    let deadlines: Vec<u64> = clock.sleeps().iter().map(|&(_, d)| d).collect();
    assert_eq!(deadlines, times.map(|t| t * 1_000));
}

/// A wedged consumer offered multi-frame blocks loses whole blocks only
/// — even one that would have fit in part — and the one gap marker sits
/// exactly where the first dropped block would have; the fast consumer
/// beside it sees every frame.
#[test]
fn a_lagged_consumer_loses_whole_blocks_at_a_positioned_gap() {
    const QUEUE: usize = 10;
    const BLOCK: u64 = 4;
    const BLOCKS: u64 = 6;
    let total = BLOCK * BLOCKS;
    let registry = Registry::new();
    let hub = Hub::new(QUEUE, &registry);
    let fast = SharedSink::default();
    let fast_id = hub.add_writer(fast.clone());
    let slow = GatedSink::new();
    let slow_id = hub.add_writer(slow.clone());
    slow.await_blocked();

    // Broadcast on the fast consumer's observed progress, so its queue
    // never holds more than one block; the wedged one takes two blocks
    // (8 of its 10 frames) and must drop the third whole.
    for b in 0..BLOCKS {
        let block: Vec<u8> = (b * BLOCK..(b + 1) * BLOCK)
            .flat_map(|i| encode_frame(&Frame::Record(rec(i * 10, i as u32))))
            .collect();
        hub.broadcast_block(&block);
        let want = 16 + ((b + 1) * BLOCK) as usize * FRAME_BYTES;
        for _ in 0..5_000 {
            if fast.0.lock().unwrap().len() >= want {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(fast.0.lock().unwrap().len(), want, "fast consumer stalled");
    }
    slow.open();
    let reports = hub.finish(total);
    assert_eq!(reports[fast_id].as_ref().unwrap().verdict(), Ok(()));
    assert_eq!(reports[slow_id].as_ref().unwrap().dropped, 4 * BLOCK);

    let all: Vec<TraceRecord> = (0..total).map(|i| rec(i * 10, i as u32)).collect();
    let captured = capture(&fast.0.lock().unwrap()[..]).unwrap();
    assert_eq!(captured.records, all);
    assert_eq!(captured.gaps, Vec::<u64>::new());
    assert_eq!(captured.end, Some(total));

    let wire = slow.out.0.lock().unwrap().clone();
    let captured = capture(&wire[..]).unwrap();
    assert_eq!(captured.records, all[..2 * BLOCK as usize]);
    assert_eq!(captured.gaps, vec![4 * BLOCK]);
    assert_eq!(captured.records.len() as u64 + captured.dropped(), total);
    assert_eq!(captured.end, Some(total));
    let at = 16 + 2 * BLOCK as usize * FRAME_BYTES;
    let marker: &[u8; FRAME_BYTES] = wire[at..at + FRAME_BYTES].try_into().unwrap();
    assert_eq!(decode_frame(marker).unwrap(), Frame::Gap { dropped: 16 });

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("cn_live_blocks_total"), Some(BLOCKS));
    assert_eq!(snapshot.counter("cn_live_drops_total"), Some(4 * BLOCK));
    // Two whole blocks queued; the gap + End pair may join them.
    let peak = snapshot.gauge("cn_live_backlog_blocks").unwrap();
    assert!((8..=QUEUE as u64).contains(&peak), "backlog peak {peak}");
}
