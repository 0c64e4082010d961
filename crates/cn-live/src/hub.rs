//! Fan-out to consumers over bounded queues, with honest overflow.
//!
//! The broadcaster (the serve loop) must never block on a slow consumer
//! — open-loop pacing dies the moment emission waits on the slowest
//! socket. Each consumer therefore gets a bounded frame queue
//! ([`std::sync::mpsc::sync_channel`]) drained by its own writer thread,
//! and the broadcaster only ever `try_send`s:
//!
//! * queue has room → the frame is enqueued; the high-watermark gauge
//!   `cn_live_backlog_blocks` tracks the deepest any queue has been
//!   (one block = one queued 14-byte frame);
//!   per-consumer twins (`cn_live_consumer_backlog_blocks`,
//!   `cn_live_consumer_drops_total`, `cn_live_consumer_frames_total`,
//!   all labeled `{consumer="id"}`) are registered at accept time so
//!   `/status` can say *which* consumer is the slow one — the
//!   broadcaster-wide totals are kept unchanged alongside;
//! * queue is full → the frame is **dropped for that consumer only**,
//!   counted in `cn_live_drops_total`, and folded into a pending gap
//!   marker that is enqueued at the next opportunity — so the gap
//!   appears on the wire at exactly the position the loss happened and
//!   the consumer's verdict becomes the typed
//!   [`StreamError::ConsumerLagged`]. Degradation is per-consumer,
//!   explicit, and position-accurate; never a silently shorter stream.
//!
//! Consumers that disconnect are marked dead and skipped. On clean
//! source exhaustion [`Hub::finish`] flushes pending gaps and an End
//! marker to every live consumer (with a bounded patience budget so a
//! wedged socket cannot hang shutdown); [`Hub::abort`] drops the queues
//! as-is, which writers observe as a close without an End marker — the
//! wire-level signal for "server stopped mid-stream, resume from the
//! checkpoint".

use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cn_obs::{Counter, Gauge, Registry};
use cn_trace::io::BINARY_MAGIC;
use cn_trace::StreamError;

use crate::frame::{encode_frame, Frame, FRAME_BYTES};

/// How long `finish` will wait on one full consumer queue before giving
/// the consumer up (1 ms per retry).
const FINISH_PATIENCE_MS: u32 = 5_000;

/// What one consumer's writer saw by the time its connection wound down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsumerReport {
    /// The consumer's id (accept order, starting at 0).
    pub consumer: usize,
    /// Frames actually written to the sink (records + markers).
    pub frames_written: u64,
    /// Record frames dropped for this consumer by queue overflow.
    pub dropped: u64,
}

impl ConsumerReport {
    /// Typed verdict: a consumer that lost frames did not receive the
    /// stream, and that is an error, not a footnote.
    pub fn verdict(&self) -> Result<(), StreamError> {
        match self.dropped {
            0 => Ok(()),
            dropped => Err(StreamError::ConsumerLagged {
                consumer: self.consumer,
                dropped,
            }),
        }
    }
}

struct ConsumerSlot {
    tx: SyncSender<[u8; FRAME_BYTES]>,
    /// Frames currently queued (incremented on send, decremented by the
    /// writer on receive) — feeds the backlog high-watermark gauge.
    inflight: Arc<AtomicU64>,
    /// Total record frames dropped for this consumer (shared with the
    /// writer so the final report carries it).
    dropped: Arc<AtomicU64>,
    /// Drops not yet announced on the wire; folded into one gap marker
    /// enqueued at the next successful send.
    pending_gap: u64,
    dead: bool,
    /// `cn_live_consumer_drops_total{consumer="id"}` — this consumer's
    /// own drop series (the unlabeled total is kept alongside).
    drops: Counter,
    /// `cn_live_consumer_backlog_blocks{consumer="id"}` — this
    /// consumer's queue-depth high watermark. Per-consumer *lag* is this
    /// backlog: emission lag (`cn_live_lag_ms`) is broadcaster-wide by
    /// construction, and a consumer falls behind exactly by letting its
    /// queue deepen.
    backlog: Gauge,
}

/// Handle on one consumer's writer thread.
pub struct ConsumerHandle {
    consumer: usize,
    join: JoinHandle<Result<ConsumerReport, StreamError>>,
}

impl ConsumerHandle {
    /// The consumer's id (accept order).
    pub fn consumer(&self) -> usize {
        self.consumer
    }

    /// Wait for the writer to wind down and return its report. A panic
    /// in the writer surfaces as the containment-contract
    /// [`StreamError::WorkerPanicked`].
    pub fn join(self) -> Result<ConsumerReport, StreamError> {
        let consumer = self.consumer;
        self.join.join().unwrap_or_else(|payload| {
            let payload = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(StreamError::WorkerPanicked {
                shard: consumer,
                payload,
            })
        })
    }
}

/// The broadcaster side of the live service.
pub struct Hub {
    consumers: Mutex<Vec<ConsumerSlot>>,
    handles: Mutex<Vec<ConsumerHandle>>,
    queue_frames: usize,
    next_id: AtomicUsize,
    drops_total: Counter,
    backlog: Gauge,
    /// Kept so per-consumer series can be registered at accept time —
    /// consumer ids are only known then, not at hub construction.
    registry: Registry,
}

impl Hub {
    /// A hub whose per-consumer queues hold `queue_frames` frames.
    /// Metrics (`cn_live_drops_total`, `cn_live_backlog_blocks`, and
    /// the per-consumer `cn_live_consumer_*{consumer="id"}` series
    /// registered on accept) land in `registry`.
    pub fn new(queue_frames: usize, registry: &Registry) -> Hub {
        debug_assert!(queue_frames > 0, "unvalidated zero queue depth");
        Hub {
            consumers: Mutex::new(Vec::new()),
            handles: Mutex::new(Vec::new()),
            queue_frames: queue_frames.max(1),
            next_id: AtomicUsize::new(0),
            drops_total: registry.counter("cn_live_drops_total"),
            backlog: registry.gauge("cn_live_backlog_blocks"),
            registry: registry.clone(),
        }
    }

    /// Attach a consumer; its writer thread immediately sends the live
    /// stream header and then drains the queue into `sink`. Returns the
    /// consumer id (accept order).
    pub fn add_writer<W: Write + Send + 'static>(&self, sink: W) -> usize {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let id_str = id.to_string();
        let consumer_label: [(&str, &str); 1] = [("consumer", id_str.as_str())];
        let (tx, rx) = std::sync::mpsc::sync_channel::<[u8; FRAME_BYTES]>(self.queue_frames);
        let inflight = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        let slot = ConsumerSlot {
            tx,
            inflight: Arc::clone(&inflight),
            dropped: Arc::clone(&dropped),
            pending_gap: 0,
            dead: false,
            drops: self
                .registry
                .counter_with("cn_live_consumer_drops_total", &consumer_label),
            backlog: self
                .registry
                .gauge_with("cn_live_consumer_backlog_blocks", &consumer_label),
        };
        let frames_total = self
            .registry
            .counter_with("cn_live_consumer_frames_total", &consumer_label);
        let join =
            std::thread::spawn(move || writer_loop(id, sink, rx, inflight, dropped, frames_total));
        self.consumers.lock().unwrap().push(slot);
        self.handles
            .lock()
            .unwrap()
            .push(ConsumerHandle { consumer: id, join });
        id
    }

    /// Consumers attached and not yet observed dead.
    pub fn consumer_count(&self) -> usize {
        self.consumers
            .lock()
            .unwrap()
            .iter()
            .filter(|s| !s.dead)
            .count()
    }

    /// Offer one record frame to every live consumer (never blocks).
    pub fn broadcast(&self, frame: [u8; FRAME_BYTES]) {
        let mut consumers = self.consumers.lock().unwrap();
        for slot in consumers.iter_mut() {
            if slot.dead {
                continue;
            }
            self.offer(slot, frame);
        }
    }

    /// Try to deliver `frame` to one consumer, gap bookkeeping included.
    fn offer(&self, slot: &mut ConsumerSlot, frame: [u8; FRAME_BYTES]) {
        // A pending gap marker goes first so it lands on the wire at the
        // exact position the drops happened.
        if slot.pending_gap > 0 {
            let gap = encode_frame(&Frame::Gap {
                dropped: slot.pending_gap,
            });
            match self.try_deliver(slot, gap) {
                Ok(()) => slot.pending_gap = 0,
                Err(TrySendError::Full(_)) => {
                    // Still no room: the record joins the gap.
                    self.drop_frame(slot);
                    return;
                }
                Err(TrySendError::Disconnected(_)) => {
                    slot.dead = true;
                    return;
                }
            }
        }
        match self.try_deliver(slot, frame) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => self.drop_frame(slot),
            Err(TrySendError::Disconnected(_)) => slot.dead = true,
        }
    }

    /// `try_send` with backlog accounting. The depth counter is bumped
    /// *before* the frame becomes visible to the writer (and undone on
    /// failure) — counting after the send races the writer's decrement
    /// and could wrap the counter below zero.
    fn try_deliver(
        &self,
        slot: &ConsumerSlot,
        frame: [u8; FRAME_BYTES],
    ) -> Result<(), TrySendError<[u8; FRAME_BYTES]>> {
        slot.inflight.fetch_add(1, Ordering::AcqRel);
        match slot.tx.try_send(frame) {
            Ok(()) => {
                let depth = slot.inflight.load(Ordering::Acquire);
                self.backlog.record_max(depth);
                slot.backlog.record_max(depth);
                Ok(())
            }
            Err(e) => {
                slot.inflight.fetch_sub(1, Ordering::AcqRel);
                Err(e)
            }
        }
    }

    fn drop_frame(&self, slot: &mut ConsumerSlot) {
        slot.pending_gap += 1;
        slot.dropped.fetch_add(1, Ordering::AcqRel);
        self.drops_total.inc();
        slot.drops.inc();
    }

    /// Blocking-ish send used only at stream end, with a bounded
    /// patience budget so one wedged consumer cannot hang shutdown.
    fn send_patiently(&self, slot: &mut ConsumerSlot, frame: [u8; FRAME_BYTES]) -> bool {
        for _ in 0..FINISH_PATIENCE_MS {
            match self.try_deliver(slot, frame) {
                Ok(()) => return true,
                Err(TrySendError::Full(_)) => std::thread::sleep(Duration::from_millis(1)),
                Err(TrySendError::Disconnected(_)) => {
                    slot.dead = true;
                    return false;
                }
            }
        }
        slot.dead = true;
        false
    }

    /// Clean end of stream: flush any pending gap, send the End marker
    /// at watermark `emitted`, close all queues, and join the writers.
    /// Reports come back in accept order.
    pub fn finish(&self, emitted: u64) -> Vec<Result<ConsumerReport, StreamError>> {
        {
            let mut consumers = self.consumers.lock().unwrap();
            for i in 0..consumers.len() {
                let slot = &mut consumers[i];
                if slot.dead {
                    continue;
                }
                if slot.pending_gap > 0 {
                    let gap = encode_frame(&Frame::Gap {
                        dropped: slot.pending_gap,
                    });
                    if !self.send_patiently(slot, gap) {
                        continue;
                    }
                    slot.pending_gap = 0;
                }
                let end = encode_frame(&Frame::End { emitted });
                self.send_patiently(slot, end);
            }
            consumers.clear(); // drop senders: writers drain and exit
        }
        self.join_all()
    }

    /// Abrupt stop (kill/stop-after): close all queues *without* an End
    /// marker. Writers flush what was already queued, so consumers see a
    /// valid zero-count (recoverable) stream that simply ends — the
    /// signal to resume from the checkpoint.
    pub fn abort(&self) -> Vec<Result<ConsumerReport, StreamError>> {
        self.consumers.lock().unwrap().clear();
        self.join_all()
    }

    fn join_all(&self) -> Vec<Result<ConsumerReport, StreamError>> {
        let handles: Vec<ConsumerHandle> = std::mem::take(&mut *self.handles.lock().unwrap());
        handles.into_iter().map(ConsumerHandle::join).collect()
    }
}

fn io_err(stage: &'static str) -> impl Fn(std::io::Error) -> StreamError {
    move |e| StreamError::Io {
        stage,
        message: e.to_string(),
    }
}

/// One consumer's writer: header first, then drain the queue until the
/// hub closes it, flushing whenever the queue runs momentarily empty so
/// paced (slow) streams still reach the socket promptly.
fn writer_loop<W: Write>(
    id: usize,
    sink: W,
    rx: Receiver<[u8; FRAME_BYTES]>,
    inflight: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
    frames_total: Counter,
) -> Result<ConsumerReport, StreamError> {
    let mut out = BufWriter::new(sink);
    out.write_all(BINARY_MAGIC).map_err(io_err("live-header"))?;
    out.write_all(&0u64.to_le_bytes())
        .map_err(io_err("live-header"))?;
    let mut frames_written = 0u64;
    let mut write = |out: &mut BufWriter<W>, frame: [u8; FRAME_BYTES]| {
        inflight.fetch_sub(1, Ordering::AcqRel);
        frames_written += 1;
        frames_total.inc();
        out.write_all(&frame).map_err(io_err("live-write"))
    };
    loop {
        match rx.try_recv() {
            Ok(frame) => write(&mut out, frame)?,
            Err(TryRecvError::Empty) => {
                out.flush().map_err(io_err("live-flush"))?;
                match rx.recv() {
                    Ok(frame) => write(&mut out, frame)?,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        }
    }
    out.flush().map_err(io_err("live-flush"))?;
    Ok(ConsumerReport {
        consumer: id,
        frames_written,
        dropped: dropped.load(Ordering::Acquire),
    })
}
