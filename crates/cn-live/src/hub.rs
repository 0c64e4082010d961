//! Fan-out to consumers over bounded queues, with honest overflow.
//!
//! The broadcaster (the serve loop) must never block on a slow consumer
//! — open-loop pacing dies the moment emission waits on the slowest
//! socket. The unit of hand-off is a **block**: a run of whole 14-byte
//! frames (the serve loop cuts one per pacing quantum, [`crate::pace`];
//! [`Hub::broadcast`] is the one-frame block). Each consumer gets one
//! bounded byte queue (`queue_frames × 14` bytes) drained by its own
//! writer thread, which swaps everything pending out and hands it to the
//! sink in one `write_all` — so a block costs one lock, at most one wake
//! and one socket write, however many frames it carries. The
//! broadcaster appends a block only if it fits:
//!
//! * it fits → the block is queued whole; the high-watermark gauge
//!   `cn_live_backlog_blocks` tracks the deepest any queue has been, in
//!   queued 14-byte **frames** (the name predates the block unit);
//!   per-consumer twins (`cn_live_consumer_backlog_blocks`,
//!   `cn_live_consumer_drops_total`, `cn_live_consumer_frames_total`,
//!   all labeled `{consumer="id"}`) are registered at accept time so
//!   `/status` can say *which* consumer is the slow one — the
//!   broadcaster-wide totals are kept unchanged alongside, and
//!   `cn_live_blocks_total` counts blocks broadcast (the wake rate);
//! * it does not → the whole block is **dropped for that consumer
//!   only** (never split: drops arrive a block at a time), its frames
//!   counted in `cn_live_drops_total` and folded into a pending gap
//!   marker that is queued ahead of the next block that fits — so the
//!   gap appears on the wire at exactly the position the loss happened
//!   and the consumer's verdict becomes the typed
//!   [`StreamError::ConsumerLagged`]. Degradation is per-consumer,
//!   explicit, and position-accurate; never a silently shorter stream.
//!
//! Consumers whose writer has exited (disconnect, sink error) are
//! skipped. On clean source exhaustion [`Hub::finish`] queues pending
//! gaps and an End marker to every live consumer (with a bounded
//! patience budget so a wedged socket cannot hang shutdown);
//! [`Hub::abort`] closes the queues as-is, which writers observe as a
//! close without an End marker — the wire-level signal for "server
//! stopped mid-stream, resume from the checkpoint".

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
    pub(crate) consumer: usize,
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

/// One consumer's byte queue, shared by the broadcaster (appends whole
/// blocks) and the writer thread (swaps everything pending out).
#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    /// Signalled when `pending` turns non-empty or the queue closes.
    ready: Condvar,
}

impl Queue {
    /// No update leaves the state torn, so it is as good after a panic
    /// elsewhere as before: poisoning is ignored (and `Drop` may lock).
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Default)]
struct QueueState {
    /// Whole frames accepted and not yet taken by the writer.
    pending: Vec<u8>,
    /// Record frames dropped for this consumer so far (the writer's
    /// final report carries it).
    dropped: u64,
    /// The hub let go of the consumer: drain `pending`, then exit.
    closed: bool,
}

struct ConsumerSlot {
    queue: Arc<Queue>,
    /// Drops not yet announced on the wire; folded into one gap marker
    /// queued ahead of the next block that fits.
    pending_gap: u64,
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

impl ConsumerSlot {
    /// The writer thread holds the only other handle on the queue, so a
    /// lone reference means it has exited (disconnect, sink error).
    fn alive(&self) -> bool {
        Arc::strong_count(&self.queue) > 1
    }
}

impl Drop for ConsumerSlot {
    /// Letting go of a slot closes its queue: the writer drains what is
    /// pending and exits.
    fn drop(&mut self) {
        self.queue.lock().closed = true;
        self.queue.ready.notify_one();
    }
}

/// Handle on one consumer's writer thread.
pub(crate) struct ConsumerHandle {
    consumer: usize,
    join: JoinHandle<Result<ConsumerReport, StreamError>>,
}

impl ConsumerHandle {
    /// Wait for the writer to wind down and return its report. A panic
    /// in the writer surfaces as the containment-contract
    /// [`StreamError::WorkerPanicked`].
    pub(crate) fn join(self) -> Result<ConsumerReport, StreamError> {
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
    /// Per-consumer queue bound, `queue_frames × 14`.
    queue_bytes: usize,
    next_id: AtomicUsize,
    blocks_total: Counter,
    drops_total: Counter,
    backlog: Gauge,
    /// Kept so per-consumer series can be registered at accept time —
    /// consumer ids are only known then, not at hub construction.
    registry: Registry,
}

impl Hub {
    /// A hub whose per-consumer queues hold `queue_frames` frames.
    /// Metrics (`cn_live_blocks_total`, `cn_live_drops_total`,
    /// `cn_live_backlog_blocks`, and the per-consumer
    /// `cn_live_consumer_*{consumer="id"}` series registered on accept)
    /// land in `registry`.
    pub fn new(queue_frames: usize, registry: &Registry) -> Hub {
        debug_assert!(queue_frames > 0, "unvalidated zero queue depth");
        Hub {
            consumers: Mutex::new(Vec::new()),
            handles: Mutex::new(Vec::new()),
            queue_bytes: queue_frames.max(1) * FRAME_BYTES,
            next_id: AtomicUsize::new(0),
            blocks_total: registry.counter("cn_live_blocks_total"),
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
        let queue = Arc::new(Queue::default());
        let slot = ConsumerSlot {
            queue: Arc::clone(&queue),
            pending_gap: 0,
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
        let join = std::thread::spawn(move || writer_loop(id, sink, &queue, &frames_total));
        self.consumers.lock().unwrap().push(slot);
        self.handles
            .lock()
            .unwrap()
            .push(ConsumerHandle { consumer: id, join });
        id
    }

    /// Consumers attached whose writer is still running.
    pub fn consumer_count(&self) -> usize {
        let consumers = self.consumers.lock().unwrap();
        consumers.iter().filter(|s| s.alive()).count()
    }

    /// Offer one record frame to every live consumer (never blocks):
    /// the one-frame block.
    pub fn broadcast(&self, frame: [u8; FRAME_BYTES]) {
        self.broadcast_block(&frame);
    }

    /// Offer a block of whole record frames to every live consumer
    /// (never blocks). Each consumer queues the block whole or drops it
    /// whole; an empty block is a no-op.
    pub fn broadcast_block(&self, block: &[u8]) {
        debug_assert!(block.len().is_multiple_of(FRAME_BYTES), "torn block");
        if block.is_empty() {
            return;
        }
        self.blocks_total.inc();
        let frames = (block.len() / FRAME_BYTES) as u64;
        for slot in self.consumers.lock().unwrap().iter_mut() {
            if slot.alive() && !self.try_queue(slot, block) {
                slot.pending_gap += frames;
                slot.queue.lock().dropped += frames;
                self.drops_total.add(frames);
                slot.drops.add(frames);
            }
        }
    }

    /// Queue `frames` for one consumer if they fit, behind a marker for
    /// any pending gap — queued as one unit, so the marker lands on the
    /// wire at the exact position the drops happened.
    fn try_queue(&self, slot: &mut ConsumerSlot, frames: &[u8]) -> bool {
        let gap = encode_frame(&Frame::Gap {
            dropped: slot.pending_gap,
        });
        let marker = if slot.pending_gap > 0 { &gap[..] } else { &[] };
        let mut state = slot.queue.lock();
        if state.pending.len() + marker.len() + frames.len() > self.queue_bytes {
            return false;
        }
        // The writer only waits on an empty queue, so only the push that
        // ends the emptiness has anyone to wake.
        let wake = state.pending.is_empty();
        state.pending.extend_from_slice(marker);
        state.pending.extend_from_slice(frames);
        let depth = (state.pending.len() / FRAME_BYTES) as u64;
        drop(state);
        if wake {
            slot.queue.ready.notify_one();
        }
        slot.pending_gap = 0;
        self.backlog.record_max(depth);
        slot.backlog.record_max(depth);
        true
    }

    /// Clean end of stream: queue any pending gap and the End marker at
    /// watermark `emitted` — retrying with a bounded patience budget, so
    /// one wedged consumer cannot hang shutdown — then close all queues
    /// and join the writers. Reports come back in accept order.
    pub fn finish(&self, emitted: u64) -> Vec<Result<ConsumerReport, StreamError>> {
        let end = encode_frame(&Frame::End { emitted });
        {
            let mut consumers = self.consumers.lock().unwrap();
            for slot in consumers.iter_mut() {
                for _ in 0..FINISH_PATIENCE_MS {
                    if !slot.alive() || self.try_queue(slot, &end) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            consumers.clear(); // close the queues: writers drain and exit
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

/// One consumer's writer: header first, then take everything pending in
/// one swap and hand it to the sink in one write, until the hub closes
/// the queue and it has drained.
fn writer_loop<W: Write>(
    id: usize,
    mut sink: W,
    queue: &Queue,
    frames_total: &Counter,
) -> Result<ConsumerReport, StreamError> {
    let mut header = [0u8; 16];
    header[..8].copy_from_slice(BINARY_MAGIC);
    sink.write_all(&header).map_err(io_err("live-header"))?;
    sink.flush().map_err(io_err("live-flush"))?;
    let mut frames_written = 0u64;
    // Swapped against `pending` each round, so both buffers keep their
    // capacity and steady state allocates nothing.
    let mut taken = Vec::new();
    loop {
        let mut state = queue.lock();
        while state.pending.is_empty() && !state.closed {
            let woken = queue.ready.wait(state);
            state = woken.unwrap_or_else(PoisonError::into_inner);
        }
        if state.pending.is_empty() {
            return Ok(ConsumerReport {
                consumer: id,
                frames_written,
                dropped: state.dropped,
            });
        }
        std::mem::swap(&mut state.pending, &mut taken);
        drop(state);
        sink.write_all(&taken).map_err(io_err("live-write"))?;
        sink.flush().map_err(io_err("live-flush"))?;
        let frames = (taken.len() / FRAME_BYTES) as u64;
        frames_written += frames;
        frames_total.add(frames);
        taken.clear();
    }
}
