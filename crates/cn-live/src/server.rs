//! The live server: pull → pace → broadcast, with stop and resume.
//!
//! [`LiveServer::serve`] drives one [`RecordSource`] to exhaustion (or
//! to a stop) a **quantum block** at a time: it gathers every record
//! whose absolute wall deadline lies within one pacing quantum of the
//! block's first, sleeps once until the last of them, and fans the
//! encoded frames out through the [`Hub`] in one hand-off — no record
//! leaves early, none more than a quantum late (the law and the trade
//! are in [`crate::pace`]). TCP consumers attach through
//! [`LiveServer::bind`]'s acceptor thread; in-process consumers (tests,
//! pipes) attach straight to the hub.
//!
//! ### Failure and stop semantics
//!
//! * Source exhausted → consumers get pending gaps + an End marker,
//!   `LiveReport::completed = true`.
//! * `stop_after` watermark reached →
//!   [`Hub::abort`]: consumers see a clean close with no End marker and
//!   the final checkpoint carries the exact watermark (resume is
//!   byte-exact).
//! * Source fault (worker panic, I/O) → the block gathered so far is
//!   emitted, then the typed [`StreamError`] is returned and consumers
//!   see the no-End close; the stream never poses as complete.
//!
//! ### Metrics (`registry` handed to [`LiveServer::new`])
//!
//! * `cn_live_emitted_total` — records broadcast (counter);
//! * `cn_live_blocks_total` — blocks broadcast (counter): `emitted /
//!   blocks` is frames per block, blocks per second the wake rate;
//! * `cn_live_lag_ms` — per-record emission lag behind the absolute
//!   deadline (histogram; transient by construction, see [`Pacer`]);
//! * `cn_live_backlog_blocks` — deepest any consumer queue has been,
//!   in queued frames (high-watermark gauge);
//! * `cn_live_drops_total` — record frames dropped across all consumers
//!   (counter);
//! * `cn_live_consumer_{frames_total,drops_total,backlog_blocks}` with
//!   `{consumer="id"}` — the per-consumer split, registered on accept.
//!
//! ### Introspection ([`LiveServer::mount_introspection`])
//!
//! An optional HTTP scrape listener (`/metrics`, `/status`,
//! `/recorder`) plus a [`FlightRecorder`] sampling the registry in the
//! background; with a forensics path configured, a serve that fails or
//! stops short of exhaustion dumps its last minute of telemetry to
//! disk before returning (and, with the panic hook, so does a crash).

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cn_obs::recorder::{FlightRecorder, RecorderConfig};
use cn_obs::{Counter, Histogram, IntrospectionServer, Registry};
use cn_trace::{RecordSource, StreamError, TraceRecord};

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::clock::Clock;
use crate::frame::{encode_frame, Frame};
use crate::hub::{ConsumerReport, Hub};
use crate::pace::{Pacer, PACE_QUANTUM_NS};

/// Most frames one block carries, whatever the quantum holds (a block
/// is also never larger than the consumer queue, or it could not be
/// queued at all). Reached only past ~2 M records per wall second, where
/// the pacer no longer sleeps; it keeps the gather buffer at 14 KiB and
/// lets an effectively unpaced serve hand over as it goes.
const MAX_BLOCK_FRAMES: usize = 1024;

/// Tuning for one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveConfig {
    /// Trace-time over wall-time ratio (`wall = trace / compression`):
    /// `1.0` replays in real time, `3600.0` serves an hour of trace per
    /// wall second. Must be finite and positive.
    pub compression: f64,
    /// Per-consumer queue depth in frames (bounded back-pressure
    /// buffer). Must be non-zero.
    pub queue_frames: usize,
    /// Write a checkpoint every N emitted records (`0` = only the final
    /// one). Periodic checkpoints are at-least-once across a kill; the
    /// final one on a graceful stop is exact.
    pub checkpoint_every: u64,
    /// Stop serving once the cumulative watermark reaches this count
    /// (kill-simulation / drain drills). `None` = serve to exhaustion.
    pub stop_after: Option<u64>,
}

impl LiveConfig {
    /// Defaults: `queue_frames = 4096`, final-checkpoint-only, serve to
    /// exhaustion.
    pub fn new(compression: f64) -> LiveConfig {
        LiveConfig {
            compression,
            queue_frames: 4096,
            checkpoint_every: 0,
            stop_after: None,
        }
    }

    fn validate(&self) -> Result<(), LiveError> {
        if !self.compression.is_finite() || self.compression <= 0.0 {
            return Err(LiveError::InvalidCompression(self.compression));
        }
        if self.queue_frames == 0 {
            return Err(LiveError::ZeroQueue);
        }
        Ok(())
    }
}

/// Typed failures of the live service.
#[derive(Debug)]
pub enum LiveError {
    /// `compression` was NaN, infinite, zero, or negative.
    InvalidCompression(f64),
    /// `queue_frames` was zero (a zero-capacity rendezvous queue would
    /// make every broadcast a drop).
    ZeroQueue,
    /// The record source faulted (containment contract: the typed error
    /// is propagated, never swallowed).
    Stream(StreamError),
    /// A checkpoint could not be written or read.
    Checkpoint(CheckpointError),
    /// Binding or configuring the TCP listener failed.
    Bind(String),
    /// The introspection plane (HTTP listener or flight recorder)
    /// could not be set up.
    Introspection(String),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::InvalidCompression(c) => {
                write!(f, "invalid compression factor {c} (need finite > 0)")
            }
            LiveError::ZeroQueue => write!(f, "consumer queue depth must be non-zero"),
            LiveError::Stream(e) => write!(f, "record source failed: {e}"),
            LiveError::Checkpoint(e) => write!(f, "{e}"),
            LiveError::Bind(msg) => write!(f, "listener setup failed: {msg}"),
            LiveError::Introspection(msg) => {
                write!(f, "introspection plane setup failed: {msg}")
            }
        }
    }
}

impl std::error::Error for LiveError {}

impl From<StreamError> for LiveError {
    fn from(e: StreamError) -> Self {
        LiveError::Stream(e)
    }
}

impl From<CheckpointError> for LiveError {
    fn from(e: CheckpointError) -> Self {
        LiveError::Checkpoint(e)
    }
}

/// What one serve run did.
#[derive(Debug)]
pub struct LiveReport {
    /// Cumulative watermark (includes any resumed prefix).
    pub emitted: u64,
    /// Records actually broadcast by *this* run.
    pub served: u64,
    /// Records fast-forwarded past on resume (not paced, not sent).
    pub skipped: u64,
    /// Whether the source ran to exhaustion (End marker sent).
    pub completed: bool,
    /// Per-consumer outcomes in accept order.
    pub consumers: Vec<Result<ConsumerReport, StreamError>>,
}

/// How a serve run exposes itself at runtime; see
/// [`LiveServer::mount_introspection`].
#[derive(Debug, Clone)]
pub struct IntrospectionConfig {
    /// Address for the HTTP scrape listener (`"127.0.0.1:0"` lets the
    /// OS pick a port; the bound address is returned by mount).
    pub(crate) addr: String,
    /// Flight-recorder tuning (sampling interval, ring size, optional
    /// JSONL path with rotation).
    pub recorder: RecorderConfig,
    /// Where a failure dump lands: a serve that errors or stops before
    /// exhaustion writes the recorder's ring plus a terminal snapshot
    /// here. `None` = no forensics on failure.
    pub forensics_path: Option<PathBuf>,
    /// Also chain a process panic hook that writes the same dump (only
    /// meaningful with `forensics_path` set).
    pub(crate) panic_hook: bool,
}

impl IntrospectionConfig {
    /// Ephemeral localhost port, default recorder, no forensics.
    pub fn new() -> IntrospectionConfig {
        IntrospectionConfig {
            addr: "127.0.0.1:0".to_string(),
            recorder: RecorderConfig::default(),
            forensics_path: None,
            panic_hook: false,
        }
    }
}

impl Default for IntrospectionConfig {
    fn default() -> IntrospectionConfig {
        IntrospectionConfig::new()
    }
}

struct IntrospectionState {
    http: IntrospectionServer,
    recorder: FlightRecorder,
    forensics_path: Option<PathBuf>,
}

/// A wall-clock-paced traffic server over one generation-engine stream.
pub struct LiveServer<C: Clock> {
    clock: C,
    cfg: LiveConfig,
    hub: Arc<Hub>,
    registry: Registry,
    emitted_total: Counter,
    lag_ms: Histogram,
    stop: Arc<AtomicBool>,
    introspection: Mutex<Option<IntrospectionState>>,
}

impl<C: Clock> LiveServer<C> {
    /// Validate `cfg` and set up the hub and metrics.
    pub fn new(clock: C, cfg: LiveConfig, registry: &Registry) -> Result<LiveServer<C>, LiveError> {
        cfg.validate()?;
        Ok(LiveServer {
            hub: Arc::new(Hub::new(cfg.queue_frames, registry)),
            registry: registry.clone(),
            emitted_total: registry.counter("cn_live_emitted_total"),
            lag_ms: registry.histogram("cn_live_lag_ms"),
            stop: Arc::new(AtomicBool::new(false)),
            introspection: Mutex::new(None),
            clock,
            cfg,
        })
    }

    /// Mount the runtime introspection plane next to the traffic port:
    /// start a [`FlightRecorder`] over this server's registry and an
    /// HTTP listener serving `/metrics`, `/status`, and `/recorder`.
    /// Returns the listener's bound address. With a `forensics_path`
    /// configured, a serve run that fails (source fault) or stops short
    /// of exhaustion (kill drill) dumps the
    /// ring plus a terminal snapshot there before returning — and with
    /// `panic_hook`, so does a crash.
    pub fn mount_introspection(&self, cfg: IntrospectionConfig) -> Result<SocketAddr, LiveError> {
        let recorder = FlightRecorder::start(&self.registry, cfg.recorder)
            .map_err(|e| LiveError::Introspection(format!("flight recorder: {e}")))?;
        let http = IntrospectionServer::bind(&cfg.addr, &self.registry, Some(recorder.clone()))
            .map_err(|e| LiveError::Introspection(format!("http listener: {e}")))?;
        if cfg.panic_hook {
            if let Some(path) = &cfg.forensics_path {
                recorder.install_panic_hook(path);
            }
        }
        let addr = http.local_addr();
        *self.introspection.lock().unwrap() = Some(IntrospectionState {
            http,
            recorder,
            forensics_path: cfg.forensics_path,
        });
        Ok(addr)
    }

    /// The mounted flight recorder, if [`LiveServer::mount_introspection`]
    /// ran (for in-process status readers like `examples/live_replay`).
    pub fn recorder(&self) -> Option<FlightRecorder> {
        self.introspection
            .lock()
            .unwrap()
            .as_ref()
            .map(|s| s.recorder.clone())
    }

    /// Write the forensics dump now (no-op unless introspection is
    /// mounted with a forensics path). The serve loop calls this on its
    /// failure paths.
    pub(crate) fn dump_forensics(&self) {
        let state = self.introspection.lock().unwrap();
        if let Some(state) = state.as_ref() {
            if let Some(path) = &state.forensics_path {
                if let Err(e) = state.recorder.dump_forensics(path) {
                    eprintln!("cn-live: forensics dump to {} failed: {e}", path.display());
                }
            }
        }
    }

    /// The fan-out hub, for attaching in-process consumers directly
    /// (tests, pipes) via [`Hub::add_writer`].
    pub fn hub(&self) -> &Arc<Hub> {
        &self.hub
    }

    /// Bind a TCP listener and spawn the acceptor thread: every
    /// connection becomes a hub consumer receiving the stream from its
    /// moment of attachment onward. Returns the bound address (use port
    /// 0 to let the OS pick). The acceptor winds down when the serve
    /// run ends.
    pub fn bind(&self, addr: &str) -> Result<SocketAddr, LiveError> {
        let listener = TcpListener::bind(addr).map_err(|e| LiveError::Bind(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| LiveError::Bind(e.to_string()))?;
        let local = listener
            .local_addr()
            .map_err(|e| LiveError::Bind(e.to_string()))?;
        let hub = Arc::clone(&self.hub);
        let stop = Arc::clone(&self.stop);
        std::thread::spawn(move || accept_loop(&listener, &hub, &stop));
        Ok(local)
    }

    /// Serve `source` to all attached consumers.
    ///
    /// `resume_from` fast-forwards past that many records without pacing
    /// or sending them (the watermark from a [`Checkpoint`]); the pacing
    /// origin re-anchors at the first record actually served, so a
    /// resume never tries to "catch up" wall time the dead server lost.
    /// `checkpoint` is an optional `(path, template)` pair: progress is
    /// saved there with the template's config/scenario/compression and
    /// the live watermark.
    pub fn serve<S: RecordSource>(
        &self,
        source: S,
        resume_from: u64,
        checkpoint: Option<(PathBuf, Checkpoint)>,
    ) -> Result<LiveReport, LiveError> {
        let trace = cn_obs::trace::global();
        let _serve_span = cn_obs::Span::start_traced(&self.registry, "cn_live_serve_ns", &trace);
        let result = self.serve_inner(source, resume_from, checkpoint);
        // A failed serve — source fault *or* a stop short of exhaustion
        // (kill drill, operator stop) — leaves its last minute of
        // telemetry on disk before anyone tears the process down.
        let failed = match &result {
            Err(_) => true,
            Ok(report) => !report.completed,
        };
        if failed {
            self.dump_forensics();
        }
        result
    }

    fn serve_inner<S: RecordSource>(
        &self,
        mut source: S,
        resume_from: u64,
        checkpoint: Option<(PathBuf, Checkpoint)>,
    ) -> Result<LiveReport, LiveError> {
        let save = |emitted: u64| -> Result<(), LiveError> {
            if let Some((path, template)) = &checkpoint {
                Checkpoint {
                    emitted,
                    ..template.clone()
                }
                .save(path)?;
            }
            Ok(())
        };
        let every = self.cfg.checkpoint_every;
        let block_frames = self.cfg.queue_frames.min(MAX_BLOCK_FRAMES) as u64;
        let mut emitted = resume_from;
        let mut skipped = 0u64;
        let mut served = 0u64;
        let mut pacer: Option<Pacer> = None;
        // One quantum block: its encoded frames, each record's deadline,
        // and the first record past the quantum, held for the next block.
        let mut block: Vec<u8> = Vec::new();
        let mut deadlines: Vec<u64> = Vec::new();
        let mut held: Option<TraceRecord> = None;
        let completed = loop {
            if self.stop.load(Ordering::SeqCst) {
                break false;
            }
            // Blocks are cut at every watermark someone can observe —
            // `stop_after` and each `checkpoint_every` multiple — so
            // checkpoints and the resume splice stay exact to the record.
            let mut room = block_frames;
            if let Some(n) = self.cfg.stop_after {
                room = room.min(n.saturating_sub(emitted));
            }
            if every != 0 {
                room = room.min(every - emitted % every);
            }
            if room == 0 {
                break false; // `stop_after` reached
            }
            block.clear();
            deadlines.clear();
            // How the gather ended: `Ok(true)` with more to come (room
            // used up, or the quantum over), `Ok(false)` on exhaustion,
            // `Err` on a source fault. The block gathered so far goes out
            // before any of them is acted on.
            let more = loop {
                if deadlines.len() as u64 == room {
                    break Ok(true);
                }
                let record = match held.take() {
                    Some(record) => record,
                    None => match source.try_next() {
                        Ok(Some(record)) => record,
                        Ok(None) => break Ok(false),
                        Err(e) => break Err(e),
                    },
                };
                if skipped < resume_from {
                    skipped += 1;
                    continue;
                }
                let t_ms = record.t.as_millis();
                let pacer = pacer.get_or_insert_with(|| {
                    Pacer::new(&self.clock, self.cfg.compression, t_ms, self.lag_ms.clone())
                });
                let deadline = pacer.deadline_ns(t_ms);
                let first = *deadlines.first().unwrap_or(&deadline);
                if deadline.saturating_sub(first) >= PACE_QUANTUM_NS {
                    held = Some(record);
                    break Ok(true);
                }
                block.extend_from_slice(&encode_frame(&Frame::Record(record)));
                deadlines.push(deadline);
            };
            if let (Some(pacer), Some(&last)) = (&pacer, deadlines.last()) {
                let now = pacer.sleep_until(last);
                self.hub.broadcast_block(&block);
                for deadline in &deadlines {
                    pacer.record_lag(now, *deadline);
                }
                let frames = deadlines.len() as u64;
                emitted += frames;
                served += frames;
                self.emitted_total.add(frames);
                if every != 0 && emitted.is_multiple_of(every) {
                    save(emitted)?;
                }
            }
            if !more? {
                break true;
            }
        };
        // Wind the fan-out down before the final checkpoint so the
        // checkpoint never claims more than what reached the queues.
        let consumers = if completed {
            self.hub.finish(emitted)
        } else {
            self.hub.abort()
        };
        save(emitted)?;
        self.stop.store(true, Ordering::SeqCst); // winds down the acceptor
        source.finish().map_err(LiveError::Stream)?;
        Ok(LiveReport {
            emitted,
            served,
            skipped,
            completed,
            consumers,
        })
    }
}

impl<C: Clock> Drop for LiveServer<C> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(state) = self.introspection.lock().unwrap().take() {
            state.recorder.stop();
            state.http.stop();
        }
    }
}

fn accept_loop(listener: &TcpListener, hub: &Arc<Hub>, stop: &Arc<AtomicBool>) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                hub.add_writer(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}
