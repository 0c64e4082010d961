//! The flight recorder: time-resolved telemetry with crash forensics.
//!
//! A cumulative [`ObsSnapshot`] answers "what happened since start";
//! an operator watching a multi-hour serve needs "what is happening
//! *now*". [`FlightRecorder::start`] spawns a background sampler thread
//! that snapshots a [`Registry`] every `interval` into a bounded ring
//! of [`RecorderFrame`]s, each carrying the cumulative snapshot **and**
//! the per-window view derived from the previous frame: counter rates
//! in events/s and histogram deltas (so a lag p99 is *this window's*
//! p99, not the run-average that a cumulative histogram converges to).
//!
//! The ring is the last ~minute of history (240 frames × 250 ms by
//! default); [`FlightRecorder::dump_forensics`] writes the whole ring
//! plus a final fresh snapshot as one JSON document — `cn-live` calls
//! it from its failure paths, and [`FlightRecorder::install_panic_hook`]
//! chains it onto the process panic hook so even a crash leaves the
//! last minute of telemetry on disk.
//!
//! Optionally every frame is also appended to a JSONL file (one compact
//! frame per line) with size-bounded rotation: when the file would
//! exceed `jsonl_max_bytes` it is renamed to `<path>.1` (replacing any
//! previous `.1`) and a fresh file is started — at most two files, ~2×
//! the budget, ever on disk.
//!
//! The recorder only ever *reads* the registry (snapshots are relaxed
//! atomic loads on the sampler thread) — it never sits on a hot path,
//! so mounting it does not slow the pipeline it watches.
//!
//! [`validate_frames`] / [`validate_jsonl`] / [`validate_forensics`]
//! are the invariant checks `live_check` runs in CI: frames parse,
//! sequence numbers and timestamps strictly increase, cumulative
//! counter series are monotone non-decreasing, window rates are finite
//! and non-negative.

use crate::export::{MetricValue, ObsSnapshot};
use crate::metric::HistogramSnapshot;
use crate::registry::Registry;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sampler tuning. Defaults give a ~60 s ring at 4 Hz.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Sampling period of the background thread.
    pub interval: Duration,
    /// Ring capacity in frames (oldest evicted first). Must be ≥ 1.
    pub ring_frames: usize,
    /// Append every frame as one JSONL line here (`None` = ring only).
    pub jsonl_path: Option<PathBuf>,
    /// Rotate the JSONL file when it would exceed this many bytes.
    pub jsonl_max_bytes: u64,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig {
            interval: Duration::from_millis(250),
            ring_frames: 240,
            jsonl_path: None,
            jsonl_max_bytes: 8 * 1024 * 1024,
        }
    }
}

/// One counter's rate over the frame's window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSample {
    /// Counter name.
    pub name: String,
    /// Label pairs, sorted by key (registry order).
    pub(crate) labels: Vec<(String, String)>,
    /// Events per second over `window_ms` (finite, ≥ 0 by construction).
    pub per_s: f64,
}

/// One histogram's observations recorded during the frame's window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramWindowSample {
    /// Histogram name.
    pub name: String,
    /// Label pairs, sorted by key (registry order).
    pub(crate) labels: Vec<(String, String)>,
    /// The window's own distribution (cumulative delta vs. the previous
    /// frame) — quantiles of *this* window, not since-start.
    pub delta: HistogramSnapshot,
}

/// The per-window view of one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Every counter's rate this window.
    pub rates: Vec<RateSample>,
    /// Every histogram's window delta (empty deltas elided).
    pub histograms: Vec<HistogramWindowSample>,
}

/// One sampled frame: cumulative state plus the window since the
/// previous frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecorderFrame {
    /// Strictly increasing frame number (0-based, counts evicted
    /// frames too — a ring gap is visible as a seq jump).
    pub(crate) seq: u64,
    /// Milliseconds since the recorder started; strictly increasing
    /// across frames by construction.
    pub t_ms: u64,
    /// Width of this frame's window (`t_ms - prev.t_ms`, ≥ 1).
    pub(crate) window_ms: u64,
    /// Cumulative registry snapshot at `t_ms`.
    pub snapshot: ObsSnapshot,
    /// Rates and deltas over the window.
    pub window: WindowStats,
}

/// What [`FlightRecorder::dump_forensics`] writes: the ring, then one
/// final snapshot taken at dump time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ForensicsDump {
    /// The ring, oldest first.
    pub(crate) frames: Vec<RecorderFrame>,
    /// A fresh cumulative snapshot taken at dump time (the terminal
    /// state, even if the last frame is up to one interval old).
    pub(crate) last: ObsSnapshot,
}

struct JsonlSink {
    path: PathBuf,
    file: std::fs::File,
    bytes: u64,
    max_bytes: u64,
}

impl JsonlSink {
    fn open(path: &Path, max_bytes: u64) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            file: std::fs::File::create(path)?,
            path: path.to_path_buf(),
            bytes: 0,
            max_bytes: max_bytes.max(1),
        })
    }

    fn append(&mut self, line: &str) -> std::io::Result<()> {
        let len = line.len() as u64 + 1;
        if self.bytes > 0 && self.bytes + len > self.max_bytes {
            // Size-bounded rotation: current file becomes `<path>.1`
            // (replacing any previous rotation), then start fresh.
            self.file.flush()?;
            let mut rotated = self.path.clone().into_os_string();
            rotated.push(".1");
            std::fs::rename(&self.path, &rotated)?;
            self.file = std::fs::File::create(&self.path)?;
            self.bytes = 0;
        }
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        self.bytes += len;
        Ok(())
    }
}

struct RecState {
    ring: VecDeque<RecorderFrame>,
    prev_t_ms: u64,
    prev: Option<ObsSnapshot>,
    seq: u64,
    jsonl: Option<JsonlSink>,
    io_errors: u64,
}

struct RecInner {
    registry: Registry,
    origin: Instant,
    ring_frames: usize,
    stop: AtomicBool,
    state: Mutex<RecState>,
}

/// A background registry sampler; see the module docs. Clones share the
/// same ring and sampler thread.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<RecInner>,
}

impl FlightRecorder {
    /// Start sampling `registry` per `cfg` on a background thread. The
    /// first frame lands after one interval. JSONL setup failures are
    /// reported immediately; later append errors are counted without
    /// killing the sampler —
    /// the in-memory ring (and thus forensics) outlives a full disk.
    pub fn start(registry: &Registry, cfg: RecorderConfig) -> std::io::Result<FlightRecorder> {
        let jsonl = match &cfg.jsonl_path {
            Some(path) => Some(JsonlSink::open(path, cfg.jsonl_max_bytes)?),
            None => None,
        };
        let recorder = FlightRecorder {
            inner: Arc::new(RecInner {
                registry: registry.clone(),
                origin: Instant::now(),
                ring_frames: cfg.ring_frames.max(1),
                stop: AtomicBool::new(false),
                state: Mutex::new(RecState {
                    ring: VecDeque::new(),
                    prev_t_ms: 0,
                    prev: None,
                    seq: 0,
                    jsonl,
                    io_errors: 0,
                }),
            }),
        };
        let sampler = recorder.clone();
        let interval = cfg.interval.max(Duration::from_millis(1));
        std::thread::Builder::new()
            .name("cn-obs-recorder".into())
            .spawn(move || {
                while !sampler.inner.stop.load(SeqCst) {
                    std::thread::sleep(interval);
                    if sampler.inner.stop.load(SeqCst) {
                        break;
                    }
                    sampler.sample_now();
                }
            })?;
        Ok(recorder)
    }

    /// Take one frame immediately (the sampler thread calls this on its
    /// own cadence; failure paths call it to capture the terminal state
    /// before dumping). Returns the frame it recorded.
    pub fn sample_now(&self) -> RecorderFrame {
        let elapsed_ms = u64::try_from(self.inner.origin.elapsed().as_millis()).unwrap_or(u64::MAX);
        let snapshot = self.inner.registry.snapshot();
        let mut state = self.inner.state.lock().unwrap();
        // Monotonic frame time even under timer coarseness: consecutive
        // frames never share a timestamp, so "strictly increasing" holds
        // by construction and window widths never reach zero.
        let t_ms = if state.seq == 0 {
            elapsed_ms.max(1)
        } else {
            elapsed_ms.max(state.prev_t_ms + 1)
        };
        let window_ms = (t_ms - state.prev_t_ms).max(1);
        let window = window_stats(&snapshot, state.prev.as_ref(), window_ms);
        let frame = RecorderFrame {
            seq: state.seq,
            t_ms,
            window_ms,
            snapshot,
            window,
        };
        state.seq += 1;
        state.prev_t_ms = t_ms;
        state.prev = Some(frame.snapshot.clone());
        if state.ring.len() == self.inner.ring_frames {
            state.ring.pop_front();
        }
        state.ring.push_back(frame.clone());
        if state.jsonl.is_some() {
            let line = serde_json::to_string(&frame).expect("frame serializes");
            if let Some(sink) = state.jsonl.as_mut() {
                if sink.append(&line).is_err() {
                    state.io_errors += 1;
                }
            }
        }
        frame
    }

    /// The ring, oldest first.
    pub(crate) fn frames(&self) -> Vec<RecorderFrame> {
        let state = self.inner.state.lock().unwrap();
        state.ring.iter().cloned().collect()
    }

    /// The newest frame, if any has been taken.
    pub fn latest(&self) -> Option<RecorderFrame> {
        let state = self.inner.state.lock().unwrap();
        state.ring.back().cloned()
    }

    /// JSONL append failures survived so far.
    #[cfg(test)]
    fn io_errors(&self) -> u64 {
        self.inner.state.lock().unwrap().io_errors
    }

    /// Take one final frame, then write the full ring plus a terminal
    /// snapshot to `path` as one JSON document (`ForensicsDump`).
    pub fn dump_forensics(&self, path: &Path) -> std::io::Result<()> {
        self.sample_now();
        let dump = ForensicsDump {
            frames: self.frames(),
            last: self.inner.registry.snapshot(),
        };
        let json = serde_json::to_string(&dump).expect("dump serializes");
        std::fs::write(path, json + "\n")
    }

    /// Chain a process panic hook that captures a final frame and dumps
    /// forensics to `path` before the previous hook runs. The hook holds
    /// only a weak reference: once every recorder clone is dropped (or
    /// [`FlightRecorder::stop`] ran) the hook is inert.
    pub fn install_panic_hook(&self, path: &Path) {
        let weak = Arc::downgrade(&self.inner);
        let path = path.to_path_buf();
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(inner) = weak.upgrade() {
                if !inner.stop.load(SeqCst) {
                    let _ = (FlightRecorder { inner }).dump_forensics(&path);
                }
            }
            previous(info);
        }));
    }

    /// Stop the sampler thread (it exits within one interval). The ring
    /// stays readable; [`FlightRecorder::dump_forensics`] still works.
    pub fn stop(&self) {
        self.inner.stop.store(true, SeqCst);
    }
}

impl Drop for RecInner {
    fn drop(&mut self) {
        self.stop.store(true, SeqCst);
    }
}

/// Derive the window view: counter rates against the previous frame's
/// snapshot (absent series read as zero) and non-empty histogram deltas.
fn window_stats(cur: &ObsSnapshot, prev: Option<&ObsSnapshot>, window_ms: u64) -> WindowStats {
    let window_s = window_ms as f64 / 1_000.0;
    let prev_metric = |name: &str, labels: &[(String, String)]| {
        prev.and_then(|p| {
            p.metrics
                .iter()
                .find(|m| m.name == name && m.labels == *labels)
        })
    };
    let mut rates = Vec::new();
    let mut histograms = Vec::new();
    for m in &cur.metrics {
        match &m.value {
            MetricValue::Counter { value } => {
                let before = match prev_metric(&m.name, &m.labels).map(|p| &p.value) {
                    Some(MetricValue::Counter { value }) => *value,
                    _ => 0,
                };
                rates.push(RateSample {
                    name: m.name.clone(),
                    labels: m.labels.clone(),
                    per_s: value.saturating_sub(before) as f64 / window_s,
                });
            }
            MetricValue::Histogram { histogram } => {
                let delta = match prev_metric(&m.name, &m.labels).map(|p| &p.value) {
                    Some(MetricValue::Histogram { histogram: old }) => histogram.delta_since(old),
                    _ => histogram.clone(),
                };
                if !delta.is_empty() {
                    histograms.push(HistogramWindowSample {
                        name: m.name.clone(),
                        labels: m.labels.clone(),
                        delta,
                    });
                }
            }
            MetricValue::Gauge { .. } => {} // levels live in the snapshot
        }
    }
    WindowStats { rates, histograms }
}

// ---------------------------------------------------------------------------
// Validation (the live_check CI contract)
// ---------------------------------------------------------------------------

/// Check the recorder invariants over a frame sequence (oldest first):
/// `seq` and `t_ms` strictly increase, every cumulative counter series
/// is monotone non-decreasing, and every window rate is finite and
/// non-negative. Returns the number of frames checked.
pub fn validate_frames(frames: &[RecorderFrame]) -> Result<usize, String> {
    use std::collections::BTreeMap;
    let mut counters: BTreeMap<(String, Vec<(String, String)>), u64> = BTreeMap::new();
    let mut prev: Option<(u64, u64)> = None;
    for frame in frames {
        if let Some((seq, t_ms)) = prev {
            if frame.seq <= seq {
                return Err(format!("seq not increasing: {} after {}", frame.seq, seq));
            }
            if frame.t_ms <= t_ms {
                return Err(format!(
                    "t_ms not increasing: {} after {} (seq {})",
                    frame.t_ms, t_ms, frame.seq
                ));
            }
        }
        prev = Some((frame.seq, frame.t_ms));
        if frame.window_ms == 0 {
            return Err(format!("zero-width window at seq {}", frame.seq));
        }
        for m in &frame.snapshot.metrics {
            if let MetricValue::Counter { value } = m.value {
                let key = (m.name.clone(), m.labels.clone());
                if let Some(&before) = counters.get(&key) {
                    if value < before {
                        return Err(format!(
                            "counter {} regressed {} -> {} at seq {}",
                            m.name, before, value, frame.seq
                        ));
                    }
                }
                counters.insert(key, value);
            }
        }
        for r in &frame.window.rates {
            if !r.per_s.is_finite() || r.per_s < 0.0 {
                return Err(format!(
                    "rate {}{:?} = {} at seq {} (need finite >= 0)",
                    r.name, r.labels, r.per_s, frame.seq
                ));
            }
        }
    }
    Ok(frames.len())
}

/// Parse a recorder JSONL file's text and run [`validate_frames`] over
/// it. Returns the number of frames. An empty file is an error — a
/// serve that produced no frames has a broken recorder.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut frames = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let frame: RecorderFrame = serde_json::from_str(line)
            .map_err(|e| format!("line {}: bad frame: {e}", lineno + 1))?;
        frames.push(frame);
    }
    if frames.is_empty() {
        return Err("no frames in recorder JSONL".into());
    }
    validate_frames(&frames)
}

/// Parse a forensics dump's text, run [`validate_frames`] over its
/// ring, and check the terminal snapshot is at least as advanced as the
/// last frame's (counters must not regress between the final frame and
/// the dump-time snapshot). Returns the number of ring frames.
pub fn validate_forensics(text: &str) -> Result<usize, String> {
    let dump: ForensicsDump =
        serde_json::from_str(text).map_err(|e| format!("bad forensics dump: {e}"))?;
    if dump.frames.is_empty() {
        return Err("forensics dump carries an empty ring".into());
    }
    let n = validate_frames(&dump.frames)?;
    let last_frame = &dump.frames[dump.frames.len() - 1].snapshot;
    for m in &last_frame.metrics {
        if let MetricValue::Counter { value } = m.value {
            let terminal = dump
                .last
                .metrics
                .iter()
                .find(|t| t.name == m.name && t.labels == m.labels);
            match terminal.map(|t| &t.value) {
                Some(MetricValue::Counter { value: tv }) if *tv >= value => {}
                Some(MetricValue::Counter { value: tv }) => {
                    return Err(format!(
                        "terminal snapshot regressed {} {} -> {}",
                        m.name, value, tv
                    ));
                }
                _ => {
                    return Err(format!(
                        "terminal snapshot lost counter {}{:?}",
                        m.name, m.labels
                    ));
                }
            }
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_cfg() -> RecorderConfig {
        RecorderConfig {
            // A long interval: tests drive sample_now() by hand and the
            // background thread stays out of the way.
            interval: Duration::from_secs(3600),
            ring_frames: 4,
            jsonl_path: None,
            jsonl_max_bytes: 1024,
        }
    }

    #[test]
    fn frames_carry_window_rates_and_histogram_deltas() {
        let registry = Registry::new();
        let c = registry.counter("cn_test_events_total");
        let h = registry.histogram("cn_test_lag_ms");
        let rec = FlightRecorder::start(&registry, quiet_cfg()).unwrap();
        c.add(10);
        h.record(100);
        let f0 = rec.sample_now();
        assert_eq!(f0.seq, 0);
        let rate0 = &f0.window.rates[0];
        assert_eq!(rate0.name, "cn_test_events_total");
        assert!(rate0.per_s > 0.0 && rate0.per_s.is_finite());
        assert_eq!(f0.window.histograms[0].delta.count, 1);

        c.add(5);
        h.record(3);
        h.record(7);
        let f1 = rec.sample_now();
        assert!(f1.t_ms > f0.t_ms, "timestamps strictly increase");
        assert_eq!(f1.window.histograms[0].delta.count, 2, "window, not total");
        assert_eq!(
            f1.window.histograms[0]
                .delta
                .quantile_upper_bound(1.0)
                .unwrap(),
            7,
            "the window's max is 7; the cumulative 100 is a prior window"
        );
        // Rate reflects only this window's 5 events.
        let per_s = f1.window.rates[0].per_s;
        let expect = 5_000.0 / f1.window_ms as f64;
        assert!((per_s - expect).abs() < 1e-9, "{per_s} vs {expect}");

        // Nothing recorded → empty deltas elided, rate zero.
        let f2 = rec.sample_now();
        assert!(f2.window.histograms.is_empty());
        assert_eq!(f2.window.rates[0].per_s, 0.0);
        rec.stop();

        assert_eq!(validate_frames(&rec.frames()), Ok(3));
    }

    #[test]
    fn ring_is_bounded_and_seq_exposes_eviction() {
        let registry = Registry::new();
        registry.counter("cn_test_total").inc();
        let rec = FlightRecorder::start(&registry, quiet_cfg()).unwrap();
        for _ in 0..10 {
            rec.sample_now();
        }
        let frames = rec.frames();
        assert_eq!(frames.len(), 4, "ring capacity");
        assert_eq!(frames[0].seq, 6, "oldest surviving frame");
        assert_eq!(rec.latest().unwrap().seq, 9);
        assert_eq!(validate_frames(&frames), Ok(4));
        rec.stop();
    }

    #[test]
    fn jsonl_appends_parse_and_rotate() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cn-rec-{}.jsonl", std::process::id()));
        let rotated = {
            let mut os = path.clone().into_os_string();
            os.push(".1");
            PathBuf::from(os)
        };
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&rotated).ok();
        let registry = Registry::new();
        let c = registry.counter("cn_test_total");
        let mut cfg = quiet_cfg();
        cfg.jsonl_path = Some(path.clone());
        cfg.jsonl_max_bytes = 2_000; // a few frames per file
        let rec = FlightRecorder::start(&registry, cfg).unwrap();
        for _ in 0..30 {
            c.inc();
            rec.sample_now();
        }
        rec.stop();
        assert_eq!(rec.io_errors(), 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let n = validate_jsonl(&text).expect("current file validates");
        assert!(n >= 1);
        assert!(
            std::fs::metadata(&path).unwrap().len() <= 2_000 + 1_000,
            "rotation bounds the live file"
        );
        let rotated_text = std::fs::read_to_string(&rotated).expect("rotation happened");
        validate_jsonl(&rotated_text).expect("rotated file validates");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&rotated).ok();
    }

    #[test]
    fn forensics_dump_round_trips_and_validates() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cn-forensics-{}.json", std::process::id()));
        let registry = Registry::new();
        let c = registry.counter("cn_test_total");
        let rec = FlightRecorder::start(&registry, quiet_cfg()).unwrap();
        c.add(3);
        rec.sample_now();
        c.add(4);
        rec.dump_forensics(&path).unwrap();
        rec.stop();
        let text = std::fs::read_to_string(&path).unwrap();
        let n = validate_forensics(&text).expect("dump validates");
        assert_eq!(n, 2, "ring frame plus the dump's final frame");
        let dump: ForensicsDump = serde_json::from_str(&text).unwrap();
        assert_eq!(dump.last.counter("cn_test_total"), Some(7));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validators_reject_broken_series() {
        let registry = Registry::new();
        registry.counter("cn_test_total").add(5);
        let rec = FlightRecorder::start(&registry, quiet_cfg()).unwrap();
        let f0 = rec.sample_now();
        let f1 = rec.sample_now();
        rec.stop();

        // Regressing counter.
        let mut bad = f1.clone();
        for m in &mut bad.snapshot.metrics {
            if let MetricValue::Counter { value } = &mut m.value {
                *value = 1;
            }
        }
        let err = validate_frames(&[f0.clone(), bad]).unwrap_err();
        assert!(err.contains("regressed"), "{err}");

        // Non-increasing time.
        let mut stale = f1.clone();
        stale.t_ms = f0.t_ms;
        let err = validate_frames(&[f0.clone(), stale]).unwrap_err();
        assert!(err.contains("t_ms"), "{err}");

        // Non-finite rate.
        let mut inf = f1.clone();
        inf.window.rates[0].per_s = f64::NEG_INFINITY;
        let err = validate_frames(&[f0.clone(), inf]).unwrap_err();
        assert!(err.contains("finite"), "{err}");

        // Garbage JSONL and the empty file.
        assert!(validate_jsonl("{not a frame}\n").is_err());
        assert!(validate_jsonl("").is_err());
    }

    #[test]
    fn background_sampler_takes_frames_on_its_own() {
        let registry = Registry::new();
        registry.counter("cn_test_total").inc();
        let cfg = RecorderConfig {
            interval: Duration::from_millis(5),
            ring_frames: 64,
            jsonl_path: None,
            jsonl_max_bytes: 1 << 20,
        };
        let rec = FlightRecorder::start(&registry, cfg).unwrap();
        for _ in 0..200 {
            if rec.latest().is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        rec.stop();
        assert!(
            rec.latest().is_some(),
            "sampler thread never produced a frame"
        );
        validate_frames(&rec.frames()).expect("sampled frames validate");
    }
}
