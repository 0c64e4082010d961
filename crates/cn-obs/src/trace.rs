//! Structured stage tracing: a parent-linked span tree per process,
//! exported as Chrome trace-event JSON that Perfetto (or
//! `chrome://tracing`) opens directly.
//!
//! [`crate::Span`] answers "how long does this stage take, statistically"
//! — it folds durations into a histogram and forgets *when* each one ran.
//! A [`TraceSink`] keeps the *when*: every [`TraceSpan`] becomes one
//! timestamped complete event (`ph: "X"`) with its thread, its
//! process-unique [`SpanId`], and the id of the span that was open on the
//! same thread when it started. One serve run therefore produces an
//! openable timeline — shard workers draining side by side, out-of-core
//! chunk/spill/merge phases, scenario injection windows, the live pacer's
//! long sleeps — instead of a pile of aggregate numbers.
//!
//! ### Model
//!
//! * Span ids come from one process-wide atomic counter, so ids are
//!   unique across sinks and threads.
//! * Parent linkage is implicit: each thread keeps a stack of the spans
//!   currently open on it, and a new span's parent is the top of that
//!   stack. Opening a span inside another *is* the child form — see
//!   [`crate::span!`]'s three-argument variant.
//! * The sink is bounded: past the cap, events are counted as dropped
//!   instead of stored, so a long run cannot grow the timeline without
//!   bound.
//! * A **disabled** sink ([`TraceSink::disabled`]) never reads the clock
//!   and never touches the thread-local stack — instrumented code costs
//!   one branch when tracing is off, matching the registry contract.
//!
//! ### The process-global sink
//!
//! Pipeline internals (shard workers, the out-of-core exporter, scenario
//! injection) cannot reasonably thread a `&TraceSink` through every
//! signature, so a process-global sink can be installed
//! ([`install_global`]) and cheap-checked ([`global`] — one relaxed
//! atomic load when none is installed). Construction-time code grabs the
//! global **once** and stores the clone; hot paths never re-resolve it.
//!
//! Timelines are for humans: CI uploads them as artifacts and checks that
//! they parse, but never gates byte-exact contents (timestamps are
//! real-clock values and legitimately differ run to run).

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default bound on stored events (~100k spans ≈ a few tens of MB of
/// JSON — enough for hours of stage-granularity tracing).
const DEFAULT_EVENT_CAP: usize = 100_000;

/// Process-wide span id source (ids unique across sinks and threads; 0
/// is never issued, so `parent: 0` cannot collide with a real span).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide thread-number source for stable, compact `tid`s.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    static OPEN_SPANS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's compact trace tid (assigned on first span).
    static TRACE_TID: RefCell<Option<u64>> = const { RefCell::new(None) };
}

fn current_tid() -> u64 {
    TRACE_TID.with(|t| {
        *t.borrow_mut()
            .get_or_insert_with(|| NEXT_TID.fetch_add(1, Relaxed))
    })
}

/// A process-unique identifier of one recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SpanId(pub u64);

/// One finished span: a complete (`ph: "X"`) Chrome trace event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Stage name (same naming scheme as metrics, minus unit suffixes).
    pub name: String,
    /// Compact per-thread id (assignment order of first span per thread).
    pub tid: u64,
    /// Start, microseconds since the sink's origin.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// This span's id.
    pub(crate) id: u64,
    /// The id of the span open on the same thread when this one started.
    pub(crate) parent: Option<u64>,
}

struct SinkInner {
    origin: Instant,
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
    cap: usize,
}

/// A bounded collector of [`TraceEvent`]s; see the module docs. Clones
/// share the same store.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<SinkInner>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "TraceSink(disabled)"),
            Some(i) => write!(f, "TraceSink({} events)", i.events.lock().unwrap().len()),
        }
    }
}

impl TraceSink {
    /// An enabled sink with the default event cap.
    pub fn new() -> TraceSink {
        TraceSink::with_capacity(DEFAULT_EVENT_CAP)
    }

    /// An enabled sink storing at most `cap` events (further spans are
    /// counted as dropped, not stored).
    pub(crate) fn with_capacity(cap: usize) -> TraceSink {
        TraceSink {
            inner: Some(Arc::new(SinkInner {
                origin: Instant::now(),
                events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
                cap: cap.max(1),
            })),
        }
    }

    /// The no-op sink: spans against it read no clock and record nothing.
    pub fn disabled() -> TraceSink {
        TraceSink { inner: None }
    }

    /// False for [`TraceSink::disabled`].
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span named `name`, parented to whatever span is currently
    /// open on this thread. Dropping the guard records the event.
    pub fn span(&self, name: &str) -> TraceSpan {
        let Some(inner) = &self.inner else {
            return TraceSpan {
                inner: None,
                name: String::new(),
                id: 0,
                parent: None,
                start_us: 0,
            };
        };
        let id = NEXT_SPAN_ID.fetch_add(1, Relaxed);
        let parent = OPEN_SPANS.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        TraceSpan {
            inner: Some(Arc::clone(inner)),
            name: name.to_string(),
            id,
            parent,
            start_us: elapsed_us(inner.origin),
        }
    }

    /// Events recorded so far (cloned; ordering is completion order).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.events.lock().unwrap().clone())
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.events.lock().unwrap().len())
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans lost to the event cap.
    #[cfg(test)]
    fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped.load(Relaxed))
    }

    /// Render the Chrome trace-event JSON object (`{"traceEvents":
    /// [...]}`) Perfetto and `chrome://tracing` load directly. Parent
    /// links ride in each event's `args`.
    pub fn to_chrome_json(&self) -> String {
        let pid = std::process::id();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = e.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"cn\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{parent}}}}}",
                json_string(&e.name),
                e.tid,
                e.ts_us,
                e.dur_us,
                e.id
            ));
        }
        out.push_str("]}");
        out
    }

    fn record(&self, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            let mut events = inner.events.lock().unwrap();
            if events.len() < inner.cap {
                events.push(event);
            } else {
                inner.dropped.fetch_add(1, Relaxed);
            }
        }
    }
}

fn elapsed_us(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Minimal JSON string escaping for span names (control chars, quotes,
/// backslashes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An open span; records its [`TraceEvent`] on drop. Must be dropped on
/// the thread that opened it
/// (the guard is intentionally not `Send` — parenting is per-thread).
pub struct TraceSpan {
    inner: Option<Arc<SinkInner>>,
    name: String,
    id: u64,
    parent: Option<u64>,
    start_us: u64,
}

impl std::fmt::Debug for TraceSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSpan")
            .field("name", &self.name)
            .field("id", &self.id)
            .field("parent", &self.parent)
            .finish_non_exhaustive()
    }
}

impl TraceSpan {
    /// This span's id ([`SpanId(0)`](SpanId) for a disabled-sink span).
    #[cfg(test)]
    fn id(&self) -> SpanId {
        SpanId(self.id)
    }

    /// The parent span's id, if one was open at start.
    #[cfg(test)]
    fn parent(&self) -> Option<SpanId> {
        self.parent.map(SpanId)
    }

    /// Close now and return the recorded duration in microseconds.
    #[cfg(test)]
    fn finish(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        let Some(inner) = self.inner.take() else {
            return 0;
        };
        // Pop this span off the thread's open stack. Out-of-order drops
        // (a guard outliving its parent) are tolerated: remove by id.
        OPEN_SPANS.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            } else if let Some(i) = s.iter().rposition(|&x| x == self.id) {
                s.remove(i);
            }
        });
        let end_us = elapsed_us(inner.origin);
        let dur_us = end_us.saturating_sub(self.start_us);
        let event = TraceEvent {
            name: std::mem::take(&mut self.name),
            tid: current_tid(),
            ts_us: self.start_us,
            dur_us,
            id: self.id,
            parent: self.parent,
        };
        TraceSink { inner: Some(inner) }.record(event);
        dur_us
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.close();
    }
}

// ---------------------------------------------------------------------------
// The process-global sink
// ---------------------------------------------------------------------------

static GLOBAL_ON: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<TraceSink>> = Mutex::new(None);

/// Install `sink` as the process-global trace sink (replacing any
/// previous one). Pipeline constructors resolve it via [`global`].
pub fn install_global(sink: &TraceSink) {
    let mut g = GLOBAL.lock().unwrap();
    *g = Some(sink.clone());
    GLOBAL_ON.store(sink.is_enabled(), Relaxed);
}

/// Remove the process-global sink (subsequent [`global`] calls return
/// the disabled sink). Returns the previously installed sink.
pub fn clear_global() -> Option<TraceSink> {
    let mut g = GLOBAL.lock().unwrap();
    GLOBAL_ON.store(false, Relaxed);
    g.take()
}

/// The process-global sink, or the disabled sink when none is installed.
/// One relaxed atomic load on the none path — cheap enough for
/// construction-time resolution (store the clone; don't re-resolve per
/// record).
pub fn global() -> TraceSink {
    if !GLOBAL_ON.load(Relaxed) {
        return TraceSink::disabled();
    }
    GLOBAL.lock().unwrap().clone().unwrap_or_default()
}

/// Open a span on the process-global sink (no-op when none installed).
pub fn global_span(name: &str) -> TraceSpan {
    global().span(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_a_parent_linked_tree() {
        let sink = TraceSink::new();
        let root = sink.span("root");
        let root_id = root.id();
        {
            let child = sink.span("child");
            assert_eq!(child.parent(), Some(root_id));
            let grandchild = sink.span("grandchild");
            assert_eq!(grandchild.parent(), Some(child.id()));
        }
        drop(root);
        let events = sink.events();
        assert_eq!(events.len(), 3);
        // Completion order: grandchild, child, root.
        assert_eq!(events[0].name, "grandchild");
        assert_eq!(events[2].name, "root");
        assert_eq!(events[2].parent, None);
        assert_eq!(events[1].parent, Some(root_id.0));
        // All on one thread.
        assert!(events.iter().all(|e| e.tid == events[0].tid));
        // Children are contained in the root's interval.
        let root_ev = &events[2];
        for e in &events[..2] {
            assert!(e.ts_us >= root_ev.ts_us);
            assert!(e.ts_us + e.dur_us <= root_ev.ts_us + root_ev.dur_us + 1);
        }
    }

    #[test]
    fn sibling_threads_get_distinct_tids_and_no_cross_parenting() {
        let sink = TraceSink::new();
        let root = sink.span("main-root");
        let s2 = sink.clone();
        let worker = std::thread::spawn(move || {
            let span = s2.span("worker");
            // A fresh thread has no open span: no parent, even though
            // "main-root" is open on the spawning thread.
            assert_eq!(span.parent(), None);
        });
        worker.join().unwrap();
        drop(root);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].tid, events[1].tid);
    }

    #[test]
    fn disabled_sink_records_nothing_and_keeps_the_stack_clean() {
        let sink = TraceSink::disabled();
        {
            let _a = sink.span("a");
            // The thread-local stack must not grow for disabled spans, or
            // a later enabled span would parent onto a ghost.
            let live = TraceSink::new();
            let b = live.span("b");
            assert_eq!(b.parent(), None);
        }
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn event_cap_counts_drops_instead_of_growing() {
        let sink = TraceSink::with_capacity(2);
        for i in 0..5 {
            let _s = sink.span(&format!("s{i}"));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
    }

    #[test]
    fn chrome_json_is_loadable_shape() {
        let sink = TraceSink::new();
        {
            let _root = sink.span("stage \"x\"\n");
        }
        let json = sink.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\\\"x\\\"\\n"), "{json}");
        // Must be valid JSON by our own parser.
        let v: serde_json::JsonValue = serde_json::from_str(&json).expect("chrome json parses");
        let events = match &v {
            serde_json::JsonValue::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == "traceEvents")
                .map(|(_, v)| v)
                .expect("traceEvents key"),
            other => panic!("not an object: {other:?}"),
        };
        assert!(matches!(events, serde_json::JsonValue::Arr(a) if a.len() == 1));
    }

    #[test]
    fn finish_returns_duration_and_records_once() {
        let sink = TraceSink::new();
        let span = sink.span("timed");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let dur = span.finish();
        assert!(dur >= 1_000, "slept 2ms but recorded {dur}us");
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn global_install_and_clear() {
        // Serialize against other tests touching the global via the lock
        // on GLOBAL itself being per-call; use a dedicated sink.
        let sink = TraceSink::new();
        install_global(&sink);
        {
            let _s = global_span("via-global");
        }
        let taken = clear_global().expect("was installed");
        assert_eq!(taken.len(), 1);
        assert!(!global().is_enabled());
        {
            let _s = global_span("after-clear");
        }
        assert_eq!(sink.len(), 1, "cleared global must not record");
    }
}
