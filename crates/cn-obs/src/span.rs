//! Coarse stage timing.
//!
//! A [`Span`] is a scope guard that records its lifetime, in
//! nanoseconds, into a histogram on drop (or explicitly via
//! [`Span::finish`]). It is for *stages* — fitting, a golden run, a
//! round trip — not per-record work: the clock read costs far more than
//! a counter bump, which is exactly why per-record paths use counters
//! and histograms directly.
//!
//! ```
//! let registry = cn_obs::Registry::new();
//! {
//!     let _span = cn_obs::span!(registry, "cn_verify_golden_ns");
//!     // ... stage body ...
//! } // records here
//! assert_eq!(registry.snapshot().histogram("cn_verify_golden_ns").unwrap().count, 1);
//! ```

use crate::metric::Histogram;
use crate::registry::Registry;
use crate::trace::{TraceSink, TraceSpan};
use std::time::Instant;

/// A running stage timer; see the module docs.
#[derive(Debug)]
pub struct Span {
    hist: Histogram,
    start: Option<Instant>,
    trace: Option<TraceSpan>,
}

impl Span {
    /// Start timing into the histogram `name`. Against a disabled
    /// registry this never reads the clock and drop records nothing.
    pub fn start(registry: &Registry, name: &str) -> Span {
        if registry.is_enabled() {
            Span {
                hist: registry.histogram(name),
                start: Some(Instant::now()),
                trace: None,
            }
        } else {
            Span {
                hist: Histogram::noop(),
                start: None,
                trace: None,
            }
        }
    }

    /// The traced form: in addition to the histogram, open a
    /// [`TraceSpan`] on `sink`, parented to whatever span is currently
    /// open on this thread — nested `start_traced` calls *are* the
    /// child form, producing the span tree [`TraceSink::to_chrome_json`]
    /// exports. Either side may be disabled independently: a disabled
    /// registry still traces, a disabled sink still feeds the
    /// histogram, both disabled reads no clock at all.
    pub fn start_traced(registry: &Registry, name: &str, sink: &TraceSink) -> Span {
        let trace = sink.is_enabled().then(|| sink.span(name));
        let timed = registry.is_enabled() || trace.is_some();
        Span {
            hist: if registry.is_enabled() {
                registry.histogram(name)
            } else {
                Histogram::noop()
            },
            start: timed.then(Instant::now),
            trace,
        }
    }

    /// Stop now, record, and return the elapsed nanoseconds.
    pub fn finish(mut self) -> u64 {
        self.record_once()
    }

    fn record_once(&mut self) -> u64 {
        drop(self.trace.take()); // closes the trace event, if any
        match self.start.take() {
            None => 0,
            Some(t0) => {
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.hist.record(ns);
                ns
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record_once();
    }
}

/// Start a [`Span`] recording into histogram `$name` of `$registry`.
///
/// The three-argument form also opens a trace span on `$sink`
/// (a [`TraceSink`]), parented to the span currently open on this
/// thread — nesting these *is* the child form of the span tree.
#[macro_export]
macro_rules! span {
    ($registry:expr, $name:expr) => {
        $crate::Span::start(&$registry, $name)
    };
    ($registry:expr, $name:expr, $sink:expr) => {
        $crate::Span::start_traced(&$registry, $name, &$sink)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_once_on_drop() {
        let registry = Registry::new();
        {
            let _span = crate::span!(registry, "cn_test_stage_ns");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("cn_test_stage_ns").unwrap().count, 1);
    }

    #[test]
    fn finish_records_and_prevents_double_count() {
        let registry = Registry::new();
        let span = Span::start(&registry, "cn_test_finish_ns");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ns = span.finish(); // drop after finish must not record again
        assert!(ns >= 1_000_000, "slept 2ms but recorded {ns}ns");
        let hist = registry.snapshot();
        let hist = hist.histogram("cn_test_finish_ns").unwrap();
        assert_eq!(hist.count, 1);
        assert!(hist.sum >= 1_000_000);
    }

    #[test]
    fn disabled_registry_spans_are_free() {
        let registry = Registry::disabled();
        let span = crate::span!(registry, "cn_test_noop_ns");
        assert_eq!(span.finish(), 0);
        assert!(registry.snapshot().metrics.is_empty());
    }

    #[test]
    fn traced_spans_feed_both_the_histogram_and_the_tree() {
        let registry = Registry::new();
        let sink = TraceSink::new();
        {
            let _outer = crate::span!(registry, "cn_test_outer_ns", sink);
            let _inner = crate::span!(registry, "cn_test_inner_ns", sink);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("cn_test_outer_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("cn_test_inner_ns").unwrap().count, 1);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        // Inner closes first and is parented to outer: the child form.
        assert_eq!(events[0].name, "cn_test_inner_ns");
        assert_eq!(events[0].parent, Some(events[1].id));

        // Disabled sink: histogram still records, no trace events.
        let quiet = TraceSink::disabled();
        {
            let _span = crate::span!(registry, "cn_test_outer_ns", quiet);
        }
        assert!(quiet.is_empty());
        assert_eq!(
            registry
                .snapshot()
                .histogram("cn_test_outer_ns")
                .unwrap()
                .count,
            2
        );

        // Disabled registry: trace still records.
        let off = Registry::disabled();
        {
            let _span = crate::span!(off, "cn_test_ghost_ns", sink);
        }
        assert_eq!(sink.len(), 3);
        assert!(off.snapshot().metrics.is_empty());
    }

    #[test]
    fn two_spans_accumulate_in_one_histogram() {
        let registry = Registry::new();
        for _ in 0..2 {
            let _span = crate::span!(registry, "cn_test_loop_ns");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("cn_test_loop_ns").unwrap().count, 2);
    }
}
