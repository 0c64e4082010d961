//! The metric registry: named, optionally labeled, shareable.
//!
//! Registration (name → handle) takes a lock and may allocate; hot paths
//! register once up front and then update their handles lock-free.
//! Registering the same `(name, labels)` twice returns a handle to the
//! *same* cell — shard workers and the consumer can independently ask
//! for `cn_gen_shard_events_total{shard="3"}` and count into one place.

use crate::export::{MetricSnapshot, MetricValue, ObsSnapshot};
use crate::metric::{Counter, CounterCore, Gauge, GaugeCore, Histogram, HistogramCore};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};

/// A label set, sorted by key at registration so the same logical labels
/// always form the same metric identity.
pub(crate) type Labels = Vec<(String, String)>;

enum Entry {
    Counter(Arc<CounterCore>),
    Gauge(Arc<GaugeCore>),
    Histogram(Arc<HistogramCore>),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Histogram(_) => "histogram",
        }
    }
}

#[derive(Default)]
struct Inner {
    metrics: Mutex<BTreeMap<(String, Labels), Entry>>,
}

/// A set of named metrics. Clones share the same underlying store;
/// a **disabled** registry ([`Registry::disabled`]) stores nothing and
/// hands out no-op handles, making instrumentation free when off.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Registry(disabled)"),
            Some(inner) => {
                let n = inner.metrics.lock().expect("registry lock").len();
                write!(f, "Registry({n} metrics)")
            }
        }
    }
}

/// Panic unless `name` is a valid metric/label identifier:
/// `[a-z_][a-z0-9_]*`. Misnamed metrics fail at registration (cold
/// path), not at export time.
fn check_identifier(name: &str, what: &str) {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_lowercase() || c == '_');
    let tail_ok = chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    assert!(
        head_ok && tail_ok,
        "invalid {what} {name:?}: use [a-z_][a-z0-9_]* (scheme: cn_<crate>_<subsystem>_<name>)"
    );
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// The no-op registry: hands out handles that ignore every update
    /// and snapshots to nothing.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// False for [`Registry::disabled`].
    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of registered metrics.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.metrics.lock().expect("registry lock").len())
    }

    fn canonical_labels(labels: &[(&str, &str)]) -> Labels {
        let mut labels: Labels = labels
            .iter()
            .map(|(k, v)| {
                check_identifier(k, "label key");
                (k.to_string(), v.to_string())
            })
            .collect();
        labels.sort();
        for pair in labels.windows(2) {
            assert!(
                pair[0].0 != pair[1].0,
                "duplicate label key {:?}",
                pair[0].0
            );
        }
        labels
    }

    fn entry<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Entry,
        extract: impl FnOnce(&Entry) -> Option<T>,
    ) -> Option<T> {
        let inner = self.inner.as_ref()?;
        check_identifier(name, "metric name");
        let key = (name.to_string(), Self::canonical_labels(labels));
        let mut metrics = inner.metrics.lock().expect("registry lock");
        let entry = metrics.entry(key).or_insert_with(make);
        let got = extract(entry);
        assert!(
            got.is_some(),
            "metric {name:?} already registered as a {}",
            entry.kind()
        );
        got
    }

    /// Register (or re-acquire) an unlabeled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Register (or re-acquire) a labeled counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter {
            core: self.entry(
                name,
                labels,
                || Entry::Counter(Arc::new(CounterCore::default())),
                |e| match e {
                    Entry::Counter(c) => Some(Arc::clone(c)),
                    _ => None,
                },
            ),
        }
    }

    /// Register (or re-acquire) an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Register (or re-acquire) a labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge {
            core: self.entry(
                name,
                labels,
                || Entry::Gauge(Arc::new(GaugeCore::default())),
                |e| match e {
                    Entry::Gauge(g) => Some(Arc::clone(g)),
                    _ => None,
                },
            ),
        }
    }

    /// Register (or re-acquire) an unlabeled histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Register (or re-acquire) a labeled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        Histogram {
            core: self.entry(
                name,
                labels,
                || Entry::Histogram(Arc::new(HistogramCore::default())),
                |e| match e {
                    Entry::Histogram(h) => Some(Arc::clone(h)),
                    _ => None,
                },
            ),
        }
    }

    /// Freeze every metric into a serializable snapshot. Metrics appear
    /// in `(name, labels)` order, so snapshots of the same run are
    /// byte-stable regardless of registration order.
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut metrics = Vec::new();
        if let Some(inner) = &self.inner {
            let map = inner.metrics.lock().expect("registry lock");
            for ((name, labels), entry) in map.iter() {
                let value = match entry {
                    Entry::Counter(c) => MetricValue::Counter {
                        value: c.value.load(Relaxed),
                    },
                    Entry::Gauge(g) => MetricValue::Gauge {
                        value: g.value.load(Relaxed),
                    },
                    Entry::Histogram(h) => MetricValue::Histogram {
                        histogram: Histogram {
                            core: Some(Arc::clone(h)),
                        }
                        .snapshot(),
                    },
                };
                metrics.push(MetricSnapshot {
                    name: name.clone(),
                    labels: labels.clone(),
                    value,
                });
            }
        }
        ObsSnapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_one_cell() {
        let r = Registry::new();
        let a = r.counter_with("cn_test_events_total", &[("shard", "0")]);
        let b = r.counter_with("cn_test_events_total", &[("shard", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.len(), 1);
        // A different label value is a different cell.
        let c = r.counter_with("cn_test_events_total", &[("shard", "1")]);
        c.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn label_order_does_not_split_identity() {
        let r = Registry::new();
        let a = r.counter_with("cn_test_x_total", &[("a", "1"), ("b", "2")]);
        let b = r.counter_with("cn_test_x_total", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn kind_collision_panics() {
        let r = Registry::new();
        let _ = r.counter("cn_test_collide");
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.gauge("cn_test_collide")));
        assert!(err.is_err(), "registering a gauge over a counter must fail");
    }

    #[test]
    fn invalid_names_are_rejected_at_registration() {
        let r = Registry::new();
        for bad in ["", "9leading", "has-dash", "Upper", "sp ace"] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.counter(bad)));
            assert!(err.is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn disabled_registry_registers_and_snapshots_nothing() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("cn_test_total");
        c.add(100);
        assert_eq!(c.get(), 0);
        assert!(!c.is_enabled());
        assert_eq!(r.len(), 0);
        assert!(r.snapshot().metrics.is_empty());
        let h = r.histogram("cn_test_hist");
        h.record(1);
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn clones_share_the_store() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("cn_test_one_total").inc();
        assert_eq!(r2.counter("cn_test_one_total").get(), 1);
        assert_eq!(r2.len(), 1);
    }

    #[test]
    fn snapshot_is_ordered_and_complete() {
        let r = Registry::new();
        r.gauge("cn_test_b_gauge").set(7);
        r.counter("cn_test_a_total").add(3);
        r.histogram("cn_test_c_hist").record(16);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["cn_test_a_total", "cn_test_b_gauge", "cn_test_c_hist"]
        );
        assert_eq!(snap.counter("cn_test_a_total"), Some(3));
        assert_eq!(snap.gauge("cn_test_b_gauge"), Some(7));
        assert_eq!(snap.histogram("cn_test_c_hist").unwrap().count, 1);
    }
}
