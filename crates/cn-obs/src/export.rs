//! Snapshot types and the two exporters.
//!
//! [`ObsSnapshot`] is the frozen form of a registry: what the
//! `--metrics <path>` flags write (JSON, via the vendored serde shim),
//! what tests and CI gates assert against, and the input to the
//! Prometheus text renderer. Lookup helpers return `Option` so a gate
//! can distinguish "metric absent" from "metric zero".

use crate::metric::{bucket_upper_bound, HistogramSnapshot};
use serde::{Deserialize, Serialize};

/// One frozen metric value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricValue {
    /// A monotone counter.
    Counter {
        /// Current count.
        value: u64,
    },
    /// A level gauge.
    Gauge {
        /// Current level.
        value: u64,
    },
    /// A log₂ histogram.
    Histogram {
        /// The frozen buckets.
        histogram: HistogramSnapshot,
    },
}

/// One frozen metric: identity plus value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricSnapshot {
    /// Metric name (`cn_<crate>_<subsystem>_<name>`).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

/// A full registry snapshot: every metric, in `(name, labels)` order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// The frozen metrics.
    pub metrics: Vec<MetricSnapshot>,
}

impl ObsSnapshot {
    /// Find a metric by exact name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSnapshot> {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        self.metrics
            .iter()
            .find(|m| m.name == name && m.labels == labels)
    }

    /// Value of the unlabeled counter `name`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name, &[])?.value {
            MetricValue::Counter { value } => Some(value),
            _ => None,
        }
    }

    /// Sum of every counter named `name` across all label sets —
    /// e.g. total events over all `{shard="i"}` series. `None` when no
    /// such counter exists (a sum of zero counters is not "0 events").
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        let mut found = false;
        let mut total = 0u64;
        for m in &self.metrics {
            if m.name == name {
                if let MetricValue::Counter { value } = m.value {
                    found = true;
                    total = total.saturating_add(value);
                }
            }
        }
        found.then_some(total)
    }

    /// Value of the unlabeled gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.get(name, &[])?.value {
            MetricValue::Gauge { value } => Some(value),
            _ => None,
        }
    }

    /// The unlabeled histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match &self.get(name, &[])?.value {
            MetricValue::Histogram { histogram } => Some(histogram),
            _ => None,
        }
    }

    /// Serialize to the JSON form the `--metrics` flags write.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes") + "\n"
    }

    /// Parse a snapshot back from [`ObsSnapshot::to_json`] output.
    #[cfg(test)]
    fn from_json(json: &str) -> Result<ObsSnapshot, String> {
        serde_json::from_str(json).map_err(|e| format!("invalid ObsSnapshot JSON: {e}"))
    }

    /// Prometheus text exposition format (one `# TYPE` line per family;
    /// histograms as cumulative `_bucket{le=...}` series plus `_sum` and
    /// `_count`; empty buckets elided).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for m in &self.metrics {
            let family_kind = match m.value {
                MetricValue::Counter { .. } => "counter",
                MetricValue::Gauge { .. } => "gauge",
                MetricValue::Histogram { .. } => "histogram",
            };
            if last_family != Some(m.name.as_str()) {
                out.push_str(&format!("# TYPE {} {}\n", m.name, family_kind));
                last_family = Some(m.name.as_str());
            }
            match &m.value {
                MetricValue::Counter { value } | MetricValue::Gauge { value } => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        m.name,
                        render_labels(&m.labels, &[]),
                        value
                    ));
                }
                MetricValue::Histogram { histogram } => {
                    // Finite buckets where the cumulative count moves; the
                    // last bucket is covered by the mandatory +Inf line.
                    let mut cumulative = 0u64;
                    for (i, &n) in histogram.buckets.iter().take(64).enumerate() {
                        if n == 0 {
                            continue;
                        }
                        cumulative = cumulative.saturating_add(n);
                        let le = bucket_upper_bound(i).to_string();
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            m.name,
                            render_labels(&m.labels, &[("le", &le)]),
                            cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        m.name,
                        render_labels(&m.labels, &[("le", "+Inf")]),
                        histogram.count
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        m.name,
                        render_labels(&m.labels, &[]),
                        histogram.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        m.name,
                        render_labels(&m.labels, &[]),
                        histogram.count
                    ));
                }
            }
        }
        out
    }
}

/// One sample line parsed back from Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Sample name as written (families expand to `_bucket`/`_sum`/
    /// `_count` lines, so this is not always a registry metric name).
    pub(crate) name: String,
    /// Label pairs in written order, values unescaped.
    pub(crate) labels: Vec<(String, String)>,
    /// The sample value (`+Inf` bucket counts and all integers parse as
    /// their `f64` value).
    pub(crate) value: f64,
}

/// A parsed scrape: the inverse of [`ObsSnapshot::prometheus`] down to
/// individual samples, used by the HTTP endpoint tests and
/// `live_check`'s mid-serve scrape gate to assert that what a real
/// Prometheus would ingest matches the registry. The parser implements
/// the text-format escaping rules (`\\`, `\"`, `\n` in label values),
/// so a hostile label value survives the render → scrape round trip.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PromText {
    /// Every sample line, in exposition order.
    pub(crate) samples: Vec<PromSample>,
}

impl PromText {
    /// Parse text exposition. Comment (`#`) and blank lines are
    /// skipped; any malformed sample line is an error (a scrape gate
    /// that silently dropped bad lines would pass vacuously).
    pub fn parse(text: &str) -> Result<PromText, String> {
        let mut samples = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim_end_matches('\r');
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            samples.push(parse_sample_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
        }
        Ok(PromText { samples })
    }

    /// The sample `name{labels}`, if present (labels compared as sets).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        want.sort();
        self.samples
            .iter()
            .find(|s| {
                if s.name != name {
                    return false;
                }
                let mut got = s.labels.clone();
                got.sort();
                got == want
            })
            .map(|s| s.value)
    }

    /// The unlabeled sample `name` as a `u64`, `None` if absent or not
    /// a non-negative integer (counters and gauges are integral here).
    pub fn counter(&self, name: &str) -> Option<u64> {
        let v = self.value(name, &[])?;
        (v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64).then_some(v as u64)
    }
}

/// Parse one `name{k="v",...} value` sample line.
fn parse_sample_line(line: &str) -> Result<PromSample, String> {
    let mut chars = line.char_indices().peekable();
    let name_end = chars
        .find(|&(_, c)| c == '{' || c == ' ')
        .map(|(i, _)| i)
        .ok_or("no value on sample line")?;
    let name = &line[..name_end];
    if name.is_empty() {
        return Err("empty sample name".into());
    }
    let mut labels = Vec::new();
    let rest = &line[name_end..];
    let value_str = if let Some(body) = rest.strip_prefix('{') {
        let close = parse_labels(body, &mut labels)?;
        body[close..]
            .strip_prefix('}')
            .ok_or("unterminated label set")?
            .trim_start_matches(' ')
    } else {
        rest.trim_start_matches(' ')
    };
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        s => s
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {s:?}"))?,
    };
    Ok(PromSample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parse `k="v",...` into `labels`, returning the byte offset of the
/// closing `}` within `body`. Label values unescape `\\` → `\`,
/// `\"` → `"`, `\n` → newline.
fn parse_labels(body: &str, labels: &mut Vec<(String, String)>) -> Result<usize, String> {
    let bytes = body.as_bytes();
    let mut i = 0usize;
    loop {
        if i >= bytes.len() {
            return Err("unterminated label set".into());
        }
        if bytes[i] == b'}' {
            return Ok(i);
        }
        if bytes[i] == b',' {
            i += 1;
            continue;
        }
        let key_start = i;
        while i < bytes.len() && bytes[i] != b'=' {
            i += 1;
        }
        let key = &body[key_start..i];
        if key.is_empty() || i >= bytes.len() {
            return Err("malformed label key".into());
        }
        i += 1; // '='
        if i >= bytes.len() || bytes[i] != b'"' {
            return Err("label value must be quoted".into());
        }
        i += 1; // opening quote
        let mut value = String::new();
        loop {
            match body[i..].chars().next() {
                None => return Err("unterminated label value".into()),
                Some('"') => {
                    i += 1;
                    break;
                }
                Some('\\') => {
                    let esc = body[i + 1..]
                        .chars()
                        .next()
                        .ok_or("dangling escape in label value")?;
                    value.push(match esc {
                        '\\' => '\\',
                        '"' => '"',
                        'n' => '\n',
                        other => return Err(format!("unknown escape \\{other}")),
                    });
                    i += 1 + esc.len_utf8();
                }
                Some(c) => {
                    value.push(c);
                    i += c.len_utf8();
                }
            }
        }
        labels.push((key.to_string(), value));
    }
}

/// `{base,extra...}` label rendering with Prometheus escaping; empty
/// label sets render as nothing.
fn render_labels(base: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if base.is_empty() && extra.is_empty() {
        return String::new();
    }
    let escape = |v: &str| {
        v.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    };
    let rendered: Vec<String> = base
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .chain(extra.iter().map(|(k, v)| format!("{k}=\"{}\"", escape(v))))
        .collect();
    format!("{{{}}}", rendered.join(","))
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    fn sample() -> crate::ObsSnapshot {
        let r = Registry::new();
        r.counter_with("cn_gen_shard_events_total", &[("shard", "0")])
            .add(10);
        r.counter_with("cn_gen_shard_events_total", &[("shard", "1")])
            .add(32);
        r.gauge("cn_gen_shard_workers").set(2);
        let h = r.histogram("cn_test_sample_len");
        for v in [1u64, 1, 2, 8, 1000] {
            h.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = sample();
        let json = snap.to_json();
        let back = crate::ObsSnapshot::from_json(&json).expect("parse back");
        assert_eq!(back, snap);
        assert!(crate::ObsSnapshot::from_json("{nope").is_err());
    }

    #[test]
    fn lookup_helpers_distinguish_absent_from_zero() {
        let snap = sample();
        assert_eq!(snap.counter_total("cn_gen_shard_events_total"), Some(42));
        assert_eq!(snap.counter_total("cn_gen_missing_total"), None);
        assert_eq!(snap.gauge("cn_gen_shard_workers"), Some(2));
        assert_eq!(snap.gauge("cn_gen_shard_events_total"), None, "wrong kind");
        assert_eq!(
            snap.get("cn_gen_shard_events_total", &[("shard", "1")])
                .map(|m| m.name.as_str()),
            Some("cn_gen_shard_events_total")
        );
        assert_eq!(snap.histogram("cn_test_sample_len").unwrap().count, 5);
    }

    #[test]
    fn prometheus_exposition_has_families_series_and_cumulative_buckets() {
        let text = sample().prometheus();
        assert!(text.contains("# TYPE cn_gen_shard_events_total counter"));
        // One TYPE line per family even with two series.
        assert_eq!(text.matches("# TYPE cn_gen_shard_events_total").count(), 1);
        assert!(text.contains("cn_gen_shard_events_total{shard=\"0\"} 10"));
        assert!(text.contains("cn_gen_shard_events_total{shard=\"1\"} 32"));
        assert!(text.contains("# TYPE cn_gen_shard_workers gauge"));
        assert!(text.contains("cn_gen_shard_workers 2"));
        assert!(text.contains("# TYPE cn_test_sample_len histogram"));
        // Cumulative: le="1" sees both 1s, +Inf sees everything.
        assert!(text.contains("cn_test_sample_len_bucket{le=\"1\"} 2"));
        assert!(text.contains("cn_test_sample_len_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("cn_test_sample_len_sum 1012"));
        assert!(text.contains("cn_test_sample_len_count 5"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("cn_test_total", &[("path", "a\"b\\c\nd")])
            .inc();
        let text = r.snapshot().prometheus();
        assert!(text.contains(r#"path="a\"b\\c\nd""#), "{text}");
    }

    #[test]
    fn hostile_label_values_survive_the_render_scrape_round_trip() {
        // Backslash, quote, newline, and the literal two-character
        // sequence `\n` — the classic exposition-format traps.
        let hostile = "a\"b\\c\nd\\ne";
        let r = Registry::new();
        r.counter_with("cn_test_hostile_total", &[("path", hostile)])
            .add(7);
        r.counter("cn_test_plain_total").add(3);
        let text = r.snapshot().prometheus();
        // The rendered line must stay one line (the newline is escaped).
        assert!(
            text.lines()
                .any(|l| l.starts_with("cn_test_hostile_total{")),
            "{text}"
        );
        let parsed = crate::PromText::parse(&text).expect("scrape parses");
        assert_eq!(
            parsed.value("cn_test_hostile_total", &[("path", hostile)]),
            Some(7.0),
            "raw hostile value must be recoverable from the scrape"
        );
        assert_eq!(parsed.counter("cn_test_plain_total"), Some(3));
    }

    #[test]
    fn prom_parser_reads_full_expositions_and_rejects_garbage() {
        let text = sample().prometheus();
        let parsed = crate::PromText::parse(&text).expect("parse own exposition");
        assert_eq!(
            parsed.value("cn_gen_shard_events_total", &[("shard", "1")]),
            Some(32.0)
        );
        assert_eq!(parsed.counter("cn_gen_shard_workers"), Some(2));
        assert_eq!(parsed.counter("cn_test_sample_len_count"), Some(5));
        assert_eq!(
            parsed.value("cn_test_sample_len_bucket", &[("le", "+Inf")]),
            Some(5.0)
        );
        // Histogram sample lines expand per family: every sample parsed.
        assert!(parsed.samples.len() > sample().metrics.len());
        for bad in [
            "cn_x{le=\"1\" 3",       // unterminated label set
            "cn_x{le=1} 3",          // unquoted value
            "cn_x{le=\"\\q\"} 3",    // unknown escape
            "cn_x{le=\"1\"} pickle", // non-numeric value
            "{le=\"1\"} 3",          // empty name
            "cn_x",                  // no value
        ] {
            assert!(crate::PromText::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
