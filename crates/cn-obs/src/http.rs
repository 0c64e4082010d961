//! The introspection endpoint: a tiny std-only HTTP/1.1 scrape server.
//!
//! [`IntrospectionServer::bind`] starts a nonblocking acceptor thread
//! (plain threads and blocking I/O, matching cn-live's no-async-runtime
//! stance); each connection gets one handler thread that answers a
//! single GET and closes. Three paths:
//!
//! * `/metrics` — Prometheus text exposition of a live registry
//!   snapshot (`text/plain`), what a real scraper would ingest;
//! * `/status` — a JSON [`StatusReport`]: uptime, the current window's
//!   rates and quantiles (from the [`FlightRecorder`]'s latest frame
//!   when one is attached, cumulative otherwise), and per-consumer
//!   series grouped by their `consumer` label;
//! * `/recorder` — the recorder's full ring as JSON (`[]` when no
//!   recorder is attached).
//!
//! Deliberately not a web framework: GET only (405 otherwise), 404 for
//! unknown paths, every response carries `Content-Length` and
//! `Connection: close`, requests over 8 KiB or slower than the read
//! timeout are dropped. The server only ever reads the registry, so
//! scraping cannot perturb the serve loop beyond a snapshot's relaxed
//! atomic loads.

use crate::export::ObsSnapshot;
use crate::metric::HistogramSnapshot;
use crate::recorder::{FlightRecorder, RateSample};
use crate::registry::Registry;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cap on one request's header bytes.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Per-connection read timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// p50/p99 of one histogram, estimated with
/// [`HistogramSnapshot::quantile_est`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSample {
    /// Histogram name.
    pub name: String,
    /// Label pairs.
    pub(crate) labels: Vec<(String, String)>,
    /// Observations in the window this estimate covers.
    pub(crate) count: u64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// One consumer's series, grouped from metrics carrying a `consumer`
/// label (the cn-live hub registers lag/backlog/drops per consumer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsumerStatus {
    /// The `consumer` label value (accept-order id).
    pub consumer: String,
    /// `(metric name, value)` pairs for this consumer, name-sorted.
    pub(crate) series: Vec<(String, u64)>,
}

/// What `/status` serves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// Seconds since the introspection server started.
    pub uptime_s: f64,
    /// Width of the window the rates/quantiles cover, `None` when no
    /// recorder is attached (then they are cumulative-since-start).
    pub window_ms: Option<u64>,
    /// Counter rates (events/s) over the window.
    pub rates: Vec<RateSample>,
    /// Histogram quantile estimates over the window.
    pub quantiles: Vec<QuantileSample>,
    /// Per-consumer series grouped by the `consumer` label.
    pub consumers: Vec<ConsumerStatus>,
}

/// Build the `/status` document from a snapshot and (optionally) the
/// recorder's latest frame. Public so `cn-live` tests and examples can
/// assert on the exact document the endpoint would serve.
pub(crate) fn status_report(
    snapshot: &ObsSnapshot,
    latest: Option<&crate::recorder::RecorderFrame>,
    uptime_s: f64,
) -> StatusReport {
    let quantile =
        |name: &str, labels: &[(String, String)], h: &HistogramSnapshot| QuantileSample {
            name: name.to_string(),
            labels: labels.to_vec(),
            count: h.count,
            p50: h.quantile_est(0.50).unwrap_or(0.0),
            p99: h.quantile_est(0.99).unwrap_or(0.0),
        };
    let (window_ms, rates, quantiles) = match latest {
        Some(frame) => (
            Some(frame.window_ms),
            frame.window.rates.clone(),
            frame
                .window
                .histograms
                .iter()
                .map(|h| quantile(&h.name, &h.labels, &h.delta))
                .collect(),
        ),
        None => {
            let mut rates = Vec::new();
            let mut quantiles = Vec::new();
            let window_s = uptime_s.max(1e-3);
            for m in &snapshot.metrics {
                match &m.value {
                    crate::export::MetricValue::Counter { value } => rates.push(RateSample {
                        name: m.name.clone(),
                        labels: m.labels.clone(),
                        per_s: *value as f64 / window_s,
                    }),
                    crate::export::MetricValue::Histogram { histogram }
                        if !histogram.is_empty() =>
                    {
                        quantiles.push(quantile(&m.name, &m.labels, histogram));
                    }
                    _ => {}
                }
            }
            (None, rates, quantiles)
        }
    };
    let mut consumers: Vec<ConsumerStatus> = Vec::new();
    for m in &snapshot.metrics {
        let Some((_, id)) = m.labels.iter().find(|(k, _)| k == "consumer") else {
            continue;
        };
        let value = match &m.value {
            crate::export::MetricValue::Counter { value }
            | crate::export::MetricValue::Gauge { value } => *value,
            crate::export::MetricValue::Histogram { histogram } => histogram.count,
        };
        let entry = match consumers.iter_mut().find(|c| c.consumer == *id) {
            Some(entry) => entry,
            None => {
                consumers.push(ConsumerStatus {
                    consumer: id.clone(),
                    series: Vec::new(),
                });
                consumers.last_mut().unwrap()
            }
        };
        entry.series.push((m.name.clone(), value));
    }
    consumers.sort_by(|a, b| {
        let numeric = |s: &str| s.parse::<u64>().ok();
        match (numeric(&a.consumer), numeric(&b.consumer)) {
            (Some(x), Some(y)) => x.cmp(&y),
            _ => a.consumer.cmp(&b.consumer),
        }
    });
    StatusReport {
        uptime_s,
        window_ms,
        rates,
        quantiles,
        consumers,
    }
}

struct HttpShared {
    registry: Registry,
    recorder: Option<FlightRecorder>,
    origin: Instant,
    stop: AtomicBool,
}

/// A running introspection endpoint; see the module docs. Dropping the
/// last handle (or calling [`IntrospectionServer::stop`]) winds the
/// acceptor down.
#[derive(Clone)]
pub struct IntrospectionServer {
    shared: Arc<HttpShared>,
    addr: SocketAddr,
}

impl IntrospectionServer {
    /// Bind `addr` (use port 0 to let the OS pick) and start serving
    /// snapshots of `registry`; `recorder` backs `/status` windows and
    /// `/recorder`.
    pub fn bind(
        addr: &str,
        registry: &Registry,
        recorder: Option<FlightRecorder>,
    ) -> std::io::Result<IntrospectionServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(HttpShared {
            registry: registry.clone(),
            recorder,
            origin: Instant::now(),
            stop: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("cn-obs-http".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(IntrospectionServer {
            shared,
            addr: local,
        })
    }

    /// The bound address (for building scrape URLs in tests and logs).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the acceptor to wind down (in-flight responses finish).
    pub fn stop(&self) {
        self.shared.stop.store(true, SeqCst);
    }
}

impl Drop for HttpShared {
    fn drop(&mut self) {
        self.stop.store(true, SeqCst);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<HttpShared>) {
    // Exponential poll backoff: a scraper mid-burst is re-polled every
    // 2 ms, but an idle listener settles at 50 ms wakeups. The plane
    // must stay invisible to the workload it introspects — on a
    // single-core box a tight 5 ms poll measurably taxes the hot path
    // it exists to observe.
    const IDLE_SLEEP_MIN: Duration = Duration::from_millis(2);
    const IDLE_SLEEP_MAX: Duration = Duration::from_millis(50);
    let mut idle_sleep = IDLE_SLEEP_MIN;
    loop {
        if shared.stop.load(SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                idle_sleep = IDLE_SLEEP_MIN;
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("cn-obs-http-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, &shared);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(idle_sleep);
                idle_sleep = (idle_sleep * 2).min(IDLE_SLEEP_MAX);
            }
            Err(_) => return,
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<HttpShared>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let request = read_request_head(&mut stream)?;
    let (status, content_type, body) = match parse_request_line(&request) {
        RequestLine::Get(path) => match path.as_str() {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                shared.registry.snapshot().prometheus(),
            ),
            "/status" => {
                let snapshot = shared.registry.snapshot();
                let latest = shared.recorder.as_ref().and_then(|r| r.latest());
                let report = status_report(
                    &snapshot,
                    latest.as_ref(),
                    shared.origin.elapsed().as_secs_f64(),
                );
                (
                    "200 OK",
                    "application/json",
                    serde_json::to_string(&report).expect("status serializes") + "\n",
                )
            }
            "/recorder" => {
                let frames = shared
                    .recorder
                    .as_ref()
                    .map(|r| r.frames())
                    .unwrap_or_default();
                (
                    "200 OK",
                    "application/json",
                    serde_json::to_string(&frames).expect("frames serialize") + "\n",
                )
            }
            other => (
                "404 Not Found",
                "text/plain; version=0.0.4",
                format!("no such path: {other}\n"),
            ),
        },
        RequestLine::OtherMethod => (
            "405 Method Not Allowed",
            "text/plain; version=0.0.4",
            "GET only\n".to_string(),
        ),
        RequestLine::Malformed => (
            "400 Bad Request",
            "text/plain; version=0.0.4",
            "malformed request line\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Read up to the end of the request headers (or the size cap).
fn read_request_head(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

enum RequestLine {
    Get(String),
    OtherMethod,
    Malformed,
}

fn parse_request_line(request: &str) -> RequestLine {
    let Some(line) = request.lines().next() else {
        return RequestLine::Malformed;
    };
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return RequestLine::Malformed;
    };
    if !version.starts_with("HTTP/1.") {
        return RequestLine::Malformed;
    }
    if method != "GET" {
        return RequestLine::OtherMethod;
    }
    // Strip any query string: the endpoints take no parameters.
    let path = target.split('?').next().unwrap_or(target);
    RequestLine::Get(path.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_report_groups_consumers_and_estimates_quantiles() {
        let r = Registry::new();
        r.counter("cn_live_emitted_total").add(100);
        r.counter_with("cn_live_consumer_drops_total", &[("consumer", "0")])
            .add(2);
        r.gauge_with("cn_live_consumer_backlog_blocks", &[("consumer", "0")])
            .set(9);
        r.counter_with("cn_live_consumer_drops_total", &[("consumer", "10")])
            .add(1);
        let h = r.histogram("cn_live_lag_ms");
        for v in [1u64, 2, 3, 700] {
            h.record(v);
        }
        let report = status_report(&r.snapshot(), None, 2.0);
        assert_eq!(report.window_ms, None);
        let emitted = report
            .rates
            .iter()
            .find(|s| s.name == "cn_live_emitted_total")
            .unwrap();
        assert!((emitted.per_s - 50.0).abs() < 1e-9);
        let lag = &report.quantiles[0];
        assert_eq!(lag.name, "cn_live_lag_ms");
        assert!(lag.p50 <= lag.p99);
        assert!(lag.p99 <= 1023.0, "p99 inside 700's bucket: {}", lag.p99);
        // Consumers grouped, numerically ordered (0 before 10), with
        // both their counter and gauge series.
        assert_eq!(report.consumers.len(), 2);
        assert_eq!(report.consumers[0].consumer, "0");
        assert_eq!(report.consumers[1].consumer, "10");
        assert!(report.consumers[0]
            .series
            .iter()
            .any(|(n, v)| n == "cn_live_consumer_backlog_blocks" && *v == 9));
        let json = serde_json::to_string(&report).unwrap();
        let back: StatusReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn request_line_parsing() {
        assert!(matches!(
            parse_request_line("GET /metrics HTTP/1.1\r\n"),
            RequestLine::Get(p) if p == "/metrics"
        ));
        assert!(matches!(
            parse_request_line("GET /status?x=1 HTTP/1.0\r\n"),
            RequestLine::Get(p) if p == "/status"
        ));
        assert!(matches!(
            parse_request_line("POST /metrics HTTP/1.1\r\n"),
            RequestLine::OtherMethod
        ));
        assert!(matches!(
            parse_request_line("GET /metrics SMTP\r\n"),
            RequestLine::Malformed
        ));
        assert!(matches!(parse_request_line(""), RequestLine::Malformed));
    }
}
