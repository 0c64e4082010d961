//! Zero-dependency metrics and span tracing for the traffic pipelines.
//!
//! The paper's stated downstream use for generated control-plane traffic
//! is driving and *monitoring* a mobile core (§3.1: evaluating MCN
//! designs, sizing deployments, tuning monitoring) — this crate gives our
//! own pipelines the same telemetry. It is std-only (the build container
//! has no registry access; serialization goes through the vendored
//! `serde`/`serde_json` shims) and is wired through three hot paths:
//!
//! * `cn-gen::shard` (`ShardedStream::with_shards_observed`) — per-thread
//!   generated-event and helper-stall counters, slabs filled, records
//!   emitted, the helper mode/count gauges, and worker-exit and panic
//!   counters (`cn_gen_*`);
//! * `cn-mcn::des` — queue depth/latency histograms, admitted/shed
//!   counts by priority, per-NF transaction counters (`cn_mcn_des_*`);
//! * the `cn-verify` gate binaries (`verify_model`, `scenario_check`,
//!   `live_check`, `mcn_check`) — `--metrics <path>` dumps an
//!   [`ObsSnapshot`] next to their normal output.
//!
//! ### Model
//!
//! A [`Registry`] owns named metrics; handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) are cheap `Arc` clones that hot paths keep and update
//! with relaxed atomics — `record()` never allocates and never takes a
//! lock. A **disabled** registry ([`Registry::disabled`]) hands out
//! no-op handles whose updates compile to a predictable branch, so
//! instrumented code costs nothing when observability is off.
//!
//! Histograms use fixed log₂ buckets (65 of them, covering the full
//! `u64` range — `u64::MAX` lands in the last bucket, it does not wrap),
//! so they are allocation-free to record and cheap to merge across shard
//! workers: [`HistogramSnapshot::merge`] is associative, commutative, and
//! count-preserving (property-tested in `tests/properties.rs`).
//!
//! [`Span`] / [`span!`] time coarse stages into `<name>` histograms
//! (nanoseconds) on scope exit.
//!
//! ### Naming
//!
//! Metrics follow `cn_<crate>_<subsystem>_<name>` with Prometheus
//! conventions (`_total` for counters, unit suffixes like `_ns`/`_us`
//! where applicable); dimensions such as the shard index or priority
//! class are labels, not name fragments. See DESIGN.md §7.
//!
//! ### Export
//!
//! [`Registry::snapshot`] freezes every metric into an [`ObsSnapshot`]
//! (serializable, with lookup helpers for gates and tests);
//! [`ObsSnapshot::prometheus`] renders text exposition format and
//! [`ObsSnapshot::to_json`] the JSON form the `--metrics` flags write.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod http;
mod metric;
pub mod recorder;
mod registry;
mod span;
pub mod trace;

pub use export::{MetricSnapshot, MetricValue, ObsSnapshot, PromSample, PromText};
pub use http::{ConsumerStatus, IntrospectionServer, QuantileSample, StatusReport};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use recorder::{
    FlightRecorder, HistogramWindowSample, RateSample, RecorderConfig, RecorderFrame, WindowStats,
};
pub use registry::Registry;
pub use span::Span;
pub use trace::{SpanId, TraceEvent, TraceSink, TraceSpan};
