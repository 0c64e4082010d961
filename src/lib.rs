//! # cellular-cp-traffgen
//!
//! Modeling and generating control-plane traffic for cellular networks —
//! a full Rust reproduction of the IMC '23 paper by Meng et al.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`trace`] — event types, UE ids, timestamps, sorted trace containers,
//!   trace I/O (CSV / JSONL / compact binary).
//! * [`stats`] — distributions + MLE fitting, K–S and Anderson–Darling
//!   tests, empirical CDFs, variance–time plots.
//! * [`statemachine`] — the merged 3GPP EMM–ECM machine, the paper's two-level
//!   hierarchical machine (Fig. 5), the 5G SA machine (Fig. 6), and the
//!   replay engine.
//! * [`cluster`] — the adaptive quadtree UE-clustering scheme (§5.3).
//! * [`world`] — the mechanistic ground-truth simulator standing in for
//!   the proprietary carrier trace.
//! * [`fit_crate`] (exported as `fit_crate`) — the fitting pipeline: per-(cluster, hour, device)
//!   Semi-Markov models, first-event models, the Base/B1/B2/Ours method
//!   matrix (Table 3).
//! * [`gen`] — the scalable per-UE trace generator (§7).
//! * [`fiveg`] — the 5G NSA/SA adaptation (§6, Table 2).
//! * [`eval`] — the evaluation harness reproducing every paper table and
//!   figure.
//! * [`mcn`] — a miniature core-network consumer (per-UE MME state tables
//!   and a multi-NF discrete-event queueing simulator), the paper's
//!   motivating use case.
//! * [`obs`] — the zero-dependency metrics/tracing layer every pipeline
//!   stage reports through (counters, gauges, log2 histograms, spans,
//!   Prometheus/JSON export).
//!
//! ## Quickstart
//!
//! ```
//! use cellular_cp_traffgen::prelude::*;
//!
//! // 1. A ground-truth "carrier" trace (stand-in for the paper's data).
//! let world = generate_world(&WorldConfig::new(PopulationMix::new(30, 10, 5), 1.0, 7));
//!
//! // 2. Fit the paper's model: two-level Semi-Markov + clustering + CDFs.
//! let models = fit(&world, &FitConfig::new(Method::Ours));
//!
//! // 3. Synthesize a busy-hour trace for a *different* population size.
//! let config = GenConfig::new(
//!     PopulationMix::new(60, 20, 10),
//!     Timestamp::at_hour(0, 18),
//!     1.0,
//!     42,
//! );
//! let synthetic = generate(&models, &config);
//!
//! // Every event is labeled with its originating UE and is protocol-
//! // conformant, so it can drive per-UE core-network state.
//! for ue_events in synthetic.per_ue().iter().take(3) {
//!     let outcome = cn_statemachine::replay_ue(ue_events.1);
//!     assert!(outcome.is_conformant());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cn_cluster as cluster;
pub use cn_eval as eval;
pub use cn_fit as fit_crate;
pub use cn_fivegee as fiveg;
pub use cn_gen as gen;
pub use cn_live as live;
pub use cn_mcn as mcn;
pub use cn_obs as obs;
pub use cn_scenario as scenario;
pub use cn_statemachine as statemachine;
pub use cn_stats as stats;
pub use cn_trace as trace;
pub use cn_world as world;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use cn_eval::{ExperimentConfig, Lab};
    pub use cn_fit::{fit, FitConfig, Method, ModelSet};
    pub use cn_fivegee::{adapt_model, ScalingProfile};
    pub use cn_gen::{generate, GenConfig};
    pub use cn_mcn::{DesConfig, DesSim, Mme};
    pub use cn_trace::{DeviceType, EventType, PopulationMix, Timestamp, Trace, TraceRecord, UeId};
    pub use cn_world::{generate_world, WorldConfig};
}
