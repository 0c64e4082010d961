//! Statistical round-trip validation and conformance-replay harness.
//!
//! The paper validates its model by comparing distributions of generated
//! traffic against the modeled trace (§7, Tables 8–10). This crate closes
//! that loop as an executable subsystem over a *fully known* ground truth:
//!
//! * [`GroundTruth`] — a synthetic single-cluster [`cn_fit::ModelSet`]
//!   whose every branch probability and sojourn law is known exactly;
//! * [`run_round_trip`] — generate a seeded population, demand
//!   100% conformance under two-level replay, re-fit per-transition sojourn
//!   laws from the replayed trace, and gate each against its ground truth
//!   with the two-sample K–S test plus a probability tolerance band;
//! * [`golden`] — pinned FNV-1a hashes of canonical trace bytes across the
//!   batch/stream/sharded engines and thread/shard counts, catching any
//!   unintended change to generator behavior or the vendored RNG stream;
//! * [`run_scenario_golden`] — golden gates for `cn-scenario`: identity inertness
//!   against the steady-state pin, engine-equivalence of perturbed
//!   overlays, and pinned hashes for the canonical flash-crowd and
//!   paging-storm scenarios;
//! * [`mcn`] — the closed-loop core-simulator gate: a 2 000-UE storm
//!   block drives the multi-NF DES (batch and over the live wire), and
//!   the report (its hash, p99 latency, shed rate, scaling lag) is
//!   pinned exactly in `BENCH_mcn.json`;
//! * [`VerdictReport`] — the claim/measured/pass report shape shared with
//!   `cn-eval`'s paper-claims table.
//!
//! Small configurations run under `cargo test`; the same checks run at
//! depth via `cargo run --release -p cn-verify --bin verify_model`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;
pub mod mcn;
mod model;
mod roundtrip;
mod scenario;
mod verdict;

pub use golden::{check_pinned, run_golden, run_golden_observed, GoldenCase, GoldenReport};
pub use mcn::{check_bench, check_bench_at, drive_des, McnBench, McnError, McnScenarioBench};
pub use model::GroundTruth;
pub use roundtrip::{run_round_trip, RoundTripConfig, RoundTripReport, TransitionCheck};
pub use scenario::{
    flash_crowd_spec, identity_spec, paging_storm_spec, run_scenario_golden, PIN_FLASH_CROWD,
    PIN_IDENTITY, PIN_PAGING_STORM,
};
pub use verdict::{Verdict, VerdictReport};
