//! Verification and evaluation: the model's round-trip acceptance
//! harness, the golden gates, and the experiment harness that reproduces
//! every table and figure of the paper.
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
//!   pinned exactly in `BENCH_mcn.json`.
//!
//! Small configurations run under `cargo test`; the same checks run at
//! depth via `cargo run --release -p cn-verify --bin verify_model`.
//!
//! # Paper evaluation
//!
//! The experiment harness reproduces the paper's evaluation (§4, §8,
//! Appendices A–C) against the `cn-world` ground truth, driven by the
//! `repro` binary (`repro all`, `repro table4`, `repro fig3`, ...):
//!
//! | Paper artifact | Module/function |
//! |---|---|
//! | Table 1 (event breakdown) | [`experiments::table1`] |
//! | Fig. 2 (per-device-hour box plots) | [`experiments::fig2`] |
//! | Fig. 3 (variance–time plots) | [`experiments::fig3`] |
//! | Fig. 4 (real vs fitted-Poisson CDFs) | [`experiments::fig4`] |
//! | Table 2 (4G↔5G mapping) | [`experiments::table2`] |
//! | Table 3 (method matrix) | [`experiments::table3`] |
//! | Table 4 / Table 11 (breakdown differences, Scenario 2 / 1) | [`experiments::table4`] |
//! | Table 5 (max y-distance, per-UE counts & sojourns) | [`experiments::table5`] |
//! | Table 6 (inactive/active split) | [`experiments::table6`] |
//! | Table 7 (projected 5G breakdowns) | [`experiments::table7`] |
//! | Tables 8/9 (distribution-test pass rates, no/with clustering) | [`experiments::table8or9`] |
//! | Table 10 (second-level transition pass rates) | [`experiments::table10`] |
//! | Fig. 7 (per-UE count CDFs) | [`experiments::fig7`] |
//!
//! The [`Lab`] memoizes the expensive artifacts (world traces, fitted
//! models, synthesized traces) so the full battery shares work. Beyond the
//! paper's own artifacts, [`ablation`] quantifies the design choices the
//! implementation surfaced (clustering threshold, competing-risks
//! censoring, persona consistency), and [`verdicts()`] turns each
//! EXPERIMENTS.md shape claim into an executable check, reported in the
//! same claim/measured/pass shape as the round trip.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod breakdown;
pub mod experiments;
pub mod generalize;
pub mod golden;
pub mod lab;
pub mod mcn;
pub mod microscopic;
mod model;
mod report;
mod roundtrip;
mod scenario;
mod testsuite;
mod verdict;
mod verdicts;

pub use golden::{check_pinned, run_golden, run_golden_observed, GoldenCase, GoldenReport};
pub use lab::{ExperimentConfig, Lab};
pub use mcn::{check_bench, check_bench_at, drive_des, McnBench, McnError, McnScenarioBench};
pub use model::GroundTruth;
pub use report::Table;
pub use roundtrip::{run_round_trip, RoundTripConfig, RoundTripReport, TransitionCheck};
pub use scenario::{
    flash_crowd_spec, identity_spec, paging_storm_spec, run_scenario_golden, PIN_FLASH_CROWD,
    PIN_IDENTITY, PIN_PAGING_STORM,
};
pub use verdicts::verdicts;
