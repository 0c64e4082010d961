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
//! | Table 1 (event breakdown) | [`experiments::table1`] over the world profile |
//! | Fig. 2 (per-device-hour box plots) | [`experiments::fig2`] over the world profile |
//! | Fig. 3 (variance–time plots) | [`experiments::fig3`] over the world's event streams |
//! | Fig. 4 (real vs fitted-Poisson CDFs) | [`experiments::fig4`] over the world profile |
//! | Table 2 (4G↔5G mapping) | [`experiments::table2`] |
//! | Table 3 (method matrix) | [`experiments::table3`] |
//! | Table 4 / Table 11 (breakdown differences, Scenario 2 / 1) | [`experiments::table4`] over [`profile`] |
//! | Table 5 (max y-distance, per-UE counts & sojourns) | [`experiments::table5`] over [`profile`] |
//! | Table 6 (inactive/active split) | [`experiments::table6`] over [`profile`] |
//! | Table 7 (projected 5G breakdowns) | [`experiments::table7`] |
//! | Tables 8/9 (distribution-test pass rates, no/with clustering) | [`experiments::table8or9`] over the world's battery |
//! | Table 10 (second-level transition pass rates) | [`experiments::table10`] over the world's battery |
//! | Fig. 7 (per-UE count CDFs) | [`experiments::fig7`] over [`profile`] |
//!
//! The [`Lab`] memoizes the expensive artifacts (the world trace, fitted
//! models, and the [`profile::Profile`] of every validation trace, real and
//! synthesized) so the full battery shares work and measures each trace
//! once. The world itself is characterized once: one replay of each UE
//! yields the world profile behind Table 1 and Figs. 2 and 4, each Fig. 3
//! stream is one filter over the world, and the test battery runs once per
//! clustering mode for Tables 8–10. Beyond the
//! paper's own artifacts, [`ablation`] quantifies the design choices the
//! implementation surfaced (clustering threshold, competing-risks
//! censoring, persona consistency), and [`fidelity()`] measures each
//! EXPERIMENTS.md shape claim as a named number and holds it to the
//! interval committed for it in `BENCH_fidelity.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod experiments;
mod fidelity;
pub mod generalize;
pub mod golden;
pub mod lab;
pub mod mcn;
mod model;
pub mod profile;
mod report;
mod roundtrip;
mod scenario;
mod testsuite;
mod world_profile;

pub use fidelity::fidelity;
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
