//! Evaluation and experiment harness.
//!
//! Reproduces every table and figure of the paper's evaluation (§4, §8,
//! Appendices A–C) against the `cn-world` ground truth:
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
//! The [`lab::Lab`] memoizes the expensive artifacts (world traces, fitted
//! models, synthesized traces) so the full battery shares work. Beyond the
//! paper's own artifacts, [`ablation`] quantifies the design choices the
//! implementation surfaced (clustering threshold, competing-risks
//! censoring, persona consistency).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod breakdown;
pub mod experiments;
pub mod generalize;
pub mod lab;
pub mod microscopic;
mod report;
mod testsuite;
pub mod verdicts;

pub use breakdown::{breakdown, Breakdown, BreakdownRow};
pub use lab::{ExperimentConfig, Lab};
pub use report::Table;
pub use verdicts::verdicts;
