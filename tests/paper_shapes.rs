//! The reproduction's regression gate: every EXPERIMENTS.md shape claim,
//! measured as a number at quick scale and held to the `quick` key of
//! `BENCH_fidelity.json` (also available as `repro --scale quick fidelity`).

use cn_verify::{fidelity, ExperimentConfig, Lab};

#[test]
fn all_paper_shape_claims_hold() {
    let lab = Lab::new(ExperimentConfig::quick());
    let (table, all_hold) = fidelity(&lab, "quick").unwrap_or_else(|e| panic!("{e}"));
    assert!(all_hold, "\n{table}");
}
