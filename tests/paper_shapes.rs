//! The reproduction's regression gate: every EXPERIMENTS.md shape claim,
//! machine-checked at quick scale (also available as `repro verdicts`).

use cn_verify::verdicts;
use cn_verify::{ExperimentConfig, Lab};

#[test]
fn all_paper_shape_claims_hold() {
    let lab = Lab::new(ExperimentConfig::quick());
    let (table, all_pass) = verdicts(&lab);
    assert!(all_pass, "\n{table}");
}
