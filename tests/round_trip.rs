//! Acceptance-scale round-trip validation (the PR's headline gate).
//!
//! Generates 2,000 seeded UEs over 6 simulated hours from a fully known
//! ground-truth model, replays every event through the two-level machine
//! (demanding 100% acceptance), re-fits each transition's sojourn law from
//! the replayed trace, and requires every re-fit to pass the two-sample
//! K–S test at α = 0.01 against its ground truth. A companion test pins
//! the byte-identical-across-engines golden hash, and a third pins the
//! fitted pipeline (world → replay → fit → generate); a fourth pins the
//! fitted models themselves, for all four methods. The same checks run at
//! 5,000 UEs / 12 h via `cargo run --release -p cn-verify --bin
//! verify_model`; quick-scale variants live in `crates/cn-verify/tests/`.

use cn_fit::{fit, FitConfig, Method};
use cn_trace::PopulationMix;
use cn_verify::{check_pinned, run_golden, run_round_trip, GroundTruth, RoundTripConfig};
use cn_verify::{ExperimentConfig, Lab};
use cn_world::{generate_world, WorldConfig};

#[test]
fn acceptance_round_trip_recovers_the_ground_truth() {
    let gt = GroundTruth::standard(11);
    let cfg = RoundTripConfig::acceptance(2023);
    assert!(cfg.population.total() >= 2_000);
    assert!(cfg.duration_hours >= 6.0);
    assert_eq!(cfg.alpha, 0.01);

    let report = run_round_trip(&gt, &cfg);

    // 100% replay acceptance: the generator never emits an illegal event.
    assert_eq!(
        report.violations,
        0,
        "replay rejected events: {:?}\n{}",
        report.rejection_histogram,
        report.render()
    );
    assert_eq!(report.acceptance_rate, 1.0);

    // Every ground-truth transition was exercised, recovered, and gated:
    // 5 top-level + 6 second-level sojourn laws, each passing the
    // two-sample K–S test at α = 0.01 plus the probability tolerance band.
    assert_eq!(report.checks.len(), 11);
    for c in &report.checks {
        assert!(
            c.ks_pass,
            "{} ({}) failed its K-S gate: {:?} vs critical {:?} on n={}\n{}",
            c.label,
            c.level,
            c.ks,
            c.critical_d,
            c.n_observed,
            report.render()
        );
        assert!(
            c.prob_pass,
            "{} ({}) probability off: refit {} vs truth {}",
            c.label, c.level, c.prob_refit, c.prob_truth
        );
    }
    assert!(report.all_pass(), "{}", report.render());
}

#[test]
fn golden_hashes_are_engine_invariant_and_pinned() {
    let gt = GroundTruth::standard(11);
    let report = run_golden(&gt.set, &cn_verify::golden::standard_config());
    // sequential stream, sharded × shards {1,8}, out-of-core × budgets
    // {all-memory, spill-everything, split}.
    assert_eq!(report.cases.len(), 6);
    assert!(report.consistent, "{}", report.render());
    check_pinned("standard-v1", report.hash().expect("consistent"))
        .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn fitted_pipeline_hash_is_pinned() {
    // The other pins generate from a known ground truth; this one runs the
    // replay and the fit, so a change to either shows as a moved hash.
    let world = generate_world(&WorldConfig::new(PopulationMix::new(30, 12, 8), 1.0, 17));
    let config = cn_verify::golden::standard_config();
    let hash = |method| {
        let models = fit(&world, &FitConfig::new(method));
        let report = run_golden(&models, &config);
        assert!(report.consistent, "{}", report.render());
        assert!(
            report.cases[0].events > 0,
            "{method:?} fit generated nothing"
        );
        report.hash().expect("consistent")
    };
    // One pin for both semantics: the rotation keeps the pair ordered.
    let pin = hash(Method::Ours).rotate_left(32) ^ hash(Method::Base);
    check_pinned("fitted-v1", pin).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn fitted_models_of_every_method_are_pinned() {
    // `fitted-v1` hashes generated output of one-cluster hours for two
    // methods; this pin hashes the fitted JSON itself, for all four methods,
    // on a world small enough to split hours into several clusters.
    let lab = Lab::new(ExperimentConfig::quick());
    let ours = lab.models(Method::Ours);
    assert!(
        ours.devices
            .iter()
            .any(|dm| dm.hours.iter().any(|h| h.clusters.len() > 1)),
        "no hour split into clusters: the pin would not see pooling order"
    );
    // FNV-1a over every method's JSON, in `Method::ALL` order.
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for method in Method::ALL {
        let json = lab.models(method).to_json().expect("model set serializes");
        for &b in json.as_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    check_pinned("fitted-models-v1", hash).unwrap_or_else(|e| panic!("{e}"));
}
