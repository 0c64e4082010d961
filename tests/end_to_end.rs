//! End-to-end integration: world → fit → generate → validate, across all
//! four methods of Table 3.

use cellular_cp_traffgen::prelude::*;
use cellular_cp_traffgen::statemachine::replay_ue;
use cn_verify::breakdown::{breakdown, BreakdownRow};

fn world() -> Trace {
    generate_world(&WorldConfig::new(PopulationMix::new(80, 35, 20), 2.0, 404))
}

#[test]
fn full_pipeline_all_methods() {
    let world = world();
    assert!(world.len() > 5_000, "world too small: {}", world.len());
    for method in Method::ALL {
        let models = fit(&world, &FitConfig::new(method));
        let config = GenConfig::new(
            PopulationMix::new(80, 35, 20),
            Timestamp::at_hour(0, 18),
            1.0,
            1,
        );
        let synth = generate(&models, &config);
        assert!(!synth.is_empty(), "{method}: empty synthesis");
        assert!(
            cellular_cp_traffgen::trace::check_well_formed(&synth).is_empty(),
            "{method}: malformed trace"
        );
        // All events in window, all labeled with the right device.
        for r in synth.iter() {
            assert!(r.t >= config.start && r.t < config.end());
            assert_eq!(r.device, config.device_of(r.ue.get()));
        }
    }
}

#[test]
fn two_level_methods_are_conformant_baselines_are_not() {
    let world = world();
    let mix = PopulationMix::new(80, 35, 20);
    let config = GenConfig::new(mix, Timestamp::at_hour(0, 17), 2.0, 2);

    let ours = generate(&fit(&world, &FitConfig::new(Method::Ours)), &config);
    let mut ours_violations = 0usize;
    for (_, events) in ours.per_ue().iter() {
        ours_violations += replay_ue(events).violations.len();
    }
    assert_eq!(ours_violations, 0, "Ours must be protocol-conformant");

    let base = generate(&fit(&world, &FitConfig::new(Method::Base)), &config);
    let mut base_violations = 0usize;
    for (_, events) in base.per_ue().iter() {
        base_violations += replay_ue(events).violations.len();
    }
    assert!(
        base_violations > 0,
        "the EMM–ECM baseline should violate the two-level machine"
    );
}

#[test]
fn method_ordering_on_ho_placement() {
    // The paper's central macroscopic claim: two-level methods put every
    // HO in CONNECTED; EMM–ECM methods leak HO into IDLE.
    let world = world();
    let mix = PopulationMix::new(80, 35, 20);
    let config = GenConfig::new(mix, Timestamp::at_hour(0, 18), 2.0, 3);
    for method in Method::ALL {
        let synth = generate(&fit(&world, &FitConfig::new(method)), &config);
        let b = breakdown(&synth, DeviceType::ConnectedCar);
        let ho_idle = b.share(BreakdownRow::HoIdle);
        match method {
            Method::B2 | Method::Ours => {
                assert_eq!(ho_idle, 0.0, "{method}: HO leaked into IDLE")
            }
            Method::Base | Method::B1 => {
                assert!(ho_idle > 0.0, "{method}: expected the HO(IDLE) artifact")
            }
        }
    }
}

#[test]
fn population_scaling_is_roughly_linear() {
    // Design goal 3: synthesize for a 5× population; volume scales ~5×.
    let world = world();
    let models = fit(&world, &FitConfig::new(Method::Ours));
    let small = GenConfig::new(
        PopulationMix::new(80, 35, 20),
        Timestamp::at_hour(0, 18),
        1.0,
        4,
    );
    let large = GenConfig::new(
        PopulationMix::new(400, 175, 100),
        Timestamp::at_hour(0, 18),
        1.0,
        4,
    );
    let n_small = generate(&models, &small).len() as f64;
    let n_large = generate(&models, &large).len() as f64;
    let ratio = n_large / n_small.max(1.0);
    assert!(
        (3.0..7.0).contains(&ratio),
        "expected ~5× volume, got {ratio:.2}× ({n_small} → {n_large})"
    );
}

#[test]
fn generation_is_deterministic_and_seed_sensitive() {
    let world = world();
    let models = fit(&world, &FitConfig::new(Method::Ours));
    let mix = PopulationMix::new(30, 12, 8);
    let config = GenConfig::new(mix, Timestamp::at_hour(0, 12), 1.0, 77);
    let a = generate(&models, &config);
    let b = generate(&models, &config);
    assert_eq!(a, b);
    let mut other = config;
    other.seed = 78;
    assert_ne!(a, generate(&models, &other));
}
