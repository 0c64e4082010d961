//! Projecting 4G models to 5G (§6, §8.2).
//!
//! Fits the LTE model, derives 5G NSA (HO ×4.6, LTE machine) and 5G SA
//! (HO ×3.0, TAU removed — Fig. 6 machine) variants, synthesizes a day of
//! traffic from each, and compares handover load — the quantity 5G mmWave
//! deployments most affect.
//!
//! Run with: `cargo run --release --example scale_5g`

use cellular_cp_traffgen::fit_crate::fiveg::FiveGMode;
use cellular_cp_traffgen::prelude::*;
use cn_verify::breakdown::breakdown_simple;

fn main() {
    let mix = PopulationMix::new(180, 70, 35);
    let world = generate_world(&WorldConfig::new(mix, 2.0, 21));
    let lte = fit(&world, &FitConfig::new(Method::Ours));

    let nsa = adapt_model(&lte, &ScalingProfile::NSA);
    let sa = adapt_model(&lte, &ScalingProfile::SA);
    // A custom profile, e.g. a denser small-cell deployment: HO ×7.
    let dense = adapt_model(
        &lte,
        &ScalingProfile {
            mode: FiveGMode::Nsa,
            ho_factor: 7.0,
        },
    );

    let synth = |models: &ModelSet, seed: u64| {
        let config = GenConfig::new(mix, Timestamp::at_hour(0, 0), 24.0, seed);
        generate(models, &config)
    };
    let traces = [
        ("LTE", synth(&lte, 1)),
        ("5G NSA (HO x4.6)", synth(&nsa, 2)),
        ("5G SA  (HO x3.0)", synth(&sa, 3)),
        ("dense  (HO x7.0)", synth(&dense, 4)),
    ];

    println!(
        "{:<18} {:>9} | {:>7} {:>7} {:>7}  (HO share by device)",
        "deployment", "events", "P", "CC", "T"
    );
    for (name, trace) in &traces {
        print!("{:<18} {:>9} |", name, trace.len());
        for device in DeviceType::ALL {
            let shares = breakdown_simple(trace, device);
            print!(
                "{:>7.1}%",
                shares[EventType::Handover.code() as usize] * 100.0
            );
        }
        println!();
    }

    // SA must be TAU-free (no tracking-area updates in the 5G SA machine).
    let sa_taus = traces[2]
        .1
        .iter()
        .filter(|r| r.event == EventType::Tau)
        .count();
    println!("\nTAU events in the 5G SA trace: {sa_taus} (must be 0)");
    assert_eq!(sa_taus, 0);
}
