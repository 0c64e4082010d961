//! Quickstart: world → fit → generate → compare.
//!
//! Simulates a small "carrier" ground truth, fits the paper's two-level
//! Semi-Markov model, synthesizes a busy-hour trace for a 3× larger
//! population, and compares event breakdowns side by side.
//!
//! Run with: `cargo run --release --example quickstart`

use cellular_cp_traffgen::prelude::*;
use cn_verify::profile::breakdown_simple;

fn main() {
    // 1. Ground truth: 2 simulated days of 350 UEs.
    let model_mix = PopulationMix::new(220, 85, 45);
    println!(
        "simulating ground-truth world ({} UEs, 2 days)...",
        model_mix.total()
    );
    let world = generate_world(&WorldConfig::new(model_mix, 2.0, 7));
    println!("  {} events", world.len());

    // 2. Fit the paper's model (two-level machine, clustering, empirical
    //    CDFs — Table 3's "Ours").
    println!("fitting the two-level Semi-Markov model...");
    let models = fit(&world, &FitConfig::new(Method::Ours));
    println!(
        "  {} cluster-hour models instantiated",
        models.model_count()
    );

    // 3. Synthesize one busy hour for a 3× larger population.
    let synth_mix = model_mix.scaled(3.0);
    println!(
        "synthesizing busy-hour trace for {} UEs...",
        synth_mix.total()
    );
    let config = GenConfig::new(synth_mix, Timestamp::at_hour(0, 18), 1.0, 99);
    let synthetic = generate(&models, &config);
    println!(
        "  {} events from {} active UEs",
        synthetic.len(),
        synthetic.ues().len()
    );

    // 4. Compare breakdowns (real busy hour vs synthesized busy hour).
    let real_busy = world.window(Timestamp::at_hour(0, 18), Timestamp::at_hour(0, 19));
    println!("\n{:<14} {:>12} {:>12}", "event", "real 18h", "synth 18h");
    for device in DeviceType::ALL {
        println!("--- {}", device.name());
        let r = breakdown_simple(&real_busy, device);
        let s = breakdown_simple(&synthetic, device);
        for e in EventType::ALL {
            println!(
                "{:<14} {:>11.1}% {:>11.1}%",
                e.mnemonic(),
                r[e.code() as usize] * 100.0,
                s[e.code() as usize] * 100.0
            );
        }
    }

    // 5. Every synthesized per-UE stream is protocol-conformant.
    let mut violations = 0usize;
    for (_, events) in synthetic.per_ue().iter() {
        violations += cellular_cp_traffgen::statemachine::replay_ue(events)
            .violations
            .len();
    }
    println!("\nprotocol violations in synthesized trace: {violations}");
    assert_eq!(violations, 0, "two-level output must be conformant");
}
