//! Core-network capacity planning with generated traffic (§3.1 use case).
//!
//! Synthesizes busy-hour control traffic for growing UE populations and
//! drives the miniature MME and the multi-NF core simulator to answer:
//! *how many MME signaling workers does each population need to keep p99
//! procedure latency under 10 ms?*
//!
//! Run with: `cargo run --release --example mcn_load`

use cellular_cp_traffgen::mcn::{nf_load, DesReport, NetworkFunction, TransactionMatrix};
use cellular_cp_traffgen::obs::Registry;
use cellular_cp_traffgen::prelude::*;

/// The trace through the default EPC with the MME pool (the first one)
/// pinned at `workers` servers.
fn run_epc(trace: &Trace, workers: usize) -> DesReport {
    let mut config = DesConfig::default_epc(7);
    let mme = &mut config.nfs[0];
    assert_eq!(mme.nf, NetworkFunction::Mme);
    mme.servers = workers;
    mme.autoscale = None;
    DesSim::run_trace(config, trace, &Registry::disabled()).expect("valid config, sorted trace")
}

fn main() {
    // Fit once on a modest ground truth.
    let model_mix = PopulationMix::new(160, 60, 30);
    let world = generate_world(&WorldConfig::new(model_mix, 2.0, 11));
    let models = fit(&world, &FitConfig::new(Method::Ours));
    println!(
        "fitted {} cluster-hour models on {} events\n",
        models.model_count(),
        world.len()
    );

    println!(
        "{:>8} {:>9} {:>8} | per MME workers: p99 latency (ms) / MME utilization",
        "UEs", "events", "errors"
    );
    for scale in [1.0, 4.0, 16.0] {
        let mix = model_mix.scaled(scale);
        let config = GenConfig::new(mix, Timestamp::at_hour(0, 18), 1.0, 7);
        let trace = generate(&models, &config);

        // Drive per-UE state (event-owner labeling is what makes this
        // possible — design goal 2 of the paper).
        let report = Mme::new().run(&trace);

        print!(
            "{:>8} {:>9} {:>8} |",
            mix.total(),
            report.processed,
            report.protocol_errors
        );
        for workers in [1usize, 2, 4, 8] {
            let des = run_epc(&trace, workers);
            print!(
                "  w{}: {:>7.2}/{:>4.1}%",
                workers,
                des.p99_latency_ms,
                des.per_nf[0].utilization * 100.0
            );
        }
        println!();
    }

    // Per-network-function fan-out (Dababneh-style capacity view): which
    // EPC functions feel the load?
    let trace = generate(
        &models,
        &GenConfig::new(model_mix.scaled(16.0), Timestamp::at_hour(0, 18), 1.0, 7),
    );
    let load = nf_load(&trace, &TransactionMatrix::default_epc());
    println!("\nper-NF transactions for the 16x busy hour:");
    for nf in NetworkFunction::ALL {
        println!(
            "  {:<5} {:>9} tx  ({:>7.1} tx/s)",
            nf.name(),
            load.total(nf),
            load.rate(nf)
        );
    }

    println!(
        "\npeak simultaneously-connected UEs scale with population; \
         use `--release` timings as a first-order sizing signal."
    );
}
