//! Planning for population growth (§3.1 use case 2).
//!
//! Industry projections say connected-device counts grow severalfold in a
//! few years. With a fitted model, "what does that do to my core?" becomes
//! a computation: synthesize the busy hour at each projected population,
//! measure per-NF transaction rates, find the minimum MME worker count
//! that holds p99 procedure latency under a target, and check what an
//! overload policy would shed if provisioning lags a year behind.
//!
//! Run with: `cargo run --release --example growth_planning`

use cellular_cp_traffgen::mcn::{nf_load, overload, NetworkFunction, TransactionMatrix};
use cellular_cp_traffgen::obs::Registry;
use cellular_cp_traffgen::prelude::*;
use cellular_cp_traffgen::trace::TraceSummary;

const P99_TARGET_MS: f64 = 10.0;

/// Smallest MME pool (the other EPC pools as configured by default) that
/// holds the target.
fn min_workers(trace: &Trace) -> Option<usize> {
    (1..=64).find(|&w| {
        let mut config = DesConfig::default_epc(31);
        let mme = &mut config.nfs[0];
        assert_eq!(mme.nf, NetworkFunction::Mme);
        mme.servers = w;
        mme.autoscale = None;
        DesSim::run_trace(config, trace, &Registry::disabled())
            .expect("valid config, sorted trace")
            .p99_latency_ms
            <= P99_TARGET_MS
    })
}

fn main() {
    let model_mix = PopulationMix::new(200, 80, 40);
    let world = generate_world(&WorldConfig::new(model_mix, 2.0, 31));
    let models = fit(&world, &FitConfig::new(Method::Ours));
    println!(
        "fitted on {} UEs; busy-hour projections at growing populations:\n",
        model_mix.total()
    );
    println!(
        "{:>6} {:>9} {:>8} {:>12} {:>12} | MME workers for p99<={}ms",
        "scale", "UEs", "events", "events/s", "MME tx/s", P99_TARGET_MS
    );

    let mut year1_trace: Option<Trace> = None;
    for (i, scale) in [1.0, 2.0, 5.0, 10.0].into_iter().enumerate() {
        let mix = model_mix.scaled(scale);
        let config = GenConfig::new(mix, Timestamp::at_hour(0, 18), 1.0, 42 + i as u64);
        let trace = generate(&models, &config);
        let summary = TraceSummary::of(&trace);
        let nf = nf_load(&trace, &TransactionMatrix::default_epc());
        let workers = min_workers(&trace).map_or("-".into(), |w| w.to_string());
        println!(
            "{:>5}x {:>9} {:>8} {:>12.1} {:>12.1} | {}",
            scale,
            mix.total(),
            summary.events,
            summary.events_per_sec,
            nf.rate(NetworkFunction::Mme),
            workers
        );
        if i == 1 {
            year1_trace = Some(trace);
        }
    }

    // What happens if the 2× load hits capacity provisioned for 1×?
    let trace = year1_trace.expect("2x trace generated");
    let one_x_eps = trace.len() as f64 / 3_600.0 / 2.0;
    let policy = overload::AdmissionPolicy::sized_for(one_x_eps);
    let (report, admitted) = overload::apply(&trace, &policy);
    println!(
        "\nunder-provisioned case (2x load, 1x-sized admission control):\n  \
         admitted {} / shed {} — shed fractions: critical {:.1}%, high {:.1}%, low {:.1}%",
        report.total_admitted(),
        report.total_shed(),
        report.shed_fraction(overload::Priority::Critical) * 100.0,
        report.shed_fraction(overload::Priority::High) * 100.0,
        report.shed_fraction(overload::Priority::Low) * 100.0,
    );
    println!(
        "  the admitted stream still drives the MME cleanly: {} protocol errors*",
        Mme::new().run(&admitted).protocol_errors
    );
    println!(
        "  (*shedding can orphan per-UE state — a real policy must pair \
         admission with context recovery)"
    );
}
