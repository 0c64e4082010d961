//! The MCN consumer integration: generated traffic drives per-UE state and
//! the queueing simulator with sensible load behavior.

use cellular_cp_traffgen::mcn::{deterministic_service, DesReport};
use cellular_cp_traffgen::obs::Registry;
use cellular_cp_traffgen::prelude::*;

fn busy_hour_trace(scale: f64, seed: u64) -> Trace {
    let mix = PopulationMix::new(60, 25, 15);
    let world = generate_world(&WorldConfig::new(mix, 2.0, 88));
    let models = fit(&world, &FitConfig::new(Method::Ours));
    let config = GenConfig::new(mix.scaled(scale), Timestamp::at_hour(0, 18), 1.0, seed);
    generate(&models, &config)
}

#[test]
fn conformant_traffic_means_zero_protocol_errors() {
    let trace = busy_hour_trace(1.0, 1);
    let report = Mme::new().run(&trace);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.processed, trace.len() as u64);
    assert!(report.ues > 0);
    assert!(report.peak_connected > 0);
}

/// The trace through one FIFO pool of `workers` servers, 400 µs per event.
fn mme_pool(trace: &Trace, workers: usize) -> DesReport {
    let config = DesConfig::single_pool(workers, deterministic_service(400.0));
    DesSim::run_trace(config, trace, &Registry::disabled()).expect("valid config, sorted trace")
}

#[test]
fn more_workers_never_hurt_latency() {
    let trace = busy_hour_trace(4.0, 2);
    let mut last = f64::INFINITY;
    for workers in [1usize, 2, 4] {
        let report = mme_pool(&trace, workers);
        assert_eq!(report.completed, trace.len() as u64);
        assert!(
            report.p99_latency_ms <= last + 1e-9,
            "workers {workers}: p99 {} worse than previous {last}",
            report.p99_latency_ms
        );
        last = report.p99_latency_ms;
    }
}

#[test]
fn larger_population_raises_utilization() {
    let small = mme_pool(&busy_hour_trace(1.0, 3), 2).per_nf[0].utilization;
    let big = mme_pool(&busy_hour_trace(6.0, 3), 2).per_nf[0].utilization;
    assert!(small > 0.0 && big > small, "utilization {big} ≤ {small}");
}

#[test]
fn mixed_streams_preserve_per_ue_order_for_the_mme() {
    // Even after merging thousands of per-UE streams, the MME sees each
    // UE's events in causal order (the trace is globally time-sorted and
    // per-UE times are strictly increasing).
    let trace = busy_hour_trace(2.0, 4);
    let view = trace.per_ue();
    for (_, events) in view.iter() {
        for w in events.windows(2) {
            assert!(w[0].t < w[1].t, "per-UE timestamps must strictly increase");
        }
    }
}
