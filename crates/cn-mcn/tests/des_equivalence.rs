//! M/D/c sanity: on [`DesConfig::single_pool`] with a deterministic
//! service law the event-calendar DES *is* the c-server FIFO queue, whose
//! schedule has a closed recursion — each arrival takes the server that
//! frees first. The recursion is written out here as the oracle: same
//! trace, same latencies, same utilization, or the DES has a bug.
//!
//! M/M/c sanity: with Poisson arrivals and exponential service the same
//! single-pool world has a closed form, and the DES must land on Erlang-C.

use cn_mcn::{deterministic_service, DesConfig, DesSim};
use cn_obs::Registry;
use cn_stats::summary::percentile_sorted;
use cn_stats::{erlang_c, Dist, Exponential};
use cn_trace::{DeviceType, EventType, Timestamp, Trace, TraceRecord, UeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What the reference recursion reports about one trace.
struct Fifo {
    mean_latency_ms: f64,
    p50_latency_ms: f64,
    p99_latency_ms: f64,
    max_latency_ms: f64,
    utilization: f64,
}

/// The c-server FIFO queue as a recursion over a min-heap of server-free
/// times: service rounded to whole µs (the DES calendar grid), type-7
/// percentiles over the sorted sojourns, utilization = busy time over
/// `servers` × (first arrival → last completion).
fn fifo_reference(trace: &Trace, servers: usize, service_us: f64) -> Fifo {
    let service_us = service_us.round() as u64;
    let t0_us = trace.start().expect("non-empty").as_millis() * 1_000;
    let mut free: BinaryHeap<Reverse<u64>> = (0..servers).map(|_| Reverse(0)).collect();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(trace.len());
    let mut end_us = t0_us;
    for rec in trace.iter() {
        let arrival_us = rec.t.as_millis() * 1_000;
        let Reverse(server_free_us) = free.pop().expect("servers > 0");
        let done_us = server_free_us.max(arrival_us) + service_us;
        free.push(Reverse(done_us));
        end_us = end_us.max(done_us);
        latencies_ms.push((done_us - arrival_us) as f64 / 1_000.0);
    }
    let busy_us = service_us * trace.len() as u64;
    let horizon_us = (end_us - t0_us).max(1);
    let mean_latency_ms = latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64;
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    Fifo {
        mean_latency_ms,
        p50_latency_ms: percentile_sorted(&latencies_ms, 0.50),
        p99_latency_ms: percentile_sorted(&latencies_ms, 0.99),
        max_latency_ms: *latencies_ms.last().expect("non-empty"),
        utilization: busy_us as f64 / (horizon_us as f64 * servers as f64),
    }
}

fn des(trace: &Trace, servers: usize, service_us: f64) -> cn_mcn::DesReport {
    let config = DesConfig::single_pool(servers, deterministic_service(service_us));
    DesSim::run_trace(config, trace, &Registry::disabled()).expect("valid config")
}

/// `n` records at the same instant.
fn simultaneous(n: usize) -> Trace {
    let at_zero = TraceRecord::new(
        Timestamp::from_millis(0),
        UeId(0),
        DeviceType::Phone,
        EventType::Tau,
    );
    Trace::from_records(vec![at_zero; n])
}

fn event(idx: usize) -> EventType {
    EventType::ALL[idx % EventType::ALL.len()]
}

proptest! {
    /// Same trace through both models: percentiles agree to rounding and
    /// utilization exactly (identical busy time over the same horizon).
    #[test]
    fn des_matches_analytic_queue_on_common_subset(
        raw in prop::collection::vec((0u64..2_000, 0u32..16, 0usize..6), 1..120),
        servers in 1usize..5,
        service_us in 100.0f64..20_000.0,
    ) {
        let trace = Trace::from_records(
            raw.iter()
                .map(|&(t, ue, e)| {
                    TraceRecord::new(
                        Timestamp::from_millis(t),
                        UeId(ue),
                        DeviceType::Phone,
                        event(e),
                    )
                })
                .collect(),
        );
        let analytic = fifo_reference(&trace, servers, service_us);
        let des = des(&trace, servers, service_us);

        prop_assert_eq!(des.completed, trace.len() as u64);
        prop_assert!((des.mean_latency_ms - analytic.mean_latency_ms).abs() < 1e-9);
        prop_assert!((des.p50_latency_ms - analytic.p50_latency_ms).abs() < 1e-9);
        prop_assert!((des.p99_latency_ms - analytic.p99_latency_ms).abs() < 1e-9);
        prop_assert!((des.max_latency_ms - analytic.max_latency_ms).abs() < 1e-9);
        prop_assert_eq!(des.per_nf.len(), 1);
        prop_assert!((des.per_nf[0].utilization - analytic.utilization).abs() < 1e-12);
    }
}

/// Saturation corner pinned exactly: back-to-back arrivals on one server
/// keep it busy 100% of the horizon in both models — also when the
/// service time is fractional (busy time must accumulate the *rounded*
/// service the schedule uses, or utilization reads 1.04) — and the last
/// of the simultaneous arrivals waits for all the others.
#[test]
fn saturated_single_server_agrees_at_utilization_one() {
    for (arrivals, service_us) in [(50, 1_000.0), (100, 10.4), (100, 10_000.0)] {
        let trace = simultaneous(arrivals);
        let analytic = fifo_reference(&trace, 1, service_us);
        let des = des(&trace, 1, service_us);
        assert_eq!(analytic.utilization, 1.0, "{service_us} µs");
        assert_eq!(des.per_nf[0].utilization, 1.0, "{service_us} µs");
        assert_eq!(des.max_latency_ms, analytic.max_latency_ms);
        let drain_ms = arrivals as f64 * service_us.round() / 1_000.0;
        assert_eq!(des.max_latency_ms, drain_ms);
        assert_eq!(des.per_nf[0].peak_depth, arrivals - 1);
    }

    // The same 100-deep burst on four servers drains four times as fast.
    let trace = simultaneous(100);
    let (one, four) = (des(&trace, 1, 10_000.0), des(&trace, 4, 10_000.0));
    assert_eq!(one.max_latency_ms, 1_000.0);
    assert_eq!(four.max_latency_ms, 250.0);
}

/// The shape of cp-bench's `mcn:mmc` stage: Poisson arrivals at 70 % of
/// what four exponential 10 ms servers carry, one transaction per job, no
/// autoscaling, no admission. Erlang-C gives P(wait) = 0.4287 and a mean
/// wait of 0.3572 service times, so the mean sojourn is 13.572 ms.
///
/// The run is one fixed seed, so the band is not a flake guard but a
/// statement of accuracy: 250 000 jobs put the standard error of the mean
/// sojourn near 1 % (waits are positively correlated over a busy
/// period), arrivals are floored to whole milliseconds and services
/// rounded to whole microseconds, and 3 % covers all three with room.
#[test]
fn mmc_lands_on_erlang_c() {
    const SERVERS: u32 = 4;
    const MEAN_SERVICE_MS: f64 = 10.0;
    const LOAD: f64 = 0.7;
    const JOBS: u32 = 250_000;

    let mut config = DesConfig::single_pool(
        SERVERS as usize,
        Dist::Exponential(Exponential::new(1.0 / (MEAN_SERVICE_MS * 1e3)).expect("positive rate")),
    );
    config.seed = 0xE71A;

    let mean_gap_ms = MEAN_SERVICE_MS / f64::from(SERVERS) / LOAD;
    let mut rng = StdRng::seed_from_u64(0xE71A_0001);
    let mut t_ms = 0.0f64;
    let mut sim = DesSim::new(config).expect("valid config");
    for job in 0..JOBS {
        // 1 - U lies in (0, 1]: the logarithm stays finite.
        t_ms -= (1.0 - rng.gen::<f64>()).ln() * mean_gap_ms;
        sim.offer(&TraceRecord::new(
            Timestamp::from_millis(t_ms as u64),
            UeId(job % 1_000),
            DeviceType::Phone,
            EventType::ServiceRequest,
        ))
        .expect("sorted arrivals");
    }
    let report = sim.finish();
    assert_eq!(report.completed, u64::from(JOBS));

    let closed_form = erlang_c(SERVERS, LOAD * f64::from(SERVERS)).expect("stable load");
    let expected_sojourn_ms = MEAN_SERVICE_MS * (1.0 + closed_form.mean_wait);
    let relative = report.mean_latency_ms / expected_sojourn_ms - 1.0;
    assert!(
        relative.abs() < 0.03,
        "mean sojourn {} ms vs Erlang-C {expected_sojourn_ms} ms ({:+.2} %)",
        report.mean_latency_ms,
        relative * 100.0
    );
    let utilization = report.per_nf[0].utilization;
    assert!(
        (utilization - LOAD).abs() < 0.01,
        "utilization {utilization} vs offered {LOAD}"
    );
}
