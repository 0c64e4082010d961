//! M/D/c sanity: on a single-NF, one-transaction-per-event,
//! deterministic-service configuration, the event-calendar DES *is* the
//! analytic multi-worker FIFO of [`QueueSim`] — same trace, same
//! latencies, same utilization. Any drift between the two models on this
//! common subset is a bug in one of them.
//!
//! M/M/c sanity: with Poisson arrivals and exponential service the same
//! single-NF world has a closed form, and the DES must land on Erlang-C.

use cn_mcn::{
    deterministic_service, DesConfig, DesSim, NetworkFunction, NfConfig, QueueSim, ServiceProfile,
    TransactionMatrix,
};
use cn_obs::Registry;
use cn_stats::{erlang_c, Dist, Exponential};
use cn_trace::{DeviceType, EventType, Timestamp, Trace, TraceRecord, UeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A DES world equivalent to `QueueSim::new(uniform(service_us), servers)`:
/// one MME pool, every event one MME transaction, service deterministic.
fn single_nf(servers: usize, service_us: f64) -> DesConfig {
    DesConfig {
        seed: 0,
        nfs: vec![NfConfig {
            nf: NetworkFunction::Mme,
            servers,
            service: deterministic_service(service_us),
            autoscale: None,
        }],
        matrix: TransactionMatrix {
            transactions: [[1, 0, 0, 0, 0]; 6],
        },
        admission: None,
    }
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
        let analytic = QueueSim::new(ServiceProfile::uniform(service_us), servers)
            .run(&trace)
            .expect("non-empty");
        let des = DesSim::run_trace(single_nf(servers, service_us), &trace, &Registry::disabled())
            .expect("valid config");

        prop_assert_eq!(des.completed, analytic.served);
        prop_assert!((des.mean_latency_ms - analytic.mean_latency_ms).abs() < 1e-9);
        prop_assert!((des.p50_latency_ms - analytic.p50_latency_ms).abs() < 1e-9);
        prop_assert!((des.p99_latency_ms - analytic.p99_latency_ms).abs() < 1e-9);
        prop_assert!((des.max_latency_ms - analytic.max_latency_ms).abs() < 1e-9);
        prop_assert_eq!(des.per_nf.len(), 1);
        prop_assert!((des.per_nf[0].utilization - analytic.utilization).abs() < 1e-12);
    }
}

/// Saturation corner pinned exactly: back-to-back arrivals on one server
/// keep it busy 100% of the horizon in both models.
#[test]
fn saturated_single_server_agrees_at_utilization_one() {
    let trace = Trace::from_records(
        (0..50)
            .map(|_| {
                TraceRecord::new(
                    Timestamp::from_millis(0),
                    UeId(0),
                    DeviceType::Phone,
                    EventType::Tau,
                )
            })
            .collect(),
    );
    let analytic = QueueSim::new(ServiceProfile::uniform(1_000.0), 1)
        .run(&trace)
        .expect("non-empty");
    let des = DesSim::run_trace(single_nf(1, 1_000.0), &trace, &Registry::disabled())
        .expect("valid config");
    assert_eq!(analytic.utilization, 1.0);
    assert_eq!(des.per_nf[0].utilization, 1.0);
    assert_eq!(des.max_latency_ms, analytic.max_latency_ms);
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

    let mut config = single_nf(SERVERS as usize, 0.0);
    config.seed = 0xE71A;
    config.nfs[0].service =
        Dist::Exponential(Exponential::new(1.0 / (MEAN_SERVICE_MS * 1e3)).expect("positive rate"));

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
