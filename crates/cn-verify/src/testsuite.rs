//! Statistical-test pass-rate tables (§4.1.2, Appendix A; Tables 8–10).
//!
//! For every (UE-cluster, hour-of-day, device) combination the paper pools
//! the member UEs' inter-arrival times per event type, the sojourn times of
//! the four EMM/ECM states, and (Table 10) the sojourn times of the nine
//! second-level transitions, fits each candidate distribution by MLE, and
//! runs the K–S test (plus Anderson–Darling for the exponential). A table
//! cell is the percentage of combinations that *pass* at the 5% level —
//! near zero everywhere, which is the paper's justification for empirical
//! CDFs.

use cn_fit::cluster::ClusteringParams;
use cn_statemachine::{replay_ue, BottomTransition, TopTransition};
use cn_stats::fit::{fit_family, Family};
use cn_stats::{ad_test_exponential, ks_test};
use cn_trace::{DeviceType, EventType, Trace, TraceRecord, MS_PER_SEC};
use std::collections::HashMap;

/// Significance level used throughout (the paper's 5%).
pub(crate) const SIGNIFICANCE: f64 = 0.05;

/// Minimum pooled samples for a combination to be testable.
pub(crate) const MIN_SAMPLES: usize = 20;

/// The ten columns of Tables 8/9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Quantity {
    /// Inter-arrival time of one event type.
    InterArrival(EventType),
    /// Sojourn in EMM-REGISTERED.
    Registered,
    /// Sojourn in EMM-DEREGISTERED.
    Deregistered,
    /// Sojourn in ECM-CONNECTED.
    Connected,
    /// Sojourn in ECM-IDLE.
    Idle,
}

impl Quantity {
    /// Tables 8/9 column order.
    pub(crate) fn all() -> Vec<Quantity> {
        let mut v: Vec<Quantity> = EventType::ALL
            .into_iter()
            .map(Quantity::InterArrival)
            .collect();
        v.extend([
            Quantity::Registered,
            Quantity::Deregistered,
            Quantity::Connected,
            Quantity::Idle,
        ]);
        v
    }

    /// Column label matching the paper.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Quantity::InterArrival(e) => e.mnemonic(),
            Quantity::Registered => "REG.",
            Quantity::Deregistered => "DEREG.",
            Quantity::Connected => "CONN.",
            Quantity::Idle => "IDLE",
        }
    }
}

/// The tests of Tables 8–10 (rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SuiteTest {
    /// K–S test against the MLE fit of a family.
    Ks(Family),
    /// Anderson–Darling exponentiality test (Poisson only).
    AdPoisson,
}

impl SuiteTest {
    /// Table row order: Poisson (K–S), Poisson (A²), Pareto, Weibull,
    /// Tcplib (K–S) — the paper's battery.
    pub(crate) const ALL: [SuiteTest; 5] = [
        SuiteTest::Ks(Family::Poisson),
        SuiteTest::AdPoisson,
        SuiteTest::Ks(Family::Pareto),
        SuiteTest::Ks(Family::Weibull),
        SuiteTest::Ks(Family::Tcplib),
    ];

    /// The paper's battery plus log-normal and Gamma (families the wider
    /// Internet-traffic literature also fits).
    pub(crate) const EXTENDED: [SuiteTest; 7] = [
        SuiteTest::Ks(Family::Poisson),
        SuiteTest::AdPoisson,
        SuiteTest::Ks(Family::Pareto),
        SuiteTest::Ks(Family::Weibull),
        SuiteTest::Ks(Family::Tcplib),
        SuiteTest::Ks(Family::LogNormal),
        SuiteTest::Ks(Family::Gamma),
    ];

    /// Row label matching the paper.
    pub(crate) fn label(self) -> String {
        match self {
            SuiteTest::Ks(f) => format!("{} (K-S)", f.name()),
            SuiteTest::AdPoisson => "Poisson (A2)".to_string(),
        }
    }

    /// Run the test on the samples: `Some(passed)` or `None` when the fit
    /// or test is undefined for these samples.
    pub(crate) fn run(self, samples: &[f64]) -> Option<bool> {
        match self {
            SuiteTest::Ks(family) => {
                let dist = fit_family(family, samples).ok()?;
                Some(ks_test(samples, &dist)?.passes(SIGNIFICANCE))
            }
            SuiteTest::AdPoisson => Some(ad_test_exponential(samples)?.passes(SIGNIFICANCE)),
        }
    }
}

/// Everything the suite needs from one UE, bucketed by hour-of-day.
struct SuiteObs {
    device: DeviceType,
    /// Inter-arrival gaps (seconds) per hour × event type.
    gaps: Vec<[Vec<f64>; 6]>,
    /// State sojourns (seconds) per hour × {REG, DEREG, CONN, IDLE}.
    states: Vec<[Vec<f64>; 4]>,
    /// Second-level transition sojourns per hour.
    bottom: Vec<HashMap<BottomTransition, Vec<f64>>>,
    /// Clustering features per hour (paper's four, §5.3).
    features: Vec<Vec<f64>>,
}

fn observe(events: &[TraceRecord], n_days: u64) -> SuiteObs {
    let device = events.first().map_or(DeviceType::Phone, |r| r.device);
    let mut gaps = vec![[const { Vec::new() }; 6]; 24];
    let mut states = vec![[const { Vec::new() }; 4]; 24];
    let mut bottom: Vec<HashMap<BottomTransition, Vec<f64>>> = vec![HashMap::new(); 24];
    let mut counts = [[0u32; 6]; 24];

    // Inter-arrival per event type, observed *within* each (day, hour)
    // window — the paper's §4.1.1 preprocessing never sees gaps that span
    // interval boundaries.
    let mut last_seen: [Option<cn_trace::Timestamp>; 6] = [None; 6];
    for r in events {
        let code = r.event.code() as usize;
        let h = r.t.hour_of_day().index();
        counts[h][code] += 1;
        if let Some(prev) = last_seen[code] {
            if (prev.day(), prev.hour_of_day()) == (r.t.day(), r.t.hour_of_day()) {
                gaps[h][code].push(r.t.since(prev) as f64 / MS_PER_SEC as f64);
            }
        }
        last_seen[code] = Some(r.t);
    }

    // State sojourns from replay; REG/DEREG from the attach/detach events.
    let outcome = replay_ue(events);
    for s in &outcome.top_sojourns {
        let h = s.enter.hour_of_day().index();
        let secs = s.duration_ms as f64 / MS_PER_SEC as f64;
        match s.transition {
            TopTransition::ConnToIdle | TopTransition::ConnToDereg => states[h][2].push(secs),
            TopTransition::IdleToConn | TopTransition::IdleToDereg => states[h][3].push(secs),
            TopTransition::DeregToConn => {}
        }
    }
    let mut last_attach: Option<u64> = None;
    let mut last_detach: Option<u64> = None;
    for r in events {
        match r.event {
            EventType::Attach => {
                if let Some(d) = last_detach {
                    let h = cn_trace::Timestamp::from_millis(d).hour_of_day().index();
                    states[h][1].push((r.t.as_millis() - d) as f64 / MS_PER_SEC as f64);
                }
                last_attach = Some(r.t.as_millis());
            }
            EventType::Detach => {
                if let Some(a) = last_attach {
                    let h = cn_trace::Timestamp::from_millis(a).hour_of_day().index();
                    states[h][0].push((r.t.as_millis() - a) as f64 / MS_PER_SEC as f64);
                }
                last_detach = Some(r.t.as_millis());
            }
            _ => {}
        }
    }
    for s in &outcome.bottom_sojourns {
        let h = s.enter.hour_of_day().index();
        bottom[h]
            .entry(s.transition)
            .or_default()
            .push(s.duration_ms as f64 / MS_PER_SEC as f64);
    }

    // Features: [srv count/day, std conn, rel count/day, std idle].
    let days = n_days.max(1) as f64;
    let features = (0..24)
        .map(|h| {
            vec![
                f64::from(counts[h][EventType::ServiceRequest.code() as usize]) / days,
                cn_stats::summary::std_dev(&states[h][2]),
                f64::from(counts[h][EventType::S1ConnRelease.code() as usize]) / days,
                cn_stats::summary::std_dev(&states[h][3]),
            ]
        })
        .collect();

    SuiteObs {
        device,
        gaps,
        states,
        bottom,
        features,
    }
}

/// Pass-rate results: `cell[(test, device)][column] = Some(pass fraction)`
/// or `None` when no combination was testable.
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct SuiteResult {
    /// Tables 8/9 cells (10 columns).
    pub(crate) main: HashMap<(usize, DeviceType), Vec<Option<f64>>>,
    /// Table 10 cells (9 second-level transition columns).
    pub(crate) bottom: HashMap<(usize, DeviceType), Vec<Option<f64>>>,
    /// Number of testable (cluster, hour) combinations per device.
    #[cfg(test)]
    combos: HashMap<DeviceType, usize>,
}

impl SuiteResult {
    /// Keep the cells of the first `n` tests only: what a run of those
    /// tests alone gives, since each test's cells are its own.
    pub(crate) fn retain_tests(&mut self, n: usize) {
        self.main.retain(|&(ti, _), _| ti < n);
        self.bottom.retain(|&(ti, _), _| ti < n);
    }
}

/// Run the paper's test battery over a trace.
///
/// `clustered = false` reproduces Table 8 (pool all UEs of a device per
/// hour); `clustered = true` reproduces Tables 9/10.
pub(crate) fn run_suite(trace: &Trace, clustered: bool, params: &ClusteringParams) -> SuiteResult {
    run_suite_with(trace, clustered, params, &SuiteTest::ALL)
}

/// As [`run_suite`] with an explicit test battery (e.g.
/// [`SuiteTest::EXTENDED`]). Cell keys index into `tests`.
pub(crate) fn run_suite_with(
    trace: &Trace,
    clustered: bool,
    params: &ClusteringParams,
    tests: &[SuiteTest],
) -> SuiteResult {
    let n_days = trace
        .end()
        .map_or(1, |t| t.as_millis() / cn_trace::MS_PER_DAY + 1);
    let per_ue = trace.per_ue();
    let all_obs: Vec<SuiteObs> = per_ue.iter().map(|(_, ev)| observe(ev, n_days)).collect();

    let quantities = Quantity::all();
    let mut main: HashMap<(usize, DeviceType), Vec<(usize, usize)>> = HashMap::new();
    let mut bottom: HashMap<(usize, DeviceType), Vec<(usize, usize)>> = HashMap::new();
    #[cfg(test)]
    let mut combos: HashMap<DeviceType, usize> = HashMap::new();

    for device in DeviceType::ALL {
        let dev_obs: Vec<&SuiteObs> = all_obs.iter().filter(|o| o.device == device).collect();
        if dev_obs.is_empty() {
            continue;
        }
        for hour in 0..24 {
            let groups: Vec<Vec<usize>> = if clustered {
                let features: Vec<Vec<f64>> =
                    dev_obs.iter().map(|o| o.features[hour].clone()).collect();
                cn_fit::cluster::cluster(&features, params)
                    .clusters
                    .into_iter()
                    .map(|c| c.members)
                    .collect()
            } else {
                vec![(0..dev_obs.len()).collect()]
            };
            for members in groups {
                #[cfg(test)]
                {
                    *combos.entry(device).or_insert(0) += 1;
                }
                // Tables 8/9 columns.
                for (qi, q) in quantities.iter().enumerate() {
                    let mut pooled: Vec<f64> = Vec::new();
                    for &m in &members {
                        let o = dev_obs[m];
                        match q {
                            Quantity::InterArrival(e) => {
                                pooled.extend_from_slice(&o.gaps[hour][e.code() as usize])
                            }
                            Quantity::Registered => pooled.extend_from_slice(&o.states[hour][0]),
                            Quantity::Deregistered => pooled.extend_from_slice(&o.states[hour][1]),
                            Quantity::Connected => pooled.extend_from_slice(&o.states[hour][2]),
                            Quantity::Idle => pooled.extend_from_slice(&o.states[hour][3]),
                        }
                    }
                    if pooled.len() < MIN_SAMPLES {
                        continue;
                    }
                    for (ti, t) in tests.iter().enumerate() {
                        if let Some(passed) = t.run(&pooled) {
                            let cell = main
                                .entry((ti, device))
                                .or_insert_with(|| vec![(0, 0); quantities.len()]);
                            cell[qi].1 += 1;
                            if passed {
                                cell[qi].0 += 1;
                            }
                        }
                    }
                }
                // Table 10 columns.
                for (bi, bt) in BottomTransition::ALL.iter().enumerate() {
                    let mut pooled: Vec<f64> = Vec::new();
                    for &m in &members {
                        if let Some(s) = dev_obs[m].bottom[hour].get(bt) {
                            pooled.extend_from_slice(s);
                        }
                    }
                    if pooled.len() < MIN_SAMPLES {
                        continue;
                    }
                    for (ti, t) in tests.iter().enumerate() {
                        if let Some(passed) = t.run(&pooled) {
                            let cell = bottom
                                .entry((ti, device))
                                .or_insert_with(|| vec![(0, 0); BottomTransition::ALL.len()]);
                            cell[bi].1 += 1;
                            if passed {
                                cell[bi].0 += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    let to_frac = |m: HashMap<(usize, DeviceType), Vec<(usize, usize)>>| {
        m.into_iter()
            .map(|(k, cells)| {
                let fracs = cells
                    .into_iter()
                    .map(|(p, t)| (t > 0).then(|| p as f64 / t as f64))
                    .collect();
                (k, fracs)
            })
            .collect()
    };
    SuiteResult {
        main: to_frac(main),
        bottom: to_frac(bottom),
        #[cfg(test)]
        combos,
    }
}

/// The Poisson K–S pass fraction of the *dominant* columns (SRV_REQ,
/// S1_CONN_REL, CONNECTED, IDLE), averaged over every device's testable
/// cells. The rare-event columns (ATCH/DTCH/TAU) have few samples per
/// combination and therefore low test power — the paper likewise reports
/// its "below 3%" claim for the non-ATCH/DTCH columns.
pub(crate) fn poisson_ks_overall(result: &SuiteResult) -> f64 {
    let columns = Quantity::all();
    let dominant = [
        Quantity::InterArrival(EventType::ServiceRequest),
        Quantity::InterArrival(EventType::S1ConnRelease),
        Quantity::Connected,
        Quantity::Idle,
    ]
    .map(|q| columns.iter().position(|&c| c == q).expect("a column"));
    // `SuiteTest::ALL[0]` is Poisson K–S; devices in code order fix the
    // order of the sum.
    let cells = DeviceType::ALL
        .iter()
        .filter_map(|&d| result.main.get(&(0, d)));
    let rates: Vec<f64> = cells
        .flat_map(|c| dominant.map(|qi| c[qi]))
        .flatten()
        .collect();
    rates.iter().sum::<f64>() / rates.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::PopulationMix;
    use cn_world::{generate_world, WorldConfig};

    #[test]
    fn quantity_columns() {
        let q = Quantity::all();
        assert_eq!(q.len(), 10);
        assert_eq!(q[0].label(), "ATCH");
        assert_eq!(q[9].label(), "IDLE");
    }

    #[test]
    fn suite_tests_run() {
        // Exponential data passes Poisson tests, fails nothing fatally.
        let samples: Vec<f64> = (1..=200).map(|i| (i as f64 * 0.37) % 7.0 + 0.01).collect();
        for t in SuiteTest::ALL {
            let _ = t.run(&samples); // must not panic; pass/fail is data-dependent
        }
        assert_eq!(SuiteTest::ALL[0].label(), "Poisson (K-S)");
        assert_eq!(SuiteTest::ALL[1].label(), "Poisson (A2)");
    }

    #[test]
    fn world_traffic_mostly_fails_poisson() {
        // The paper's headline negative result: bursty per-UE control
        // traffic is not Poisson. Our mechanistic world must reproduce it.
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(60, 25, 15), 2.0, 31));
        let result = run_suite(&trace, false, &ClusteringParams::default());
        let overall = poisson_ks_overall(&result);
        // At unit-test scale (100 UEs, 2 days) the per-hour pools are small
        // and the K–S test is power-limited, so a minority of combinations
        // pass spuriously; at `repro --scale default` the dominant columns
        // are 0.0% across the board (see EXPERIMENTS.md).
        assert!(
            overall < 0.25,
            "Poisson K–S pass rate {overall} — world is too Poisson-like"
        );
        assert!(result.combos.values().all(|&c| c > 0));
    }

    #[test]
    fn extended_battery_adds_rows() {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(40, 15, 10), 1.0, 33));
        let result = run_suite_with(
            &trace,
            false,
            &ClusteringParams::default(),
            &SuiteTest::EXTENDED,
        );
        // LogNormal row (index 5) exists for phones.
        assert!(result.main.contains_key(&(5, DeviceType::Phone)));
        assert!(result.main.contains_key(&(6, DeviceType::Phone)));
    }

    #[test]
    fn clustering_produces_more_combos() {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(60, 25, 15), 2.0, 32));
        let plain = run_suite(&trace, false, &ClusteringParams::default());
        let params = ClusteringParams {
            theta_n: 5,
            ..Default::default()
        };
        let clustered = run_suite(&trace, true, &params);
        let sum = |r: &SuiteResult| r.combos.values().sum::<usize>();
        assert!(sum(&clustered) > sum(&plain));
    }
}
