//! One function per paper table/figure.
//!
//! Every function takes a [`Lab`] (which memoizes the expensive artifacts)
//! and returns a renderable [`Table`] whose rows mirror the paper's
//! artifact. Absolute values differ from the paper — the substrate is the
//! `cn-world` simulator, not a US carrier — but the *shapes* (who wins,
//! orderings, rough factors) are the reproduction targets; see
//! `EXPERIMENTS.md`.

use crate::breakdown::{breakdown, breakdown_simple, BreakdownRow};
use crate::lab::{Lab, Scenario};
use crate::microscopic::{events_per_ue, max_y_distance, split_active, state_sojourns};
use crate::report::{pct, signed_pct, Table};
use crate::testsuite::{run_suite, Quantity, SuiteTest};
use cn_fit::fiveg::{adapt_model, Event5G, ScalingProfile, TABLE2};
use cn_fit::Method;
use cn_statemachine::{replay_ue, BottomTransition, TopTransition};
use cn_stats::summary::BoxStats;
use cn_stats::variance_time::{bin_counts, default_scales, poisson_reference, variance_time_plot};
use cn_stats::{Ecdf, Exponential};
use cn_trace::{DeviceType, EventType, HourOfDay, Trace, MS_PER_SEC};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fmt_opt_pct(v: Option<f64>) -> String {
    v.map_or("-".into(), pct)
}

/// Table 1: breakdown of control-plane events of the modeled week.
pub fn table1(lab: &Lab) -> Table {
    let mut t = Table::new(
        "Table 1: Breakdown of control-plane events (modeled 7-day world)",
        &["Event Type", "P", "CC", "T"],
    );
    let world = lab.world();
    let shares: Vec<[f64; 6]> = DeviceType::ALL
        .iter()
        .map(|&d| breakdown_simple(world, d))
        .collect();
    for e in EventType::ALL {
        t.push_row(vec![
            e.mnemonic().to_string(),
            pct(shares[0][e.code() as usize]),
            pct(shares[1][e.code() as usize]),
            pct(shares[2][e.code() as usize]),
        ]);
    }
    t
}

/// Fig. 2 (one panel): box plot of events per device-hour across the 24
/// hours of day, for one (device, event).
pub fn fig2(lab: &Lab, device: DeviceType, event: EventType) -> Table {
    let mut t = Table::new(
        format!(
            "Fig. 2: {} of {} per device-hour",
            event.mnemonic(),
            device.abbrev()
        ),
        &["hour", "min", "q1", "median", "q3", "max", "mean"],
    );
    let world = lab.world().filter_device(device);
    let per_ue = world.per_ue();
    let n_days = lab.cfg.days.ceil() as u64;
    for hour in HourOfDay::all() {
        // One sample per (UE, day): the event count in that hour window.
        let mut samples: Vec<f64> = Vec::new();
        for (_, events) in per_ue.iter() {
            let mut per_day = vec![0u32; n_days as usize];
            for r in events {
                if r.event == event && r.t.hour_of_day() == hour {
                    let d = (r.t.day() as usize).min(n_days as usize - 1);
                    per_day[d] += 1;
                }
            }
            samples.extend(per_day.into_iter().map(f64::from));
        }
        let stats = BoxStats::from_samples(&samples).unwrap_or(BoxStats {
            min: 0.0,
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
            max: 0.0,
            mean: 0.0,
            n: 0,
        });
        t.push_row(vec![
            hour.to_string(),
            format!("{:.0}", stats.min),
            format!("{:.1}", stats.q1),
            format!("{:.1}", stats.median),
            format!("{:.1}", stats.q3),
            format!("{:.0}", stats.max),
            format!("{:.2}", stats.mean),
        ]);
    }
    t
}

/// Fig. 2 summary: peak-to-trough swing of the mean per-device-hour volume
/// for the four dominant event types (the paper's 2.27×–1309× claims).
pub fn fig2_summary(lab: &Lab) -> Table {
    let mut t = Table::new(
        "Fig. 2 summary: peak/trough ratio of mean events per device-hour",
        &["Device", "SRV_REQ", "S1_CONN_REL", "HO", "TAU"],
    );
    let world = lab.world();
    for device in DeviceType::ALL {
        let dev = world.filter_device(device);
        let ues = dev.ues().len().max(1) as f64;
        let days = lab.cfg.days.max(1.0 / 24.0);
        let mut row = vec![device.abbrev().to_string()];
        for event in [
            EventType::ServiceRequest,
            EventType::S1ConnRelease,
            EventType::Handover,
            EventType::Tau,
        ] {
            let mut by_hour = [0f64; 24];
            for r in dev.iter() {
                if r.event == event {
                    by_hour[r.t.hour_of_day().index()] += 1.0;
                }
            }
            for v in &mut by_hour {
                *v /= ues * days;
            }
            let max = by_hour.iter().copied().fold(f64::MIN, f64::max);
            let min = by_hour.iter().copied().fold(f64::MAX, f64::min);
            row.push(if min > 0.0 {
                format!("{:.1}x", max / min)
            } else {
                "inf".into()
            });
        }
        t.push_row(row);
    }
    t
}

/// Per-device event-time streams used by Fig. 3/Fig. 4: connected entries,
/// idle entries, HO times, TAU times, and busy-hour sojourn/gap samples.
struct Fig34Data {
    srv_times: Vec<u64>,
    rel_times: Vec<u64>,
    ho_times: Vec<u64>,
    tau_times: Vec<u64>,
    conn_sojourn_busy: Vec<f64>,
    idle_sojourn_busy: Vec<f64>,
    ho_gaps_busy: Vec<f64>,
    tau_gaps_busy: Vec<f64>,
}

/// Same (day, hour) window — gaps spanning windows are never observed.
fn same_window(a: cn_trace::Timestamp, b: cn_trace::Timestamp) -> bool {
    (a.day(), a.hour_of_day()) == (b.day(), b.hour_of_day())
}

fn fig34_data(lab: &Lab, device: DeviceType) -> Fig34Data {
    let busy = HourOfDay(lab.cfg.busy_hour);
    let world = lab.world().filter_device(device);
    let mut d = Fig34Data {
        srv_times: Vec::new(),
        rel_times: Vec::new(),
        ho_times: Vec::new(),
        tau_times: Vec::new(),
        conn_sojourn_busy: Vec::new(),
        idle_sojourn_busy: Vec::new(),
        ho_gaps_busy: Vec::new(),
        tau_gaps_busy: Vec::new(),
    };
    for (_, events) in world.per_ue().iter() {
        let mut last_ho: Option<cn_trace::Timestamp> = None;
        let mut last_tau: Option<cn_trace::Timestamp> = None;
        for r in events {
            match r.event {
                EventType::ServiceRequest => d.srv_times.push(r.t.as_millis()),
                EventType::S1ConnRelease => d.rel_times.push(r.t.as_millis()),
                EventType::Handover => {
                    d.ho_times.push(r.t.as_millis());
                    // Within-window gaps only, per the paper's §4.1.1
                    // preprocessing.
                    if let Some(prev) = last_ho {
                        if r.t.hour_of_day() == busy && same_window(prev, r.t) {
                            d.ho_gaps_busy
                                .push(r.t.since(prev) as f64 / MS_PER_SEC as f64);
                        }
                    }
                    last_ho = Some(r.t);
                }
                EventType::Tau => {
                    d.tau_times.push(r.t.as_millis());
                    if let Some(prev) = last_tau {
                        if r.t.hour_of_day() == busy && same_window(prev, r.t) {
                            d.tau_gaps_busy
                                .push(r.t.since(prev) as f64 / MS_PER_SEC as f64);
                        }
                    }
                    last_tau = Some(r.t);
                }
                _ => {}
            }
        }
        let outcome = replay_ue(events);
        for s in &outcome.top_sojourns {
            if s.enter.hour_of_day() != busy {
                continue;
            }
            let secs = s.duration_ms as f64 / MS_PER_SEC as f64;
            match s.transition {
                TopTransition::ConnToIdle => d.conn_sojourn_busy.push(secs),
                TopTransition::IdleToConn => d.idle_sojourn_busy.push(secs),
                _ => {}
            }
        }
    }
    d
}

/// Fig. 3 companion: Hurst exponents of the four event streams (the
/// aggregated-variance method is the variance–time plot in closed form;
/// `H = 0.5` is Poisson, `H > 0.5` is the long-range dependence the paper
/// observes).
pub fn fig3_hurst(lab: &Lab) -> Table {
    let mut t = Table::new(
        "Fig. 3 companion: Hurst exponents of event streams (0.5 = Poisson)",
        &["Device", "SRV_REQ", "S1_CONN_REL", "HO", "TAU"],
    );
    let end = lab.world().end().map_or(0, |e| e.as_millis());
    for device in DeviceType::ALL {
        let data = fig34_data(lab, device);
        let mut row = vec![device.abbrev().to_string()];
        for times in [
            &data.srv_times,
            &data.rel_times,
            &data.ho_times,
            &data.tau_times,
        ] {
            let bins = bin_counts(times, 0, end);
            row.push(
                cn_stats::hurst_aggregated_variance(&bins, 8)
                    .map_or("-".into(), |e| format!("{:.2}", e.h)),
            );
        }
        t.push_row(row);
    }
    t
}

/// Fig. 3: variance–time plots for CONNECTED/IDLE entries and HO/TAU
/// arrivals vs the fitted-Poisson reference (phones by default).
pub fn fig3(lab: &Lab, device: DeviceType) -> Table {
    let mut t = Table::new(
        format!("Fig. 3: variance-time (normalized) for {}", device.name()),
        &[
            "scale_s",
            "CONN real",
            "CONN poisson",
            "IDLE real",
            "IDLE poisson",
            "HO real",
            "HO poisson",
            "TAU real",
            "TAU poisson",
        ],
    );
    let data = fig34_data(lab, device);
    let end = lab.world().end().map_or(0, |e| e.as_millis());
    if end == 0 {
        return t;
    }
    let scales = default_scales();
    let quantities = [
        &data.srv_times,
        &data.rel_times,
        &data.ho_times,
        &data.tau_times,
    ];
    // Per quantity: (scale → real normalized variance) and Poisson reference.
    let mut real: Vec<std::collections::HashMap<u64, f64>> = Vec::new();
    let mut rates: Vec<f64> = Vec::new();
    for times in quantities {
        let bins = bin_counts(times, 0, end);
        let vt = variance_time_plot(&bins, &scales);
        real.push(
            vt.into_iter()
                .map(|p| (p.scale_secs, p.normalized_variance))
                .collect(),
        );
        rates.push(times.len() as f64 / bins.len().max(1) as f64);
    }
    for &m in &scales {
        let mut row = vec![m.to_string()];
        for (q, rate) in real.iter().zip(&rates) {
            row.push(q.get(&m).map_or("-".into(), |v| format!("{v:.3e}")));
            row.push(if *rate > 0.0 {
                format!("{:.3e}", poisson_reference(*rate, m))
            } else {
                "-".into()
            });
        }
        t.push_row(row);
    }
    t
}

/// Fig. 4: range of real samples vs a same-size sample from the MLE-fitted
/// exponential, for the busy-hour CONNECTED/IDLE sojourns and HO/TAU
/// inter-arrivals (phones by default).
pub fn fig4(lab: &Lab, device: DeviceType) -> Table {
    let mut t = Table::new(
        format!(
            "Fig. 4: real vs fitted-Poisson sample ranges, busy hour, {}",
            device.name()
        ),
        &[
            "quantity", "source", "min_s", "p25_s", "median_s", "p75_s", "p99_s", "max_s",
        ],
    );
    let data = fig34_data(lab, device);
    let mut rng = StdRng::seed_from_u64(lab.cfg.seed ^ 0xF164);
    let quantities: [(&str, &[f64]); 4] = [
        ("CONNECTED", &data.conn_sojourn_busy),
        ("IDLE", &data.idle_sojourn_busy),
        ("HO", &data.ho_gaps_busy),
        ("TAU", &data.tau_gaps_busy),
    ];
    for (name, samples) in quantities {
        let Some(real) = Ecdf::new(samples.to_vec()) else {
            continue;
        };
        let mut push = |source: &str, e: &Ecdf| {
            t.push_row(vec![
                name.into(),
                source.into(),
                format!("{:.2}", e.min()),
                format!("{:.2}", e.quantile(0.25)),
                format!("{:.2}", e.quantile(0.5)),
                format!("{:.2}", e.quantile(0.75)),
                format!("{:.2}", e.quantile(0.99)),
                format!("{:.2}", e.max()),
            ]);
        };
        push("real", &real);
        if let Ok(fitted) = Exponential::fit(samples) {
            let synth: Vec<f64> = (0..samples.len())
                .map(|_| fitted.sample(&mut rng))
                .collect();
            if let Some(e) = Ecdf::new(synth) {
                push("poisson", &e);
            }
        }
    }
    t
}

/// Table 2: the 4G ↔ 5G event mapping.
pub fn table2() -> Table {
    let mut t = Table::new("Table 2: 4G / 5G event mapping", &["4G", "5G"]);
    for (e4, e5) in TABLE2 {
        t.push_row(vec![
            e4.mnemonic().to_string(),
            e5.map_or("-".to_string(), |g| g.mnemonic().to_string()),
        ]);
    }
    t
}

/// Table 3: the method matrix.
pub fn table3() -> Table {
    let mut t = Table::new(
        "Table 3: Comparison of modeling methods",
        &["Method", "State Machine", "Distribution", "UE Clustering"],
    );
    for m in Method::ALL {
        t.push_row(vec![
            m.name().into(),
            match m.machine() {
                cn_fit::StateMachineKind::EmmEcm => "EMM-ECM".into(),
                cn_fit::StateMachineKind::TwoLevel => "2-level".into(),
            },
            match m.distribution() {
                cn_fit::DistributionKind::Poisson => "Poisson".into(),
                cn_fit::DistributionKind::EmpiricalCdf => "CDF".into(),
            },
            if m.clustered() {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    t
}

/// Tables 4 / 11: differences of event breakdowns between the real trace
/// and the synthesized traces of all four methods, for one scenario.
pub fn table4(lab: &Lab, scenario: Scenario) -> Table {
    let mut headers: Vec<String> = vec!["Event".into()];
    for device in DeviceType::ALL {
        headers.push(format!("{} Real", device.abbrev()));
        for m in Method::ALL {
            headers.push(format!("{} {}", device.abbrev(), m.name()));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let title = match scenario {
        Scenario::Two => "Table 4: breakdown differences, Scenario 2 (10x UEs)",
        Scenario::One => "Table 11: breakdown differences, Scenario 1 (1x UEs)",
    };
    let mut t = Table::new(title, &header_refs);

    // Per device: real + per-method synthesized breakdowns.
    let mut real = Vec::new();
    let mut synth = Vec::new();
    for device in DeviceType::ALL {
        real.push(breakdown(lab.real(scenario), device));
        let per_method: Vec<_> = Method::ALL
            .iter()
            .map(|&m| breakdown(lab.synth(m, scenario), device))
            .collect();
        synth.push(per_method);
    }
    for row in BreakdownRow::ALL {
        let mut cells = vec![row.label().to_string()];
        for (di, _) in DeviceType::ALL.iter().enumerate() {
            cells.push(pct(real[di].share(row)));
            for (mi, _) in Method::ALL.iter().enumerate() {
                let diff = synth[di][mi].share(row) - real[di].share(row);
                cells.push(signed_pct(diff));
            }
        }
        t.push_row(cells);
    }
    t
}

/// Table 5: maximum y-distance between CDFs of per-UE event counts and
/// state sojourns, B2 vs Ours, both scenarios.
pub fn table5(lab: &Lab) -> Table {
    let mut headers: Vec<String> = vec!["Quantity".into()];
    for s in [Scenario::One, Scenario::Two] {
        for device in DeviceType::ALL {
            for m in [Method::B2, Method::Ours] {
                headers.push(format!(
                    "S{} {} {}",
                    s.index() + 1,
                    device.abbrev(),
                    m.name()
                ));
            }
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Table 5: max y-distance of per-UE count and sojourn CDFs (B2 vs Ours)",
        &header_refs,
    );

    let mut rows: Vec<Vec<String>> = vec![
        vec!["SRV_REQ".into()],
        vec!["S1_CONN_REL".into()],
        vec!["CONNECTED".into()],
        vec!["IDLE".into()],
    ];
    for s in [Scenario::One, Scenario::Two] {
        let mix = lab.cfg.scenario_mix(s);
        let real = lab.real(s);
        for device in DeviceType::ALL {
            let real_srv = events_per_ue(real, &mix, device, EventType::ServiceRequest);
            let real_rel = events_per_ue(real, &mix, device, EventType::S1ConnRelease);
            let (real_conn, real_idle) = state_sojourns(real, device);
            for m in [Method::B2, Method::Ours] {
                let synth = lab.synth(m, s);
                let srv = events_per_ue(synth, &mix, device, EventType::ServiceRequest);
                let rel = events_per_ue(synth, &mix, device, EventType::S1ConnRelease);
                let (conn, idle) = state_sojourns(synth, device);
                rows[0].push(fmt_opt_pct(max_y_distance(&real_srv, &srv)));
                rows[1].push(fmt_opt_pct(max_y_distance(&real_rel, &rel)));
                rows[2].push(fmt_opt_pct(max_y_distance(&real_conn, &conn)));
                rows[3].push(fmt_opt_pct(max_y_distance(&real_idle, &idle)));
            }
        }
    }
    for row in rows {
        t.push_row(row);
    }
    t
}

/// Table 6: max y-distance for inactive (≤2 events) vs active UE groups,
/// connected cars and tablets, Ours.
pub fn table6(lab: &Lab) -> Table {
    let mut headers: Vec<String> = vec!["Event".into()];
    for s in [Scenario::One, Scenario::Two] {
        for device in [DeviceType::ConnectedCar, DeviceType::Tablet] {
            headers.push(format!("S{} {} inact/act", s.index() + 1, device.abbrev()));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Table 6: max y-distance per UE-activity group (Ours)",
        &header_refs,
    );
    let mut rows: Vec<Vec<String>> = vec![vec!["SRV_REQ".into()], vec!["S1_CONN_REL".into()]];
    for s in [Scenario::One, Scenario::Two] {
        let mix = lab.cfg.scenario_mix(s);
        let real = lab.real(s);
        let synth = lab.synth(Method::Ours, s);
        for device in [DeviceType::ConnectedCar, DeviceType::Tablet] {
            for (ri, event) in [EventType::ServiceRequest, EventType::S1ConnRelease]
                .into_iter()
                .enumerate()
            {
                let rc = events_per_ue(real, &mix, device, event);
                let sc = events_per_ue(synth, &mix, device, event);
                let (ri_in, ri_act) = split_active(&rc, 2.0);
                let (si_in, si_act) = split_active(&sc, 2.0);
                let d_in = max_y_distance(&ri_in, &si_in);
                let d_act = max_y_distance(&ri_act, &si_act);
                rows[ri].push(format!("{}/{}", fmt_opt_pct(d_in), fmt_opt_pct(d_act)));
            }
        }
    }
    for row in rows {
        t.push_row(row);
    }
    t
}

/// Table 7: projected breakdown of 5G NSA and SA control-plane events,
/// from the HO-scaled (and, for SA, TAU-stripped) models.
pub fn table7(lab: &Lab) -> Table {
    let mut t = Table::new(
        "Table 7: projected 5G NSA / SA event breakdown",
        &[
            "Event (NSA/SA)",
            "P NSA",
            "P SA",
            "CC NSA",
            "CC SA",
            "T NSA",
            "T SA",
        ],
    );
    let base = lab.models(Method::Ours);
    let nsa_models = adapt_model(base, &ScalingProfile::NSA);
    let sa_models = adapt_model(base, &ScalingProfile::SA);
    let nsa = lab.synth_days(&nsa_models, lab.cfg.fiveg_days, lab.cfg.seed ^ 0x5f01);
    let sa = lab.synth_days(&sa_models, lab.cfg.fiveg_days, lab.cfg.seed ^ 0x5f02);
    let shares = |trace: &Trace, d: DeviceType| breakdown_simple(trace, d);
    let label = |e: EventType| match Event5G::from_4g(e) {
        Some(g) if g.mnemonic() != e.mnemonic() => format!("{}/{}", e.mnemonic(), g.mnemonic()),
        Some(_) => e.mnemonic().to_string(),
        None => format!("{}/-", e.mnemonic()),
    };
    for e in EventType::ALL {
        let mut row = vec![label(e)];
        for device in DeviceType::ALL {
            let n = shares(&nsa, device)[e.code() as usize];
            let s = shares(&sa, device)[e.code() as usize];
            row.push(pct(n));
            row.push(if e == EventType::Tau {
                "-".into()
            } else {
                pct(s)
            });
        }
        t.push_row(row);
    }
    t
}

/// Extension: Table 9 with the extended family battery (adds LogNormal
/// and Gamma rows).
pub fn table9_extended(lab: &Lab) -> Table {
    use crate::testsuite::run_suite_with;
    let mut headers: Vec<String> = vec!["Test".into(), "Device".into()];
    headers.extend(Quantity::all().iter().map(|q| q.label().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Extension: Table 9 with LogNormal and Gamma rows",
        &header_refs,
    );
    let result = run_suite_with(lab.world(), true, &lab.cfg.clustering, &SuiteTest::EXTENDED);
    for (ti, test) in SuiteTest::EXTENDED.iter().enumerate() {
        for device in DeviceType::ALL {
            let mut row = vec![test.label(), device.abbrev().into()];
            match result.main.get(&(ti, device)) {
                Some(cells) => row.extend(cells.iter().map(|c| fmt_opt_pct(*c))),
                None => row.extend(std::iter::repeat_n("-".to_string(), Quantity::all().len())),
            }
            t.push_row(row);
        }
    }
    t
}

/// Tables 8/9: distribution-test pass rates without (`clustered = false`,
/// Table 8) or with (`true`, Table 9) UE clustering.
pub fn table8or9(lab: &Lab, clustered: bool) -> Table {
    let title = if clustered {
        "Table 9: % of (cluster, hour) combos passing the tests, WITH clustering"
    } else {
        "Table 8: % of hour combos passing the tests, NO clustering"
    };
    let mut headers: Vec<String> = vec!["Test".into(), "Device".into()];
    headers.extend(Quantity::all().iter().map(|q| q.label().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &header_refs);
    let result = run_suite(lab.world(), clustered, &lab.cfg.clustering);
    for (ti, test) in SuiteTest::ALL.iter().enumerate() {
        for device in DeviceType::ALL {
            let mut row = vec![test.label(), device.abbrev().into()];
            match result.main.get(&(ti, device)) {
                Some(cells) => row.extend(cells.iter().map(|c| fmt_opt_pct(*c))),
                None => row.extend(std::iter::repeat_n("-".to_string(), Quantity::all().len())),
            }
            t.push_row(row);
        }
    }
    t
}

/// Table 10: pass rates for the nine second-level transitions.
pub fn table10(lab: &Lab) -> Table {
    let mut headers: Vec<String> = vec!["Test".into(), "Device".into()];
    headers.extend(BottomTransition::ALL.iter().map(|b| b.label().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Table 10: % of (cluster, hour) combos passing, second-level transitions",
        &header_refs,
    );
    let result = run_suite(lab.world(), true, &lab.cfg.clustering);
    for (ti, test) in SuiteTest::ALL.iter().enumerate() {
        for device in DeviceType::ALL {
            let mut row = vec![test.label(), device.abbrev().into()];
            match result.bottom.get(&(ti, device)) {
                Some(cells) => row.extend(cells.iter().map(|c| fmt_opt_pct(*c))),
                None => row.extend(std::iter::repeat_n(
                    "-".to_string(),
                    BottomTransition::ALL.len(),
                )),
            }
            t.push_row(row);
        }
    }
    t
}

/// Fig. 7: CDFs of per-UE SRV_REQ / S1_CONN_REL counts — real vs Ours vs
/// Base, Scenario 2.
pub fn fig7(lab: &Lab, event: EventType) -> Table {
    let mut headers: Vec<String> = vec!["count <= k".into()];
    for device in DeviceType::ALL {
        for src in ["real", "Ours", "Base"] {
            headers.push(format!("{} {}", device.abbrev(), src));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!("Fig. 7: CDF of {} per UE (Scenario 2)", event.mnemonic()),
        &header_refs,
    );
    let mix = lab.cfg.scenario_mix(Scenario::Two);
    let mut ecdfs = Vec::new();
    for device in DeviceType::ALL {
        for trace in [
            lab.real(Scenario::Two),
            lab.synth(Method::Ours, Scenario::Two),
            lab.synth(Method::Base, Scenario::Two),
        ] {
            ecdfs.push(Ecdf::new(events_per_ue(trace, &mix, device, event)));
        }
    }
    for k in 0..=10u32 {
        let mut row = vec![k.to_string()];
        for e in &ecdfs {
            row.push(
                e.as_ref()
                    .map_or("-".into(), |e| format!("{:.3}", e.cdf(f64::from(k)))),
            );
        }
        t.push_row(row);
    }
    t
}

/// Extension (not a paper artifact): diurnal fidelity of a full-day
/// synthesis. The per-hour event volumes of 24 generated hours are
/// compared with the modeled world's mean weekday profile; the last row
/// reports the Pearson correlation of the two 24-point profiles per
/// device (≥0.9 means the generator reproduces the daily rhythm, not just
/// the busy hour).
pub fn diurnal_fidelity(lab: &Lab) -> Table {
    let mut t = Table::new(
        "Extension: diurnal fidelity of a 24h synthesis (events per hour)",
        &[
            "hour", "P real", "P synth", "CC real", "CC synth", "T real", "T synth",
        ],
    );
    // Real: mean weekday profile of the modeled world (per-hour volume
    // averaged over whole days).
    let world = lab.world();
    let n_days = lab.cfg.days.max(1.0);
    let mut real = [[0f64; 24]; 3];
    for r in world.iter() {
        real[r.device.code() as usize][r.t.hour_of_day().index()] += 1.0 / n_days;
    }
    // Synth: one generated day for the model population.
    let config = cn_gen::GenConfig::new(
        lab.cfg.model_mix,
        cn_trace::Timestamp::at_hour(0, 0),
        24.0,
        lab.cfg.seed ^ 0xD1E1,
    );
    let synth_trace = cn_gen::generate(lab.models(Method::Ours), &config);
    let mut synth = [[0f64; 24]; 3];
    for r in synth_trace.iter() {
        synth[r.device.code() as usize][r.t.hour_of_day().index()] += 1.0;
    }
    for h in 0..24 {
        t.push_row(vec![
            format!("{h:02}h"),
            format!("{:.0}", real[0][h]),
            format!("{:.0}", synth[0][h]),
            format!("{:.0}", real[1][h]),
            format!("{:.0}", synth[1][h]),
            format!("{:.0}", real[2][h]),
            format!("{:.0}", synth[2][h]),
        ]);
    }
    let pearson = |a: &[f64; 24], b: &[f64; 24]| {
        let ma = a.iter().sum::<f64>() / 24.0;
        let mb = b.iter().sum::<f64>() / 24.0;
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
        if va > 0.0 && vb > 0.0 {
            cov / (va.sqrt() * vb.sqrt())
        } else {
            0.0
        }
    };
    t.push_row(vec![
        "corr".into(),
        String::new(),
        format!("{:.3}", pearson(&real[0], &synth[0])),
        String::new(),
        format!("{:.3}", pearson(&real[1], &synth[1])),
        String::new(),
        format!("{:.3}", pearson(&real[2], &synth[2])),
    ]);
    t
}

/// Run every experiment, in paper order (the repro binary's `all`).
pub fn all(lab: &Lab) -> Vec<Table> {
    let mut out = vec![table1(lab), fig2_summary(lab)];
    for device in DeviceType::ALL {
        for event in [
            EventType::ServiceRequest,
            EventType::S1ConnRelease,
            EventType::Handover,
            EventType::Tau,
        ] {
            out.push(fig2(lab, device, event));
        }
    }
    out.push(fig3(lab, DeviceType::Phone));
    out.push(fig3_hurst(lab));
    out.push(fig4(lab, DeviceType::Phone));
    out.push(table2());
    out.push(table3());
    out.push(table8or9(lab, false));
    out.push(table8or9(lab, true));
    out.push(table10(lab));
    out.push(table4(lab, Scenario::Two));
    out.push(table5(lab));
    out.push(table6(lab));
    out.push(table4(lab, Scenario::One));
    out.push(fig7(lab, EventType::ServiceRequest));
    out.push(fig7(lab, EventType::S1ConnRelease));
    out.push(table7(lab));
    out.push(diurnal_fidelity(lab));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::ExperimentConfig;

    fn quick_lab() -> Lab {
        Lab::new(ExperimentConfig::quick())
    }

    #[test]
    fn static_tables_render() {
        let t2 = table2();
        assert_eq!(t2.rows.len(), 6);
        assert!(t2.render().contains("AN_REL"));
        let t3 = table3();
        assert_eq!(t3.rows.len(), 4);
        assert!(t3.render().contains("2-level"));
    }

    #[test]
    fn table1_shares_sum_to_one() {
        let lab = quick_lab();
        let t = table1(&lab);
        assert_eq!(t.rows.len(), 6);
        for col in 1..=3 {
            let sum: f64 = t
                .rows
                .iter()
                .map(|r| r[col].trim_end_matches('%').parse::<f64>().unwrap())
                .sum();
            assert!((sum - 100.0).abs() < 0.5, "column {col}: {sum}");
        }
    }

    #[test]
    fn fig2_has_24_hours() {
        let lab = quick_lab();
        let t = fig2(&lab, DeviceType::Phone, EventType::ServiceRequest);
        assert_eq!(t.rows.len(), 24);
    }

    #[test]
    fn table4_shape_holds_ours_beats_base() {
        let lab = quick_lab();
        let t = table4(&lab, Scenario::One);
        assert_eq!(t.rows.len(), 8);
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        // Column layout: Event, then per device [Real, Base, B1, B2, Ours].
        // (1) The two-level methods never misplace HO in IDLE; the EMM–ECM
        // baselines do (the paper's central qualitative claim).
        let ho_idle = &t.rows[BreakdownRow::HoIdle.index()];
        let mut base_leaks = false;
        for (di, _) in DeviceType::ALL.iter().enumerate() {
            let col0 = 1 + di * 5;
            assert_eq!(
                parse(&ho_idle[col0 + 4]).abs(),
                0.0,
                "Ours HO(IDLE) device {di}"
            );
            base_leaks |= parse(&ho_idle[col0 + 1]) > 0.0;
        }
        assert!(base_leaks, "no device shows the baseline HO(IDLE) leak");
        // (2) For connected cars (mobility-heavy) the total absolute error
        // of Ours is below Base's.
        let car0 = 1 + 5;
        let sum_abs = |method_off: usize| -> f64 {
            t.rows
                .iter()
                .map(|r| parse(&r[car0 + method_off]).abs())
                .sum()
        };
        let base = sum_abs(1);
        let ours = sum_abs(4);
        assert!(ours < base, "cars: Ours total error {ours} ≥ Base {base}");
    }

    #[test]
    fn table7_sa_has_no_tau() {
        let lab = quick_lab();
        let t = table7(&lab);
        let tau_row = t.rows.iter().find(|r| r[0].starts_with("TAU")).unwrap();
        // SA columns are 2, 4, 6.
        for col in [2, 4, 6] {
            assert_eq!(tau_row[col], "-");
        }
    }
}
