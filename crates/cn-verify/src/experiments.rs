//! One function per paper table/figure.
//!
//! Every function takes a [`Lab`] (which memoizes the expensive artifacts)
//! and returns a renderable [`Table`] whose rows mirror the paper's
//! artifact. Absolute values differ from the paper — the substrate is the
//! `cn-world` simulator, not a US carrier — but the *shapes* (who wins,
//! orderings, rough factors) are the reproduction targets; see
//! `EXPERIMENTS.md`.

use crate::lab::{Lab, Scenario};
use crate::profile::{breakdown_simple, split_active, BreakdownRow, DeviceProfile};
use crate::report::{pct, signed_pct, Table};
use crate::testsuite::{Quantity, SuiteTest};
use crate::world_profile::STREAMS;
use cn_fit::fiveg::{adapt_model, Event5G, ScalingProfile, TABLE2};
use cn_fit::Method;
use cn_statemachine::BottomTransition;
use cn_stats::summary::BoxStats;
use cn_stats::variance_time::{default_scales, poisson_reference};
use cn_stats::{two_sample_distance, Ecdf, Exponential};
use cn_trace::{DeviceType, EventType, HourOfDay, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn fmt_opt_pct(v: Option<f64>) -> String {
    v.map_or("-".into(), pct)
}

/// Table 1: breakdown of control-plane events of the modeled week.
pub fn table1(lab: &Lab) -> Table {
    let mut t = Table::new(
        "Table 1: Breakdown of control-plane events (modeled 7-day world)",
        &["Event Type", "P", "CC", "T"],
    );
    let shares = &lab.world_profile().shares;
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
    for hour in HourOfDay::all() {
        // One sample per (UE, day): the event count in that hour window.
        let samples = lab.world_profile().window_counts(device, event, hour);
        let stats = BoxStats::from_samples(&samples).unwrap_or_default();
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
    let world = lab.world_profile();
    for device in DeviceType::ALL {
        let ues = world.ues[device.code() as usize].max(1) as f64;
        let days = lab.cfg.days.max(1.0 / 24.0);
        let mut row = vec![device.abbrev().to_string()];
        for event in STREAMS {
            let by_hour: Vec<f64> = HourOfDay::all()
                .map(|hour| world.events(device, event, hour) as f64 / (ues * days))
                .collect();
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

/// Fig. 3 companion: Hurst exponents of the four event streams (the
/// aggregated-variance method is the variance–time plot in closed form;
/// `H = 0.5` is Poisson, `H > 0.5` is the long-range dependence the paper
/// observes).
pub fn fig3_hurst(lab: &Lab) -> Table {
    let mut t = Table::new(
        "Fig. 3 companion: Hurst exponents of event streams (0.5 = Poisson)",
        &["Device", "SRV_REQ", "S1_CONN_REL", "HO", "TAU"],
    );
    for device in DeviceType::ALL {
        let mut row = vec![device.abbrev().to_string()];
        for s in 0..STREAMS.len() {
            let hurst = lab.stream(device, s).hurst;
            row.push(hurst.map_or("-".into(), |h| format!("{h:.2}")));
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
    if lab.world().end().map_or(0, |e| e.as_millis()) == 0 {
        return t;
    }
    for m in default_scales() {
        let mut row = vec![m.to_string()];
        for s in (0..STREAMS.len()).map(|s| lab.stream(device, s)) {
            let real = s.variance.iter().find(|p| p.scale_secs == m);
            row.push(real.map_or("-".into(), |p| format!("{:.3e}", p.normalized_variance)));
            row.push(if s.rate > 0.0 {
                format!("{:.3e}", poisson_reference(s.rate, m))
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
    let mut rng = StdRng::seed_from_u64(lab.cfg.seed ^ 0xF164);
    let busy = &lab.world_profile().busy[device.code() as usize];
    for (name, samples) in ["CONNECTED", "IDLE", "HO", "TAU"].into_iter().zip(busy) {
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

    for row in BreakdownRow::ALL {
        let mut cells = vec![row.label().to_string()];
        for device in DeviceType::ALL {
            let real = lab.real(scenario).device(device).share(row);
            cells.push(pct(real));
            for m in Method::ALL {
                let synth = lab.synth(m, scenario).device(device).share(row);
                cells.push(signed_pct(synth - real));
            }
        }
        t.push_row(cells);
    }
    t
}

/// A device's per-UE samples in Table 5's row order: the `SRV_REQ` and
/// `S1_CONN_REL` counts (also Table 6's rows and Fig. 7's two tables), then
/// the CONNECTED and IDLE sojourns.
fn per_ue_samples(p: &DeviceProfile) -> [&[f64]; 4] {
    [&p.srv_req, &p.s1_conn_rel, &p.connected, &p.idle]
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
        for device in DeviceType::ALL {
            let real = per_ue_samples(lab.real(s).device(device));
            for m in [Method::B2, Method::Ours] {
                let synth = per_ue_samples(lab.synth(m, s).device(device));
                for ((row, real), synth) in rows.iter_mut().zip(real).zip(synth) {
                    row.push(fmt_opt_pct(two_sample_distance(real, synth)));
                }
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
        for device in [DeviceType::ConnectedCar, DeviceType::Tablet] {
            let real = per_ue_samples(lab.real(s).device(device));
            let synth = per_ue_samples(lab.synth(Method::Ours, s).device(device));
            // Zipped with the two rows, only the two count samples are read.
            for (row, (rc, sc)) in rows.iter_mut().zip(real.into_iter().zip(synth)) {
                let (ri_in, ri_act) = split_active(rc, 2.0);
                let (si_in, si_act) = split_active(sc, 2.0);
                let d_in = two_sample_distance(&ri_in, &si_in);
                let d_act = two_sample_distance(&ri_act, &si_act);
                row.push(format!("{}/{}", fmt_opt_pct(d_in), fmt_opt_pct(d_act)));
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

/// A pass-rate table: a row per (test, device) and a column per label;
/// `cells` is keyed by the test's index in `tests`.
fn pass_rates<'a>(
    title: &str,
    columns: impl Iterator<Item = &'a str>,
    tests: &[SuiteTest],
    cells: &HashMap<(usize, DeviceType), Vec<Option<f64>>>,
) -> Table {
    let mut headers = vec!["Test", "Device"];
    headers.extend(columns);
    let mut t = Table::new(title, &headers);
    for (ti, test) in tests.iter().enumerate() {
        for device in DeviceType::ALL {
            let mut row = vec![test.label(), device.abbrev().into()];
            match cells.get(&(ti, device)) {
                Some(cells) => row.extend(cells.iter().map(|c| fmt_opt_pct(*c))),
                None => row.extend(std::iter::repeat_n("-".to_string(), headers.len() - 2)),
            }
            t.push_row(row);
        }
    }
    t
}

/// Extension: Table 9 with the extended family battery (adds LogNormal
/// and Gamma rows).
pub fn table9_extended(lab: &Lab) -> Table {
    let title = "Extension: Table 9 with LogNormal and Gamma rows";
    let columns = Quantity::all().into_iter().map(Quantity::label);
    pass_rates(title, columns, &SuiteTest::EXTENDED, &lab.suite_extended())
}

/// Tables 8/9: distribution-test pass rates without (`clustered = false`,
/// Table 8) or with (`true`, Table 9) UE clustering.
pub fn table8or9(lab: &Lab, clustered: bool) -> Table {
    let title = if clustered {
        "Table 9: % of (cluster, hour) combos passing the tests, WITH clustering"
    } else {
        "Table 8: % of hour combos passing the tests, NO clustering"
    };
    let columns = Quantity::all().into_iter().map(Quantity::label);
    pass_rates(title, columns, &SuiteTest::ALL, &lab.suite(clustered).main)
}

/// Table 10: pass rates for the nine second-level transitions.
pub fn table10(lab: &Lab) -> Table {
    let title = "Table 10: % of (cluster, hour) combos passing, second-level transitions";
    let columns = BottomTransition::ALL.iter().map(|b| b.label());
    pass_rates(title, columns, &SuiteTest::ALL, &lab.suite(true).bottom)
}

/// Fig. 7: CDFs of per-UE SRV_REQ and S1_CONN_REL counts — real vs Ours
/// vs Base, Scenario 2; one table per event.
pub fn fig7(lab: &Lab) -> Vec<Table> {
    let sources = [
        lab.real(Scenario::Two),
        lab.synth(Method::Ours, Scenario::Two),
        lab.synth(Method::Base, Scenario::Two),
    ];
    let mut headers: Vec<String> = vec!["count <= k".into()];
    for device in DeviceType::ALL {
        for src in ["real", "Ours", "Base"] {
            headers.push(format!("{} {}", device.abbrev(), src));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut tables = Vec::new();
    for (i, event) in [EventType::ServiceRequest, EventType::S1ConnRelease]
        .into_iter()
        .enumerate()
    {
        let mut t = Table::new(
            format!("Fig. 7: CDF of {} per UE (Scenario 2)", event.mnemonic()),
            &header_refs,
        );
        let mut ecdfs = Vec::new();
        for device in DeviceType::ALL {
            for p in sources {
                ecdfs.push(Ecdf::new(per_ue_samples(p.device(device))[i].to_vec()));
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
        tables.push(t);
    }
    tables
}

/// Events per hour of day, per device: the modeled world's mean day (each
/// hour's volume averaged over whole days) beside one synthesized day, and
/// the Pearson correlation of each device's two 24-point profiles.
pub(crate) struct Diurnal {
    pub(crate) real: [[f64; 24]; 3],
    pub(crate) synth: [[f64; 24]; 3],
    pub(crate) corr: [f64; 3],
}

/// The diurnal profiles of the modeled world and of `synth`, one day.
pub(crate) fn diurnal(lab: &Lab, synth: &Trace) -> Diurnal {
    let mut volumes = [[0f64; 24]; 3];
    for r in synth.iter() {
        volumes[r.device.code() as usize][r.t.hour_of_day().index()] += 1.0;
    }
    let (real, synth) = (lab.world_profile().volumes, volumes);
    let corr = std::array::from_fn(|d| {
        let (a, b) = (&real[d], &synth[d]);
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
    });
    Diurnal { real, synth, corr }
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
    let config = cn_gen::GenConfig::new(
        lab.cfg.model_mix,
        cn_trace::Timestamp::at_hour(0, 0),
        24.0,
        lab.cfg.seed ^ 0xD1E1,
    );
    let d = diurnal(lab, &cn_gen::generate(lab.models(Method::Ours), &config));
    for h in 0..24 {
        let mut row = vec![format!("{h:02}h")];
        for dev in 0..3 {
            row.push(format!("{:.0}", d.real[dev][h]));
            row.push(format!("{:.0}", d.synth[dev][h]));
        }
        t.push_row(row);
    }
    let mut row = vec!["corr".into()];
    for corr in d.corr {
        row.push(String::new());
        row.push(format!("{corr:.3}"));
    }
    t.push_row(row);
    t
}

/// Run every experiment, in paper order (the repro binary's `all`).
pub fn all(lab: &Lab) -> Vec<Table> {
    let mut out = vec![table1(lab), fig2_summary(lab)];
    for device in DeviceType::ALL {
        for event in STREAMS {
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
    out.extend(fig7(lab));
    out.push(table7(lab));
    out.push(diurnal_fidelity(lab));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::ExperimentConfig;
    use crate::testsuite::run_suite;

    fn quick_lab() -> Lab {
        Lab::new(ExperimentConfig::quick())
    }

    /// Table 9x renders as one run of the extended battery whether Table 9
    /// ran first or not, and run first it leaves Table 9's memo equal to
    /// a fresh battery.
    #[test]
    fn table9x_shares_table9s_battery() {
        let (first, after) = (quick_lab(), quick_lab());
        let t9x = table9_extended(&first);
        let (world, params) = (first.world(), &first.cfg.clustering);
        assert!(*first.suite(true) == run_suite(world, true, params));
        let fresh = crate::testsuite::run_suite_with(world, true, params, &SuiteTest::EXTENDED);
        let columns = Quantity::all().into_iter().map(Quantity::label);
        assert_eq!(
            t9x,
            pass_rates(&t9x.title, columns, &SuiteTest::EXTENDED, &fresh.main)
        );
        after.suite(true);
        assert_eq!(table9_extended(&after), t9x);
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
        assert_eq!(table1(&lab).rows.len(), 6);
        for device in DeviceType::ALL {
            let sum: f64 = breakdown_simple(lab.world(), device).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{device}: {sum}");
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
        assert_eq!(table4(&lab, Scenario::One).rows.len(), 8);
        let real = lab.real(Scenario::One);
        let synth = |m: Method, d: DeviceType| lab.synth(m, Scenario::One).device(d);
        // (1) The two-level methods never misplace HO in IDLE; the EMM–ECM
        // baselines do (the paper's central qualitative claim).
        let mut base_leaks = false;
        for device in DeviceType::ALL {
            let ours = synth(Method::Ours, device).share(BreakdownRow::HoIdle);
            assert_eq!(ours, 0.0, "Ours HO(IDLE) {device}");
            base_leaks |= synth(Method::Base, device).share(BreakdownRow::HoIdle) > 0.0;
        }
        assert!(base_leaks, "no device shows the baseline HO(IDLE) leak");
        // (2) For connected cars (mobility-heavy) the total absolute error
        // of Ours is below Base's.
        let car = DeviceType::ConnectedCar;
        let total_error = |m: Method| -> f64 {
            let rows = real.device(car).shares.iter().zip(synth(m, car).shares);
            rows.map(|(r, s)| (s - r).abs()).sum()
        };
        let (base, ours) = (total_error(Method::Base), total_error(Method::Ours));
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
