//! Automated reproduction verdicts.
//!
//! `EXPERIMENTS.md` argues that the paper's *shapes* reproduce; this
//! module turns each shape claim into an executable check so one command
//! (`repro verdicts`) answers "does the reproduction still hold?" after
//! any change to the world, the fit, or the generator. Each verdict is a
//! single inequality with the measured values shown.

use crate::lab::{Lab, Scenario};
use crate::profile::{breakdown_simple, BreakdownRow, Profile};
use crate::report::Table;
use crate::testsuite::poisson_ks_overall;
use crate::verdict::VerdictReport;
use cn_fit::Method;
use cn_stats::two_sample_distance;
use cn_stats::variance_time::poisson_reference;
use cn_trace::{DeviceType, EventType};

/// Run every shape check, returning the shared claim/measured/pass report
/// (the same [`VerdictReport`] the round-trip harness emits, so tooling can
/// treat paper-shape claims and model-recovery claims uniformly).
pub(crate) fn verdict_report(lab: &Lab) -> VerdictReport {
    let mut claims = VerdictReport::new("Reproduction verdicts (shape claims of EXPERIMENTS.md)");

    // 1. Table 1 shape: SRV/REL dominate, REL ≥ SRV, cars lead HO.
    {
        let shares = &lab.world_profile().shares;
        let srv = EventType::ServiceRequest.code() as usize;
        let rel = EventType::S1ConnRelease.code() as usize;
        let ho = EventType::Handover.code() as usize;
        let dominant = shares.iter().all(|s| s[srv] + s[rel] > 0.75);
        claims.check(
            "T1: SRV_REQ+S1_CONN_REL dominate every device (>75%)",
            format!(
                "{:.0}%/{:.0}%/{:.0}%",
                (shares[0][srv] + shares[0][rel]) * 100.0,
                (shares[1][srv] + shares[1][rel]) * 100.0,
                (shares[2][srv] + shares[2][rel]) * 100.0
            ),
            dominant,
        );
        claims.check(
            "T1: connected cars lead the HO share",
            format!(
                "CC {:.1}% vs P {:.1}% / T {:.1}%",
                shares[1][ho] * 100.0,
                shares[0][ho] * 100.0,
                shares[2][ho] * 100.0
            ),
            shares[1][ho] > shares[0][ho] && shares[1][ho] > shares[2][ho],
        );
    }

    // 2. Fig. 3 shape: real variance exceeds Poisson at large scales.
    {
        // Phones' SRV_REQ stream.
        let srv = &lab.world_profile().streams[0][0];
        let (measured, pass) = match srv.variance.iter().find(|p| p.scale_secs == 100) {
            Some(p) => {
                let reference = poisson_reference(srv.rate, 100);
                (
                    format!("{:.2e} vs Poisson {:.2e}", p.normalized_variance, reference),
                    p.normalized_variance > 3.0 * reference,
                )
            }
            None => ("no data".into(), false),
        };
        claims.check(
            "F3: real variance ≫ Poisson at 100 s (phones, SRV_REQ)",
            measured,
            pass,
        );
    }

    // 3. Tables 8/9 headline: dominant columns reject Poisson.
    {
        let rate = poisson_ks_overall(lab.suite(false));
        // The paper reports <3% at carrier scale; per-combination pools
        // shrink with the lab population, so the executable bound is 20%.
        // The measured value at quick scale sits near the bound and depends
        // on the exact RNG stream (≈13% with upstream rand, ≈16% with the
        // vendored xoshiro shim); default scale measures ≈0–5% either way.
        claims.check(
            "T8: Poisson K–S pass rate on dominant columns near zero (<20%)",
            format!("{:.1}%", rate * 100.0),
            rate < 0.20,
        );
    }

    // Tables 4/5 and Fig. 7 all compare Scenario 2.
    let real = lab.real(Scenario::Two);
    let ours = lab.synth(Method::Ours, Scenario::Two);
    let base = lab.synth(Method::Base, Scenario::Two);
    let phone = DeviceType::Phone;

    // 4. Table 4 core: two-level methods never misplace HO; baselines do;
    //    Ours total error beats Base for every device.
    {
        let leak = |p: &Profile| -> f64 {
            DeviceType::ALL
                .iter()
                .map(|&d| p.device(d).share(BreakdownRow::HoIdle))
                .sum()
        };
        let (ours_leak, base_leak) = (leak(ours), leak(base));
        claims.check(
            "T4: Ours emits zero HO(IDLE); Base leaks it",
            format!(
                "Ours {:.2}%, Base {:.1}%",
                ours_leak * 100.0,
                base_leak * 100.0
            ),
            ours_leak == 0.0 && base_leak > 0.0,
        );
        let error = |p: &Profile| -> [f64; 3] {
            DeviceType::ALL.map(|d| real.device(d).max_share_diff(p.device(d)))
        };
        let (e_ours, e_base) = (error(ours), error(base));
        claims.check(
            "T4: Ours max breakdown error < Base for every device",
            format!(
                "Ours {:.1}/{:.1}/{:.1}% vs Base {:.1}/{:.1}/{:.1}%",
                e_ours[0] * 100.0,
                e_ours[1] * 100.0,
                e_ours[2] * 100.0,
                e_base[0] * 100.0,
                e_base[1] * 100.0,
                e_base[2] * 100.0
            ),
            (0..3).all(|i| e_ours[i] < e_base[i]),
        );
    }

    // 5. Table 5 core: Ours beats B2 on CONNECTED sojourn CDFs (phones).
    {
        let b2 = lab.synth(Method::B2, Scenario::Two);
        let distance = |p: &Profile| {
            two_sample_distance(&real.device(phone).connected, &p.device(phone).connected)
                .unwrap_or(1.0)
        };
        let (d_ours, d_b2) = (distance(ours), distance(b2));
        claims.check(
            "T5: Ours CONNECTED-sojourn distance ≪ B2 (phones, ≥3x)",
            format!("Ours {:.1}% vs B2 {:.1}%", d_ours * 100.0, d_b2 * 100.0),
            d_b2 > 3.0 * d_ours,
        );
    }

    // 6. Fig. 7 core: Ours per-UE count CDF tracks real better than Base.
    {
        let distance = |p: &Profile| {
            two_sample_distance(&real.device(phone).srv_req, &p.device(phone).srv_req)
                .unwrap_or(1.0)
        };
        let (d_ours, d_base) = (distance(ours), distance(base));
        claims.check(
            "F7: Ours per-UE SRV_REQ count CDF beats Base (phones)",
            format!("Ours {:.1}% vs Base {:.1}%", d_ours * 100.0, d_base * 100.0),
            d_ours < d_base,
        );
    }

    // 7. Table 7 core: NSA boosts the HO share well above LTE's.
    {
        let base = lab.models(Method::Ours);
        let nsa = cn_fit::fiveg::adapt_model(base, &cn_fit::fiveg::ScalingProfile::NSA);
        let lte_day = lab.synth_days(base, 1.0, lab.cfg.seed ^ 0x77a);
        let nsa_day = lab.synth_days(&nsa, 1.0, lab.cfg.seed ^ 0x77b);
        let share = |t: &cn_trace::Trace| {
            let s = breakdown_simple(t, DeviceType::Phone);
            s[EventType::Handover.code() as usize]
        };
        let lte_ho = share(&lte_day);
        let nsa_ho = share(&nsa_day);
        claims.check(
            "T7: 5G NSA HO share ≫ LTE (phones, ≥2x)",
            format!("LTE {:.1}% → NSA {:.1}%", lte_ho * 100.0, nsa_ho * 100.0),
            nsa_ho > 2.0 * lte_ho,
        );
    }

    claims
}

/// `verdict_report` rendered as the `repro verdicts` table. The final row
/// is the overall verdict; `all_pass` is also returned for programmatic use.
pub fn verdicts(lab: &Lab) -> (Table, bool) {
    let report = verdict_report(lab);
    let all_pass = report.all_pass();
    let mut t = Table::new(&report.title, &["claim", "measured", "verdict"]);
    for v in report.verdicts {
        t.push_row(vec![
            v.claim,
            v.measured,
            if v.pass { "PASS".into() } else { "FAIL".into() },
        ]);
    }
    t.push_row(vec![
        "OVERALL".into(),
        String::new(),
        if all_pass {
            "PASS".into()
        } else {
            "FAIL".into()
        },
    ]);
    (t, all_pass)
}
