//! 5G adaptation end to end: LTE fit → NSA/SA scaling → generation →
//! Table 7-style properties.

use cellular_cp_traffgen::fit_crate::fiveg::FiveGMode;
use cellular_cp_traffgen::prelude::*;
use cn_verify::breakdown::breakdown_simple;

fn lte_models() -> (ModelSet, PopulationMix) {
    let mix = PopulationMix::new(70, 40, 18);
    let world = generate_world(&WorldConfig::new(mix, 2.0, 66));
    (fit(&world, &FitConfig::new(Method::Ours)), mix)
}

fn day_trace(models: &ModelSet, mix: PopulationMix, seed: u64) -> Trace {
    let config = GenConfig::new(mix, Timestamp::at_hour(0, 6), 14.0, seed);
    generate(models, &config)
}

#[test]
fn nsa_increases_ho_share_sa_removes_tau() {
    let (lte, mix) = lte_models();
    let nsa = adapt_model(&lte, &ScalingProfile::NSA);
    let sa = adapt_model(&lte, &ScalingProfile::SA);

    let t_lte = day_trace(&lte, mix, 1);
    let t_nsa = day_trace(&nsa, mix, 2);
    let t_sa = day_trace(&sa, mix, 3);

    let ho_share = |t: &Trace| {
        let s = breakdown_simple(t, DeviceType::ConnectedCar);
        s[EventType::Handover.code() as usize]
    };
    let lte_ho = ho_share(&t_lte);
    let nsa_ho = ho_share(&t_nsa);
    assert!(
        nsa_ho > lte_ho * 1.5,
        "NSA HO share {nsa_ho:.4} not well above LTE {lte_ho:.4}"
    );

    assert_eq!(
        t_sa.iter().filter(|r| r.event == EventType::Tau).count(),
        0,
        "5G SA must have no TAU events"
    );
    // SA still produces real traffic.
    assert!(
        t_sa.len() > 200,
        "SA trace suspiciously small: {}",
        t_sa.len()
    );
}

#[test]
fn custom_scaling_factors_are_monotone() {
    let (lte, mix) = lte_models();
    let mild = adapt_model(
        &lte,
        &ScalingProfile {
            mode: FiveGMode::Nsa,
            ho_factor: 2.0,
        },
    );
    let wild = adapt_model(
        &lte,
        &ScalingProfile {
            mode: FiveGMode::Nsa,
            ho_factor: 8.0,
        },
    );
    let count_ho = |models: &ModelSet, seed| {
        day_trace(models, mix, seed)
            .iter()
            .filter(|r| r.event == EventType::Handover)
            .count()
    };
    let lte_n = count_ho(&lte, 10);
    let mild_n = count_ho(&mild, 10);
    let wild_n = count_ho(&wild, 10);
    assert!(
        lte_n < mild_n,
        "×2 did not increase HO ({lte_n} → {mild_n})"
    );
    assert!(mild_n < wild_n, "×8 did not beat ×2 ({mild_n} → {wild_n})");
}

#[test]
fn nsa_traces_still_drive_the_mme_cleanly() {
    // NSA keeps the LTE two-level machine, so its traces stay conformant.
    let (lte, mix) = lte_models();
    let nsa = adapt_model(&lte, &ScalingProfile::NSA);
    let trace = day_trace(&nsa, mix, 4);
    let report = Mme::new().run(&trace);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.processed, trace.len() as u64);
}
