//! Overload control under synthesized signaling storms — the scenario
//! engine driving the admission controller end to end.
//!
//! `cn-scenario` injects storm bursts with a deliberate RNG discipline:
//! burst `i` of a UE reuses the first `i` draws of burst `i+1`'s stream,
//! so a storm of intensity `k` is a *prefix multiset* of one of intensity
//! `k' > k`. Combined with the admission controller's proven property
//! that offering a superset of load never reduces total shed, the shed
//! count must rise monotonically along a `bursts_per_ue` sweep — and the
//! priority ordering (low shed hardest, critical protected) must hold at
//! every intensity.

use cn_fit::{fit, FitConfig, Method, ModelSet};
use cn_gen::GenConfig;
use cn_mcn::overload::{apply, AdmissionPolicy, Priority};
use cn_obs::Registry;
use cn_scenario::{
    apply_scenario, Phase, PhaseKind, ScenarioSpec, StormKind, TimeWindow, UeSubset,
};
use cn_trace::{PopulationMix, Timestamp, Trace};
use cn_world::{generate_world, WorldConfig};

fn fitted() -> ModelSet {
    let trace = generate_world(&WorldConfig::new(PopulationMix::new(20, 8, 4), 2.0, 3));
    fit(&trace, &FitConfig::new(Method::Ours))
}

fn config() -> GenConfig {
    GenConfig::new(
        PopulationMix::new(20, 8, 4),
        Timestamp::at_hour(0, 9),
        2.0,
        0x0005_7021,
    )
}

/// A short, violent paging storm over the whole population: every burst
/// lands inside a 2-minute window, so intensity translates directly into
/// instantaneous queue pressure.
fn storm(bursts_per_ue: u32) -> ScenarioSpec {
    ScenarioSpec {
        name: "mcn-storm".into(),
        seed: 0x5701,
        phases: vec![Phase {
            name: "paging".into(),
            window: TimeWindow::new(1800.0, 120.0),
            kind: PhaseKind::SignalingStorm {
                ues: UeSubset::new(0, 32),
                kind: StormKind::Paging,
                bursts_per_ue,
            },
        }],
    }
}

fn storm_trace(models: &ModelSet, bursts_per_ue: u32) -> Trace {
    let (trace, stats) = apply_scenario(
        &storm(bursts_per_ue),
        models,
        &config(),
        &Registry::disabled(),
    )
    .expect("storm scenario");
    // Paging bursts inject a SRV_REQ + S1_CONN_REL pair each.
    assert_eq!(stats.injected, u64::from(bursts_per_ue) * 32 * 2);
    trace
}

/// A policy tight enough that the storm window saturates it but the
/// steady state mostly clears.
fn policy() -> AdmissionPolicy {
    AdmissionPolicy {
        rate_per_sec: 0.5,
        burst: 20.0,
        high_reserve: 0.3,
        critical_reserve: 0.1,
    }
}

#[test]
fn shed_rises_monotonically_with_storm_intensity() {
    let models = fitted();
    let policy = policy();
    let mut last_shed = 0u64;
    let mut last_injected_shed = [0u64; 3];
    for bursts in [1u32, 3, 6, 10] {
        let trace = storm_trace(&models, bursts);
        let (report, admitted) = apply(&trace, &policy);
        assert_eq!(
            report.total_admitted() + report.total_shed(),
            trace.len() as u64
        );
        assert_eq!(report.total_admitted(), admitted.len() as u64);
        // Monotone: a more intense storm (a multiset superset of the
        // weaker one, by the prefix-multiset injection discipline) never
        // sheds less in total.
        assert!(
            report.total_shed() >= last_shed,
            "bursts={bursts}: shed fell from {last_shed} to {}",
            report.total_shed()
        );
        // Per-priority shed counts are monotone too (the storm adds only
        // High-priority paging traffic, which squeezes every class).
        for (i, (now, before)) in report
            .shed
            .iter()
            .zip(last_injected_shed.iter())
            .enumerate()
        {
            assert!(
                now >= before,
                "bursts={bursts}: class {i} shed fell from {before} to {now}"
            );
        }
        last_shed = report.total_shed();
        last_injected_shed = report.shed;
    }
    assert!(last_shed > 0, "the heaviest storm must overload the bucket");
}

/// A two-phase recovery avalanche: a paging storm (High priority) that
/// drains the bucket, running straight into a TAU flood (Low priority)
/// that arrives while it is depleted — both classes contend inside one
/// congested region, where the priority reserves are actually exercised.
/// (Shedding is temporally local, so the ordering is only observable
/// where the classes compete for the same bucket.)
fn avalanche(bursts_per_ue: u32) -> ScenarioSpec {
    ScenarioSpec {
        name: "mcn-avalanche".into(),
        seed: 0x5702,
        phases: vec![
            Phase {
                name: "paging".into(),
                window: TimeWindow::new(1740.0, 120.0),
                kind: PhaseKind::SignalingStorm {
                    ues: UeSubset::new(0, 32),
                    kind: StormKind::Paging,
                    bursts_per_ue,
                },
            },
            Phase {
                name: "tau-flood".into(),
                window: TimeWindow::new(1860.0, 60.0),
                kind: PhaseKind::SignalingStorm {
                    ues: UeSubset::new(0, 32),
                    kind: StormKind::TauFlood,
                    bursts_per_ue,
                },
            },
        ],
    }
}

/// Events per priority class within `[lo_ms, hi_ms)`.
fn class_counts(trace: &Trace, lo_ms: u64, hi_ms: u64) -> [u64; 3] {
    let mut counts = [0u64; 3];
    for r in trace.iter() {
        let t = r.t.as_millis();
        if lo_ms <= t && t < hi_ms {
            counts[cn_mcn::overload::priority_of(r.event) as usize] += 1;
        }
    }
    counts
}

#[test]
fn priority_ordering_holds_at_every_intensity() {
    let models = fitted();
    let config = config();
    let policy = policy();
    for bursts in [3u32, 6, 10] {
        let (trace, _) =
            apply_scenario(&avalanche(bursts), &models, &config, &Registry::disabled())
                .expect("avalanche scenario");
        let (report, admitted) = apply(&trace, &policy);
        // Registration integrity is global: never shed, at any intensity.
        assert_eq!(
            report.shed[Priority::Critical as usize],
            0,
            "bursts={bursts}: registration traffic must never be shed by this policy"
        );
        // Shed fractions within the congested region [1740 s, 1920 s):
        // the admitted trace is a subsequence of the input, so per-class
        // window counts subtract cleanly.
        let lo = config.start.as_millis() + 1_740_000;
        let hi = config.start.as_millis() + 1_920_000;
        let offered = class_counts(&trace, lo, hi);
        let kept = class_counts(&admitted, lo, hi);
        let frac = |p: Priority| {
            let i = p as usize;
            (offered[i] - kept[i]) as f64 / offered[i].max(1) as f64
        };
        assert!(
            offered[Priority::Low as usize] > 0 && offered[Priority::High as usize] > 0,
            "bursts={bursts}: both classes must contend in the region"
        );
        let (low, high, critical) = (
            frac(Priority::Low),
            frac(Priority::High),
            frac(Priority::Critical),
        );
        assert!(
            low >= high && high >= critical,
            "bursts={bursts}: shed fractions out of order (low={low}, high={high}, critical={critical})"
        );
        assert!(
            low > 0.0,
            "bursts={bursts}: the avalanche must overload the bucket"
        );
    }
}
