//! The DES pinned at scale.
//!
//! `BENCH_mcn.json`'s two scenarios run 40 UEs against half-second
//! service medians: almost every latency there is above a second. This
//! test pins one report three orders of magnitude busier — 2 000 UEs over
//! 6 h with one storm block (flash crowd, outage + TAU flood, paging
//! storm, M2M fleet) through an autoscaling, admission-guarded EPC whose
//! end-to-end latencies run from tens of milliseconds to tens of seconds —
//! so a change to the simulator's bookkeeping is held to a report whose
//! latency percentiles, utilizations and scaling lags all carry weight.
//!
//! The pin is the FNV-1a-64 of the report's JSON rendering (every field,
//! floats at full precision) plus the conservation counts. The DES is a
//! pure function of the seeds, so any drift is a behavior change: fix it,
//! or re-pin deliberately by pasting the values the failure prints.

use cn_gen::{GenConfig, ShardedStream};
use cn_mcn::{AdmissionPolicy, DesConfig, DesSim};
use cn_obs::Registry;
use cn_scenario::{
    Phase, PhaseKind, ScenarioSpec, ScenarioStream, StormKind, TimeWindow, UeSubset,
};
use cn_trace::{DeviceType, PopulationMix, Timestamp};
use cn_verify::{drive_des, fnv1a64, GroundTruth};

// Blessed on the store-and-sort simulator (the commit before the latency
// tallies replaced it), so the rewrite is held to the old code's report.
const PIN_REPORT_FNV64: u64 = 0x86b9_3e3b_d63f_9b90;
const PIN_OFFERED: u64 = 268_337;
const PIN_COMPLETED: u64 = 262_746;
const PIN_SHED: [u64; 3] = [0, 0, 5_591];

fn gen_config() -> GenConfig {
    GenConfig::new(
        PopulationMix::new(1_250, 500, 250),
        Timestamp::at_hour(0, 6),
        6.0,
        0x5CA1_E000,
    )
}

/// One storm block over the 2 000-UE population, all inside the 6 h run.
fn storm_block() -> ScenarioSpec {
    let phase = |name: &str, start_h: f64, duration_s: f64, kind: PhaseKind| Phase {
        name: name.into(),
        window: TimeWindow::new(start_h * 3600.0, duration_s),
        kind,
    };
    let spec = ScenarioSpec {
        name: "scale-storm".into(),
        seed: 0x5CA1_E001,
        phases: vec![
            phase(
                "flash-crowd",
                1.0,
                600.0,
                PhaseKind::FlashCrowd {
                    ues: UeSubset::new(0, 400),
                    waves: 4,
                    handovers_per_ue: 2,
                },
            ),
            phase(
                "outage",
                2.0,
                1_800.0,
                PhaseKind::Outage {
                    ues: UeSubset::new(400, 1_000),
                },
            ),
            phase(
                "tau-flood",
                2.5,
                300.0,
                PhaseKind::SignalingStorm {
                    ues: UeSubset::new(400, 1_000),
                    kind: StormKind::TauFlood,
                    bursts_per_ue: 3,
                },
            ),
            phase(
                "paging-storm",
                3.5,
                600.0,
                PhaseKind::SignalingStorm {
                    ues: UeSubset::new(0, 800),
                    kind: StormKind::Paging,
                    bursts_per_ue: 4,
                },
            ),
            phase(
                "m2m-reporting",
                4.5,
                3_600.0,
                PhaseKind::M2mReporting {
                    ues: UeSubset::new(1_750, 1_950),
                    period_s: 60.0,
                    device: DeviceType::Tablet,
                },
            ),
        ],
    };
    spec.validate().expect("disjoint phases");
    spec
}

/// `default_epc` slowed until 2 000 UEs load it: service medians of
/// 60–110 ms put a three-stage service request near a quarter second and
/// a queued attach well past one — the report's latencies straddle
/// 2^20 µs by construction.
fn des_config() -> DesConfig {
    let mut config = DesConfig::default_epc(0x5CA1_E002);
    for nf in &mut config.nfs {
        nf.service = nf.service.scale_values(250.0);
    }
    config.with_admission(AdmissionPolicy {
        rate_per_sec: 20.0,
        burst: 240.0,
        high_reserve: 0.3,
        critical_reserve: 0.1,
    })
}

#[test]
fn des_report_at_scale_matches_its_pin() {
    let gt = GroundTruth::standard(11);
    let config = gen_config();
    let spec = storm_block();
    let stream = ScenarioStream::new(
        &spec,
        &config,
        ShardedStream::new(&gt.set, &config),
        &Registry::disabled(),
    )
    .expect("valid scenario spec");
    let sim = DesSim::new(des_config()).expect("valid DES config");
    let (report, records) = drive_des(sim, stream).expect("clean run");

    assert_eq!(report.offered, records);
    assert_eq!(report.offered, report.completed + report.total_shed());
    // The workload must keep exercising what it was chosen for.
    let boundary_ms = (1u64 << 20) as f64 / 1_000.0;
    assert!(
        report.p50_latency_ms < boundary_ms && report.p99_latency_ms > boundary_ms,
        "latencies no longer straddle 2^20 us: p50 {} p99 {}",
        report.p50_latency_ms,
        report.p99_latency_ms
    );
    assert!(report.total_shed() > 0, "the storms no longer shed");
    assert!(
        report.per_nf.iter().any(|nf| nf.scale_ups > 0),
        "the storms no longer trigger autoscaling"
    );

    let rendered = serde_json::to_string(&report).expect("a report renders as JSON");
    let measured = (
        fnv1a64(rendered.as_bytes()),
        report.offered,
        report.completed,
        report.shed,
    );
    assert_eq!(
        measured,
        (PIN_REPORT_FNV64, PIN_OFFERED, PIN_COMPLETED, PIN_SHED),
        "DES report drifted from its pin (fnv64, offered, completed, shed).\n{rendered}"
    );
}
