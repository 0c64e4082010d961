//! The closed-loop MCN gate: scenario engine → (live wire) → multi-NF
//! DES, with the numbers a capacity study would quote pinned in
//! `BENCH_mcn.json` — the repository's one DES pin.
//!
//! This module owns the pieces `mcn_check` and `tests/des_scale.rs`
//! assemble:
//!
//! * [`gen_config`], [`storm_block`], [`des_config`] — the pinned
//!   workload: 2 000 UEs over 6 h with one storm block (flash crowd,
//!   outage + TAU flood, paging storm, M2M fleet) through an autoscaling,
//!   admission-guarded EPC whose end-to-end latencies run from tens of
//!   milliseconds to tens of seconds, so the report's latency percentiles,
//!   utilizations and scaling lags all carry weight;
//! * [`drive_des`] — feed any [`RecordSource`] through a [`DesSim`]:
//!   the same loop runs a batch `ScenarioStream` and a live TCP
//!   connection (`cn_live::LiveRecordSource`), which is what makes the
//!   closed-loop equivalence assertion possible at all;
//! * [`McnBench`] / [`check_bench_at`] — the pinned artifact: the
//!   FNV-1a-64 of the whole report plus the conservation counts, p99
//!   latency, shed rate and MME scaling lag, compared *exactly* (the DES
//!   is deterministic) against the checked-in `BENCH_mcn.json`,
//!   re-blessable with `CN_MCN_BLESS=1`.

use std::path::{Path, PathBuf};

use cn_gen::GenConfig;
use cn_mcn::{AdmissionPolicy, DesConfig, DesError, DesReport, DesSim, NetworkFunction};
use cn_scenario::{Phase, PhaseKind, ScenarioSpec, StormKind, TimeWindow, UeSubset};
use cn_trace::{DeviceType, PopulationMix, RecordSource, StreamError, Timestamp};
use serde::{Deserialize, Serialize};

use crate::golden::fnv1a64;

/// A closed-loop run failed: either the record stream broke or the
/// simulator rejected its input.
#[derive(Debug, Clone, PartialEq)]
pub enum McnError {
    /// The source stream surfaced a typed fault (worker panic, consumer
    /// lag, wire corruption).
    Stream(StreamError),
    /// The simulator rejected the configuration or the input ordering.
    Des(DesError),
}

impl std::fmt::Display for McnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McnError::Stream(e) => write!(f, "record stream failed: {e}"),
            McnError::Des(e) => write!(f, "DES rejected input: {e}"),
        }
    }
}

impl std::error::Error for McnError {}

impl From<StreamError> for McnError {
    fn from(e: StreamError) -> Self {
        McnError::Stream(e)
    }
}

/// The pinned workload's population: 2 000 UEs over 6 h from 06:00.
pub fn gen_config() -> GenConfig {
    GenConfig::new(
        PopulationMix::new(1_250, 500, 250),
        Timestamp::at_hour(0, 6),
        6.0,
        0x5CA1_E000,
    )
}

/// One storm block over the 2 000-UE population, all inside the 6 h run.
pub fn storm_block() -> ScenarioSpec {
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
pub fn des_config() -> DesConfig {
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

/// Feed every record of `source` through `sim` and finish both sides.
/// Returns the report and the record count. The same loop drives a batch
/// `ScenarioStream` and a live `LiveRecordSource` — the closed-loop gate
/// asserts the two produce identical reports.
pub fn drive_des<S: RecordSource>(
    mut sim: DesSim,
    source: S,
) -> Result<(DesReport, u64), McnError> {
    let mut records = 0u64;
    source.drain(|rec| {
        records += 1;
        sim.offer(&rec).map_err(McnError::Des)
    })?;
    Ok((sim.finish(), records))
}

/// One scenario's pinned closed-loop numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McnScenarioBench {
    /// Scenario name (`scale-storm`).
    pub(crate) scenario: String,
    /// FNV-1a-64 of the report's JSON rendering — every field, floats at
    /// full precision — as `0x…`, the form `golden/hashes.json` uses.
    pub(crate) report_fnv64: String,
    /// Records the scenario stream offered the simulator.
    pub(crate) offered: u64,
    /// Procedures that ran their full dependency chain.
    pub(crate) completed: u64,
    /// Shed fraction of offered records — the headline admission number.
    pub(crate) shed_rate: f64,
    /// Shed per priority class (Critical, High, Low).
    pub(crate) shed: [u64; 3],
    /// 99th-percentile end-to-end procedure latency, ms — the headline
    /// latency number.
    pub(crate) p99_latency_ms: f64,
    /// Mean end-to-end latency, ms.
    pub(crate) mean_latency_ms: f64,
    /// Maximum end-to-end latency, ms.
    pub(crate) max_latency_ms: f64,
    /// MME servers that came online during the run.
    pub(crate) mme_scale_ups: u64,
    /// Worst MME breach-to-online scaling lag, ms — the headline
    /// autoscaling number.
    pub(crate) mme_max_scaling_lag_ms: u64,
    /// MME pool utilization over the capacity integral.
    pub(crate) mme_utilization: f64,
}

impl McnScenarioBench {
    /// Project a [`DesReport`] onto the pinned shape.
    pub(crate) fn from_report(scenario: &str, report: &DesReport) -> McnScenarioBench {
        let mme = report
            .per_nf
            .iter()
            .find(|n| n.nf == NetworkFunction::Mme)
            .expect("MME pool configured");
        let rendered = serde_json::to_string(report).expect("a report renders as JSON");
        McnScenarioBench {
            scenario: scenario.to_string(),
            report_fnv64: format!("{:#018x}", fnv1a64(rendered.as_bytes())),
            offered: report.offered,
            completed: report.completed,
            shed_rate: report.shed_rate,
            shed: report.shed,
            p99_latency_ms: report.p99_latency_ms,
            mean_latency_ms: report.mean_latency_ms,
            max_latency_ms: report.max_latency_ms,
            mme_scale_ups: mme.scale_ups,
            mme_max_scaling_lag_ms: mme.max_scaling_lag_ms,
            mme_utilization: mme.utilization,
        }
    }
}

/// The `BENCH_mcn.json` artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McnBench {
    /// Human description of the workload the numbers came from.
    pub(crate) workload: String,
    /// Per-scenario closed-loop numbers.
    pub(crate) scenarios: Vec<McnScenarioBench>,
}

impl McnBench {
    /// The artifact for `report`, the pinned workload's batch-path report
    /// ([`gen_config`] × [`storm_block`] through [`des_config`]).
    pub fn of_storm_block(report: &DesReport) -> McnBench {
        let (config, spec) = (gen_config(), storm_block());
        McnBench {
            workload: format!(
                "GroundTruth::standard(11) x mcn::gen_config() ({} UEs, {}h) x mcn::storm_block(), \
                 DES mcn::des_config()",
                config.population.total(),
                config.duration_hours,
            ),
            scenarios: vec![McnScenarioBench::from_report(&spec.name, report)],
        }
    }
}

/// Location of the pinned benchmark, at the repository root, so every
/// caller resolves the same file.
pub fn bench_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_mcn.json")
}

/// Compare `bench` against the pinned artifact, exactly — every number
/// in the file is a deterministic function of the workload's seeds, so any
/// drift is a behavior change, not noise. With `bless`, the pin is
/// rewritten instead and the check passes.
pub fn check_bench_at(path: &Path, bench: &McnBench, bless: bool) -> Result<(), String> {
    let json = serde_json::to_string_pretty(bench).map_err(|e| e.to_string())? + "\n";
    if bless {
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        return Ok(());
    }
    let pinned_raw = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "no pinned MCN benchmark at {}: {e}. Run once with CN_MCN_BLESS=1 to record it.",
            path.display()
        )
    })?;
    let pinned: McnBench = serde_json::from_str(&pinned_raw)
        .map_err(|e| format!("pinned MCN benchmark unreadable: {e}"))?;
    if pinned == *bench {
        Ok(())
    } else {
        Err(format!(
            "MCN benchmark drifted from the pin in {}.\n--- pinned ---\n{}\n--- measured ---\n{json}\
             If the change is intentional, re-bless with CN_MCN_BLESS=1 (see TESTING.md).",
            path.display(),
            serde_json::to_string_pretty(&pinned).unwrap_or_default(),
        ))
    }
}

/// [`check_bench_at`] against [`bench_path`], blessing on `CN_MCN_BLESS`.
pub fn check_bench(bench: &McnBench) -> Result<(), String> {
    check_bench_at(
        &bench_path(),
        bench,
        std::env::var_os("CN_MCN_BLESS").is_some(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_scenario::IterSource;
    use cn_trace::{EventType, TraceRecord, UeId};

    fn small_report() -> DesReport {
        let records: Vec<TraceRecord> = (0..40u64)
            .map(|i| {
                TraceRecord::new(
                    Timestamp::from_millis(i * 250),
                    UeId((i % 8) as u32),
                    DeviceType::Phone,
                    EventType::ServiceRequest,
                )
            })
            .collect();
        let sim = DesSim::new(des_config()).expect("valid config");
        let (report, n) = drive_des(sim, IterSource(records.into_iter())).expect("clean run");
        assert_eq!(n, 40);
        report
    }

    #[test]
    fn bench_round_trips_and_pins_exactly() {
        let bench = McnBench {
            workload: "test".into(),
            scenarios: vec![McnScenarioBench::from_report("small", &small_report())],
        };
        let dir = std::env::temp_dir().join(format!("cn-mcn-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_mcn.json");
        // Missing pin fails closed.
        assert!(check_bench_at(&path, &bench, false).is_err());
        // Bless, then the same numbers pass...
        check_bench_at(&path, &bench, true).unwrap();
        check_bench_at(&path, &bench, false).unwrap();
        // ...and any drift fails with both sides rendered: a projected
        // number, or the full-report hash alone (it covers the fields the
        // projection leaves out).
        let mut slower = bench.clone();
        slower.scenarios[0].p99_latency_ms += 0.001;
        let mut rehashed = bench.clone();
        rehashed.scenarios[0].report_fnv64 = "0x0000000000000000".into();
        for drifted in [slower, rehashed] {
            let err = check_bench_at(&path, &drifted, false).unwrap_err();
            assert!(err.contains("drifted"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drive_des_is_deterministic() {
        let a = small_report();
        let b = small_report();
        assert_eq!(a, b);
    }
}
