//! The closed-loop MCN gate: scenario engine → (live wire) → multi-NF
//! DES, with the numbers a capacity study would quote pinned in
//! `BENCH_mcn.json`.
//!
//! This module owns the pieces `mcn_check` assembles:
//!
//! * [`mcn_des_config`] — the canonical core-network shape the gate
//!   simulates: tight per-NF pools sized so the golden 40-UE workload's
//!   storm scenarios visibly congest them (nonzero shed, autoscaling
//!   events, measurable scaling lag) while the steady state clears;
//! * [`drive_des`] — feed any [`RecordSource`] through a [`DesSim`]:
//!   the same loop runs a batch `ScenarioStream` and a live TCP
//!   connection (`cn_live::LiveRecordSource`), which is what makes the
//!   closed-loop equivalence assertion possible at all;
//! * [`McnBench`] / [`check_bench_at`] — the pinned benchmark artifact:
//!   p99 latency, shed rate, and MME scaling lag per canonical
//!   scenario, compared *exactly* (the DES is deterministic) against
//!   the checked-in `BENCH_mcn.json`, re-blessable with
//!   `CN_MCN_BLESS=1`.

use std::path::{Path, PathBuf};

use cn_mcn::{
    AdmissionPolicy, AutoscalePolicy, DesConfig, DesError, DesReport, DesSim, NetworkFunction,
    NfConfig, TransactionMatrix,
};
use cn_stats::{Dist, LogNormal};
use cn_trace::{RecordSource, StreamError};
use serde::{Deserialize, Serialize};

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

/// The canonical core shape for the golden 40-UE workload.
///
/// Service medians are deliberately heavy (hundreds of milliseconds)
/// relative to the small golden population: the point of the gate is to
/// exercise the congestion machinery — the MME pool must breach its
/// watermark during the canonical storms (autoscaling + scaling-lag
/// numbers), and the admission bucket must actually shed (shed-rate
/// numbers) — while the steady state between storms clears completely.
pub fn mcn_des_config() -> DesConfig {
    let lognormal = |median_us: f64, sigma: f64| {
        Dist::LogNormal(LogNormal::from_median(median_us, sigma).expect("valid law"))
    };
    let pool = |nf, servers, service| NfConfig {
        nf,
        servers,
        service,
        autoscale: None,
    };
    DesConfig {
        seed: 0x4DC0_0001,
        nfs: vec![
            NfConfig {
                nf: NetworkFunction::Mme,
                servers: 1,
                service: lognormal(500_000.0, 0.5),
                autoscale: Some(AutoscalePolicy {
                    min_servers: 1,
                    max_servers: 6,
                    high_depth_per_server: 2.0,
                    low_depth_per_server: 0.5,
                    eval_every_ms: 1_000,
                    provision_ms: 1_500,
                }),
            },
            pool(NetworkFunction::Hss, 1, lognormal(450_000.0, 0.5)),
            pool(NetworkFunction::Pcrf, 1, lognormal(350_000.0, 0.5)),
            pool(NetworkFunction::Sgw, 1, lognormal(250_000.0, 0.4)),
            pool(NetworkFunction::Pgw, 1, lognormal(250_000.0, 0.4)),
        ],
        matrix: TransactionMatrix::default_epc(),
        admission: Some(AdmissionPolicy {
            rate_per_sec: 0.4,
            burst: 8.0,
            high_reserve: 0.3,
            critical_reserve: 0.1,
        }),
    }
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

/// One canonical scenario's pinned closed-loop numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McnScenarioBench {
    /// Scenario name (`flash-crowd`, `paging-storm`).
    pub scenario: String,
    /// Records the scenario stream offered the simulator.
    pub offered: u64,
    /// Procedures that ran their full dependency chain.
    pub completed: u64,
    /// Shed fraction of offered records — the headline admission number.
    pub shed_rate: f64,
    /// Shed per priority class (Critical, High, Low).
    pub shed: [u64; 3],
    /// 99th-percentile end-to-end procedure latency, ms — the headline
    /// latency number.
    pub p99_latency_ms: f64,
    /// Mean end-to-end latency, ms.
    pub mean_latency_ms: f64,
    /// Maximum end-to-end latency, ms.
    pub max_latency_ms: f64,
    /// MME servers that came online during the run.
    pub mme_scale_ups: u64,
    /// Worst MME breach-to-online scaling lag, ms — the headline
    /// autoscaling number.
    pub mme_max_scaling_lag_ms: u64,
    /// MME pool utilization over the capacity integral.
    pub mme_utilization: f64,
}

impl McnScenarioBench {
    /// Project a [`DesReport`] onto the pinned shape.
    pub fn from_report(scenario: &str, report: &DesReport) -> McnScenarioBench {
        let mme = report
            .per_nf
            .iter()
            .find(|n| n.nf == NetworkFunction::Mme)
            .expect("MME pool configured");
        McnScenarioBench {
            scenario: scenario.to_string(),
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

/// The `BENCH_mcn.json` artifact: one entry per canonical scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McnBench {
    /// Human description of the workload the numbers came from.
    pub workload: String,
    /// Per-scenario closed-loop numbers, in gate order.
    pub scenarios: Vec<McnScenarioBench>,
}

/// Location of the pinned benchmark, at the repository root next to
/// `BENCH_gen.json`, so every caller resolves the same file.
pub fn bench_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_mcn.json")
}

/// Compare `bench` against the pinned artifact, exactly — every number
/// in the file is a deterministic function of the golden seeds, so any
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
    use cn_trace::{DeviceType, EventType, Timestamp, TraceRecord, UeId};

    #[test]
    fn canonical_des_config_validates() {
        mcn_des_config().validate().unwrap();
    }

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
        let sim = DesSim::new(mcn_des_config()).expect("valid config");
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
        // ...and any drift fails with both sides rendered.
        let mut drifted = bench.clone();
        drifted.scenarios[0].p99_latency_ms += 0.001;
        let err = check_bench_at(&path, &drifted, false).unwrap_err();
        assert!(err.contains("drifted"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drive_des_is_deterministic() {
        let a = small_report();
        let b = small_report();
        assert_eq!(a, b);
    }
}
