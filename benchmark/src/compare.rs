//! `--compare A.jsonl B.jsonl`: do two sets of runs agree within the bounds
//! of `BENCHMARK.json`?
//!
//! A set is a `--record` file: one line per run. For every (end-to-end
//! metric, workload) pair the report gives each set's median and its spread
//! — the distance between the first and third quartile as a share of the
//! median, quartiles as Python's `statistics.quantiles(values, n=4)` — and
//! how much worse B's median is than A's. A pair *agrees* when both spreads
//! stay within the metric's bound (`setup_s` excepted: only its medians are
//! held) and B's median is not worse than A's by more than the bound. Used
//! for the run-to-run acceptance check (A and B the same commit) and for
//! parent-versus-change reports (A the parent).

use crate::harness::quartiles;
use crate::spec::Spec;
use crate::Recorded;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// `workload -> metric -> values` of a set's untraced runs.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = RunSet::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let run: Recorded =
            serde_json::from_str(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if run.traced {
            continue;
        }
        if !run.result.correct || run.result.failed > 0 {
            return Err(format!(
                "{}:{}: {} seed {} failed its checks; a failed run measures nothing",
                path.display(),
                n + 1,
                run.workload,
                run.seed
            ));
        }
        let metrics = set.entry(run.workload).or_default();
        for (name, metric) in run.result.metrics {
            metrics.entry(name).or_default().push(metric.value);
        }
    }
    Ok(set)
}

/// Median and interquartile spread as a share of the median.
fn summarize(values: &[f64]) -> (f64, f64) {
    let (q1, median, q3) = quartiles(values);
    (median, (q3 - q1) / median.abs())
}

pub fn compare(spec: &Spec, a: &Path, b: &Path) -> ExitCode {
    let (set_a, set_b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let empty = BTreeMap::new();
    let mut disagreements = 0;
    println!(
        "{:<14} {:<18} {:>14} {:>8} {:>4} {:>14} {:>8} {:>4} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "spread",
        "n",
        "median B",
        "spread",
        "n",
        "B worse",
        "bound"
    );
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let values = |set: &RunSet| -> Vec<f64> {
                set.get(&workload.name)
                    .unwrap_or(&empty)
                    .get(&metric.name)
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (values(&set_a), values(&set_b));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{:<14} {:<18} missing from {}",
                    workload.name,
                    metric.name,
                    if va.is_empty() { "A" } else { "B" }
                );
                disagreements += 1;
                continue;
            }
            let (med_a, spread_a) = summarize(&va);
            let (med_b, spread_b) = summarize(&vb);
            let worse = match metric.better.as_str() {
                "higher" => (med_a - med_b) / med_a.abs(),
                _ => (med_b - med_a) / med_a.abs(),
            };
            let spread_held =
                metric.name == "setup_s" || (spread_a <= metric.bound && spread_b <= metric.bound);
            let agrees = spread_held && worse <= metric.bound;
            if !agrees {
                disagreements += 1;
            }
            println!(
                "{:<14} {:<18} {:>14.4} {:>7.2}% {:>4} {:>14.4} {:>7.2}% {:>4} {:>7.2}% {:>5.0}%  {}",
                workload.name,
                metric.name,
                med_a,
                spread_a * 100.0,
                va.len(),
                med_b,
                spread_b * 100.0,
                vb.len(),
                worse * 100.0,
                metric.bound * 100.0,
                if agrees {
                    "agree"
                } else if !spread_held {
                    "SPREAD WIDER THAN BOUND"
                } else {
                    "B WORSE THAN BOUND"
                }
            );
        }
    }
    if disagreements == 0 {
        println!("every (end-to-end metric, workload) pair agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("{disagreements} (end-to-end metric, workload) pairs disagree");
        ExitCode::FAILURE
    }
}
