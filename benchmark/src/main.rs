//! `cp-bench` — the one benchmark of the whole arc. See `README.md`.
//!
//! ```text
//! cp-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!          [--smoke] [--record FILE] [--trace-dir DIR]
//! cp-bench --compare A.jsonl B.jsonl
//! ```
//!
//! One run prints every metric of the chosen kind by name with its unit,
//! then — as the last line of standard output — one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0` (the
//! default) reports the end-to-end metrics of `BENCHMARK.json`, `--trace 1`
//! the per-layer metrics from a separate, staged run. Any failed self-check
//! makes `correct` false and the exit code non-zero.

mod compare;
mod harness;
mod live_paced;
mod run;
mod setup;
mod spec;
mod staging;
mod storm_des;
mod synth_ooc;
mod synth_week;

use run::{Options, Outcome};
use serde::{Deserialize, Serialize};
use setup::Scale;
use spec::Spec;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed the issue's sizing numbers were taken with.
const DEFAULT_SEED: u64 = 2023;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// The last line of a run's standard output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, MetricValue>,
}

/// One line of a `--record` file: a result with the run that produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Recorded {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub result: ResultLine,
}

fn usage() -> ! {
    eprintln!(
        "usage: cp-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--record FILE] [--trace-dir DIR]\n       cp-bench --compare A.jsonl B.jsonl"
    );
    std::process::exit(2)
}

fn run_workload(name: &str, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let run: fn(&Options, &mut Outcome) = match (name, opts.traced) {
        ("synth-week", false) => synth_week::end_to_end,
        ("synth-week", true) => synth_week::traced,
        ("synth-2m-ooc", false) => synth_ooc::end_to_end,
        ("synth-2m-ooc", true) => synth_ooc::traced,
        ("live-paced", false) => live_paced::end_to_end,
        ("live-paced", true) => live_paced::traced,
        ("storm-des", false) => storm_des::end_to_end,
        ("storm-des", true) => storm_des::traced,
        _ => unreachable!("workload names are checked against BENCHMARK.json"),
    };
    run(opts, &mut out);
    out
}

/// Print one workload's metrics and result line; true when it was correct.
fn report(spec: &Spec, name: &str, opts: &Options, record: Option<&PathBuf>) -> bool {
    let mut out = run_workload(name, opts);
    println!(
        "# {name}  seed {}  seconds {}  trace {}  cores {}{}",
        opts.seed,
        opts.seconds,
        u8::from(opts.traced),
        cn_gen::effective_parallelism(),
        if opts.scale.smoke { "  SMOKE" } else { "" }
    );
    for note in &out.notes {
        println!("#   {note}");
    }
    let mut metrics = BTreeMap::new();
    for (metric, unit) in spec.metrics(opts.traced) {
        // A per-layer metric of a layer this workload does not run reads 0.
        let measured = out.metrics.remove(metric);
        if measured.is_none() && !opts.traced {
            out.failures.push(format!("{metric} was not measured"));
        }
        let value = measured.unwrap_or(0.0);
        if !value.is_finite() {
            out.failures.push(format!("{metric} is not finite"));
        }
        let absent = if measured.is_none() {
            "  (layer not run)"
        } else {
            ""
        };
        println!("{metric:<34} {value:>20.4} {unit}{absent}");
        metrics.insert(
            metric.to_string(),
            MetricValue {
                value,
                unit: unit.to_string(),
            },
        );
    }
    for undeclared in out.metrics.keys() {
        out.failures
            .push(format!("{undeclared} is not declared in BENCHMARK.json"));
    }
    for failure in &out.failures {
        println!("FAILED CHECK: {failure}");
    }
    let result = ResultLine {
        correct: out.failures.is_empty(),
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics,
    };
    if let Some(path) = record {
        let line = serde_json::to_string(&Recorded {
            workload: name.to_string(),
            seed: opts.seed,
            traced: opts.traced,
            result: result.clone(),
        })
        .expect("a result renders as JSON");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
        writeln!(file, "{line}").unwrap_or_else(|e| panic!("append to {}: {e}", path.display()));
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("a result renders as JSON")
    );
    result.correct && result.failed == 0
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let mut workload: Option<String> = None;
    let mut record: Option<PathBuf> = None;
    let mut smoke = false;
    let mut opts = Options {
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds as f64,
        traced: false,
        scale: Scale { smoke: false },
        trace_dir: PathBuf::from(".bench_trace"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                opts.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--trace-dir" => opts.trace_dir = PathBuf::from(value()),
            "--record" => record = Some(PathBuf::from(value())),
            "--smoke" => smoke = true,
            "--compare" => {
                let (a, b) = (PathBuf::from(value()), PathBuf::from(value()));
                return compare::compare(&spec, &a, &b);
            }
            _ => usage(),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        usage();
    }
    if let Some(name) = &workload {
        if !spec.workloads.iter().any(|w| &w.name == name) {
            eprintln!(
                "unknown workload {name}; BENCHMARK.json has: {}",
                spec.workloads
                    .iter()
                    .map(|w| w.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            return ExitCode::from(2);
        }
    }

    let mut all_correct = true;
    let names = spec
        .workloads
        .iter()
        .map(|w| w.name.as_str())
        .filter(|n| workload.as_deref().is_none_or(|w| w == *n));
    if smoke {
        opts.scale = Scale { smoke: true };
        opts.seconds = opts.seconds.min(0.5);
    }
    // A smoke run does both kinds of run for every workload.
    let kinds = if smoke {
        vec![false, true]
    } else {
        vec![opts.traced]
    };
    for name in names {
        for &traced in &kinds {
            opts.traced = traced;
            all_correct &= report(&spec, name, &opts, record.as_ref());
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
