//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [OPTIONS] <EXPERIMENT>...
//!
//! EXPERIMENTS
//!     table1 fig2 fig3 fig4 table2 table3 table4 table5 table6 table7
//!     table8 table9 table10 table11 fig7 fidelity all
//!
//! OPTIONS
//!     --scale quick|default|paper   lab scale (default: default)
//!     --seed N                      override the master seed
//!     --format text|markdown|csv    output format (default: text)
//!     --out FILE                    write tables to FILE instead of stdout
//! ```
//!
//! Exits 0 on success, 1 when the output cannot be created or written or
//! `fidelity` cannot read `BENCH_fidelity.json`, 2 on a usage error and 3
//! when `fidelity` finds a number outside its committed interval (the key
//! read is the scale's).

use cn_trace::{DeviceType, EventType};
use cn_verify::experiments;
use cn_verify::lab::{scale_summary, Scenario};
use cn_verify::{ExperimentConfig, Lab, Table};
use std::io::{self, Write};
use std::process::ExitCode;

const USAGE: &str = "usage: repro [--scale quick|default|paper] [--seed N] [--format text|markdown|csv] [--out FILE] <experiment>...
experiments: table1 fig2 fig3 fig4 table2 table3 table4 table5 table6 table7
             table8 table9 table9x table10 table11 fig7 diurnal generalize holdout summary fidelity dot ablations all";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = "default".to_string();
    let mut seed: Option<u64> = None;
    let mut format = Format::Text;
    let mut out_path: Option<String> = None;
    let mut experiments_requested: Vec<String> = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next() {
                Some(s) => scale = s,
                None => return usage_error("--scale needs a value"),
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = Some(s),
                None => return usage_error("--seed needs an integer"),
            },
            "--format" => match it.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("markdown") => format = Format::Markdown,
                Some("csv") => format = Format::Csv,
                _ => return usage_error("--format needs text|markdown|csv"),
            },
            "--out" => match it.next() {
                Some(path) => out_path = Some(path),
                None => return usage_error("--out needs a path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown option `{other}`"));
            }
            exp => experiments_requested.push(exp.to_string()),
        }
    }
    if experiments_requested.is_empty() {
        return usage_error("no experiment given");
    }

    let mut cfg = match scale.as_str() {
        "quick" => ExperimentConfig::quick(),
        "default" => ExperimentConfig::default_scale(),
        "paper" => ExperimentConfig::paper_scale(),
        other => return usage_error(&format!("unknown scale `{other}`")),
    };
    if let Some(s) = seed {
        cfg.seed = s;
    }
    let lab = Lab::new(cfg);
    let mut sink: Box<dyn Write> = match &out_path {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Box::new(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("error: cannot create {path}: {e}");
                return ExitCode::from(1);
            }
        },
        None => Box::new(std::io::stdout()),
    };
    match run(&lab, &scale, &experiments_requested, format, &mut sink) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: cannot write output: {e}");
            ExitCode::from(1)
        }
    }
}

/// Write the scale summary and every requested experiment to `sink`. An
/// unknown experiment is a usage error; a failed write or flush is `Err`.
fn run(
    lab: &Lab,
    scale: &str,
    experiments_requested: &[String],
    format: Format,
    sink: &mut dyn Write,
) -> io::Result<ExitCode> {
    writeln!(sink, "{}", render(&scale_summary(&lab.cfg), format))?;

    for exp in experiments_requested {
        let tables: Vec<Table> = match exp.as_str() {
            "table1" => vec![experiments::table1(lab)],
            "fig2" => {
                let mut v = vec![experiments::fig2_summary(lab)];
                for device in DeviceType::ALL {
                    for event in [
                        EventType::ServiceRequest,
                        EventType::S1ConnRelease,
                        EventType::Handover,
                        EventType::Tau,
                    ] {
                        v.push(experiments::fig2(lab, device, event));
                    }
                }
                v
            }
            "fig3" => vec![
                experiments::fig3(lab, DeviceType::Phone),
                experiments::fig3_hurst(lab),
            ],
            "fig4" => vec![experiments::fig4(lab, DeviceType::Phone)],
            "table2" => vec![experiments::table2()],
            "table3" => vec![experiments::table3()],
            "table4" => vec![experiments::table4(lab, Scenario::Two)],
            "table11" => vec![experiments::table4(lab, Scenario::One)],
            "table5" => vec![experiments::table5(lab)],
            "table6" => vec![experiments::table6(lab)],
            "table7" => vec![experiments::table7(lab)],
            "table8" => vec![experiments::table8or9(lab, false)],
            "table9" => vec![experiments::table8or9(lab, true)],
            "table10" => vec![experiments::table10(lab)],
            "table9x" => vec![experiments::table9_extended(lab)],
            "fig7" => experiments::fig7(lab),
            "diurnal" => vec![experiments::diurnal_fidelity(lab)],
            "generalize" => vec![cn_verify::generalize::generalizability(
                lab.cfg.seed,
                (lab.cfg.model_mix.total() / 12).max(10),
            )],
            "holdout" => vec![cn_verify::generalize::holdout(
                lab.world(),
                lab.cfg.busy_hour,
                lab.cfg.seed,
            )],
            "fidelity" => {
                let report = cn_verify::fidelity(lab, scale);
                let Ok((table, all_hold)) = report.inspect_err(|e| eprintln!("error: {e}")) else {
                    return Ok(ExitCode::from(1));
                };
                writeln!(sink, "{}", render(&table, format))?;
                if !all_hold {
                    sink.flush()?;
                    return Ok(ExitCode::from(3));
                }
                continue;
            }
            "summary" => {
                let world = lab.world();
                writeln!(sink, "world: {}\n", cn_trace::TraceSummary::of(world))?;
                let inv = cn_fit::inspect::inventory(lab.models(cn_fit::Method::Ours));
                writeln!(
                    sink,
                    "models (Ours): {} cluster-hour models ({} empty), \
                     clusters/hour P/CC/T = {:.0}/{:.0}/{:.0}, \
                     top coverage {:.0}%, first-event coverage {:.0}%",
                    inv.total_models,
                    inv.empty_models,
                    inv.mean_clusters_per_hour[0],
                    inv.mean_clusters_per_hour[1],
                    inv.mean_clusters_per_hour[2],
                    inv.top_coverage * 100.0,
                    inv.first_event_coverage * 100.0,
                )?;
                continue;
            }
            "dot" => {
                writeln!(sink, "{}", cn_statemachine::dot::two_level_dot())?;
                writeln!(sink, "{}", cn_statemachine::dot::fiveg_sa_dot())?;
                continue;
            }
            "ablations" => cn_verify::ablation::all(lab),
            "all" => {
                let mut v = experiments::all(lab);
                v.extend(cn_verify::ablation::all(lab));
                v.push(cn_verify::generalize::generalizability(
                    lab.cfg.seed,
                    (lab.cfg.model_mix.total() / 12).max(10),
                ));
                v
            }
            other => return Ok(usage_error(&format!("unknown experiment `{other}`"))),
        };
        for t in tables {
            writeln!(sink, "{}", render(&t, format))?;
        }
    }
    sink.flush()?;
    Ok(ExitCode::SUCCESS)
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Markdown,
    Csv,
}

fn render(t: &Table, format: Format) -> String {
    match format {
        Format::Text => t.render(),
        Format::Markdown => t.render_markdown(),
        Format::Csv => t.render_csv(),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}
