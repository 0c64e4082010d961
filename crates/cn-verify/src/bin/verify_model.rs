//! Deep verification run: round-trip recovery plus golden-trace gates.
//!
//! ```text
//! cargo run --release -p cn-verify --bin verify_model \
//!     [-- --quick] [--metrics obs.json]
//! ```
//!
//! Runs the same checks as the test suite but at population scale
//! (5,000 UEs over 12 simulated hours by default; `--quick` drops to the
//! unit-test scale). Exits non-zero when any claim fails, so the binary can
//! gate a release pipeline.
//!
//! `--metrics PATH` attaches a `cn-obs` registry for the whole run and
//! writes its snapshot to `PATH` on exit (pass **and** fail): stage wall
//! times land in the `cn_verify_{round_trip,golden}_ns` histograms, gate
//! verdicts in the `cn_verify_gate_ok{gate=...}` gauges, and the golden
//! sharded generation runs observed, so a failing K–S or hash gate leaves
//! behind the event ledger of the exact run that diverged (see
//! TESTING.md).

use cn_obs::{Registry, Span};
use cn_verify::{check_pinned, run_golden_observed, run_round_trip, GroundTruth, RoundTripConfig};

const USAGE: &str = "usage: verify_model [--quick] [--metrics PATH]";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut quick = false;
    let mut metrics: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--metrics" => match args.next() {
                Some(path) => metrics = Some(path),
                None => usage_error("--metrics needs a path"),
            },
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let registry = if metrics.is_some() {
        Registry::new()
    } else {
        Registry::disabled()
    };

    let gt = GroundTruth::standard(11);
    let cfg = if quick {
        RoundTripConfig::quick(911)
    } else {
        RoundTripConfig::deep(911)
    };

    let span = Span::start(&registry, "cn_verify_round_trip_ns");
    let rt = run_round_trip(&gt, &cfg);
    span.finish();
    print!("{}", rt.report.render());
    if !rt.rejection_histogram.is_empty() {
        println!("rejections:");
        for (what, n) in &rt.rejection_histogram {
            println!("  {n:>6}  {what}");
        }
    }

    let span = Span::start(&registry, "cn_verify_golden_ns");
    let golden = run_golden_observed(&gt.set, &cn_verify::golden::standard_config(), &registry);
    span.finish();
    print!("{}", golden.render());
    let pinned_ok = match golden.hash() {
        Some(hash) => match check_pinned("standard-v1", hash) {
            Ok(()) => {
                println!("pinned hash matches");
                true
            }
            Err(e) => {
                println!("{e}");
                false
            }
        },
        None => false,
    };

    let gates: [(&str, bool); 3] = [
        ("round_trip", rt.all_pass()),
        ("golden_consistent", golden.consistent),
        ("golden_pinned", pinned_ok),
    ];
    for (gate, ok) in gates {
        registry
            .gauge_with("cn_verify_gate_ok", &[("gate", gate)])
            .set(u64::from(ok));
    }
    if let Some(path) = &metrics {
        std::fs::write(path, registry.snapshot().to_json()).expect("write metrics snapshot");
        eprintln!("wrote metrics snapshot to {path}");
    }

    if gates.iter().all(|&(_, ok)| ok) {
        println!("verify_model: all gates hold");
    } else {
        println!("verify_model: FAILURES (see above)");
        std::process::exit(1);
    }
}
