//! Closed-loop multi-NF core-simulator gate.
//!
//! ```text
//! cargo run --release -p cn-verify --bin mcn_check \
//!     [-- --metrics mcn_obs.json] [--trace mcn_trace.json] [--bench BENCH_mcn.json]
//! ```
//!
//! Drives the canonical golden scenarios through the `cn-mcn`
//! discrete-event core simulator and gates on four properties:
//!
//! * **golden pins untouched** — the steady-state `standard-v1` pin and
//!   both canonical scenario pins still match; the workload feeding the
//!   simulator is byte-for-byte the one the scenario gate blessed;
//! * **seed determinism** — running the DES twice over the same trace
//!   (once observed, once blind) produces identical reports, field for
//!   field, floats included;
//! * **closed loop** — serving the scenario through `cn-live` over real
//!   TCP at 3600x compression and feeding the consumer side of the wire
//!   into the DES reproduces the batch-path report exactly. The whole
//!   generate → serve → simulate pipeline is one deterministic function
//!   of the seeds;
//! * **benchmark pin** — the capacity numbers (p99 latency, shed rate,
//!   MME scaling lag, utilization) match `BENCH_mcn.json` exactly.
//!   Re-bless intentional changes with `CN_MCN_BLESS=1`.
//!
//! `--metrics PATH` writes a `cn-obs` snapshot including the
//! `cn_mcn_des_*` family from the gated runs. `--trace PATH` writes the
//! Chrome trace-event JSON (Perfetto-loadable) of the run's stage spans:
//! each batch run is one `cn_mcn_des_run` with its drain-and-report time
//! as the `cn_mcn_des_finish` child. `--bench PATH` overrides
//! the pinned benchmark location (the default is the repo-root
//! `BENCH_mcn.json`). Exits non-zero when any gate fails.

use std::net::{SocketAddr, TcpStream};
use std::path::Path;

use cn_gen::ShardedStream;
use cn_live::{LiveConfig, LiveRecordSource, LiveServer, SystemClock};
use cn_mcn::{DesReport, DesSim};
use cn_obs::{Registry, Span, TraceSink};
use cn_scenario::{ScenarioSpec, ScenarioStream};
use cn_trace::{RecordSource, Trace};
use cn_verify::{
    check_bench_at, check_pinned, drive_des, flash_crowd_spec, identity_spec, mcn_des_config,
    paging_storm_spec, trace_hash, GroundTruth, McnBench, McnError, McnScenarioBench,
    PIN_FLASH_CROWD, PIN_IDENTITY, PIN_PAGING_STORM,
};

/// One trace hour per wall second, matching `live_check`.
const COMPRESSION: f64 = 3600.0;

/// Collect a scenario's full trace through the batch engine.
fn scenario_trace(gt: &GroundTruth, config: &cn_gen::GenConfig, spec: &ScenarioSpec) -> Trace {
    let stream = ScenarioStream::new(
        spec,
        config,
        ShardedStream::new(&gt.set, config),
        &Registry::disabled(),
    )
    .expect("valid scenario spec");
    let (trace, _stats) = stream.collect_trace().expect("batch scenario stream");
    trace
}

fn await_consumers(server: &LiveServer<SystemClock>, n: usize) {
    for _ in 0..10_000 {
        if server.hub().consumer_count() >= n {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    panic!("consumer never attached to the live server");
}

/// Serve the scenario over TCP and run the DES on the consumer side of
/// the wire: generate → pace → frame → TCP → decode → simulate, one
/// process boundary short of the production deployment.
fn closed_loop_report(
    gt: &GroundTruth,
    config: &cn_gen::GenConfig,
    spec: &ScenarioSpec,
) -> (DesReport, u64) {
    let mut cfg = LiveConfig::new(COMPRESSION);
    cfg.queue_frames = 1 << 16;
    let server =
        LiveServer::new(SystemClock::new(), cfg, &Registry::disabled()).expect("server config");
    let addr: SocketAddr = server.bind("127.0.0.1:0").expect("bind localhost");

    let consumer = std::thread::spawn(move || -> Result<(DesReport, u64), McnError> {
        let stream = TcpStream::connect(addr).expect("connect to live server");
        let source = LiveRecordSource::new(stream, 0).expect("live stream header");
        let sim = DesSim::new(mcn_des_config()).expect("valid DES config");
        drive_des(sim, source)
    });
    await_consumers(&server, 1);

    let source = ScenarioStream::new(
        spec,
        config,
        ShardedStream::new(&gt.set, config),
        &Registry::disabled(),
    )
    .expect("valid scenario spec");
    let report = server.serve(source, 0, None).expect("serve");
    report.consumers[0]
        .as_ref()
        .expect("consumer writer")
        .verdict()
        .expect("consumer lagged: bounded queue overflowed during the gate");

    consumer
        .join()
        .expect("consumer thread")
        .expect("closed-loop DES run")
}

fn main() {
    let mut metrics: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut bench_override: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--metrics" => metrics = Some(args.next().expect("--metrics needs a path")),
            "--trace" => trace_out = Some(args.next().expect("--trace needs a path")),
            "--bench" => bench_override = Some(args.next().expect("--bench needs a path")),
            other => panic!("unknown argument: {other}"),
        }
    }
    let registry = if metrics.is_some() {
        Registry::new()
    } else {
        Registry::disabled()
    };

    let sink = TraceSink::new();
    if trace_out.is_some() {
        cn_obs::trace::install_global(&sink);
    }

    let gt = GroundTruth::standard(11);
    let config = cn_verify::golden::standard_config();
    let mut all_ok = true;
    let mut gate = |registry: &Registry, name: &str, ok: bool| {
        registry
            .gauge_with("cn_verify_gate_ok", &[("gate", name)])
            .set(u64::from(ok));
        all_ok &= ok;
    };

    // Gate 1: the golden workload is untouched — steady-state pin plus
    // both canonical storm scenarios.
    let mut storm_traces: Vec<(&'static str, ScenarioSpec, Trace)> = Vec::new();
    for (key, spec) in [
        (PIN_IDENTITY, identity_spec()),
        (PIN_FLASH_CROWD, flash_crowd_spec()),
        (PIN_PAGING_STORM, paging_storm_spec()),
    ] {
        let trace = scenario_trace(&gt, &config, &spec);
        let ok = match check_pinned(key, trace_hash(&trace)) {
            Ok(()) => {
                println!("mcn_check: pin {key} holds ({} records)", trace.len());
                true
            }
            Err(e) => {
                println!("mcn_check: pin {key} FAILED: {e}");
                false
            }
        };
        gate(&registry, key, ok);
        if key != PIN_IDENTITY {
            storm_traces.push((key, spec, trace));
        }
    }

    // Gates 2+3 per storm scenario: determinism and the closed loop.
    let mut bench = McnBench {
        workload: format!(
            "GroundTruth::standard(11) x standard_config ({} UEs, {}h), DES mcn_des_config()",
            config.population.total(),
            config.duration_hours,
        ),
        scenarios: Vec::new(),
    };
    for (key, spec, trace) in &storm_traces {
        let span = Span::start(&registry, "cn_verify_mcn_ns");
        let direct =
            DesSim::run_trace(mcn_des_config(), trace, &registry).expect("valid DES config");
        let rerun = DesSim::run_trace(mcn_des_config(), trace, &Registry::disabled())
            .expect("valid DES config");
        span.finish();
        let deterministic = direct == rerun;
        if !deterministic {
            println!(
                "mcn_check: DES rerun DIVERGED on {} — not seed-deterministic",
                spec.name
            );
        }
        gate(
            &registry,
            &format!("mcn-determinism-{}", spec.name),
            deterministic,
        );

        let (live, live_records) = closed_loop_report(&gt, &config, spec);
        let closed = live == direct && live_records == trace.len() as u64;
        if closed {
            println!(
                "mcn_check: closed loop over {} matches the batch path \
                 ({} records, p99 {:.3} ms, shed rate {:.4})",
                spec.name, live_records, direct.p99_latency_ms, direct.shed_rate
            );
        } else {
            println!(
                "mcn_check: closed loop DIVERGED on {} ({} wire records vs {} batch)",
                spec.name,
                live_records,
                trace.len()
            );
        }
        gate(&registry, &format!("mcn-closed-loop-{}", spec.name), closed);

        let name = key
            .strip_prefix("scenario-")
            .and_then(|s| s.strip_suffix("-v1"))
            .unwrap_or(spec.name.as_str());
        bench
            .scenarios
            .push(McnScenarioBench::from_report(name, &direct));
    }

    // Gate 4: the capacity numbers match the pinned benchmark exactly.
    let bless = std::env::var_os("CN_MCN_BLESS").is_some();
    let bench_result = match &bench_override {
        Some(path) => check_bench_at(Path::new(path), &bench, bless),
        None => check_bench_at(&cn_verify::mcn::bench_path(), &bench, bless),
    };
    let bench_ok = match bench_result {
        Ok(()) => {
            println!(
                "mcn_check: benchmark pin {} ({} scenarios)",
                if bless { "re-blessed" } else { "holds" },
                bench.scenarios.len()
            );
            true
        }
        Err(e) => {
            println!("mcn_check: {e}");
            false
        }
    };
    gate(&registry, "mcn-bench", bench_ok);

    if let Some(path) = &metrics {
        std::fs::write(path, registry.snapshot().to_json()).expect("write metrics snapshot");
        eprintln!("wrote metrics snapshot to {path}");
    }
    if let Some(path) = &trace_out {
        std::fs::write(path, sink.to_chrome_json()).expect("write trace JSON");
        eprintln!("wrote {path} ({} spans)", sink.len());
        cn_obs::trace::clear_global();
    }

    if all_ok {
        println!("mcn_check: all gates hold");
    } else {
        println!("mcn_check: FAILURES (see above)");
        std::process::exit(1);
    }
}
