//! Closed-loop multi-NF core-simulator gate.
//!
//! ```text
//! cargo run --release -p cn-verify --bin mcn_check \
//!     [-- --metrics mcn_obs.json] [--trace mcn_trace.json] [--bench BENCH_mcn.json]
//! ```
//!
//! Drives the pinned storm workload (`cn_verify::mcn`: 2 000 UEs over
//! 6 h, one storm block, an autoscaling admission-guarded EPC) through the
//! `cn-mcn` discrete-event core simulator and gates on three properties:
//!
//! * **seed determinism** — running the DES twice over the same trace
//!   (once observed, once blind) produces identical reports, field for
//!   field, floats included;
//! * **closed loop** — serving the scenario through `cn-live` over real
//!   TCP at 3600x compression and feeding the consumer side of the wire
//!   into the DES reproduces the batch-path report exactly. The whole
//!   generate → serve → simulate pipeline is one deterministic function
//!   of the seeds;
//! * **benchmark pin** — the report (its full-content hash, conservation
//!   counts, p99 latency, shed rate, MME scaling lag, utilization)
//!   matches `BENCH_mcn.json` exactly. Re-bless intentional changes with
//!   `CN_MCN_BLESS=1`.
//!
//! The golden trace pins are `scenario_check`'s job, not this gate's.
//!
//! `--metrics PATH` writes a `cn-obs` snapshot including the
//! `cn_mcn_des_*` family from the gated runs. `--trace PATH` writes the
//! Chrome trace-event JSON (Perfetto-loadable) of the run's stage spans:
//! each batch run is one `cn_mcn_des_run` with its drain-and-report time
//! as the `cn_mcn_des_finish` child. `--bench PATH` overrides
//! the pinned benchmark location (the default is the repo-root
//! `BENCH_mcn.json`). Exits non-zero when any gate fails.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use cn_gen::ShardedStream;
use cn_live::{LiveConfig, LiveRecordSource, LiveServer, SystemClock};
use cn_mcn::{DesReport, DesSim};
use cn_obs::{Registry, Span, TraceSink};
use cn_scenario::{ScenarioSpec, ScenarioStream};
use cn_trace::{RecordSource, Trace};
use cn_verify::mcn::{bench_path, des_config, gen_config, storm_block};
use cn_verify::{check_bench_at, drive_des, GroundTruth, McnBench, McnError};

const USAGE: &str = "usage: mcn_check [--metrics PATH] [--trace PATH] [--bench PATH]";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2)
}

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
        // Buffered: a block written is a block read, not a `read(2)` per frame.
        let stream = BufReader::with_capacity(64 << 10, stream);
        let source = LiveRecordSource::new(stream, 0).expect("live stream header");
        let sim = DesSim::new(des_config()).expect("valid DES config");
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
        let mut path = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{a} needs a path")))
        };
        match a.as_str() {
            "--metrics" => metrics = Some(path()),
            "--trace" => trace_out = Some(path()),
            "--bench" => bench_override = Some(path()),
            other => usage_error(&format!("unknown argument `{other}`")),
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
    let config = gen_config();
    let spec = storm_block();
    let mut all_ok = true;
    let mut gate = |name: &str, ok: bool| {
        registry
            .gauge_with("cn_verify_gate_ok", &[("gate", name)])
            .set(u64::from(ok));
        all_ok &= ok;
    };

    // Gate 1: determinism — the same trace, observed and blind.
    let trace = scenario_trace(&gt, &config, &spec);
    let span = Span::start(&registry, "cn_verify_mcn_ns");
    let direct = DesSim::run_trace(des_config(), &trace, &registry).expect("valid DES config");
    let rerun =
        DesSim::run_trace(des_config(), &trace, &Registry::disabled()).expect("valid DES config");
    span.finish();
    let deterministic = direct == rerun;
    if !deterministic {
        println!(
            "mcn_check: DES rerun DIVERGED on {} — not seed-deterministic",
            spec.name
        );
    }
    gate("mcn-determinism", deterministic);

    // Gate 2: the closed loop over real TCP reproduces the batch report.
    let (live, live_records) = closed_loop_report(&gt, &config, &spec);
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
    gate("mcn-closed-loop", closed);

    // Gate 3: the report matches the pinned benchmark exactly.
    let bless = std::env::var_os("CN_MCN_BLESS").is_some();
    let pin = bench_override.map_or_else(bench_path, PathBuf::from);
    let bench_ok = match check_bench_at(&pin, &McnBench::of_storm_block(&direct), bless) {
        Ok(()) => {
            println!(
                "mcn_check: benchmark pin {}",
                if bless { "re-blessed" } else { "holds" }
            );
            true
        }
        Err(e) => {
            println!("mcn_check: {e}");
            false
        }
    };
    gate("mcn-bench", bench_ok);

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
