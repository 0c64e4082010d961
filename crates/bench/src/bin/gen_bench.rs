//! The tracked generation benchmark: fixed 20K-UE × 12 h workload,
//! recorded to `BENCH_gen.json`.
//!
//! Not criterion-gated — a plain binary so CI (or a curious human) can
//! run it and diff the JSON against the previous PR's numbers:
//!
//! ```text
//! cargo run --release -p bench --bin gen_bench \
//!     [-- out.json] [--rss-gate FACTOR] [--metrics obs.json] \
//!     [--introspect 127.0.0.1:9100] [--trace trace.json]
//! ```
//!
//! The protocol (see `bench::bench_json` for the format contract):
//!
//! * the workload is fixed (population, duration, seed, method), so
//!   `events` is identical run-to-run and across machines; only the
//!   timing columns move. It is sized so one repetition takes **≥ 500 ms**
//!   of wall time on commodity hardware — short runs measure scheduler
//!   noise, not the generator;
//! * every configuration runs `REPS` (= 5) repetitions; the recorded
//!   wall time is the **median**, with the min alongside as the noise
//!   floor;
//! * the single-threaded sequential stream is the baseline, then the
//!   sharded stream is measured at shards ∈ {1, N_cores} — both points
//!   are always recorded with per-point `speedup_vs_baseline`. On a
//!   single-core box ({1, 2} is measured instead, so the thread tax of
//!   forcing parallel machinery onto one core stays visible) the JSON is
//!   labeled `single_core: true` and the headline *is* the 1-shard
//!   point — it never masquerades as a parallel result.
//!
//! The timing columns are recorded, not gated: two single timings of
//! the same binary differ by more than any sensible floor on a shared
//! box. Judging a timing change is cp-bench's `--record` / `--compare`
//! protocol (TESTING.md).
//!
//! `--metrics PATH` additionally measures the parallel shard count with a
//! live `cn-obs` registry attached and writes the final repetition's
//! [`cn_obs::ObsSnapshot`] to `PATH`. That run is recorded as the
//! `instrumented` point in the JSON — the telemetry overhead budget is a
//! tracked number, not a claim — and the snapshot's per-shard /
//! merge-side event ledger must balance exactly against the stream's
//! event count or the benchmark exits non-zero.
//!
//! The **population-scaling axis** runs the out-of-core exporter at
//! 20K → 200K → 2M UEs (window lengths shrunk to keep each point
//! CI-sized) under one fixed chunk size and spill budget, recording
//! `events_per_sec` and the point's own `peak_rss_mb` (watermark reset
//! between points) in the JSON's `scaling` array. `--rss-gate FACTOR`
//! exits non-zero if any point's peak RSS exceeds `FACTOR ×` the previous
//! point's — CI uses 2, so a 10× population increase costing more than 2×
//! the memory fails the build; that is the out-of-core contract. A 10M-UE
//! point exists behind `--deep-scale` for manual runs — it is I/O-heavy
//! and deliberately not part of CI.
//!
//! `--introspect ADDR` mounts the standalone introspection plane (the
//! same `/metrics`, `/status`, `/recorder` listener `cn-live` embeds)
//! over a bench-progress registry, so a long run can be watched from
//! `curl` or Prometheus while it executes. `--trace PATH` installs a
//! global trace sink and writes the run's stage spans (shard drains,
//! merge windows, out-of-core chunk/spill/merge) as Perfetto-loadable
//! Chrome trace-event JSON; traced runs do strictly more work, so never
//! compare their timings against untraced baselines.

use bench::{
    bench_json, check_snapshot_events, measure_reps, measure_scale_point, run_sequential,
    run_sharded, run_sharded_observed, ShardPoint,
};
use cn_fit::{fit, FitConfig, Method};
use cn_gen::{effective_parallelism, GenConfig, OutOfCoreConfig};
use cn_trace::{PopulationMix, Timestamp};
use cn_world::{generate_world, WorldConfig};

/// Repetitions per configuration; the headline is the median.
const REPS: usize = 5;
/// A repetition medianing below this is a warning: the workload no longer
/// outruns timing noise and should be re-sized upward.
const MIN_WALL_MS: f64 = 500.0;
/// The scaling axis's fixed exporter knobs: every point chunks the
/// population 16,384 UEs at a time under a 16 MiB spill budget, so
/// resident state is bounded by the chunk + budget regardless of how
/// large the population grows — which is exactly what the RSS gate
/// checks.
const SCALE_OCC: OutOfCoreConfig = OutOfCoreConfig {
    chunk_ues: 16_384,
    buffer_budget_bytes: 16 << 20,
    temp_dir: None,
};

/// A scaling population in the benchmark's fixed 62.5/25/12.5%
/// phone/car/tablet mix.
fn scale_mix(total: u32) -> PopulationMix {
    PopulationMix::new(total * 5 / 8, total / 4, total / 8)
}

fn main() {
    let mut out = "BENCH_gen.json".to_string();
    let mut rss_gate: Option<f64> = None;
    let mut deep_scale = false;
    let mut metrics: Option<String> = None;
    let mut introspect: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--rss-gate" {
            let v = args.next().expect("--rss-gate needs a value");
            rss_gate = Some(v.parse().expect("--rss-gate value must be a number"));
        } else if a == "--deep-scale" {
            deep_scale = true;
        } else if a == "--metrics" {
            metrics = Some(args.next().expect("--metrics needs a path"));
        } else if a == "--introspect" {
            introspect = Some(args.next().expect("--introspect needs an address"));
        } else if a == "--trace" {
            trace_out = Some(args.next().expect("--trace needs a path"));
        } else if a.starts_with("--") {
            // An unknown flag must not be taken for the output path.
            eprintln!("unknown flag: {a}");
            std::process::exit(2);
        } else {
            out = a;
        }
    }

    // Standalone introspection plane: a progress registry scraped over
    // HTTP while the benchmark runs. Phase-granular (one update per
    // measured point, never inside a timed region), so mounting it
    // cannot move the numbers it reports on.
    let progress = cn_obs::Registry::new();
    let progress_phases = progress.counter("bench_phases_total");
    let progress_events = progress.counter("bench_events_total");
    let progress_wall = progress.histogram("bench_wall_ms");
    let _introspection = introspect.as_ref().map(|addr| {
        let recorder = cn_obs::FlightRecorder::start(&progress, cn_obs::RecorderConfig::default())
            .expect("start flight recorder");
        let srv = cn_obs::IntrospectionServer::bind(addr, &progress, Some(recorder))
            .expect("bind introspection address");
        eprintln!("introspection plane at http://{}/metrics", srv.local_addr());
        srv
    });
    // Collect stage spans (shard drains, merge windows, out-of-core
    // phases) across the run; written as Chrome trace-event JSON at the
    // end. Opt-in because the instrumented paths do strictly more work
    // with a sink installed — never compare a traced run's timings
    // against an untraced one's.
    let trace_sink = cn_obs::TraceSink::new();
    if trace_out.is_some() {
        cn_obs::trace::install_global(&trace_sink);
    }

    // Fit once at modest scale; generation cost, not fitting cost, is what
    // this benchmark tracks.
    eprintln!("fitting models ...");
    let world = generate_world(&WorldConfig::new(PopulationMix::new(120, 50, 25), 2.0, 77));
    let models = fit(&world, &FitConfig::new(Method::Ours));

    // The fixed workload: 20,000 UEs (12500 phones / 5000 cars / 2500
    // tablets) over 12 hours starting at 06:00, seed 2023 — sized for
    // >= 500 ms per repetition.
    let config = GenConfig::new(
        PopulationMix::new(12_500, 5_000, 2_500),
        Timestamp::at_hour(0, 6),
        12.0,
        2023,
    );

    eprintln!("sequential baseline (1 thread, {REPS} reps) ...");
    let baseline = measure_reps(REPS, || run_sequential(&models, &config));
    eprintln!(
        "  {} events, median {:.0} ms / min {:.0} ms ({:.0} events/s)",
        baseline.events, baseline.wall_ms_median, baseline.wall_ms_min, baseline.events_per_sec
    );
    if baseline.wall_ms_median < MIN_WALL_MS {
        eprintln!(
            "  WARNING: median below {MIN_WALL_MS:.0} ms — workload too small to outrun noise; re-size it"
        );
    }
    progress_phases.inc();
    progress_events.add(baseline.events);
    progress_wall.record(baseline.wall_ms_median as u64);

    let cores = effective_parallelism();
    // Always measure two shard counts. On a single-core box the "parallel"
    // point is shards=2: it honestly documents the thread tax there.
    let shard_counts = if cores == 1 {
        vec![1, 2]
    } else {
        vec![1, cores]
    };
    let mut points = Vec::new();
    for &shards in &shard_counts {
        eprintln!("sharded stream ({shards} shards, {REPS} reps) ...");
        let stats = measure_reps(REPS, || run_sharded(&models, &config, shards));
        let p = ShardPoint::against(shards, stats, &baseline);
        eprintln!(
            "  {} events, median {:.0} ms / min {:.0} ms ({:.0} events/s, {:.3}x baseline)",
            stats.events,
            stats.wall_ms_median,
            stats.wall_ms_min,
            stats.events_per_sec,
            p.speedup_vs_baseline
        );
        progress_phases.inc();
        progress_events.add(stats.events);
        progress_wall.record(stats.wall_ms_median as u64);
        points.push(p);
    }

    // The instrumented run: the parallel shard count again, this time with
    // a live registry. Measured whenever `--metrics` is given so both the
    // overhead (the `instrumented` JSON point) and the snapshot are real
    // artifacts of this box, not estimates. A fresh registry per rep keeps
    // each snapshot a single-run ledger; the final rep's snapshot is kept.
    let parallel_shards = *shard_counts.last().expect("two shard counts measured");
    let mut instrumented = None;
    if let Some(metrics_path) = &metrics {
        eprintln!("instrumented stream ({parallel_shards} shards + cn-obs, {REPS} reps) ...");
        let mut snapshot = None;
        let stats = measure_reps(REPS, || {
            let registry = cn_obs::Registry::new();
            let events = run_sharded_observed(&models, &config, parallel_shards, &registry);
            snapshot = Some(registry.snapshot());
            events
        });
        let snapshot = snapshot.expect("at least one instrumented rep ran");
        let p = ShardPoint::against(parallel_shards, stats, &baseline);
        eprintln!(
            "  {} events, median {:.0} ms / min {:.0} ms ({:.0} events/s, {:.3}x baseline)",
            stats.events,
            stats.wall_ms_median,
            stats.wall_ms_min,
            stats.events_per_sec,
            p.speedup_vs_baseline
        );
        if let Err(e) = check_snapshot_events(&snapshot, stats.events) {
            eprintln!("METRICS LEDGER FAILED: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "  metrics ledger ok: per-shard and merge counters both equal {} events",
            stats.events
        );
        std::fs::write(metrics_path, snapshot.to_json()).expect("write metrics snapshot");
        eprintln!("wrote {metrics_path}");
        instrumented = Some(p);
    }

    // Snapshot the process high-water mark before the scaling axis starts
    // resetting it: the top-level peak_rss_mb key describes the 20K x 12h
    // workload above, not the last scaling point.
    let process_rss = bench::peak_rss_mb();

    // The population-scaling axis: ascending populations through the
    // out-of-core exporter, one run each, RSS watermark reset per point.
    // Window lengths shrink as the population grows so every point stays
    // CI-sized; RSS is a function of the chunk + budget, not the window,
    // so the shrink does not soften the gate.
    let mut scale_axis = vec![(20_000u32, 2.0f64), (200_000, 1.0), (2_000_000, 0.25)];
    if deep_scale {
        scale_axis.push((10_000_000, 0.1));
    }
    let mut scaling = Vec::new();
    for &(ues, hours) in &scale_axis {
        eprintln!("scaling point ({ues} UEs x {hours}h, out-of-core) ...");
        let config = GenConfig::new(scale_mix(ues), Timestamp::at_hour(0, 6), hours, 2023);
        let s = measure_scale_point(&models, &config, &SCALE_OCC);
        eprintln!(
            "  {} events in {:.0} ms ({:.0} events/s), peak RSS {:.1} MiB, {}/{} runs spilled",
            s.events, s.wall_ms, s.events_per_sec, s.peak_rss_mb, s.spilled_runs, s.runs
        );
        progress_phases.inc();
        progress_events.add(s.events);
        progress_wall.record(s.wall_ms as u64);
        scaling.push(s);
    }

    let json = bench_json(
        "20000 UEs x 12h, Method::Ours, seed 2023",
        cores,
        &baseline,
        &points,
        instrumented.as_ref(),
        &scaling,
        process_rss,
    );
    std::fs::write(&out, &json).expect("write bench json");
    print!("{json}");
    eprintln!("wrote {out}");

    if let Some(path) = &trace_out {
        cn_obs::trace::clear_global();
        std::fs::write(path, trace_sink.to_chrome_json()).expect("write trace JSON");
        eprintln!("wrote {path} ({} stage spans)", trace_sink.len());
    }

    if let Some(factor) = rss_gate {
        for w in scaling.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.peak_rss_mb > 0.0 && b.peak_rss_mb > a.peak_rss_mb * factor {
                eprintln!(
                    "RSS GATE FAILED: {} UEs peaked at {:.1} MiB, more than {factor}x the \
                     {:.1} MiB peak at {} UEs — resident state is growing with the \
                     population; the out-of-core contract is broken",
                    b.ues, b.peak_rss_mb, a.peak_rss_mb, a.ues
                );
                std::process::exit(1);
            }
        }
        eprintln!(
            "rss gate ok: every scaling point within {factor}x of its predecessor ({})",
            scaling
                .iter()
                .map(|s| format!("{} UEs: {:.1} MiB", s.ues, s.peak_rss_mb))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
}
