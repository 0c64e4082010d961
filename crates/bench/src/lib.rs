//! Shared measurement plumbing for the benchmark harness.
//!
//! The criterion benches under `benches/` cover micro-level hot paths;
//! this library backs the *tracked* macro benchmark `gen_bench`
//! (`src/bin/gen_bench.rs`), which generates a fixed workload and records
//! `BENCH_gen.json`, so the generator's performance trajectory is visible
//! PR over PR. The protocol is deliberately noise-hostile:
//!
//! * every configuration runs **≥ 5 repetitions** ([`measure_reps`]) and
//!   reports the **median** wall time (the headline) alongside the **min**
//!   (the noise floor) — a single 29 ms run is timing noise, not a
//!   measurement;
//! * the sequential single-thread baseline and the sharded stream at
//!   shard counts `{1, N_cores}` are all measured in the same process
//!   ([`ShardPoint`]), each with its own `speedup_vs_baseline`, so a
//!   1-shard result can never silently masquerade as a parallel one —
//!   [`bench_json`] refuses to render a file that omits either point or
//!   whose per-point event counts disagree;
//! * a **population-scaling axis** ([`ScalePoint`]) runs the out-of-core
//!   exporter at ascending populations with the RSS watermark reset
//!   between points ([`reset_peak_rss`]), so `BENCH_gen.json` records
//!   `events_per_sec` *and* `peak_rss_mb` per point — the bounded-memory
//!   contract is a gated number, not a claim.
//!
//! A tiny-population smoke of the same code path runs under `cargo test`
//! (see `tests/gen_smoke.rs`), so a broken pipeline fails tier-1 rather
//! than only surfacing at bench time.

use cn_fit::ModelSet;
use cn_gen::{generate_out_of_core, GenConfig, OutOfCoreConfig, PopulationStream, ShardedStream};
use cn_obs::{MetricValue, ObsSnapshot, Registry};
use cn_trace::{RecordSource, StreamError};
use std::time::Instant;

/// One measured generation run.
#[derive(Debug, Clone, Copy)]
pub struct BenchPoint {
    /// Events produced.
    pub events: u64,
    /// Wall-clock time in milliseconds.
    pub wall_ms: f64,
    /// Throughput in events per second.
    pub events_per_sec: f64,
}

impl BenchPoint {
    /// Time `run` (which reports how many events it produced).
    pub fn measure<F: FnOnce() -> u64>(run: F) -> BenchPoint {
        let t0 = Instant::now();
        let events = run();
        let secs = t0.elapsed().as_secs_f64();
        BenchPoint {
            events,
            wall_ms: secs * 1e3,
            events_per_sec: if secs > 0.0 {
                events as f64 / secs
            } else {
                0.0
            },
        }
    }
}

/// Median / min wall-time statistics over repeated runs of one fixed
/// configuration.
#[derive(Debug, Clone, Copy)]
pub struct RepStats {
    /// Events per run (identical across reps — the workload is fixed).
    pub events: u64,
    /// Repetitions measured.
    pub reps: usize,
    /// Median wall time — the headline; robust to one-sided scheduler
    /// noise in a way the mean is not.
    pub wall_ms_median: f64,
    /// Fastest rep — the machine's noise floor for this configuration.
    pub wall_ms_min: f64,
    /// Throughput at the median wall time.
    pub events_per_sec: f64,
}

/// Run `run` `reps` times (≥ 1) and fold the wall times into [`RepStats`].
/// Panics if the event count varies across reps: the tracked workload is
/// fixed, so a varying count means the benchmark is measuring different
/// work each rep and its numbers would be meaningless.
pub fn measure_reps<F: FnMut() -> u64>(reps: usize, mut run: F) -> RepStats {
    assert!(reps >= 1, "at least one repetition required");
    let mut walls = Vec::with_capacity(reps);
    let mut events = None;
    for rep in 0..reps {
        let p = BenchPoint::measure(&mut run);
        match events {
            None => events = Some(p.events),
            Some(e) => assert_eq!(
                e, p.events,
                "event count varied across reps (rep {rep}): the workload must be fixed"
            ),
        }
        walls.push(p.wall_ms);
    }
    walls.sort_by(f64::total_cmp);
    let wall_ms_median = if reps % 2 == 1 {
        walls[reps / 2]
    } else {
        0.5 * (walls[reps / 2 - 1] + walls[reps / 2])
    };
    let events = events.expect("reps >= 1");
    RepStats {
        events,
        reps,
        wall_ms_median,
        wall_ms_min: walls[0],
        events_per_sec: if wall_ms_median > 0.0 {
            events as f64 / (wall_ms_median / 1e3)
        } else {
            0.0
        },
    }
}

/// One measured shard count, with its speedup against the sequential
/// baseline (median-over-median wall-time ratio; > 1 is faster).
#[derive(Debug, Clone, Copy)]
pub struct ShardPoint {
    /// Shard count this point was measured at.
    pub shards: usize,
    /// The repetition statistics.
    pub stats: RepStats,
    /// `baseline median wall / this median wall`.
    pub speedup_vs_baseline: f64,
}

impl ShardPoint {
    /// Fold `stats` into a point, computing the speedup against `baseline`.
    pub fn against(shards: usize, stats: RepStats, baseline: &RepStats) -> ShardPoint {
        ShardPoint {
            shards,
            stats,
            speedup_vs_baseline: if stats.wall_ms_median > 0.0 {
                baseline.wall_ms_median / stats.wall_ms_median
            } else {
                0.0
            },
        }
    }
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`), `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset the kernel's peak-RSS watermark (`VmHWM`) to the *current* RSS
/// by writing `5` to `/proc/self/clear_refs`. The population-scaling axis
/// measures several ascending workloads in one process; without a reset
/// between points, every point would inherit the high-water mark of its
/// largest predecessor and the per-point RSS column would be meaningless.
/// Returns `false` where the knob is unavailable (non-Linux).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// One point on the population-scaling axis: the out-of-core exporter run
/// once at a given population, with throughput and the point's own peak
/// RSS (see [`reset_peak_rss`]) recorded. The axis exists to demonstrate
/// the bounded-memory contract — RSS must stay roughly flat as the
/// population grows 10× per point — so RSS, not wall time, is the gated
/// column.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Total population generated at this point.
    pub ues: u32,
    /// Window length in hours (shrunk as the population grows to keep the
    /// point CI-sized).
    pub hours: f64,
    /// Events exported.
    pub events: u64,
    /// Wall-clock time in milliseconds (single run — this axis gates RSS,
    /// not throughput; the multi-rep medians live in `points`).
    pub wall_ms: f64,
    /// Throughput in events per second.
    pub events_per_sec: f64,
    /// Peak RSS in MiB observed *during this point* (watermark reset
    /// before the run), 0.0 where `/proc` is unavailable.
    pub peak_rss_mb: f64,
    /// Chunked runs the exporter produced.
    pub runs: usize,
    /// Runs that spilled to disk under the buffer budget.
    pub spilled_runs: usize,
}

/// An anonymous on-disk sink: created in the temp dir and immediately
/// unlinked, so the exported bytes land on disk (as a real out-of-core
/// run's would) without the Vec-backed alternative inflating the very RSS
/// the scaling axis is measuring — and without leaving files behind.
fn unlinked_temp_sink() -> std::fs::File {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "cn-bench-export-{}-{}.bin",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)
        .expect("create bench export sink in temp dir");
    let _ = std::fs::remove_file(&path);
    file
}

/// Measure one population-scaling point: reset the RSS watermark, run the
/// out-of-core exporter once into an unlinked temp-file sink, and record
/// throughput plus the point's own peak RSS.
pub fn measure_scale_point(
    models: &ModelSet,
    config: &GenConfig,
    occ: &OutOfCoreConfig,
) -> ScalePoint {
    reset_peak_rss();
    let t0 = Instant::now();
    let (report, _sink) = generate_out_of_core(models, config, occ, unlinked_temp_sink())
        .expect("out-of-core export with a healthy sink and temp dir");
    let secs = t0.elapsed().as_secs_f64();
    ScalePoint {
        ues: config.population.total(),
        hours: config.duration_hours,
        events: report.events,
        wall_ms: secs * 1e3,
        events_per_sec: if secs > 0.0 {
            report.events as f64 / secs
        } else {
            0.0
        },
        peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
        runs: report.runs,
        spilled_runs: report.spilled_runs,
    }
}

/// Drain the sequential population stream — the single-threaded baseline
/// every `BENCH_gen.json` records alongside the sharded results.
pub fn run_sequential(models: &ModelSet, config: &GenConfig) -> u64 {
    PopulationStream::new(models, config).count() as u64
}

/// Drain a sharded stream to its `finish` receipt. A worker failure
/// aborts the benchmark with the typed [`StreamError`] — it must not be
/// measured as a shorter run and reported as "event count diverged".
fn drained_events(stream: ShardedStream<'_>) -> u64 {
    stream
        .drain(|_| Ok::<(), StreamError>(()))
        .unwrap_or_else(|e| panic!("sharded benchmark stream failed: {e}"))
        .events
}

/// Drain the sharded stream at an explicit shard count.
pub fn run_sharded(models: &ModelSet, config: &GenConfig, shards: usize) -> u64 {
    drained_events(ShardedStream::with_shards(models, config, shards))
}

/// Drain the sharded stream with full `cn-obs` telemetry enabled — the
/// instrumented configuration `gen_bench --metrics` measures and
/// snapshots.
pub fn run_sharded_observed(
    models: &ModelSet,
    config: &GenConfig,
    shards: usize,
    registry: &Registry,
) -> u64 {
    drained_events(ShardedStream::with_shards_observed(
        models, config, shards, registry,
    ))
}

/// The telemetry honesty gate: a fully drained sharded run's summed
/// per-shard production (`cn_gen_shard_events_total{shard=i}`) and the
/// consumer-side merge total (`cn_gen_merge_events_total`) must both
/// equal the workload's event count — if the ledger disagrees with the
/// stream, the instrumentation (not the generator) is broken, and the
/// snapshot must not be recorded as if it were evidence.
pub fn check_snapshot_events(snapshot: &ObsSnapshot, events: u64) -> Result<(), String> {
    let produced = snapshot
        .counter_total("cn_gen_shard_events_total")
        .ok_or("snapshot has no cn_gen_shard_events_total counters (not a parallel run?)")?;
    if produced != events {
        return Err(format!(
            "per-shard counters sum to {produced} events, stream produced {events}"
        ));
    }
    let merged = snapshot
        .counter("cn_gen_merge_events_total")
        .ok_or("snapshot has no cn_gen_merge_events_total counter")?;
    if merged != events {
        return Err(format!(
            "merge counter reports {merged} events, stream produced {events}"
        ));
    }
    Ok(())
}

/// `cn_gen_worker_exit` exits recorded with `outcome` (`None` when the
/// series is absent — e.g. an inline run that spawned no workers).
pub fn worker_exits(snapshot: &ObsSnapshot, outcome: &str) -> Option<u64> {
    snapshot
        .get("cn_gen_worker_exit", &[("outcome", outcome)])
        .map(|m| match m.value {
            MetricValue::Counter { value } => value,
            _ => 0,
        })
}

/// How a snapshot's event ledger was accounted for (see
/// [`check_snapshot_accounted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerVerdict {
    /// Clean run: shard and merge counters both equal the workload and no
    /// worker failure was recorded.
    Balanced,
    /// The ledger does not balance, but the snapshot records the worker
    /// failure(s) that explain it — contained, not silent.
    FailureContained {
        /// `cn_gen_worker_exit{outcome="panicked"}`.
        panicked: u64,
        /// `cn_gen_worker_exit{outcome="cancelled"}`.
        cancelled: u64,
    },
}

/// The failure-aware ledger gate: **every imbalance must be explained**.
///
/// Extends [`check_snapshot_events`] with the worker-exit telemetry the
/// sharded pipeline records on shutdown. The acceptable states are:
///
/// * the ledger balances and no failure was recorded → [`LedgerVerdict::Balanced`];
/// * the ledger does *not* balance but the snapshot says why — panicked or
///   cancelled worker exits → [`LedgerVerdict::FailureContained`].
///
/// Everything else is an error: an imbalance with no recorded failure is
/// exactly the silent truncation this pipeline promises not to produce,
/// and a balanced ledger alongside recorded failures is contradictory
/// evidence (a failed worker cannot have delivered its full shard).
pub fn check_snapshot_accounted(
    snapshot: &ObsSnapshot,
    events: u64,
) -> Result<LedgerVerdict, String> {
    let panicked = worker_exits(snapshot, "panicked").unwrap_or(0);
    let cancelled = worker_exits(snapshot, "cancelled").unwrap_or(0);
    match (
        check_snapshot_events(snapshot, events),
        panicked + cancelled,
    ) {
        (Ok(()), 0) => Ok(LedgerVerdict::Balanced),
        (Ok(()), _) => Err(format!(
            "ledger balances at {events} events yet {panicked} panicked / {cancelled} \
             cancelled worker exits were recorded — contradictory evidence"
        )),
        (Err(_), n) if n > 0 => Ok(LedgerVerdict::FailureContained {
            panicked,
            cancelled,
        }),
        (Err(e), _) => Err(format!(
            "{e} — and no worker failure was recorded that would explain the \
             imbalance (silent truncation)"
        )),
    }
}

fn point_fields(p: &ShardPoint) -> String {
    format!(
        "{{ \"shards\": {}, \"events_per_sec\": {:.1}, \"wall_ms_median\": {:.1}, \"wall_ms_min\": {:.1}, \"speedup_vs_baseline\": {:.3} }}",
        p.shards, p.stats.events_per_sec, p.stats.wall_ms_median, p.stats.wall_ms_min,
        p.speedup_vs_baseline,
    )
}

fn point_json(p: &ShardPoint) -> String {
    format!("    {}", point_fields(p))
}

fn scale_point_json(p: &ScalePoint) -> String {
    format!(
        "    {{ \"ues\": {}, \"hours\": {:.2}, \"events\": {}, \"events_per_sec\": {:.1}, \"wall_ms\": {:.1}, \"peak_rss_mb\": {:.1}, \"runs\": {}, \"spilled_runs\": {} }}",
        p.ues, p.hours, p.events, p.events_per_sec, p.wall_ms, p.peak_rss_mb, p.runs,
        p.spilled_runs,
    )
}

/// Render the `BENCH_gen.json` payload. Hand-rolled with a stable key
/// order so diffs between recorded runs stay readable.
///
/// The headline keys (`events_per_sec`, `wall_ms`, `speedup_vs_baseline`)
/// describe the point measured at `shards == cores` — the hardware's
/// parallel capability — and always carry their true `shards` count plus a
/// `single_core` flag, so a single-core result is explicitly labeled as
/// such rather than posing as a parallel win.
///
/// Honesty checks (all panic, by design — a refused file is better than a
/// misleading one):
///
/// * `points` must contain a `shards == 1` entry **and** a
///   `shards == cores` entry;
/// * every point, the baseline, and the `instrumented` point (when
///   present) must report the same event count;
/// * `scaling` points (when present) must be strictly ascending in
///   population and non-empty in events — a scaling axis that shrinks or
///   generates nothing proves nothing about memory behavior.
///
/// `instrumented` is the same workload drained with a live `cn-obs`
/// registry attached ([`run_sharded_observed`]); recording it beside the
/// uninstrumented points keeps the telemetry overhead budget visible in
/// the tracked file instead of taking "negligible" on faith.
///
/// `process_rss_mb` is the process high-water mark for the top-level
/// `peak_rss_mb` key; pass a value captured *before* measuring the
/// scaling axis (whose per-point watermark resets would otherwise erase
/// the main workload's peak), or `None` to read `/proc` at render time.
pub fn bench_json(
    workload: &str,
    cores: usize,
    baseline: &RepStats,
    points: &[ShardPoint],
    instrumented: Option<&ShardPoint>,
    scaling: &[ScalePoint],
    process_rss_mb: Option<f64>,
) -> String {
    let headline = points
        .iter()
        .find(|p| p.shards == cores)
        .expect("points must include the shards == cores measurement");
    assert!(
        points.iter().any(|p| p.shards == 1),
        "points must include the shards == 1 measurement"
    );
    for p in points {
        assert_eq!(
            p.stats.events, baseline.events,
            "shards={} event count diverged from the sequential baseline",
            p.shards
        );
    }
    if let Some(p) = instrumented {
        assert_eq!(
            p.stats.events, baseline.events,
            "instrumented event count diverged from the sequential baseline"
        );
    }
    for w in scaling.windows(2) {
        assert!(
            w[1].ues > w[0].ues,
            "scaling points must be strictly ascending in population ({} then {})",
            w[0].ues,
            w[1].ues
        );
    }
    for s in scaling {
        assert!(
            s.events > 0,
            "scaling point at {} UEs generated no events",
            s.ues
        );
    }
    // The caller snapshots the process high-water mark *before* the
    // scaling axis resets it per point; fall back to reading it now when
    // no scaling ran.
    let rss = process_rss_mb.or_else(peak_rss_mb).unwrap_or(0.0);
    let rendered: Vec<String> = points.iter().map(point_json).collect();
    let scaling_json = if scaling.is_empty() {
        "[]".to_string()
    } else {
        let rows: Vec<String> = scaling.iter().map(scale_point_json).collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    let instrumented_json = match instrumented {
        Some(p) => point_fields(p),
        None => "null".to_string(),
    };
    format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"cores\": {cores},\n  \"single_core\": {single_core},\n  \"events\": {events},\n  \"reps\": {reps},\n  \"shards\": {shards},\n  \"events_per_sec\": {eps:.1},\n  \"wall_ms\": {wall:.1},\n  \"wall_ms_min\": {wall_min:.1},\n  \"peak_rss_mb\": {rss:.1},\n  \"speedup_vs_baseline\": {speedup:.3},\n  \"baseline_single_thread\": {{\n    \"events_per_sec\": {beps:.1},\n    \"wall_ms_median\": {bwall:.1},\n    \"wall_ms_min\": {bwall_min:.1},\n    \"events\": {bevents}\n  }},\n  \"instrumented\": {instrumented_json},\n  \"points\": [\n{points_json}\n  ],\n  \"scaling\": {scaling_json}\n}}\n",
        single_core = cores == 1,
        events = baseline.events,
        reps = baseline.reps,
        shards = headline.shards,
        eps = headline.stats.events_per_sec,
        wall = headline.stats.wall_ms_median,
        wall_min = headline.stats.wall_ms_min,
        speedup = headline.speedup_vs_baseline,
        beps = baseline.events_per_sec,
        bwall = baseline.wall_ms_median,
        bwall_min = baseline.wall_ms_min,
        bevents = baseline.events,
        points_json = rendered.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(events: u64, walls_sorted_ms: &[f64]) -> RepStats {
        let reps = walls_sorted_ms.len();
        let median = if reps % 2 == 1 {
            walls_sorted_ms[reps / 2]
        } else {
            0.5 * (walls_sorted_ms[reps / 2 - 1] + walls_sorted_ms[reps / 2])
        };
        RepStats {
            events,
            reps,
            wall_ms_median: median,
            wall_ms_min: walls_sorted_ms[0],
            events_per_sec: events as f64 / (median / 1e3),
        }
    }

    #[test]
    fn measure_counts_and_times() {
        let p = BenchPoint::measure(|| 42);
        assert_eq!(p.events, 42);
        assert!(p.wall_ms >= 0.0);
    }

    #[test]
    fn measure_reps_takes_median_and_min() {
        let mut i = 0u64;
        let s = measure_reps(5, || {
            i += 1;
            7
        });
        assert_eq!(i, 5);
        assert_eq!((s.events, s.reps), (7, 5));
        assert!(s.wall_ms_min <= s.wall_ms_median);
    }

    #[test]
    fn measure_reps_rejects_varying_event_counts() {
        let mut i = 0u64;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            measure_reps(3, || {
                i += 1;
                i
            })
        }));
        assert!(r.is_err(), "varying event counts must be rejected");
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_mb().expect("VmHWM present on Linux");
            assert!(rss > 0.0);
        }
    }

    #[test]
    fn json_has_the_tracked_keys_and_both_points() {
        let baseline = stats(10, &[1.0, 2.0, 3.0]);
        let p1 = ShardPoint::against(1, stats(10, &[2.0, 2.0, 2.0]), &baseline);
        let p4 = ShardPoint::against(4, stats(10, &[1.0, 1.0, 1.0]), &baseline);
        let json = bench_json("test", 4, &baseline, &[p1, p4], None, &[], None);
        for key in [
            "\"workload\"",
            "\"cores\": 4",
            "\"single_core\": false",
            "\"events\"",
            "\"reps\": 3",
            "\"shards\": 4",
            "\"events_per_sec\"",
            "\"wall_ms\"",
            "\"wall_ms_min\"",
            "\"peak_rss_mb\"",
            "\"speedup_vs_baseline\"",
            "\"baseline_single_thread\"",
            "\"points\"",
            "{ \"shards\": 1,",
            "{ \"shards\": 4,",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Headline = the cores point: 2 ms baseline / 1 ms sharded.
        assert!(json.contains("\"speedup_vs_baseline\": 2.000"), "{json}");
    }

    #[test]
    fn json_refuses_a_masquerading_headline() {
        let baseline = stats(10, &[2.0]);
        let p1 = ShardPoint::against(1, stats(10, &[2.0]), &baseline);
        // cores = 4 but only a 1-shard point measured: refuse.
        let r =
            std::panic::catch_unwind(|| bench_json("test", 4, &baseline, &[p1], None, &[], None));
        assert!(r.is_err(), "shards=1 must not pose as a 4-core result");
        // A missing 1-shard point is refused too.
        let p4 = ShardPoint::against(4, stats(10, &[1.0]), &baseline);
        let r =
            std::panic::catch_unwind(|| bench_json("test", 4, &baseline, &[p4], None, &[], None));
        assert!(r.is_err(), "the shards=1 point is mandatory");
    }

    #[test]
    fn json_refuses_diverging_event_counts() {
        let baseline = stats(10, &[2.0]);
        let p1 = ShardPoint::against(1, stats(10, &[2.0]), &baseline);
        let bad = ShardPoint::against(4, stats(11, &[1.0]), &baseline);
        let r = std::panic::catch_unwind(|| {
            bench_json("test", 4, &baseline, &[p1, bad], None, &[], None)
        });
        assert!(r.is_err(), "diverging event counts must be refused");
        // The instrumented point is held to the same standard.
        let p4 = ShardPoint::against(4, stats(10, &[1.0]), &baseline);
        let drifted = ShardPoint::against(4, stats(12, &[1.5]), &baseline);
        let r = std::panic::catch_unwind(|| {
            bench_json("test", 4, &baseline, &[p1, p4], Some(&drifted), &[], None)
        });
        assert!(r.is_err(), "a drifting instrumented count must be refused");
    }

    #[test]
    fn json_records_the_instrumented_point() {
        let baseline = stats(10, &[2.0]);
        let p1 = ShardPoint::against(1, stats(10, &[2.0]), &baseline);
        let p4 = ShardPoint::against(4, stats(10, &[1.0]), &baseline);
        let observed = ShardPoint::against(4, stats(10, &[1.2]), &baseline);
        let json = bench_json("test", 4, &baseline, &[p1, p4], Some(&observed), &[], None);
        assert!(
            json.contains("\"instrumented\": { \"shards\": 4,"),
            "{json}"
        );
        let json = bench_json("test", 4, &baseline, &[p1, p4], None, &[], None);
        assert!(json.contains("\"instrumented\": null"), "{json}");
    }

    #[test]
    fn snapshot_check_demands_a_balanced_ledger() {
        let registry = Registry::new();
        registry
            .counter_with("cn_gen_shard_events_total", &[("shard", "0")])
            .add(6);
        registry
            .counter_with("cn_gen_shard_events_total", &[("shard", "1")])
            .add(4);
        registry.counter("cn_gen_merge_events_total").add(10);
        let snap = registry.snapshot();
        assert_eq!(check_snapshot_events(&snap, 10), Ok(()));
        assert!(check_snapshot_events(&snap, 11).is_err());
        // A merge/shard mismatch is caught even when one side agrees.
        registry.counter("cn_gen_merge_events_total").add(1);
        assert!(check_snapshot_events(&registry.snapshot(), 10).is_err());
        // An inline (no per-shard series) snapshot is not valid evidence.
        let inline = Registry::new();
        inline.counter("cn_gen_merge_events_total").add(10);
        assert!(check_snapshot_events(&inline.snapshot(), 10).is_err());
    }

    #[test]
    fn accounted_gate_demands_explained_imbalances() {
        // A clean, balanced run.
        let clean = Registry::new();
        clean
            .counter_with("cn_gen_shard_events_total", &[("shard", "0")])
            .add(10);
        clean.counter("cn_gen_merge_events_total").add(10);
        clean
            .counter_with("cn_gen_worker_exit", &[("outcome", "completed")])
            .add(1);
        assert_eq!(
            check_snapshot_accounted(&clean.snapshot(), 10),
            Ok(LedgerVerdict::Balanced)
        );
        // A failed run: short ledger, but the failure is on the record.
        let failed = Registry::new();
        failed
            .counter_with("cn_gen_shard_events_total", &[("shard", "0")])
            .add(4);
        failed.counter("cn_gen_merge_events_total").add(4);
        failed
            .counter_with("cn_gen_worker_exit", &[("outcome", "panicked")])
            .add(1);
        assert_eq!(
            check_snapshot_accounted(&failed.snapshot(), 10),
            Ok(LedgerVerdict::FailureContained {
                panicked: 1,
                cancelled: 0
            })
        );
        // The forbidden state: short ledger, nothing recorded to explain it.
        let silent = Registry::new();
        silent
            .counter_with("cn_gen_shard_events_total", &[("shard", "0")])
            .add(4);
        silent.counter("cn_gen_merge_events_total").add(4);
        let err = check_snapshot_accounted(&silent.snapshot(), 10).unwrap_err();
        assert!(err.contains("silent truncation"), "{err}");
        // Contradictory evidence: balanced ledger yet a recorded failure.
        clean
            .counter_with("cn_gen_worker_exit", &[("outcome", "cancelled")])
            .add(1);
        let err = check_snapshot_accounted(&clean.snapshot(), 10).unwrap_err();
        assert!(err.contains("contradictory"), "{err}");
    }

    #[test]
    fn single_core_json_is_labeled() {
        let baseline = stats(10, &[2.0]);
        let p1 = ShardPoint::against(1, stats(10, &[2.0]), &baseline);
        let p2 = ShardPoint::against(2, stats(10, &[3.0]), &baseline);
        let json = bench_json("test", 1, &baseline, &[p1, p2], None, &[], None);
        assert!(json.contains("\"single_core\": true"), "{json}");
        assert!(json.contains("\"shards\": 1,"), "{json}");
        // An unmeasured scaling axis renders as an empty array, not a lie.
        assert!(json.contains("\"scaling\": []"), "{json}");
    }

    fn scale(ues: u32, events: u64, rss: f64) -> ScalePoint {
        ScalePoint {
            ues,
            hours: 1.0,
            events,
            wall_ms: 10.0,
            events_per_sec: events as f64 * 100.0,
            peak_rss_mb: rss,
            runs: 2,
            spilled_runs: 1,
        }
    }

    #[test]
    fn json_records_the_scaling_axis() {
        let baseline = stats(10, &[2.0]);
        let p1 = ShardPoint::against(1, stats(10, &[2.0]), &baseline);
        let p4 = ShardPoint::against(4, stats(10, &[1.0]), &baseline);
        let pts = [scale(20_000, 500, 40.0), scale(200_000, 5_000, 55.0)];
        let json = bench_json("test", 4, &baseline, &[p1, p4], None, &pts, None);
        for key in [
            "\"scaling\": [",
            "{ \"ues\": 20000,",
            "{ \"ues\": 200000,",
            "\"peak_rss_mb\": 55.0",
            "\"spilled_runs\": 1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn json_refuses_a_meaningless_scaling_axis() {
        let baseline = stats(10, &[2.0]);
        let p1 = ShardPoint::against(1, stats(10, &[2.0]), &baseline);
        let p4 = ShardPoint::against(4, stats(10, &[1.0]), &baseline);
        // Non-ascending populations: the "10× per point" claim is void.
        let descending = [scale(200_000, 5_000, 55.0), scale(20_000, 500, 40.0)];
        let r = std::panic::catch_unwind(|| {
            bench_json("test", 4, &baseline, &[p1, p4], None, &descending, None)
        });
        assert!(r.is_err(), "descending scaling points must be refused");
        // An empty workload proves nothing about memory behavior.
        let empty = [scale(20_000, 0, 40.0)];
        let r = std::panic::catch_unwind(|| {
            bench_json("test", 4, &baseline, &[p1, p4], None, &empty, None)
        });
        assert!(r.is_err(), "a zero-event scaling point must be refused");
    }

    #[test]
    fn rss_watermark_resets_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(reset_peak_rss(), "clear_refs writable on Linux");
            assert!(peak_rss_mb().expect("VmHWM present") > 0.0);
        }
    }
}
