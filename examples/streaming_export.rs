//! Bounded-memory trace export at scale, on every core — with live
//! telemetry instead of ad-hoc printf counters.
//!
//! A week of a large population is hundreds of millions of events — too
//! big to materialize. `ShardedStream` generates the population one time
//! slab at a time, helper threads and the calling thread sharing each
//! slab's fill chunk by chunk, and hands the consumer a globally
//! time-ordered stream (byte-identical to the sequential
//! `PopulationStream`, which `generate` also drains) with at most one slab
//! in flight — so a slow disk writer paces the generators instead of
//! buffering the trace.
//!
//! This example exports a multi-hour trace to CSV-on-disk while a
//! `cn-obs` [`Registry`] watches both sides of the pipe: the stream's own
//! `cn_gen_*` instrumentation (per-thread production, merge totals, the
//! time helpers waited on the writer) plus an example-level written-events counter
//! and export span. Progress is reported from periodic registry
//! snapshots, and the full Prometheus exposition is printed at the end —
//! the same text a scrape endpoint would serve.
//!
//! The export goes through `RecordSource::drain` — the fallible pull to
//! exhaustion, then `finish()` for the `StreamStats` receipt — so a
//! generator failure surfaces as a typed `StreamError` that aborts the export instead of
//! silently truncating the file: an exporter that ends on `Ok(None)` and
//! a `finish()` receipt *knows* it wrote the whole trace.
//!
//! Run with: `cargo run --release --example streaming_export`

use cellular_cp_traffgen::gen::ShardedStream;
use cellular_cp_traffgen::obs::{Registry, Span};
use cellular_cp_traffgen::prelude::*;
use cellular_cp_traffgen::trace::{RecordSource, TraceSummary};
use std::io::{BufWriter, Write};
use std::time::Instant;

/// Print one progress line from a registry snapshot: everything in it —
/// helper count, merge totals, time waiting on the writer — comes from
/// the metrics layer, not from hand-maintained loop variables.
fn report(registry: &Registry, started: Instant) {
    let snap = registry.snapshot();
    let written = snap.counter("cn_example_export_written_total").unwrap_or(0);
    let stalled_ms = snap
        .counter_total("cn_gen_shard_stall_ns_total")
        .unwrap_or(0)
        / 1_000_000;
    let rate = written as f64 / started.elapsed().as_secs_f64();
    eprintln!(
        "  ... {written} events written ({rate:.0} events/s), \
         {} helper threads, {stalled_ms} ms spent waiting on the writer",
        snap.gauge("cn_gen_shard_workers").unwrap_or(0),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fit once at modest scale.
    let model_mix = PopulationMix::new(120, 50, 25);
    let world = generate_world(&WorldConfig::new(model_mix, 2.0, 77));
    let models = fit(&world, &FitConfig::new(Method::Ours));

    // Stream a 12-hour trace for a 10× population straight to disk,
    // generated on all cores (config.threads = 0 → one thread per core).
    let config = GenConfig::new(model_mix.scaled(10.0), Timestamp::at_hour(0, 8), 12.0, 5);
    let path = std::env::temp_dir().join("cp_traffgen_stream.csv");
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "t_ms,ue,device,event")?;

    let registry = Registry::new();
    let written = registry.counter("cn_example_export_written_total");
    let span = Span::start(&registry, "cn_example_export_ns");
    let stream = ShardedStream::new_observed(&models, &config, &registry);
    let started = Instant::now();
    let mut next_report = 50_000;
    // `drain` pulls through the fallible API and then takes `finish`'s
    // receipt (helpers joined, generation completed): a generator panic
    // arrives here as a typed StreamError and a dead disk as the io::Error
    // — never as an early end that would leave a truncated CSV posing as
    // complete.
    let stats = stream.drain(|rec| -> Result<(), Box<dyn std::error::Error>> {
        writeln!(
            out,
            "{},{},{},{}",
            rec.t.as_millis(),
            rec.ue.get(),
            rec.device.abbrev(),
            rec.event.mnemonic()
        )?;
        written.inc();
        if written.get() >= next_report {
            report(&registry, started);
            next_report += 50_000;
        }
        Ok(())
    })?;
    out.flush()?;
    span.finish();
    let total = written.get();
    assert_eq!(stats.events, total, "the receipt counts what we wrote");
    let rate = total as f64 / started.elapsed().as_secs_f64();
    let workers = if stats.outcomes.is_empty() {
        "ran on the calling thread alone".to_string()
    } else {
        format!("{} threads completed", stats.outcomes.len())
    };
    println!(
        "streamed {total} events for {} UEs to {} ({rate:.0} events/s end to end; {workers})",
        config.population.total(),
        path.display(),
    );

    // The final snapshot is the pipeline's flight recorder. The merge
    // counter must agree exactly with what reached the file — the same
    // ledger invariant `cn-gen`'s observed-stream tests assert.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("cn_gen_merge_events_total"), Some(total));
    println!(
        "\n# final metrics (Prometheus exposition)\n{}",
        snap.prometheus()
    );

    // Read back and summarize — the interchange formats round-trip.
    let data = std::fs::read(&path)?;
    let trace =
        cellular_cp_traffgen::trace::io::read_csv(&data[..]).expect("re-read what we just wrote");
    println!("{}", TraceSummary::of(&trace));
    assert_eq!(trace.len() as u64, total);
    std::fs::remove_file(&path)?;
    Ok(())
}
