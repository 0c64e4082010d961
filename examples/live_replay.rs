//! Serve a synthetic busy hour as a live feed, and consume it.
//!
//! The batch engines hand you a finished trace; some consumers — a
//! core-network emulator under test, a dashboard, a load generator —
//! want the *events as they happen* instead. `cn-live` turns any engine
//! stream into that: a TCP server that paces each record against its
//! absolute wall deadline at a configurable time-compression factor —
//! never early, at most one 500 µs pacing quantum late — and ships it in
//! the same 14-byte binary framing the batch writers use.
//!
//! This example serves one synthetic hour at 600x compression (the hour
//! replays in six wall seconds) to an in-process TCP consumer, with the
//! introspection plane mounted: a flight recorder samples the server's
//! registry four times a second, and a once-a-second status line —
//! emission rate, windowed lag p99, backlog — is read *from the
//! recorder's latest frame*, exactly the way a dashboard polling
//! `/status` would see it. While it runs, the printed HTTP address
//! serves `/metrics`, `/status`, and `/recorder` to any scraper.
//! Because pacing is open-loop against absolute deadlines, a slow
//! moment never shifts the rest of the schedule — lag is transient and
//! observable, not accumulated and silent.
//!
//! Run with: `cargo run --release --example live_replay`

use cellular_cp_traffgen::live::{
    capture, IntrospectionConfig, LiveConfig, LiveServer, SystemClock,
};
use cellular_cp_traffgen::obs::Registry;
use cellular_cp_traffgen::prelude::*;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    // Model + synthesize: the usual fit-then-generate loop.
    let world = generate_world(&WorldConfig::new(PopulationMix::new(30, 10, 5), 2.0, 7));
    let models = fit(&world, &FitConfig::new(Method::Ours));
    let config = GenConfig::new(
        PopulationMix::new(120, 40, 20),
        Timestamp::at_hour(0, 18),
        1.0,
        42,
    );

    // A live server replaying that hour 600x faster than real time.
    let registry = Registry::new();
    let mut live = LiveConfig::new(600.0);
    live.queue_frames = 1 << 14;
    let server = LiveServer::new(SystemClock::new(), live, &registry).expect("live config");
    let addr = server.bind("127.0.0.1:0").expect("bind localhost");

    // Mount the introspection plane: an HTTP listener next to the
    // traffic port, backed by a 4 Hz flight recorder.
    let mut introspect = IntrospectionConfig::new();
    introspect.recorder.interval = std::time::Duration::from_millis(250);
    let obs_addr = server
        .mount_introspection(introspect)
        .expect("mount introspection");
    println!("serving one synthetic hour at 600x on {addr} ...");
    println!("introspection at http://{obs_addr}/status (also /metrics, /recorder)");

    // The 1 Hz status line, read from the flight recorder's latest
    // frame — windowed rate and windowed lag p99, not cumulative.
    let recorder = server.recorder().expect("recorder mounted");
    let stop_status = Arc::new(AtomicBool::new(false));
    let status = {
        let stop = Arc::clone(&stop_status);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(1_000));
                let Some(frame) = recorder.latest() else {
                    continue;
                };
                let rate = frame
                    .window
                    .rates
                    .iter()
                    .find(|r| r.name == "cn_live_emitted_total")
                    .map_or(0.0, |r| r.per_s);
                let lag_p99 = frame
                    .window
                    .histograms
                    .iter()
                    .find(|h| h.name == "cn_live_lag_ms")
                    .and_then(|h| h.delta.quantile_est(0.99))
                    .unwrap_or(0.0);
                let backlog = frame.snapshot.gauge("cn_live_backlog_blocks").unwrap_or(0);
                println!(
                    "  t+{:>5} ms  {:>8.0} rec/s  lag p99 ~{:>6.1} ms  backlog {backlog}",
                    frame.t_ms, rate, lag_p99
                );
            }
        })
    };

    // The consumer: connect, drain to end-of-stream, keep everything.
    let consumer = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        // Buffered: a block written is a block read, not a `read(2)` per frame.
        capture(BufReader::with_capacity(64 << 10, stream)).expect("drain live stream")
    });
    while server.hub().consumer_count() < 1 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Serve the stream to exhaustion (blocks for ~6 wall seconds).
    let source = cellular_cp_traffgen::gen::ShardedStream::new(&models, &config);
    let started = std::time::Instant::now();
    let report = server.serve(source, 0, None).expect("serve");
    let wall = started.elapsed();

    stop_status.store(true, Ordering::Relaxed);
    status.join().expect("status thread");
    let captured = consumer.join().expect("consumer thread");
    println!(
        "served {} records in {wall:.2?}; consumer captured {} records, \
         end-of-stream watermark {:?}",
        report.served,
        captured.records.len(),
        captured.end,
    );
    captured.verdict(0).expect("consumer kept up");

    // The server's own view, straight from the metrics registry.
    let snap = registry.snapshot();
    let lag = snap.histogram("cn_live_lag_ms").expect("lag histogram");
    println!(
        "telemetry: emitted={} lag p50~{:.1}ms p99~{:.1}ms backlog_peak={} drops={}",
        snap.counter("cn_live_emitted_total").unwrap_or(0),
        lag.quantile_est(0.50).unwrap_or(0.0),
        lag.quantile_est(0.99).unwrap_or(0.0),
        snap.gauge("cn_live_backlog_blocks").unwrap_or(0),
        snap.counter("cn_live_drops_total").unwrap_or(0),
    );
}
