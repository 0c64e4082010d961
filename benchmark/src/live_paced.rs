//! `live-paced`: 20 000 UEs with one storm block, served by
//! `LiveServer<SystemClock>` at 3600× compression over host **loopback**
//! TCP to **one** consumer thread.
//!
//! **Open loop**: the server emits on its own schedule whether or not the
//! consumer keeps up; one connection, one consumer thread. The consumer
//! reads through a 64 KiB `BufReader` (a bare `LiveReader` on a `TcpStream`
//! is one syscall per 14-byte frame, which would measure the harness).
//! `--seconds` sets the length of the served trace: one trace hour per wall
//! second, never less than the storm block needs.

use crate::harness::{LagHist, LogLinHist, RecordHash, Staged};
use crate::run::{report_reps, timed_set_up, Options, Outcome, Rep, Stopwatch};
use crate::setup::{gen_config, set_up, storm_spec, STORM_BLOCK_HOURS};
use crate::staging;
use cn_gen::ShardedStream;
use cn_live::{
    encode_frame, Clock, Frame, Hub, LiveConfig, LiveReader, LiveReport, LiveServer, Pacer,
    SystemClock, FRAME_BYTES,
};
use cn_obs::{Histogram, Registry};
use cn_scenario::{IterSource, RecordSource, ScenarioStream};
use cn_trace::io::BINARY_MAGIC;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const UES: u32 = 20_000;
/// Trace time over wall time: one trace hour per wall second.
const COMPRESSION: f64 = 3_600.0;
const QUEUE_FRAMES: usize = 1 << 16;
const CONSUMER_BUFFER: usize = 64 << 10;
/// Frames the flat-out hub and socket stages push.
const HUB_STAGE_FRAMES: usize = 1 << 20;
/// Share of the deadline schedule the I/O-free pacer stage replays.
const PACE_STAGE_SHARE: f64 = 0.3;

fn compression(opts: &Options) -> f64 {
    if opts.scale.smoke {
        COMPRESSION * 20.0
    } else {
        COMPRESSION
    }
}

fn hours(opts: &Options) -> f64 {
    let wall_hours = opts.seconds * compression(opts) / 3_600.0;
    wall_hours.max(STORM_BLOCK_HOURS + 0.5)
}

/// What the consumer thread saw.
#[derive(Default)]
struct Consumed {
    hash: RecordHash,
    gap_frames: u64,
    gap_dropped: u64,
    end: Option<u64>,
    /// Trace time of the first and last record, ms.
    span_ms: Option<(u64, u64)>,
    lag: LagHist,
    error: Option<String>,
}

/// The consumer: connect, then decode frames until the server closes. For
/// record *i* with trace time *tᵢ* received at monotonic *rᵢ*, the offset
/// *oᵢ = rᵢ − (tᵢ − t₀) / compression* goes into the lag histogram; lag is
/// min-anchored there (the consumer has no access to the server's origin).
fn consume(addr: SocketAddr, compression: f64) -> Consumed {
    let mut seen = Consumed::default();
    let run = |seen: &mut Consumed| -> Result<(), String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::with_capacity(CONSUMER_BUFFER, stream);
        let mut reader = LiveReader::new(reader).map_err(|e| format!("stream header: {e}"))?;
        let ns_per_trace_ms = 1e6 / compression;
        let origin = Instant::now();
        let mut anchor_ns = None;
        while let Some(frame) = reader.next_frame().map_err(|e| format!("frame: {e}"))? {
            match frame {
                Frame::Record(r) => {
                    let rx_ns = origin.elapsed().as_nanos() as i64;
                    let t_ms = r.t.as_millis();
                    let (t0_ms, _) = *seen.span_ms.get_or_insert((t_ms, t_ms));
                    seen.span_ms = Some((t0_ms, t_ms));
                    let offset_ns = rx_ns - ((t_ms - t0_ms) as f64 * ns_per_trace_ms) as i64;
                    seen.lag
                        .record(offset_ns - *anchor_ns.get_or_insert(offset_ns));
                    seen.hash.push(&r);
                }
                Frame::Gap { dropped } => {
                    seen.gap_frames += 1;
                    seen.gap_dropped += dropped;
                }
                Frame::End { emitted } => seen.end = Some(emitted),
            }
        }
        Ok(())
    };
    seen.error = run(&mut seen).err();
    seen
}

struct Served {
    report: LiveReport,
    seen: Consumed,
    wall_s: f64,
    cpu_s: f64,
}

/// Serve `source` paced to one loopback consumer. The timed region runs
/// from the start of `serve` to the consumer's last frame.
fn serve_paced<S: RecordSource>(source: S, compression: f64, registry: &Registry) -> Served {
    let config = LiveConfig {
        queue_frames: QUEUE_FRAMES,
        ..LiveConfig::new(compression)
    };
    let server = LiveServer::new(SystemClock::new(), config, registry).expect("valid live config");
    let addr = server.bind("127.0.0.1:0").expect("bind a loopback port");
    std::thread::scope(|scope| {
        let consumer = scope.spawn(move || consume(addr, compression));
        // The stream starts at attachment: serve only once the consumer is in.
        let waiting = Instant::now();
        while server.hub().consumer_count() < 1 {
            assert!(
                waiting.elapsed() < Duration::from_secs(10),
                "the consumer never attached to the live server"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let watch = Stopwatch::start();
        let report = server
            .serve(source, 0, None)
            .expect("the source does not fail");
        let seen = consumer.join().expect("the consumer thread does not panic");
        let (wall_s, cpu_s) = watch.stop();
        Served {
            report,
            seen,
            wall_s,
            cpu_s,
        }
    })
}

/// The workload's checks: zero gaps, End watermark = emitted, and the
/// consumer's records are exactly the batch overlay's.
fn check_served(out: &mut Outcome, served: &Served, want: &RecordHash) {
    let (report, seen) = (&served.report, &served.seen);
    out.attempted += want.count;
    out.failed += want.count.saturating_sub(seen.hash.count) + seen.gap_dropped;
    if let Some(e) = &seen.error {
        out.failures.push(format!("the consumer failed: {e}"));
    }
    out.check(report.completed && seen.end == Some(report.emitted), || {
        format!(
            "End watermark {:?}, server emitted {} (completed: {})",
            seen.end, report.emitted, report.completed
        )
    });
    out.check(seen.gap_frames == 0 && seen.gap_dropped == 0, || {
        format!(
            "{} gap frames, {} records dropped",
            seen.gap_frames, seen.gap_dropped
        )
    });
    out.check(
        report.consumers.len() == 1
            && report
                .consumers
                .iter()
                .all(|c| c.as_ref().is_ok_and(|c| c.dropped == 0)),
        || format!("consumer verdicts: {:?}", report.consumers),
    );
    out.check(seen.hash == *want, || {
        format!(
            "the consumer got {} records fnv {:016x} (sorted: {}), the batch overlay has {} fnv {:016x}",
            seen.hash.count,
            seen.hash.fnv(),
            seen.hash.sorted,
            want.count,
            want.fnv()
        )
    });
}

/// Serve wall over the ideal (trace span / compression); above ~1.02 the
/// server is running behind its schedule and a backlog is growing.
fn wall_over_ideal(served: &Served, compression: f64) -> f64 {
    let (first, last) = served.seen.span_ms.unwrap_or((0, 0));
    let ideal_s = (last - first) as f64 / 1e3 / compression;
    if ideal_s > 0.0 {
        served.wall_s / ideal_s
    } else {
        0.0
    }
}

pub fn end_to_end(opts: &Options, out: &mut Outcome) {
    let models = timed_set_up(opts, out);
    let ues = opts.scale.ues(UES);
    let config = gen_config(ues, hours(opts), opts.seed);
    let spec = storm_spec(ues, opts.seed, &[0.0]);
    let fused = || {
        ScenarioStream::new(
            &spec,
            &config,
            ShardedStream::new(&models, &config),
            &Registry::disabled(),
        )
        .expect("the storm spec validates")
    };
    // The batch overlay, flat out: the reference, and the warm-up.
    let mut want = RecordHash::default();
    let mut batch = fused();
    while let Some(r) = batch.try_next().expect("no shard worker fails") {
        want.push(&r);
    }
    batch.finish().expect("every shard worker completed");

    let served = serve_paced(fused(), compression(opts), &Registry::disabled());
    check_served(out, &served, &want);
    out.notes.push(format!(
        "lag p50 {:.1} us, p90 {:.1} us over {} records; wall/ideal {:.4}",
        served.seen.lag.lag_quantile_us(0.5),
        served.seen.lag.lag_quantile_us(0.9),
        served.seen.lag.count(),
        wall_over_ideal(&served, compression(opts))
    ));
    report_reps(
        out,
        &[Rep {
            events: served.seen.hash.count,
            wall_s: served.wall_s,
            cpu_s: served.cpu_s,
        }],
    );
}

/// Push `frames` through a fresh hub into `sink` flat out and wind it down;
/// true when every frame (and the End marker) was written, none dropped.
/// The queue is as deep as the input, so the never-blocking broadcaster
/// cannot overflow it: this times the per-frame channel hop, not the drop
/// path.
fn hub_flat_out<W: std::io::Write + Send + 'static>(frames: &[[u8; FRAME_BYTES]], sink: W) -> bool {
    let hub = Hub::new(frames.len() + 16, &Registry::disabled());
    hub.add_writer(sink);
    for frame in frames {
        hub.broadcast(*frame);
    }
    let reports = hub.finish(frames.len() as u64);
    reports.len() == 1
        && reports.iter().all(|r| {
            r.as_ref()
                .is_ok_and(|r| r.dropped == 0 && r.frames_written == frames.len() as u64 + 1)
        })
}

pub fn traced(opts: &Options, out: &mut Outcome) {
    let mut staged = Staged::new("live-paced");
    let (models, setup) = set_up(opts.seed, opts.scale, Some(&mut staged));
    out.set_setup_layers(&setup);
    let ues = opts.scale.ues(UES);
    let config = gen_config(ues, hours(opts), opts.seed);
    let spec = storm_spec(ues, opts.seed, &[0.0]);
    let compression = compression(opts);

    let (baseline, _) = staging::baseline(&mut staged, &models, &config);
    let (overlaid, _) = staging::scenario(&mut staged, out, &spec, &config, &baseline);
    drop(baseline);
    let mut want = RecordHash::default();
    overlaid.iter().for_each(|r| want.push(r));
    let n = overlaid.len().max(1) as f64;

    let (frames, encode_s) = staged.stage("live", "encode", || {
        overlaid
            .iter()
            .map(|r| encode_frame(&Frame::Record(*r)))
            .collect::<Vec<_>>()
    });
    out.set("live.encode_ns_per_frame", encode_s * 1e9 / n);

    let pushed = &frames[..frames.len().min(HUB_STAGE_FRAMES)];
    let (ok, hub_s) = staged.stage("live", "hub", || hub_flat_out(pushed, std::io::sink()));
    out.check(ok, || "the hub stage lost frames".into());
    let hub_ns = hub_s * 1e9 / pushed.len().max(1) as f64;
    out.set("live.hub_ns_per_frame", hub_ns);

    // The same hop with a loopback socket as the writer's sink; the reader
    // discards through a buffer the size of the consumer's.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let ((ok, received), socket_s) = staged.stage("live", "socket", || {
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let (mut stream, _) = listener.accept().expect("accept the hub's connection");
                let mut buffer = vec![0u8; CONSUMER_BUFFER];
                let mut received = 0u64;
                loop {
                    match stream.read(&mut buffer) {
                        Ok(0) => return received,
                        Ok(n) => received += n as u64,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => panic!("loopback read: {e}"),
                    }
                }
            });
            let stream = TcpStream::connect(addr).expect("connect over loopback");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            let ok = hub_flat_out(pushed, stream);
            (ok, reader.join().expect("the reader thread does not panic"))
        })
    });
    out.check(
        ok && received == (16 + (pushed.len() + 1) * FRAME_BYTES) as u64,
        || {
            format!(
                "the socket stage delivered {received} bytes of {} frames",
                pushed.len()
            )
        },
    );
    // Wall time over wall time: the socket writes overlap the broadcaster on
    // a second core, so this reads 0 until the socket is what the hop waits on.
    let socket_ns = socket_s * 1e9 / pushed.len().max(1) as f64 - hub_ns;
    out.set("live.socket_ns_per_frame", socket_ns.max(0.0));

    let mut wire = Vec::with_capacity(16 + (frames.len() + 1) * FRAME_BYTES);
    wire.extend_from_slice(BINARY_MAGIC);
    wire.extend_from_slice(&0u64.to_le_bytes());
    frames.iter().for_each(|f| wire.extend_from_slice(f));
    wire.extend_from_slice(&encode_frame(&Frame::End {
        emitted: frames.len() as u64,
    }));
    drop(frames);
    let (decoded, decode_s) = staged.stage("live", "decode", || {
        let mut reader = LiveReader::new(&wire[..]).expect("the header was just written");
        let mut hash = RecordHash::default();
        while let Some(frame) = reader.next_frame().expect("the frames were just encoded") {
            if let Frame::Record(r) = frame {
                hash.push(&r);
            }
        }
        hash
    });
    drop(wire);
    out.check(decoded == want, || {
        "the wire round trip changed the records".into()
    });
    out.set("live.decode_ns_per_frame", decode_s * 1e9 / n);

    // The pacer alone on the head of the workload's own deadline schedule.
    let mut overshoot = LogLinHist::default();
    if let (Some(first), Some(last)) = (overlaid.first(), overlaid.last()) {
        let t0 = first.t.as_millis();
        let until = t0 + ((last.t.as_millis() - t0) as f64 * PACE_STAGE_SHARE) as u64;
        staged.stage("live", "pace", || {
            let clock = SystemClock::new();
            let pacer = Pacer::new(&clock as &dyn Clock, compression, t0, Histogram::noop());
            for r in overlaid.iter().take_while(|r| r.t.as_millis() <= until) {
                overshoot.record(pacer.pace(r.t.as_millis()));
            }
        });
    }
    out.set("live.pace_overshoot_p50_us", overshoot.quantile(0.5) / 1e3);
    out.set("live.pace_overshoot_p99_us", overshoot.quantile(0.99) / 1e3);

    let registry = Registry::new();
    let (served, _) = staged.stage("live", "serve", || {
        serve_paced(IterSource(overlaid.iter().copied()), compression, &registry)
    });
    check_served(out, &served, &want);
    let lag = &served.seen.lag;
    out.set("live.lag_p50_us", lag.lag_quantile_us(0.5));
    out.set("live.lag_p90_us", lag.lag_quantile_us(0.9));
    out.set("live.lag_p99_us", lag.lag_quantile_us(0.99));
    out.set("live.lag_p999_us", lag.lag_quantile_us(0.999));
    out.set("live.lag_max_us", lag.lag_max_us());
    out.set("live.lag_samples", lag.count() as f64);
    out.check(lag.underflow == 0, || {
        format!(
            "{} lag samples fell below the histogram's range",
            lag.underflow
        )
    });
    out.set(
        "live.wall_over_ideal",
        wall_over_ideal(&served, compression),
    );
    out.set(
        "live.backlog_peak_frames",
        registry.gauge("cn_live_backlog_blocks").get() as f64,
    );
    out.set(
        "live.drops",
        registry.counter("cn_live_drops_total").get() as f64,
    );
    out.set("live.gaps", served.seen.gap_frames as f64);
    out.set_staged(&mut staged, opts, "live-paced");
}
