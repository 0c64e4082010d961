//! `synth-week`: 20 000 UEs over the paper's one-week horizon, drained
//! through `ShardedStream::new` (the default, auto-sharded surface).
//! `cn-gen` sampling and the calendar-queue merge do all the work;
//! scenario, live and DES do none.

use crate::harness::{hash_metric, RecordHash, Staged};
use crate::run::{timed_reps, timed_set_up, Options, Outcome, Rep, Stopwatch};
use crate::setup::{gen_config, set_up};
use cn_fit::ModelSet;
use cn_gen::{GenConfig, PopulationStream, ShardedStream, UeEventIter};
use cn_obs::Registry;
use cn_trace::UeId;

const UES: u32 = 20_000;
const HOURS: f64 = 168.0;
/// UEs the merge-free per-UE stage iterates.
const PER_UE_SAMPLE: u32 = 2_000;

/// Drain a sharded stream to exhaustion; `(hash, shards' worker threads)`.
fn drain_sharded(mut stream: ShardedStream<'_>) -> (RecordHash, usize) {
    let workers = stream.worker_threads();
    let mut hash = RecordHash::default();
    while let Some(r) = stream.try_next().expect("no shard worker fails") {
        hash.push(&r);
    }
    let stats = stream.finish().expect("every shard worker completed");
    assert_eq!(stats.events, hash.count, "StreamStats counts every record");
    (hash, workers)
}

fn drain_sequential(models: &ModelSet, config: &GenConfig) -> RecordHash {
    let mut hash = RecordHash::default();
    for r in PopulationStream::new(models, config) {
        hash.push(&r);
    }
    hash
}

/// A repetition is correct when it is sorted and identical to the
/// single-threaded baseline; otherwise all its records count as failed.
fn check_rep(out: &mut Outcome, what: &str, got: &RecordHash, want: &RecordHash) {
    out.attempted += want.count;
    if got != want {
        out.failed += want.count;
    }
    out.check(got.sorted, || format!("{what}: records out of time order"));
    out.check(got == want, || {
        format!(
            "{what}: {} records fnv {:016x}, the sequential baseline has {} records fnv {:016x}",
            got.count,
            got.fnv(),
            want.count,
            want.fnv()
        )
    });
}

pub fn end_to_end(opts: &Options, out: &mut Outcome) {
    let models = timed_set_up(opts, out);
    let config = gen_config(opts.scale.ues(UES), HOURS, opts.seed);
    // The single-threaded surface: the reference every repetition must
    // reproduce, and the warm-up.
    let baseline = drain_sequential(&models, &config);
    out.check(baseline.count > 0, || "the baseline is empty".into());
    timed_reps(opts.seconds, out, |i, out| {
        let watch = Stopwatch::start();
        let (hash, _) = drain_sharded(ShardedStream::new(&models, &config));
        let (wall_s, cpu_s) = watch.stop();
        check_rep(out, &format!("rep {i}"), &hash, &baseline);
        Rep {
            events: hash.count,
            wall_s,
            cpu_s,
        }
    });
}

pub fn traced(opts: &Options, out: &mut Outcome) {
    let mut staged = Staged::new("synth-week");
    let (models, setup) = set_up(opts.seed, opts.scale, Some(&mut staged));
    out.set_setup_layers(&setup);
    let config = gen_config(opts.scale.ues(UES), HOURS, opts.seed);

    let (baseline, seq_s) =
        staged.stage("gen", "sequential", || drain_sequential(&models, &config));
    let events = baseline.count as f64;
    let ((sharded, workers), sharded_s) = staged.stage("gen", "sharded", || {
        drain_sharded(ShardedStream::new(&models, &config))
    });
    check_rep(out, "sharded", &sharded, &baseline);
    let registry = Registry::new();
    let ((observed, _), observed_s) = staged.stage("gen", "sharded_observed", || {
        drain_sharded(ShardedStream::new_observed(&models, &config, &registry))
    });
    check_rep(out, "sharded_observed", &observed, &baseline);

    // Sampling without any merge: one iterator per UE, drained in turn, the
    // sample strided across the population so it has the population's mix.
    let sample = opts.scale.ues(PER_UE_SAMPLE).max(1);
    let stride = (config.population.total() / sample).max(1);
    let (per_ue_events, per_ue_s) = staged.stage("gen", "per_ue", || {
        let mut n = 0u64;
        for ue in (0..sample).map(|i| i * stride) {
            let device = config.device_of(ue);
            n += UeEventIter::new(
                models.device(device),
                models.method,
                UeId(ue),
                config.start,
                config.end(),
                config.seed ^ u64::from(ue),
            )
            .count() as u64;
        }
        n
    });
    out.check(per_ue_events > 0, || {
        "the per-UE stage generated nothing".into()
    });

    let seq_ns = seq_s * 1e9 / events;
    let per_ue_ns = per_ue_s * 1e9 / per_ue_events.max(1) as f64;
    out.set("gen.seq_events_per_s", events / seq_s);
    out.set("gen.shards", cn_gen::effective_parallelism() as f64);
    out.set("gen.worker_threads", workers as f64);
    out.set("gen.parallel_speedup", seq_s / sharded_s);
    out.set("gen.per_ue_ns_per_event", per_ue_ns);
    out.set("gen.merge_ns_per_event", seq_ns - per_ue_ns);
    out.set("gen.stream_fnv64", hash_metric(baseline.fnv()));
    out.set("obs.gen_overhead_ratio", observed_s / sharded_s);
    out.set_staged(&mut staged, opts, "synth-week");
}
