//! `storm-des`: 20 000 UEs with one storm block per trace day, fused
//! `ShardedStream → ScenarioStream → DesSim::offer → finish` in-process.
//! `cn-mcn::des` does most of the work, `cn-scenario` injection is
//! exercised, live does none.
//!
//! Two clocks appear here and must not be mixed: `events_per_s` is **host**
//! records per second of wall time; every `des.sim_*` number, shed count and
//! utilisation is **simulated** and repeats exactly for a given seed.

use crate::harness::{fnv_bytes, hash_metric, Staged};
use crate::run::{timed_reps, timed_set_up, Options, Outcome, Rep, Stopwatch};
use crate::setup::{des_config, gen_config, set_up, storm_spec, STORM_BLOCK_HOURS};
use crate::staging;
use cn_gen::{GenConfig, ShardedStream};
use cn_mcn::nf::{NetworkFunction, TransactionMatrix};
use cn_mcn::{DesConfig, DesReport, DesSim, NfConfig};
use cn_obs::Registry;
use cn_scenario::{ScenarioSpec, ScenarioStream};
use cn_stats::{Dist, Exponential};
use cn_trace::{DeviceType, EventType, Timestamp, TraceRecord, UeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const UES: u32 = 20_000;
const HOURS: f64 = 12.0;
/// Jobs of the single-NF M/M/c stage.
const MMC_JOBS: u32 = 1_000_000;

/// One storm block per trace day that has room for it.
fn anchors(hours: f64) -> Vec<f64> {
    (0..)
        .map(|day| f64::from(day) * 24.0)
        .take_while(|anchor| anchor + STORM_BLOCK_HOURS <= hours)
        .collect()
}

/// Generator → overlay → simulator, nothing materialised in between.
fn fused(
    stream: ShardedStream<'_>,
    spec: &ScenarioSpec,
    config: &GenConfig,
    des: &DesConfig,
) -> DesReport {
    let mut stream = ScenarioStream::new(spec, config, stream, &Registry::disabled())
        .expect("the storm spec validates");
    let mut sim = DesSim::new(des.clone()).expect("the simulator configuration validates");
    while let Some(r) = stream.try_next().expect("no shard worker fails") {
        sim.offer(&r).expect("a scenario stream is time-sorted");
    }
    stream.finish().expect("every shard worker completed");
    sim.finish()
}

fn check_conservation(out: &mut Outcome, what: &str, report: &DesReport) {
    out.check(
        report.offered == report.completed + report.total_shed(),
        || {
            format!(
                "{what}: offered {} != completed {} + shed {}",
                report.offered,
                report.completed,
                report.total_shed()
            )
        },
    );
}

pub fn end_to_end(opts: &Options, out: &mut Outcome) {
    let models = timed_set_up(opts, out);
    let ues = opts.scale.ues(UES);
    let config = gen_config(ues, HOURS, opts.seed);
    let spec = storm_spec(ues, opts.seed, &anchors(HOURS));
    let des = des_config(ues, opts.seed);
    let run = || fused(ShardedStream::new(&models, &config), &spec, &config, &des);
    // The warm-up repetition is discarded as a timing and kept as the
    // reference: simulated results must repeat field for field.
    let reference = run();
    check_conservation(out, "warm-up", &reference);
    out.notes.push(format!(
        "simulated: offered {} shed {} p99 {:.1} ms",
        reference.offered,
        reference.total_shed(),
        reference.p99_latency_ms
    ));
    timed_reps(opts.seconds, out, |i, out| {
        let watch = Stopwatch::start();
        let report = run();
        let (wall_s, cpu_s) = watch.stop();
        out.attempted += reference.offered;
        if report != reference {
            out.failed += reference.offered;
        }
        out.check(report == reference, || {
            format!("rep {i}: the simulation report differs from the warm-up's")
        });
        Rep {
            events: report.offered,
            wall_s,
            cpu_s,
        }
    });
}

/// A single-NF M/M/c: Poisson arrivals at 70 % of what four exponential
/// 10 ms servers can carry, one transaction per job, no autoscaling, no
/// admission control — the simulator's event loop without the fan-out.
fn mmc(jobs: u32, seed: u64) -> (DesConfig, Vec<TraceRecord>) {
    const SERVERS: usize = 4;
    const MEAN_SERVICE_US: f64 = 10_000.0;
    let config = DesConfig {
        seed,
        nfs: vec![NfConfig {
            nf: NetworkFunction::Mme,
            servers: SERVERS,
            service: Dist::Exponential(
                Exponential::new(1.0 / MEAN_SERVICE_US).expect("a positive rate"),
            ),
            autoscale: None,
        }],
        matrix: TransactionMatrix {
            transactions: [[1, 0, 0, 0, 0]; 6],
        },
        admission: None,
    };
    let mean_gap_ms = MEAN_SERVICE_US / 1e3 / SERVERS as f64 / 0.7;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t_ms = 0.0f64;
    let arrivals = (0..jobs)
        .map(|job| {
            // 1 - U lies in (0, 1]: the logarithm stays finite.
            t_ms -= (1.0 - rng.gen::<f64>()).ln() * mean_gap_ms;
            TraceRecord::new(
                Timestamp::from_millis(t_ms as u64),
                UeId(job % UES),
                DeviceType::Phone,
                EventType::ServiceRequest,
            )
        })
        .collect();
    (config, arrivals)
}

fn offer_all(config: &DesConfig, records: &[TraceRecord]) -> DesReport {
    let mut sim = DesSim::new(config.clone()).expect("the simulator configuration validates");
    for r in records {
        sim.offer(r).expect("the records are time-sorted");
    }
    sim.finish()
}

pub fn traced(opts: &Options, out: &mut Outcome) {
    let mut staged = Staged::new("storm-des");
    let (models, setup) = set_up(opts.seed, opts.scale, Some(&mut staged));
    out.set_setup_layers(&setup);
    let ues = opts.scale.ues(UES);
    let config = gen_config(ues, HOURS, opts.seed);
    let spec = storm_spec(ues, opts.seed, &anchors(HOURS));
    let des = des_config(ues, opts.seed);

    let (baseline, gen_s) = staging::baseline(&mut staged, &models, &config);
    let (overlaid, overlay_s) = staging::scenario(&mut staged, out, &spec, &config, &baseline);
    drop(baseline);
    let (report, offer_s) = staged.stage("mcn", "offer", || offer_all(&des, &overlaid));
    check_conservation(out, "staged", &report);
    out.attempted += report.offered;
    out.check(report.offered == overlaid.len() as u64, || {
        format!("{} records offered of {}", report.offered, overlaid.len())
    });
    drop(overlaid);

    // The same pipeline fused on one thread: how far is the staged sum from it?
    let (fused_report, fused_s) = staged.stage("pipeline", "fused_single_shard", || {
        fused(
            ShardedStream::with_shards(&models, &config, 1),
            &spec,
            &config,
            &des,
        )
    });
    if fused_report != report {
        out.failed += report.offered;
    }
    out.check(fused_report == report, || {
        "the fused and the staged simulation reports differ".into()
    });
    out.set(
        "pipeline.attribution_residual",
        (1.0 - (gen_s + overlay_s + offer_s) / fused_s).abs(),
    );

    let jobs = opts.scale.ues(MMC_JOBS);
    let (mmc_config, arrivals) = mmc(jobs, opts.seed);
    let (mmc_report, mmc_s) = staged.stage("mcn", "mmc", || offer_all(&mmc_config, &arrivals));
    out.check(mmc_report.completed == u64::from(jobs), || {
        format!(
            "the M/M/c completed {} of {jobs} jobs",
            mmc_report.completed
        )
    });
    out.set("des.mmc_events_per_s", f64::from(jobs) / mmc_s);

    let mme = report
        .per_nf
        .iter()
        .find(|nf| nf.nf == NetworkFunction::Mme)
        .expect("the EPC has an MME");
    let stages: u64 = report.per_nf.iter().map(|nf| nf.stages).sum();
    let rendered = serde_json::to_string(&report).expect("a report renders as JSON");
    out.set(
        "des.offer_ns_per_record",
        offer_s * 1e9 / report.offered.max(1) as f64,
    );
    out.set(
        "des.stages_per_record",
        stages as f64 / report.completed.max(1) as f64,
    );
    out.set("des.offered", report.offered as f64);
    out.set("des.completed", report.completed as f64);
    out.set("des.shed", report.total_shed() as f64);
    out.set("des.sim_p50_latency_ms", report.p50_latency_ms);
    out.set("des.sim_p99_latency_ms", report.p99_latency_ms);
    out.set("des.mme_scale_ups", mme.scale_ups as f64);
    out.set("des.mme_utilization", mme.utilization);
    out.set(
        "des.report_fnv64",
        hash_metric(fnv_bytes(rendered.as_bytes())),
    );
    out.set_staged(&mut staged, opts, "storm-des");
}
