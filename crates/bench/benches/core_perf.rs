//! Core performance benchmarks: the hot paths of the library.
//!
//! The paper reports 1.46 / 0.68 / 0.55 seconds to synthesize one UE-hour
//! (phone / connected car / tablet) on a 1.9 GHz Xeon; the
//! `generate_ue_hour` group is our equivalent (expect microseconds —
//! a compiled Semi-Markov sampler, not a Python process per UE).

use cn_cluster::ClusteringParams;
use cn_fit::{fit, FitConfig, Method};
use cn_gen::{generate_ue, PopulationStream};
use cn_mcn::{deterministic_service, DesConfig, DesSim, Mme};
use cn_statemachine::replay_ue;
use cn_stats::fit::{fit_family, Family};
use cn_stats::{ad_test_exponential, ks_test};
use cn_trace::{DeviceType, PopulationMix, Timestamp, Trace, UeId};
use cn_world::{generate_world, simulate_ue, DeviceProfile, WorldConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::OnceLock;

fn small_world() -> &'static Trace {
    static WORLD: OnceLock<Trace> = OnceLock::new();
    WORLD.get_or_init(|| generate_world(&WorldConfig::new(PopulationMix::new(60, 25, 15), 2.0, 7)))
}

fn fitted_models() -> &'static cn_fit::ModelSet {
    static MODELS: OnceLock<cn_fit::ModelSet> = OnceLock::new();
    MODELS.get_or_init(|| fit(small_world(), &FitConfig::new(Method::Ours)))
}

fn bench_world(c: &mut Criterion) {
    let mut group = c.benchmark_group("world_simulation");
    for device in DeviceType::ALL {
        let profile = DeviceProfile::preset(device);
        group.bench_with_input(
            BenchmarkId::new("simulate_ue_day", device.abbrev()),
            &profile,
            |b, profile| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    black_box(simulate_ue(UeId(0), profile, 86_400.0, seed))
                })
            },
        );
    }
    group.finish();
}

fn bench_generator(c: &mut Criterion) {
    let models = fitted_models();
    let mut group = c.benchmark_group("generate_ue_hour");
    let start = Timestamp::at_hour(0, 18);
    let end = Timestamp::at_hour(0, 19);
    for device in DeviceType::ALL {
        group.bench_function(BenchmarkId::from_parameter(device.abbrev()), |b| {
            let dm = models.device(device);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(generate_ue(dm, Method::Ours, UeId(0), start, end, seed))
            })
        });
    }
    group.finish();
}

fn bench_fitting(c: &mut Criterion) {
    let world = small_world();
    let mut group = c.benchmark_group("fitting");
    group.sample_size(10);
    group.throughput(Throughput::Elements(world.len() as u64));
    for method in [Method::Base, Method::Ours] {
        group.bench_function(BenchmarkId::from_parameter(method.name()), |b| {
            b.iter(|| black_box(fit(world, &FitConfig::new(method))))
        });
    }
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let world = small_world();
    let per_ue = world.per_ue();
    let (_, busiest) = per_ue
        .iter()
        .max_by_key(|(_, ev)| ev.len())
        .expect("non-empty world");
    let mut group = c.benchmark_group("replay");
    group.throughput(Throughput::Elements(busiest.len() as u64));
    group.bench_function("replay_ue", |b| b.iter(|| black_box(replay_ue(busiest))));
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let samples: Vec<f64> = (0..2_000)
        .map(|_| rng.gen::<f64>() * 100.0 + 0.01)
        .collect();
    let mut group = c.benchmark_group("statistics");
    for family in Family::PAPER_TABLE {
        group.bench_function(BenchmarkId::new("mle_fit", family.name()), |b| {
            b.iter(|| black_box(fit_family(family, &samples).unwrap()))
        });
    }
    let exp = fit_family(Family::Poisson, &samples).unwrap();
    group.bench_function("ks_test_2k", |b| {
        b.iter(|| black_box(ks_test(&samples, &exp).unwrap()))
    });
    group.bench_function("ad_test_2k", |b| {
        b.iter(|| black_box(ad_test_exponential(&samples).unwrap()))
    });
    group.finish();
}

fn bench_clustering(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let features: Vec<Vec<f64>> = (0..5_000)
        .map(|_| (0..4).map(|_| rng.gen::<f64>() * 150.0).collect())
        .collect();
    let params = ClusteringParams {
        theta_n: 100,
        ..ClusteringParams::default()
    };
    let mut group = c.benchmark_group("clustering");
    group.throughput(Throughput::Elements(features.len() as u64));
    group.bench_function("quadtree_5k_ues", |b| {
        b.iter(|| black_box(cn_cluster::cluster(&features, &params)))
    });
    group.finish();
}

fn bench_trace_ops(c: &mut Criterion) {
    let world = small_world();
    let mut group = c.benchmark_group("trace_ops");
    group.throughput(Throughput::Elements(world.len() as u64));
    group.bench_function("per_ue_grouping", |b| b.iter(|| black_box(world.per_ue())));
    group.bench_function("binary_round_trip", |b| {
        b.iter(|| {
            let bin = cn_trace::io::to_binary(world);
            black_box(cn_trace::io::from_binary(&bin).unwrap())
        })
    });
    let halves: Vec<Trace> = vec![
        world.filter_device(DeviceType::Phone),
        world.filter_device(DeviceType::ConnectedCar),
        world.filter_device(DeviceType::Tablet),
    ];
    group.bench_function("merge_3way", |b| {
        b.iter(|| black_box(Trace::merge(halves.clone())))
    });
    group.finish();
}

fn bench_streaming(c: &mut Criterion) {
    let models = fitted_models();
    let mut group = c.benchmark_group("streaming");
    group.sample_size(20);
    let config = cn_gen::GenConfig::new(
        PopulationMix::new(60, 25, 15),
        Timestamp::at_hour(0, 12),
        2.0,
        11,
    );
    group.bench_function("population_stream_2h", |b| {
        b.iter(|| black_box(PopulationStream::new(models, &config).count()))
    });
    group.bench_function("batch_generate_2h", |b| {
        b.iter(|| black_box(cn_gen::generate(models, &config)))
    });
    group.finish();
}

fn bench_hurst(c: &mut Criterion) {
    let world = small_world();
    let times: Vec<u64> = world.iter().map(|r| r.t.as_millis()).collect();
    let end = world.end().map_or(0, |e| e.as_millis());
    let bins = cn_stats::variance_time::bin_counts(&times, 0, end);
    let mut group = c.benchmark_group("hurst");
    group.throughput(Throughput::Elements(bins.len() as u64));
    group.bench_function("aggregated_variance", |b| {
        b.iter(|| black_box(cn_stats::hurst_aggregated_variance(&bins, 8)))
    });
    group.finish();
}

fn bench_mcn(c: &mut Criterion) {
    let world = small_world();
    let mut group = c.benchmark_group("mcn");
    group.throughput(Throughput::Elements(world.len() as u64));
    group.bench_function("mme_state_tracking", |b| {
        b.iter(|| black_box(Mme::new().run(world)))
    });
    group.bench_function("des_single_pool_4_servers", |b| {
        let config = DesConfig::single_pool(4, deterministic_service(400.0));
        let registry = cn_obs::Registry::disabled();
        b.iter(|| black_box(DesSim::run_trace(config.clone(), world, &registry).unwrap()))
    });
    group.bench_function("nf_fanout", |b| {
        let matrix = cn_mcn::TransactionMatrix::default_epc();
        b.iter(|| black_box(cn_mcn::nf_load(world, &matrix)))
    });
    group.finish();
}

criterion_group!(
    core_perf,
    bench_world,
    bench_generator,
    bench_fitting,
    bench_replay,
    bench_stats,
    bench_clustering,
    bench_trace_ops,
    bench_streaming,
    bench_hurst,
    bench_mcn
);
criterion_main!(core_perf);
