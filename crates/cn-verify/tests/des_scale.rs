//! The DES pinned at scale.
//!
//! `BENCH_mcn.json` pins one report: 2 000 UEs over 6 h with one storm
//! block through an autoscaling, admission-guarded EPC (the workload is
//! `cn_verify::mcn`'s). This test holds the batch path to that pin under
//! `cargo test`, and checks that the workload still exercises what it was
//! chosen for — a pin on a report that sheds nothing, never scales and
//! keeps every latency on one side of the tally's 2^20 µs boundary would
//! hold the simulator's bookkeeping to very little.
//!
//! The DES is a pure function of the seeds, so any drift is a behavior
//! change: fix it, or re-pin deliberately with `CN_MCN_BLESS=1`.

use cn_gen::ShardedStream;
use cn_mcn::DesSim;
use cn_obs::Registry;
use cn_scenario::ScenarioStream;
use cn_verify::mcn::{des_config, gen_config, storm_block};
use cn_verify::{check_bench, drive_des, GroundTruth, McnBench};

#[test]
fn des_report_at_scale_matches_its_pin() {
    let gt = GroundTruth::standard(11);
    let config = gen_config();
    let spec = storm_block();
    let stream = ScenarioStream::new(
        &spec,
        &config,
        ShardedStream::new(&gt.set, &config),
        &Registry::disabled(),
    )
    .expect("valid scenario spec");
    let sim = DesSim::new(des_config()).expect("valid DES config");
    let (report, records) = drive_des(sim, stream).expect("clean run");

    assert_eq!(report.offered, records);
    assert_eq!(report.offered, report.completed + report.total_shed());
    // The workload must keep exercising what it was chosen for.
    let boundary_ms = (1u64 << 20) as f64 / 1_000.0;
    assert!(
        report.p50_latency_ms < boundary_ms && report.p99_latency_ms > boundary_ms,
        "latencies no longer straddle 2^20 us: p50 {} p99 {}",
        report.p50_latency_ms,
        report.p99_latency_ms
    );
    assert!(report.total_shed() > 0, "the storms no longer shed");
    assert!(
        report.per_nf.iter().any(|nf| nf.scale_ups > 0),
        "the storms no longer trigger autoscaling"
    );

    check_bench(&McnBench::of_storm_block(&report)).unwrap_or_else(|e| panic!("{e}"));
}
