//! Stages the traced runs of `live-paced` and `storm-des` share: the
//! materialised baseline and the scenario overlay over it.

use crate::harness::Staged;
use crate::run::Outcome;
use cn_fit::ModelSet;
use cn_gen::{GenConfig, PopulationStream};
use cn_obs::Registry;
use cn_scenario::{IterSource, ScenarioSpec, ScenarioStats, ScenarioStream};
use cn_trace::TraceRecord;

/// Stage `gen:sequential`: the baseline, materialised by the
/// single-threaded surface. Returns the records and the stage's seconds.
pub fn baseline(
    staged: &mut Staged,
    models: &ModelSet,
    config: &GenConfig,
) -> (Vec<TraceRecord>, f64) {
    staged.stage("gen", "sequential", || {
        PopulationStream::new(models, config).collect::<Vec<_>>()
    })
}

fn overlay_once(
    spec: &ScenarioSpec,
    config: &GenConfig,
    baseline: &[TraceRecord],
) -> (Vec<TraceRecord>, ScenarioStats) {
    let source = IterSource(baseline.iter().copied());
    let mut stream = ScenarioStream::new(spec, config, source, &Registry::disabled())
        .expect("the storm spec validates");
    let mut records = Vec::with_capacity(baseline.len() + baseline.len() / 4);
    while let Some(r) = stream.try_next().expect("an iterator source cannot fail") {
        records.push(r);
    }
    let stats = stream.finish().expect("an iterator source cannot fail");
    (records, stats)
}

/// Stages `scenario:overlay`, `scenario:identity` and `harness:bare_drain`
/// over the materialised baseline; sets the `scenario.*` metrics. The bare
/// drain (the same copy loop with no `ScenarioStream` in it) is subtracted
/// so the two per-record costs are the overlay's own. Returns the overlaid
/// records and the overlay stage's seconds.
pub fn scenario(
    staged: &mut Staged,
    out: &mut Outcome,
    spec: &ScenarioSpec,
    config: &GenConfig,
    baseline: &[TraceRecord],
) -> (Vec<TraceRecord>, f64) {
    let ((overlaid, stats), overlay_s) = staged.stage("scenario", "overlay", || {
        overlay_once(spec, config, baseline)
    });
    let identity_spec = ScenarioSpec::identity("identity", spec.seed);
    let ((identity, _), identity_s) = staged.stage("scenario", "identity", || {
        overlay_once(&identity_spec, config, baseline)
    });
    let (bare, bare_s) = staged.stage("harness", "bare_drain", || {
        let mut records = Vec::with_capacity(baseline.len() + baseline.len() / 4);
        records.extend(baseline.iter().copied());
        records
    });
    out.check(identity == baseline, || {
        "the identity scenario changed the baseline".into()
    });
    out.check(
        stats.events == overlaid.len() as u64
            && stats.passthrough + stats.injected == stats.events
            && stats.passthrough + stats.suppressed == baseline.len() as u64,
        || format!("the scenario ledger does not balance: {stats:?}"),
    );
    let bare_ns = bare_s * 1e9 / bare.len().max(1) as f64;
    out.set(
        "scenario.overlay_ns_per_record",
        overlay_s * 1e9 / overlaid.len().max(1) as f64 - bare_ns,
    );
    out.set(
        "scenario.identity_ns_per_record",
        identity_s * 1e9 / identity.len().max(1) as f64 - bare_ns,
    );
    out.set("scenario.injected", stats.injected as f64);
    out.set("scenario.suppressed", stats.suppressed as f64);
    out.set("scenario.passthrough", stats.passthrough as f64);
    (overlaid, overlay_s)
}
