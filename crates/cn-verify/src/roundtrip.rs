//! The statistical round trip: model → generate → replay → re-fit → compare.
//!
//! [`run_round_trip`] closes the loop the paper's §7 validation implies but
//! never states as one executable check:
//!
//! 1. generate a seeded population from a [`GroundTruth`] model;
//! 2. replay every event through the two-level machine
//!    ([`cn_statemachine::replay_trace`]) and demand **zero** violations —
//!    the generator must never emit an illegal event;
//! 3. re-fit per-transition sojourn laws from the replay's pooled sojourn
//!    samples ([`SemiMarkovModel::fit`]), exactly as the fitting pipeline
//!    would on a real trace;
//! 4. compare each re-fitted branch against its ground-truth counterpart:
//!    the two-sample K–S test at significance [`RoundTripConfig::alpha`]
//!    for the sojourn law, an absolute tolerance band for the branch
//!    probability.
//!
//! Observed samples are capped per transition (`max_ks_samples`) before the
//! K–S test: with hundreds of thousands of samples the test would otherwise
//! resolve harmless mechanical quantization (the generator's strictly-
//! increasing millisecond timestamps) as a significant difference. The cap
//! bounds test power at the level the tolerance analysis in
//! [`crate::model`] was designed for.

use std::collections::HashMap;

use cn_fit::method::DistributionKind;
use cn_fit::SemiMarkovModel;
use cn_gen::{generate, GenConfig};
use cn_statemachine::replay::replay_trace;
use cn_stats::{two_sample_critical_distance, two_sample_test, KsOutcome};
use cn_trace::{PopulationMix, Timestamp};
use serde::{Deserialize, Serialize};

use crate::model::GroundTruth;

/// Parameters of one round-trip run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundTripConfig {
    /// Synthesized population.
    pub population: PopulationMix,
    /// Start of the synthesis window.
    pub(crate) start: Timestamp,
    /// Length of the synthesis window in hours.
    pub duration_hours: f64,
    /// Generator seed.
    pub(crate) seed: u64,
    /// Significance level of the per-transition two-sample K–S gates.
    pub alpha: f64,
    /// Absolute tolerance on re-fitted branch probabilities.
    pub(crate) prob_tolerance: f64,
    /// Cap on the observed-sample count entering each K–S test.
    pub(crate) max_ks_samples: usize,
    /// Minimum observed samples for a transition's gates to be meaningful;
    /// fewer observations fail the check outright.
    pub(crate) min_samples: usize,
}

impl RoundTripConfig {
    fn sized(population: PopulationMix, duration_hours: f64, seed: u64) -> RoundTripConfig {
        RoundTripConfig {
            population,
            start: Timestamp::at_hour(0, 8),
            duration_hours,
            seed,
            alpha: 0.01,
            prob_tolerance: 0.05,
            max_ks_samples: 4_000,
            min_samples: 100,
        }
    }

    /// Small run for unit tests: 260 UEs over 2 hours.
    pub fn quick(seed: u64) -> RoundTripConfig {
        RoundTripConfig::sized(PopulationMix::new(160, 60, 40), 2.0, seed)
    }

    /// Acceptance-scale run: 2,000 UEs over 6 hours.
    pub fn acceptance(seed: u64) -> RoundTripConfig {
        RoundTripConfig::sized(PopulationMix::new(1_200, 500, 300), 6.0, seed)
    }

    /// Deep run for the `verify_model` binary: 5,000 UEs over 12 hours.
    pub fn deep(seed: u64) -> RoundTripConfig {
        RoundTripConfig::sized(PopulationMix::new(3_000, 1_200, 800), 12.0, seed)
    }
}

/// The comparison of one re-fitted transition against its ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitionCheck {
    /// Transition label (e.g. `CONNECTED-S1_CONN_REL`, `SRV_REQ_S-HO`).
    pub label: String,
    /// `"top"` or `"bottom"`.
    pub level: String,
    /// Observed (replayed) sojourn samples for this transition.
    pub n_observed: usize,
    /// Ground-truth samples for this transition.
    pub(crate) n_truth: usize,
    /// True branch probability.
    pub prob_truth: f64,
    /// Re-fitted branch probability.
    pub prob_refit: f64,
    /// Two-sample K–S outcome (`None` when there were no observations).
    /// Its `n` is the *effective* size `n·m/(n+m)` the p-value was computed
    /// from, not `n_observed` or `n_truth`.
    pub ks: Option<KsOutcome>,
    /// Critical K–S distance at the configured `alpha` for the compared
    /// sample sizes — the margin the statistic was measured against.
    pub critical_d: Option<f64>,
    /// Whether the sojourn law passed its K–S gate.
    pub ks_pass: bool,
    /// Whether the branch probability landed inside the tolerance band.
    pub prob_pass: bool,
}

impl TransitionCheck {
    /// Both gates hold.
    pub(crate) fn pass(&self) -> bool {
        self.ks_pass && self.prob_pass
    }
}

/// One executable claim ("replay accepts 100% of generated events"), the
/// value actually measured, and whether the claim held.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Verdict {
    claim: String,
    measured: String,
    pass: bool,
}

/// The verdicts of one validation run, in check order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct VerdictReport {
    /// What was validated (e.g. "round trip: 5000 UEs, seed 11").
    title: String,
    verdicts: Vec<Verdict>,
}

impl VerdictReport {
    fn new(title: impl Into<String>) -> VerdictReport {
        VerdictReport {
            title: title.into(),
            verdicts: Vec::new(),
        }
    }

    fn check(&mut self, claim: impl Into<String>, measured: impl Into<String>, pass: bool) {
        let (claim, measured) = (claim.into(), measured.into());
        self.verdicts.push(Verdict {
            claim,
            measured,
            pass,
        });
    }

    /// True when every verdict passed (vacuously true when empty).
    fn all_pass(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    /// One `[PASS]`/`[FAIL]` line per verdict plus a summary line.
    fn render(&self) -> String {
        let width = self
            .verdicts
            .iter()
            .map(|v| v.claim.len())
            .max()
            .unwrap_or(0);
        let mut out = format!("== {} ==\n", self.title);
        for v in &self.verdicts {
            let tag = if v.pass { "PASS" } else { "FAIL" };
            out.push_str(&format!("[{tag}] {:<width$}  {}\n", v.claim, v.measured));
        }
        let passed = self.verdicts.iter().filter(|v| v.pass).count();
        out.push_str(&format!("{passed}/{} claims hold\n", self.verdicts.len()));
        out
    }
}

/// Everything one round trip measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundTripReport {
    /// The configuration that produced this report.
    pub(crate) config: RoundTripConfig,
    /// Events in the generated trace.
    pub generated_events: usize,
    /// UEs that emitted at least one event.
    pub(crate) active_ues: usize,
    /// Replay violations (must be 0 for conformance).
    pub violations: usize,
    /// Fraction of generated events the machine accepted.
    pub acceptance_rate: f64,
    /// `(state × event, count)` of rejections, most frequent first.
    pub rejection_histogram: Vec<(String, usize)>,
    /// Per-transition recovery checks.
    pub checks: Vec<TransitionCheck>,
    /// The verdict rows (conformance + one per transition).
    pub(crate) report: VerdictReport,
}

impl RoundTripReport {
    /// True when conformance held and every transition check passed.
    pub fn all_pass(&self) -> bool {
        self.report.all_pass()
    }

    /// The verdict rows as text: one `[PASS]`/`[FAIL]` line per check
    /// plus a summary line.
    pub fn render(&self) -> String {
        self.report.render()
    }
}

/// Deterministically thin `v` to at most `cap` entries (evenly strided in
/// generation order, which is exchangeable for i.i.d. sojourn draws).
fn thin(v: &[f64], cap: usize) -> Vec<f64> {
    if v.len() <= cap {
        return v.to_vec();
    }
    let stride = v.len() as f64 / cap as f64;
    (0..cap).map(|i| v[(i as f64 * stride) as usize]).collect()
}

/// Run the full round trip against a ground-truth model.
pub fn run_round_trip(gt: &GroundTruth, cfg: &RoundTripConfig) -> RoundTripReport {
    let gen_config = GenConfig::new(cfg.population, cfg.start, cfg.duration_hours, cfg.seed);
    let trace = generate(&gt.set, &gen_config);
    let replay = replay_trace(trace.records());

    let mut report = VerdictReport::new(format!(
        "round trip: {} UEs, {:.1} h, seed {}, alpha {}",
        cfg.population.total(),
        cfg.duration_hours,
        cfg.seed,
        cfg.alpha,
    ));

    report.check(
        "generator produced a non-trivial trace",
        format!("{} events from {} UEs", trace.len(), replay.ue_count),
        !trace.is_empty() && replay.ue_count > 0,
    );
    report.check(
        "conformance: replay accepts 100% of generated events",
        format!(
            "{}/{} accepted ({} violations)",
            replay.accepted_events(),
            replay.total_events,
            replay.violations.len()
        ),
        replay.is_conformant(),
    );

    // Pool sojourns per transition, exactly as the fitting pipeline would.
    let mut top_pool: HashMap<_, Vec<f64>> = HashMap::new();
    for s in &replay.top_sojourns {
        top_pool
            .entry(s.transition)
            .or_default()
            .push(s.duration_ms as f64 / 1_000.0);
    }
    let mut bottom_pool: HashMap<_, Vec<f64>> = HashMap::new();
    for s in &replay.bottom_sojourns {
        bottom_pool
            .entry(s.transition)
            .or_default()
            .push(s.duration_ms as f64 / 1_000.0);
    }
    let refit_top = SemiMarkovModel::fit(&top_pool, DistributionKind::EmpiricalCdf);
    let refit_bottom = SemiMarkovModel::fit(&bottom_pool, DistributionKind::EmpiricalCdf);

    let mut checks = Vec::new();
    let empty: Vec<f64> = Vec::new();
    let mut top_keys: Vec<_> = gt.top_samples.keys().copied().collect();
    top_keys.sort();
    for t in top_keys {
        let truth = &gt.top_samples[&t];
        let observed = top_pool.get(&t).unwrap_or(&empty);
        checks.push(check_transition(
            cfg,
            format!("{t}"),
            "top",
            observed,
            truth,
            gt.top_prob(t),
            refit_top.prob(t),
        ));
    }
    let mut bottom_keys: Vec<_> = gt.bottom_samples.keys().copied().collect();
    bottom_keys.sort();
    for t in bottom_keys {
        let truth = &gt.bottom_samples[&t];
        let observed = bottom_pool.get(&t).unwrap_or(&empty);
        checks.push(check_transition(
            cfg,
            t.label().to_string(),
            "bottom",
            observed,
            truth,
            gt.bottom_prob(t),
            refit_bottom.prob(t),
        ));
    }

    for c in &checks {
        let measured = match (&c.ks, c.critical_d) {
            (Some(ks), Some(crit)) => format!(
                "D={:.4} (crit {:.4}), p={:.3}, prob {:.3} vs {:.3}, n={}/{} (eff {})",
                ks.statistic,
                crit,
                ks.p_value,
                c.prob_refit,
                c.prob_truth,
                c.n_observed,
                c.n_truth,
                ks.n
            ),
            _ => format!(
                "only {} observed samples (need {})",
                c.n_observed, cfg.min_samples
            ),
        };
        report.check(
            format!(
                "{} sojourn law and probability recovered ({})",
                c.label, c.level
            ),
            measured,
            c.pass(),
        );
    }

    RoundTripReport {
        config: cfg.clone(),
        generated_events: trace.len(),
        active_ues: replay.ue_count,
        violations: replay.violations.len(),
        acceptance_rate: replay.acceptance_rate(),
        rejection_histogram: replay
            .rejection_histogram()
            .into_iter()
            .map(|((state, event), n)| (format!("{} x {}", state.label(), event.mnemonic()), n))
            .collect(),
        checks,
        report,
    }
}

fn check_transition(
    cfg: &RoundTripConfig,
    label: String,
    level: &str,
    observed: &[f64],
    truth: &[f64],
    prob_truth: f64,
    prob_refit: f64,
) -> TransitionCheck {
    let enough = observed.len() >= cfg.min_samples;
    let thinned = thin(observed, cfg.max_ks_samples);
    let ks = if enough {
        two_sample_test(&thinned, truth)
    } else {
        None
    };
    let critical_d = if enough {
        two_sample_critical_distance(cfg.alpha, thinned.len(), truth.len())
    } else {
        None
    };
    let ks_pass = ks.is_some_and(|o| o.passes(cfg.alpha));
    let prob_pass = enough && (prob_refit - prob_truth).abs() <= cfg.prob_tolerance;
    TransitionCheck {
        label,
        level: level.to_string(),
        n_observed: observed.len(),
        n_truth: truth.len(),
        prob_truth,
        prob_refit,
        ks,
        critical_d,
        ks_pass,
        prob_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_record_and_render() {
        let mut r = VerdictReport::new("demo");
        assert!(r.all_pass());
        r.check("a", "1", true);
        r.check("b", "2", false);
        assert!(!r.all_pass());
        let text = r.render();
        assert!(text.contains("[PASS] a"));
        assert!(text.contains("[FAIL] b"));
        assert!(text.contains("1/2 claims hold"));
        let json = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<VerdictReport>(&json).unwrap(), r);
    }

    #[test]
    fn thin_preserves_small_and_caps_large() {
        let v: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(thin(&v, 20), v);
        let t = thin(&v, 4);
        assert_eq!(t.len(), 4);
        assert_eq!(t[0], 0.0);
        // Strictly increasing stride over a sorted input.
        assert!(t.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn config_presets_scale() {
        assert_eq!(RoundTripConfig::quick(1).population.total(), 260);
        assert_eq!(RoundTripConfig::acceptance(1).population.total(), 2_000);
        assert_eq!(RoundTripConfig::deep(1).population.total(), 5_000);
        assert_eq!(RoundTripConfig::acceptance(1).alpha, 0.01);
    }
}
