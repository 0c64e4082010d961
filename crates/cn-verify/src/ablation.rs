//! Ablation studies of the model's design choices.
//!
//! Three knobs that `DESIGN.md` §4a calls out as load-bearing are varied
//! here, each evaluated on busy-hour fidelity against the Scenario-1 real
//! trace:
//!
//! * **Clustering size threshold θ_n** (§5.3): from "one cluster per UE
//!   cohort" down to effectively-unclustered. Too-large θ_n collapses the
//!   diversity the paper's adaptive scheme exists to capture; too-small
//!   starves each cluster of samples.
//! * **Competing-risks exit probabilities**: removing the censoring
//!   correction reverts to arming an HO/TAU timer on every bottom-state
//!   visit — the generator then floods the trace with Category-2 events.
//! * **Persona consistency**: replacing the per-UE cluster *trajectory*
//!   with independently resampled per-hour clusters keeps every marginal
//!   hour distribution intact but breaks cross-hour identity.

use crate::experiments::diurnal;
use crate::lab::{Lab, Scenario};
use crate::profile::Profile;
use crate::report::{pct, Table};
use cn_fit::{fit, FitConfig, Method};
use cn_gen::{generate, GenConfig};
use cn_stats::two_sample_distance;
use cn_trace::{DeviceType, Timestamp};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A labeled model variant's busy-hour synthesis for the Scenario-1
/// population.
type Variant = (String, Profile);

/// One row per variant, scored against the Scenario-1 real busy hour: the
/// worst absolute breakdown difference over every device and row, and the
/// CDF distances of the phones' per-UE SRV_REQ counts and CONNECTED
/// sojourns.
fn fidelity_table(lab: &Lab, title: &str, variants: Vec<Variant>) -> Table {
    let mut t = Table::new(
        title,
        &[
            "variant",
            "max |breakdown diff|",
            "SRV_REQ count dist (P)",
            "CONN sojourn dist (P)",
        ],
    );
    let real = lab.real(Scenario::One);
    let real_phone = real.device(DeviceType::Phone);
    for (label, synth) in variants {
        let phone = synth.device(DeviceType::Phone);
        t.push_row(vec![
            label,
            pct(real.max_share_diff(&synth)),
            pct(two_sample_distance(&real_phone.srv_req, &phone.srv_req).unwrap_or(1.0)),
            pct(two_sample_distance(&real_phone.connected, &phone.connected).unwrap_or(1.0)),
        ]);
    }
    t
}

/// Ablation A: sweep the clustering size threshold θ_n.
fn clustering(lab: &Lab) -> Vec<Variant> {
    let base_theta = lab.cfg.clustering.theta_n;
    let total = lab.cfg.model_mix.total() as usize;
    let mut variants = Vec::new();
    for theta_n in [2, base_theta.max(3), total.max(4) * 2] {
        let mut config = FitConfig::new(Method::Ours);
        config.clustering = lab.cfg.clustering;
        config.clustering.theta_n = theta_n;
        config.n_days = lab.cfg.days.ceil() as u64;
        let models = fit(lab.world(), &config);
        let label = if theta_n >= total {
            format!("θ_n = {theta_n} (single cluster)")
        } else {
            format!("θ_n = {theta_n}")
        };
        variants.push((
            format!("{label} [{} models]", models.model_count()),
            lab.synthesize(&models, Scenario::One, 0xAB1),
        ));
    }
    variants
}

/// Ablation B: remove the competing-risks exit probabilities.
fn exit_prob(lab: &Lab) -> Vec<Variant> {
    let with = lab.models(Method::Ours);
    let mut without = with.clone();
    for dm in &mut without.devices {
        for hm in &mut dm.hours {
            for c in &mut hm.clusters {
                // No exit information ⇒ the generator arms on every visit.
                c.bottom_exit.clear();
            }
        }
    }
    vec![
        (
            "with exit probabilities".into(),
            lab.synthesize(with, Scenario::One, 0xAB2),
        ),
        (
            "without (arm every visit)".into(),
            lab.synthesize(&without, Scenario::One, 0xAB2),
        ),
    ]
}

/// Ablation C: break persona (cross-hour cluster) consistency.
fn personas(lab: &Lab) -> Vec<Variant> {
    let consistent = lab.models(Method::Ours);
    // Shuffle each hour's persona column independently: identical marginal
    // cluster shares, destroyed cross-hour identity.
    let mut shuffled = consistent.clone();
    let mut rng = StdRng::seed_from_u64(lab.cfg.seed ^ 0xAB3);
    for dm in &mut shuffled.devices {
        let n = dm.personas.len();
        for h in 0..24 {
            let mut column: Vec<cn_fit::cluster::ClusterId> =
                (0..n).map(|i| dm.personas[i][h]).collect();
            column.shuffle(&mut rng);
            for (i, c) in column.into_iter().enumerate() {
                dm.personas[i][h] = c;
            }
        }
    }
    vec![
        (
            "consistent trajectories".into(),
            lab.synthesize(consistent, Scenario::One, 0xAB3),
        ),
        (
            "per-hour shuffled".into(),
            lab.synthesize(&shuffled, Scenario::One, 0xAB3),
        ),
    ]
}

/// Ablation D: hour-boundary sojourn semantics (`DESIGN.md` §4a #4).
///
/// Entry-hour sampling (our default) keeps long sojourns intact;
/// boundary-truncation resamples every hour. Both are compared on a
/// full-day synthesis: hourly-volume correlation against the modeled
/// world's weekday profile, plus total events (truncation tends to
/// fragment overnight idles into extra activity).
fn hour_semantics(lab: &Lab) -> Table {
    use cn_gen::HourSemantics;
    let mut t = Table::new(
        "Ablation D: hour-boundary sojourn semantics (method Ours)",
        &[
            "variant",
            "diurnal corr (P)",
            "diurnal corr (CC)",
            "events/day",
        ],
    );
    for (name, semantics) in [
        ("entry-hour (default)", HourSemantics::EntryHour),
        ("truncate at boundary", HourSemantics::TruncateAtBoundary),
    ] {
        let mut config = GenConfig::new(
            lab.cfg.model_mix,
            Timestamp::at_hour(0, 0),
            24.0,
            lab.cfg.seed ^ 0xAB4,
        );
        config.semantics = semantics;
        let synth = generate(lab.models(Method::Ours), &config);
        let corr = diurnal(lab, &synth).corr;
        t.push_row(vec![
            name.into(),
            format!("{:.3}", corr[0]),
            format!("{:.3}", corr[1]),
            synth.len().to_string(),
        ]);
    }
    t
}

/// All four ablations.
pub fn all(lab: &Lab) -> Vec<Table> {
    vec![
        fidelity_table(
            lab,
            "Ablation A: clustering size threshold θ_n (method Ours)",
            clustering(lab),
        ),
        fidelity_table(
            lab,
            "Ablation B: competing-risks censoring correction (method Ours)",
            exit_prob(lab),
        ),
        fidelity_table(
            lab,
            "Ablation C: persona consistency across hours (method Ours)",
            personas(lab),
        ),
        hour_semantics(lab),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::ExperimentConfig;

    /// Worst absolute breakdown difference of each variant from the
    /// Scenario-1 real busy hour.
    fn max_share_diffs(lab: &Lab, variants: &[Variant]) -> Vec<f64> {
        let real = lab.real(Scenario::One);
        variants
            .iter()
            .map(|(_, synth)| real.max_share_diff(synth))
            .collect()
    }

    #[test]
    fn exit_prob_ablation_shows_the_flood() {
        let lab = Lab::new(ExperimentConfig::quick());
        let variants = exit_prob(&lab);
        assert_eq!(variants.len(), 2);
        let diffs = max_share_diffs(&lab, &variants);
        assert!(
            diffs[1] > diffs[0],
            "removing censoring should hurt the breakdown: {} vs {}",
            diffs[0],
            diffs[1]
        );
    }

    #[test]
    fn clustering_ablation_produces_three_variants() {
        let lab = Lab::new(ExperimentConfig::quick());
        let variants = clustering(&lab);
        assert_eq!(variants.len(), 3);
        let real = lab.real(Scenario::One).device(DeviceType::Phone);
        for ((label, synth), diff) in variants.iter().zip(max_share_diffs(&lab, &variants)) {
            let phone = synth.device(DeviceType::Phone);
            let distances = [
                diff,
                two_sample_distance(&real.srv_req, &phone.srv_req).unwrap(),
                two_sample_distance(&real.connected, &phone.connected).unwrap(),
            ];
            for d in distances {
                assert!((0.0..=1.0).contains(&d), "{label}: {d}");
            }
        }
    }

    #[test]
    fn hour_semantics_ablation_runs() {
        let lab = Lab::new(ExperimentConfig::quick());
        let t = hour_semantics(&lab);
        assert_eq!(t.rows.len(), 2);
        // Both variants still track the diurnal profile for phones.
        for row in &t.rows {
            let corr: f64 = row[1].parse().unwrap();
            assert!(corr > 0.5, "{}: corr {corr}", row[0]);
        }
    }

    #[test]
    fn persona_ablation_runs() {
        let lab = Lab::new(ExperimentConfig::quick());
        assert_eq!(personas(&lab).len(), 2);
    }
}
