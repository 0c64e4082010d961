//! The paper's evaluation as numbers, each held to a committed interval.
//!
//! The evaluation is made of distances and shares: per-UE count and
//! sojourn CDF distances, `HO (IDLE) ≡ 0`, shares and volume per device
//! type. [`fidelity`] reads each as a named `f64` from what the [`Lab`]
//! memoizes and holds it to a closed interval `[lo, hi]` (`null` is open)
//! under the lab's scale key of `BENCH_fidelity.json`. The bounds are set
//! by hand: each is a paper-shape claim's bound, narrowed toward the values
//! of several generator seeds. Blessing (`CN_VERIFY_BLESS=1`) rewrites the
//! recorded `value`s only, so a re-bless shows how far each number moved.

use crate::lab::{Lab, Scenario};
use crate::profile::{breakdown_simple, BreakdownRow, Profile};
use crate::report::Table;
use crate::testsuite::poisson_ks_overall;
use cn_fit::Method;
use cn_stats::two_sample_distance;
use cn_stats::variance_time::poisson_reference;
use cn_trace::DeviceType;
use cn_trace::EventType::{Handover, S1ConnRelease, ServiceRequest};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One number of the file: its value at the last bless and its bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Bound {
    value: f64,
    lo: Option<f64>,
    hi: Option<f64>,
}

impl Bound {
    /// `lo ≤ v ≤ hi`; a number that is not finite never holds.
    fn holds(&self, v: f64) -> bool {
        v.is_finite() && self.lo.is_none_or(|lo| lo <= v) && self.hi.is_none_or(|hi| v <= hi)
    }
}

/// Every number of `lab` by name, all of Scenario 2 unless named `t1.`,
/// `f3.`, `t8.` or `world.` (the modeled world) or `t7.` (a modeled day,
/// synthesized as LTE and as 5G NSA). `volume` adds Ours/real
/// busy-hour events per device: quick's Scenario 2 holds 300 UEs, too few
/// for a volume to settle across generator seeds.
fn measure(lab: &Lab, volume: bool) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut put = |name: &str, v: f64| out.insert(name.to_string(), v);

    // Table 1: SRV_REQ + S1_CONN_REL dominate; connected cars lead HO.
    let world = lab.world_profile();
    let [srv, rel, ho] = [ServiceRequest, S1ConnRelease, Handover].map(|e| e.code() as usize);
    for (d, s) in DeviceType::ALL.iter().zip(&world.shares) {
        put(&format!("t1.srv_rel_share.{}", d.abbrev()), s[srv] + s[rel]);
    }
    let lead = world.shares[1][ho] - world.shares[0][ho].max(world.shares[2][ho]);
    put("t1.cc_ho_lead", lead);
    let weekly: f64 = world.volumes.iter().flatten().sum::<f64>() * 7.0;
    let ues: usize = world.ues.iter().sum();
    put("world.events_per_ue_week", weekly / ues as f64);

    // Fig. 3: phones' SRV_REQ variance over Poisson's at 100 s.
    let stream = lab.stream(DeviceType::Phone, 0);
    let at_100s = stream.variance.iter().find(|p| p.scale_secs == 100);
    let reference = poisson_reference(stream.rate, 100);
    let over_poisson = at_100s.map_or(0.0, |p| p.normalized_variance / reference);
    put("f3.phone_srv_over_poisson_100s", over_poisson);

    // Table 8: the Poisson K–S pass rate of the dominant columns.
    put("t8.poisson_ks_pass", poisson_ks_overall(lab.suite(false)));

    // Tables 4/5, Fig. 7: each method's Scenario 2 busy hour against real.
    let real = lab.real(Scenario::Two);
    let [base, b2, ours] =
        [Method::Base, Method::B2, Method::Ours].map(|m| lab.synth(m, Scenario::Two));
    for (name, p) in [("base", base), ("b2", b2), ("ours", ours)] {
        let leak = DeviceType::ALL.map(|d| p.device(d).share(BreakdownRow::HoIdle));
        put(&format!("t4.ho_idle.{name}"), leak.iter().sum());
    }
    for d in DeviceType::ALL {
        let error = |p: &Profile| real.device(d).max_share_diff(p.device(d));
        let name = format!("t4.err_ours_over_base.{}", d.abbrev());
        put(&name, error(ours) / error(base));
    }
    let (phone, real_phone) = (DeviceType::Phone, real.device(DeviceType::Phone));
    let distance = |a: &[f64], b: &[f64]| two_sample_distance(a, b).unwrap_or(1.0);
    let connected = |p: &Profile| distance(&real_phone.connected, &p.device(phone).connected);
    let (conn_ours, conn_b2) = (connected(ours), connected(b2));
    put("t5.phone_conn_dist.ours", conn_ours);
    put("t5.phone_conn_b2_over_ours", conn_b2 / conn_ours);
    let srv_req = |p: &Profile| distance(&real_phone.srv_req, &p.device(phone).srv_req);
    let (srv_ours, srv_base) = (srv_req(ours), srv_req(base));
    put("f7.phone_srv_dist_ours_over_base", srv_ours / srv_base);
    let ours_all = DeviceType::ALL.map(|d| ours.device(d));
    let violations: usize = ours_all.iter().map(|p| p.violations).sum();
    let events: usize = ours_all.iter().map(|p| p.events).sum();
    put("viol.ours", violations as f64 / events as f64);
    if volume {
        for d in DeviceType::ALL {
            let ratio = ours.device(d).events as f64 / real.device(d).events as f64;
            put(&format!("vol.ours_over_real.{}", d.abbrev()), ratio);
        }
    }

    // Table 7: 5G NSA's phone HO share over LTE's, one modeled day each.
    let lte = lab.models(Method::Ours);
    let nsa = cn_fit::fiveg::adapt_model(lte, &cn_fit::fiveg::ScalingProfile::NSA);
    let ho_share = |models, seed| {
        let day = lab.synth_days(models, 1.0, seed);
        breakdown_simple(&day, DeviceType::Phone)[ho]
    };
    let nsa_over_lte = ho_share(&nsa, lab.cfg.seed ^ 0x77b) / ho_share(lte, lab.cfg.seed ^ 0x77a);
    put("t7.phone_ho_nsa_over_lte", nsa_over_lte);
    out
}

/// `BENCH_fidelity.json`, at the repository root beside `BENCH_mcn.json`.
fn fidelity_path() -> PathBuf {
    crate::mcn::bench_path().with_file_name("BENCH_fidelity.json")
}

/// Hold what `measure` returns to the bounds under `key` of the file at
/// `path`: the report, one row per name, and whether every number held.
/// With `bless` the file's values under `key` become the measured ones
/// (finite ones; bounds and names stay). A file that cannot be read or
/// parsed, or lacks `key`, is an error that names it, found before
/// anything is measured, and is never rewritten.
fn check_at(
    path: &Path,
    key: &str,
    measure: impl FnOnce() -> BTreeMap<String, f64>,
    bless: bool,
) -> Result<(Table, bool), String> {
    let shown = path.display();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read fidelity file {shown}: {e}"))?;
    let mut file: BTreeMap<String, BTreeMap<String, Bound>> = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse fidelity file {shown}: {e}"))?;
    let bounds = file
        .get_mut(key)
        .ok_or_else(|| format!("fidelity file {shown} has no `{key}` key"))?;
    let measured = measure();
    let file_name = path.file_name().unwrap_or_default().to_string_lossy();
    let mut t = Table::new(
        format!("Fidelity: `{key}` of {file_name}"),
        &["number", "measured", "recorded", "lo", "hi", "verdict"],
    );
    let number = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.4}"));
    let bound = |b: Option<f64>| b.map_or("-".into(), |b| b.to_string());
    let names: BTreeSet<String> = measured.keys().chain(bounds.keys()).cloned().collect();
    let mut all_hold = true;
    for name in names {
        let (v, b) = (measured.get(&name).copied(), bounds.get_mut(&name));
        let verdict = match (v, &b) {
            (Some(v), Some(b)) if b.holds(v) => "PASS",
            (Some(_), Some(_)) => "FAIL",
            (Some(_), None) => "FAIL: not in file",
            (None, _) => "FAIL: not measured",
        };
        all_hold &= verdict == "PASS";
        let (value, lo, hi) = b
            .as_ref()
            .map_or((None, None, None), |b| (Some(b.value), b.lo, b.hi));
        t.push_row(vec![
            name,
            number(v),
            number(value),
            bound(lo),
            bound(hi),
            verdict.into(),
        ]);
        if let (true, Some(v), Some(b)) = (bless, v, b) {
            if v.is_finite() {
                b.value = v;
            }
        }
    }
    let overall = if all_hold { "PASS" } else { "FAIL" };
    let mut last = vec![String::new(); 6];
    (last[0], last[5]) = ("OVERALL".into(), overall.into());
    t.push_row(last);
    if bless {
        let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {shown}: {e}"))?;
    }
    Ok((t, all_hold))
}

/// Measure `lab` and hold it to `key` (`quick` or `default`, the lab's
/// scale) of the committed `BENCH_fidelity.json`: the report, one row per
/// number, and whether every number held. `CN_VERIFY_BLESS` set rewrites
/// the file's values under `key`, never its bounds. `Err` names a file that
/// cannot be read or parsed, or lacks `key`.
pub fn fidelity(lab: &Lab, key: &str) -> Result<(Table, bool), String> {
    let bless = std::env::var_os("CN_VERIFY_BLESS").is_some();
    let numbers = || measure(lab, key != "quick");
    check_at(&fidelity_path(), key, numbers, bless)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::ExperimentConfig;
    use cn_fit::{Branch, SemiMarkovModel, TransitionLike};
    use cn_statemachine::TopTransition;
    use cn_stats::{Dist, Exponential};
    use std::sync::OnceLock;

    /// Keep `lab`'s world (so its measurements and fits) and real traces,
    /// and draw every synthesis anew from generator seed `seed`.
    fn reseed(lab: &mut Lab, seed: u64) {
        let _ = (
            lab.world(),
            lab.real(Scenario::One),
            lab.real(Scenario::Two),
        );
        lab.cfg.seed = seed;
        for cell in lab.synth.iter_mut().flatten() {
            cell.take();
        }
    }

    /// `model` with every sojourn law's values times `factor`.
    fn stretch<T: TransitionLike>(model: &SemiMarkovModel<T>, factor: f64) -> SemiMarkovModel<T> {
        let sojourn = |b: &Branch<T>| b.sojourn.scale_values(factor);
        model.map_branches(|b| {
            Some(Branch {
                sojourn: sojourn(b),
                ..b.clone()
            })
        })
    }

    /// Each degraded Ours fails the `default` key, and generators re-seeded
    /// on the same world hold both keys.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "default scale: seconds in release, minutes in debug"
    )]
    fn degraded_generators_fail_the_gate() {
        let path = fidelity_path();
        let gate = |lab: &Lab, key| check_at(&path, key, || measure(lab, key != "quick"), false);
        let mut quick = Lab::new(ExperimentConfig::quick());
        reseed(&mut quick, 99);
        let (t, holds) = gate(&quick, "quick").unwrap();
        assert!(holds, "re-seeded\n{t}");
        let mut lab = Lab::new(ExperimentConfig::default_scale());
        reseed(&mut lab, 99);
        let (t, holds) = gate(&lab, "default").unwrap();
        assert!(holds, "re-seeded\n{t}");

        let ours = Method::ALL.iter().position(|&m| m == Method::Ours).unwrap();
        let fitted = lab.models(Method::Ours).clone();
        // Phones' largest busy-hour cluster leaves CONNECTED after an
        // exponential of the fitted mean.
        let mut exponential = fitted.clone();
        let busy = &mut exponential.devices[0].hours[usize::from(lab.cfg.busy_hour)];
        let cell = busy.clusters.iter_mut().max_by_key(|c| c.n_ues).unwrap();
        cell.top = cell.top.map_branches(|b| {
            let mut b = b.clone();
            if b.transition == TopTransition::ConnToIdle {
                let rate = 1.0 / b.sojourn.mean();
                b.sojourn = Dist::Exponential(Exponential::new(rate).unwrap());
            }
            Some(b)
        });
        let mut stretched = fitted.clone();
        let hours = stretched.devices.iter_mut().flat_map(|d| &mut d.hours);
        for c in hours.flat_map(|h| &mut h.clusters) {
            (c.top, c.bottom) = (stretch(&c.top, 1.18), stretch(&c.bottom, 1.18));
        }
        let degraded = [
            ("B2 as Ours", lab.models(Method::B2).clone()),
            ("one exponential cell", exponential),
            ("every sojourn x1.18", stretched),
        ];
        for (name, models) in degraded {
            lab.models[ours] = OnceLock::from(models);
            for cell in &mut lab.synth[ours] {
                cell.take();
            }
            let (t, holds) = gate(&lab, "default").unwrap();
            assert!(!holds, "{name} holds\n{t}");
        }
    }

    #[test]
    fn the_gate_holds_numbers_to_hand_set_bounds() {
        let dir = std::env::temp_dir().join(format!("cn-verify-fidelity-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fidelity.json");
        let numbers = |pairs: &[(&str, f64)]| -> BTreeMap<String, f64> {
            pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
        };
        // A file that is missing or corrupt is an error that names it, and
        // blessing never rewrites it.
        let err = check_at(&path, "k", || unreachable!("measured"), true).unwrap_err();
        assert!(err.contains("fidelity.json"), "{err}");
        let corrupt = b"{\"k\": {\"a\": {\"value\": 1";
        std::fs::write(&path, corrupt).unwrap();
        for bless in [true, false] {
            let err = check_at(&path, "k", || unreachable!("measured"), bless).unwrap_err();
            assert!(err.contains("fidelity.json"), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), corrupt);
        }
        let file = r#"{"k": {"a": {"value": 0.5, "lo": 0.0, "hi": 1.0},
                             "b": {"value": 2.0, "lo": null, "hi": null}}}"#;
        std::fs::write(&path, file).unwrap();
        let err = check_at(&path, "other", || unreachable!("measured"), false).unwrap_err();
        assert!(err.contains("`other`"), "{err}");
        let holds = |pairs: &[(&str, f64)], bless| {
            check_at(&path, "k", || numbers(pairs), bless).unwrap().1
        };
        // Closed bounds, open where null; a number that is not finite fails.
        assert!(holds(&[("a", 1.0), ("b", -7.0)], false));
        assert!(holds(&[("a", 0.0), ("b", 1e9)], false));
        assert!(!holds(&[("a", 1.5), ("b", 2.0)], false));
        assert!(!holds(&[("a", f64::NAN), ("b", 2.0)], false));
        // A name in the file but not measured, or measured but not in the
        // file, fails.
        assert!(!holds(&[("a", 0.5)], false));
        assert!(!holds(&[("a", 0.5), ("b", 2.0), ("c", 0.0)], false));
        // Blessing rewrites values only: it moves no bound, adds no name and
        // makes no out-of-bounds number hold.
        assert!(!holds(&[("a", 1.5), ("b", 3.0), ("c", 0.0)], true));
        let text = std::fs::read_to_string(&path).unwrap();
        let blessed: BTreeMap<String, BTreeMap<String, Bound>> =
            serde_json::from_str(&text).unwrap();
        let bound = |value, lo, hi| Bound { value, lo, hi };
        let expected = [
            ("a", bound(1.5, Some(0.0), Some(1.0))),
            ("b", bound(3.0, None, None)),
        ];
        let expected: BTreeMap<String, Bound> = expected.map(|(n, b)| (n.to_string(), b)).into();
        assert_eq!(blessed, BTreeMap::from([("k".to_string(), expected)]));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
