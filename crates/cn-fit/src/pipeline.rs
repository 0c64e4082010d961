//! The end-to-end fitting pipeline: trace → [`ModelSet`].

use crate::cluster::{ClusterId, ClusteringParams};
use crate::first_event::FirstEventModel;
use crate::method::{Method, StateMachineKind};
use crate::model::{ClusterHourModel, DeviceModels, HourModels, ModelSet};
use crate::semi_markov::{fit_sojourn, SemiMarkovModel, TransitionLike};
use crate::sojourn::{self, Cell, BOTTOM, BOTTOM_STATES, COLUMNS, FIRSTS, HO_GAPS, TAU_GAPS, TOP};
use cn_statemachine::{BottomTransition, TopTransition};
use cn_trace::{radix_sort, DeviceType, EventType, Trace, MS_PER_DAY};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::mem::take;
use std::sync::Mutex;

/// Configuration of a fitting run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitConfig {
    /// Which Table 3 method to fit.
    pub(crate) method: Method,
    /// Clustering thresholds (θ_f, θ_n); ignored by unclustered methods.
    pub clustering: ClusteringParams,
    /// Days spanned by the trace; `0` = infer from the last timestamp.
    pub n_days: u64,
    /// Worker threads for the replay pass and for the (device, hour) cells
    /// (`0` = all cores); the fitted bytes do not depend on it.
    pub(crate) threads: usize,
}

impl FitConfig {
    /// Default configuration for a method (paper thresholds).
    pub fn new(method: Method) -> FitConfig {
        FitConfig {
            method,
            clustering: ClusteringParams::default(),
            n_days: 0,
            threads: 0,
        }
    }
}

/// Fit a model set to a trace (§5).
///
/// ```
/// use cn_fit::{fit, FitConfig, Method};
/// use cn_trace::PopulationMix;
/// use cn_world::{generate_world, WorldConfig};
/// let world = generate_world(&WorldConfig::new(PopulationMix::new(15, 5, 3), 1.0, 7));
/// let models = fit(&world, &FitConfig::new(Method::Ours));
/// assert_eq!(models.devices.len(), 3);
/// assert!(cn_fit::inspect::verify(&models).is_empty());
/// ```
pub fn fit(trace: &Trace, config: &FitConfig) -> ModelSet {
    let n_days = if config.n_days > 0 {
        config.n_days
    } else {
        trace.end().map_or(1, |t| t.as_millis() / MS_PER_DAY + 1)
    };
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    } else {
        config.threads
    };

    let cells = observe_all(trace, config.method.machine(), threads);
    // Each cell clusters its device's UEs for its hour and fits the
    // clusters, taking its observations along and freeing them.
    let queue = Mutex::new(cells.into_iter().enumerate());
    let fitted = on_workers(threads.min(3 * 24), |_| {
        std::iter::from_fn(|| queue.lock().expect("no cell panicked").next())
            .map(|(i, shares)| (i, fit_cell(&shares, config, n_days)))
            .collect::<Vec<_>>()
    });
    // Placed by index, so the thread count changes no bit.
    let mut fitted: Vec<_> = fitted.into_iter().flatten().collect();
    fitted.sort_unstable_by_key(|&(i, _)| i);
    let mut cells = fitted.into_iter().map(|(_, cell)| cell);
    let devices = DeviceType::ALL
        .into_iter()
        .map(|device| {
            let hours: Vec<_> = cells.by_ref().take(24).collect();
            DeviceModels {
                device,
                personas: (0..hours[0].0.len())
                    .map(|u| std::array::from_fn(|h| hours[h].0[u]))
                    .collect(),
                hours: hours.into_iter().map(|(_, hour)| hour).collect(),
            }
        })
        .collect();

    ModelSet {
        method: config.method,
        devices,
        n_days,
    }
}

/// Run `work(w)` for `w` in `0..n` on the caller plus `n − 1` scoped
/// workers; the results come back in `w` order. The caller takes the last
/// share itself instead of idling in `join` (as `cn_world::generate_world`
/// does, for the same reason).
fn on_workers<T: Send>(n: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let last = n.max(1) - 1;
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..last).map(|w| scope.spawn(move || work(w))).collect();
        let own = work(last);
        handles
            .into_iter()
            .map(|h| h.join().expect("fit worker panicked"))
            .chain(std::iter::once(own))
            .collect()
    })
}

/// Replay and observe every UE, in parallel: the 72 (device, hour) cells,
/// each as one [`Cell`] per share of UEs, in UE order.
fn observe_all(trace: &Trace, machine: StateMachineKind, threads: usize) -> Vec<Vec<Cell>> {
    let records = trace.records();
    assert!(u32::try_from(records.len()).is_ok(), "over 2^32 records");
    // Group by UE through an index, not a copy: the keys ascend by index,
    // so a stable radix on their UE bits keeps each UE's records in trace
    // order, which is time order.
    let mut keys: Vec<u64> = records
        .iter()
        .enumerate()
        .map(|(i, r)| u64::from(r.ue.0) << 32 | i as u64)
        .collect();
    let top = records.iter().map(|r| r.ue.0).max().unwrap_or(0);
    let ue_bits = 32..64 - top.leading_zeros();
    radix_sort(&mut keys, &mut Vec::new(), ue_bits, |&k| k);
    let record = |key: u64| records[key as u32 as usize];
    // Each UE's keys, device (of its first record) and rank in that device.
    let mut ranks = [0; 3];
    let mut start = 0;
    let mut ues = Vec::new();
    for group in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
        let device = record(group[0]).device.code() as usize;
        ues.push((start..start + group.len(), device, ranks[device]));
        ranks[device] += 1;
        start += group.len();
    }

    // Shares of about equal records, whole UEs each.
    let threads = threads.min(ues.len()).max(1);
    let share = |w: usize| {
        let first_ue = |w: usize| ues.partition_point(|u| u.0.start < w * keys.len() / threads);
        &ues[first_ue(w)..first_ue(w + 1)]
    };
    let two_level = machine == StateMachineKind::TwoLevel;
    let mut shares = on_workers(threads, |w| {
        let mut cells: Vec<Cell> = (0..3 * 24).map(|_| Cell::default()).collect();
        let mut events = Vec::new();
        for (span, device, rank) in share(w) {
            events.clear();
            events.extend(keys[span.clone()].iter().map(|&k| record(k)));
            sojourn::observe(&mut cells[device * 24..][..24], *rank, &events, two_level);
        }
        cells
    });
    // Transpose to one list of shares per cell.
    let cell = |i| {
        shares
            .iter_mut()
            .map(|s: &mut Vec<_>| take(&mut s[i]))
            .collect()
    };
    (0..3 * 24).map(cell).collect()
}

/// Cluster one (device, hour) cell's UEs and fit each cluster's model:
/// the cluster of each UE rank, and the hour's models.
fn fit_cell(shares: &[Cell], config: &FitConfig, n_days: u64) -> (Vec<ClusterId>, HourModels) {
    let n: usize = shares.iter().map(|s| s.ues.len()).sum();
    let (assignments, sizes) = if n == 0 {
        (Vec::new(), Vec::new())
    } else if config.method.clustered() {
        let c = crate::cluster::cluster(&sojourn::features(shares, n_days), &config.clustering);
        let sizes = c.clusters.iter().map(|i| i.members.len()).collect();
        (c.assignments, sizes)
    } else {
        (vec![ClusterId(0); n], vec![n])
    };
    // Pool each column per cluster (events of different UEs are i.i.d.
    // within a cluster, §4.1.1). Members ascend, and each UE's rows are in
    // time order, as the in-order sums of `Exponential::fit` need.
    let mut pools: Vec<[Vec<f64>; COLUMNS]> = sizes.iter().map(|_| Default::default()).collect();
    let mut censored = vec![[0; 6]; sizes.len()];
    for (column, rows) in (0..COLUMNS).map(|c| (c, sojourn::rows(shares, c))) {
        for row in rows {
            pools[assignments[sojourn::rank(row)].index()][column].push(sojourn::secs(row));
        }
    }
    for (ue, c) in shares.iter().flat_map(|s| &s.ues).zip(&assignments) {
        for (sum, n) in censored[c.index()].iter_mut().zip(ue.censored) {
            *sum += n as usize;
        }
    }
    let clusters = pools
        .into_iter()
        .zip(censored)
        .zip(sizes)
        .map(|((pools, censored), n_ues)| {
            fit_cluster(pools, censored, config.method, n_ues, n_days)
        })
        .collect();
    (assignments, HourModels { clusters })
}

/// Fit the model of one (cluster, hour, device) from its pooled columns
/// (seconds) and censored visits per [`BOTTOM_STATES`] entry.
fn fit_cluster(
    mut pools: [Vec<f64>; COLUMNS],
    censored: [usize; 6],
    method: Method,
    n_ues: usize,
    n_days: u64,
) -> ClusterHourModel {
    let kind = method.distribution();
    let mut pool = |column: usize| take(&mut pools[column]);
    let top: HashMap<_, _> = TopTransition::ALL
        .map(|t| (t, pool(TOP + t as usize)))
        .into();
    let bottom: HashMap<_, _> = BottomTransition::ALL
        .map(|t| (t, pool(BOTTOM + t as usize)))
        .into();
    let firsts: Vec<_> = EventType::ALL
        .into_iter()
        .flat_map(|e| {
            pool(FIRSTS + e.code() as usize)
                .into_iter()
                .map(move |s| (e, s))
        })
        .collect();
    let gaps = |s: Vec<f64>| (!s.is_empty()).then(|| fit_sojourn(&s, kind));
    // Competing-risks correction: P(no second-level event | visit) per
    // bottom-capable state = censored visits / all completed visits.
    let bottom_exit = BOTTOM_STATES
        .into_iter()
        .zip(censored)
        .filter_map(|(state, c)| {
            let fired: usize = bottom
                .iter()
                .filter(|(t, _)| t.from_state() == state)
                .map(|(_, s)| s.len())
                .sum();
            (c + fired > 0).then(|| (state, c as f64 / (c as f64 + fired as f64).max(1.0)))
        })
        .collect();
    ClusterHourModel {
        top: SemiMarkovModel::fit(&top, kind),
        bottom: SemiMarkovModel::fit(&bottom, kind),
        bottom_exit,
        ho_interarrival: gaps(pool(HO_GAPS)),
        tau_interarrival: gaps(pool(TAU_GAPS)),
        first_event: FirstEventModel::fit(
            &firsts,
            (n_ues * n_days as usize).saturating_sub(firsts.len()),
        ),
        n_ues,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{HourOfDay, PopulationMix, TraceRecord, UeId};
    use cn_world::{generate_world, WorldConfig};

    fn small_world() -> Trace {
        generate_world(&WorldConfig::new(PopulationMix::new(30, 15, 10), 2.0, 11))
    }

    #[test]
    fn fit_produces_models_for_all_devices_and_hours() {
        let trace = small_world();
        let set = fit(&trace, &FitConfig::new(Method::Ours));
        assert_eq!(set.devices.len(), 3);
        assert_eq!(set.n_days, 2);
        for device in DeviceType::ALL {
            let dm = set.device(device);
            assert_eq!(dm.hours.len(), 24);
            assert!(dm.model_count() >= 24, "{device}");
            // Busy daytime hours must have usable models.
            let noon = dm.hour(HourOfDay(12));
            assert!(
                noon.clusters.iter().any(|c| !c.top.is_empty()),
                "{device}: no top model at noon"
            );
        }
    }

    #[test]
    fn ours_uses_ecdf_b2_uses_poisson() {
        use cn_stats::dist::Dist;
        let trace = small_world();
        let ours = fit(&trace, &FitConfig::new(Method::Ours));
        let b2 = fit(&trace, &FitConfig::new(Method::B2));
        let check = |set: &ModelSet, want_exp: bool| {
            let dm = set.device(DeviceType::Phone);
            let mut seen = false;
            for hm in &dm.hours {
                for c in &hm.clusters {
                    for t in TopTransition::ALL {
                        if let Some(d) = c.top.sojourn(t) {
                            seen = true;
                            match (want_exp, d) {
                                (true, Dist::Exponential(_)) | (false, Dist::Empirical(_)) => {}
                                // Degenerate Poisson fits legitimately fall
                                // back to ECDF.
                                (true, Dist::Empirical(e)) => {
                                    assert!(e.max() <= 0.0, "non-degenerate fallback")
                                }
                                (want, d) => panic!("want_exp={want}, got {}", d.family()),
                            }
                        }
                    }
                }
            }
            assert!(seen, "no sojourn models at all");
        };
        check(&ours, false);
        check(&b2, true);
    }

    #[test]
    fn emm_ecm_methods_have_interarrival_models_not_bottom() {
        let trace = small_world();
        let base = fit(&trace, &FitConfig::new(Method::Base));
        let dm = base.device(DeviceType::ConnectedCar);
        let mut saw_ho = false;
        for hm in &dm.hours {
            // Base: exactly one cluster per hour.
            assert_eq!(hm.clusters.len(), 1);
            let c = &hm.clusters[0];
            assert!(c.bottom.is_empty());
            saw_ho |= c.ho_interarrival.is_some();
        }
        assert!(saw_ho, "cars never produced HO gaps");
    }

    #[test]
    fn two_level_methods_have_bottom_models_not_interarrival() {
        let trace = small_world();
        let ours = fit(&trace, &FitConfig::new(Method::Ours));
        let dm = ours.device(DeviceType::ConnectedCar);
        let mut saw_bottom = false;
        for hm in &dm.hours {
            for c in &hm.clusters {
                assert!(c.ho_interarrival.is_none());
                assert!(c.tau_interarrival.is_none());
                saw_bottom |= !c.bottom.is_empty();
            }
        }
        assert!(saw_bottom, "cars never produced second-level transitions");
    }

    #[test]
    fn personas_reference_valid_clusters() {
        let trace = small_world();
        let set = fit(&trace, &FitConfig::new(Method::Ours));
        for dm in &set.devices {
            for row in &dm.personas {
                for (h, &c) in row.iter().enumerate() {
                    assert!(
                        c.index() < dm.hours[h].clusters.len(),
                        "{:?} hour {h}: persona cluster {c} out of range",
                        dm.device
                    );
                }
            }
        }
    }

    #[test]
    fn clustered_methods_split_more_than_one_cluster_somewhere() {
        let trace = small_world();
        let mut config = FitConfig::new(Method::Ours);
        // Small θ_n so our small population can still split.
        config.clustering.theta_n = 5;
        let set = fit(&trace, &config);
        let dm = set.device(DeviceType::Phone);
        let max_clusters = dm.hours.iter().map(|h| h.clusters.len()).max().unwrap();
        assert!(max_clusters > 1, "no hour split at all");
    }

    #[test]
    fn empty_trace_fits_empty_models() {
        let set = fit(&Trace::new(), &FitConfig::new(Method::Ours));
        assert_eq!(set.model_count(), 0);
        for dm in &set.devices {
            assert!(dm.personas.is_empty());
        }
    }

    /// 53 UEs (a multiple of no thread count tried) over two days, and a
    /// θ_n small enough that hours split into several clusters.
    fn invariance_world() -> (Trace, ClusteringParams) {
        let world = generate_world(&WorldConfig::new(PopulationMix::new(31, 13, 9), 2.0, 5));
        let clustering = ClusteringParams {
            theta_n: 4,
            ..ClusteringParams::default()
        };
        (world, clustering)
    }

    fn fit_json(
        trace: &Trace,
        method: Method,
        clustering: ClusteringParams,
        threads: usize,
    ) -> String {
        let mut config = FitConfig::new(method);
        config.clustering = clustering;
        config.threads = threads;
        fit(trace, &config).to_json().unwrap()
    }

    #[test]
    fn invariant_to_the_thread_count() {
        let (world, clustering) = invariance_world();
        let split = fit(
            &world,
            &FitConfig {
                clustering,
                ..FitConfig::new(Method::Ours)
            },
        );
        assert!(split
            .devices
            .iter()
            .any(|dm| dm.hours.iter().any(|h| h.clusters.len() > 1)));
        for method in Method::ALL {
            let one = fit_json(&world, method, clustering, 1);
            for threads in [2, 3, 7] {
                assert!(
                    fit_json(&world, method, clustering, threads) == one,
                    "{method:?} on {threads} threads differs from one thread"
                );
            }
        }
    }

    #[test]
    fn invariant_to_a_monotone_relabeling_of_ue_ids() {
        let (world, clustering) = invariance_world();
        let sparse = Trace::from_records(
            world
                .records()
                .iter()
                .map(|r| TraceRecord {
                    ue: UeId(r.ue.0 * 1_000 + 5),
                    ..*r
                })
                .collect(),
        );
        for method in Method::ALL {
            assert!(
                fit_json(&sparse, method, clustering, 2) == fit_json(&world, method, clustering, 2),
                "{method:?} depends on the UE ids themselves"
            );
        }
    }

    #[test]
    fn model_set_json_round_trip() {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(5, 2, 2), 1.0, 3));
        let set = fit(&trace, &FitConfig::new(Method::Ours));
        // Exact f64 round-tripping needs serde_json's `float_roundtrip`
        // feature (enabled workspace-wide); with it, deep equality holds.
        let json = set.to_json().unwrap();
        let back = ModelSet::from_json(&json).unwrap();
        assert_eq!(set, back);
    }
}
