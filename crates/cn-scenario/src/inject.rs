//! Deterministic materialization of a phase's injected events.
//!
//! Injections are a pure function of `(spec seed, phase index, ue)` — no
//! state leaks in from the baseline engine, its shard count, or the order
//! in which the overlay stream is drained. Per `(phase, ue)` the RNG
//! stream is consumed *sequentially per burst*, so a storm of intensity
//! `k` injects exactly the first `k` bursts of an intensity-`k'` storm
//! (`k < k'`): scenario intensity sweeps produce nested event multisets,
//! which is what makes shed-monotonicity under storms a theorem of the
//! overload controller rather than a coincidence of seeds.
//!
//! Every injected record is confined **by construction** to its phase's
//! half-open window and UE subset; the metamorphic suite in `cn-verify`
//! and this crate's tests then re-prove the confinement from the outside.

use crate::spec::{Phase, PhaseKind, StormKind, UeSubset};
use cn_gen::GenConfig;
use cn_trace::{DeviceType, EventType, Timestamp, TraceRecord, UeId, MS_PER_SEC};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Paging-storm release delay bounds (ms after the paged `SRV_REQ`).
const PAGE_RELEASE_MIN_MS: u64 = 100;
const PAGE_RELEASE_MAX_MS: u64 = 2_000;

/// SplitMix64 finalizer (the same mix the generator uses for per-UE
/// stream seeds).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG for one `(scenario seed, phase, ue)` cell: decorrelated from
/// both the master seed and the generator's per-UE streams.
fn cell_rng(seed: u64, phase: usize, ue: u32) -> StdRng {
    let cell = ((phase as u64) << 32 | u64::from(ue)) ^ 0x5CE2_A510_0000_0000;
    StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(cell)))
}

/// Device type of an injected record: UEs inside the baseline population
/// keep their configured type (anything else would make the composed
/// trace structurally ill-formed); overlay UEs beyond it take the
/// phase-declared type (M2M) or the population layout's extrapolation.
fn device_for(config: &GenConfig, ue: u32, overlay: Option<DeviceType>) -> DeviceType {
    if ue < config.population.total() {
        config.device_of(ue)
    } else {
        overlay.unwrap_or_else(|| config.device_of(ue))
    }
}

/// Materialize one phase's injected records, sorted by `(t, ue, event)`.
///
/// `phase_index` is the phase's position in the spec (the RNG
/// decorrelation key); `epoch` is the generation config's `start`.
pub(crate) fn materialize_phase(
    phase: &Phase,
    phase_index: usize,
    seed: u64,
    config: &GenConfig,
) -> Vec<TraceRecord> {
    let epoch = config.start;
    let start = phase.window.start_ms(epoch);
    let end = phase.window.end_ms(epoch);
    debug_assert!(start < end, "materialize_phase on an unvalidated window");
    let mut records = Vec::new();
    match &phase.kind {
        PhaseKind::FlashCrowd {
            ues,
            waves,
            handovers_per_ue,
        } => {
            flash_crowd(
                &mut records,
                *ues,
                *waves,
                *handovers_per_ue,
                start,
                end,
                phase_index,
                seed,
                config,
            );
        }
        PhaseKind::SignalingStorm {
            ues,
            kind,
            bursts_per_ue,
        } => {
            for ue in ues.iter() {
                let mut rng = cell_rng(seed, phase_index, ue);
                let device = device_for(config, ue, None);
                for _ in 0..*bursts_per_ue {
                    let t = rng.gen_range(start..end);
                    match kind {
                        StormKind::Paging => {
                            // The paged UE answers, then releases shortly
                            // after — both clamped inside the window.
                            let delta = rng.gen_range(PAGE_RELEASE_MIN_MS..PAGE_RELEASE_MAX_MS);
                            push(&mut records, t, ue, device, EventType::ServiceRequest);
                            let rel = (t + delta).min(end - 1);
                            push(&mut records, rel, ue, device, EventType::S1ConnRelease);
                        }
                        StormKind::Reestablishment => {
                            push(&mut records, t, ue, device, EventType::ServiceRequest);
                        }
                        StormKind::TauFlood => {
                            push(&mut records, t, ue, device, EventType::Tau);
                        }
                    }
                }
            }
        }
        PhaseKind::Outage { .. } => {
            // Pure suppression: nothing to inject.
        }
        PhaseKind::M2mReporting {
            ues,
            period_s,
            device,
        } => {
            let raw = (*period_s * MS_PER_SEC as f64).round() as u64;
            debug_assert!(raw >= 1, "unvalidated M2mReporting period (rounds to 0 ms)");
            // `ScenarioSpec::validate()` rejects periods that round to
            // 0 ms (`SpecError::ZeroIntensity`), but this function is
            // public and a debug_assert vanishes in release builds — where
            // `t += 0` below would spin forever. Clamp defensively so an
            // unvalidated call degrades to a 1 ms period instead of
            // wedging the process.
            let period = raw.max(1);
            // Synchronized: every fleet UE reports at exactly the same
            // instants — the zero-jitter pathological case.
            let mut t = start;
            while t < end {
                for ue in ues.iter() {
                    push(
                        &mut records,
                        t,
                        ue,
                        device_for(config, ue, Some(*device)),
                        EventType::Tau,
                    );
                }
                t = t.saturating_add(period);
            }
        }
    }
    records.sort_unstable();
    debug_assert!(
        records
            .iter()
            .all(|r| start <= r.t.as_millis() && r.t.as_millis() < end),
        "injection escaped its window"
    );
    records
}

#[allow(clippy::too_many_arguments)]
fn flash_crowd(
    records: &mut Vec<TraceRecord>,
    ues: UeSubset,
    waves: u32,
    handovers_per_ue: u32,
    start: u64,
    end: u64,
    phase_index: usize,
    seed: u64,
    config: &GenConfig,
) {
    let span = (end - start) / u64::from(waves);
    for ue in ues.iter() {
        let wave = u64::from((ue - ues.lo) % waves);
        // Wave w arrives in [start + w·span, start + (w+1)·span); the last
        // wave absorbs the division remainder so the whole window is used.
        let wave_start = start + wave * span.max(1);
        let wave_end = if wave == u64::from(waves) - 1 {
            end
        } else {
            (wave_start + span).min(end)
        };
        let (wave_start, wave_end) = if wave_start >= end {
            // Degenerate: more waves than milliseconds; collapse into the
            // final instant rather than escaping the window.
            (end - 1, end)
        } else {
            (wave_start, wave_end.max(wave_start + 1))
        };
        let mut rng = cell_rng(seed, phase_index, ue);
        let device = device_for(config, ue, None);
        let arrival = rng.gen_range(wave_start..wave_end);
        push(records, arrival, ue, device, EventType::Attach);
        // Handover-in events as the crowd converges on the venue cells.
        for _ in 0..handovers_per_ue {
            let t = rng.gen_range(arrival..end.max(arrival + 1));
            push(records, t, ue, device, EventType::Handover);
        }
    }
}

fn push(records: &mut Vec<TraceRecord>, t_ms: u64, ue: u32, device: DeviceType, event: EventType) {
    records.push(TraceRecord::new(
        Timestamp::from_millis(t_ms),
        UeId(ue),
        device,
        event,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TimeWindow;
    use cn_trace::PopulationMix;

    fn config() -> GenConfig {
        GenConfig::new(
            PopulationMix::new(10, 4, 2),
            Timestamp::at_hour(0, 9),
            2.0,
            7,
        )
    }

    fn in_window(records: &[TraceRecord], phase: &Phase, config: &GenConfig) -> bool {
        let (s, e) = (
            phase.window.start_ms(config.start),
            phase.window.end_ms(config.start),
        );
        records.iter().all(|r| {
            s <= r.t.as_millis() && r.t.as_millis() < e && phase.kind.ues().contains(r.ue.get())
        })
    }

    #[test]
    fn storm_confined_and_deterministic() {
        let phase = Phase {
            name: "tau".into(),
            window: TimeWindow::new(60.0, 120.0),
            kind: PhaseKind::SignalingStorm {
                ues: UeSubset::new(2, 9),
                kind: StormKind::TauFlood,
                bursts_per_ue: 5,
            },
        };
        let cfg = config();
        let a = materialize_phase(&phase, 0, 42, &cfg);
        let b = materialize_phase(&phase, 0, 42, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7 * 5);
        assert!(in_window(&a, &phase, &cfg));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "not sorted");
        assert!(a.iter().all(|r| r.event == EventType::Tau));
        // A different seed draws different instants.
        let c = materialize_phase(&phase, 0, 43, &cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn storm_intensity_is_a_prefix_multiset() {
        let cfg = config();
        for kind in [
            StormKind::Paging,
            StormKind::Reestablishment,
            StormKind::TauFlood,
        ] {
            let mk = |bursts| Phase {
                name: "s".into(),
                window: TimeWindow::new(10.0, 300.0),
                kind: PhaseKind::SignalingStorm {
                    ues: UeSubset::new(0, 6),
                    kind,
                    bursts_per_ue: bursts,
                },
            };
            let small = materialize_phase(&mk(3), 1, 5, &cfg);
            let big = materialize_phase(&mk(8), 1, 5, &cfg);
            // Every record of the small storm appears (with multiplicity)
            // in the big one.
            let mut pool = big.clone();
            for r in &small {
                let i = pool.iter().position(|p| p == r).unwrap_or_else(|| {
                    panic!("{kind:?}: record {r:?} of the small storm missing from the big one")
                });
                pool.swap_remove(i);
            }
        }
    }

    #[test]
    fn paging_storm_pairs_requests_with_releases() {
        let phase = Phase {
            name: "page".into(),
            window: TimeWindow::new(0.0, 30.0),
            kind: PhaseKind::SignalingStorm {
                ues: UeSubset::new(0, 4),
                kind: StormKind::Paging,
                bursts_per_ue: 6,
            },
        };
        let cfg = config();
        let recs = materialize_phase(&phase, 0, 9, &cfg);
        let reqs = recs
            .iter()
            .filter(|r| r.event == EventType::ServiceRequest)
            .count();
        let rels = recs
            .iter()
            .filter(|r| r.event == EventType::S1ConnRelease)
            .count();
        assert_eq!(reqs, 4 * 6);
        assert_eq!(rels, 4 * 6);
        assert!(in_window(&recs, &phase, &cfg));
    }

    #[test]
    fn flash_crowd_attaches_every_ue_once() {
        let phase = Phase {
            name: "stadium".into(),
            window: TimeWindow::new(120.0, 600.0),
            kind: PhaseKind::FlashCrowd {
                ues: UeSubset::new(0, 12),
                waves: 3,
                handovers_per_ue: 2,
            },
        };
        let cfg = config();
        let recs = materialize_phase(&phase, 2, 77, &cfg);
        assert!(in_window(&recs, &phase, &cfg));
        for ue in 0..12u32 {
            let mine: Vec<_> = recs.iter().filter(|r| r.ue.get() == ue).collect();
            assert_eq!(
                mine.iter().filter(|r| r.event == EventType::Attach).count(),
                1
            );
            assert_eq!(
                mine.iter()
                    .filter(|r| r.event == EventType::Handover)
                    .count(),
                2
            );
            // The attach precedes (or ties) every handover of its UE.
            let attach_t = mine
                .iter()
                .find(|r| r.event == EventType::Attach)
                .unwrap()
                .t;
            assert!(mine.iter().all(|r| r.t >= attach_t));
        }
    }

    #[test]
    fn m2m_reporting_is_synchronized() {
        let phase = Phase {
            name: "fleet".into(),
            window: TimeWindow::new(0.0, 100.0),
            kind: PhaseKind::M2mReporting {
                ues: UeSubset::new(20, 25), // beyond the 16-UE population
                period_s: 30.0,
                device: DeviceType::ConnectedCar,
            },
        };
        let cfg = config();
        let recs = materialize_phase(&phase, 0, 1, &cfg);
        // Instants 0, 30, 60, 90 s into the window × 5 UEs.
        assert_eq!(recs.len(), 4 * 5);
        let mut instants: Vec<u64> = recs.iter().map(|r| r.t.as_millis()).collect();
        instants.dedup();
        assert_eq!(instants.len(), 4, "reports must be synchronized");
        assert!(recs.iter().all(|r| r.device == DeviceType::ConnectedCar));
        assert!(recs.iter().all(|r| r.event == EventType::Tau));
    }

    #[test]
    fn in_population_ues_keep_their_configured_device() {
        let cfg = config(); // 10 phones, 4 cars, 2 tablets
        let phase = Phase {
            name: "fleet".into(),
            window: TimeWindow::new(0.0, 60.0),
            kind: PhaseKind::M2mReporting {
                ues: UeSubset::new(8, 12), // straddles the phone/car boundary
                period_s: 60.0,
                device: DeviceType::Tablet,
            },
        };
        let recs = materialize_phase(&phase, 0, 1, &cfg);
        for r in &recs {
            assert_eq!(r.device, cfg.device_of(r.ue.get()), "{r:?}");
        }
    }

    /// Regression for the release-build infinite loop: a period that
    /// rounds to 0 ms must be rejected by validation, and must still
    /// terminate (clamped to 1 ms) when validation is bypassed. The termination half only runs
    /// in release tests; in debug the defensive `debug_assert` fires
    /// first, which is the intended misuse signal there.
    #[test]
    fn zero_rounding_m2m_period_is_rejected_and_cannot_wedge() {
        let phase = Phase {
            name: "zero-period".into(),
            window: TimeWindow::new(0.0, 1.0),
            kind: PhaseKind::M2mReporting {
                ues: UeSubset::new(0, 2),
                period_s: 0.0004, // rounds to 0 ms
                device: DeviceType::ConnectedCar,
            },
        };
        let spec = crate::ScenarioSpec {
            name: "bad".into(),
            seed: 1,
            phases: vec![phase.clone()],
        };
        assert_eq!(
            spec.validate(),
            Err(crate::SpecError::ZeroIntensity {
                phase: 0,
                field: "period_s"
            })
        );
        #[cfg(not(debug_assertions))]
        {
            let recs = materialize_phase(&phase, 0, 1, &config());
            // Clamped to 1 ms: one report per UE per millisecond of the
            // 1 s window — finite, not an infinite loop.
            assert_eq!(recs.len(), 1_000 * 2);
        }
    }

    #[test]
    fn outage_injects_nothing() {
        let phase = Phase {
            name: "dark".into(),
            window: TimeWindow::new(0.0, 60.0),
            kind: PhaseKind::Outage {
                ues: UeSubset::new(0, 16),
            },
        };
        assert!(materialize_phase(&phase, 0, 1, &config()).is_empty());
    }
}
