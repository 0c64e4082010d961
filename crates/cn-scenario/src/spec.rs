//! Scenario specifications: serde-able, validated, seedable.
//!
//! A [`ScenarioSpec`] is a *pure description* of a stress scenario: a
//! timeline of [`Phase`]s, each confining one perturbation primitive to a
//! half-open [`TimeWindow`] (seconds relative to the synthesis start) and
//! a [`UeSubset`] of the synthesized population. Specs carry their own
//! seed, so a scenario is replay-deterministic independently of the
//! baseline generator's seed and shard count.
//!
//! Validation follows the `GenConfig` saturation discipline from the
//! sharded-stream work: every `f64` field is checked for NaN / infinity /
//! sign *up front* and rejected with a typed [`SpecError`] — a spec that
//! validates can be resolved to millisecond windows without any further
//! range checks. Phase windows must be pairwise disjoint: the metamorphic
//! contract ("each perturbation changes exactly its own window") is only
//! decidable when no two phases share an instant.

use cn_trace::{DeviceType, Timestamp, MS_PER_SEC};
use serde::{Deserialize, Serialize};

/// Most records one phase may inject. A phase materializes its injections
/// in one buffer, so this bounds what a spec — or a checkpoint carrying
/// one — can make the process allocate: 2²² records (64 MiB), ~35× the
/// largest canonical phase (a 2 000-UE M2M fleet reporting 60 times).
const MAX_PHASE_RECORDS: u64 = 1 << 22;

/// A half-open time window `[start_s, start_s + duration_s)`, in seconds
/// relative to the scenario epoch (the generation config's `start`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeWindow {
    /// Window start, seconds after the scenario epoch (finite, ≥ 0).
    pub start_s: f64,
    /// Window length in seconds (finite, > 0 after millisecond rounding).
    pub duration_s: f64,
}

impl TimeWindow {
    /// A window starting `start_s` seconds into the scenario and lasting
    /// `duration_s` seconds.
    pub fn new(start_s: f64, duration_s: f64) -> TimeWindow {
        TimeWindow {
            start_s,
            duration_s,
        }
    }

    /// Start of the window resolved against an epoch, in absolute
    /// milliseconds. Only meaningful on a validated spec.
    pub fn start_ms(&self, epoch: Timestamp) -> u64 {
        epoch
            .saturating_add((self.start_s * MS_PER_SEC as f64).round() as u64)
            .as_millis()
    }

    /// Exclusive end of the window resolved against an epoch.
    pub fn end_ms(&self, epoch: Timestamp) -> u64 {
        self.start_ms(epoch)
            .saturating_add((self.duration_s * MS_PER_SEC as f64).round() as u64)
    }
}

/// A contiguous, half-open range `[lo, hi)` of synthesized UE indices the
/// phase is confined to.
///
/// Indices follow the generation config's layout (phones, then connected
/// cars, then tablets); a subset may deliberately reach *beyond* the
/// baseline population to model overlay devices (e.g. an M2M fleet) that
/// emit only scenario traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UeSubset {
    /// First UE index in the subset.
    pub(crate) lo: u32,
    /// One past the last UE index in the subset.
    pub hi: u32,
}

impl UeSubset {
    /// The subset `[lo, hi)`.
    pub fn new(lo: u32, hi: u32) -> UeSubset {
        UeSubset { lo, hi }
    }

    /// How many UEs the subset contains.
    pub(crate) fn len(&self) -> u64 {
        u64::from(self.hi.saturating_sub(self.lo))
    }

    /// True when `ue` falls inside the subset.
    pub fn contains(&self, ue: u32) -> bool {
        self.lo <= ue && ue < self.hi
    }

    /// Iterate the subset's UE indices in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> {
        self.lo..self.hi
    }
}

/// Which signaling-storm flavor a storm phase injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StormKind {
    /// Paging storm: each burst is a `SRV_REQ` (the paged UE answering)
    /// followed by its `S1_CONN_REL` shortly after.
    Paging,
    /// RRC re-establishment storm after an outage: a flood of bare
    /// `SRV_REQ` as every UE races to restore its signaling connection.
    Reestablishment,
    /// TAU flood at a tracking-area boundary: bare `TAU` events.
    TauFlood,
}

/// One perturbation primitive, confined to its phase's window and subset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PhaseKind {
    /// A flash crowd (stadium event): the subset mass-attaches in `waves`
    /// arrival waves spread across the window, each arrival followed by
    /// `handovers_per_ue` handover-in events as the crowd converges on
    /// the venue's cells.
    FlashCrowd {
        /// UEs that take part in the crowd.
        ues: UeSubset,
        /// Number of arrival waves (≥ 1); UE `u` joins wave
        /// `(u - lo) % waves`.
        waves: u32,
        /// Handover-in events injected per arriving UE (may be 0).
        handovers_per_ue: u32,
    },
    /// A signaling storm of the given flavor: `bursts_per_ue` bursts per
    /// subset UE at uniform times in the window.
    SignalingStorm {
        /// UEs caught in the storm.
        ues: UeSubset,
        /// Storm flavor (what each burst injects).
        kind: StormKind,
        /// Bursts per UE (≥ 1). Burst `i` of a UE reuses the first `i`
        /// RNG draws of burst `i+1`'s stream, so a storm of intensity `k`
        /// injects a sub-multiset of one of intensity `k' > k` — the
        /// property the overload monotonicity tests lean on.
        bursts_per_ue: u32,
    },
    /// A simulated outage: *suppress* every baseline event of the subset
    /// inside the window (the RAN is down; nothing reaches the core).
    /// Typically followed by a `SignalingStorm` phase modeling recovery.
    Outage {
        /// UEs behind the failed site.
        ues: UeSubset,
    },
    /// Synchronized M2M periodic reporting: every subset UE emits a `TAU`
    /// (periodic-timer expiry) at exactly `start + k·period_s` for every
    /// `k` with that instant inside the window — the pathological
    /// zero-jitter fleet.
    M2mReporting {
        /// The reporting fleet.
        ues: UeSubset,
        /// Reporting period in seconds (finite, ≥ 0.001).
        period_s: f64,
        /// Device type of fleet UEs *beyond* the baseline population
        /// (UEs inside it keep their configured device type).
        device: DeviceType,
    },
}

impl PhaseKind {
    /// The UE subset this phase is confined to.
    pub fn ues(&self) -> UeSubset {
        match self {
            PhaseKind::FlashCrowd { ues, .. }
            | PhaseKind::SignalingStorm { ues, .. }
            | PhaseKind::Outage { ues }
            | PhaseKind::M2mReporting { ues, .. } => *ues,
        }
    }

    /// Short label for metrics and reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            PhaseKind::FlashCrowd { .. } => "flash_crowd",
            PhaseKind::SignalingStorm { .. } => "signaling_storm",
            PhaseKind::Outage { .. } => "outage",
            PhaseKind::M2mReporting { .. } => "m2m_reporting",
        }
    }
}

/// One phase of a scenario timeline: a named perturbation confined to a
/// window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Phase name (metric label, report rows).
    pub name: String,
    /// The phase's half-open time window.
    pub window: TimeWindow,
    /// The perturbation primitive.
    pub kind: PhaseKind,
}

/// A complete scenario: named, seeded, and a timeline of phases.
///
/// The empty timeline is the **identity scenario**: applying it to any
/// baseline stream reproduces that stream byte for byte (the anchor of
/// the metamorphic test suite).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (artifact file names, reports).
    pub name: String,
    /// Scenario seed: injections are a pure function of
    /// `(seed, phase index, ue)`, independent of the baseline engine.
    pub seed: u64,
    /// Timeline phases; windows must be pairwise disjoint.
    pub phases: Vec<Phase>,
}

/// Why a [`ScenarioSpec`] failed validation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpecError {
    /// An `f64` field is NaN or infinite.
    NonFinite {
        /// Index of the offending phase.
        phase: usize,
        /// Field name.
        field: &'static str,
        /// The offending value (NaN serializes as `null`; compare via
        /// the error's rendered form in that case).
        value: f64,
    },
    /// An `f64` field is negative.
    Negative {
        /// Index of the offending phase.
        phase: usize,
        /// Field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A window rounds to zero milliseconds.
    EmptyWindow {
        /// Index of the offending phase.
        phase: usize,
    },
    /// Two phase windows share at least one instant.
    OverlappingWindows {
        /// Index of the earlier-starting phase.
        earlier: usize,
        /// Index of the later-starting phase.
        later: usize,
    },
    /// A phase's UE subset is empty.
    EmptyUeSubset {
        /// Index of the offending phase.
        phase: usize,
    },
    /// An intensity knob (waves, bursts, period) is zero or too small to
    /// inject anything.
    ZeroIntensity {
        /// Index of the offending phase.
        phase: usize,
        /// Field name.
        field: &'static str,
    },
    /// A phase would inject more records than one phase may hold.
    TooManyInjections {
        /// Index of the offending phase.
        phase: usize,
        /// Records the phase would inject (saturating at `u64::MAX`).
        records: u64,
    },
    /// Composing populations overflowed the dense `u32` UE id space
    /// ([`crate::ComposedStream`]): the cumulative population total
    /// through this slot exceeds `u32::MAX`, so the slot's UEs cannot be
    /// relabeled onto a disjoint range without aliasing earlier slots.
    UeRangeOverflow {
        /// Index of the first slot whose relabeled range does not fit.
        slot: usize,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NonFinite {
                phase,
                field,
                value,
            } => write!(f, "phase {phase}: `{field}` is not finite ({value})"),
            SpecError::Negative {
                phase,
                field,
                value,
            } => write!(f, "phase {phase}: `{field}` is negative ({value})"),
            SpecError::EmptyWindow { phase } => {
                write!(f, "phase {phase}: window rounds to zero milliseconds")
            }
            SpecError::OverlappingWindows { earlier, later } => {
                write!(f, "phases {earlier} and {later} have overlapping windows")
            }
            SpecError::EmptyUeSubset { phase } => {
                write!(f, "phase {phase}: UE subset is empty")
            }
            SpecError::ZeroIntensity { phase, field } => {
                write!(f, "phase {phase}: `{field}` must be positive")
            }
            SpecError::TooManyInjections { phase, records } => write!(
                f,
                "phase {phase}: injects {records} records, over the {MAX_PHASE_RECORDS} cap"
            ),
            SpecError::UeRangeOverflow { slot } => {
                write!(
                    f,
                    "slot {slot}: cumulative population total overflows the u32 UE id space"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Check one `f64` field: finite and non-negative.
fn check_f64(phase: usize, field: &'static str, value: f64) -> Result<(), SpecError> {
    if !value.is_finite() {
        return Err(SpecError::NonFinite {
            phase,
            field,
            value,
        });
    }
    if value < 0.0 {
        return Err(SpecError::Negative {
            phase,
            field,
            value,
        });
    }
    Ok(())
}

impl ScenarioSpec {
    /// The identity scenario: no phases, any stream passes through
    /// untouched.
    pub fn identity(name: &str, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            seed,
            phases: Vec::new(),
        }
    }

    /// Validate the spec: every float finite and in range, every window
    /// non-empty at millisecond resolution, every subset non-empty, every
    /// intensity positive, no phase injecting more than a fixed cap of
    /// records, and all windows pairwise disjoint.
    ///
    /// A validated spec can be compiled and resolved without further
    /// range checks (the saturation discipline: reject up front, then
    /// trust the numbers).
    pub fn validate(&self) -> Result<(), SpecError> {
        for (i, phase) in self.phases.iter().enumerate() {
            check_f64(i, "window.start_s", phase.window.start_s)?;
            check_f64(i, "window.duration_s", phase.window.duration_s)?;
            let start = phase.window.start_ms(Timestamp::from_millis(0));
            let end = phase.window.end_ms(Timestamp::from_millis(0));
            if end <= start {
                return Err(SpecError::EmptyWindow { phase: i });
            }
            let ues = phase.kind.ues().len();
            if ues == 0 {
                return Err(SpecError::EmptyUeSubset { phase: i });
            }
            // Records per UE the phase injects.
            let per_ue = match &phase.kind {
                PhaseKind::FlashCrowd {
                    waves,
                    handovers_per_ue,
                    ..
                } => {
                    if *waves == 0 {
                        return Err(SpecError::ZeroIntensity {
                            phase: i,
                            field: "waves",
                        });
                    }
                    1 + u64::from(*handovers_per_ue)
                }
                PhaseKind::SignalingStorm {
                    kind,
                    bursts_per_ue,
                    ..
                } => {
                    if *bursts_per_ue == 0 {
                        return Err(SpecError::ZeroIntensity {
                            phase: i,
                            field: "bursts_per_ue",
                        });
                    }
                    let per_burst = if *kind == StormKind::Paging { 2 } else { 1 };
                    per_burst * u64::from(*bursts_per_ue)
                }
                PhaseKind::M2mReporting { period_s, .. } => {
                    check_f64(i, "period_s", *period_s)?;
                    let period = (*period_s * MS_PER_SEC as f64).round();
                    if period < 1.0 {
                        return Err(SpecError::ZeroIntensity {
                            phase: i,
                            field: "period_s",
                        });
                    }
                    (end - start).div_ceil(period as u64)
                }
                PhaseKind::Outage { .. } => 0,
            };
            let records = ues.saturating_mul(per_ue);
            if records > MAX_PHASE_RECORDS {
                return Err(SpecError::TooManyInjections { phase: i, records });
            }
        }
        // Pairwise disjoint windows, at millisecond resolution against a
        // zero epoch (disjointness is translation-invariant).
        let epoch = Timestamp::from_millis(0);
        let mut order: Vec<usize> = (0..self.phases.len()).collect();
        order.sort_by_key(|&i| self.phases[i].window.start_ms(epoch));
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if self.phases[b].window.start_ms(epoch) < self.phases[a].window.end_ms(epoch) {
                return Err(SpecError::OverlappingWindows {
                    earlier: a,
                    later: b,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm(start_s: f64, duration_s: f64) -> Phase {
        Phase {
            name: "storm".into(),
            window: TimeWindow::new(start_s, duration_s),
            kind: PhaseKind::SignalingStorm {
                ues: UeSubset::new(0, 10),
                kind: StormKind::TauFlood,
                bursts_per_ue: 3,
            },
        }
    }

    #[test]
    fn identity_validates() {
        assert_eq!(ScenarioSpec::identity("id", 1).validate(), Ok(()));
    }

    #[test]
    fn nan_and_negative_windows_are_typed_errors() {
        let mut spec = ScenarioSpec::identity("bad", 1);
        spec.phases.push(storm(f64::NAN, 10.0));
        assert!(matches!(
            spec.validate(),
            Err(SpecError::NonFinite {
                phase: 0,
                field: "window.start_s",
                ..
            })
        ));
        spec.phases[0].window = TimeWindow::new(5.0, f64::INFINITY);
        assert!(matches!(
            spec.validate(),
            Err(SpecError::NonFinite {
                phase: 0,
                field: "window.duration_s",
                ..
            })
        ));
        spec.phases[0].window = TimeWindow::new(-1.0, 10.0);
        assert!(matches!(
            spec.validate(),
            Err(SpecError::Negative {
                phase: 0,
                field: "window.start_s",
                ..
            })
        ));
        spec.phases[0].window = TimeWindow::new(1.0, 0.0);
        assert_eq!(spec.validate(), Err(SpecError::EmptyWindow { phase: 0 }));
        // Sub-millisecond duration rounds to an empty window.
        spec.phases[0].window = TimeWindow::new(1.0, 0.0004);
        assert_eq!(spec.validate(), Err(SpecError::EmptyWindow { phase: 0 }));
    }

    #[test]
    fn overlap_is_rejected_in_any_declaration_order() {
        let mut spec = ScenarioSpec::identity("overlap", 1);
        spec.phases.push(storm(100.0, 50.0));
        spec.phases.push(storm(10.0, 91.0)); // [10,101) overlaps [100,150)
        assert_eq!(
            spec.validate(),
            Err(SpecError::OverlappingWindows {
                earlier: 1,
                later: 0
            })
        );
        // Touching windows ([10,100) then [100,150)) are disjoint.
        spec.phases[1].window = TimeWindow::new(10.0, 90.0);
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn empty_subset_and_zero_intensity_are_rejected() {
        let mut spec = ScenarioSpec::identity("bad", 1);
        spec.phases.push(Phase {
            name: "crowd".into(),
            window: TimeWindow::new(0.0, 60.0),
            kind: PhaseKind::FlashCrowd {
                ues: UeSubset::new(7, 7),
                waves: 2,
                handovers_per_ue: 1,
            },
        });
        assert_eq!(spec.validate(), Err(SpecError::EmptyUeSubset { phase: 0 }));
        spec.phases[0].kind = PhaseKind::FlashCrowd {
            ues: UeSubset::new(0, 5),
            waves: 0,
            handovers_per_ue: 1,
        };
        assert_eq!(
            spec.validate(),
            Err(SpecError::ZeroIntensity {
                phase: 0,
                field: "waves"
            })
        );
        spec.phases[0].kind = PhaseKind::M2mReporting {
            ues: UeSubset::new(0, 5),
            period_s: 0.0001,
            device: DeviceType::ConnectedCar,
        };
        assert_eq!(
            spec.validate(),
            Err(SpecError::ZeroIntensity {
                phase: 0,
                field: "period_s"
            })
        );
    }

    #[test]
    fn subset_basics() {
        let s = UeSubset::new(4, 9);
        assert!(s.contains(4) && s.contains(8));
        assert!(!s.contains(3) && !s.contains(9));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![4, 5, 6, 7, 8]);
        assert_eq!(s.len(), 5);
        assert_eq!(UeSubset::new(9, 4).len(), 0);
    }

    #[test]
    fn phases_that_would_inject_unbounded_records_are_typed_errors() {
        // Every UE id, four billion bursts each: ~1.8·10¹⁹ records.
        let huge = r#"{"name":"huge","seed":1,"phases":[{"name":"storm","window":{"start_s":0.0,"duration_s":60.0},"kind":{"SignalingStorm":{"ues":{"lo":0,"hi":4294967295},"kind":"TauFlood","bursts_per_ue":4294967295}}}]}"#;
        let spec: ScenarioSpec = serde_json::from_str(huge).unwrap();
        assert_eq!(
            spec.validate(),
            Err(SpecError::TooManyInjections {
                phase: 0,
                records: 4_294_967_295 * 4_294_967_295,
            })
        );
        let phase = |window: TimeWindow, kind: PhaseKind| ScenarioSpec {
            phases: vec![Phase {
                name: "p".into(),
                window,
                kind,
            }],
            ..ScenarioSpec::identity("cap", 1)
        };
        let storm = |kind: StormKind, bursts_per_ue: u32| {
            phase(
                TimeWindow::new(0.0, 60.0),
                PhaseKind::SignalingStorm {
                    ues: UeSubset::new(0, 1 << 20),
                    kind,
                    bursts_per_ue,
                },
            )
        };
        let over = |records: u64| Err(SpecError::TooManyInjections { phase: 0, records });
        // A paging burst is two records; other bursts one.
        assert_eq!(storm(StormKind::TauFlood, 4).validate(), Ok(()));
        assert_eq!(storm(StormKind::Paging, 2).validate(), Ok(()));
        assert_eq!(storm(StormKind::Paging, 4).validate(), over(8 << 20));
        assert_eq!(
            storm(StormKind::Reestablishment, 5).validate(),
            over(5 << 20)
        );
        let crowd = |handovers_per_ue: u32| {
            phase(
                TimeWindow::new(0.0, 60.0),
                PhaseKind::FlashCrowd {
                    ues: UeSubset::new(0, 1 << 20),
                    waves: 1,
                    handovers_per_ue,
                },
            )
        };
        assert_eq!(crowd(3).validate(), Ok(()));
        assert_eq!(crowd(4).validate(), over(5 << 20));
        // ⌈window / period⌉ reports per UE: 4 s at 1 s is 4, at 0.999 s 5.
        let fleet = |period_s: f64| {
            phase(
                TimeWindow::new(0.0, 4.0),
                PhaseKind::M2mReporting {
                    ues: UeSubset::new(0, 1 << 20),
                    period_s,
                    device: DeviceType::Tablet,
                },
            )
        };
        assert_eq!(fleet(1.0).validate(), Ok(()));
        assert_eq!(fleet(0.999).validate(), over(5 << 20));
        // An outage injects nothing, however many UEs it covers.
        let outage = PhaseKind::Outage {
            ues: UeSubset::new(0, u32::MAX),
        };
        assert_eq!(phase(TimeWindow::new(0.0, 1e9), outage).validate(), Ok(()));
    }

    #[test]
    fn windows_resolve_against_the_epoch() {
        let w = TimeWindow::new(1.5, 2.25);
        let epoch = Timestamp::from_millis(1_000);
        assert_eq!(w.start_ms(epoch), 2_500);
        assert_eq!(w.end_ms(epoch), 4_750);
    }

    #[test]
    fn spec_serde_round_trips() {
        let mut spec = ScenarioSpec::identity("round", 99);
        spec.phases.push(storm(30.0, 120.0));
        spec.phases.push(Phase {
            name: "fleet".into(),
            window: TimeWindow::new(400.0, 60.0),
            kind: PhaseKind::M2mReporting {
                ues: UeSubset::new(40, 80),
                period_s: 10.0,
                device: DeviceType::ConnectedCar,
            },
        });
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
