//! One trace, measured once, for the paper's §8 comparisons.
//!
//! Every real-vs-synthesized comparison of the evaluation reads the same
//! few quantities of each device type: the macroscopic event breakdown
//! with `HO` and `TAU` split by the ECM state they fired in (Tables 4/11:
//! a correct model only produces `HO` in CONNECTED, while the EMM–ECM
//! baselines leak large `HO (IDLE)` shares), the per-UE `SRV_REQ` and
//! `S1_CONN_REL` counts (Tables 5/6, Fig. 7) and the sojourns in CONNECTED
//! and IDLE before the dominant CONNECTED↔IDLE transitions (Table 5).
//! [`Profile::of`] groups a trace by UE once and replays each UE once
//! (`cn-statemachine::replay_ue` tolerates the baselines' protocol
//! violations and still reports the state each event fired in).
//!
//! The per-UE quantities are compared by the maximum y-distance of their
//! CDFs (`cn_stats::two_sample_distance`, the two-sample K–S statistic),
//! which reads a sample as a multiset. So the counts carry no UE ids: a UE
//! of the population that the trace never names counts zero, whichever
//! ids the population uses.

use cn_statemachine::{replay_ue, TopState, TopTransition};
use cn_trace::{DeviceType, EventType, PopulationMix, Trace, MS_PER_SEC};
use serde::{Deserialize, Serialize};

/// The eight rows of Tables 4/11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BreakdownRow {
    /// `ATCH`.
    Atch,
    /// `DTCH`.
    Dtch,
    /// `SRV_REQ`.
    SrvReq,
    /// `S1_CONN_REL`.
    S1ConnRel,
    /// `HO` fired in ECM-CONNECTED.
    HoConn,
    /// `HO` fired in ECM-IDLE (or deregistered) — a protocol violation.
    HoIdle,
    /// `TAU` fired in ECM-CONNECTED.
    TauConn,
    /// `TAU` fired in ECM-IDLE.
    TauIdle,
}

impl BreakdownRow {
    /// All eight rows in table order.
    pub(crate) const ALL: [BreakdownRow; 8] = [
        BreakdownRow::Atch,
        BreakdownRow::Dtch,
        BreakdownRow::SrvReq,
        BreakdownRow::S1ConnRel,
        BreakdownRow::HoConn,
        BreakdownRow::HoIdle,
        BreakdownRow::TauConn,
        BreakdownRow::TauIdle,
    ];

    /// The row of an event that fired in top-level state `context`.
    fn of(event: EventType, context: TopState) -> BreakdownRow {
        match (event, context) {
            (EventType::Attach, _) => BreakdownRow::Atch,
            (EventType::Detach, _) => BreakdownRow::Dtch,
            (EventType::ServiceRequest, _) => BreakdownRow::SrvReq,
            (EventType::S1ConnRelease, _) => BreakdownRow::S1ConnRel,
            (EventType::Handover, TopState::Connected) => BreakdownRow::HoConn,
            (EventType::Handover, _) => BreakdownRow::HoIdle,
            (EventType::Tau, TopState::Connected) => BreakdownRow::TauConn,
            (EventType::Tau, _) => BreakdownRow::TauIdle,
        }
    }

    /// The paper's row label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            BreakdownRow::Atch => "ATCH",
            BreakdownRow::Dtch => "DTCH",
            BreakdownRow::SrvReq => "SRV_REQ",
            BreakdownRow::S1ConnRel => "S1_CONN_REL",
            BreakdownRow::HoConn => "HO (CONN.)",
            BreakdownRow::HoIdle => "HO (IDLE)",
            BreakdownRow::TauConn => "TAU (CONN.)",
            BreakdownRow::TauIdle => "TAU (IDLE)",
        }
    }

    /// Index in [`Breakdown::shares`].
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// What one trace shows of one device type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceProfile {
    /// Share of each [`BreakdownRow`] in the device's events, summing to 1
    /// (all zero when the trace holds none).
    pub shares: [f64; 8],
    /// `SRV_REQ` events of each UE of the population, in no UE order.
    pub srv_req: Vec<f64>,
    /// `S1_CONN_REL` events of each UE of the population, likewise.
    pub s1_conn_rel: Vec<f64>,
    /// Sojourns (seconds) in CONNECTED ended by CONNECTED→IDLE.
    pub(crate) connected: Vec<f64>,
    /// Sojourns (seconds) in IDLE ended by IDLE→CONNECTED.
    pub(crate) idle: Vec<f64>,
    /// Events of the device in the trace.
    pub(crate) events: usize,
    /// Protocol violations the replay met in those events.
    pub(crate) violations: usize,
}

impl DeviceProfile {
    /// Share of one breakdown row.
    pub fn share(&self, row: BreakdownRow) -> f64 {
        self.shares[row.index()]
    }

    /// Largest absolute per-row share difference `synthesized − self`.
    pub(crate) fn max_share_diff(&self, synthesized: &DeviceProfile) -> f64 {
        let rows = self.shares.iter().zip(&synthesized.shares);
        rows.fold(0.0f64, |m, (r, s)| m.max((s - r).abs()))
    }
}

/// One trace measured per device type.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile([DeviceProfile; 3]);

impl Profile {
    /// Measure `trace`, drawn from `population`. A UE's device type is that
    /// of its first record; every UE of a device type that the trace never
    /// names adds a zero to its per-UE counts (a trace naming more UEs of a
    /// type than `population` holds keeps them all).
    pub fn of(trace: &Trace, population: PopulationMix) -> Profile {
        let mut devices: [DeviceProfile; 3] = Default::default();
        let mut counts = [[0usize; 8]; 3];
        for (_, events) in trace.per_ue().iter() {
            let Some(first) = events.first() else {
                continue;
            };
            let d = first.device.code() as usize;
            let outcome = replay_ue(events);
            let mut ue = [0usize; 8];
            for (r, &context) in events.iter().zip(&outcome.event_context) {
                ue[BreakdownRow::of(r.event, context).index()] += 1;
            }
            for (total, n) in counts[d].iter_mut().zip(ue) {
                *total += n;
            }
            let p = &mut devices[d];
            p.events += events.len();
            p.violations += outcome.violations.len();
            p.srv_req.push(ue[BreakdownRow::SrvReq.index()] as f64);
            p.s1_conn_rel
                .push(ue[BreakdownRow::S1ConnRel.index()] as f64);
            for s in &outcome.top_sojourns {
                let secs = s.duration_ms as f64 / MS_PER_SEC as f64;
                match s.transition {
                    TopTransition::ConnToIdle => p.connected.push(secs),
                    TopTransition::IdleToConn => p.idle.push(secs),
                    _ => {}
                }
            }
        }
        let sizes = [
            population.phones,
            population.connected_cars,
            population.tablets,
        ];
        for ((p, counts), size) in devices.iter_mut().zip(counts).zip(sizes) {
            p.shares = shares_of(counts);
            let size = (size as usize).max(p.srv_req.len());
            p.srv_req.resize(size, 0.0);
            p.s1_conn_rel.resize(size, 0.0);
        }
        Profile(devices)
    }

    /// The measurements of one device type.
    pub fn device(&self, device: DeviceType) -> &DeviceProfile {
        &self.0[device.code() as usize]
    }

    /// Largest absolute share difference of `synthesized` from `self`
    /// over every device type and breakdown row.
    pub(crate) fn max_share_diff(&self, synthesized: &Profile) -> f64 {
        self.0
            .iter()
            .zip(&synthesized.0)
            .fold(0.0f64, |m, (r, s)| m.max(r.max_share_diff(s)))
    }
}

/// Simple six-way breakdown (Table 1, no context split).
pub fn breakdown_simple(trace: &Trace, device: DeviceType) -> [f64; 6] {
    let mut counts = [0usize; 6];
    for r in trace.iter() {
        if r.device == device {
            counts[r.event.code() as usize] += 1;
        }
    }
    shares_of(counts)
}

/// Each count's share of their total (all zero when the total is).
pub(crate) fn shares_of<const N: usize>(counts: [usize; N]) -> [f64; N] {
    let total = counts.iter().sum::<usize>().max(1) as f64;
    counts.map(|n| n as f64 / total)
}

/// Split per-UE counts into the paper's inactive (≤ `threshold` events) and
/// active (> `threshold`) groups (Table 6 uses `threshold = 2`).
pub(crate) fn split_active(counts: &[f64], threshold: f64) -> (Vec<f64>, Vec<f64>) {
    counts.iter().copied().partition(|&c| c <= threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{Timestamp, TraceRecord, UeId};

    fn rec(t: u64, ue: u32, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t), UeId(ue), DeviceType::Phone, e)
    }

    fn phones(n: u32) -> PopulationMix {
        PopulationMix::new(n, 0, 0)
    }

    #[test]
    fn context_attribution() {
        use EventType::*;
        let trace = Trace::from_records(vec![
            rec(0, 0, Attach),
            rec(1_000, 0, Handover),      // CONNECTED
            rec(2_000, 0, Tau),           // CONNECTED
            rec(3_000, 0, S1ConnRelease), // → IDLE
            rec(4_000, 0, Tau),           // IDLE
            rec(5_000, 0, Handover),      // IDLE — violation
        ]);
        let p = Profile::of(&trace, phones(1));
        let b = p.device(DeviceType::Phone);
        for row in [
            BreakdownRow::HoConn,
            BreakdownRow::HoIdle,
            BreakdownRow::TauConn,
            BreakdownRow::TauIdle,
        ] {
            assert_eq!(b.share(row), 1.0 / 6.0, "{row:?}");
        }
        let sum: f64 = b.shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn other_device_ignored() {
        let trace = Trace::from_records(vec![rec(0, 0, EventType::Attach)]);
        let tablets = Profile::of(&trace, phones(1))
            .device(DeviceType::Tablet)
            .clone();
        assert_eq!(tablets, DeviceProfile::default());
    }

    #[test]
    fn max_share_diff_is_symmetric() {
        let a = DeviceProfile {
            shares: [0.1, 0.0, 0.5, 0.4, 0.0, 0.0, 0.0, 0.0],
            ..DeviceProfile::default()
        };
        let b = DeviceProfile {
            shares: [0.0, 0.0, 0.65, 0.35, 0.0, 0.0, 0.0, 0.0],
            ..DeviceProfile::default()
        };
        assert!((a.max_share_diff(&b) - 0.15).abs() < 1e-12);
        assert_eq!(a.max_share_diff(&b), b.max_share_diff(&a));
    }

    #[test]
    fn simple_breakdown_matches_counts() {
        use EventType::*;
        let trace = Trace::from_records(vec![
            rec(0, 0, Attach),
            rec(1, 0, ServiceRequest),
            rec(2, 0, ServiceRequest),
            rec(3, 0, S1ConnRelease),
        ]);
        let s = breakdown_simple(&trace, DeviceType::Phone);
        assert_eq!(s[ServiceRequest.code() as usize], 0.5);
        assert_eq!(s[Attach.code() as usize], 0.25);
    }

    #[test]
    fn counts_include_silent_ues() {
        let trace = Trace::from_records(vec![rec(5, 1, EventType::ServiceRequest)]);
        let p = Profile::of(&trace, phones(3));
        let phone = p.device(DeviceType::Phone);
        assert_eq!(phone.srv_req, vec![1.0, 0.0, 0.0]);
        assert_eq!(phone.s1_conn_rel, vec![0.0; 3]);
    }

    #[test]
    fn sojourns_extracted() {
        use EventType::*;
        let trace = Trace::from_records(vec![
            rec(0, 0, Attach),
            rec(4_000, 0, S1ConnRelease),
            rec(10_000, 0, ServiceRequest),
        ]);
        let p = Profile::of(&trace, phones(1));
        assert_eq!(p.device(DeviceType::Phone).connected, vec![4.0]);
        assert_eq!(p.device(DeviceType::Phone).idle, vec![6.0]);
        assert!(p.device(DeviceType::Tablet).connected.is_empty());
    }

    #[test]
    fn active_split() {
        let counts = [0.0, 1.0, 2.0, 3.0, 10.0];
        let (inactive, active) = split_active(&counts, 2.0);
        assert_eq!(inactive, vec![0.0, 1.0, 2.0]);
        assert_eq!(active, vec![3.0, 10.0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The activity split is a partition at any threshold.
        #[test]
        fn split_active_partitions(
            counts in proptest::collection::vec(0.0f64..50.0, 0..100),
            threshold in 0.0f64..10.0,
        ) {
            let (inactive, active) = split_active(&counts, threshold);
            proptest::prop_assert_eq!(inactive.len() + active.len(), counts.len());
            proptest::prop_assert!(inactive.iter().all(|&c| c <= threshold));
            proptest::prop_assert!(active.iter().all(|&c| c > threshold));
        }
    }
}
