//! Property-based tests for the evaluation metrics.

use cn_trace::{DeviceType, EventType, PopulationMix, Timestamp, Trace, TraceRecord, UeId};
use cn_verify::profile::{breakdown_simple, BreakdownRow, Profile};
use proptest::prelude::*;

fn arb_trace(max_ue: u32) -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u64..3_600_000, 0u32..64, 0u8..6), 0..300).prop_map(move |recs| {
        Trace::from_records(
            recs.into_iter()
                .map(|(t, ue, e)| {
                    let ue = ue % max_ue.max(1);
                    // Device follows a fixed layout so per-UE device
                    // types stay consistent.
                    let device = match ue % 3 {
                        0 => DeviceType::Phone,
                        1 => DeviceType::ConnectedCar,
                        _ => DeviceType::Tablet,
                    };
                    TraceRecord::new(
                        Timestamp::from_millis(t),
                        UeId(ue),
                        device,
                        EventType::from_code(e).unwrap(),
                    )
                })
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Context-attributed breakdown shares always sum to 1 (or all-zero)
    /// and every share is a valid probability.
    #[test]
    fn breakdown_shares_are_a_distribution(trace in arb_trace(48)) {
        let profile = Profile::of(&trace, PopulationMix::new(16, 16, 16));
        for device in DeviceType::ALL {
            let b = profile.device(device);
            let sum: f64 = b.shares.iter().sum();
            if !trace.iter().any(|r| r.device == device) {
                prop_assert_eq!(sum, 0.0);
            } else {
                prop_assert!((sum - 1.0).abs() < 1e-9, "sum {}", sum);
            }
            for s in b.shares {
                prop_assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    /// The context split is consistent with the simple breakdown: summing
    /// HO(CONN)+HO(IDLE) gives the HO share, TAU likewise.
    #[test]
    fn context_split_sums_to_simple(trace in arb_trace(48)) {
        let profile = Profile::of(&trace, PopulationMix::new(16, 16, 16));
        for device in DeviceType::ALL {
            let b = profile.device(device);
            let s = breakdown_simple(&trace, device);
            if trace.iter().any(|r| r.device == device) {
                let ho = b.share(BreakdownRow::HoConn) + b.share(BreakdownRow::HoIdle);
                prop_assert!((ho - s[EventType::Handover.code() as usize]).abs() < 1e-9);
                let tau = b.share(BreakdownRow::TauConn) + b.share(BreakdownRow::TauIdle);
                prop_assert!((tau - s[EventType::Tau.code() as usize]).abs() < 1e-9);
            }
        }
    }

    /// Per-UE count samples cover the whole device population, whatever
    /// ids its UEs carry (here every third id is a phone), and total to the
    /// device's event count.
    #[test]
    fn per_ue_counts_account_for_everything(trace in arb_trace(30)) {
        let profile = Profile::of(&trace, PopulationMix::new(10, 10, 10));
        for device in DeviceType::ALL {
            let p = profile.device(device);
            for (event, counts) in [
                (EventType::ServiceRequest, &p.srv_req),
                (EventType::S1ConnRelease, &p.s1_conn_rel),
            ] {
                prop_assert_eq!(counts.len(), 10);
                let total: f64 = counts.iter().sum();
                let expected = trace
                    .iter()
                    .filter(|r| r.event == event && r.device == device)
                    .count() as f64;
                prop_assert_eq!(total, expected);
            }
        }
    }
}
