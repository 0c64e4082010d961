//! Property-based tests for the evaluation metrics.

use cn_trace::{DeviceType, EventType, PopulationMix, Timestamp, Trace, TraceRecord, UeId};
use cn_verify::breakdown::{breakdown, breakdown_simple, BreakdownRow};
use cn_verify::microscopic::{device_range, events_per_ue, split_active};
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
        for device in DeviceType::ALL {
            let b = breakdown(&trace, device);
            let sum: f64 = b.shares.iter().sum();
            if b.total == 0 {
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
        for device in DeviceType::ALL {
            let b = breakdown(&trace, device);
            let s = breakdown_simple(&trace.filter_device(device), device);
            if b.total > 0 {
                let ho = b.share(BreakdownRow::HoConn) + b.share(BreakdownRow::HoIdle);
                prop_assert!((ho - s[EventType::Handover.code() as usize]).abs() < 1e-9);
                let tau = b.share(BreakdownRow::TauConn) + b.share(BreakdownRow::TauIdle);
                prop_assert!((tau - s[EventType::Tau.code() as usize]).abs() < 1e-9);
            }
        }
    }

    /// Per-UE count vectors cover the whole device population and total to
    /// the device's event count.
    #[test]
    fn events_per_ue_accounts_for_everything(trace in arb_trace(30)) {
        let mix = PopulationMix::new(10, 10, 10);
        for device in DeviceType::ALL {
            let range = device_range(&mix, device);
            for event in EventType::ALL {
                let counts = events_per_ue(&trace, &mix, device, event);
                prop_assert_eq!(counts.len(), range.len());
                let total: f64 = counts.iter().sum();
                let expected = trace
                    .iter()
                    .filter(|r| r.event == event && range.contains(&r.ue.get()))
                    .count() as f64;
                prop_assert_eq!(total, expected);
            }
        }
    }

    /// The activity split is a partition at any threshold.
    #[test]
    fn split_active_partitions(
        counts in prop::collection::vec(0.0f64..50.0, 0..100),
        threshold in 0.0f64..10.0,
    ) {
        let (inactive, active) = split_active(&counts, threshold);
        prop_assert_eq!(inactive.len() + active.len(), counts.len());
        prop_assert!(inactive.iter().all(|&c| c <= threshold));
        prop_assert!(active.iter().all(|&c| c > threshold));
    }
}
