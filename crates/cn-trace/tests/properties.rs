//! Property-based tests for the trace substrate.

use cn_trace::io;
use cn_trace::{radix_sort, DeviceType, EventType, Timestamp, Trace, TraceRecord, UeId};
use proptest::prelude::*;

fn record((t, ue, d, e): (u64, u32, u8, u8)) -> TraceRecord {
    TraceRecord::new(
        Timestamp::from_millis(t),
        UeId(ue),
        DeviceType::from_code(d).unwrap(),
        EventType::from_code(e).unwrap(),
    )
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (0u64..1_000_000, 0u32..64, 0u8..3, 0u8..6).prop_map(record)
}

/// The record order as one integer, for times below 2^24 ms.
fn record_key(r: &TraceRecord) -> u64 {
    r.t.as_millis() << 40 | u64::from(r.ue.get()) << 8 | u64::from(r.event.code())
}

/// Runs laid back to back in input order, radix-sorted on the record key.
fn merge(runs: Vec<Trace>) -> Vec<TraceRecord> {
    let mut records: Vec<TraceRecord> = runs.into_iter().flat_map(Trace::into_records).collect();
    radix_sort(&mut records, &mut Vec::new(), 0..64, record_key);
    records
}

/// Records from a key space small enough that many compare equal under
/// `Ord` while their devices differ.
fn arb_tied_record() -> impl Strategy<Value = TraceRecord> {
    (0u64..8, 0u32..3, 0u8..3, 0u8..2).prop_map(record)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn from_records_is_sorted(recs in prop::collection::vec(arb_record(), 0..200)) {
        let t = Trace::from_records(recs);
        let r = t.records();
        prop_assert!(r.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn merge_equals_concat_sort(
        a in prop::collection::vec(arb_record(), 0..100),
        b in prop::collection::vec(arb_record(), 0..100),
        c in prop::collection::vec(arb_record(), 0..100),
    ) {
        let ta = Trace::from_records(a.clone());
        let tb = Trace::from_records(b.clone());
        let tc = Trace::from_records(c.clone());
        let merged = merge(vec![ta, tb, tc]);
        let mut all = a;
        all.extend(b);
        all.extend(c);
        let expected = Trace::from_records(all);
        prop_assert_eq!(merged.len(), expected.len());
        // Same multiset in sorted order.
        prop_assert_eq!(merged.as_slice(), expected.records());
    }

    #[test]
    fn merge_matrix_over_input_counts(
        recs in prop::collection::vec(arb_tied_record(), 0..120),
        k in 1usize..=6,
    ) {
        // Round-robin the records into k sorted runs. At every arity the
        // radix merge is the runs laid back to back in input order, stably
        // sorted: records equal under `Ord` (which ignores the device) but
        // of different devices keep input order.
        let mut parts: Vec<Vec<TraceRecord>> = vec![Vec::new(); k];
        for (i, r) in recs.iter().enumerate() {
            parts[i % k].push(*r);
        }
        for part in &mut parts {
            part.sort();
        }
        let mut expected: Vec<TraceRecord> = parts.concat();
        expected.sort();
        let mut merged = parts.concat();
        radix_sort(&mut merged, &mut Vec::new(), 0..64, record_key);
        prop_assert_eq!(merged, expected);
    }

    /// The radix sort is std's stable sort by the same bits, on any bit
    /// range: empty, zero-width, full 64-bit, and keys that tie.
    #[test]
    fn radix_sort_equals_std_stable_sort(
        keys in prop::collection::vec(
            prop_oneof![any::<u64>(), 0u64..4, Just(u64::MAX)],
            0..300,
        ),
        lo in 0u32..=64,
        width in prop_oneof![Just(0u32), Just(64), 1u32..40],
    ) {
        let bits = if width == 64 { 0..64 } else { lo..(lo + width).min(64) };
        let mask = |k: u64| {
            let w = bits.end - bits.start;
            if w == 0 { 0 } else { (k >> bits.start) & (u64::MAX >> (64 - w)) }
        };
        // Each key tagged with its input position, so stability shows.
        let mut tagged: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        let mut expected = tagged.clone();
        expected.sort_by_key(|&(k, _)| mask(k));
        radix_sort(&mut tagged, &mut vec![(7, 7); 3], bits.clone(), |&(k, _)| k);
        prop_assert_eq!(tagged, expected);
    }

    #[test]
    fn binary_round_trip(recs in prop::collection::vec(arb_record(), 0..200)) {
        let t = Trace::from_records(recs);
        let bin = io::to_binary(&t);
        let back = io::from_binary(&bin).unwrap();
        prop_assert_eq!(t, back);
    }

    #[test]
    fn csv_round_trip(recs in prop::collection::vec(arb_record(), 0..100)) {
        let t = Trace::from_records(recs);
        let mut buf = Vec::new();
        io::write_csv(&t, &mut buf).unwrap();
        let back = io::read_csv(&buf[..]).unwrap();
        prop_assert_eq!(t, back);
    }

    #[test]
    fn per_ue_partitions_all_records(recs in prop::collection::vec(arb_record(), 0..200)) {
        let t = Trace::from_records(recs);
        let view = t.per_ue();
        let total: usize = view.iter().map(|(_, evs)| evs.len()).sum();
        prop_assert_eq!(total, t.len());
        for (ue, evs) in view.iter() {
            prop_assert!(evs.iter().all(|r| r.ue == ue));
            prop_assert!(evs.windows(2).all(|w| w[0].t <= w[1].t));
        }
    }

    #[test]
    fn window_contains_only_range(
        recs in prop::collection::vec(arb_record(), 0..200),
        lo in 0u64..500_000,
        width in 0u64..500_000,
    ) {
        let t = Trace::from_records(recs);
        let start = Timestamp::from_millis(lo);
        let end = Timestamp::from_millis(lo + width);
        let w = t.window(start, end);
        prop_assert!(w.iter().all(|r| r.t >= start && r.t < end));
        let expected = t.iter().filter(|r| r.t >= start && r.t < end).count();
        prop_assert_eq!(w.len(), expected);
    }
}
