//! The sorted trace container, its partitioning operations, and the one
//! stable radix sort behind every grouping and merge.
//!
//! Traces are flat vectors of [`TraceRecord`]s sorted by time. The modeling
//! pipeline repeatedly needs per-UE views (to replay state machines),
//! per-hour-of-day slices (models are per 1-hour interval, pooled across
//! days, §4.1.1) and per-device slices. [`radix_sort`] regroups records
//! by UE, and merges runs laid back to back by time, in linear time.

use crate::device::DeviceType;
use crate::record::{TraceRecord, UeId};
use crate::time::Timestamp;
use std::mem::{replace, swap};
use std::ops::Range;

/// Widest radix digit: one pass groups up to 2 048 UEs.
const DIGIT_BITS: u32 = 11;

/// Stable LSD radix sort of `items` by bits `bits` of `key(item)`, in equal
/// digits of at most 11 bits; `scratch` is reused across calls. Items whose
/// keys agree on those bits keep their order, so runs already ordered by
/// the other bits come out ordered by both.
///
/// # Panics
/// Panics if `bits` reaches past bit 63.
pub fn radix_sort<T: Copy>(
    items: &mut [T],
    scratch: &mut Vec<T>,
    bits: Range<u32>,
    key: impl Fn(&T) -> u64,
) {
    assert!(bits.end <= u64::BITS, "bits {bits:?} past a u64 key");
    let width = bits.end.saturating_sub(bits.start);
    let Some(&first) = items.first().filter(|_| width > 0) else {
        return;
    };
    let passes = width.div_ceil(DIGIT_BITS);
    let digit_bits = width.div_ceil(passes);
    let field = |item: &T| (key(item) >> bits.start) & (u64::MAX >> (u64::BITS - width));
    // Passes alternate between `items` and `scratch`; an odd count starts
    // from a copy in `scratch`, so the last pass lands in `items`.
    let (mut from, mut to) = if passes % 2 == 1 {
        scratch.clear();
        scratch.extend_from_slice(items);
        (&mut scratch[..], items)
    } else {
        scratch.resize(items.len(), first);
        (items, &mut scratch[..])
    };
    for pass in 0..passes {
        let digit =
            |item: &T| (field(item) >> (pass * digit_bits)) as usize & ((1 << digit_bits) - 1);
        let mut offsets = [0; 1 << DIGIT_BITS];
        from.iter().for_each(|item| offsets[digit(item)] += 1);
        offsets.iter_mut().fold(0, |n, o| n + replace(o, n));
        for item in from.iter() {
            let at = &mut offsets[digit(item)];
            to[*at] = *item;
            *at += 1;
        }
        swap(&mut from, &mut to);
    }
}

/// A time-sorted sequence of control-plane events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace {
            records: Vec::new(),
        }
    }

    /// Build a trace from records in any order; they are sorted on entry.
    pub fn from_records(mut records: Vec<TraceRecord>) -> Self {
        records.sort_unstable();
        Trace { records }
    }

    /// Append a record, keeping the container sorted.
    ///
    /// Appending in non-decreasing time order is O(1); out-of-order pushes
    /// fall back to a binary-search insert.
    #[cfg(test)]
    pub(crate) fn push(&mut self, rec: TraceRecord) {
        if self.records.last().is_some_and(|last| rec < *last) {
            let pos = self.records.partition_point(|r| *r <= rec);
            self.records.insert(pos, rec);
        } else {
            self.records.push(rec);
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The sorted records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Iterate over the sorted records.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// Timestamp of the first event, if any.
    pub fn start(&self) -> Option<Timestamp> {
        self.records.first().map(|r| r.t)
    }

    /// Timestamp of the last event, if any.
    pub fn end(&self) -> Option<Timestamp> {
        self.records.last().map(|r| r.t)
    }

    /// Distinct UEs present in the trace, sorted by id.
    pub fn ues(&self) -> Vec<UeId> {
        let mut ids: Vec<UeId> = self.records.iter().map(|r| r.ue).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Device type of a UE, from its first record (a well-formed trace has a
    /// single device type per UE; see `crate::validate`).
    pub fn device_of(&self, ue: UeId) -> Option<DeviceType> {
        self.records.iter().find(|r| r.ue == ue).map(|r| r.device)
    }

    /// Events with `start <= t < end`.
    pub fn window(&self, start: Timestamp, end: Timestamp) -> Trace {
        let lo = self.records.partition_point(|r| r.t < start);
        let hi = self.records.partition_point(|r| r.t < end);
        Trace {
            records: self.records[lo..hi].to_vec(),
        }
    }

    /// Group records by UE, preserving time order within each UE.
    pub fn per_ue(&self) -> PerUeView {
        let mut by_ue: Vec<TraceRecord> = self.records.clone();
        // A stable sort by UE keeps the existing time order within each UE.
        let top = self.records.iter().map(|r| r.ue.0).max().unwrap_or(0);
        let ue_bits = 0..32 - top.leading_zeros();
        radix_sort(&mut by_ue, &mut Vec::new(), ue_bits, |r| r.ue.0.into());
        let mut start = 0;
        let spans = by_ue
            .chunk_by(|a, b| a.ue == b.ue)
            .map(|group| {
                start += group.len();
                (group[0].ue, start - group.len()..start)
            })
            .collect();
        PerUeView {
            records: by_ue,
            spans,
        }
    }

    /// Consume the trace, returning the sorted record vector.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }

    /// Split the trace into two by UE: approximately `fraction` of the UEs
    /// (seeded pseudorandom choice) land in the first trace, the rest in
    /// the second. Every UE's events stay together — the split is the
    /// UE-level holdout used for honest model evaluation.
    pub fn partition_ues(&self, fraction: f64, seed: u64) -> (Trace, Trace) {
        use std::collections::HashMap;
        let fraction = fraction.clamp(0.0, 1.0);
        // Seeded per-UE coin via SplitMix64 — stable across trace layouts.
        let mut coin: HashMap<UeId, bool> = HashMap::new();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for r in &self.records {
            let heads = *coin.entry(r.ue).or_insert_with(|| {
                let mut x = seed ^ (u64::from(r.ue.get()).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                (x as f64 / u64::MAX as f64) < fraction
            });
            if heads {
                a.push(*r);
            } else {
                b.push(*r);
            }
        }
        (Trace { records: a }, Trace { records: b })
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        Trace::from_records(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

/// Records of a trace grouped by UE (each group time-sorted).
#[derive(Debug, Clone)]
pub struct PerUeView {
    records: Vec<TraceRecord>,
    spans: Vec<(UeId, std::ops::Range<usize>)>,
}

impl PerUeView {
    /// Number of distinct UEs.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.spans.len()
    }

    /// Iterate `(ue, events-of-ue)` in UE-id order.
    pub fn iter(&self) -> impl Iterator<Item = (UeId, &[TraceRecord])> {
        self.spans
            .iter()
            .map(move |(ue, range)| (*ue, &self.records[range.clone()]))
    }

    /// Events of one UE, if present.
    #[cfg(test)]
    fn get(&self, ue: UeId) -> Option<&[TraceRecord]> {
        let idx = self.spans.binary_search_by_key(&ue, |(u, _)| *u).ok()?;
        let (_, range) = &self.spans[idx];
        Some(&self.records[range.clone()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventType;

    fn rec(t: u64, ue: u32, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t), UeId(ue), DeviceType::Phone, e)
    }

    #[test]
    fn from_records_sorts() {
        let t = Trace::from_records(vec![
            rec(30, 0, EventType::Tau),
            rec(10, 1, EventType::Attach),
            rec(20, 0, EventType::ServiceRequest),
        ]);
        let times: Vec<u64> = t.iter().map(|r| r.t.as_millis()).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn push_keeps_sorted_even_out_of_order() {
        let mut t = Trace::new();
        t.push(rec(20, 0, EventType::Attach));
        t.push(rec(10, 0, EventType::Attach));
        t.push(rec(15, 0, EventType::ServiceRequest));
        let times: Vec<u64> = t.iter().map(|r| r.t.as_millis()).collect();
        assert_eq!(times, vec![10, 15, 20]);
    }

    #[test]
    fn per_ue_groups_and_preserves_order() {
        let t = Trace::from_records(vec![
            rec(10, 2, EventType::Attach),
            rec(20, 1, EventType::Attach),
            rec(30, 2, EventType::ServiceRequest),
            rec(40, 1, EventType::Detach),
        ]);
        let view = t.per_ue();
        assert_eq!(view.len(), 2);
        let ue1 = view.get(UeId(1)).unwrap();
        assert_eq!(ue1.len(), 2);
        assert_eq!(ue1[0].event, EventType::Attach);
        assert_eq!(ue1[1].event, EventType::Detach);
        assert!(view.get(UeId(9)).is_none());
    }

    /// Runs laid back to back in UE order, each strictly increasing in
    /// time, radix-sorted on time alone.
    fn merge_by_time(runs: &[Trace]) -> Vec<TraceRecord> {
        let mut records: Vec<TraceRecord> = runs.iter().flatten().copied().collect();
        radix_sort(&mut records, &mut Vec::new(), 0..64, |r| r.t.as_millis());
        records
    }

    #[test]
    fn radix_merge_interleaves_ties_and_tails() {
        let a = Trace::from_records(vec![
            rec(10, 0, EventType::Attach),
            rec(20, 0, EventType::Tau),
            rec(90, 0, EventType::Detach),
        ]);
        let b = Trace::from_records(vec![
            rec(10, 1, EventType::Attach),
            rec(20, 1, EventType::Tau),
            rec(40, 1, EventType::Tau),
        ]);
        let merged = merge_by_time(&[a.clone(), b.clone()]);
        let times: Vec<u64> = merged.iter().map(|r| r.t.as_millis()).collect();
        assert_eq!(times, vec![10, 10, 20, 20, 40, 90]);
        let mut expect: Vec<TraceRecord> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_unstable();
        assert_eq!(merged, expect);
    }

    #[test]
    fn radix_sort_without_items_or_bits_is_the_identity() {
        let mut none: Vec<TraceRecord> = Vec::new();
        radix_sort(&mut none, &mut Vec::new(), 0..64, |r| r.t.as_millis());
        assert!(none.is_empty());
        let mut records = vec![rec(30, 0, EventType::Tau), rec(10, 1, EventType::Tau)];
        let before = records.clone();
        radix_sort(&mut records, &mut Vec::new(), 7..7, |r| r.t.as_millis());
        assert_eq!(records, before);
    }

    #[test]
    fn many_way_radix_merge_equals_global_sort() {
        // 7 runs (non-power-of-two) of interleaved times.
        let runs: Vec<Trace> = (0..7u32)
            .map(|i| {
                Trace::from_records(
                    (0..10u64)
                        .map(|j| rec(j * 7 + u64::from(i), i, EventType::Tau))
                        .collect(),
                )
            })
            .collect();
        let mut expect: Vec<TraceRecord> = runs.iter().flatten().copied().collect();
        expect.sort_unstable();
        assert_eq!(merge_by_time(&runs), expect);
    }

    #[test]
    fn window_is_half_open() {
        let t = Trace::from_records(vec![
            rec(10, 0, EventType::Attach),
            rec(20, 0, EventType::ServiceRequest),
            rec(30, 0, EventType::Tau),
        ]);
        let w = t.window(Timestamp::from_millis(10), Timestamp::from_millis(30));
        assert_eq!(w.len(), 2);
        assert_eq!(w.start().unwrap().as_millis(), 10);
        assert_eq!(w.end().unwrap().as_millis(), 20);
    }

    #[test]
    fn partition_ues_is_a_ue_level_split() {
        let records: Vec<TraceRecord> = (0..200)
            .map(|i| rec(u64::from(i) * 10, i % 40, EventType::Tau))
            .collect();
        let t = Trace::from_records(records);
        let (a, b) = t.partition_ues(0.5, 7);
        assert_eq!(a.len() + b.len(), t.len());
        // No UE appears on both sides.
        let ues_a: std::collections::HashSet<_> = a.ues().into_iter().collect();
        for ue in b.ues() {
            assert!(!ues_a.contains(&ue), "{ue} on both sides");
        }
        // Deterministic.
        let (a2, _) = t.partition_ues(0.5, 7);
        assert_eq!(a, a2);
        // Extremes.
        let (all, none) = t.partition_ues(1.0, 3);
        assert_eq!(all.len(), t.len());
        assert!(none.is_empty());
    }

    #[test]
    fn ues_dedups() {
        let t = Trace::from_records(vec![
            rec(10, 3, EventType::Attach),
            rec(20, 1, EventType::Attach),
            rec(30, 3, EventType::Tau),
        ]);
        assert_eq!(t.ues(), vec![UeId(1), UeId(3)]);
    }
}
