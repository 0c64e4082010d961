//! UE relabeling: anonymization and population compaction.
//!
//! The paper's dataset section and ethics appendix stress that carrier
//! traces are only usable with user identities anonymized. When importing
//! external traces (or exporting generated ones into shared environments),
//! relabeling maps arbitrary UE identifiers onto a dense, order-free id
//! space while preserving everything the models need (timing, event types,
//! device types, per-UE grouping).

use crate::record::{TraceRecord, UeId};
use crate::trace::Trace;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// A UE-id mapping produced by a relabeling pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelabelMap {
    forward: HashMap<UeId, UeId>,
}

impl RelabelMap {
    /// Number of distinct UEs mapped.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True when no UEs were mapped.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }
}

/// Relabel UEs onto a *pseudorandom permutation* of `0..n`, seeded — the
/// anonymizing variant: first-appearance order (which leaks arrival order)
/// is destroyed, but the mapping is reproducible from the seed.
pub fn pseudonymize(trace: &Trace, seed: u64) -> (Trace, RelabelMap) {
    let ues = trace.ues();
    let mut slots: Vec<u32> = (0..ues.len() as u32).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    slots.shuffle(&mut rng);
    let mut map = RelabelMap::default();
    for (old, slot) in ues.iter().zip(slots) {
        map.forward.insert(*old, UeId(slot));
    }
    let records: Vec<TraceRecord> = trace
        .iter()
        .map(|r| TraceRecord::new(r.t, map.forward[&r.ue], r.device, r.event))
        .collect();
    (Trace::from_records(records), map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceType;
    use crate::event::EventType;
    use crate::time::Timestamp;

    fn rec(t: u64, ue: u32, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t), UeId(ue), DeviceType::Phone, e)
    }

    fn sample() -> Trace {
        Trace::from_records(vec![
            rec(10, 900, EventType::ServiceRequest),
            rec(20, 17, EventType::Attach),
            rec(30, 900, EventType::S1ConnRelease),
            rec(40, 4_000_000, EventType::Tau),
        ])
    }

    #[test]
    fn pseudonymize_is_a_dense_permutation() {
        let (out, map) = pseudonymize(&sample(), 7);
        assert_eq!(map.len(), 3);
        let mut new_ids: Vec<u32> = out.ues().iter().map(|u| u.get()).collect();
        new_ids.sort_unstable();
        assert_eq!(new_ids, vec![0, 1, 2]);
        // Deterministic per seed, different across seeds (usually).
        let (again, _) = pseudonymize(&sample(), 7);
        assert_eq!(out, again);
    }

    #[test]
    fn timing_and_events_untouched() {
        let original = sample();
        let relabeled = pseudonymize(&original, 3).0;
        let a: Vec<(u64, EventType)> = original
            .iter()
            .map(|r| (r.t.as_millis(), r.event))
            .collect();
        let b: Vec<(u64, EventType)> = relabeled
            .iter()
            .map(|r| (r.t.as_millis(), r.event))
            .collect();
        assert_eq!(a, b);
    }
}
