//! Individual trace records.
//!
//! Every synthesized or observed event is labeled with its originating UE
//! (design goal 2, "event-owner labeling"): MCN event processing is
//! UE-oriented, so an unlabeled aggregate event stream cannot drive the
//! per-UE state kept by core-network functions.

use crate::device::DeviceType;
use crate::event::EventType;
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};

/// Identifier of a single UE within a trace (dense, 0-based).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct UeId(pub u32);

impl UeId {
    /// Raw index value.
    pub const fn get(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for UeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ue{}", self.0)
    }
}

/// One control-plane event: who, what, when.
///
/// Records order by `(time, ue, event)` so that a sorted trace has a unique,
/// deterministic layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Event timestamp (millisecond granularity).
    pub t: Timestamp,
    /// Originating UE.
    pub ue: UeId,
    /// Device type of the originating UE.
    pub device: DeviceType,
    /// The control-plane event type.
    pub event: EventType,
}

impl TraceRecord {
    /// Construct a record.
    pub fn new(t: Timestamp, ue: UeId, device: DeviceType, event: EventType) -> Self {
        TraceRecord {
            t,
            ue,
            device,
            event,
        }
    }

    /// Packed merge key: `t_ms << 40 | ue << 8 | event`.
    ///
    /// Plain integer order on these keys is exactly the record [`Ord`]
    /// (`(t, ue, event)`), so a stable sort by this key merges arbitrary
    /// sorted runs laid back to back, not only runs whose `(t, ue)` pairs
    /// are unique. `io::record_key_at` reads it from bytes, tested equal.
    #[cfg(test)]
    pub(crate) fn merge_key(&self) -> u128 {
        (u128::from(self.t.as_millis()) << 40)
            | (u128::from(self.ue.get()) << 8)
            | u128::from(self.event.code())
    }
}

impl PartialOrd for TraceRecord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TraceRecord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.ue, self.event as u8).cmp(&(other.t, other.ue, other.event as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, ue: u32, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t), UeId(ue), DeviceType::Phone, e)
    }

    #[test]
    fn ordering_is_time_then_ue_then_event() {
        let a = rec(10, 5, EventType::Tau);
        let b = rec(20, 1, EventType::Attach);
        let c = rec(20, 2, EventType::Attach);
        let d = rec(20, 2, EventType::Handover);
        let mut v = vec![d, c, b, a];
        v.sort();
        assert_eq!(v, vec![a, b, c, d]);
    }

    #[test]
    fn merge_key_order_is_the_record_order() {
        let records = [
            rec(0, 0, EventType::Attach),
            rec(10, 5, EventType::Tau),
            rec(20, 2, EventType::Attach),
            rec(20, 2, EventType::Handover),
            rec(20, u32::MAX, EventType::Tau),
            rec(u64::MAX, u32::MAX, EventType::Tau),
        ];
        for a in &records {
            for b in &records {
                assert_eq!(a.merge_key().cmp(&b.merge_key()), a.cmp(b), "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn ue_display() {
        assert_eq!(UeId(42).to_string(), "ue42");
    }
}
