//! Microscopic per-UE fidelity metrics (§8.1.2).
//!
//! Two per-UE quantities are compared between real and synthesized traces
//! via the maximum y-distance of their CDFs (the two-sample K–S statistic):
//!
//! * the number of events of a given type per UE (zero-count UEs of the
//!   population are included — both traces describe a known population);
//! * the sojourn time in CONNECTED/IDLE before the dominant
//!   CONNECTED↔IDLE transitions.

use cn_statemachine::{replay_ue, TopTransition};
use cn_stats::two_sample_distance;
use cn_trace::{DeviceType, EventType, PopulationMix, Trace, MS_PER_SEC};

/// The contiguous UE-index range of one device type under the standard
/// population layout (phones, then connected cars, then tablets).
pub fn device_range(mix: &PopulationMix, device: DeviceType) -> std::ops::Range<u32> {
    let p = mix.phones;
    let c = mix.connected_cars;
    match device {
        DeviceType::Phone => 0..p,
        DeviceType::ConnectedCar => p..p + c,
        DeviceType::Tablet => p + c..p + c + mix.tablets,
    }
}

/// Events of `event` per UE, over the full device population (UEs with no
/// events contribute zero).
pub fn events_per_ue(
    trace: &Trace,
    mix: &PopulationMix,
    device: DeviceType,
    event: EventType,
) -> Vec<f64> {
    let range = device_range(mix, device);
    let mut counts = vec![0f64; range.len()];
    for r in trace.iter() {
        if r.event == event && range.contains(&r.ue.get()) {
            counts[(r.ue.get() - range.start) as usize] += 1.0;
        }
    }
    counts
}

/// Sojourn samples (seconds) in CONNECTED (before the CONNECTED→IDLE
/// transition) and IDLE (before IDLE→CONNECTED), pooled over the device's
/// UEs.
pub(crate) fn state_sojourns(trace: &Trace, device: DeviceType) -> (Vec<f64>, Vec<f64>) {
    let mut connected = Vec::new();
    let mut idle = Vec::new();
    for (_, events) in trace.per_ue().iter() {
        if events.first().map(|r| r.device) != Some(device) {
            continue;
        }
        let outcome = replay_ue(events);
        for s in &outcome.top_sojourns {
            match s.transition {
                TopTransition::ConnToIdle => {
                    connected.push(s.duration_ms as f64 / MS_PER_SEC as f64)
                }
                TopTransition::IdleToConn => idle.push(s.duration_ms as f64 / MS_PER_SEC as f64),
                _ => {}
            }
        }
    }
    (connected, idle)
}

/// Maximum y-distance between the CDFs of two sample sets; `None` when a
/// side is empty.
pub(crate) fn max_y_distance(real: &[f64], synthesized: &[f64]) -> Option<f64> {
    two_sample_distance(real, synthesized)
}

/// Split per-UE counts into the paper's inactive (≤ `threshold` events) and
/// active (> `threshold`) groups (Table 6 uses `threshold = 2`).
pub fn split_active(counts: &[f64], threshold: f64) -> (Vec<f64>, Vec<f64>) {
    let mut inactive = Vec::new();
    let mut active = Vec::new();
    for &c in counts {
        if c <= threshold {
            inactive.push(c);
        } else {
            active.push(c);
        }
    }
    (inactive, active)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{Timestamp, TraceRecord, UeId};

    #[test]
    fn device_ranges_partition_population() {
        let mix = PopulationMix::new(10, 5, 3);
        assert_eq!(device_range(&mix, DeviceType::Phone), 0..10);
        assert_eq!(device_range(&mix, DeviceType::ConnectedCar), 10..15);
        assert_eq!(device_range(&mix, DeviceType::Tablet), 15..18);
    }

    #[test]
    fn counts_include_silent_ues() {
        let mix = PopulationMix::new(3, 0, 0);
        let trace = Trace::from_records(vec![TraceRecord::new(
            Timestamp::from_millis(5),
            UeId(1),
            DeviceType::Phone,
            EventType::ServiceRequest,
        )]);
        let counts = events_per_ue(&trace, &mix, DeviceType::Phone, EventType::ServiceRequest);
        assert_eq!(counts, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn sojourns_extracted() {
        use EventType::*;
        let mk =
            |t: u64, e| TraceRecord::new(Timestamp::from_millis(t), UeId(0), DeviceType::Phone, e);
        let trace = Trace::from_records(vec![
            mk(0, Attach),
            mk(4_000, S1ConnRelease),
            mk(10_000, ServiceRequest),
        ]);
        let (conn, idle) = state_sojourns(&trace, DeviceType::Phone);
        assert_eq!(conn, vec![4.0]);
        assert_eq!(idle, vec![6.0]);
        let (c2, _) = state_sojourns(&trace, DeviceType::Tablet);
        assert!(c2.is_empty());
    }

    #[test]
    fn active_split() {
        let counts = [0.0, 1.0, 2.0, 3.0, 10.0];
        let (inactive, active) = split_active(&counts, 2.0);
        assert_eq!(inactive, vec![0.0, 1.0, 2.0]);
        assert_eq!(active, vec![3.0, 10.0]);
    }

    #[test]
    fn identical_distance_zero() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(max_y_distance(&a, &a), Some(0.0));
        assert_eq!(max_y_distance(&a, &[]), None);
    }
}
