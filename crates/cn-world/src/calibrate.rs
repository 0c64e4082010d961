//! Calibration against the paper's Table 1.
//!
//! The world simulator's one *numeric* fidelity anchor is the published
//! event breakdown (Table 1). This test-only module holds the targets and
//! the comparison that check the preset profiles (every cell within about
//! one percentage point).

use cn_trace::{DeviceType, Trace};

/// The paper's Table 1 shares per device type, indexed by
/// [`cn_trace::EventType::code`] (ATCH, DTCH, SRV_REQ, S1_CONN_REL, HO, TAU).
const TABLE1_TARGETS: [[f64; 6]; 3] = [
    // Phones
    [0.001, 0.002, 0.455, 0.475, 0.038, 0.029],
    // Connected cars
    [0.009, 0.009, 0.389, 0.452, 0.066, 0.074],
    // Tablets
    [0.012, 0.011, 0.439, 0.477, 0.021, 0.040],
];

/// Per-device calibration result.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CalibrationResult {
    /// The device type.
    device: DeviceType,
    /// Measured shares, indexed by [`cn_trace::EventType::code`].
    measured: [f64; 6],
    /// `measured − target` per event type.
    diff: [f64; 6],
    /// Largest absolute difference.
    max_abs_diff: f64,
}

/// Compare a world trace's per-device event breakdown to Table 1.
///
/// Devices with no events report all-zero shares (max diff = the largest
/// target).
fn compare_to_table1(trace: &Trace) -> [CalibrationResult; 3] {
    let mut counts = [[0u64; 6]; 3];
    for r in trace.iter() {
        counts[r.device.code() as usize][r.event.code() as usize] += 1;
    }
    std::array::from_fn(|d| {
        let total: u64 = counts[d].iter().sum();
        let measured: [f64; 6] = std::array::from_fn(|e| {
            if total == 0 {
                0.0
            } else {
                counts[d][e] as f64 / total as f64
            }
        });
        let diff: [f64; 6] = std::array::from_fn(|e| measured[e] - TABLE1_TARGETS[d][e]);
        CalibrationResult {
            device: DeviceType::ALL[d],
            measured,
            diff,
            max_abs_diff: diff.iter().fold(0.0f64, |m, x| m.max(x.abs())),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_world, WorldConfig};
    use cn_trace::PopulationMix;

    #[test]
    fn targets_are_distributions() {
        for row in TABLE1_TARGETS {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 0.01, "target row sums to {sum}");
        }
    }

    #[test]
    fn preset_world_calibrates_within_two_points() {
        let trace = generate_world(&WorldConfig::new(
            PopulationMix::new(150, 60, 35),
            3.0,
            2024,
        ));
        for result in compare_to_table1(&trace) {
            assert!(
                result.max_abs_diff < 0.03,
                "{}: max diff {:.3} (measured {:?})",
                result.device,
                result.max_abs_diff,
                result.measured
            );
        }
    }

    #[test]
    fn empty_trace_reports_targets_as_diff() {
        let results = compare_to_table1(&Trace::new());
        for (d, r) in results.iter().enumerate() {
            assert_eq!(r.measured, [0.0; 6]);
            let expected_max = TABLE1_TARGETS[d].iter().fold(0.0f64, |m, &x| m.max(x));
            assert!((r.max_abs_diff - expected_max).abs() < 1e-12);
        }
    }
}
