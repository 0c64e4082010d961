//! Rendering traces in the 5G SA vocabulary.
//!
//! The generator works in the 4G event vocabulary throughout (5G SA is a
//! pure relabeling per Table 2). This module performs that relabeling at
//! the output boundary: converting records, rejecting `TAU` (which cannot
//! exist in an SA trace), and writing the CSV consumers of a 5G core
//! simulator expect.

use crate::mapping::Event5G;
use cn_trace::{DeviceType, Timestamp, Trace, UeId};
use serde::{Deserialize, Serialize};

/// One 5G SA control-plane event record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record5G {
    /// Event timestamp.
    pub t: Timestamp,
    /// Originating UE.
    pub ue: UeId,
    /// Device type.
    pub(crate) device: DeviceType,
    /// The 5G event.
    pub event: Event5G,
}

/// Why a 4G trace could not be rendered as 5G SA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TauInSaTrace {
    /// Index of the offending record.
    pub(crate) index: usize,
    /// The UE that emitted it.
    pub(crate) ue: UeId,
}

impl std::fmt::Display for TauInSaTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "record #{} ({}) is a TAU — not representable in a 5G SA trace",
            self.index, self.ue
        )
    }
}

impl std::error::Error for TauInSaTrace {}

/// Convert a 4G-vocabulary trace (as produced from an SA-adapted model)
/// into 5G SA records. Fails on the first `TAU`, which indicates the trace
/// was not generated from an SA model.
pub fn to_sa_records(trace: &Trace) -> Result<Vec<Record5G>, TauInSaTrace> {
    trace
        .iter()
        .enumerate()
        .map(|(index, r)| match Event5G::from_4g(r.event) {
            Some(event) => Ok(Record5G {
                t: r.t,
                ue: r.ue,
                device: r.device,
                event,
            }),
            None => Err(TauInSaTrace { index, ue: r.ue }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{EventType, TraceRecord};

    fn rec(t: u64, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t), UeId(0), DeviceType::Phone, e)
    }

    #[test]
    fn clean_sa_trace_converts() {
        let t = Trace::from_records(vec![
            rec(0, EventType::Attach),
            rec(10, EventType::Handover),
            rec(20, EventType::S1ConnRelease),
            rec(30, EventType::ServiceRequest),
        ]);
        let records = to_sa_records(&t).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].event, Event5G::Register);
        assert_eq!(records[2].event, Event5G::AnRelease);
    }

    #[test]
    fn tau_is_rejected_with_position() {
        let t = Trace::from_records(vec![rec(0, EventType::Attach), rec(5, EventType::Tau)]);
        let err = to_sa_records(&t).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(err.to_string().contains("TAU"));
    }

    #[test]
    fn generated_sa_traces_render() {
        use crate::scale::{adapt_model, ScalingProfile};
        use cn_fit::{fit, FitConfig, Method};
        use cn_gen::{generate, GenConfig};
        use cn_trace::PopulationMix;
        use cn_world::{generate_world, WorldConfig};
        let world = generate_world(&WorldConfig::new(PopulationMix::new(20, 10, 5), 1.0, 3));
        let sa = adapt_model(
            &fit(&world, &FitConfig::new(Method::Ours)),
            &ScalingProfile::SA,
        );
        let trace = generate(
            &sa,
            &GenConfig::new(
                PopulationMix::new(20, 10, 5),
                Timestamp::at_hour(0, 12),
                3.0,
                8,
            ),
        );
        let records = to_sa_records(&trace).expect("SA model emits no TAU");
        assert_eq!(records.len(), trace.len());
    }
}
