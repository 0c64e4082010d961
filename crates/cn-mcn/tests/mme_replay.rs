//! The MME's per-UE state table and the replay engine apply the same
//! lenient step, so on any trace — conformant or not — the MME's protocol
//! error count is replay's violation count.

use cn_mcn::Mme;
use cn_statemachine::replay_trace;
use cn_trace::{DeviceType, EventType, Timestamp, Trace, TraceRecord, UeId};
use proptest::prelude::*;

/// Arbitrary multi-UE event soup: random UEs, events and gaps (ties
/// included), with no regard for the protocol.
fn soup() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u32..8, 0u64..5_000, 0u8..6), 0..200).prop_map(|picks| {
        let mut t = 0;
        let records = picks
            .into_iter()
            .map(|(ue, gap, code)| {
                t += gap;
                let event = EventType::from_code(code).expect("code < 6");
                TraceRecord::new(
                    Timestamp::from_millis(t),
                    UeId(ue),
                    DeviceType::Phone,
                    event,
                )
            })
            .collect();
        Trace::from_records(records)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mme_counts_agree_with_replay(trace in soup()) {
        let report = Mme::new().run(&trace);
        let replay = replay_trace(trace.records());
        prop_assert_eq!(report.processed as usize, replay.total_events);
        prop_assert_eq!(report.ues as usize, replay.ue_count);
        prop_assert_eq!(report.protocol_errors as usize, replay.violations.len());
    }
}
