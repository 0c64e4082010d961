//! The simulator runs on its caller's thread alone.
//!
//! A test file of its own: the process's thread count is the only witness,
//! and a second test in the same binary would run on a thread of its own.

use cn_mcn::{DesConfig, DesSim};
use cn_trace::{DeviceType, EventType, Timestamp, TraceRecord, UeId};

/// The process's thread count, from `/proc/self/status`; `None` where
/// there is no procfs.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn offer_and_finish_start_no_thread() {
    let Some(before) = threads() else {
        return;
    };
    let mut sim = DesSim::new(DesConfig::default_epc(7)).unwrap();
    for i in 0..20_000u64 {
        let event = EventType::ALL[i as usize % 6];
        let rec = TraceRecord::new(
            Timestamp::from_millis(i * 3),
            UeId((i % 512) as u32),
            DeviceType::Phone,
            event,
        );
        sim.offer(&rec).unwrap();
        if i % 4_096 == 0 {
            assert_eq!(threads(), Some(before), "after {} offers", i + 1);
        }
    }
    assert_eq!(threads(), Some(before), "after every offer");
    let report = sim.finish();
    assert_eq!(threads(), Some(before), "after finish");
    assert_eq!(report.offered, 20_000);
}
