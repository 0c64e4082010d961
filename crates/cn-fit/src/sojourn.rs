//! Per-UE observation, written into flat columns per (device, hour) cell.
//!
//! One replay pass per UE yields everything the fit needs: sojourn samples
//! per transition by hour of state entry (pooled across days, §4.1.1),
//! `HO`/`TAU` gaps within a (day, hour) window (for the EMM–ECM baselines),
//! per-(day, hour) first events (§5.4), and event and censored-visit counts.
//!
//! A sample is one `u64` row, `rank << 40 | milliseconds`, where `rank` is
//! the UE's index among its device's UEs in ascending id order. Rows go in
//! rank order and, within a UE, in time order, so the pool of a cluster —
//! its members ascending — is its column filtered by cluster, in the order
//! the laws' in-order sums need.

use cn_statemachine::{replay_ue, BottomTransition, ConnSub, IdleSub, TlState, TopTransition};
use cn_stats::summary::std_dev;
use cn_trace::{EventType, TraceRecord, MS_PER_HOUR};

/// Column of a [`TopTransition`]'s sojourns: `t as usize`.
pub(crate) const TOP: usize = 0;
/// First column of the [`BottomTransition`]s'.
pub(crate) const BOTTOM: usize = TOP + TopTransition::ALL.len();
/// Gaps between consecutive `HO` events of one (day, hour) window.
pub(crate) const HO_GAPS: usize = BOTTOM + BottomTransition::ALL.len();
/// Same for `TAU`.
pub(crate) const TAU_GAPS: usize = HO_GAPS + 1;
/// First column of the per-event-code first events of a (day, hour)
/// window, the row's milliseconds being the offset in the hour.
pub(crate) const FIRSTS: usize = TAU_GAPS + 1;
/// Columns per cell.
pub(crate) const COLUMNS: usize = FIRSTS + EventType::ALL.len();

const MS_BITS: u32 = 40;
const MS_MAX: u64 = (1 << MS_BITS) - 1;

/// The UE rank of a row.
pub(crate) fn rank(row: u64) -> usize {
    (row >> MS_BITS) as usize
}

/// The sample of a row, in seconds: `ms as f64 / 1000.0`, the same bits as
/// a `u64` duration divided by `MS_PER_SEC`.
pub(crate) fn secs(row: u64) -> f64 {
    (row & MS_MAX) as f64 / 1000.0
}

/// The six bottom-capable states, ascending; censored counts are indexed
/// by position here.
pub(crate) const BOTTOM_STATES: [TlState; 6] = [
    TlState::Connected(ConnSub::SrvReqS),
    TlState::Connected(ConnSub::HoS),
    TlState::Connected(ConnSub::TauSConn),
    TlState::Idle(IdleSub::S1RelS1),
    TlState::Idle(IdleSub::TauSIdle),
    TlState::Idle(IdleSub::S1RelS2),
];

/// One UE's counts in one hour-of-day, summed over days.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct UeCounts {
    /// Events, indexed by `EventType::code`.
    pub(crate) events: [u32; 6],
    /// Bottom-state visits entered in this hour that ended with no
    /// second-level transition (censored by a top-level move), indexed as
    /// [`BOTTOM_STATES`].
    pub(crate) censored: [u32; 6],
}

/// What one share of UEs showed in one (device, hour) cell.
#[derive(Debug, Default)]
pub(crate) struct Cell {
    /// Rows per column: sojourns of each top then bottom transition by hour
    /// of state entry, window-local `HO`/`TAU` gaps, first events.
    pub(crate) columns: [Vec<u64>; COLUMNS],
    /// One entry per UE of the device in the share, in rank order.
    pub(crate) ues: Vec<UeCounts>,
}

/// Observe one UE's time-sorted events into its device's 24 `cells`.
/// Second-level sojourns and censored visits are kept only for the
/// two-level machine, `HO`/`TAU` gaps only for the EMM–ECM machine.
/// Panics at `rank` 2²⁴ (more UEs of one device than fit in memory); a
/// sojourn of 2⁴⁰ ms (35 years) or more is kept as 2⁴⁰ − 1 ms.
pub(crate) fn observe(cells: &mut [Cell], rank: usize, events: &[TraceRecord], two_level: bool) {
    assert!(rank < 1 << (64 - MS_BITS), "over 2^24 UEs of one device");
    let row = |ms: u64| (rank as u64) << MS_BITS | ms.min(MS_MAX);
    let mut counts = [UeCounts::default(); 24];
    let outcome = replay_ue(events);
    for s in &outcome.top_sojourns {
        let cell = &mut cells[s.enter.hour_of_day().index()];
        cell.columns[TOP + s.transition as usize].push(row(s.duration_ms));
    }
    if two_level {
        for s in &outcome.bottom_sojourns {
            let cell = &mut cells[s.enter.hour_of_day().index()];
            cell.columns[BOTTOM + s.transition as usize].push(row(s.duration_ms));
        }
        for &(state, enter) in &outcome.bottom_censored {
            let slot = BOTTOM_STATES.iter().position(|&s| s == state);
            counts[enter.hour_of_day().index()].censored
                [slot.expect("censored states are bottom-capable")] += 1;
        }
    }
    // Events are time-sorted, so a (day, hour) window starts where the
    // absolute hour changes.
    let mut window = u64::MAX;
    let (mut last_ho, mut last_tau) = (None, None);
    for r in events {
        let hour = r.t.as_millis() / MS_PER_HOUR;
        let cell = &mut cells[(hour % 24) as usize];
        let code = r.event.code() as usize;
        counts[(hour % 24) as usize].events[code] += 1;
        if hour != window {
            window = hour;
            cell.columns[FIRSTS + code].push(row(r.t.offset_in_hour()));
        }
        if two_level {
            continue;
        }
        let (last, column) = match r.event {
            EventType::Handover => (&mut last_ho, HO_GAPS),
            EventType::Tau => (&mut last_tau, TAU_GAPS),
            _ => continue,
        };
        // Gaps spanning a window boundary are never observed (§4.1.1
        // observes inter-arrival times per 1-hour interval); the EMM–ECM
        // baselines fit these burst-dominated gaps as Poisson arrivals,
        // which is what makes them flood the trace with HO.
        if let Some(prev) = last.replace(r.t) {
            if prev.as_millis() / MS_PER_HOUR == hour {
                cell.columns[column].push(row(r.t.since(prev)));
            }
        }
    }
    for (cell, counts) in cells.iter_mut().zip(counts) {
        cell.ues.push(counts);
    }
}

/// The rows of one column across the shares of a cell, in rank order.
pub(crate) fn rows(shares: &[Cell], column: usize) -> impl Iterator<Item = u64> + '_ {
    shares
        .iter()
        .flat_map(move |s| s.columns[column].iter().copied())
}

/// The paper's four clustering features per UE of a cell (§5.3):
/// `[srv_req count/day, std(CONNECTED sojourn), s1_conn_rel count/day,
/// std(IDLE sojourn)]`.
pub(crate) fn features(shares: &[Cell], n_days: u64) -> Vec<Vec<f64>> {
    let days = n_days.max(1) as f64;
    let ues: Vec<&UeCounts> = shares.iter().flat_map(|s| &s.ues).collect();
    // Per UE, the std of its sojourns of one transition, then the other.
    let std_by_ue = |a: TopTransition, b: TopTransition| {
        let mut samples = vec![Vec::new(); ues.len()];
        for row in rows(shares, TOP + a as usize).chain(rows(shares, TOP + b as usize)) {
            samples[rank(row)].push(secs(row));
        }
        samples.into_iter().map(|s| std_dev(&s))
    };
    use TopTransition::*;
    let conn = std_by_ue(ConnToIdle, ConnToDereg);
    let idle = std_by_ue(IdleToConn, IdleToDereg);
    let count = |ue: &UeCounts, e: EventType| f64::from(ue.events[e.code() as usize]) / days;
    ues.iter()
        .zip(conn.zip(idle))
        .map(|(ue, (conn, idle))| {
            let (srv, rel) = (EventType::ServiceRequest, EventType::S1ConnRelease);
            vec![count(ue, srv), conn, count(ue, rel), idle]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{DeviceType, Timestamp, UeId};

    fn rec(t_ms: u64, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t_ms), UeId(0), DeviceType::Phone, e)
    }

    /// One device's 24 cells after observing one UE at rank 0.
    fn observed(events: &[TraceRecord], two_level: bool) -> Vec<Cell> {
        let mut cells: Vec<Cell> = (0..24).map(|_| Cell::default()).collect();
        observe(&mut cells, 0, events, two_level);
        cells
    }

    fn secs_of(cell: &Cell, column: usize) -> Vec<f64> {
        cell.columns[column].iter().map(|&r| secs(r)).collect()
    }

    #[test]
    fn empty_stream_gives_empty_observations() {
        let cells = observed(&[], true);
        for cell in &cells {
            assert!(cell.columns.iter().all(Vec::is_empty));
            // The UE still holds its rank in each of its device's cells.
            assert_eq!(cell.ues.len(), 1);
        }
        assert_eq!(cells[0].ues[0].events, [0; 6]);
        assert_eq!(features(&cells[..1], 1), vec![vec![0.0; 4]]);
    }

    #[test]
    fn sojourns_bucketed_by_entry_hour() {
        use EventType::*;
        // Attach at 00:30, release at 01:10 → CONNECTED sojourn of 2400 s
        // assigned to hour 0 (entry time).
        let events = vec![
            rec(MS_PER_HOUR / 2, Attach),
            rec(MS_PER_HOUR + 10 * 60 * 1000, S1ConnRelease),
        ];
        let cells = observed(&events, true);
        let conn = TOP + TopTransition::ConnToIdle as usize;
        assert_eq!(secs_of(&cells[0], conn), vec![2_400.0]);
        assert!(cells[1].columns[..BOTTOM].iter().all(Vec::is_empty));
    }

    #[test]
    fn first_events_per_day_hour() {
        use EventType::*;
        let events = vec![
            rec(1_000, ServiceRequest),
            rec(2_000, S1ConnRelease),
            rec(MS_PER_HOUR + 500, ServiceRequest),
            rec(24 * MS_PER_HOUR + 42_000, Tau),
        ];
        let cells = observed(&events, true);
        let firsts = |cell: &Cell, e: EventType| secs_of(cell, FIRSTS + e.code() as usize);
        // Hour 0 of days 0 and 1, one first event each; hour 1 of day 0.
        assert_eq!(firsts(&cells[0], ServiceRequest), vec![1.0]);
        assert_eq!(firsts(&cells[0], Tau), vec![42.0]);
        assert_eq!(firsts(&cells[1], ServiceRequest), vec![0.5]);
        let total: usize = cells
            .iter()
            .flat_map(|c| &c.columns[FIRSTS..])
            .map(Vec::len)
            .sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn ho_gaps_are_window_local() {
        use EventType::*;
        let events = vec![
            rec(1_000, ServiceRequest),
            rec(10_000, Handover),
            rec(250_000, Handover),              // same hour 0: gap of 240 s
            rec(MS_PER_HOUR + 5_000, Handover),  // next hour: gap discarded
            rec(MS_PER_HOUR + 90_000, Handover), // hour 1: gap of 85 s
            rec(25 * MS_PER_HOUR, Handover),     // day 1 hour 1: new window
        ];
        let cells = observed(&events, false);
        assert_eq!(secs_of(&cells[0], HO_GAPS), vec![240.0]);
        // The cross-boundary gap is never observed (§4.1.1 preprocessing).
        assert_eq!(secs_of(&cells[1], HO_GAPS), vec![85.0]);
        // The two-level machine keeps no gaps.
        assert!(observed(&events, true)
            .iter()
            .all(|c| c.columns[HO_GAPS].is_empty()));
    }

    #[test]
    fn features_scale_by_days() {
        use EventType::*;
        let events = vec![
            rec(1_000, ServiceRequest),
            rec(5_000, S1ConnRelease),
            rec(24 * MS_PER_HOUR + 1_000, ServiceRequest),
            rec(24 * MS_PER_HOUR + 9_000, S1ConnRelease),
        ];
        let mut cells = observed(&[], true);
        // A silent UE at rank 0, then this one at rank 1.
        observe(&mut cells, 1, &events, true);
        let f = features(&cells[..1], 2);
        assert_eq!(f[0], vec![0.0; 4]);
        assert!((f[1][0] - 1.0).abs() < 1e-12, "srv/day {}", f[1][0]);
        assert!((f[1][2] - 1.0).abs() < 1e-12);
        // Two CONNECTED sojourns (4 s and 8 s) → std = 2.
        assert!((f[1][1] - 2.0).abs() < 1e-9, "conn std {}", f[1][1]);
    }

    #[test]
    fn rows_keep_rank_and_exact_milliseconds() {
        // A 58-day sojourn: more milliseconds than a `u32` holds.
        let ms = 5_000_000_123_u64;
        let row = 7 << MS_BITS | ms;
        assert_eq!(rank(row), 7);
        assert_eq!(secs(row).to_bits(), (ms as f64 / 1000.0).to_bits());
    }

    #[test]
    fn bottom_states_ascend() {
        assert!(BOTTOM_STATES.windows(2).all(|w| w[0] < w[1]));
    }
}
