//! Formal sanity analysis of the encoded machines.
//!
//! Cheap model-checking-style facts about the transition sets: which
//! states are reachable from power-on, whether any non-terminal state is a
//! dead end, and which events can ever fire in which top-level state.
//! They run only in tests: the figures *are* the spec, and these facts
//! check the transition tables against them.

use crate::fiveg::Sa5gState;
use crate::two_level::TlState;
use cn_trace::EventType;
use std::collections::{BTreeSet, VecDeque};

/// States of the two-level machine reachable from `start` via legal events.
fn reachable_from(start: TlState) -> BTreeSet<TlState> {
    let mut seen: BTreeSet<TlState> = BTreeSet::new();
    let mut queue = VecDeque::from([start]);
    while let Some(s) = queue.pop_front() {
        if !seen.insert(s) {
            continue;
        }
        for e in EventType::ALL {
            if let Some(next) = s.apply(e) {
                if !seen.contains(&next) {
                    queue.push_back(next);
                }
            }
        }
    }
    seen
}

/// States with no outgoing legal transition at all (dead ends).
fn dead_ends() -> Vec<TlState> {
    TlState::ALL
        .into_iter()
        .filter(|s| EventType::ALL.iter().all(|&e| s.apply(e).is_none()))
        .collect()
}

/// The set of events legal *somewhere* in each top-level context
/// `(connected_events, idle_events)` — the machine-level statement of
/// Table 4's HO/TAU context rules.
fn context_events() -> (BTreeSet<EventType>, BTreeSet<EventType>) {
    let mut connected = BTreeSet::new();
    let mut idle = BTreeSet::new();
    for s in TlState::ALL {
        for e in EventType::ALL {
            if s.apply(e).is_some() {
                match s {
                    TlState::Connected(_) => {
                        connected.insert(e);
                    }
                    TlState::Idle(_) => {
                        idle.insert(e);
                    }
                    TlState::Deregistered => {}
                }
            }
        }
    }
    (connected, idle)
}

/// Reachability for the 5G SA machine.
fn sa_reachable_from(start: Sa5gState) -> BTreeSet<Sa5gState> {
    let mut seen: BTreeSet<Sa5gState> = BTreeSet::new();
    let mut queue = VecDeque::from([start]);
    while let Some(s) = queue.pop_front() {
        if !seen.insert(s) {
            continue;
        }
        for e in EventType::ALL {
            if let Some(next) = s.apply(e) {
                if !seen.contains(&next) {
                    queue.push_back(next);
                }
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_level::{ConnSub, IdleSub};

    #[test]
    fn all_seven_states_reachable_from_power_on() {
        let reachable = reachable_from(TlState::Deregistered);
        assert_eq!(reachable.len(), TlState::ALL.len(), "{reachable:?}");
    }

    #[test]
    fn no_dead_ends() {
        assert!(dead_ends().is_empty(), "{:?}", dead_ends());
    }

    #[test]
    fn every_state_can_return_to_deregistered() {
        // DTCH is reachable from every state: the machine is "shutdown
        // safe" (no state traps a powered-on UE forever).
        for s in TlState::ALL {
            let reach = reachable_from(s);
            assert!(
                reach.contains(&TlState::Deregistered),
                "{s} cannot reach DEREGISTERED"
            );
        }
    }

    #[test]
    fn context_rules_match_the_paper() {
        let (connected, idle) = context_events();
        // HO only in CONNECTED; TAU in both; SRV_REQ only from IDLE.
        assert!(connected.contains(&EventType::Handover));
        assert!(!idle.contains(&EventType::Handover));
        assert!(connected.contains(&EventType::Tau));
        assert!(idle.contains(&EventType::Tau));
        assert!(idle.contains(&EventType::ServiceRequest));
        assert!(!connected.contains(&EventType::ServiceRequest));
        // The idle sub-machine can release (TAU_S_IDLE → S1_REL_S_2).
        assert!(idle.contains(&EventType::S1ConnRelease));
    }

    #[test]
    fn idle_substates_reach_each_other() {
        // The idle TAU chain is fully connected internally.
        for sub in [IdleSub::S1RelS1, IdleSub::TauSIdle, IdleSub::S1RelS2] {
            let reach = reachable_from(TlState::Idle(sub));
            for target in [IdleSub::TauSIdle, IdleSub::S1RelS2] {
                assert!(
                    reach.contains(&TlState::Idle(target)),
                    "{sub:?} → {target:?}"
                );
            }
            assert!(reach.contains(&TlState::Connected(ConnSub::SrvReqS)));
        }
    }

    #[test]
    fn sa_machine_is_fully_reachable_and_tau_free() {
        let reach = sa_reachable_from(Sa5gState::Deregistered);
        assert_eq!(reach.len(), Sa5gState::ALL.len());
    }
}
