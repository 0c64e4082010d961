//! 3GPP UE state machines and the paper's two-level hierarchical machine.
//!
//! This crate encodes, as explicit Rust enums with exhaustively enumerated
//! legal transitions:
//!
//! * the merged top-level **EMM–ECM** machine of Fig. 1 used by the
//!   paper's baseline methods ([`TopState`]);
//! * the paper's contribution, the **two-level hierarchical machine** of
//!   Fig. 5 with its six second-level states and nine second-level
//!   transitions ([`two_level`]);
//! * the adjusted **5G SA** machine of Fig. 6 ([`fiveg`]);
//! * Graphviz renderings of the machines ([`dot`]) for documentation;
//! * a **replay engine** ([`replay`]) that folds the machine's one lenient
//!   step ([`TlState::step`]) over a per-UE event stream, producing
//!   per-transition sojourn-time samples (the raw material of the
//!   Semi-Markov model, §5.2) and protocol violations (the basis of
//!   conformance checking and of attributing HO/TAU events to an ECM
//!   context in Tables 4/11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod analysis;
pub mod dot;
mod emm_ecm;
pub mod fiveg;
pub mod replay;
pub mod two_level;

pub use emm_ecm::{TopState, TopTransition};
pub use replay::{
    replay_trace, replay_ue, PopulationReplay, ReplayOutcome, SojournSample, UeViolation, Violation,
};
pub use two_level::{BottomTransition, ConnSub, IdleSub, TlState};
