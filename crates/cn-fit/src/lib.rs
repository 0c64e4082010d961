//! Model fitting: from a control-plane trace to the paper's traffic models.
//!
//! The pipeline (§5) instantiates one **two-level state-machine-based
//! Semi-Markov model** per (UE-cluster, hour-of-day, device-type):
//!
//! 1. every UE's event stream is replayed through the two-level machine to
//!    obtain per-transition sojourn samples (`cn-statemachine::replay`);
//! 2. per (hour, device) the UEs are clustered on the paper's four traffic
//!    features with the adaptive quadtree ([`cluster`]);
//! 3. per (cluster, hour, device) the Semi-Markov parameters are estimated:
//!    transition probabilities from transition counts, sojourn laws as
//!    empirical CDFs (the paper's choice) or MLE-fitted Poisson models (the
//!    comparison methods);
//! 4. a **first-event model** (§5.4) captures each cluster-hour's first
//!    event type and start-time-within-hour distribution.
//!
//! Four method variants reproduce the paper's Table 3 matrix
//! ([`Method`]): `Base` (EMM–ECM machine, Poisson, no clustering), `B1`
//! (+ clustering), `B2` (two-level machine, Poisson, clustering), and
//! `Ours` (two-level machine, empirical CDFs, clustering).
//!
//! [`fiveg`] projects a fitted LTE model to 5G NSA and SA (§6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod compact;
mod first_event;
pub mod fiveg;
pub mod inspect;
pub mod method;
mod model;
mod pipeline;
mod semi_markov;
mod sojourn;

pub use compact::compact_model_set;
pub use first_event::FirstEventModel;
pub use inspect::{inventory, verify, ModelDefect, ModelInventory};
pub use method::{DistributionKind, Method, StateMachineKind};
pub use model::{ClusterHourModel, DeviceModels, HourModels, ModelSet};
pub use pipeline::{fit, FitConfig};
pub use semi_markov::{Branch, SemiMarkovModel, TransitionLike};
