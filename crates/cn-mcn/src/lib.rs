//! A miniature mobile-core control plane (MME-style event processor).
//!
//! The paper's stated purpose for the traffic generator is to *drive* a
//! mobile core network under realistic control-plane load (§3.1): evaluate
//! MCN designs, size deployments, and tune monitoring. This crate provides
//! that downstream consumer:
//!
//! * [`mme::Mme`] keeps a per-UE EMM/ECM state table and processes a
//!   labeled event stream exactly the way a signaling function would —
//!   which is why event-owner labeling (design goal 2) matters: an
//!   unlabeled aggregate stream could not drive per-UE state;
//! * [`nf`] fans each event out into per-network-function transactions
//!   (MME/HSS/PCRF/SGW/PGW) following the 3GPP procedure flows, in the
//!   spirit of the Dababneh et al. capacity model the paper cites;
//! * [`messages`] expands each event into its full TS 23.401 signaling
//!   message flow (NAS/S1AP/S6a/S11/S5/Gx) — an attach is 19 messages —
//!   for message-granularity MCN simulation;
//! * [`overload`] implements NAS-style congestion control (token-bucket
//!   admission with per-procedure priorities) so shedding policies can be
//!   evaluated against realistic signaling storms;
//! * `des` is the crate's one queueing engine, a multi-NF discrete-event
//!   simulator: per-NF server pools with service-time *distributions* from
//!   the `cn-stats` zoo, dependency-ordered transaction chains derived from
//!   the [`nf::TransactionMatrix`], queue-depth-driven autoscaling, and the
//!   admission controller running inside the event loop — the closed-loop
//!   capacity model `mcn_check` pins in `BENCH_mcn.json`. A single FIFO
//!   pool of `c` servers is one of its configurations
//!   ([`DesConfig::single_pool`]).
//!
//! Live telemetry flows through `cn-obs` under one metric family,
//! `cn_mcn_des_*` (`DesSim::observed`): latency and queue-depth
//! histograms, admitted/shed counts by priority, per-NF transaction
//! counters, server gauges and scale events (DESIGN.md §7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod des;
pub mod messages;
mod mme;
pub mod nf;
pub mod overload;
mod tally;

pub use des::{
    deterministic_service, AutoscalePolicy, DesConfig, DesError, DesReport, DesSim, NfConfig,
    NfDesReport,
};
pub use messages::{expand, interface_load, procedure, Interface, Message, MessageRecord};
pub use mme::{Mme, MmeReport};
pub use nf::{nf_load, NetworkFunction, NfLoad, TransactionMatrix};
pub use overload::{AdmissionPolicy, Priority, ShedReport};
