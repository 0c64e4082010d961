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
//! * [`queueing::QueueSim`] layers a multi-worker FIFO queueing model with
//!   per-event-type service times on top, reporting latency percentiles,
//!   utilization, and peak backlog under a given trace;
//! * [`nf`] fans each event out into per-network-function transactions
//!   (MME/HSS/PCRF/SGW/PGW) following the 3GPP procedure flows, in the
//!   spirit of the Dababneh et al. capacity model the paper cites;
//! * [`messages`] expands each event into its full TS 23.401 signaling
//!   message flow (NAS/S1AP/S6a/S11/S5/Gx) — an attach is 19 messages —
//!   for message-granularity MCN simulation;
//! * [`overload`] implements NAS-style congestion control (token-bucket
//!   admission with per-procedure priorities) so shedding policies can be
//!   evaluated against realistic signaling storms;
//! * [`des`] ties all of the above together into a multi-NF discrete-event
//!   simulator: per-NF server pools with service-time *distributions* from
//!   the `cn-stats` zoo, dependency-ordered transaction chains derived from
//!   the [`nf::TransactionMatrix`], queue-depth-driven autoscaling, and the
//!   admission controller running inside the event loop — the closed-loop
//!   capacity model `mcn_check` pins in `BENCH_mcn.json`.
//!
//! The simulators expose live telemetry through `cn-obs`:
//! [`QueueSim::observed`] records depth/latency histograms,
//! [`overload::apply_observed`] accumulates shed counts by priority, and
//! [`nf::nf_load_observed`] keeps per-NF transaction counters — all under
//! the `cn_mcn_*` metric namespace (DESIGN.md §7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod des;
pub mod messages;
pub mod mme;
pub mod nf;
pub mod overload;
pub mod queueing;
mod tally;

pub use des::{
    dependency_chain, deterministic_service, AutoscalePolicy, DesConfig, DesError, DesReport,
    DesSim, NfConfig, NfDesReport,
};
pub use messages::{expand, interface_load, procedure, Interface, Message, MessageRecord};
pub use mme::{Mme, MmeReport};
pub use nf::{nf_load, nf_load_observed, NetworkFunction, NfLoad, TransactionMatrix};
pub use overload::{apply_observed, AdmissionPolicy, Priority, ShedReport};
pub use queueing::{MessageServiceProfile, ProfileError, QueueReport, QueueSim, ServiceProfile};
