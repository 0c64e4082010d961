//! Control-plane trace synthesis (§7 of the paper).
//!
//! To synthesize a trace for `K` UEs starting at hour `H`, the engine runs
//! `K` independent per-UE generators. Each generator:
//!
//! 1. samples a **persona** — a modeled UE's per-hour cluster trajectory —
//!    so generators are distributed over clusters exactly like the modeled
//!    population;
//! 2. bootstraps from the **first-event model** of its cluster at hour `H`
//!    (trying successive hours while the model says the UE is silent);
//! 3. then drives the per-hour state machine with **two concurrent
//!    timers**: the top-level (EMM–ECM) timer and the second-level timer.
//!    Whenever the top level transitions, the bottom level drops its
//!    pending event, resets its timer, and restarts in the sub-machine of
//!    the new top state — exactly the paper's §7 semantics. For the
//!    EMM–ECM baseline methods the second level is replaced by overlaid
//!    `HO`/`TAU` inter-arrival processes, which is what makes those
//!    methods emit handovers in ECM-IDLE (the artifact Tables 4/11
//!    quantify).
//!
//! Sojourn times are sampled from the model of the hour in which the state
//! was entered; a state with no observed departures in that hour retries
//! with each subsequent hour's model. Per-UE event times are strictly
//! increasing; UE streams are merged into one sorted population trace.
//!
//! Three synthesis surfaces share those per-UE generators and produce
//! byte-identical traces for the same [`GenConfig`]. All of them merge UE
//! runs through one engine, the time-slab pool behind
//! [`PopulationStream`]:
//!
//! * [`PopulationStream`] — sequential bounded-memory streaming over packed
//!   integer keys; it cannot fail, so it alone keeps [`Iterator`];
//! * [`ShardedStream`] — multi-core streaming: disjoint UE shards, each a
//!   pool on its own worker thread, bounded block channels, and a
//!   block-draining S-way merge. At one effective shard (including every
//!   single-core box) it runs the sequential stream inline, spawning no
//!   threads. [`generate`] drains it into a materialized [`cn_trace::Trace`];
//! * [`generate_out_of_core`] — population-scale binary export under a
//!   bounded memory budget: UE-range chunks, each a pool on one of
//!   [`GenConfig::threads`] workers, emit arena-encoded sorted runs that
//!   spill past the budget and k-way merge back into the sink as verbatim
//!   byte blocks — bytes, not records, under a different memory bound.
//!
//! Both streams implement [`cn_trace::RecordSource`], the one pull
//! contract every downstream layer consumes.
//!
//! All "0 = all cores" knobs resolve through [`effective_parallelism`].
//!
//! The sharded pipeline is **failure-contained**: a panicked worker
//! surfaces as a typed [`cn_trace::StreamError`] through its fallible pull,
//! never as a silently truncated trace ([`FaultPlan`] injects the faults).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod fault;
mod outofcore;
mod per_ue;
mod pool;
mod shard;

pub use engine::{effective_parallelism, generate, GenConfig, HourSemantics};
pub use fault::FaultPlan;
pub use outofcore::{generate_out_of_core, OutOfCoreConfig, OutOfCoreReport};
pub use per_ue::{generate_ue, UeEventIter};
pub use pool::PopulationStream;
pub use shard::{ShardedStream, StreamStats, WorkerOutcome};
