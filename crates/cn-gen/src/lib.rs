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
//! Four synthesis surfaces share those per-UE generators and produce
//! byte-identical traces for the same [`GenConfig`]. Each stays because
//! something the others cannot do depends on it (DESIGN.md §5d):
//!
//! * [`generate`] — materialize the whole trace (per-UE batch +
//!   `Trace::merge`): the reference the golden and cross-surface tests
//!   compare every streaming engine against;
//! * [`PopulationStream`] — sequential bounded-memory streaming: the
//!   per-UE runs merged by time slab over packed integer keys ([`pool`]);
//!   it *is* the inline path of the next surface and cannot fail, so it
//!   alone keeps [`Iterator`];
//! * [`ShardedStream`] — multi-core streaming: disjoint UE shards on
//!   worker threads, bounded block channels, and a block-draining S-way
//!   merge. Execution is *adaptive*: at one effective shard (including
//!   every single-core box) it runs the sequential merge inline, spawning
//!   no threads, so the sharded API is never slower than
//!   [`PopulationStream`];
//! * [`generate_out_of_core`] — population-scale binary export under a
//!   bounded memory budget: UE-range chunks, generated on
//!   [`GenConfig::threads`] workers, emit arena-encoded sorted runs that
//!   spill to temp files past the budget and k-way merge back into the
//!   sink as verbatim byte blocks (see [`outofcore`]) — a different
//!   output (bytes, not records) and memory bound.
//!
//! Both streams implement [`cn_trace::RecordSource`], the one pull
//! contract every downstream layer consumes.
//!
//! All "0 = all cores" knobs resolve through [`effective_parallelism`].
//!
//! The sharded pipeline is **failure-contained**: a panicked worker
//! surfaces as a typed [`StreamError`] through the fallible
//! [`ShardedStream::try_next`] / [`ShardedStream::finish`] API (there is
//! no infallible view of it) — never as a silently truncated trace (see `shard` module docs, *Failure
//! semantics*, and the deterministic [`fault`] injection harness the
//! tier-1 suite drives it with).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fault;
pub mod outofcore;
pub mod per_ue;
pub mod pool;
pub mod shard;
pub mod stream;

pub use cn_trace::StreamError;
pub use engine::{effective_parallelism, generate, GenConfig, HourSemantics};
pub use fault::FaultPlan;
pub use outofcore::{generate_out_of_core, OutOfCoreConfig, OutOfCoreReport};
pub use per_ue::{generate_ue, UeEventIter};
pub use pool::UePool;
pub use shard::{ShardedStream, StreamStats, WorkerOutcome};
pub use stream::PopulationStream;
