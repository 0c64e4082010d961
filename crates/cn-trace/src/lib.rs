//! Control-plane event and trace substrate.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: the six LTE control-plane event types of Table 1 of the paper
//! (*Modeling and Generating Control-Plane Traffic for Cellular Networks*,
//! IMC '23), device types, millisecond timestamps, the [`TraceRecord`]
//! event record, the sorted [`Trace`] container with hour/device
//! partitioning and the stable [`radix_sort`], trace serialization (CSV,
//! JSONL, and a compact binary format), and the ordered-record dataplane
//! every later layer pulls: the stream contract (`source`), the one record
//! order (`TraceRecord::merge_key`, which every merge yields stably)
//! and the one 14-byte record codec ([`io`]).
//!
//! Design notes
//! ------------
//! * Events are small `Copy` values; a trace is a flat, time-sorted
//!   `Vec<TraceRecord>` — cache-friendly and trivially mappable to the
//!   on-disk binary format.
//! * All timestamps are in **milliseconds** (the paper's collection
//!   granularity) since an arbitrary epoch; hour-of-day arithmetic treats
//!   `t = 0` as midnight of day 0.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod device;
mod event;
pub mod io;
mod record;
pub mod relabel;
mod source;
mod summary;
mod time;
mod trace;
mod validate;

pub use block::EncodedBlock;
pub use device::{DeviceType, PopulationMix};
pub use event::EventType;
pub use io::RECORD_BYTES;
pub use record::{TraceRecord, UeId};
pub use source::{IterSource, RecordSource, StreamError};
pub use summary::TraceSummary;
pub use time::{HourOfDay, Timestamp, MS_PER_DAY, MS_PER_HOUR, MS_PER_SEC};
pub use trace::{radix_sort, PerUeView, Trace};
pub use validate::{check_well_formed, WellFormedError};
