//! Wall-clock-paced live traffic service.
//!
//! Every engine in this workspace produces a control-plane trace as a
//! sorted record stream ([`cn_trace::RecordSource`]): the sharded
//! generator, scenario overlays, multi-population compositions. This
//! crate turns any such stream into a *service*: a long-running server
//! that emits the events in real time — or at a configurable
//! time-compression factor — over TCP, in exactly the 14-byte binary
//! framing the batch writers use. A consumer that saves the bytes gets
//! a file the batch reader recovers; a consumer of a complete run gets
//! the batch trace byte for byte.
//!
//! The moving parts, each its own module:
//!
//! * `clock` — the [`Clock`] abstraction: monotonic now + absolute
//!   sleep, with a deterministic [`ManualClock`] for tests;
//! * `pace` — open-loop pacing against absolute deadlines, so stalls
//!   cause transient lag, never accumulated drift; deadlines inside one
//!   [`PACE_QUANTUM_NS`] share a sleep, a queue hand-off and a socket
//!   write (never early, under one quantum late);
//! * `frame` — the wire protocol: record frames plus in-band Gap and
//!   End markers in reserved code space, and the consumer-side reader;
//! * `hub` — bounded per-consumer byte queues with honest overflow
//!   (a block that does not fit is dropped whole; drops become
//!   positioned gap markers and a typed
//!   [`ConsumerLagged`](cn_trace::StreamError::ConsumerLagged) verdict);
//! * `checkpoint` — atomic persistence of the emitted-records
//!   watermark plus the spec that regenerates the stream, for
//!   byte-exact resume;
//! * `server` — the serve loop tying it together, with TCP accept and
//!   the `cn_live_*` metric family.
//!
//! The crate follows the workspace's no-async-runtime stance: threads
//! and blocking I/O only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod clock;
mod frame;
mod hub;
mod pace;
mod server;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use clock::{Clock, ManualClock, SystemClock};
pub use frame::{
    capture, decode_frame, encode_frame, CapturedStream, Frame, LiveReader, LiveRecordSource,
    FRAME_BYTES,
};
pub use hub::{ConsumerReport, Hub};
pub use pace::{Pacer, PACE_QUANTUM_NS};
pub use server::{IntrospectionConfig, LiveConfig, LiveError, LiveReport, LiveServer};
