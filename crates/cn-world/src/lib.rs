//! Mechanistic ground-truth world simulator.
//!
//! The paper instantiates and validates its traffic model against a
//! proprietary carrier trace (37,325 UEs over one week, ~197M events). That
//! data cannot be published, so this crate plays the role of "reality" for
//! the whole pipeline: it synthesizes a carrier-style control-plane trace
//! from *behavioral* primitives — user sessions, mobility, power cycling —
//! rather than from the statistical model under test, so that fitting the
//! model to this world is a genuine exercise.
//!
//! Behavioral ingredients (see `DESIGN.md` §3 for the substitution
//! argument):
//!
//! * **Sessions** (`session`): clumpy arrivals (bursts of short gaps
//!   followed by long pauses), log-normal-mixture durations with a Pareto
//!   tail, an inactivity timer that converts session end into
//!   `S1_CONN_REL`. None of these are exponential, matching the paper's
//!   finding that per-UE traffic defeats Poisson/Pareto/Weibull/Tcplib fits.
//! * **Mobility** (`mobility`): cell dwell times while connected produce
//!   `HO`; tracking-area crossings and a periodic timer produce `TAU` in
//!   both ECM states; an idle-mode `TAU` is always followed by the
//!   signaling `S1_CONN_REL` of Fig. 5's `S1_REL_S_2` behavior.
//! * **Rhythms** (`diurnal`): hour-of-day rate curves per device type
//!   with the peak-to-trough swings of Fig. 2, plus heavy-tailed per-UE
//!   activity levels for cross-UE diversity.
//! * **Power** ([`profile::PowerProfile`]): rare `DTCH`/`ATCH` cycles,
//!   biased to night hours.
//!
//! Every generated per-UE stream is conformant to the paper's two-level
//! state machine by construction (verified property-style in the tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod calibrate;
mod diurnal;
mod mobility;
mod profile;
mod session;
mod ue;
mod world;

pub use profile::{DeviceProfile, MobilityProfile, PowerProfile, SessionProfile};
pub use world::{generate_world, WorldConfig};
