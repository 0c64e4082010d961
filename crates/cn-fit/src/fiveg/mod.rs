//! 5G adaptation of the LTE traffic model (§6 of the paper).
//!
//! Two deployment modes are modeled (§8.2):
//!
//! * **5G NSA** (non-standalone) runs on LTE's core, shares LTE's event
//!   vocabulary and the unmodified two-level machine; only event
//!   *frequencies* change (HO most of all — mmWave cells are small).
//! * **5G SA** (standalone) renames the events per Table 2
//!   ([`TABLE2`]), has **no TAU**, and uses the reduced machine of Fig. 6.
//!
//! Because no large-scale 5G trace exists, the paper derives 5G model
//! parameters by *scaling* the fitted 4G model: HO ×4.6 for NSA (from the
//! measurement study \[32\]) and ×3.0 for SA (the authors' own controlled
//! walking/driving experiment). [`adapt_model`] applies those factors to a
//! fitted [`ModelSet`](crate::ModelSet) — upweighting HO-triggered branches
//! and shrinking HO sojourn laws — and, for SA, removes every TAU-related
//! state and transition.

mod mapping;
mod render;
mod scale;

pub use mapping::{Event5G, TABLE2};
pub use render::{to_sa_records, Record5G, TauInSaTrace};
pub use scale::{adapt_model, FiveGMode, ScalingProfile};
