//! Statistics substrate for control-plane traffic modeling.
//!
//! The paper relies on a statistical toolkit that is standard in
//! scipy/R but (per our design review) not mature in the Rust crate
//! ecosystem, so this crate implements it from scratch:
//!
//! * the four classic Internet-traffic distributions studied in §4 —
//!   exponential (Poisson process), [Pareto], [Weibull], and a
//!   Tcplib-style empirical scale family — plus the log-normal used by the
//!   ground-truth world simulator, each with maximum-likelihood fitting
//!   ([`fit`]);
//! * the **Kolmogorov–Smirnov** one-sample test with asymptotic p-values and
//!   the two-sample maximum-y-distance statistic used throughout §8 (`ks`);
//! * the **Anderson–Darling** test for exponentiality with Stephens'
//!   estimated-parameter critical values (`ad`);
//! * empirical CDFs with inverse-transform sampling — the paper's "CDF"
//!   sojourn-time models ([`ecdf`]);
//! * the **Erlang-C** closed form for M/M/c waiting, the yardstick the
//!   core-network simulator is checked against ([`erlang_c`]);
//! * **variance–time plots** for burstiness analysis (Fig. 3), Hurst
//!   self-similarity estimation by the aggregated-variance method
//!   ([`hurst_aggregated_variance`]), and box-plot summaries (Fig. 2) ([`variance_time`],
//!   [`summary`]).
//!
//! All samplers take an explicit [`rand::Rng`] so every downstream
//! experiment is reproducible from a seed.
//!
//! [Pareto]: dist::Pareto
//! [Weibull]: dist::Weibull

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ad;
mod detmath;
pub mod dist;
pub mod ecdf;
mod erlang;
pub mod fit;
mod hurst;
mod ks;
pub mod summary;
pub mod variance_time;

pub use ad::{ad_test_exponential, AdOutcome};
pub use dist::{Dist, Exponential, LogNormal, Pareto, Tcplib, Weibull};
pub use ecdf::Ecdf;
pub use erlang::{erlang_c, ErlangC};
pub use hurst::{hurst_aggregated_variance, HurstEstimate};
pub use ks::{
    ks_test, two_sample_critical_distance, two_sample_distance, two_sample_test, KsOutcome,
};
pub use summary::BoxStats;
pub use variance_time::{variance_time_plot, VarianceTimePoint};
