//! Adaptive quadtree clustering of UEs (§5.3 of the paper).
//!
//! Control-plane traffic is highly diverse and skewed across UEs, so a
//! single model per (hour, device-type) fails, while one model per UE has
//! too little data. The paper's answer is an *adaptive clustering scheme*:
//! recursively partition the UE feature space until every cluster either
//! (a) contains UEs whose features all lie within a similarity threshold
//! `θ_f` of each other, or (b) is smaller than a size threshold `θ_n`.
//! Each recursion step cuts the current feature box into equal-sized
//! sub-boxes — a quadtree when two dimensions are cut at a time, which is
//! the paper's configuration (two features per dominant event type).
//!
//! This crate is purely geometric: callers supply one feature vector per UE
//! (the paper's four: the hour's `SRV_REQ` and `S1_CONN_REL` counts and the
//! standard deviations of the CONNECTED and IDLE sojourns, extracted from
//! traces in `cn-fit`), and receive a [`Clustering`] assigning every UE to
//! exactly one cluster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod quadtree;

pub use quadtree::{cluster, ClusterId, ClusterInfo, Clustering, ClusteringParams};
