//! Multi-NF discrete-event core-network simulator.
//!
//! A real EPC is five network functions with their own pools, their own
//! service-time laws, and procedures that *chain* across them: an attach
//! authenticates at the HSS before it can create a session at the
//! SGW/PGW, and pulls policy from the PCRF before the MME can accept.
//! This module is the event-calendar discrete-event simulator (DES) the
//! paper's §3.1 use case calls for, in the spirit of the simmer
//! 5G-scenario DES and the Dababneh et al. per-NF transaction model.
//! Pools, laws and chains are configuration, so "the whole core as one
//! FIFO box" is just another [`DesConfig`] ([`DesConfig::single_pool`]):
//!
//! * each [`NetworkFunction`] is a pool of `c` identical servers fed by
//!   one FIFO queue, with per-transaction service times drawn from a
//!   [`Dist`] of the `cn-stats` zoo (log-normal by default, any family
//!   by configuration) — not fixed constants;
//! * each admitted procedure fans out into a **dependency chain** of
//!   per-NF stages derived from the [`TransactionMatrix`]
//!   ([`dependency_chain`]): attach runs MME → HSS auth → MME → SGW/PGW
//!   session → PCRF policy → MME accept, and stage *k+1* cannot start
//!   before stage *k* completes;
//! * per-NF **autoscaling** ([`AutoscalePolicy`]) runs inside the loop:
//!   a periodic control tick compares queue depth against a
//!   per-server watermark and brings servers online after a
//!   provisioning delay — the *scaling lag* (breach-to-online time) is
//!   measured and reported, because it is exactly the number a capacity
//!   planner wants from a storm experiment;
//! * the [`AdmissionPolicy`] token bucket (NAS congestion control)
//!   guards the front door: shed procedures never enter the
//!   calendar, and shed counts are reported per [`Priority`] class.
//!
//! ## Determinism
//!
//! Every service time is a pure function of `(config.seed, ue, arrival
//! time, event type)`: each job derives its own random stream and draws
//! all of its stage services at admission. Two consequences: reruns at a
//! fixed seed are bit-identical (the closed-loop gate `mcn_check` pins
//! this), and injecting extra records into a trace never changes the
//! service times of the records already there — the property the
//! monotone-degradation suite leans on, mirroring `cn-scenario`'s
//! prefix-multiset injection discipline.
//!
//! ## Memory
//!
//! Job slots, their pre-drawn services (one flat arena), the calendar
//! and the queues grow with the jobs *in flight*, not with the records
//! offered. Latencies are counted in exact tallies rather than stored and
//! sorted, so the report's percentiles cost a table of at most 4 MiB per
//! NF plus one entry per latency above 1.05 s (DESIGN.md §11).
//!
//! ## Feeding the simulator
//!
//! [`DesSim`] is push-based: [`DesSim::offer`] takes one record (input
//! must be sorted by time; out-of-order input is a typed
//! [`DesError::UnsortedInput`], never a silently wrong backlog), and
//! [`DesSim::finish`] drains the calendar and builds the [`DesReport`].
//! Any source plumbs in — a batch [`Trace`] ([`DesSim::run_trace`]), a
//! `ScenarioStream`, or a live TCP connection decoded by `cn-live`.
//! `offer` admits its record at once, on the calling thread: an admitted
//! record's services are drawn straight into its job slot
//! ([`Dist::sample_portable`], no libm), a shed one draws nothing, and
//! the `cn_mcn_des_*` metrics ([`DesSim::observed`]) count every record
//! offered by the time `offer` returns.

use crate::nf::{NetworkFunction, TransactionMatrix};
use crate::overload::{priority_of, AdmissionPolicy, Priority, TokenBucket};
use crate::tally::LatencyTally;
use cn_obs::{Counter, Gauge, Histogram, Registry};
use cn_stats::{Dist, LogNormal};
use cn_trace::{EventType, Trace, TraceRecord};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Per-NF pool configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NfConfig {
    /// Which network function this pool is.
    pub nf: NetworkFunction,
    /// Initial (and, without autoscaling, fixed) server count.
    pub servers: usize,
    /// Per-transaction service-time distribution. Samples are
    /// interpreted as **microseconds** and rounded to the calendar grid.
    /// `DesConfig::validate` rejects a law that can only have been
    /// built around its constructors (a negative empirical sample, a NaN
    /// or negative mean) with [`DesError::BadService`].
    pub service: Dist,
    /// Optional autoscaling policy; `None` pins the pool size.
    pub autoscale: Option<AutoscalePolicy>,
}

/// Queue-depth-driven horizontal autoscaling for one NF pool.
///
/// A control tick fires every `eval_every_ms`. When the queue holds more
/// than `high_depth_per_server` jobs per online-or-provisioning server,
/// one server is ordered; it comes online `provision_ms` later. When the
/// queue drops below `low_depth_per_server` per server and a server is
/// idle, one is retired immediately (draining costs nothing in-model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalePolicy {
    /// Lower bound on pool size (also the floor for scale-down).
    pub(crate) min_servers: usize,
    /// Upper bound on pool size.
    pub(crate) max_servers: usize,
    /// Scale up when `queue_depth > high_depth_per_server × servers`.
    pub(crate) high_depth_per_server: f64,
    /// Scale down when `queue_depth < low_depth_per_server × servers`.
    pub(crate) low_depth_per_server: f64,
    /// Control-loop period, ms.
    pub(crate) eval_every_ms: u64,
    /// Delay between ordering a server and it taking work, ms.
    pub(crate) provision_ms: u64,
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesConfig {
    /// Seed for the per-job service-time streams.
    pub seed: u64,
    /// One pool per NF. Every NF the `matrix` references (non-zero
    /// transaction count for any event) must be present exactly once.
    pub nfs: Vec<NfConfig>,
    /// Per-event transaction fan-out across NFs.
    pub matrix: TransactionMatrix,
    /// Optional NAS-style admission control at the front door.
    pub admission: Option<AdmissionPolicy>,
}

/// A rejected [`DesConfig`] or input stream, with the reason typed.
#[derive(Debug, Clone, PartialEq)]
pub enum DesError {
    /// An NF appears more than once in `nfs`.
    DuplicateNf(NetworkFunction),
    /// The matrix routes transactions to an NF with no configured pool.
    MissingNf(NetworkFunction),
    /// A pool has zero servers.
    ZeroServers(NetworkFunction),
    /// An autoscaling policy is inconsistent (bounds, watermarks, or a
    /// zero evaluation period).
    BadAutoscale {
        /// The offending NF.
        nf: NetworkFunction,
        /// Human-readable reason.
        reason: String,
    },
    /// A service law carries a negative empirical sample, or its mean
    /// is NaN or negative.
    BadService {
        /// The offending NF.
        nf: NetworkFunction,
        /// Human-readable reason.
        reason: String,
    },
    /// The admission policy carries a non-finite or non-positive field.
    BadAdmission {
        /// Offending field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// [`DesSim::offer`] saw an arrival earlier than its predecessor.
    UnsortedInput {
        /// Timestamp of the previous arrival, ms.
        prev_ms: u64,
        /// Timestamp of the offending arrival, ms.
        got_ms: u64,
    },
}

impl std::fmt::Display for DesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesError::DuplicateNf(nf) => write!(f, "duplicate pool for {nf}"),
            DesError::MissingNf(nf) => {
                write!(
                    f,
                    "matrix routes transactions to {nf} but no pool is configured"
                )
            }
            DesError::ZeroServers(nf) => write!(f, "{nf} pool has zero servers"),
            DesError::BadAutoscale { nf, reason } => {
                write!(f, "{nf} autoscale policy invalid: {reason}")
            }
            DesError::BadService { nf, reason } => {
                write!(f, "{nf} service law invalid: {reason}")
            }
            DesError::BadAdmission { field, value } => {
                write!(f, "admission policy field {field} invalid: {value}")
            }
            DesError::UnsortedInput { prev_ms, got_ms } => write!(
                f,
                "unsorted input: arrival at {got_ms} ms after one at {prev_ms} ms"
            ),
        }
    }
}

impl std::error::Error for DesError {}

impl DesConfig {
    /// A plausible EPC shape: MME-heavy pools, Diameter (HSS/PCRF)
    /// slower than GTP-C (SGW/PGW), log-normal service laws with medians
    /// of 250–450 µs per transaction, and an autoscaling MME. No
    /// admission control — add one with [`DesConfig::with_admission`].
    pub fn default_epc(seed: u64) -> DesConfig {
        let lognormal = |median_us: f64, sigma: f64| {
            Dist::LogNormal(LogNormal::from_median(median_us, sigma).expect("valid law"))
        };
        let pool = |nf, servers, service| NfConfig {
            nf,
            servers,
            service,
            autoscale: None,
        };
        DesConfig {
            seed,
            nfs: vec![
                NfConfig {
                    nf: NetworkFunction::Mme,
                    servers: 4,
                    service: lognormal(350.0, 0.4),
                    autoscale: Some(AutoscalePolicy {
                        min_servers: 4,
                        max_servers: 16,
                        high_depth_per_server: 8.0,
                        low_depth_per_server: 2.0,
                        eval_every_ms: 1_000,
                        provision_ms: 5_000,
                    }),
                },
                pool(NetworkFunction::Hss, 2, lognormal(450.0, 0.4)),
                pool(NetworkFunction::Pcrf, 2, lognormal(400.0, 0.4)),
                pool(NetworkFunction::Sgw, 2, lognormal(250.0, 0.35)),
                pool(NetworkFunction::Pgw, 2, lognormal(250.0, 0.35)),
            ],
            matrix: TransactionMatrix::default_epc(),
            admission: None,
        }
    }

    /// The whole core as one FIFO box: a single MME pool of `servers`
    /// fixed servers, every event exactly one transaction drawn from
    /// `service`, no autoscaling, no admission, seed 0. With a
    /// [`deterministic_service`] law this is the textbook c-server FIFO
    /// queue; with an exponential one under Poisson arrivals, M/M/c.
    pub fn single_pool(servers: usize, service: Dist) -> DesConfig {
        DesConfig {
            seed: 0,
            nfs: vec![NfConfig {
                nf: NetworkFunction::Mme,
                servers,
                service,
                autoscale: None,
            }],
            matrix: TransactionMatrix {
                transactions: [[1, 0, 0, 0, 0]; 6],
            },
            admission: None,
        }
    }

    /// Same configuration with an admission policy at the front door.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> DesConfig {
        self.admission = Some(policy);
        self
    }

    /// Typed validation: pool uniqueness and coverage of the matrix,
    /// non-empty pools, service laws that cannot yield a negative or NaN
    /// time, consistent autoscale bounds/watermarks, and a finite
    /// positive admission policy.
    pub(crate) fn validate(&self) -> Result<(), DesError> {
        let mut seen = [false; 5];
        for nf_cfg in &self.nfs {
            let idx = nf_index(nf_cfg.nf);
            if seen[idx] {
                return Err(DesError::DuplicateNf(nf_cfg.nf));
            }
            seen[idx] = true;
            if nf_cfg.servers == 0 {
                return Err(DesError::ZeroServers(nf_cfg.nf));
            }
            // `Dist` deserialises around its constructors, and the
            // calendar's `as u64` would turn a negative or NaN draw into
            // a free transaction. An infinite mean (a heavy tail) is a
            // legal law: its draws saturate at the end of time.
            let bad_service = |reason: String| DesError::BadService {
                nf: nf_cfg.nf,
                reason,
            };
            if let Dist::Empirical(ecdf) = &nf_cfg.service {
                if let Some(sample) = ecdf.values().find(|&x| x < 0.0) {
                    return Err(bad_service(format!(
                        "empirical sample {sample} is negative"
                    )));
                }
            }
            let mean = nf_cfg.service.mean();
            if mean.is_nan() || mean < 0.0 {
                return Err(bad_service(format!("mean {mean} µs is NaN or negative")));
            }
            if let Some(p) = &nf_cfg.autoscale {
                let bad = |reason: &str| DesError::BadAutoscale {
                    nf: nf_cfg.nf,
                    reason: reason.into(),
                };
                if p.min_servers == 0 {
                    return Err(bad("min_servers is zero"));
                }
                if p.min_servers > p.max_servers {
                    return Err(bad("min_servers > max_servers"));
                }
                if !(nf_cfg.servers >= p.min_servers && nf_cfg.servers <= p.max_servers) {
                    return Err(bad("initial servers outside [min, max]"));
                }
                if !p.high_depth_per_server.is_finite() || p.high_depth_per_server <= 0.0 {
                    return Err(bad("high_depth_per_server not finite positive"));
                }
                if !p.low_depth_per_server.is_finite() || p.low_depth_per_server < 0.0 {
                    return Err(bad("low_depth_per_server not finite non-negative"));
                }
                if p.low_depth_per_server >= p.high_depth_per_server {
                    return Err(bad("low watermark not below high watermark"));
                }
                if p.eval_every_ms == 0 {
                    return Err(bad("eval_every_ms is zero"));
                }
            }
        }
        for event in EventType::ALL {
            let row = &self.matrix.transactions[event.code() as usize];
            for (idx, &tx) in row.iter().enumerate() {
                if tx > 0 && !seen[idx] {
                    return Err(DesError::MissingNf(NetworkFunction::ALL[idx]));
                }
            }
        }
        if let Some(p) = &self.admission {
            let check = |field: &'static str, value: f64, min: f64| {
                if !value.is_finite() || value < min {
                    Err(DesError::BadAdmission { field, value })
                } else {
                    Ok(())
                }
            };
            check("rate_per_sec", p.rate_per_sec, 0.0)?;
            check("burst", p.burst, 1.0)?;
            check("high_reserve", p.high_reserve, 0.0)?;
            check("critical_reserve", p.critical_reserve, 0.0)?;
        }
        Ok(())
    }
}

fn nf_index(nf: NetworkFunction) -> usize {
    NetworkFunction::ALL
        .iter()
        .position(|&n| n == nf)
        .expect("known NF")
}

/// Canonical NF visit order per procedure, following the TS 23.401
/// call flows (the same ordering [`crate::messages`] encodes at message
/// granularity).
fn visit_order(event: EventType) -> &'static [NetworkFunction] {
    use NetworkFunction::*;
    match event {
        // NAS + auth at HSS, security back at MME, session SGW→PGW,
        // policy at PCRF, accept/complete at MME.
        EventType::Attach => &[Mme, Hss, Mme, Sgw, Pgw, Pcrf, Mme],
        // Detach: session teardown SGW→PGW→PCRF, accept at MME, purge at HSS.
        EventType::Detach => &[Mme, Sgw, Pgw, Pcrf, Mme, Hss],
        EventType::ServiceRequest => &[Mme, Sgw, Mme],
        EventType::S1ConnRelease => &[Mme, Sgw, Mme],
        EventType::Handover => &[Mme, Sgw, Mme],
        EventType::Tau => &[Mme],
    }
}

/// The ordered per-NF stage chain of one procedure: each element is
/// `(nf, transactions served in that visit)`, and stage *k+1* depends on
/// stage *k* completing. The per-NF totals equal the matrix row exactly:
/// an NF visited multiple times splits its count evenly with the
/// remainder on the first visit, an NF the canonical order skips (but
/// the matrix routes to) is appended as a trailing stage, and zero-count
/// visits vanish.
pub(crate) fn dependency_chain(
    event: EventType,
    matrix: &TransactionMatrix,
) -> Vec<(NetworkFunction, u32)> {
    let order = visit_order(event);
    let row = &matrix.transactions[event.code() as usize];
    let mut visits = [0u32; 5];
    for &nf in order {
        visits[nf_index(nf)] += 1;
    }
    let mut first_seen = [true; 5];
    let mut chain = Vec::with_capacity(order.len());
    for &nf in order {
        let i = nf_index(nf);
        if row[i] == 0 {
            continue;
        }
        let base = row[i] / visits[i];
        let tx = if first_seen[i] {
            first_seen[i] = false;
            base + row[i] % visits[i]
        } else {
            base
        };
        if tx > 0 {
            chain.push((nf, tx));
        }
    }
    for (i, &tx) in row.iter().enumerate() {
        if tx > 0 && visits[i] == 0 {
            chain.push((NetworkFunction::ALL[i], tx));
        }
    }
    chain
}

/// One calendar action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// A server at `nf` finishes the current stage of `job`.
    StageDone { job: u32 },
    /// A provisioned server at `nf` comes online.
    ServerOnline { nf: u8 },
    /// The autoscaling control loop of `nf` evaluates.
    ScaleTick { nf: u8 },
}

/// Calendar entries order by `(time, sequence)`, packed into one `u128`
/// key `t_us << 64 | seq` that compares exactly like the pair in one
/// word. The sequence number is assigned at push and never repeats,
/// making the drain order a deterministic function of the push order
/// (which is itself deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CalEntry {
    key: u128,
    action: Action,
}

impl CalEntry {
    fn new(t_us: u64, seq: u64, action: Action) -> CalEntry {
        CalEntry {
            key: (u128::from(t_us) << 64) | u128::from(seq),
            action,
        }
    }

    fn t_us(&self) -> u64 {
        (self.key >> 64) as u64
    }
}

impl Ord for CalEntry {
    fn cmp(&self, other: &CalEntry) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for CalEntry {
    fn partial_cmp(&self, other: &CalEntry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Everything a service draw reads: a job's trajectory, apart from the
/// engine that serves it.
struct ServicePlan {
    seed: u64,
    /// `chains[event_code]` = compiled dependency chain `(pool, tx)`.
    chains: [Vec<(usize, u32)>; 6],
    /// Service law of each pool, µs.
    laws: Vec<Dist>,
    /// Longest compiled chain, at least 1: the stride of the service arena.
    max_chain_len: usize,
}

impl ServicePlan {
    /// Draw the stage services of `rec`'s job into `out` from its own stream:
    /// a pure function of `(seed, ue, t, event)`, the crate's only service
    /// draw, with no libm call. Transactions add up saturating — an
    /// astronomically large draw parks the job at the end of time, it does
    /// not overflow.
    fn draw(&self, rec: &TraceRecord, out: &mut [u64]) {
        let code = rec.event.code();
        let mut rng = JobRng(job_seed(self.seed, rec.ue.0, rec.t.as_millis(), code));
        for (stage_us, &(pool, tx)) in out.iter_mut().zip(&self.chains[code as usize]) {
            let law = &self.laws[pool];
            *stage_us = (0..tx).fold(0u64, |total, _| {
                // Rounded half up with one IEEE addition; `as` saturates.
                total.saturating_add((law.sample_portable(&mut rng).max(0.0) + 0.5) as u64)
            });
        }
    }
}

/// One in-flight procedure. Its pre-drawn per-stage service times live in
/// the simulator's service arena, at `slot × max_chain_len + stage`.
#[derive(Debug, Clone, Copy)]
struct Job {
    arrival_us: u64,
    stage_enqueued_us: u64,
    stage: usize,
    event: EventType,
}

/// Telemetry handles (no-ops unless a registry is attached).
#[derive(Debug, Clone, Default)]
struct DesObs {
    latency_us: Histogram,
    offered: Counter,
    completed: Counter,
    admitted: [Counter; 3],
    shed: [Counter; 3],
    nf_depth: [Histogram; 5],
    nf_stage_latency_us: [Histogram; 5],
    nf_transactions: [Counter; 5],
    nf_servers: [Gauge; 5],
    nf_scale_up: [Counter; 5],
    nf_scale_down: [Counter; 5],
    nf_scaling_lag_ms: [Histogram; 5],
}

impl DesObs {
    fn register(registry: &Registry) -> DesObs {
        let by_priority = |name: &str| {
            Priority::ALL.map(|p| registry.counter_with(name, &[("priority", p.label())]))
        };
        let nf_hist = |name: &str| {
            NetworkFunction::ALL.map(|nf| registry.histogram_with(name, &[("nf", nf.name())]))
        };
        let nf_counter = |name: &str, extra: Option<(&str, &str)>| {
            NetworkFunction::ALL.map(|nf| {
                let nf_label = ("nf", nf.name());
                match extra {
                    Some(kv) => registry.counter_with(name, &[nf_label, kv]),
                    None => registry.counter_with(name, &[nf_label]),
                }
            })
        };
        DesObs {
            latency_us: registry.histogram("cn_mcn_des_latency_us"),
            offered: registry.counter("cn_mcn_des_offered_total"),
            completed: registry.counter("cn_mcn_des_completed_total"),
            admitted: by_priority("cn_mcn_des_admitted_total"),
            shed: by_priority("cn_mcn_des_shed_total"),
            nf_depth: nf_hist("cn_mcn_des_nf_depth"),
            nf_stage_latency_us: nf_hist("cn_mcn_des_nf_stage_latency_us"),
            nf_transactions: nf_counter("cn_mcn_des_nf_transactions_total", None),
            nf_servers: NetworkFunction::ALL
                .map(|nf| registry.gauge_with("cn_mcn_des_nf_servers", &[("nf", nf.name())])),
            nf_scale_up: nf_counter("cn_mcn_des_scale_events_total", Some(("direction", "up"))),
            nf_scale_down: nf_counter("cn_mcn_des_scale_events_total", Some(("direction", "down"))),
            nf_scaling_lag_ms: nf_hist("cn_mcn_des_scaling_lag_ms"),
        }
    }
}

/// Live state of one NF pool.
#[derive(Debug)]
struct NfState {
    cfg: NfConfig,
    /// Position of `cfg.nf` in [`NetworkFunction::ALL`] (telemetry slot).
    nf_idx: usize,
    servers: usize,
    /// Servers ordered but not yet online.
    provisioning: usize,
    busy: usize,
    queue: VecDeque<u32>,
    /// Accumulated busy server-time, µs.
    busy_us: u64,
    /// Accumulated capacity integral ∫ servers dt, µs, up to
    /// `cap_since_us`.
    cap_us: u64,
    cap_since_us: u64,
    peak_depth: usize,
    stages: u64,
    transactions: u64,
    stage_latencies_us: LatencyTally,
    /// Start of the current continuous high-watermark breach.
    breach_since_us: Option<u64>,
    scale_ups: u64,
    scale_downs: u64,
    scaling_lags_ms: Vec<u64>,
}

impl NfState {
    fn new(cfg: NfConfig) -> NfState {
        let servers = cfg.servers;
        NfState {
            nf_idx: nf_index(cfg.nf),
            cfg,
            servers,
            provisioning: 0,
            busy: 0,
            queue: VecDeque::new(),
            busy_us: 0,
            cap_us: 0,
            cap_since_us: 0,
            peak_depth: 0,
            stages: 0,
            transactions: 0,
            stage_latencies_us: LatencyTally::new(),
            breach_since_us: None,
            scale_ups: 0,
            scale_downs: 0,
            scaling_lags_ms: Vec::new(),
        }
    }

    /// Close the capacity integral up to `now` (call before any change
    /// to `servers`).
    fn settle_capacity(&mut self, now_us: u64) {
        let dt = now_us.saturating_sub(self.cap_since_us);
        self.cap_us = self
            .cap_us
            .saturating_add(dt.saturating_mul(self.servers as u64));
        self.cap_since_us = now_us;
    }

    /// Re-evaluate the breach clock against the high watermark.
    ///
    /// The clock runs against *online* servers only: a breach means the
    /// pool's real capacity is underwater right now, and it stays armed
    /// through the provisioning window so breach-to-online lag measures
    /// the full detection + provision delay. (The scale-up *decision* in
    /// `scale_tick` is what counts in-flight servers, to avoid
    /// double-provisioning.)
    fn update_breach(&mut self, now_us: u64) {
        let Some(policy) = &self.cfg.autoscale else {
            return;
        };
        if self.queue.len() as f64 > policy.high_depth_per_server * self.servers as f64 {
            self.breach_since_us.get_or_insert(now_us);
        } else {
            self.breach_since_us = None;
        }
    }
}

/// What one simulated NF did, for [`DesReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NfDesReport {
    /// The network function.
    pub nf: NetworkFunction,
    /// Transactions served (matrix units).
    pub(crate) transactions: u64,
    /// Stages (dependency-chain visits) served.
    pub stages: u64,
    /// Busy server-time over the capacity integral ∫ servers dt;
    /// autoscaling-aware, clamped to ≤ 1.0.
    pub utilization: f64,
    /// Largest queue depth observed at an enqueue instant.
    pub peak_depth: usize,
    /// Median stage sojourn (wait + service), ms.
    pub(crate) p50_stage_latency_ms: f64,
    /// 99th-percentile stage sojourn, ms.
    pub(crate) p99_stage_latency_ms: f64,
    /// Pool size at the end of the run.
    pub(crate) final_servers: usize,
    /// Scale-up events (servers that came online).
    pub scale_ups: u64,
    /// Scale-down events.
    pub(crate) scale_downs: u64,
    /// Worst breach-to-online scaling lag, ms (0 when never scaled).
    pub max_scaling_lag_ms: u64,
    /// Mean scaling lag, ms.
    pub(crate) mean_scaling_lag_ms: f64,
}

/// The closed-loop numbers of one DES run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesReport {
    /// Records offered (admitted + shed).
    pub offered: u64,
    /// Admitted per priority class (Critical, High, Low).
    pub(crate) admitted: [u64; 3],
    /// Shed per priority class.
    pub shed: [u64; 3],
    /// Procedures that ran their full dependency chain.
    pub completed: u64,
    /// Shed fraction of all offered records.
    pub shed_rate: f64,
    /// Mean end-to-end procedure latency, ms.
    pub mean_latency_ms: f64,
    /// Median end-to-end latency, ms.
    pub p50_latency_ms: f64,
    /// 99th-percentile end-to-end latency, ms.
    pub p99_latency_ms: f64,
    /// Maximum end-to-end latency, ms.
    pub max_latency_ms: f64,
    /// Per-NF breakdown, in [`NetworkFunction::ALL`] order restricted to
    /// configured pools.
    pub per_nf: Vec<NfDesReport>,
}

impl DesReport {
    /// Total admitted procedures.
    #[cfg(test)]
    fn total_admitted(&self) -> u64 {
        self.admitted.iter().sum()
    }

    /// Total shed procedures.
    pub fn total_shed(&self) -> u64 {
        self.shed.iter().sum()
    }
}

/// The simulator. See the module docs for the model.
pub struct DesSim {
    plan: ServicePlan,
    nfs: Vec<NfState>,
    calendar: BinaryHeap<Reverse<CalEntry>>,
    seq: u64,
    /// Job slots, recycled through `free_jobs`: the vector grows with the
    /// in-flight high-water mark, never with the records offered.
    jobs: Vec<Job>,
    /// Pre-drawn stage service times, µs, drawn in at admission: stage
    /// `k` of slot `j` at `j × max_chain_len + k`.
    services_us: Vec<u64>,
    free_jobs: Vec<u32>,
    last_arrival_ms: Option<u64>,
    t0_us: Option<u64>,
    end_us: u64,
    /// The front-door admission state; `None` admits everything.
    bucket: Option<TokenBucket>,
    offered: u64,
    admitted: [u64; 3],
    shed: [u64; 3],
    outstanding: u64,
    completed: u64,
    latencies_us: LatencyTally,
    input_done: bool,
    obs: DesObs,
}

impl DesSim {
    /// Validate `config` and build the simulator.
    pub fn new(config: DesConfig) -> Result<DesSim, DesError> {
        config.validate()?;
        let mut pool_of = [usize::MAX; 5];
        for (i, nf_cfg) in config.nfs.iter().enumerate() {
            pool_of[nf_index(nf_cfg.nf)] = i;
        }
        let chains = EventType::ALL.map(|event| {
            dependency_chain(event, &config.matrix)
                .into_iter()
                .map(|(nf, tx)| (pool_of[nf_index(nf)], tx))
                .collect::<Vec<_>>()
        });
        let max_chain_len = chains.iter().map(Vec::len).max().unwrap_or(0).max(1);
        let bucket = config.admission.map(TokenBucket::new);
        Ok(DesSim {
            plan: ServicePlan {
                seed: config.seed,
                chains,
                laws: config.nfs.iter().map(|nf| nf.service.clone()).collect(),
                max_chain_len,
            },
            nfs: config.nfs.into_iter().map(NfState::new).collect(),
            calendar: BinaryHeap::new(),
            seq: 0,
            jobs: Vec::new(),
            services_us: Vec::new(),
            free_jobs: Vec::new(),
            last_arrival_ms: None,
            t0_us: None,
            end_us: 0,
            bucket,
            offered: 0,
            admitted: [0; 3],
            shed: [0; 3],
            outstanding: 0,
            completed: 0,
            latencies_us: LatencyTally::new(),
            input_done: false,
            obs: DesObs::default(),
        })
    }

    /// Record `cn_mcn_des_*` telemetry into `registry` for the rest of
    /// this run: the end-to-end latency histogram, per-NF depth /
    /// stage-latency / transaction series, admission counters by
    /// priority, scale-event counters by direction, per-NF server
    /// gauges, and scaling-lag histograms.
    pub(crate) fn observed(mut self, registry: &Registry) -> DesSim {
        self.obs = DesObs::register(registry);
        for state in &self.nfs {
            self.obs.nf_servers[state.nf_idx].set(state.servers as u64);
        }
        self
    }

    /// Convenience: run a whole sorted trace and finish.
    pub fn run_trace(
        config: DesConfig,
        trace: &Trace,
        registry: &Registry,
    ) -> Result<DesReport, DesError> {
        let _run = cn_obs::trace::global_span("cn_mcn_des_run");
        let mut sim = DesSim::new(config)?.observed(registry);
        for rec in trace.iter() {
            sim.offer(rec)?;
        }
        Ok(sim.finish())
    }

    fn push(&mut self, t_us: u64, action: Action) {
        self.calendar
            .push(Reverse(CalEntry::new(t_us, self.seq, action)));
        self.seq += 1;
    }

    /// Offer one record at its trace timestamp and admit it. Input must be
    /// sorted by time (ties allowed); an earlier-than-predecessor arrival
    /// is a typed error from this call; the record is dropped.
    pub fn offer(&mut self, rec: &TraceRecord) -> Result<(), DesError> {
        let arrival_ms = rec.t.as_millis();
        if let Some(prev_ms) = self.last_arrival_ms {
            if arrival_ms < prev_ms {
                return Err(DesError::UnsortedInput {
                    prev_ms,
                    got_ms: arrival_ms,
                });
            }
        }
        self.last_arrival_ms = Some(arrival_ms);
        self.admit(rec);
        Ok(())
    }

    /// Advance the calendar to `rec`'s arrival, pass the front door, and
    /// draw an admitted record's stage services into its job slot.
    fn admit(&mut self, rec: &TraceRecord) {
        let arrival_us = rec.t.as_millis() * 1_000;
        if self.t0_us.is_none() {
            self.t0_us = Some(arrival_us);
            self.end_us = arrival_us;
            for state in &mut self.nfs {
                state.cap_since_us = arrival_us;
            }
            // Arm the autoscaling control loops.
            for i in 0..self.nfs.len() {
                if let Some(policy) = &self.nfs[i].cfg.autoscale {
                    let t = after_ms(arrival_us, policy.eval_every_ms);
                    self.push(t, Action::ScaleTick { nf: i as u8 });
                }
            }
        }
        self.advance_to(arrival_us);

        self.offered += 1;
        self.obs.offered.inc();
        let priority = priority_of(rec.event);
        if let Some(bucket) = &mut self.bucket {
            if !bucket.admit(arrival_us, priority) {
                self.shed[priority as usize] += 1;
                self.obs.shed[priority as usize].inc();
                return;
            }
        }
        self.admitted[priority as usize] += 1;
        self.obs.admitted[priority as usize].inc();

        let Some(&(first_pool, _)) = self.plan.chains[rec.event.code() as usize].first() else {
            // A matrix can route an event nowhere; it completes at once.
            self.completed += 1;
            self.obs.completed.inc();
            self.latencies_us.record(0);
            self.obs.latency_us.record(0);
            return;
        };
        let job = Job {
            arrival_us,
            stage_enqueued_us: arrival_us,
            stage: 0,
            event: rec.event,
        };
        let stride = self.plan.max_chain_len;
        let id = match self.free_jobs.pop() {
            Some(id) => {
                self.jobs[id as usize] = job;
                id
            }
            None => {
                self.jobs.push(job);
                self.services_us.resize(self.jobs.len() * stride, 0);
                (self.jobs.len() - 1) as u32
            }
        };
        let first = id as usize * stride;
        self.plan
            .draw(rec, &mut self.services_us[first..first + stride]);
        self.outstanding += 1;
        self.enqueue(first_pool, id, arrival_us);
        #[cfg(any(test, debug_assertions))]
        self.assert_laws();
    }

    /// Drain the calendar and report. Remaining control ticks stop
    /// rescheduling once no work is outstanding.
    pub fn finish(mut self) -> DesReport {
        let _finish = cn_obs::trace::global_span("cn_mcn_des_finish");
        self.input_done = true;
        self.advance_to(u64::MAX);
        debug_assert_eq!(self.outstanding, 0, "calendar drained with jobs in flight");
        let end_us = self.end_us;
        for state in &mut self.nfs {
            state.settle_capacity(end_us);
        }

        let per_nf = self
            .nfs
            .iter_mut()
            .map(|state| {
                let utilization = if state.cap_us == 0 {
                    0.0
                } else {
                    let ratio = state.busy_us as f64 / state.cap_us as f64;
                    debug_assert!(
                        ratio <= 1.0 + 1e-9,
                        "{}: utilization {ratio} > 1.0",
                        state.cfg.nf
                    );
                    ratio.min(1.0)
                };
                let stage_latency = state.stage_latencies_us.summary();
                let lag_n = state.scaling_lags_ms.len();
                NfDesReport {
                    nf: state.cfg.nf,
                    transactions: state.transactions,
                    stages: state.stages,
                    utilization,
                    peak_depth: state.peak_depth,
                    p50_stage_latency_ms: stage_latency.p50_ms,
                    p99_stage_latency_ms: stage_latency.p99_ms,
                    final_servers: state.servers,
                    scale_ups: state.scale_ups,
                    scale_downs: state.scale_downs,
                    max_scaling_lag_ms: state.scaling_lags_ms.iter().copied().max().unwrap_or(0),
                    mean_scaling_lag_ms: if lag_n == 0 {
                        0.0
                    } else {
                        state.scaling_lags_ms.iter().sum::<u64>() as f64 / lag_n as f64
                    },
                }
            })
            .collect();

        let latency = self.latencies_us.summary();
        let total_shed: u64 = self.shed.iter().sum();
        DesReport {
            offered: self.offered,
            admitted: self.admitted,
            shed: self.shed,
            completed: self.completed,
            shed_rate: if self.offered == 0 {
                0.0
            } else {
                total_shed as f64 / self.offered as f64
            },
            mean_latency_ms: latency.mean_ms,
            p50_latency_ms: latency.p50_ms,
            p99_latency_ms: latency.p99_ms,
            max_latency_ms: latency.max_ms,
            per_nf,
        }
    }

    /// Process every calendar entry at or before `to_us`.
    fn advance_to(&mut self, to_us: u64) {
        while let Some(&Reverse(entry)) = self.calendar.peek() {
            let t_us = entry.t_us();
            if t_us > to_us {
                break;
            }
            self.calendar.pop();
            self.end_us = self.end_us.max(t_us);
            match entry.action {
                Action::StageDone { job } => self.stage_done(job, t_us),
                Action::ServerOnline { nf } => self.server_online(nf as usize, t_us),
                Action::ScaleTick { nf } => self.scale_tick(nf as usize, t_us),
            }
            #[cfg(any(test, debug_assertions))]
            self.assert_laws();
        }
    }

    /// The two laws every admission and every calendar pop preserve
    /// (checked in debug builds and in this crate's unit tests under any
    /// profile):
    ///
    /// * **work conservation** — a pool with a job queued has every
    ///   online server busy, and never more busy servers than online
    ///   ones. The straight-to-calendar path in [`DesSim::enqueue`]
    ///   leans on this: a free server it finds can only be idle because
    ///   nothing waits.
    /// * **job conservation** — every offered record is completed, shed
    ///   or in flight.
    #[cfg(any(test, debug_assertions))]
    fn assert_laws(&self) {
        for state in &self.nfs {
            assert!(
                state.busy <= state.servers
                    && (state.queue.is_empty() || state.busy == state.servers),
                "{}: {} queued with {} of {} servers busy",
                state.cfg.nf,
                state.queue.len(),
                state.busy,
                state.servers
            );
        }
        let shed: u64 = self.shed.iter().sum();
        assert_eq!(
            self.offered,
            self.completed + shed + self.outstanding,
            "offered != completed + shed + in flight"
        );
    }

    /// Put `job` into service on a free server of `pool`.
    fn start_service(&mut self, pool: usize, job: u32, now_us: u64) {
        self.nfs[pool].busy += 1;
        let stage = self.jobs[job as usize].stage;
        let service_us = self.services_us[job as usize * self.plan.max_chain_len + stage];
        self.push(now_us.saturating_add(service_us), Action::StageDone { job });
    }

    fn enqueue(&mut self, pool: usize, job: u32, now_us: u64) {
        let state = &mut self.nfs[pool];
        self.obs.nf_depth[state.nf_idx].record(state.queue.len() as u64);
        if state.queue.is_empty() && state.busy < state.servers {
            // Nothing waits and a server is free: straight to the
            // calendar. The job still stood in the queue for an instant.
            state.peak_depth = state.peak_depth.max(1);
            self.start_service(pool, job, now_us);
        } else {
            state.queue.push_back(job);
            state.peak_depth = state.peak_depth.max(state.queue.len());
            self.dispatch(pool, now_us);
        }
        self.nfs[pool].update_breach(now_us);
    }

    /// Hand queued jobs to free servers, oldest first.
    fn dispatch(&mut self, pool: usize, now_us: u64) {
        loop {
            let state = &mut self.nfs[pool];
            if state.busy >= state.servers {
                break;
            }
            let Some(job) = state.queue.pop_front() else {
                break;
            };
            self.start_service(pool, job, now_us);
        }
    }

    fn stage_done(&mut self, job_id: u32, now_us: u64) {
        let job = self.jobs[job_id as usize];
        let chain = &self.plan.chains[job.event.code() as usize];
        let (pool, tx) = chain[job.stage];
        let next_pool = chain.get(job.stage + 1).map(|&(next, _)| next);
        let service_us = self.services_us[job_id as usize * self.plan.max_chain_len + job.stage];
        let stage_sojourn_us = now_us - job.stage_enqueued_us;

        let state = &mut self.nfs[pool];
        state.busy -= 1;
        state.busy_us = state.busy_us.saturating_add(service_us);
        state.stages += 1;
        state.transactions += u64::from(tx);
        state.stage_latencies_us.record(stage_sojourn_us);
        self.obs.nf_stage_latency_us[state.nf_idx].record(stage_sojourn_us);
        self.obs.nf_transactions[state.nf_idx].add(u64::from(tx));

        if let Some(next_pool) = next_pool {
            let job = &mut self.jobs[job_id as usize];
            job.stage += 1;
            job.stage_enqueued_us = now_us;
            self.enqueue(next_pool, job_id, now_us);
        } else {
            let latency_us = now_us - job.arrival_us;
            self.latencies_us.record(latency_us);
            self.obs.latency_us.record(latency_us);
            self.completed += 1;
            self.obs.completed.inc();
            self.outstanding -= 1;
            self.free_jobs.push(job_id);
        }
        self.dispatch(pool, now_us);
        self.nfs[pool].update_breach(now_us);
    }

    fn server_online(&mut self, pool: usize, now_us: u64) {
        let state = &mut self.nfs[pool];
        state.settle_capacity(now_us);
        state.servers += 1;
        state.provisioning -= 1;
        state.scale_ups += 1;
        let nf_idx = state.nf_idx;
        // A lag sample only makes sense against an active breach; if the
        // queue drained itself before the server arrived, there is no
        // breach-to-online delay to report.
        if let Some(since) = state.breach_since_us {
            let lag_ms = (now_us - since) / 1_000;
            state.scaling_lags_ms.push(lag_ms);
            self.obs.nf_scaling_lag_ms[nf_idx].record(lag_ms);
        }
        self.obs.nf_scale_up[nf_idx].inc();
        self.obs.nf_servers[nf_idx].set(state.servers as u64);
        self.dispatch(pool, now_us);
        self.nfs[pool].update_breach(now_us);
    }

    fn scale_tick(&mut self, pool: usize, now_us: u64) {
        let state = &mut self.nfs[pool];
        let Some(policy) = state.cfg.autoscale else {
            return;
        };
        let nf_idx = state.nf_idx;
        let effective = state.servers + state.provisioning;
        let depth = state.queue.len() as f64;
        if depth > policy.high_depth_per_server * effective as f64 && effective < policy.max_servers
        {
            state.provisioning += 1;
            self.push(
                after_ms(now_us, policy.provision_ms),
                Action::ServerOnline { nf: pool as u8 },
            );
        } else if depth < policy.low_depth_per_server * state.servers as f64
            && state.servers > policy.min_servers
            && state.busy < state.servers
            && state.provisioning == 0
        {
            state.settle_capacity(now_us);
            state.servers -= 1;
            state.scale_downs += 1;
            self.obs.nf_scale_down[nf_idx].inc();
            self.obs.nf_servers[nf_idx].set(state.servers as u64);
        }
        // Keep the control loop alive only while work can still arrive.
        if !self.input_done || self.outstanding > 0 {
            self.push(
                after_ms(now_us, policy.eval_every_ms),
                Action::ScaleTick { nf: pool as u8 },
            );
        }
    }
}

/// `now_us` plus a configured millisecond delay, pinned at the end of
/// time instead of overflowing.
fn after_ms(now_us: u64, delay_ms: u64) -> u64 {
    now_us.saturating_add(delay_ms.saturating_mul(1_000))
}

/// SplitMix64-style seed mix: a distinct, well-scrambled stream state per
/// `(run seed, ue, arrival ms, event)` tuple.
fn job_seed(seed: u64, ue: u32, t_ms: u64, code: u8) -> u64 {
    let mut x = seed
        ^ u64::from(ue).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ t_ms.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (u64::from(code) << 56);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A job's own stream: SplitMix64 from its [`job_seed`], nothing to expand.
struct JobRng(u64);

impl RngCore for JobRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// A deterministic single-point service law (every draw returns
/// `value_us`): with [`DesConfig::single_pool`], the c-server FIFO queue
/// the analytic sanity suite checks against its closed recursion.
pub fn deterministic_service(value_us: f64) -> Dist {
    Dist::Empirical(cn_stats::Ecdf::new(vec![value_us]).expect("finite single sample"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{DeviceType, Timestamp, UeId};
    use proptest::prelude::*;

    fn rec(t_ms: u64, ue: u32, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t_ms), UeId(ue), DeviceType::Phone, e)
    }

    /// A single-MME world: every event is one deterministic transaction.
    fn single_nf_config(servers: usize, service_us: f64) -> DesConfig {
        DesConfig::single_pool(servers, deterministic_service(service_us))
    }

    #[test]
    fn default_config_validates() {
        DesConfig::default_epc(1).validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = DesConfig::default_epc(1);
        cfg.nfs[1].servers = 0;
        assert_eq!(
            cfg.validate(),
            Err(DesError::ZeroServers(NetworkFunction::Hss))
        );

        let mut cfg = DesConfig::default_epc(1);
        cfg.nfs.push(cfg.nfs[0].clone());
        assert_eq!(
            cfg.validate(),
            Err(DesError::DuplicateNf(NetworkFunction::Mme))
        );

        let mut cfg = DesConfig::default_epc(1);
        cfg.nfs.retain(|n| n.nf != NetworkFunction::Pcrf);
        assert_eq!(
            cfg.validate(),
            Err(DesError::MissingNf(NetworkFunction::Pcrf))
        );

        let mut cfg = DesConfig::default_epc(1);
        cfg.nfs[0].autoscale = Some(AutoscalePolicy {
            min_servers: 4,
            max_servers: 2,
            high_depth_per_server: 8.0,
            low_depth_per_server: 2.0,
            eval_every_ms: 1_000,
            provision_ms: 0,
        });
        assert!(matches!(
            cfg.validate(),
            Err(DesError::BadAutoscale {
                nf: NetworkFunction::Mme,
                ..
            })
        ));

        let cfg = DesConfig::default_epc(1).with_admission(AdmissionPolicy {
            rate_per_sec: f64::NAN,
            burst: 10.0,
            high_reserve: 0.3,
            critical_reserve: 0.1,
        });
        assert!(matches!(
            cfg.validate(),
            Err(DesError::BadAdmission {
                field: "rate_per_sec",
                ..
            })
        ));
    }

    /// A config file reaches `Dist` around its constructors. A negative
    /// or NaN service time must be a typed rejection, not a free
    /// transaction after `as u64`; an infinite mean is a legal heavy tail.
    #[test]
    fn hostile_service_laws_are_rejected_with_typed_errors() {
        let json = serde_json::to_string(&DesConfig::default_epc(1)).unwrap();
        let parsed = |json: &str| serde_json::from_str::<DesConfig>(json).unwrap();
        assert_eq!(parsed(&json).validate(), Ok(()));

        // The HSS law re-written by hand, as a config author would.
        let hss = serde_json::to_string(&DesConfig::default_epc(1).nfs[1].service).unwrap();
        let with_hss = |law: &str| {
            assert_eq!(json.matches(&hss).count(), 1);
            parsed(&json.replace(&hss, law))
        };
        let rejected = |law: &str| match with_hss(law).validate() {
            Err(err @ DesError::BadService { nf, .. }) => {
                assert_eq!(nf, NetworkFunction::Hss);
                let message = err.to_string();
                assert_eq!(DesSim::new(with_hss(law)).err(), Some(err));
                message
            }
            other => panic!("{law}: expected BadService, got {other:?}"),
        };
        assert!(rejected(r#"{"Empirical":{"samples":[450.0,-400.0,5000.0]}}"#).contains("-400"));
        // An empty sample set does not even load.
        let empty = json.replace(&hss, r#"{"Empirical":{"samples":[]}}"#);
        assert!(serde_json::from_str::<DesConfig>(&empty).is_err());
        assert!(rejected(r#"{"Exponential":{"rate":-0.002}}"#).contains("HSS"));
        assert_eq!(
            with_hss(r#"{"Pareto":{"shape":0.5,"scale":100.0}}"#).validate(),
            Ok(())
        );
    }

    #[test]
    fn chains_preserve_matrix_totals() {
        for matrix in [
            TransactionMatrix::default_epc(),
            crate::messages::derived_matrix(),
        ] {
            for event in EventType::ALL {
                let chain = dependency_chain(event, &matrix);
                let mut totals = [0u32; 5];
                for (nf, tx) in &chain {
                    totals[nf_index(*nf)] += tx;
                    assert!(*tx > 0, "{event}: zero-transaction stage");
                }
                assert_eq!(
                    totals,
                    matrix.transactions[event.code() as usize],
                    "{event}: chain does not preserve the matrix row"
                );
            }
        }
    }

    #[test]
    fn attach_chain_orders_auth_before_session() {
        let chain = dependency_chain(EventType::Attach, &TransactionMatrix::default_epc());
        let pos = |nf| chain.iter().position(|&(n, _)| n == nf).unwrap();
        assert_eq!(chain[0].0, NetworkFunction::Mme, "attach starts at the MME");
        assert!(pos(NetworkFunction::Hss) < pos(NetworkFunction::Sgw));
        assert!(pos(NetworkFunction::Sgw) < pos(NetworkFunction::Pgw));
        assert!(pos(NetworkFunction::Pgw) < pos(NetworkFunction::Pcrf));
    }

    #[test]
    fn unloaded_single_nf_latency_is_pure_service() {
        let mut sim = DesSim::new(single_nf_config(1, 1_000.0)).unwrap();
        for i in 0..10 {
            sim.offer(&rec(i * 1_000, 0, EventType::Tau)).unwrap();
        }
        let report = sim.finish();
        assert_eq!(report.completed, 10);
        assert_eq!(report.total_admitted(), 10);
        assert!((report.mean_latency_ms - 1.0).abs() < 1e-9);
        assert_eq!(report.per_nf.len(), 1);
        assert_eq!(report.per_nf[0].transactions, 10);
        assert!(report.per_nf[0].utilization < 0.01);
        // Straight-to-calendar jobs still stood in the queue for an instant.
        assert_eq!(report.per_nf[0].peak_depth, 1);
    }

    #[test]
    fn chained_stages_run_sequentially() {
        // One attach through the default EPC with deterministic 1 ms
        // services everywhere: latency = total transactions × 1 ms.
        let mut cfg = DesConfig::default_epc(3);
        for nf in &mut cfg.nfs {
            nf.service = deterministic_service(1_000.0);
            nf.autoscale = None;
        }
        let mut sim = DesSim::new(cfg).unwrap();
        sim.offer(&rec(0, 0, EventType::Attach)).unwrap();
        let report = sim.finish();
        let total_tx: u32 = TransactionMatrix::default_epc().transactions
            [EventType::Attach.code() as usize]
            .iter()
            .sum();
        assert_eq!(report.completed, 1);
        assert!(
            (report.max_latency_ms - f64::from(total_tx)).abs() < 1e-9,
            "expected {total_tx} ms, got {}",
            report.max_latency_ms
        );
    }

    #[test]
    fn out_of_order_input_is_a_typed_error() {
        let mut sim = DesSim::new(single_nf_config(1, 100.0)).unwrap();
        sim.offer(&rec(5_000, 0, EventType::Tau)).unwrap();
        assert_eq!(
            sim.offer(&rec(4_000, 0, EventType::Tau)),
            Err(DesError::UnsortedInput {
                prev_ms: 5_000,
                got_ms: 4_000
            })
        );
        // Ties are fine.
        sim.offer(&rec(5_000, 1, EventType::Tau)).unwrap();
    }

    #[test]
    fn reruns_are_bit_identical() {
        let run = || {
            let mut sim = DesSim::new(DesConfig::default_epc(0xDE5)).unwrap();
            for i in 0..200u64 {
                let e = match i % 4 {
                    0 => EventType::Attach,
                    1 => EventType::ServiceRequest,
                    2 => EventType::Handover,
                    _ => EventType::S1ConnRelease,
                };
                sim.offer(&rec(i * 37, (i % 16) as u32, e)).unwrap();
            }
            sim.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.completed > 0);
    }

    #[test]
    fn storm_triggers_autoscaling_and_records_lag() {
        let mut cfg = single_nf_config(1, 20_000.0);
        cfg.nfs[0].autoscale = Some(AutoscalePolicy {
            min_servers: 1,
            max_servers: 8,
            high_depth_per_server: 4.0,
            low_depth_per_server: 1.0,
            eval_every_ms: 500,
            provision_ms: 2_000,
        });
        let mut sim = DesSim::new(cfg).unwrap();
        // 600 near-simultaneous TAUs at 20 ms service each: one server
        // would need 12 s; the breach is deep and sustained.
        for i in 0..600u64 {
            sim.offer(&rec(i, (i % 64) as u32, EventType::Tau)).unwrap();
        }
        let report = sim.finish();
        let mme = &report.per_nf[0];
        assert!(mme.scale_ups > 0, "storm never scaled up: {report:?}");
        assert!(mme.final_servers > 1);
        assert!(
            mme.max_scaling_lag_ms >= 2_000,
            "lag below the provisioning floor: {}",
            mme.max_scaling_lag_ms
        );
        assert!(mme.utilization <= 1.0);
        // The same storm without autoscaling is strictly slower.
        let mut fixed = DesSim::new(single_nf_config(1, 20_000.0)).unwrap();
        for i in 0..600u64 {
            fixed
                .offer(&rec(i, (i % 64) as u32, EventType::Tau))
                .unwrap();
        }
        let fixed = fixed.finish();
        assert!(fixed.p99_latency_ms > report.p99_latency_ms);
        assert_eq!(fixed.per_nf[0].scale_ups, 0);
    }

    #[test]
    fn idle_pools_scale_back_down() {
        let mut cfg = single_nf_config(2, 10_000.0);
        cfg.nfs[0].autoscale = Some(AutoscalePolicy {
            min_servers: 1,
            max_servers: 8,
            high_depth_per_server: 4.0,
            low_depth_per_server: 1.0,
            eval_every_ms: 500,
            provision_ms: 0,
        });
        let mut sim = DesSim::new(cfg).unwrap();
        // A trickle that never queues, spread over ten seconds.
        for i in 0..20u64 {
            sim.offer(&rec(i * 500, 0, EventType::Tau)).unwrap();
        }
        let report = sim.finish();
        assert!(report.per_nf[0].scale_downs > 0);
        assert_eq!(report.per_nf[0].final_servers, 1);
    }

    #[test]
    fn admission_sheds_exactly_like_the_overload_module() {
        use crate::overload::apply;
        let policy = AdmissionPolicy {
            rate_per_sec: 50.0,
            burst: 40.0,
            high_reserve: 0.3,
            critical_reserve: 0.1,
        };
        let records: Vec<TraceRecord> = (0..300u64)
            .map(|i| {
                let e = match i % 3 {
                    0 => EventType::Handover,
                    1 => EventType::ServiceRequest,
                    _ => EventType::Attach,
                };
                rec(i, 0, e)
            })
            .collect();
        let trace = Trace::from_records(records);
        let (shed_report, _) = apply(&trace, &policy);

        let registry = Registry::new();
        let config = single_nf_config(4, 100.0).with_admission(policy);
        let report = DesSim::run_trace(config, &trace, &registry).unwrap();
        assert_eq!(report.admitted, shed_report.admitted);
        assert_eq!(report.shed, shed_report.shed);
        assert_eq!(report.completed, shed_report.total_admitted());
        assert!(report.shed_rate > 0.0);

        // The same counts by priority class are what a scrape sees.
        let snap = registry.snapshot();
        for p in Priority::ALL {
            let counter =
                |name: &str| match snap.get(name, &[("priority", p.label())]).map(|m| &m.value) {
                    Some(cn_obs::MetricValue::Counter { value }) => *value,
                    other => panic!("{name}{{{}}}: {other:?}", p.label()),
                };
            assert_eq!(counter("cn_mcn_des_shed_total"), report.shed[p as usize]);
            assert_eq!(
                counter("cn_mcn_des_admitted_total"),
                report.admitted[p as usize]
            );
        }
    }

    /// The counters are exact after every `offer`, not only at `finish`.
    #[test]
    fn observed_run_fills_the_registry() {
        let registry = Registry::new();
        let mut sim = DesSim::new(DesConfig::default_epc(9))
            .unwrap()
            .observed(&registry);
        for i in 0..50u64 {
            sim.offer(&rec(i * 10, (i % 8) as u32, EventType::Attach))
                .unwrap();
            let snap = registry.snapshot();
            assert_eq!(snap.counter("cn_mcn_des_offered_total"), Some(i + 1));
            assert_eq!(snap.counter_total("cn_mcn_des_admitted_total"), Some(i + 1));
        }
        let report = sim.finish();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("cn_mcn_des_completed_total"),
            Some(report.completed)
        );
        assert_eq!(snap.counter("cn_mcn_des_offered_total"), Some(50));
        assert_eq!(
            snap.histogram("cn_mcn_des_latency_us").unwrap().count,
            report.completed
        );
        let mme_tx = snap
            .get("cn_mcn_des_nf_transactions_total", &[("nf", "MME")])
            .map(|m| &m.value);
        let mme = report
            .per_nf
            .iter()
            .find(|n| n.nf == NetworkFunction::Mme)
            .unwrap();
        match mme_tx {
            Some(cn_obs::MetricValue::Counter { value }) => assert_eq!(*value, mme.transactions),
            other => panic!("MME transactions counter missing: {other:?}"),
        }
        assert_eq!(
            snap.counter_total("cn_mcn_des_admitted_total"),
            Some(report.total_admitted())
        );
    }

    /// A service law may return an astronomically large time — any
    /// heavy-tailed Pareto, or a deterministic 10^30 µs. The stage sum,
    /// the calendar time and the busy/capacity integrals saturate at the
    /// end of time; none of them may overflow (the shipped release
    /// profile keeps overflow checks on, so an overflow is a panic).
    #[test]
    fn huge_service_draws_saturate_instead_of_panicking() {
        let heavy_tail = Dist::Pareto(cn_stats::Pareto::new(0.02, 100.0).expect("valid law"));
        for service in [deterministic_service(1e30), heavy_tail] {
            let mut cfg = single_nf_config(2, 0.0).with_admission(AdmissionPolicy {
                rate_per_sec: 1.0,
                burst: 20.0,
                high_reserve: 0.3,
                critical_reserve: 0.1,
            });
            cfg.nfs[0].service = service;
            // Two transactions per stage: the sum of two saturated draws.
            cfg.matrix.transactions = [[2, 0, 0, 0, 0]; 6];
            let mut sim = DesSim::new(cfg).unwrap();
            for i in 0..60u64 {
                sim.offer(&rec(i * 10, (i % 8) as u32, EventType::ALL[i as usize % 6]))
                    .unwrap();
            }
            let report = sim.finish();
            assert_eq!(report.offered, 60);
            assert!(report.total_shed() > 0 && report.completed > 0);
            assert_eq!(report.offered, report.completed + report.total_shed());
            for value in [
                report.mean_latency_ms,
                report.p50_latency_ms,
                report.p99_latency_ms,
                report.max_latency_ms,
                report.per_nf[0].utilization,
                report.per_nf[0].p99_stage_latency_ms,
            ] {
                assert!(value.is_finite(), "non-finite report field: {report:?}");
            }
            assert!(report.per_nf[0].utilization <= 1.0);
        }
    }

    /// Job slots and the service arena follow the in-flight high-water
    /// mark, and sub-second latencies never reach a growing collection.
    #[test]
    fn steady_state_holds_nothing_per_record() {
        let mut sim = DesSim::new(single_nf_config(2, 400.0)).unwrap();
        let stride = sim.plan.max_chain_len;
        for i in 0..5_000u64 {
            // Pairs of simultaneous arrivals, each pair long done before
            // the next: two jobs in flight at most.
            sim.offer(&rec(i / 2 * 10, (i % 16) as u32, EventType::Tau))
                .unwrap();
        }
        assert_eq!(sim.jobs.len(), 2);
        assert_eq!(sim.services_us.len(), 2 * stride);
        assert!(sim.calendar.len() <= 2 && sim.nfs[0].queue.is_empty());
        let report = sim.finish();
        assert_eq!(report.completed, 5_000);
        assert_eq!(report.max_latency_ms, 0.4);
    }

    /// A congested EPC with two autoscaling pools on short control
    /// loops, so random streams scale up, scale down and queue.
    fn elastic_epc(seed: u64, provision_ms: u64) -> DesConfig {
        let mut cfg = DesConfig::default_epc(seed);
        for nf in &mut cfg.nfs {
            nf.service = nf.service.scale_values(40.0);
        }
        for (pool, max_servers) in [(0, 6), (3, 4)] {
            let servers = cfg.nfs[pool].servers.min(2);
            cfg.nfs[pool].servers = servers;
            cfg.nfs[pool].autoscale = Some(AutoscalePolicy {
                min_servers: 1,
                max_servers,
                high_depth_per_server: 2.0,
                low_depth_per_server: 0.5,
                eval_every_ms: 50,
                provision_ms,
            });
        }
        cfg.with_admission(AdmissionPolicy {
            rate_per_sec: 30.0,
            burst: 20.0,
            high_reserve: 0.3,
            critical_reserve: 0.1,
        })
    }

    /// A bursty stream: each `(gap ms, ue, event index)` arrives `gap`
    /// after its predecessor.
    fn bursty(arrivals: &[(u64, u32, usize)]) -> Vec<TraceRecord> {
        let mut t_ms = 0;
        arrivals
            .iter()
            .map(|&(gap_ms, ue, e)| {
                t_ms += gap_ms;
                rec(t_ms, ue, EventType::ALL[e])
            })
            .collect()
    }

    proptest! {
        /// The simulator asserts work conservation (a queued job means
        /// every online server is busy) and job conservation (offered =
        /// completed + shed + in flight) after every admission and every
        /// calendar pop; this drives it over random bursty streams with
        /// autoscaling and admission on, then checks the books close.
        #[test]
        fn every_calendar_pop_conserves_work_and_jobs(
            arrivals in prop::collection::vec((0u64..40, 0u32..32, 0usize..6), 1..400),
            seed in 0u64..1_000,
            provision_ms in 0u64..400,
        ) {
            let mut sim = DesSim::new(elastic_epc(seed, provision_ms)).unwrap();
            for r in &bursty(&arrivals) {
                sim.offer(r).unwrap();
            }
            let report = sim.finish();
            prop_assert_eq!(report.offered, arrivals.len() as u64);
            prop_assert_eq!(report.offered, report.completed + report.total_shed());
            let stages: u64 = report.per_nf.iter().map(|nf| nf.stages).sum();
            prop_assert!(stages >= report.completed);
        }
    }

    /// An out-of-order record is refused by the `offer` that brings it,
    /// and the run goes on as if it had never been offered.
    #[test]
    fn unsorted_input_is_refused_and_skipped() {
        let config = single_nf_config(2, 300.0);
        let sorted: Vec<TraceRecord> = (0..300u64)
            .map(|i| rec(1_000 + i * 3, (i % 8) as u32, EventType::Tau))
            .collect();
        let trace = Trace::from_records(sorted.clone());
        let reference = DesSim::run_trace(config.clone(), &trace, &Registry::disabled()).unwrap();
        for at in [1, 97] {
            let mut sim = DesSim::new(config.clone()).unwrap();
            for r in &sorted[..at] {
                sim.offer(r).unwrap();
            }
            let prev_ms = sorted[at - 1].t.as_millis();
            assert_eq!(
                sim.offer(&rec(prev_ms - 1, 99, EventType::Attach)),
                Err(DesError::UnsortedInput {
                    prev_ms,
                    got_ms: prev_ms - 1
                }),
                "at {at}"
            );
            for r in &sorted[at..] {
                sim.offer(r).unwrap();
            }
            assert_eq!(sim.finish(), reference, "at {at}");
        }
    }

    /// A calendar time or sequence number: the end of time (a saturated
    /// draw), one of the first few, or anything.
    fn edge_word() -> impl Strategy<Value = u64> {
        prop_oneof![Just(u64::MAX), 0u64..4, any::<u64>()]
    }

    proptest! {
        /// The one-word calendar key orders exactly as `(t_us, seq)`, and
        /// gives its time back.
        #[test]
        fn the_calendar_key_orders_like_the_time_sequence_pair(
            a in (edge_word(), edge_word()),
            b in (edge_word(), edge_word()),
        ) {
            let entry = |(t_us, seq)| CalEntry::new(t_us, seq, Action::ScaleTick { nf: 0 });
            prop_assert_eq!(entry(a).cmp(&entry(b)), a.cmp(&b));
            prop_assert_eq!((entry(a).t_us(), entry(b).t_us()), (a.0, b.0));
        }
    }

    #[test]
    fn empty_run_reports_zeros() {
        let report = DesSim::new(single_nf_config(1, 100.0)).unwrap().finish();
        assert_eq!(report.offered, 0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.p99_latency_ms, 0.0);
        assert_eq!(report.shed_rate, 0.0);
    }
}
