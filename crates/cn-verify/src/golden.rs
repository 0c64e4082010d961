//! Golden-trace hashing: the cross-engine, cross-run regression gate.
//!
//! `cn-gen` guarantees that the sequential [`PopulationStream`], the
//! [`ShardedStream`] at any shard count (which `cn_gen::generate` drains),
//! and the out-of-core exporter all produce byte-identical traces for the
//! same [`GenConfig`]. This module turns that guarantee into two
//! executable checks:
//!
//! * **consistency** — hash the canonical binary serialization
//!   ([`cn_trace::io::to_binary`]) of the same small seeded trace produced
//!   by the sequential stream and the sharded stream × `shards {1,8}` —
//!   plus the out-of-core exporter's sink bytes on two workers with an
//!   all-memory, a spill-everything and a split budget — and demand a
//!   single hash;
//! * **stability** — compare that hash against a pinned value checked into
//!   `golden/hashes.json`, so a behavioral change to the generator, the
//!   model sampling order, or the vendored RNG stream fails loudly instead
//!   of silently shifting every downstream experiment. Re-bless
//!   intentionally changed hashes with `CN_VERIFY_BLESS=1`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cn_fit::ModelSet;
use cn_gen::{generate_out_of_core, GenConfig, OutOfCoreConfig, PopulationStream, ShardedStream};
use cn_obs::Registry;
use cn_trace::{PopulationMix, RecordSource, Timestamp, Trace, RECORD_BYTES};
use serde::{Deserialize, Serialize};

/// 64-bit FNV-1a over a byte slice.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Hash of a trace's canonical binary serialization.
pub(crate) fn trace_hash(trace: &Trace) -> u64 {
    fnv1a64(&cn_trace::io::to_binary(trace))
}

/// One engine configuration and the hash it produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenCase {
    /// Engine name, e.g. `stream`, `sharded`, or `outofcore-spill`.
    pub engine: String,
    /// Shard count (sharded engine only; 0 elsewhere).
    pub shards: usize,
    /// Events in the produced trace.
    pub events: usize,
    /// FNV-1a 64 hash of the canonical serialization.
    pub(crate) hash: u64,
}

/// All cases of one golden run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenReport {
    /// Per-engine cases.
    pub cases: Vec<GoldenCase>,
    /// True when every case produced the same hash.
    pub consistent: bool,
}

impl GoldenReport {
    /// The common hash, when consistent and non-empty.
    pub fn hash(&self) -> Option<u64> {
        match (self.consistent, self.cases.first()) {
            (true, Some(c)) => Some(c.hash),
            _ => None,
        }
    }

    /// One line per case plus the consistency verdict.
    pub fn render(&self) -> String {
        let mut out = String::from("== golden trace hashes ==\n");
        for c in &self.cases {
            out.push_str(&format!(
                "{:<8} shards={}  events={}  {:#018x}\n",
                c.engine, c.shards, c.events, c.hash
            ));
        }
        out.push_str(if self.consistent {
            "all engines agree\n"
        } else {
            "ENGINE DIVERGENCE\n"
        });
        out
    }
}

/// The fixed small-population config every golden run uses: 40 UEs over
/// 2 hours. Small enough to hash in milliseconds, large enough to exercise
/// every transition, both shard paths, and the cross-hour boundary.
pub fn standard_config() -> GenConfig {
    GenConfig::new(
        PopulationMix::new(24, 8, 8),
        Timestamp::at_hour(0, 9),
        2.0,
        0xC0FF_EE00,
    )
}

/// Produce the same trace with every engine and shard count and hash each
/// result.
pub fn run_golden(models: &ModelSet, config: &GenConfig) -> GoldenReport {
    run_golden_observed(models, config, &Registry::disabled())
}

/// As [`run_golden`], with the sharded cases generated through a live
/// `cn-obs` registry ([`ShardedStream::with_shards_observed`]).
///
/// Two things fall out of observing the golden run:
///
/// * the byte-identity gate now also proves instrumentation is inert —
///   an observed sharded trace hashing differently from the unobserved
///   engines would fail `consistent` immediately;
/// * when a golden gate *fails*, the registry holds the per-shard event
///   ledger of the exact run that diverged (`verify_model --metrics`
///   writes it out), so debugging starts from data, not a re-run.
///
/// Counters accumulate across cases: each sharded case adds its events to
/// `cn_gen_merge_events_total`, and only parallel cases (shards > 1)
/// populate the per-shard `cn_gen_shard_events_total` series.
///
/// Sharded cases are drained through [`RecordSource::collect_trace`]
/// (the fallible pull, then `finish`) and the drained-event totals are
/// asserted against the sequential stream's workload size, so a worker
/// failure or a short drain aborts the gate loudly instead of hashing a
/// truncated trace into an "engine divergence".
pub fn run_golden_observed(
    models: &ModelSet,
    config: &GenConfig,
    registry: &Registry,
) -> GoldenReport {
    let trace = Trace::from_records(PopulationStream::new(models, config).collect());
    // The sequential stream fixes the expected workload size.
    let expected_events = trace.len();
    let mut cases = vec![GoldenCase {
        engine: "stream".into(),
        shards: 0,
        events: expected_events,
        hash: trace_hash(&trace),
    }];
    // Out-of-core export on two workers, each with half the budget: hash
    // the sink bytes directly (they are the `to_binary` encoding, so the
    // hash is comparable). Three budgets: everything resident; zero, which
    // spills every non-empty run to disk; and a split, whose half holds
    // exactly worker 0's first run, so that run stays resident and the
    // worker's later runs spill. Spilling must never move a byte. The fine
    // chunk size makes every slice interleave many runs, not copy one.
    const CHUNK_UES: u32 = 7;
    let first_run = RECORD_BYTES * trace.iter().filter(|r| r.ue.get() < CHUNK_UES).count();
    for (tag, budget) in [("mem", usize::MAX), ("spill", 0), ("split", 2 * first_run)] {
        let occ = OutOfCoreConfig {
            chunk_ues: CHUNK_UES,
            buffer_budget_bytes: budget,
            temp_dir: None,
        };
        let two_workers = GenConfig {
            threads: 2,
            ..*config
        };
        let (report, sink) =
            generate_out_of_core(models, &two_workers, &occ, std::io::Cursor::new(Vec::new()))
                .unwrap_or_else(|e| panic!("golden out-of-core ({tag}) run failed: {e}"));
        let spills = match tag {
            "mem" => report.spilled_runs == 0,
            "spill" => report.spilled_runs > 0,
            _ => 0 < report.spilled_runs && report.spilled_runs < report.runs,
        };
        assert!(
            spills,
            "golden out-of-core ({tag}) case spilled {} of {} runs",
            report.spilled_runs, report.runs
        );
        cases.push(GoldenCase {
            engine: format!("outofcore-{tag}"),
            shards: 0,
            events: report.events as usize,
            hash: fnv1a64(&sink.into_inner()),
        });
    }
    // The sharded cases are drained through the *fallible* API so a worker
    // failure aborts the gate as a typed error instead of hashing a
    // silently truncated trace into a confusing "divergence".
    for shards in [1usize, 8] {
        let (trace, stats) = ShardedStream::with_shards_observed(models, config, shards, registry)
            .collect_trace()
            .unwrap_or_else(|e| panic!("golden sharded run (shards={shards}) failed: {e}"));
        // Drained-event accounting: everything the workers produced was
        // merged, and it is exactly the sequential stream's workload.
        assert_eq!(
            stats.events as usize,
            trace.len(),
            "sharded (shards={shards}) stream stats disagree with drained records"
        );
        assert_eq!(
            trace.len(),
            expected_events,
            "sharded (shards={shards}) drained {} events, expected {expected_events}",
            trace.len()
        );
        cases.push(GoldenCase {
            engine: "sharded".into(),
            shards,
            events: trace.len(),
            hash: trace_hash(&trace),
        });
    }
    let consistent = cases
        .windows(2)
        .all(|w| w[0].hash == w[1].hash && w[0].events == w[1].events);
    GoldenReport { cases, consistent }
}

/// Location of the pinned-hash file, inside the `cn-verify` crate so every
/// caller (tests anywhere in the workspace, the `verify_model` binary)
/// resolves the same file.
pub(crate) fn pinned_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("hashes.json")
}

/// The pins in `path`. A missing file holds no pins; any other read or
/// parse error is an error that names the file, so blessing one key never
/// rewrites a pin file it could not read.
fn read_pinned(path: &Path) -> Result<BTreeMap<String, String>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(format!("cannot read pin file {}: {e}", path.display())),
    };
    serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse pin file {}: {e}", path.display()))
}

/// Compare `hash` against the pinned value under `key`.
///
/// With the environment variable `CN_VERIFY_BLESS` set, the pinned file is
/// rewritten with the new value instead and the check passes. A missing key
/// without blessing is an error: golden gates must never pass vacuously.
pub fn check_pinned(key: &str, hash: u64) -> Result<(), String> {
    check_pinned_at(
        &pinned_path(),
        key,
        hash,
        std::env::var_os("CN_VERIFY_BLESS").is_some(),
    )
}

/// [`check_pinned`] against an explicit file, with blessing as a parameter —
/// the testable core.
pub(crate) fn check_pinned_at(
    path: &Path,
    key: &str,
    hash: u64,
    bless: bool,
) -> Result<(), String> {
    let mut pinned = read_pinned(path)?;
    let formatted = format!("{hash:#018x}");
    if bless {
        pinned.insert(key.to_string(), formatted);
        let json = serde_json::to_string_pretty(&pinned).map_err(|e| e.to_string())?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, json + "\n").map_err(|e| e.to_string())?;
        return Ok(());
    }
    match pinned.get(key) {
        Some(expected) if *expected == formatted => Ok(()),
        Some(expected) => Err(format!(
            "golden hash mismatch for '{key}': pinned {expected}, got {formatted}. \
             If the generator change is intentional, re-bless with \
             CN_VERIFY_BLESS=1 (see TESTING.md)."
        )),
        None => Err(format!(
            "no pinned golden hash for '{key}' in {}. Run once with CN_VERIFY_BLESS=1 \
             to record {formatted}.",
            path.display()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hash_distinguishes_traces() {
        use cn_trace::{DeviceType, EventType, TraceRecord, UeId};
        let a = Trace::from_records(vec![TraceRecord::new(
            Timestamp::from_millis(10),
            UeId(1),
            DeviceType::Phone,
            EventType::Attach,
        )]);
        let b = Trace::from_records(vec![TraceRecord::new(
            Timestamp::from_millis(11),
            UeId(1),
            DeviceType::Phone,
            EventType::Attach,
        )]);
        assert_ne!(trace_hash(&a), trace_hash(&b));
        assert_eq!(trace_hash(&a), trace_hash(&a));
    }

    #[test]
    fn pin_lifecycle_against_a_scratch_file() {
        let dir = std::env::temp_dir().join("cn-verify-golden-test");
        let path = dir.join("hashes.json");
        let _ = std::fs::remove_file(&path);
        // Missing pin without blessing: an error that names the remedy.
        let err = check_pinned_at(&path, "k", 0x1234, false).unwrap_err();
        assert!(err.contains("CN_VERIFY_BLESS"), "{err}");
        // Bless, then match, then mismatch.
        check_pinned_at(&path, "k", 0x1234, true).unwrap();
        check_pinned_at(&path, "k", 0x1234, false).unwrap();
        let err = check_pinned_at(&path, "k", 0x5678, false).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn blessing_never_rewrites_a_corrupt_pin_file() {
        let dir = std::env::temp_dir().join("cn-verify-golden-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.json");
        let corrupt = b"{\n  \"standard-v1\": \"0x00";
        std::fs::write(&path, corrupt).unwrap();
        for bless in [true, false] {
            let err = check_pinned_at(&path, "k", 0x1234, bless).unwrap_err();
            assert!(err.contains("corrupt.json"), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), corrupt);
        }
        let _ = std::fs::remove_file(&path);
    }
}
