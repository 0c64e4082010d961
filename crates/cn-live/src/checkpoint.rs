//! Checkpoint/resume of generator progress.
//!
//! Every engine stream is a pure function of its spec and seed, so the
//! whole resumable state of a live serve is one number: the cumulative
//! **emitted-records watermark**. A checkpoint stores that watermark
//! together with the generation config, the optional scenario spec, and
//! the compression factor — enough to rebuild the identical source and
//! fast-forward past the already-served prefix. A server restarted from
//! a checkpoint therefore continues the byte stream exactly where the
//! previous incarnation stopped: concatenating the frames served before
//! the kill with the frames served after the resume reproduces the
//! batch trace byte for byte.
//!
//! Files are JSON, written atomically (temp file next to the target,
//! synced to disk, then renamed over it) so a crash mid-write leaves
//! either the old checkpoint or the new one, never a torn or empty file. Periodic checkpoints lag the wire by
//! up to `checkpoint_every − 1` records; resuming from one replays that
//! suffix (at-least-once delivery across restarts). The final checkpoint
//! written on a graceful stop is exact (exactly-once).
//!
//! A loaded file is checked before anything is built from it: the derived
//! parse skips `GenConfig::new`'s saturation, so a corrupt file could
//! otherwise carry a window or a population the generator's pool cannot
//! hold, and the resume would panic or allocate by the corrupt count.

use std::io::Write;
use std::path::{Path, PathBuf};

use cn_gen::GenConfig;
use cn_scenario::ScenarioSpec;
use cn_trace::MS_PER_HOUR;
use serde::{Deserialize, Serialize};

/// Most UEs a resumed stream can hold: one `cn-gen` pool, whose merge key
/// keeps 24 bits for a UE's slot.
const MAX_UES: u64 = 1 << 24;
/// Exclusive bound on a resumed stream's window in milliseconds: the 37
/// bits (~4.3 years) a `cn-gen` merge key keeps for time.
const MAX_HORIZON_MS: f64 = (1u64 << 37) as f64;

/// A point-in-time snapshot of serve progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Cumulative records emitted (the resume watermark).
    pub emitted: u64,
    /// Time-compression factor the stream was served at.
    pub compression: f64,
    /// The generation config the source was built from (carries the
    /// seed, so the resumed stream is the same pure function).
    pub config: GenConfig,
    /// The scenario overlaid on the baseline, if any.
    pub scenario: Option<ScenarioSpec>,
}

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (stage: `write`, `sync`, `rename`, or `read`).
    Io {
        /// The operation that failed.
        stage: &'static str,
        /// The underlying error, stringified.
        message: String,
    },
    /// The file exists but does not parse as a checkpoint.
    Parse(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { stage, message } => {
                write!(f, "checkpoint {stage} failed: {message}")
            }
            CheckpointError::Parse(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Atomically persist to `path`: write a temp file, sync it, rename.
    pub(crate) fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = self.write_synced_temp(path)?;
        std::fs::rename(&tmp, path).map_err(io_error("rename"))
    }

    /// Write this checkpoint to `path`'s temp sibling and force it to
    /// disk. Until the rename, `path` itself is untouched — and because
    /// the data is durable *before* the rename, a crash cannot leave an
    /// empty file under the final name.
    fn write_synced_temp(&self, path: &Path) -> Result<PathBuf, CheckpointError> {
        let json = serde_json::to_string_pretty(self).map_err(|e| CheckpointError::Io {
            stage: "write",
            message: e.to_string(),
        })?;
        let tmp = temp_sibling(path);
        let mut file = std::fs::File::create(&tmp).map_err(io_error("write"))?;
        file.write_all(json.as_bytes()).map_err(io_error("write"))?;
        file.sync_all().map_err(io_error("sync"))?;
        Ok(tmp)
    }

    /// Load a checkpoint previously written by `Checkpoint::save`. A file
    /// the resume path could not serve is a [`CheckpointError::Parse`].
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let json = std::fs::read_to_string(path).map_err(io_error("read"))?;
        let ckpt: Checkpoint =
            serde_json::from_str(&json).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        ckpt.validate().map_err(CheckpointError::Parse)?;
        Ok(ckpt)
    }

    /// Reject what a resume cannot serve: a population or window larger
    /// than one generator pool holds, a compression that is not finite
    /// and positive, or a scenario its own validation rejects.
    fn validate(&self) -> Result<(), String> {
        let mix = self.config.population;
        let ues: u64 = [mix.phones, mix.connected_cars, mix.tablets]
            .into_iter()
            .map(u64::from)
            .sum();
        if ues > MAX_UES {
            return Err(format!("population of {ues} UEs exceeds {MAX_UES}"));
        }
        let horizon_ms = self.config.duration_hours * MS_PER_HOUR as f64;
        if !(0.0..MAX_HORIZON_MS).contains(&horizon_ms) {
            return Err(format!(
                "duration_hours {} is not a window a pool can span",
                self.config.duration_hours
            ));
        }
        if !(self.compression.is_finite() && self.compression > 0.0) {
            return Err(format!(
                "compression {} is not finite and positive",
                self.compression
            ));
        }
        match &self.scenario {
            Some(spec) => spec.validate().map_err(|e| e.to_string()),
            None => Ok(()),
        }
    }
}

fn io_error(stage: &'static str) -> impl Fn(std::io::Error) -> CheckpointError {
    move |e| CheckpointError::Io {
        stage,
        message: e.to_string(),
    }
}

/// The temp file a save of `path` goes through: the full file name plus
/// `.tmp`, so checkpoints that differ only in extension never share one.
fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{PopulationMix, Timestamp};

    fn ckpt(emitted: u64) -> Checkpoint {
        Checkpoint {
            emitted,
            compression: 3600.0,
            config: GenConfig::new(
                PopulationMix::new(10, 4, 2),
                Timestamp::at_hour(0, 9),
                1.5,
                42,
            ),
            scenario: None,
        }
    }

    #[test]
    fn a_save_in_flight_never_exposes_a_partial_file() {
        let path =
            std::env::temp_dir().join(format!("cn-live-ckpt-inflight-{}.json", std::process::id()));
        ckpt(1).save(&path).unwrap();
        // Everything a save does before its rename: the final name still
        // loads as the old checkpoint, and what waits beside it is already
        // the complete new one.
        let tmp = ckpt(2).write_synced_temp(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt(1));
        assert_eq!(Checkpoint::load(&tmp).unwrap(), ckpt(2));
        std::fs::remove_file(&tmp).unwrap();
        ckpt(2).save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt(2));
        assert!(!tmp.exists(), "the rename consumes the temp file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoints_differing_only_in_extension_do_not_share_a_temp_file() {
        let dir = std::env::temp_dir();
        let (json, bin) = (dir.join("run.json"), dir.join("run.bin"));
        assert_ne!(temp_sibling(&json), temp_sibling(&bin));
        assert_eq!(temp_sibling(&json).parent(), json.parent());
    }

    #[test]
    fn checkpoint_round_trips_through_disk() {
        let ckpt = ckpt(123_456);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cn-live-ckpt-test-{}.json", std::process::id()));
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, ckpt);
    }

    #[test]
    fn what_a_resume_cannot_serve_is_rejected() {
        assert_eq!(ckpt(7).validate(), Ok(()));
        let mut huge = ckpt(7);
        huge.config.population.phones = u32::MAX;
        let mut long = ckpt(7);
        long.config.duration_hours = 24.0 * 365.0 * 5.0;
        let mut nan = ckpt(7);
        nan.config.duration_hours = f64::NAN;
        let mut stalled = ckpt(7);
        stalled.compression = 0.0;
        let mut empty = ckpt(7);
        empty.scenario = Some(ScenarioSpec {
            name: "empty".into(),
            seed: 1,
            phases: vec![cn_scenario::Phase {
                name: "none".into(),
                window: cn_scenario::TimeWindow::new(10.0, 0.0),
                kind: cn_scenario::PhaseKind::Outage {
                    ues: cn_scenario::UeSubset::new(0, 4),
                },
            }],
        });
        for bad in [huge, long, nan, stalled, empty] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_scenario_that_would_inject_unbounded_records_does_not_load() {
        // Every UE id, four billion bursts each: validating it must stop
        // the resume before the storm is materialized.
        let huge = r#"{"name":"huge","seed":1,"phases":[{"name":"storm","window":{"start_s":0.0,"duration_s":60.0},"kind":{"SignalingStorm":{"ues":{"lo":0,"hi":4294967295},"kind":"TauFlood","bursts_per_ue":4294967295}}}]}"#;
        let mut hostile = ckpt(7);
        hostile.scenario = Some(serde_json::from_str(huge).unwrap());
        let path =
            std::env::temp_dir().join(format!("cn-live-ckpt-hostile-{}.json", std::process::id()));
        hostile.save(&path).unwrap();
        let got = Checkpoint::load(&path);
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(&got, Err(CheckpointError::Parse(e)) if e.contains("records, over the")),
            "{got:?}"
        );
    }

    #[test]
    fn missing_and_malformed_files_are_typed_errors() {
        let dir = std::env::temp_dir();
        let missing = dir.join("cn-live-ckpt-does-not-exist.json");
        assert!(matches!(
            Checkpoint::load(&missing),
            Err(CheckpointError::Io { stage: "read", .. })
        ));
        let garbled = dir.join(format!("cn-live-ckpt-garbled-{}.json", std::process::id()));
        std::fs::write(&garbled, "{not json").unwrap();
        let got = Checkpoint::load(&garbled);
        std::fs::remove_file(&garbled).ok();
        assert!(matches!(got, Err(CheckpointError::Parse(_))));
    }
}
