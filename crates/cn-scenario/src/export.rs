//! Scenario export: stream a scenario straight into the binary trace
//! format, with the PR-5 failure-containment contract on the sink leg.
//!
//! [`write_scenario_binary`] takes the sink **by mutable reference** so a
//! caller keeps it when the export faults — the bytes that reached it
//! before the fault are a verbatim prefix of the fault-free export, and
//! obey `cn-trace`'s finish-or-recover contract: `from_binary` rejects
//! the partial file (unfinished-count sentinel in the header),
//! `recover_binary` salvages every record that landed.

use std::io::{Seek, Write};

use cn_trace::io::{BinaryStreamWriter, IoError};
use cn_trace::{RecordSource, StreamError};

use crate::apply::{ScenarioStats, ScenarioStream};

fn io_fault(stage: &'static str, e: IoError) -> StreamError {
    StreamError::Io {
        stage,
        message: e.to_string(),
    }
}

/// Drain `stream` into `sink` as a binary trace, returning the drained
/// stats.
///
/// Faults — baseline (worker panic, spill I/O) or sink — surface as the
/// same typed [`StreamError`] the rest of the streaming stack uses; sink
/// failures carry the stage that failed (`export-header`,
/// `export-write`, `export-finish`). On any error the sink's header
/// count is still the unfinished sentinel, so the partial file fails
/// `from_binary` loudly and is salvageable with `recover_binary`.
///
/// Records go to `sink` one `write_all` each (`BinaryStreamWriter` does
/// not buffer): wrap a `File` in a `BufWriter` before passing it in.
pub fn write_scenario_binary<S: RecordSource, W: Write + Seek>(
    stream: ScenarioStream<'_, S>,
    sink: &mut W,
) -> Result<ScenarioStats, StreamError> {
    let mut writer =
        BinaryStreamWriter::new(&mut *sink).map_err(|e| io_fault("export-header", e))?;
    // The header count is patched only after the source's own verdict is
    // in, so a baseline that fails its wind-down also leaves the sink in
    // the finish-or-recover state.
    let stats = stream.drain(|rec| writer.write(&rec).map_err(|e| io_fault("export-write", e)))?;
    writer.finish().map_err(|e| io_fault("export-finish", e))?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Phase, PhaseKind, ScenarioSpec, StormKind, TimeWindow, UeSubset};
    use cn_fit::{fit, FitConfig, Method, ModelSet};
    use cn_gen::GenConfig;
    use cn_obs::Registry;
    use cn_trace::io::{from_binary, recover_binary, to_binary, FailingWriter};
    use cn_trace::IterSource;
    use cn_trace::{PopulationMix, Timestamp};
    use cn_world::{generate_world, WorldConfig};

    fn fitted() -> ModelSet {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(16, 6, 4), 2.0, 3));
        fit(&trace, &FitConfig::new(Method::Ours))
    }

    fn config() -> GenConfig {
        GenConfig::new(
            PopulationMix::new(16, 6, 4),
            Timestamp::at_hour(0, 9),
            2.0,
            0xFEED,
        )
    }

    fn storm() -> ScenarioSpec {
        ScenarioSpec {
            name: "storm".into(),
            seed: 7,
            phases: vec![Phase {
                name: "paging".into(),
                window: TimeWindow::new(1200.0, 1800.0),
                kind: PhaseKind::SignalingStorm {
                    ues: UeSubset::new(0, 12),
                    kind: StormKind::Paging,
                    bursts_per_ue: 3,
                },
            }],
        }
    }

    #[test]
    fn export_matches_batch_bytes() {
        let models = fitted();
        let config = config();
        let spec = storm();
        let (batch, _) =
            crate::apply_scenario(&spec, &models, &config, &Registry::disabled()).unwrap();
        let baseline = cn_gen::generate(&models, &config);
        let stream = ScenarioStream::new(
            &spec,
            &config,
            IterSource(baseline.into_records().into_iter()),
            &Registry::disabled(),
        )
        .unwrap();
        let mut sink = std::io::Cursor::new(Vec::new());
        let stats = write_scenario_binary(stream, &mut sink).unwrap();
        let bytes = sink.into_inner();
        assert_eq!(bytes, to_binary(&batch));
        assert_eq!(from_binary(&bytes).unwrap(), batch);
        assert_eq!(stats.events, batch.len() as u64);
    }

    #[test]
    fn sink_fault_is_typed_and_leaves_a_salvageable_prefix() {
        let models = fitted();
        let config = config();
        let spec = storm();
        let baseline = cn_gen::generate(&models, &config);
        let stream = ScenarioStream::new(
            &spec,
            &config,
            IterSource(baseline.into_records().into_iter()),
            &Registry::disabled(),
        )
        .unwrap();
        // Header + 40 whole records, then the sink dies.
        let mut sink = FailingWriter::new(std::io::Cursor::new(Vec::new()), 16 + 40 * 14);
        let err = write_scenario_binary(stream, &mut sink).unwrap_err();
        assert!(
            matches!(
                err,
                StreamError::Io {
                    stage: "export-write",
                    ..
                }
            ),
            "{err}"
        );
        let bytes = sink.into_inner().into_inner();
        // Finish never ran: the unfinished header fails from_binary…
        assert!(from_binary(&bytes).is_err());
        // …and the salvaged prefix is verbatim the fault-free head.
        let salvaged = recover_binary(&bytes).unwrap();
        let (full, _) =
            crate::apply_scenario(&spec, &models, &config, &Registry::disabled()).unwrap();
        assert_eq!(salvaged.len(), 40);
        assert!(salvaged.iter().zip(full.iter()).all(|(a, b)| a == b));
    }
}
