//! `synth-2m-ooc`: 2 000 000 UEs through `generate_out_of_core` into an
//! unlinked temp file. The same crate as `synth-week` used differently —
//! bootstrap-dominated generation, then `cn-trace` block encode, spill I/O
//! and the zero-copy merge — so a steady-state sampling win that costs the
//! export path (or the reverse) shows.

use crate::harness::{RecordHash, Staged};
use crate::run::{timed_reps, timed_set_up, Options, Outcome, Rep, Stopwatch};
use crate::setup::{gen_config, set_up, Scale};
use cn_fit::ModelSet;
use cn_gen::{generate_out_of_core, GenConfig, OutOfCoreConfig, OutOfCoreReport, PopulationStream};
use cn_trace::io::{decode_record, BinaryStreamWriter, BINARY_MAGIC};
use cn_trace::{EncodedBlock, TraceRecord, RECORD_BYTES};
use std::fs::File;
use std::io::{BufReader, Cursor, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const UES: u32 = 2_000_000;
const HOURS: f64 = 0.25;
const CHUNK_UES: u32 = 16_384;
const BUDGET_BYTES: usize = 16 << 20;
/// Chunks the traced run generates for its per-chunk and codec stages.
const TRACED_CHUNKS: u64 = 64;
/// Passes each codec stage makes over those chunks' records.
const CODEC_PASSES: usize = 16;

/// Spill files and the sink live under the working directory (the driver's
/// checkout), never the system temp directory.
const TEMP_DIR: &str = ".bench_tmp";

fn occ(scale: Scale) -> OutOfCoreConfig {
    std::fs::create_dir_all(TEMP_DIR).expect("create the benchmark temp directory");
    OutOfCoreConfig {
        chunk_ues: scale.ues(CHUNK_UES),
        buffer_budget_bytes: if scale.smoke {
            BUDGET_BYTES / 100
        } else {
            BUDGET_BYTES
        },
        temp_dir: Some(PathBuf::from(TEMP_DIR)),
    }
}

/// A read-write file that is already unlinked: nothing is left behind
/// whatever happens to the process.
fn unlinked_sink() -> File {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = Path::new(TEMP_DIR).join(format!(
        "cp-bench-sink-{}-{}.bin",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let file = File::options()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)
        .unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
    std::fs::remove_file(&path).unwrap_or_else(|e| panic!("unlink {}: {e}", path.display()));
    file
}

fn export(models: &ModelSet, config: &GenConfig, occ: &OutOfCoreConfig) -> (OutOfCoreReport, File) {
    generate_out_of_core(models, config, occ, unlinked_sink())
        .expect("out-of-core export with a healthy sink and temp directory")
}

/// Read the sink back: header count and length as reported, every record
/// decodes, and the stream is time-sorted. Returns the record hash.
fn verify_sink(
    out: &mut Outcome,
    what: &str,
    report: &OutOfCoreReport,
    sink: &mut File,
) -> RecordHash {
    let want_len = 16 + report.events * RECORD_BYTES as u64;
    let len = sink.seek(SeekFrom::End(0)).expect("seek the sink");
    out.check(len == want_len && report.bytes_written == want_len, || {
        format!(
            "{what}: sink holds {len} bytes, report says {}, {} events need {want_len}",
            report.bytes_written, report.events
        )
    });
    sink.seek(SeekFrom::Start(0)).expect("rewind the sink");
    let mut reader = BufReader::with_capacity(1 << 20, sink);
    let mut header = [0u8; 16];
    reader
        .read_exact(&mut header)
        .expect("read the sink header");
    let count = u64::from_le_bytes(header[8..].try_into().expect("8 bytes"));
    out.check(
        &header[..8] == BINARY_MAGIC && count == report.events,
        || {
            format!(
                "{what}: header count {count}, report says {}",
                report.events
            )
        },
    );
    let mut hash = RecordHash::default();
    let mut frame = [0u8; RECORD_BYTES];
    while reader.read_exact(&mut frame).is_ok() {
        match decode_record(&frame) {
            Ok(r) => hash.push(&r),
            Err(e) => {
                out.failures.push(format!(
                    "{what}: record {} does not decode: {e}",
                    hash.count
                ));
                break;
            }
        }
    }
    out.check(hash.sorted && hash.count == report.events, || {
        format!(
            "{what}: sink decodes to {} records (sorted: {}), report says {}",
            hash.count, hash.sorted, report.events
        )
    });
    hash
}

pub fn end_to_end(opts: &Options, out: &mut Outcome) {
    let models = timed_set_up(opts, out);
    let config = gen_config(opts.scale.ues(UES), HOURS, opts.seed);
    let occ = occ(opts.scale);
    let mut reference: Option<RecordHash> = None;
    timed_reps(opts.seconds, out, |i, out| {
        let watch = Stopwatch::start();
        let (report, mut sink) = export(&models, &config, &occ);
        let (wall_s, cpu_s) = watch.stop();
        let what = format!("rep {i}");
        let hash = verify_sink(out, &what, &report, &mut sink);
        let want = *reference.get_or_insert(hash);
        out.attempted += want.count;
        if hash != want || !hash.sorted {
            out.failed += want.count;
        }
        out.check(hash == want, || {
            format!("{what}: the export differs from the first repetition's")
        });
        Rep {
            events: report.events,
            wall_s,
            cpu_s,
        }
    });
    let _ = std::fs::remove_dir(TEMP_DIR);
}

pub fn traced(opts: &Options, out: &mut Outcome) {
    let mut staged = Staged::new("synth-2m-ooc");
    let (models, setup) = set_up(opts.seed, opts.scale, Some(&mut staged));
    out.set_setup_layers(&setup);
    let config = gen_config(opts.scale.ues(UES), HOURS, opts.seed);
    let occ = occ(opts.scale);

    let ((report, mut sink), _) =
        staged.stage("gen", "ooc_export", || export(&models, &config, &occ));
    let hash = verify_sink(out, "export", &report, &mut sink);
    drop(sink);
    out.attempted += report.events;
    if !hash.sorted || hash.count != report.events {
        out.failed += report.events;
    }
    out.set("ooc.runs", report.runs as f64);
    out.set("ooc.spilled_runs", report.spilled_runs as f64);
    out.set("ooc.bytes_written", report.bytes_written as f64);

    // Generation alone, one chunk-sized population at a time, no encode.
    let (records, chunk_s) = staged.stage("gen", "chunk_gen", || {
        let mut records: Vec<TraceRecord> = Vec::new();
        for chunk in 0..TRACED_CHUNKS {
            let config = gen_config(occ.chunk_ues, HOURS, opts.seed ^ (chunk << 32));
            records.extend(PopulationStream::new(&models, &config));
        }
        records
    });
    out.check(!records.is_empty(), || {
        "the chunk stage generated nothing".into()
    });
    let ops = (records.len() * CODEC_PASSES).max(1) as f64;
    out.set(
        "ooc.chunk_gen_ns_per_event",
        chunk_s * 1e9 / records.len().max(1) as f64,
    );

    let (_, encode_s) = staged.stage("trace", "encode", || {
        let mut block = EncodedBlock::with_capacity(4096);
        let mut bytes = 0usize;
        for _ in 0..CODEC_PASSES {
            for r in &records {
                block.push(r);
                if block.len() == 4096 {
                    bytes += std::hint::black_box(block.as_bytes()).len();
                    block.clear();
                }
            }
        }
        bytes
    });
    out.set("trace.encode_ns_per_record", encode_s * 1e9 / ops);

    // `BinaryStreamWriter` needs `Seek`: a pre-sized in-memory cursor, so no
    // I/O and no reallocation is timed.
    let (wire, writer_s) = staged.stage("trace", "writer", || {
        let mut wire = Vec::new();
        for _ in 0..CODEC_PASSES {
            let sink = Cursor::new(Vec::with_capacity(16 + records.len() * RECORD_BYTES));
            let mut writer = BinaryStreamWriter::new(sink).expect("in-memory header write");
            for r in &records {
                writer.write(r).expect("in-memory record write");
            }
            wire = writer.finish().expect("in-memory finish").into_inner();
        }
        wire
    });
    out.set("trace.writer_ns_per_record", writer_s * 1e9 / ops);

    let (decoded, decode_s) = staged.stage("trace", "decode", || {
        let mut hash = RecordHash::default();
        for _ in 0..CODEC_PASSES {
            hash = RecordHash::default();
            for frame in wire[16..].chunks_exact(RECORD_BYTES) {
                let frame: &[u8; RECORD_BYTES] = frame.try_into().expect("whole frame");
                hash.push(&decode_record(frame).expect("a written record decodes"));
            }
        }
        hash
    });
    out.set("trace.decode_ns_per_record", decode_s * 1e9 / ops);
    out.check(decoded.count == records.len() as u64, || {
        format!(
            "the codec round trip kept {} of {} records",
            decoded.count,
            records.len()
        )
    });
    let _ = std::fs::remove_dir(TEMP_DIR);
    out.set_staged(&mut staged, opts, "synth-2m-ooc");
}
