//! Trace (de)serialization: CSV, JSON-lines, and a compact binary format.
//!
//! * **CSV** — human-readable interchange: `t_ms,ue,device,event` with the
//!   paper's mnemonics; good for spreadsheets and diffing.
//! * **JSONL** — one serde-serialized [`TraceRecord`] per line; good for
//!   piping into other tooling.
//! * **Binary** — fixed 14-byte little-endian records behind a magic header;
//!   the format used for large generated traces (a week of 380K UEs is
//!   hundreds of millions of events).

use crate::device::DeviceType;
use crate::event::EventType;
use crate::record::{TraceRecord, UeId};
use crate::time::Timestamp;
use crate::trace::Trace;
use std::io::{BufRead, Write};

/// Magic bytes opening the binary trace format.
pub const BINARY_MAGIC: &[u8; 8] = b"CPTGBIN1";

/// Bytes per binary record: u64 `t_ms` + u32 `ue` + u8 device + u8 event.
pub const RECORD_BYTES: usize = 14;

/// Header count of an export whose writer never finished: what
/// [`BinaryStreamWriter::new`] writes and only
/// [`BinaryStreamWriter::finish`] replaces. No real trace can hold
/// `u64::MAX` records, so [`from_binary`] rejects it whatever the payload
/// length — including a header with no payload at all, which a zero
/// count would let pass as a complete empty trace.
pub const UNFINISHED_COUNT: u64 = u64::MAX;

/// Errors arising while reading or writing traces.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed CSV line (line number, message).
    Csv(usize, String),
    /// A malformed JSONL line (line number, serde message).
    Json(usize, String),
    /// Binary stream corruption.
    Binary(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Csv(line, msg) => write!(f, "csv parse error at line {line}: {msg}"),
            IoError::Json(line, msg) => write!(f, "jsonl parse error at line {line}: {msg}"),
            IoError::Binary(msg) => write!(f, "binary trace error: {msg}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Write a trace as CSV with a header row.
pub fn write_csv<W: Write>(trace: &Trace, mut w: W) -> Result<(), IoError> {
    writeln!(w, "t_ms,ue,device,event")?;
    for r in trace.iter() {
        writeln!(
            w,
            "{},{},{},{}",
            r.t.as_millis(),
            r.ue.get(),
            r.device.abbrev(),
            r.event.mnemonic()
        )?;
    }
    Ok(())
}

/// Read a trace from CSV produced by [`write_csv`].
pub fn read_csv<R: BufRead>(r: R) -> Result<Trace, IoError> {
    let mut records = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        if lineno == 1 && line.starts_with("t_ms") {
            continue; // header
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let mut field = |name: &str| {
            parts
                .next()
                .ok_or_else(|| IoError::Csv(lineno, format!("missing field `{name}`")))
        };
        let t: u64 = field("t_ms")?
            .trim()
            .parse()
            .map_err(|e| IoError::Csv(lineno, format!("bad t_ms: {e}")))?;
        let ue: u32 = field("ue")?
            .trim()
            .parse()
            .map_err(|e| IoError::Csv(lineno, format!("bad ue: {e}")))?;
        let dev_s = field("device")?.trim().to_string();
        let device = DeviceType::ALL
            .into_iter()
            .find(|d| d.abbrev() == dev_s)
            .ok_or_else(|| IoError::Csv(lineno, format!("unknown device `{dev_s}`")))?;
        let ev_s = field("event")?.trim().to_string();
        let event = EventType::from_mnemonic(&ev_s)
            .ok_or_else(|| IoError::Csv(lineno, format!("unknown event `{ev_s}`")))?;
        records.push(TraceRecord::new(
            Timestamp::from_millis(t),
            UeId(ue),
            device,
            event,
        ));
    }
    Ok(Trace::from_records(records))
}

/// Write a trace as JSON-lines (one [`TraceRecord`] object per line).
pub fn write_jsonl<W: Write>(trace: &Trace, mut w: W) -> Result<(), IoError> {
    for r in trace.iter() {
        let line = serde_json::to_string(r).map_err(|e| IoError::Json(0, e.to_string()))?;
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Read a trace from JSON-lines produced by [`write_jsonl`].
pub fn read_jsonl<R: BufRead>(r: R) -> Result<Trace, IoError> {
    let mut records = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec: TraceRecord =
            serde_json::from_str(&line).map_err(|e| IoError::Json(i + 1, e.to_string()))?;
        records.push(rec);
    }
    Ok(Trace::from_records(records))
}

/// Serialize a trace to the compact binary format.
pub fn to_binary(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + trace.len() * RECORD_BYTES);
    buf.extend_from_slice(BINARY_MAGIC);
    buf.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for r in trace.iter() {
        buf.extend_from_slice(&encode_record(r));
    }
    buf
}

/// Encode one record into its fixed 14-byte little-endian wire frame —
/// the unit both the on-disk binary format and the live streaming
/// protocol (`cn-live`) are built from.
#[inline]
pub fn encode_record(r: &TraceRecord) -> [u8; RECORD_BYTES] {
    let mut buf = [0u8; RECORD_BYTES];
    buf[..8].copy_from_slice(&r.t.as_millis().to_le_bytes());
    buf[8..12].copy_from_slice(&r.ue.get().to_le_bytes());
    buf[12] = r.device.code();
    buf[13] = r.event.code();
    buf
}

/// Decode one 14-byte wire frame produced by [`encode_record`].
///
/// Unknown device/event codes are a typed [`IoError::Binary`] — a frame
/// that is not a record (e.g. a live-stream control marker) must be
/// handled *before* this call, never silently misparsed.
pub fn decode_record(buf: &[u8; RECORD_BYTES]) -> Result<TraceRecord, IoError> {
    let t = u64::from_le_bytes(buf[..8].try_into().expect("8-byte slice"));
    let ue = u32::from_le_bytes(buf[8..12].try_into().expect("4-byte slice"));
    let device = DeviceType::from_code(buf[12])
        .ok_or_else(|| IoError::Binary(format!("bad device code {}", buf[12])))?;
    let event = EventType::from_code(buf[13])
        .ok_or_else(|| IoError::Binary(format!("bad event code {}", buf[13])))?;
    Ok(TraceRecord::new(
        Timestamp::from_millis(t),
        UeId(ue),
        device,
        event,
    ))
}

/// [`TraceRecord::merge_key`] of the `i`-th encoded record in `bytes` (a
/// headerless 14-byte-stride payload), read without decoding the record:
/// the key-only fast path of the encoded-run merge. The event byte is
/// taken as stored, so the key of a corrupt frame orders somewhere but
/// never panics or aliases [`crate::merge::EXHAUSTED_KEY`].
///
/// # Panics
/// Panics if `bytes` does not hold record `i` in full.
#[inline]
pub fn record_key_at(bytes: &[u8], i: usize) -> u128 {
    let off = i * RECORD_BYTES;
    let t = u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte t_ms"));
    let ue = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().expect("4-byte ue"));
    (u128::from(t) << 40) | (u128::from(ue) << 8) | u128::from(bytes[off + 13])
}

/// Validate the magic of a binary trace and split off the 16-byte
/// header, returning the (untrusted) stored record count and the record
/// payload.
fn binary_header(data: &[u8]) -> Result<(u64, &[u8]), IoError> {
    if data.len() < 16 {
        return Err(IoError::Binary("truncated header".into()));
    }
    let (header, payload) = data.split_at(16);
    if &header[..8] != BINARY_MAGIC {
        return Err(IoError::Binary("bad magic".into()));
    }
    let count = u64::from_le_bytes(header[8..].try_into().expect("8-byte count"));
    Ok((count, payload))
}

/// Parse a payload of whole fixed-size records (already length-checked).
fn read_records(data: &[u8]) -> Result<Trace, IoError> {
    // Allocation is bounded by the payload actually present, never by a
    // count an untrusted header claims.
    let mut records = Vec::with_capacity(data.len() / RECORD_BYTES);
    for frame in data.chunks_exact(RECORD_BYTES) {
        records.push(decode_record(frame.try_into().expect("whole frame"))?);
    }
    Ok(Trace::from_records(records))
}

/// Deserialize a trace from the compact binary format.
///
/// The header's record count is **untrusted input**: it is range-checked
/// with `usize::try_from` + `checked_mul` before any arithmetic or
/// allocation, so a crafted count can neither wrap the length check (on
/// release builds without overflow checks, `n * 14` used to be able to
/// alias a small payload length) nor drive `Vec::with_capacity` into an
/// allocation-abort.
pub fn from_binary(data: &[u8]) -> Result<Trace, IoError> {
    let (count, payload) = binary_header(data)?;
    if count == UNFINISHED_COUNT {
        return Err(IoError::Binary(
            "header count is the unfinished-export sentinel: the writer never \
             finished (salvage the prefix with recover_binary)"
                .into(),
        ));
    }
    let n = usize::try_from(count)
        .map_err(|_| IoError::Binary(format!("record count {count} exceeds address space")))?;
    let expected = n
        .checked_mul(RECORD_BYTES)
        .ok_or_else(|| IoError::Binary(format!("record count {count} overflows payload size")))?;
    if payload.len() != expected {
        return Err(IoError::Binary(format!(
            "expected {expected} record bytes, found {}",
            payload.len()
        )));
    }
    read_records(payload)
}

/// Recover a trace from a binary stream whose header count was never
/// patched — the on-disk state a crashed [`BinaryStreamWriter`] leaves
/// behind (see its finish-or-recover contract). The record count is
/// derived from the payload length instead of the header; the payload
/// must be whole records (`len % 14 == 0`), so a write torn mid-record is
/// still rejected rather than misparsed.
///
/// `recover_binary` accepts any stored count (it ignores it), so it also
/// reads complete traces; prefer [`from_binary`] whenever the writer
/// `finish`ed, since the count cross-check there detects more corruption.
pub fn recover_binary(data: &[u8]) -> Result<Trace, IoError> {
    let (_stored_count, payload) = binary_header(data)?;
    if payload.len() % RECORD_BYTES != 0 {
        return Err(IoError::Binary(format!(
            "payload of {} bytes is not whole {RECORD_BYTES}-byte records \
             (torn trailing write?)",
            payload.len()
        )));
    }
    read_records(payload)
}

/// Incremental writer for the binary format: stream records to any `Write`
/// sink without materializing the trace (pairs with
/// `cn-gen::PopulationStream`). The record count is written on `finish`,
/// so the sink must support seeking — use [`BinaryStreamWriter::new`] on a
/// `File` or an in-memory cursor.
///
/// ### The finish-or-recover contract
///
/// The header is written with the [`UNFINISHED_COUNT`] sentinel, which
/// only [`BinaryStreamWriter::finish`] patches to the true count. An
/// export that is dropped without `finish` — a crash, a panicked
/// generator, an early return on a [`IoError::Io`] from the sink —
/// therefore leaves a file that [`from_binary`] *rejects* at every
/// length, the bare 16-byte header included: a partial trace can never
/// be mistaken for a complete one. The records that did reach the sink
/// are still salvageable with [`recover_binary`], which derives the count
/// from the payload length instead. In short:
///
/// * clean export → `finish()?` → read with [`from_binary`];
/// * crashed export → file fails [`from_binary`] loudly → salvage the
///   prefix, explicitly, with [`recover_binary`].
///
/// ### One sink write per call
///
/// The writer does no buffering of its own: [`write`] and
/// [`write_encoded`] each issue exactly one `write_all` on the sink. A
/// caller that appends record by record (`cn-scenario`'s
/// `write_scenario_binary`) should hand it a buffered sink — on a bare
/// `File` every 14-byte record is a `write(2)`. Block callers
/// (`cn-gen`'s out-of-core export) stage their own window and call
/// [`write_encoded`] once per window.
///
/// [`write`]: BinaryStreamWriter::write
/// [`write_encoded`]: BinaryStreamWriter::write_encoded
pub struct BinaryStreamWriter<W: Write + std::io::Seek> {
    sink: W,
    count: u64,
}

impl<W: Write + std::io::Seek> BinaryStreamWriter<W> {
    /// Start a binary stream (writes the header with the
    /// [`UNFINISHED_COUNT`] sentinel).
    pub fn new(mut sink: W) -> Result<Self, IoError> {
        sink.write_all(BINARY_MAGIC)?;
        sink.write_all(&UNFINISHED_COUNT.to_le_bytes())?;
        Ok(BinaryStreamWriter { sink, count: 0 })
    }

    /// Append one record.
    pub fn write(&mut self, r: &TraceRecord) -> Result<(), IoError> {
        self.sink.write_all(&encode_record(r))?;
        self.count += 1;
        Ok(())
    }

    /// Append pre-encoded records verbatim — the zero-copy export path.
    ///
    /// `bytes` must be whole 14-byte records in the binary layout (an
    /// [`crate::block::EncodedBlock`] payload or a whole-record slice of
    /// one); a length that tears a record is rejected as
    /// [`IoError::Binary`] before anything reaches the sink. No
    /// per-record re-encode happens here: the block was laid out in disk
    /// format at generation time and is copied through as-is.
    pub fn write_encoded(&mut self, bytes: &[u8]) -> Result<(), IoError> {
        if !bytes.len().is_multiple_of(RECORD_BYTES) {
            return Err(IoError::Binary(format!(
                "encoded block of {} bytes is not whole {RECORD_BYTES}-byte records",
                bytes.len()
            )));
        }
        self.sink.write_all(bytes)?;
        self.count += (bytes.len() / RECORD_BYTES) as u64;
        Ok(())
    }

    /// Records written so far.
    pub fn written(&self) -> u64 {
        self.count
    }

    /// Abandon the export and take back the sink **without** patching the
    /// header count: the bytes written so far deliberately fail
    /// [`from_binary`] and are only readable via [`recover_binary`] (see
    /// the finish-or-recover contract). Use after a [`write`] error to
    /// inspect or salvage the partial output.
    ///
    /// [`write`]: BinaryStreamWriter::write
    pub fn into_sink(self) -> W {
        self.sink
    }

    /// Finalize: patch the record count into the header and return the
    /// sink.
    pub fn finish(mut self) -> Result<W, IoError> {
        self.sink
            .seek(std::io::SeekFrom::Start(BINARY_MAGIC.len() as u64))?;
        self.sink.write_all(&self.count.to_le_bytes())?;
        self.sink.seek(std::io::SeekFrom::End(0))?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// **Test support** — a `Write`/`Seek` adapter that fails with an I/O
/// error after `budget` bytes have been written: the sink leg of the
/// deterministic fault-injection harness (`cn_gen::fault` holds the
/// worker legs). Lets tests prove that a mid-export disk failure
/// propagates as a typed [`IoError::Io`] — and that the partial file the
/// failure leaves behind obeys the finish-or-recover contract above.
pub struct FailingWriter<W> {
    inner: W,
    budget: usize,
}

impl<W> FailingWriter<W> {
    /// Wrap `inner`, allowing exactly `budget` bytes before every write
    /// fails.
    pub fn new(inner: W, budget: usize) -> FailingWriter<W> {
        FailingWriter { inner, budget }
    }

    /// The wrapped sink (with whatever bytes made it through).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.len() > self.budget {
            return Err(std::io::Error::other(format!(
                "injected fault: write budget exhausted ({} bytes left, {} requested)",
                self.budget,
                buf.len()
            )));
        }
        let written = self.inner.write(buf)?;
        self.budget -= written.min(self.budget);
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl<W: std::io::Seek> std::io::Seek for FailingWriter<W> {
    fn seek(&mut self, pos: std::io::SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::from_records(vec![
            TraceRecord::new(
                Timestamp::from_millis(100),
                UeId(1),
                DeviceType::Phone,
                EventType::Attach,
            ),
            TraceRecord::new(
                Timestamp::from_millis(250),
                UeId(2),
                DeviceType::ConnectedCar,
                EventType::Handover,
            ),
            TraceRecord::new(
                Timestamp::from_millis(990),
                UeId(1),
                DeviceType::Phone,
                EventType::Detach,
            ),
        ])
    }

    #[test]
    fn csv_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn csv_rejects_garbage() {
        let bad = b"t_ms,ue,device,event\n12,notanint,P,ATCH\n";
        assert!(matches!(read_csv(&bad[..]), Err(IoError::Csv(2, _))));
        let bad2 = b"t_ms,ue,device,event\n12,1,P,WHAT\n";
        assert!(matches!(read_csv(&bad2[..]), Err(IoError::Csv(2, _))));
        let bad3 = b"t_ms,ue,device,event\n12,1\n";
        assert!(matches!(read_csv(&bad3[..]), Err(IoError::Csv(2, _))));
    }

    #[test]
    fn jsonl_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        let back = read_jsonl(&buf[..]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn record_frame_round_trips_and_rejects_bad_codes() {
        for r in sample().iter() {
            let frame = encode_record(r);
            assert_eq!(decode_record(&frame).unwrap(), *r);
        }
        let mut frame = encode_record(sample().iter().next().unwrap());
        frame[12] = 0xFF;
        assert!(matches!(decode_record(&frame), Err(IoError::Binary(_))));
        frame[12] = DeviceType::Phone.code();
        frame[13] = 0xFE;
        assert!(matches!(decode_record(&frame), Err(IoError::Binary(_))));
    }

    #[test]
    fn record_key_at_is_the_merge_key_of_the_decoded_record() {
        let mut records: Vec<TraceRecord> = sample().iter().copied().collect();
        records.push(TraceRecord::new(
            Timestamp::from_millis(u64::MAX),
            UeId(u32::MAX),
            DeviceType::Tablet,
            EventType::Tau,
        ));
        let payload: Vec<u8> = records.iter().flat_map(encode_record).collect();
        for (i, r) in records.iter().enumerate() {
            assert_eq!(record_key_at(&payload, i), r.merge_key());
        }
    }

    #[test]
    fn binary_round_trip() {
        let t = sample();
        let bin = to_binary(&t);
        let back = from_binary(&bin).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn binary_rejects_corruption() {
        let t = sample();
        let mut bin = to_binary(&t);
        // Truncate.
        bin.pop();
        assert!(matches!(from_binary(&bin), Err(IoError::Binary(_))));
        // Bad magic.
        let mut bin2 = to_binary(&t);
        bin2[0] = b'X';
        assert!(matches!(from_binary(&bin2), Err(IoError::Binary(_))));
        // Bad event code.
        let mut bin3 = to_binary(&t);
        let last = bin3.len() - 1;
        bin3[last] = 99;
        assert!(matches!(from_binary(&bin3), Err(IoError::Binary(_))));
    }

    #[test]
    fn binary_stream_writer_matches_batch() {
        let t = sample();
        let mut cursor = std::io::Cursor::new(Vec::new());
        {
            let mut w = BinaryStreamWriter::new(&mut cursor).unwrap();
            for r in t.iter() {
                w.write(r).unwrap();
            }
            assert_eq!(w.written(), t.len() as u64);
            w.finish().unwrap();
        }
        let bytes = cursor.into_inner();
        assert_eq!(bytes, to_binary(&t));
        assert_eq!(from_binary(&bytes).unwrap(), t);
    }

    #[test]
    fn binary_stream_writer_empty() {
        let cursor = std::io::Cursor::new(Vec::new());
        let w = BinaryStreamWriter::new(cursor).unwrap();
        let bytes = w.finish().unwrap().into_inner();
        assert_eq!(from_binary(&bytes).unwrap(), Trace::new());
    }

    #[test]
    fn crafted_header_counts_error_instead_of_aborting() {
        // Regression: `n as usize` truncated on 32-bit and `n * 14` could
        // wrap in release builds, so a crafted count could pass the
        // length check and drive Vec::with_capacity into an abort. Every
        // hostile count must now produce a typed error.
        let t = sample();
        let good = to_binary(&t);
        let hostile_counts: [u64; 5] = [
            u64::MAX,
            // Wraps `n * 14` to 2 (mod 2^64): 2^64 = 14 * q + 2.
            (u64::MAX / 14) + 1,
            u64::MAX / 14,
            (1 << 62) + 3,
            // Plausible but absurd: claims more records than bytes exist.
            1 << 40,
        ];
        for count in hostile_counts {
            let mut bin = good.clone();
            bin[8..16].copy_from_slice(&count.to_le_bytes());
            let err = from_binary(&bin).expect_err(&format!("count {count} must be rejected"));
            assert!(matches!(err, IoError::Binary(_)), "{err}");
        }
        // And a count that is simply wrong (but small) still errors.
        let mut bin = good;
        bin[8..16].copy_from_slice(&2u64.to_le_bytes());
        assert!(matches!(from_binary(&bin), Err(IoError::Binary(_))));
    }

    #[test]
    fn recover_binary_salvages_a_drop_without_finish() {
        // A crashed export: records written, header count never patched.
        let t = sample();
        let mut cursor = std::io::Cursor::new(Vec::new());
        {
            let mut w = BinaryStreamWriter::new(&mut cursor).unwrap();
            for r in t.iter() {
                w.write(r).unwrap();
            }
            // no finish(): the unfinished sentinel stays
        }
        let bytes = cursor.into_inner();
        // from_binary must reject it — a partial export may never pose as
        // a complete trace…
        assert!(matches!(from_binary(&bytes), Err(IoError::Binary(_))));
        // …but the recover path salvages every record that hit the sink.
        assert_eq!(recover_binary(&bytes).unwrap(), t);
    }

    #[test]
    fn header_only_unfinished_export_is_not_an_empty_trace() {
        // Regression: with a zero placeholder, a sink that died right
        // after the header held count 0 + payload 0 — a file from_binary
        // accepted as a complete empty trace.
        let writer = BinaryStreamWriter::new(std::io::Cursor::new(Vec::new())).unwrap();
        let bytes = writer.into_sink().into_inner();
        assert_eq!(bytes.len(), 16);
        assert_eq!(bytes[8..], UNFINISHED_COUNT.to_le_bytes());
        assert!(matches!(from_binary(&bytes), Err(IoError::Binary(_))));
        assert_eq!(recover_binary(&bytes).unwrap(), Trace::new());
    }

    #[test]
    fn recover_binary_rejects_torn_trailing_writes() {
        let t = sample();
        let mut bin = to_binary(&t);
        bin.truncate(bin.len() - 5); // mid-record tear
        assert!(matches!(recover_binary(&bin), Err(IoError::Binary(_))));
        // Bad magic is rejected before any payload math.
        let mut bad = to_binary(&t);
        bad[0] = b'X';
        assert!(matches!(recover_binary(&bad), Err(IoError::Binary(_))));
        // Too short for even a header.
        assert!(matches!(
            recover_binary(&bad[..10]),
            Err(IoError::Binary(_))
        ));
    }

    #[test]
    fn recover_binary_also_reads_finished_traces() {
        let t = sample();
        assert_eq!(recover_binary(&to_binary(&t)).unwrap(), t);
        assert_eq!(
            recover_binary(&to_binary(&Trace::new())).unwrap(),
            Trace::new()
        );
    }

    #[test]
    fn failing_writer_surfaces_sink_errors_as_typed_io_errors() {
        let t = sample();
        // Budget for the header plus one and a half records: the second
        // record's write must fail with IoError::Io, not panic or truncate
        // silently.
        let sink = FailingWriter::new(std::io::Cursor::new(Vec::new()), 16 + 21);
        let mut w = BinaryStreamWriter::new(sink).unwrap();
        let records: Vec<_> = t.iter().collect();
        w.write(records[0]).unwrap();
        let err = w.write(records[1]).expect_err("budget exhausted");
        assert!(matches!(err, IoError::Io(_)), "{err}");
        // What did reach the sink obeys the finish-or-recover contract.
        let bytes = w.into_sink().into_inner().into_inner();
        assert!(matches!(from_binary(&bytes), Err(IoError::Binary(_))));
        let salvaged = recover_binary(&bytes).unwrap();
        assert_eq!(salvaged.len(), 1);
        assert_eq!(salvaged.iter().next(), Some(records[0]));
    }

    #[test]
    fn empty_trace_round_trips_everywhere() {
        let t = Trace::new();
        let mut csv = Vec::new();
        write_csv(&t, &mut csv).unwrap();
        assert_eq!(read_csv(&csv[..]).unwrap(), t);
        let bin = to_binary(&t);
        assert_eq!(from_binary(&bin).unwrap(), t);
        let mut jl = Vec::new();
        write_jsonl(&t, &mut jl).unwrap();
        assert_eq!(read_jsonl(&jl[..]).unwrap(), t);
    }
}
