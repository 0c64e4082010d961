//! The live wire protocol: record frames plus in-band markers.
//!
//! A live connection carries the *exact* batch binary layout — the
//! 16-byte header ([`BINARY_MAGIC`] + a `u64` count) followed by 14-byte
//! record frames — with the count left at zero: no count is known while
//! serving, and `recover_binary` ignores the field. A consumer that
//! saves the bytes to disk therefore has a file `recover_binary` accepts
//! as an honestly-unfinished trace, and a torn tail is still detected by
//! `len % 14`.
//!
//! Two in-band marker frames extend the framing without widening it.
//! Both park in code space no record can occupy (valid device codes are
//! 0–2, valid event codes 0–5, valid UE ids are dense from 0):
//!
//! * **Gap** — `device = event = 0xFF`, `ue = u32::MAX`, `t` = number of
//!   record frames dropped at exactly this position because the
//!   consumer's bounded queue overflowed. Honest degradation: the stream
//!   never silently truncates or reorders, it tells you what it lost and
//!   where.
//! * **End** — `device = event = 0xFE`, `ue = u32::MAX`, `t` = the
//!   server's cumulative emitted-records watermark. Sent only on clean
//!   source exhaustion; its absence at EOF means the server stopped or
//!   died mid-stream (resume from the checkpoint).

use std::io::Read;

use cn_trace::io::{decode_record, encode_record, IoError, BINARY_MAGIC};
use cn_trace::{RecordSource, StreamError, TraceRecord, RECORD_BYTES};

/// Bytes per wire frame (identical to a batch record frame).
pub const FRAME_BYTES: usize = RECORD_BYTES;

const MARKER_UE: u32 = u32::MAX;
const GAP_CODE: u8 = 0xFF;
const END_CODE: u8 = 0xFE;

/// One frame of the live wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// An ordinary trace record.
    Record(TraceRecord),
    /// `dropped` record frames were lost at this position (bounded-queue
    /// overflow for this consumer).
    Gap {
        /// Record frames dropped at exactly this stream position.
        dropped: u64,
    },
    /// Clean end of stream at cumulative watermark `emitted`.
    End {
        /// The server's total emitted-records watermark.
        emitted: u64,
    },
}

fn encode_marker(code: u8, payload: u64) -> [u8; FRAME_BYTES] {
    let mut buf = [0u8; FRAME_BYTES];
    buf[0..8].copy_from_slice(&payload.to_le_bytes());
    buf[8..12].copy_from_slice(&MARKER_UE.to_le_bytes());
    buf[12] = code;
    buf[13] = code;
    buf
}

/// Encode one frame into its 14-byte wire form.
pub fn encode_frame(frame: &Frame) -> [u8; FRAME_BYTES] {
    match frame {
        Frame::Record(r) => encode_record(r),
        Frame::Gap { dropped } => encode_marker(GAP_CODE, *dropped),
        Frame::End { emitted } => encode_marker(END_CODE, *emitted),
    }
}

/// Decode one 14-byte wire frame.
///
/// Markers are recognized by their reserved `(device, event, ue)`
/// pattern; anything else must be a valid record frame or the stream is
/// corrupt ([`IoError::Binary`]).
pub fn decode_frame(buf: &[u8; FRAME_BYTES]) -> Result<Frame, IoError> {
    let ue = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    let (device, event) = (buf[12], buf[13]);
    if ue == MARKER_UE && device == event && (device == GAP_CODE || device == END_CODE) {
        let payload = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        return Ok(match device {
            GAP_CODE => Frame::Gap { dropped: payload },
            _ => Frame::End { emitted: payload },
        });
    }
    decode_record(buf).map(Frame::Record)
}

/// Incremental reader for one live connection.
///
/// Validates the 16-byte header up front (magic match; the count is the
/// live zero placeholder and is ignored), then yields frames until the
/// peer closes the connection. EOF on a frame boundary is a normal
/// close; EOF inside a frame is a torn tail and a typed error.
pub struct LiveReader<R> {
    src: R,
}

impl<R: Read> LiveReader<R> {
    /// Read and validate the stream header, then wrap `src`.
    ///
    /// Every frame is its own `read` on `src`, so hand a socket over
    /// inside a [`std::io::BufReader`] (64 KiB holds any block the
    /// server writes): a bare `TcpStream` costs one `read(2)` per
    /// 14-byte frame where the server spent one `send(2)` per block.
    pub fn new(mut src: R) -> Result<LiveReader<R>, IoError> {
        let mut header = [0u8; 16];
        src.read_exact(&mut header)?;
        if &header[0..8] != BINARY_MAGIC {
            return Err(IoError::Binary("bad magic in live stream header".into()));
        }
        Ok(LiveReader { src })
    }

    /// Next frame, or `None` on a clean connection close.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, IoError> {
        let mut buf = [0u8; FRAME_BYTES];
        let mut filled = 0;
        while filled < FRAME_BYTES {
            match self.src.read(&mut buf[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => {
                    return Err(IoError::Binary(format!(
                        "torn frame at connection close: {filled} of {FRAME_BYTES} bytes"
                    )))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(IoError::Io(e)),
            }
        }
        decode_frame(&buf).map(Some)
    }
}

/// Everything one consumer received, split by frame kind.
#[derive(Debug, Default)]
pub struct CapturedStream {
    /// Record frames in arrival order.
    pub records: Vec<TraceRecord>,
    /// Gap payloads (dropped-frame counts) in arrival order.
    pub gaps: Vec<u64>,
    /// The End watermark, if the stream finished cleanly before close.
    pub end: Option<u64>,
}

impl CapturedStream {
    /// Total record frames this consumer lost to queue overflow.
    pub fn dropped(&self) -> u64 {
        self.gaps.iter().sum()
    }

    /// The containment-contract verdict for this consumer: any gap means
    /// the stream it saw is incomplete, surfaced as the typed
    /// [`StreamError::ConsumerLagged`] rather than a quietly shorter
    /// trace.
    pub fn verdict(&self, consumer: usize) -> Result<(), StreamError> {
        match self.dropped() {
            0 => Ok(()),
            dropped => Err(StreamError::ConsumerLagged { consumer, dropped }),
        }
    }
}

/// A live connection as a [`RecordSource`]: the adapter
/// that closes the loop, letting anything built on sorted record streams
/// (the MCN discrete-event simulator, scenario overlays, exporters)
/// consume a paced TCP feed exactly as it would a batch stream.
///
/// The containment contract carries through the adapter:
///
/// * record frames flow out of `try_next` in arrival order;
/// * a **Gap** marker becomes a typed
///   [`StreamError::ConsumerLagged`] at the gap's exact position —
///   downstream never sees a silently shorter stream;
/// * an **End** marker (clean source exhaustion) or a clean connection
///   close yields `None`;
/// * wire-level faults (torn tail, corrupt frame) surface as
///   [`StreamError::Io`] with stage `live-read`.
pub struct LiveRecordSource<R> {
    reader: LiveReader<R>,
    consumer: usize,
    dropped: u64,
    done: bool,
}

impl<R: Read> LiveRecordSource<R> {
    /// Validate the stream header and wrap the connection. `consumer` is
    /// this consumer's id in any `ConsumerLagged` verdict (the live
    /// server's accept order, or 0 for a single-connection client).
    pub fn new(src: R, consumer: usize) -> Result<LiveRecordSource<R>, IoError> {
        Ok(LiveRecordSource {
            reader: LiveReader::new(src)?,
            consumer,
            dropped: 0,
            done: false,
        })
    }
}

impl<R: Read> RecordSource for LiveRecordSource<R> {
    type Stats = ();

    fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        if self.done {
            return Ok(None);
        }
        match self.reader.next_frame() {
            Ok(Some(Frame::Record(r))) => Ok(Some(r)),
            Ok(Some(Frame::Gap { dropped })) => {
                self.dropped += dropped;
                Err(StreamError::ConsumerLagged {
                    consumer: self.consumer,
                    dropped,
                })
            }
            Ok(Some(Frame::End { .. }) | None) => {
                self.done = true;
                Ok(None)
            }
            Err(e) => Err(StreamError::Io {
                stage: "live-read",
                message: e.to_string(),
            }),
        }
    }

    fn finish(self) -> Result<(), StreamError> {
        match self.dropped {
            0 => Ok(()),
            dropped => Err(StreamError::ConsumerLagged {
                consumer: self.consumer,
                dropped,
            }),
        }
    }
}

/// Drain a live connection to its close and collect what arrived.
pub fn capture<R: Read>(src: R) -> Result<CapturedStream, IoError> {
    let mut reader = LiveReader::new(src)?;
    let mut captured = CapturedStream::default();
    while let Some(frame) = reader.next_frame()? {
        match frame {
            Frame::Record(r) => captured.records.push(r),
            Frame::Gap { dropped } => captured.gaps.push(dropped),
            Frame::End { emitted } => captured.end = Some(emitted),
        }
    }
    Ok(captured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{Timestamp, UeId};

    fn rec(t: u64, ue: u32) -> TraceRecord {
        TraceRecord::new(
            Timestamp::from_millis(t),
            UeId(ue),
            cn_trace::DeviceType::Phone,
            cn_trace::EventType::Attach,
        )
    }

    #[test]
    fn frames_round_trip() {
        for frame in [
            Frame::Record(rec(123_456, 7)),
            Frame::Gap { dropped: 42 },
            Frame::End { emitted: u64::MAX },
            Frame::Gap { dropped: 0 },
        ] {
            assert_eq!(decode_frame(&encode_frame(&frame)).unwrap(), frame);
        }
    }

    #[test]
    fn markers_do_not_shadow_any_valid_record() {
        // A record frame can never decode as a marker: marker device
        // codes are outside the valid record range, so a frame with
        // device 0xFE/0xFF and ue != MAX is corruption, not a marker.
        let mut bad = encode_marker(GAP_CODE, 1);
        bad[8..12].copy_from_slice(&7u32.to_le_bytes());
        assert!(decode_frame(&bad).is_err());
    }

    #[test]
    fn capture_splits_records_gaps_and_end() {
        let mut wire: Vec<u8> = Vec::new();
        wire.extend_from_slice(BINARY_MAGIC);
        wire.extend_from_slice(&0u64.to_le_bytes());
        for frame in [
            Frame::Record(rec(1, 0)),
            Frame::Gap { dropped: 3 },
            Frame::Record(rec(2, 1)),
            Frame::End { emitted: 5 },
        ] {
            wire.extend_from_slice(&encode_frame(&frame));
        }
        let captured = capture(&wire[..]).unwrap();
        assert_eq!(captured.records, vec![rec(1, 0), rec(2, 1)]);
        assert_eq!(captured.gaps, vec![3]);
        assert_eq!(captured.end, Some(5));
        assert_eq!(
            captured.verdict(9),
            Err(StreamError::ConsumerLagged {
                consumer: 9,
                dropped: 3
            })
        );
    }

    #[test]
    fn torn_tail_is_a_typed_error_not_a_shorter_stream() {
        let mut wire: Vec<u8> = Vec::new();
        wire.extend_from_slice(BINARY_MAGIC);
        wire.extend_from_slice(&0u64.to_le_bytes());
        wire.extend_from_slice(&encode_frame(&Frame::Record(rec(1, 0))));
        wire.extend_from_slice(&encode_frame(&Frame::Record(rec(2, 0)))[..5]);
        assert!(capture(&wire[..]).is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let wire = [0u8; 16];
        assert!(LiveReader::new(&wire[..]).is_err());
    }

    #[test]
    fn record_source_adapter_keeps_the_containment_contract() {
        let mut wire: Vec<u8> = Vec::new();
        wire.extend_from_slice(BINARY_MAGIC);
        wire.extend_from_slice(&0u64.to_le_bytes());
        for frame in [
            Frame::Record(rec(1, 0)),
            Frame::Gap { dropped: 3 },
            Frame::Record(rec(2, 1)),
            Frame::End { emitted: 6 },
        ] {
            wire.extend_from_slice(&encode_frame(&frame));
        }
        let mut source = LiveRecordSource::new(&wire[..], 4).unwrap();
        assert_eq!(source.try_next().unwrap(), Some(rec(1, 0)));
        // The gap surfaces as a typed error at its exact position...
        assert_eq!(
            source.try_next(),
            Err(StreamError::ConsumerLagged {
                consumer: 4,
                dropped: 3
            })
        );
        // ...and the stream continues honestly after it.
        assert_eq!(source.try_next().unwrap(), Some(rec(2, 1)));
        assert_eq!(source.try_next().unwrap(), None);
        // Exhausted stays exhausted.
        assert_eq!(source.try_next().unwrap(), None);
        // The terminal verdict remembers the loss.
        assert_eq!(
            source.finish(),
            Err(StreamError::ConsumerLagged {
                consumer: 4,
                dropped: 3
            })
        );
    }

    #[test]
    fn clean_record_source_finishes_ok() {
        let mut wire: Vec<u8> = Vec::new();
        wire.extend_from_slice(BINARY_MAGIC);
        wire.extend_from_slice(&0u64.to_le_bytes());
        for frame in [Frame::Record(rec(1, 0)), Frame::End { emitted: 1 }] {
            wire.extend_from_slice(&encode_frame(&frame));
        }
        let mut source = LiveRecordSource::new(&wire[..], 0).unwrap();
        assert_eq!(source.try_next().unwrap(), Some(rec(1, 0)));
        assert_eq!(source.try_next().unwrap(), None);
        assert!(source.finish().is_ok());
    }

    #[test]
    fn torn_tail_surfaces_as_typed_io_error() {
        let mut wire: Vec<u8> = Vec::new();
        wire.extend_from_slice(BINARY_MAGIC);
        wire.extend_from_slice(&0u64.to_le_bytes());
        wire.extend_from_slice(&encode_frame(&Frame::Record(rec(1, 0)))[..7]);
        let mut source = LiveRecordSource::new(&wire[..], 0).unwrap();
        assert!(matches!(
            source.try_next(),
            Err(StreamError::Io {
                stage: "live-read",
                ..
            })
        ));
    }
}
