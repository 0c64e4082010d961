//! Arena-encoded record blocks: events laid out in the on-disk binary
//! format at generation time.
//!
//! The binary trace format ([`crate::io`]) stores fixed 14-byte
//! little-endian records. An [`EncodedBlock`] is a flat byte arena with
//! that exact stride, filled by pushing [`TraceRecord`]s once; from then
//! on the block (or any whole-record prefix of it) moves through spill
//! files and the export sink **verbatim** — the out-of-core merge sorts
//! whole 14-byte records and the writer copies byte ranges; neither
//! re-encodes ([`crate::io::BinaryStreamWriter::write_encoded`]).
//!
//! Merging encoded runs needs an order without decoding full records:
//! [`crate::io::record_key_at`] reads an encoded record's
//! `TraceRecord::merge_key` in place — the bound a run is cut at and
//! the order its records are checked against.

use crate::io::{encode_record, RECORD_BYTES};
use crate::record::TraceRecord;

/// A growable arena of records already laid out in the binary trace
/// format (14-byte stride, little-endian, no header).
///
/// ```
/// use cn_trace::EncodedBlock;
/// use cn_trace::{DeviceType, EventType, Timestamp, TraceRecord, UeId};
/// let mut block = EncodedBlock::with_capacity(2);
/// let r = TraceRecord::new(Timestamp::from_millis(7), UeId(3), DeviceType::Phone, EventType::Attach);
/// block.push(&r);
/// assert_eq!(block.len(), 1);
/// assert_eq!(block.as_bytes().len(), 14);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EncodedBlock {
    bytes: Vec<u8>,
}

impl EncodedBlock {
    /// An empty block.
    pub fn new() -> EncodedBlock {
        EncodedBlock::default()
    }

    /// An empty block with room for `records` records.
    pub fn with_capacity(records: usize) -> EncodedBlock {
        EncodedBlock {
            bytes: Vec::with_capacity(records * RECORD_BYTES),
        }
    }

    /// Append one record, encoding it into the arena.
    #[inline]
    pub fn push(&mut self, r: &TraceRecord) {
        self.bytes.extend_from_slice(&encode_record(r));
    }

    /// Number of records in the block.
    pub fn len(&self) -> usize {
        self.bytes.len() / RECORD_BYTES
    }

    /// True when no records have been pushed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The encoded payload: `len() * 14` bytes, ready to write verbatim.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Drop all records, keeping the allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceType;
    use crate::event::EventType;
    use crate::record::UeId;
    use crate::time::Timestamp;

    fn rec(t: u64, ue: u32) -> TraceRecord {
        TraceRecord::new(
            Timestamp::from_millis(t),
            UeId(ue),
            DeviceType::Phone,
            EventType::Attach,
        )
    }

    #[test]
    fn push_matches_binary_writer_layout() {
        let records = [rec(100, 1), rec(u64::MAX >> 1, u32::MAX), rec(0, 0)];
        let mut block = EncodedBlock::new();
        for r in &records {
            block.push(r);
        }
        let mut cursor = std::io::Cursor::new(Vec::new());
        let mut w = crate::io::BinaryStreamWriter::new(&mut cursor).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        // Skip the 16-byte header; the payload must be byte-identical.
        assert_eq!(block.as_bytes(), &cursor.into_inner()[16..]);
        assert_eq!(block.len(), records.len());
    }

    #[test]
    fn clear_keeps_capacity_and_empties() {
        let mut block = EncodedBlock::with_capacity(4);
        block.push(&rec(1, 1));
        assert!(!block.is_empty());
        block.clear();
        assert!(block.is_empty());
        assert_eq!(block.len(), 0);
    }
}
