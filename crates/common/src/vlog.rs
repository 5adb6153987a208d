//! Value-log primitives for key-value separation (the WiscKey/BVLSM line).
//!
//! Values at or above [`StoreOptions::value_separation_threshold`]
//! (crate::options::StoreOptions) are appended to per-column-family
//! value-log files at commit time; the LSM itself (memtables and sstables)
//! stores a fixed-size [`ValuePointer`] in their place, tagged
//! [`ValueType::ValuePointer`](crate::key::ValueType). This module defines
//! the two on-disk encodings the engines share:
//!
//! * the 20-byte pointer stored in the tree, and
//! * the checksummed `[crc][key_len][val_len][key][value]` record stored in
//!   the `.vlog` file. The record repeats the user key so a garbage-collection
//!   pass can decide liveness (and a human can salvage a vlog) without
//!   consulting the tree.

use crate::coding::{decode_fixed32, decode_fixed64, put_fixed32, put_fixed64};
use crate::crc32c;
use crate::error::{Error, Result};

/// Encoded size of a [`ValuePointer`]: two fixed64s and a fixed32.
pub const VALUE_POINTER_LEN: usize = 20;

/// Size of the `[crc][key_len][val_len]` header that precedes every vlog
/// record's payload.
pub const VLOG_RECORD_HEADER: usize = 12;

/// The fixed-size tree-resident locator of a separated value.
///
/// `len` covers the *whole* record (header + key + value) so a reader can
/// fetch and verify a record with a single ranged read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValuePointer {
    /// Number of the `.vlog` file holding the record.
    pub file_number: u64,
    /// Byte offset of the record header within the file.
    pub offset: u64,
    /// Total record length in bytes (header included).
    pub len: u32,
}

impl ValuePointer {
    /// Encodes the pointer into its fixed 20-byte little-endian form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(VALUE_POINTER_LEN);
        put_fixed64(&mut out, self.file_number);
        put_fixed64(&mut out, self.offset);
        put_fixed32(&mut out, self.len);
        out
    }

    /// Decodes a pointer, rejecting payloads of the wrong size.
    pub fn decode(data: &[u8]) -> Result<ValuePointer> {
        if data.len() != VALUE_POINTER_LEN {
            return Err(Error::corruption(format!(
                "value pointer must be {VALUE_POINTER_LEN} bytes, got {}",
                data.len()
            )));
        }
        Ok(ValuePointer {
            file_number: decode_fixed64(&data[0..8]),
            offset: decode_fixed64(&data[8..16]),
            len: decode_fixed32(&data[16..20]),
        })
    }
}

/// High bit of the `val_len` header word: set when the stored value bytes
/// are compressed with the `pebblesdb-compress` codec. Records written
/// before compression existed always have it clear (their lengths never
/// reach 2 GiB), so old vlog files parse unchanged.
pub const VLOG_VALUE_COMPRESSED: u32 = 1 << 31;

/// Encodes one vlog record: `[crc32c u32][key_len u32][val_len u32][key][value]`.
///
/// The checksum covers the two length words and both payloads, so a torn or
/// misdirected read fails verification rather than returning garbage bytes.
pub fn encode_vlog_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    encode_vlog_record_with(key, value, false)
}

/// [`encode_vlog_record`] with an explicit compressed-value flag;
/// `stored_value` is the bytes as stored (already compressed when
/// `compressed` is set). The flag lives in the `val_len` word's high bit,
/// under the checksum.
pub fn encode_vlog_record_with(key: &[u8], stored_value: &[u8], compressed: bool) -> Vec<u8> {
    debug_assert!(stored_value.len() < VLOG_VALUE_COMPRESSED as usize);
    let mut body = Vec::with_capacity(8 + key.len() + stored_value.len());
    put_fixed32(&mut body, key.len() as u32);
    let mut val_len = stored_value.len() as u32;
    if compressed {
        val_len |= VLOG_VALUE_COMPRESSED;
    }
    put_fixed32(&mut body, val_len);
    body.extend_from_slice(key);
    body.extend_from_slice(stored_value);
    let mut out = Vec::with_capacity(4 + body.len());
    put_fixed32(&mut out, crc32c::mask(crc32c::crc32c(&body)));
    out.extend_from_slice(&body);
    out
}

/// Total encoded size of a record for a `(key, value)` pair.
pub fn vlog_record_len(key_len: usize, value_len: usize) -> usize {
    VLOG_RECORD_HEADER + key_len + value_len
}

/// One decoded vlog record, borrowing its payloads from the file image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlogRecord<'a> {
    /// The user key the record repeats for GC liveness checks.
    pub key: &'a [u8],
    /// The stored value bytes — compressed when [`VlogRecord::compressed`]
    /// is set; the reader must decompress before handing them out.
    pub value: &'a [u8],
    /// Whether `value` is compressed with the workspace codec.
    pub compressed: bool,
}

/// Decodes and checksum-verifies one record that starts at `data[0]`.
pub fn parse_vlog_record(data: &[u8]) -> Result<VlogRecord<'_>> {
    if data.len() < VLOG_RECORD_HEADER {
        return Err(Error::corruption("vlog record shorter than its header"));
    }
    let stored_crc = decode_fixed32(&data[0..4]);
    let key_len = decode_fixed32(&data[4..8]) as usize;
    let val_word = decode_fixed32(&data[8..12]);
    let compressed = val_word & VLOG_VALUE_COMPRESSED != 0;
    let val_len = (val_word & !VLOG_VALUE_COMPRESSED) as usize;
    let total = vlog_record_len(key_len, val_len);
    if data.len() < total {
        return Err(Error::corruption(format!(
            "vlog record truncated: need {total} bytes, have {}",
            data.len()
        )));
    }
    let body = &data[4..total];
    if crc32c::unmask(stored_crc) != crc32c::crc32c(body) {
        return Err(Error::corruption("vlog record checksum mismatch"));
    }
    let key = &data[VLOG_RECORD_HEADER..VLOG_RECORD_HEADER + key_len];
    let value = &data[VLOG_RECORD_HEADER + key_len..total];
    Ok(VlogRecord {
        key,
        value,
        compressed,
    })
}

/// Iterates the records of a whole vlog file image, yielding
/// `(offset, record, record_len)` per record.
///
/// A file that stops short of a record's length has ended, silently (a
/// crash mid-append; those bytes were never acknowledged), while a checksum
/// mismatch anywhere surfaces as an `Err`.
///
/// This is the one append-only file that is *not* a `pebblesdb_wal` record
/// log, by decision: a [`ValuePointer`] is `(file, offset, length)` and must
/// resolve with one ranged read of exactly the record, and the record log
/// fragments a record at every 32 KiB block boundary. So the value log keeps
/// its own unfragmented framing, and this scan — garbage collection's, the
/// only whole-file reader — its own, simpler end-of-file rule.
pub fn iter_vlog_records(data: &[u8]) -> VlogRecordIter<'_> {
    VlogRecordIter { data, offset: 0 }
}

/// Iterator state for [`iter_vlog_records`].
pub struct VlogRecordIter<'a> {
    data: &'a [u8],
    offset: usize,
}

impl<'a> Iterator for VlogRecordIter<'a> {
    type Item = Result<(u64, VlogRecord<'a>, u32)>;

    fn next(&mut self) -> Option<Self::Item> {
        let rest = &self.data[self.offset.min(self.data.len())..];
        if rest.len() < VLOG_RECORD_HEADER {
            return None;
        }
        let key_len = decode_fixed32(&rest[4..8]) as usize;
        let val_len = (decode_fixed32(&rest[8..12]) & !VLOG_VALUE_COMPRESSED) as usize;
        let total = vlog_record_len(key_len, val_len);
        if rest.len() < total {
            // Torn tail: the record's header landed but its payload did not.
            return None;
        }
        let offset = self.offset as u64;
        self.offset += total;
        match parse_vlog_record(rest) {
            Ok(record) => Some(Ok((offset, record, total as u32))),
            Err(err) => Some(Err(err)),
        }
    }
}

/// What a tree lookup found for a key: either the bytes themselves or a
/// pointer that still needs a vlog read to materialise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupValue {
    /// The value bytes were stored inline in the tree.
    Inline(Vec<u8>),
    /// The tree stored a pointer; resolve it through a [`ValueResolver`].
    Pointer(ValuePointer),
}

/// Resolves [`ValuePointer`]s into value bytes (implemented by the engine's
/// vlog reader; handed to iterators so cursors can surface separated values).
pub trait ValueResolver: Send + Sync {
    /// Reads, verifies and returns the value a pointer refers to.
    fn resolve(&self, pointer: &ValuePointer) -> Result<Vec<u8>>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_roundtrips_and_rejects_bad_sizes() {
        let pointer = ValuePointer {
            file_number: 42,
            offset: 1 << 33,
            len: 12345,
        };
        let encoded = pointer.encode();
        assert_eq!(encoded.len(), VALUE_POINTER_LEN);
        assert_eq!(ValuePointer::decode(&encoded).unwrap(), pointer);
        assert!(ValuePointer::decode(&encoded[..19]).is_err());
        assert!(ValuePointer::decode(&[0u8; 21]).is_err());
    }

    #[test]
    fn record_roundtrips() {
        let record = encode_vlog_record(b"key", b"some large value");
        assert_eq!(record.len(), vlog_record_len(3, 16));
        let parsed = parse_vlog_record(&record).unwrap();
        assert_eq!(parsed.key, b"key");
        assert_eq!(parsed.value, b"some large value");
        assert!(!parsed.compressed);
    }

    #[test]
    fn compressed_flag_roundtrips_under_the_checksum() {
        let record = encode_vlog_record_with(b"key", b"compressed-bytes", true);
        let parsed = parse_vlog_record(&record).unwrap();
        assert_eq!(parsed.key, b"key");
        assert_eq!(parsed.value, b"compressed-bytes");
        assert!(parsed.compressed);

        // Clearing the flag bit after encoding breaks the CRC: the flag is
        // an integrity-protected part of the record, not advisory.
        let mut tampered = record.clone();
        tampered[11] &= 0x7f; // high byte of the little-endian val_len word
        assert!(parse_vlog_record(&tampered).is_err());
    }

    #[test]
    fn corrupt_record_fails_checksum() {
        let mut record = encode_vlog_record(b"key", b"value-bytes");
        let last = record.len() - 1;
        record[last] ^= 0xff;
        assert!(parse_vlog_record(&record).is_err());
        assert!(parse_vlog_record(&record[..VLOG_RECORD_HEADER - 1]).is_err());
    }

    #[test]
    fn file_iteration_stops_at_torn_tail() {
        let mut file = encode_vlog_record(b"a", b"first");
        let second_offset = file.len() as u64;
        file.extend_from_slice(&encode_vlog_record(b"b", b"second"));
        // A torn third record: header promises more bytes than exist.
        let torn = encode_vlog_record(b"c", b"third-value");
        file.extend_from_slice(&torn[..torn.len() - 4]);

        let records: Vec<_> = iter_vlog_records(&file)
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0, 0);
        assert_eq!(records[0].1.key, b"a");
        assert_eq!(records[1].0, second_offset);
        assert_eq!(records[1].1.value, b"second");
    }

    #[test]
    fn file_iteration_surfaces_mid_file_corruption() {
        let mut file = encode_vlog_record(b"a", b"first");
        file[VLOG_RECORD_HEADER] ^= 0xff; // flip a key byte of record 0
        file.extend_from_slice(&encode_vlog_record(b"b", b"second"));
        let first = iter_vlog_records(&file).next().unwrap();
        assert!(first.is_err());
    }
}
