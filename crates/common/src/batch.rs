//! Write batches: atomically applied groups of puts and deletes.
//!
//! The on-disk representation matches the LevelDB family so the write-ahead
//! log payload is exactly a serialized batch:
//!
//! ```text
//! sequence: fixed64          first sequence number of the batch
//! count:    fixed32          number of records
//! records:  record*
//! record := kTypeValue      varstring(key) varstring(value)
//!         | kTypeDeletion   varstring(key)
//!         | kTypeCfValue    varint32(cf) varstring(key) varstring(value)
//!         | kTypeCfDeletion varint32(cf) varstring(key)
//! ```
//!
//! Records addressed at the default column family (id 0) use the original
//! two tags, so batches written before column families existed decode
//! unchanged and single-namespace batches carry zero encoding overhead. The
//! RocksDB-style `Cf*` tags prefix the record with a varint column-family
//! id; a single batch may mix records for several families and is still
//! applied atomically (one WAL record, one sequence range).

use crate::coding::put_length_prefixed_slice;
use crate::coding::{decode_fixed32, decode_fixed64, put_fixed32, put_fixed64, Decoder};
use crate::error::{Error, Result};
use crate::key::{SequenceNumber, ValueType, MAX_SEQUENCE_NUMBER};

/// The fixed-size batch header: 8-byte sequence plus 4-byte count.
pub const BATCH_HEADER_SIZE: usize = 12;

/// Identifier of a column family within a store; 0 is the default family.
pub type CfId = u32;

/// Record tag: a put into a non-default column family (varint cf id follows).
const TAG_CF_VALUE: u8 = 2;
/// Record tag: a delete in a non-default column family (varint cf id follows).
const TAG_CF_DELETION: u8 = 3;
/// Record tag: a value-pointer put in the default column family. The raw
/// [`ValueType::ValuePointer`] tag (2) cannot be used on the wire because it
/// collides with [`TAG_CF_VALUE`], so pointer records get their own tags.
const TAG_VALUE_POINTER: u8 = 4;
/// Record tag: a value-pointer put in a non-default column family.
const TAG_CF_VALUE_POINTER: u8 = 5;

/// A re-orderable group of updates applied to a store atomically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteBatch {
    rep: Vec<u8>,
}

impl Default for WriteBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        let mut rep = Vec::with_capacity(64);
        put_fixed64(&mut rep, 0);
        put_fixed32(&mut rep, 0);
        WriteBatch { rep }
    }

    /// Reconstructs a batch from its serialized representation.
    pub fn from_contents(contents: Vec<u8>) -> Result<Self> {
        if contents.len() < BATCH_HEADER_SIZE {
            return Err(Error::corruption("write batch too small"));
        }
        let batch = WriteBatch { rep: contents };
        // Record `i` carries `sequence() + i`: a header from a WAL or a
        // replication frame whose range leaves the sequence space is refused
        // here, once, so `last_sequence` and the iterator cannot overflow.
        match batch.sequence().checked_add(u64::from(batch.count())) {
            Some(end) if end <= MAX_SEQUENCE_NUMBER => Ok(batch),
            _ => Err(Error::corruption("write batch sequences out of range")),
        }
    }

    /// Adds a `put` of `key -> value` to the batch.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.put_cf(0, key, value);
    }

    /// Adds a deletion of `key` to the batch.
    pub fn delete(&mut self, key: &[u8]) {
        self.delete_cf(0, key);
    }

    /// Adds a `put` of `key -> value` addressed at column family `cf`.
    ///
    /// Family 0 uses the legacy tag so single-namespace batches are
    /// byte-identical to the pre-column-family encoding.
    pub fn put_cf(&mut self, cf: CfId, key: &[u8], value: &[u8]) {
        self.set_count(self.count() + 1);
        if cf == 0 {
            self.rep.push(ValueType::Value as u8);
        } else {
            self.rep.push(TAG_CF_VALUE);
            crate::coding::put_varint32(&mut self.rep, cf);
        }
        put_length_prefixed_slice(&mut self.rep, key);
        put_length_prefixed_slice(&mut self.rep, value);
    }

    /// Adds a value-pointer record: `key` maps to `encoded_pointer`, the
    /// fixed-size [`crate::vlog::ValuePointer`] encoding of a value that the
    /// engine's key-value separation path appended to a value-log file.
    ///
    /// Only the engines build these (during commit-time separation and vlog
    /// garbage collection); user-facing batches never contain them.
    pub fn put_pointer_cf(&mut self, cf: CfId, key: &[u8], encoded_pointer: &[u8]) {
        debug_assert_eq!(encoded_pointer.len(), crate::vlog::VALUE_POINTER_LEN);
        self.set_count(self.count() + 1);
        if cf == 0 {
            self.rep.push(TAG_VALUE_POINTER);
        } else {
            self.rep.push(TAG_CF_VALUE_POINTER);
            crate::coding::put_varint32(&mut self.rep, cf);
        }
        put_length_prefixed_slice(&mut self.rep, key);
        put_length_prefixed_slice(&mut self.rep, encoded_pointer);
    }

    /// Adds a deletion of `key` addressed at column family `cf`.
    pub fn delete_cf(&mut self, cf: CfId, key: &[u8]) {
        self.set_count(self.count() + 1);
        if cf == 0 {
            self.rep.push(ValueType::Deletion as u8);
        } else {
            self.rep.push(TAG_CF_DELETION);
            crate::coding::put_varint32(&mut self.rep, cf);
        }
        put_length_prefixed_slice(&mut self.rep, key);
    }

    /// Re-addresses every default-family record at `cf`, leaving records
    /// with an explicit family untouched.
    ///
    /// This is how a [`ColumnFamilyHandle`](crate::cf::ColumnFamilyHandle)
    /// applies a plain batch to its own namespace: code written against the
    /// single-namespace `KvStore` API keeps building batches with
    /// [`WriteBatch::put`]/[`WriteBatch::delete`] and the handle retargets
    /// them on write. Takes the batch by value so that retargeting at the
    /// default family — every write through a `default_cf()` handle — is the
    /// identity move, not a copy of the payload.
    pub fn retarget_default_cf(self, cf: CfId) -> Result<WriteBatch> {
        if cf == 0 {
            return Ok(self);
        }
        let mut out = WriteBatch::new();
        out.set_sequence(self.sequence());
        for record in self.iter() {
            let record = record?;
            let target = if record.cf == 0 { cf } else { record.cf };
            match record.value_type {
                ValueType::Value => out.put_cf(target, record.key, record.value),
                ValueType::Deletion => out.delete_cf(target, record.key),
                ValueType::ValuePointer => out.put_pointer_cf(target, record.key, record.value),
            }
        }
        Ok(out)
    }

    /// Removes every record, returning the batch to its freshly-created state.
    pub fn clear(&mut self) {
        self.rep.truncate(0);
        put_fixed64(&mut self.rep, 0);
        put_fixed32(&mut self.rep, 0);
    }

    /// Number of records in the batch.
    pub fn count(&self) -> u32 {
        decode_fixed32(&self.rep[8..12])
    }

    /// Returns `true` if the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The sequence number assigned to the first record of the batch.
    pub fn sequence(&self) -> SequenceNumber {
        decode_fixed64(&self.rep[..8])
    }

    /// The sequence number of the batch's last record. An empty batch
    /// occupies no sequence slot and reports its base sequence.
    pub fn last_sequence(&self) -> SequenceNumber {
        self.sequence() + u64::from(self.count()).saturating_sub(1)
    }

    /// Sets the sequence number of the first record.
    pub fn set_sequence(&mut self, seq: SequenceNumber) {
        self.rep[..8].copy_from_slice(&seq.to_le_bytes());
    }

    /// The serialized representation (also the WAL payload).
    pub fn contents(&self) -> &[u8] {
        &self.rep
    }

    /// Approximate in-memory/on-log size of the batch in bytes.
    pub fn approximate_size(&self) -> usize {
        self.rep.len()
    }

    /// Appends all records of `other` to this batch.
    pub fn append(&mut self, other: &WriteBatch) {
        self.set_count(self.count() + other.count());
        self.rep.extend_from_slice(&other.rep[BATCH_HEADER_SIZE..]);
    }

    /// Iterates over the records of the batch in insertion order.
    ///
    /// Each record is reported with the sequence number it will carry once
    /// the batch's starting sequence is applied.
    pub fn iter(&self) -> WriteBatchIter<'_> {
        WriteBatchIter {
            decoder: Decoder::new(&self.rep[BATCH_HEADER_SIZE..]),
            next_sequence: self.sequence(),
            remaining: self.count(),
        }
    }

    /// Verifies the batch decodes cleanly, returning the record count.
    pub fn verify(&self) -> Result<u32> {
        let mut n = 0;
        for record in self.iter() {
            record?;
            n += 1;
        }
        if n != self.count() {
            return Err(Error::corruption(format!(
                "write batch count mismatch: header says {}, found {}",
                self.count(),
                n
            )));
        }
        Ok(n)
    }

    fn set_count(&mut self, count: u32) {
        self.rep[8..12].copy_from_slice(&count.to_le_bytes());
    }
}

/// A single decoded record within a [`WriteBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord<'a> {
    /// The sequence number this record is applied at.
    pub sequence: SequenceNumber,
    /// The column family this record is addressed at (0 = default).
    pub cf: CfId,
    /// Whether this is a put or a delete.
    pub value_type: ValueType,
    /// The user key.
    pub key: &'a [u8],
    /// The value (empty for deletions).
    pub value: &'a [u8],
}

/// Iterator over the records of a [`WriteBatch`].
pub struct WriteBatchIter<'a> {
    decoder: Decoder<'a>,
    next_sequence: SequenceNumber,
    remaining: u32,
}

impl<'a> Iterator for WriteBatchIter<'a> {
    type Item = Result<BatchRecord<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return if self.decoder.is_empty() {
                None
            } else {
                Some(Err(Error::corruption("trailing bytes in write batch")))
            };
        }
        if self.decoder.is_empty() {
            self.remaining = 0;
            return Some(Err(Error::corruption("write batch ended early")));
        }
        self.remaining -= 1;
        let seq = self.next_sequence;
        self.next_sequence += 1;
        Some(self.decode_one(seq))
    }
}

impl<'a> WriteBatchIter<'a> {
    fn decode_one(&mut self, sequence: SequenceNumber) -> Result<BatchRecord<'a>> {
        let tag = self.decoder.read_bytes(1)?[0];
        let (value_type, cf) = match tag {
            TAG_CF_VALUE => (ValueType::Value, self.decoder.read_varint32()?),
            TAG_CF_DELETION => (ValueType::Deletion, self.decoder.read_varint32()?),
            TAG_VALUE_POINTER => (ValueType::ValuePointer, 0),
            TAG_CF_VALUE_POINTER => (ValueType::ValuePointer, self.decoder.read_varint32()?),
            // The raw `ValueType` tags 0 and 1 (legacy default-family put and
            // delete). Tag 2 never reaches this arm: it is TAG_CF_VALUE above.
            _ => (
                ValueType::from_u8(tag)
                    .filter(|vt| *vt != ValueType::ValuePointer)
                    .ok_or_else(|| Error::corruption(format!("unknown write batch tag {tag}")))?,
                0,
            ),
        };
        let key = self.decoder.read_length_prefixed_slice()?;
        let value = match value_type {
            ValueType::Value | ValueType::ValuePointer => {
                self.decoder.read_length_prefixed_slice()?
            }
            ValueType::Deletion => &[],
        };
        Ok(BatchRecord {
            sequence,
            cf,
            value_type,
            key,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_has_no_records() {
        let batch = WriteBatch::new();
        assert_eq!(batch.count(), 0);
        assert!(batch.is_empty());
        assert_eq!(batch.iter().count(), 0);
        assert_eq!(batch.verify().unwrap(), 0);
    }

    #[test]
    fn last_sequence_is_the_final_records_slot() {
        let mut batch = WriteBatch::new();
        batch.set_sequence(7);
        assert_eq!(
            batch.last_sequence(),
            7,
            "an empty batch must not underflow"
        );
        batch.put(b"a", b"1");
        assert_eq!(batch.last_sequence(), 7);
        batch.delete(b"b");
        batch.put(b"c", b"3");
        assert_eq!(batch.last_sequence(), 9);
        assert_eq!(WriteBatch::new().last_sequence(), 0);
    }

    /// A header whose records would be numbered past the sequence space — a
    /// debug-build panic and a release-build wrap in `last_sequence` and the
    /// iterator — is refused where outside bytes become a batch.
    #[test]
    fn a_sequence_range_that_leaves_the_sequence_space_is_corruption() {
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"1");
        batch.put(b"b", b"2");
        for base in [u64::MAX, u64::MAX - 1, MAX_SEQUENCE_NUMBER - 1] {
            batch.set_sequence(base);
            let decoded = WriteBatch::from_contents(batch.contents().to_vec());
            assert!(decoded.unwrap_err().is_corruption(), "base {base}");
        }
        batch.set_sequence(MAX_SEQUENCE_NUMBER - 2);
        let decoded = WriteBatch::from_contents(batch.contents().to_vec()).unwrap();
        assert_eq!(decoded.last_sequence(), MAX_SEQUENCE_NUMBER - 1);
        assert_eq!(decoded.iter().count(), 2);
    }

    #[test]
    fn puts_and_deletes_roundtrip() {
        let mut batch = WriteBatch::new();
        batch.put(b"alpha", b"1");
        batch.delete(b"beta");
        batch.put(b"gamma", b"3");
        batch.set_sequence(100);

        let records: Vec<_> = batch.iter().map(|r| r.unwrap()).collect();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].key, b"alpha");
        assert_eq!(records[0].value, b"1");
        assert_eq!(records[0].sequence, 100);
        assert_eq!(records[0].value_type, ValueType::Value);
        assert_eq!(records[1].key, b"beta");
        assert_eq!(records[1].value_type, ValueType::Deletion);
        assert_eq!(records[1].sequence, 101);
        assert_eq!(records[2].sequence, 102);
    }

    #[test]
    fn serialization_roundtrips_through_contents() {
        let mut batch = WriteBatch::new();
        batch.put(b"k", b"v");
        batch.set_sequence(9);
        let restored = WriteBatch::from_contents(batch.contents().to_vec()).unwrap();
        assert_eq!(restored.count(), 1);
        assert_eq!(restored.sequence(), 9);
        let rec = restored.iter().next().unwrap().unwrap();
        assert_eq!(rec.key, b"k");
        assert_eq!(rec.value, b"v");
    }

    #[test]
    fn append_merges_batches() {
        let mut a = WriteBatch::new();
        a.put(b"one", b"1");
        let mut b = WriteBatch::new();
        b.put(b"two", b"2");
        b.delete(b"three");
        a.append(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.verify().unwrap(), 3);
    }

    /// `append` bookkeeping: the merged count is the exact sum and the
    /// merged size is both batches' payloads behind a single header, for
    /// empty, plain and column-family-tagged operands alike.
    #[test]
    fn append_keeps_count_and_size_bookkeeping_exact() {
        let mut a = WriteBatch::new();
        a.put(b"one", b"1");
        a.put_cf(7, b"seven", b"77");
        let mut b = WriteBatch::new();
        b.delete_cf(300, b"big-id");
        b.put(b"plain", b"p");
        let (a_size, b_size) = (a.approximate_size(), b.approximate_size());

        a.append(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.verify().unwrap(), 4);
        // One header was dropped in the merge; every payload byte survives.
        assert_eq!(a.approximate_size(), a_size + b_size - BATCH_HEADER_SIZE);
        // Records keep their family and order across the merge.
        let cfs: Vec<u32> = a.iter().map(|r| r.unwrap().cf).collect();
        assert_eq!(cfs, vec![0, 7, 300, 0]);

        // Appending an empty batch is a no-op for both count and size.
        let before = (a.count(), a.approximate_size());
        a.append(&WriteBatch::new());
        assert_eq!((a.count(), a.approximate_size()), before);
    }

    #[test]
    fn cf_records_roundtrip_and_default_cf_encoding_is_legacy() {
        let mut batch = WriteBatch::new();
        batch.put(b"k", b"v");
        // The default family uses the original tag bytes: the encoding is
        // identical to a pre-column-family batch.
        let mut legacy = WriteBatch::new();
        legacy.put(b"k", b"v");
        assert_eq!(batch.contents(), legacy.contents());

        batch.put_cf(3, b"ck", b"cv");
        batch.delete_cf(3, b"ck2");
        batch.delete(b"k2");
        batch.set_sequence(10);
        let restored = WriteBatch::from_contents(batch.contents().to_vec()).unwrap();
        let records: Vec<_> = restored.iter().map(|r| r.unwrap()).collect();
        assert_eq!(records.len(), 4);
        assert_eq!((records[0].cf, records[0].key), (0, &b"k"[..]));
        assert_eq!((records[1].cf, records[1].key), (3, &b"ck"[..]));
        assert_eq!(records[1].value, b"cv");
        assert_eq!(records[2].cf, 3);
        assert_eq!(records[2].value_type, ValueType::Deletion);
        assert_eq!((records[3].cf, records[3].sequence), (0, 13));
    }

    #[test]
    fn retarget_default_cf_moves_only_untagged_records() {
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"1");
        batch.put_cf(5, b"b", b"2");
        batch.delete(b"c");
        batch.set_sequence(99);
        let retargeted = batch.clone().retarget_default_cf(2).unwrap();
        assert_eq!(retargeted.count(), 3);
        assert_eq!(retargeted.sequence(), 99);
        let cfs: Vec<u32> = retargeted.iter().map(|r| r.unwrap().cf).collect();
        assert_eq!(cfs, vec![2, 5, 2]);
        // Retargeting at the default family is the identity.
        assert_eq!(
            batch.clone().retarget_default_cf(0).unwrap().contents(),
            batch.contents()
        );
    }

    /// Every write through a default-family handle retargets at id 0; that
    /// must hand the same buffer back, not a copy of the payload.
    #[test]
    fn retarget_at_the_default_family_moves_the_batch() {
        let mut batch = WriteBatch::new();
        batch.put(b"key", &[b'v'; 4096]);
        let buffer = batch.contents().as_ptr();
        let retargeted = batch.retarget_default_cf(0).unwrap();
        assert_eq!(retargeted.contents().as_ptr(), buffer);
    }

    #[test]
    fn pointer_records_roundtrip_in_both_families() {
        let pointer = crate::vlog::ValuePointer {
            file_number: 12,
            offset: 4096,
            len: 1044,
        }
        .encode();
        let mut batch = WriteBatch::new();
        batch.put_pointer_cf(0, b"big0", &pointer);
        batch.put_pointer_cf(9, b"big9", &pointer);
        batch.put(b"small", b"inline");
        batch.set_sequence(40);

        let restored = WriteBatch::from_contents(batch.contents().to_vec()).unwrap();
        let records: Vec<_> = restored.iter().map(|r| r.unwrap()).collect();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].value_type, ValueType::ValuePointer);
        assert_eq!((records[0].cf, records[0].key), (0, &b"big0"[..]));
        assert_eq!(records[0].value, pointer.as_slice());
        assert_eq!(records[1].value_type, ValueType::ValuePointer);
        assert_eq!(records[1].cf, 9);
        assert_eq!(records[2].value_type, ValueType::Value);

        // Retargeting preserves pointer records.
        let retargeted = batch.clone().retarget_default_cf(5).unwrap();
        let recs: Vec<_> = retargeted.iter().map(|r| r.unwrap()).collect();
        assert_eq!(recs[0].cf, 5);
        assert_eq!(recs[0].value_type, ValueType::ValuePointer);
        assert_eq!(recs[0].value, pointer.as_slice());

        // Merging via append keeps pointer records byte-identical.
        let mut merged = WriteBatch::new();
        merged.put(b"x", b"y");
        merged.append(&batch);
        assert_eq!(merged.verify().unwrap(), 4);
    }

    #[test]
    fn clear_resets_batch() {
        let mut batch = WriteBatch::new();
        batch.put(b"k", b"v");
        batch.set_sequence(55);
        batch.clear();
        assert_eq!(batch.count(), 0);
        assert_eq!(batch.sequence(), 0);
        assert_eq!(batch.contents().len(), BATCH_HEADER_SIZE);
    }

    #[test]
    fn corrupt_count_is_detected() {
        let mut batch = WriteBatch::new();
        batch.put(b"k", b"v");
        let mut contents = batch.contents().to_vec();
        contents[8..12].copy_from_slice(&5u32.to_le_bytes());
        let corrupt = WriteBatch::from_contents(contents).unwrap();
        assert!(corrupt.verify().is_err());
    }

    #[test]
    fn too_small_contents_rejected() {
        assert!(WriteBatch::from_contents(vec![0u8; 4]).is_err());
    }
}
