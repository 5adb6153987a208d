//! The memtable: an ordered in-memory buffer of recent writes.

use std::cmp::Ordering;

use pebblesdb_common::coding::{decode_varint32, put_varint32};
use pebblesdb_common::iterator::DbIterator;
use pebblesdb_common::key::{
    compare_internal_keys, pack_sequence_and_type, parse_internal_key, LookupKey, SequenceNumber,
    ValueType,
};
use pebblesdb_common::{Error, Result};

use crate::list::{SkipList, SkipListIterator};

/// An entry in the memtable's skip list encodes the internal key and value
/// into a single buffer:
///
/// ```text
/// varint32(internal_key_len) internal_key varint32(value_len) value
/// ```
fn encode_entry(
    user_key: &[u8],
    seq: SequenceNumber,
    value_type: ValueType,
    value: &[u8],
) -> Vec<u8> {
    let internal_key_len = user_key.len() + 8;
    let mut buf = Vec::with_capacity(internal_key_len + value.len() + 10);
    put_varint32(&mut buf, internal_key_len as u32);
    buf.extend_from_slice(user_key);
    buf.extend_from_slice(&pack_sequence_and_type(seq, value_type).to_le_bytes());
    put_varint32(&mut buf, value.len() as u32);
    buf.extend_from_slice(value);
    buf
}

/// Splits an encoded entry into its internal key and value.
fn decode_entry(entry: &[u8]) -> (&[u8], &[u8]) {
    let (klen, used) = decode_varint32(entry).expect("memtable entry corrupt");
    let key_start = used;
    let key_end = key_start + klen as usize;
    let (vlen, vused) = decode_varint32(&entry[key_end..]).expect("memtable entry corrupt");
    let value_start = key_end + vused;
    (
        &entry[key_start..key_end],
        &entry[value_start..value_start + vlen as usize],
    )
}

/// Orders encoded entries by their embedded internal key.
fn entry_comparator(a: &[u8], b: &[u8]) -> Ordering {
    let (ka, _) = decode_entry(a);
    let (kb, _) = decode_entry(b);
    compare_internal_keys(ka, kb)
}

/// The outcome of looking a key up in a memtable.
#[derive(Debug, PartialEq, Eq)]
pub enum MemTableGet {
    /// The key has a live value.
    Found(Vec<u8>),
    /// The key's value lives in a value-log file; the payload is the encoded
    /// [`ValuePointer`](pebblesdb_common::vlog::ValuePointer). The engine
    /// resolves it outside the state lock.
    FoundPointer(Vec<u8>),
    /// The key was deleted (tombstone); deeper levels must not be consulted.
    Deleted,
    /// The memtable holds no record of the key.
    NotFound,
}

/// An in-memory, sorted buffer of `(internal key, value)` entries.
///
/// The memtable is concurrent: [`MemTable::add`] takes `&self`, so the
/// active table lives behind a plain `Arc` shared by the writer, point
/// lookups, and long-lived cursors — no copy is ever taken. When the table
/// fills up the engine *freezes* it by moving the `Arc` into its immutable
/// slot and starting a fresh table; cursors that still pin the frozen table
/// keep streaming from it unchanged.
pub struct MemTable {
    list: SkipList,
}

impl Default for MemTable {
    fn default() -> Self {
        Self::new()
    }
}

impl MemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        MemTable {
            list: SkipList::new(entry_comparator),
        }
    }

    /// Adds a record.
    ///
    /// Safe to call while readers and cursors traverse the table; inserts
    /// are serialised internally (the engines funnel all writes through one
    /// group-commit leader anyway).
    pub fn add(&self, seq: SequenceNumber, value_type: ValueType, key: &[u8], value: &[u8]) {
        self.list.insert(&encode_entry(key, seq, value_type, value));
    }

    /// Number of records (including tombstones and superseded versions).
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Returns `true` if no records have been added.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Approximate memory used by the memtable.
    pub fn approximate_memory_usage(&self) -> usize {
        self.list.approximate_memory_usage()
    }

    /// Looks up the newest record for the lookup key's user key that is
    /// visible at its snapshot sequence number.
    pub fn get(&self, key: &LookupKey) -> MemTableGet {
        let mut iter = self.list.iter();
        iter.seek(key.memtable_key());
        if !iter.valid() {
            return MemTableGet::NotFound;
        }
        let (internal_key, value) = decode_entry(iter.key());
        match parse_internal_key(internal_key) {
            Some(parsed) if parsed.user_key == key.user_key() => match parsed.value_type {
                ValueType::Value => MemTableGet::Found(value.to_vec()),
                ValueType::ValuePointer => MemTableGet::FoundPointer(value.to_vec()),
                ValueType::Deletion => MemTableGet::Deleted,
            },
            _ => MemTableGet::NotFound,
        }
    }

    /// Creates an iterator yielding internal keys in sorted order.
    pub fn iter(&self) -> MemTableIterator<'_> {
        MemTableIterator {
            inner: self.list.iter(),
        }
    }

    /// Creates an owning iterator that keeps the memtable alive.
    ///
    /// Used by the engines' streaming cursors: the cursor outlives the
    /// database lock, so it pins the memtable through the `Arc` instead of a
    /// borrow. The skip list is append-only, so the cursor stays valid (and
    /// its snapshot-filtered view stays consistent) even while the writer
    /// keeps inserting into the same table.
    pub fn owned_iter(self: &std::sync::Arc<Self>) -> OwnedMemTableIterator {
        OwnedMemTableIterator {
            mem: std::sync::Arc::clone(self),
            node: u32::MAX,
        }
    }

    /// Validates the entry encoding of the whole table (used by tests).
    pub fn verify(&self) -> Result<()> {
        let mut iter = self.iter();
        iter.seek_to_first();
        while iter.valid() {
            parse_internal_key(iter.key())
                .ok_or_else(|| Error::corruption("memtable holds malformed internal key"))?;
            iter.next();
        }
        Ok(())
    }
}

/// Wraps a bare internal key in the entry encoding so it can be used as a
/// seek target against encoded entries.
fn encode_entry_for_seek(internal_key: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(internal_key.len() + 5);
    put_varint32(&mut buf, internal_key.len() as u32);
    buf.extend_from_slice(internal_key);
    // A zero-length value suffix keeps decode_entry happy.
    put_varint32(&mut buf, 0);
    buf
}

/// Iterator adapter exposing a memtable as a [`DbIterator`].
pub struct MemTableIterator<'a> {
    inner: SkipListIterator<'a>,
}

impl DbIterator for MemTableIterator<'_> {
    fn valid(&self) -> bool {
        self.inner.valid()
    }

    fn seek_to_first(&mut self) {
        self.inner.seek_to_first();
    }

    fn seek(&mut self, target: &[u8]) {
        self.inner.seek(&encode_entry_for_seek(target));
    }

    fn next(&mut self) {
        self.inner.next();
    }

    fn key(&self) -> &[u8] {
        decode_entry(self.inner.key()).0
    }

    fn value(&self) -> &[u8] {
        decode_entry(self.inner.key()).1
    }
}

/// An owning [`DbIterator`] over an `Arc<MemTable>`.
///
/// Stores a node index instead of a borrow, so it is `'static` and can be
/// boxed into an engine's public cursor. Node indices address an append-only
/// arena, so concurrent inserts into the pinned memtable never invalidate
/// the cursor's position.
pub struct OwnedMemTableIterator {
    mem: std::sync::Arc<MemTable>,
    node: u32,
}

impl DbIterator for OwnedMemTableIterator {
    fn valid(&self) -> bool {
        self.mem.list.index_valid(self.node)
    }

    fn seek_to_first(&mut self) {
        self.node = self.mem.list.first_index();
    }

    fn seek(&mut self, target: &[u8]) {
        self.node = self.mem.list.seek_index(&encode_entry_for_seek(target));
    }

    fn next(&mut self) {
        assert!(self.valid(), "next() on invalid memtable iterator");
        self.node = self.mem.list.next_index(self.node);
    }

    fn key(&self) -> &[u8] {
        decode_entry(self.mem.list.key_at(self.node)).0
    }

    fn value(&self) -> &[u8] {
        decode_entry(self.mem.list.key_at(self.node)).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `LookupKey` carries its own seek probe; it must be the one the
    /// iterators build from a bare internal key, long keys included.
    #[test]
    fn a_lookup_key_frames_itself_as_a_seek_probe() {
        for user_key in [&b""[..], b"k", &[b'x'; 300]] {
            let lookup = LookupKey::new(user_key, 77);
            assert_eq!(
                lookup.memtable_key(),
                encode_entry_for_seek(lookup.internal_key())
            );
            assert_eq!(lookup.user_key(), user_key);
            assert_eq!(lookup.sequence(), 77);
        }
    }

    #[test]
    fn get_returns_latest_visible_version() {
        let mem = MemTable::new();
        mem.add(1, ValueType::Value, b"k", b"v1");
        mem.add(5, ValueType::Value, b"k", b"v2");
        mem.add(9, ValueType::Value, b"k", b"v3");

        assert_eq!(
            mem.get(&LookupKey::new(b"k", 100)),
            MemTableGet::Found(b"v3".to_vec())
        );
        assert_eq!(
            mem.get(&LookupKey::new(b"k", 5)),
            MemTableGet::Found(b"v2".to_vec())
        );
        assert_eq!(
            mem.get(&LookupKey::new(b"k", 1)),
            MemTableGet::Found(b"v1".to_vec())
        );
    }

    #[test]
    fn tombstones_shadow_older_values() {
        let mem = MemTable::new();
        mem.add(1, ValueType::Value, b"k", b"v1");
        mem.add(2, ValueType::Deletion, b"k", b"");
        assert_eq!(mem.get(&LookupKey::new(b"k", 10)), MemTableGet::Deleted);
        assert_eq!(
            mem.get(&LookupKey::new(b"k", 1)),
            MemTableGet::Found(b"v1".to_vec())
        );
    }

    #[test]
    fn missing_keys_report_not_found() {
        let mem = MemTable::new();
        mem.add(1, ValueType::Value, b"aaa", b"1");
        mem.add(2, ValueType::Value, b"ccc", b"2");
        assert_eq!(mem.get(&LookupKey::new(b"bbb", 10)), MemTableGet::NotFound);
        assert_eq!(mem.get(&LookupKey::new(b"zzz", 10)), MemTableGet::NotFound);
    }

    #[test]
    fn iterator_yields_internal_keys_in_order() {
        let mem = MemTable::new();
        mem.add(3, ValueType::Value, b"b", b"vb");
        mem.add(1, ValueType::Value, b"a", b"va");
        mem.add(2, ValueType::Value, b"c", b"vc");

        let mut iter = mem.iter();
        iter.seek_to_first();
        let mut user_keys = Vec::new();
        while iter.valid() {
            let parsed = parse_internal_key(iter.key()).unwrap();
            user_keys.push(parsed.user_key.to_vec());
            iter.next();
        }
        assert_eq!(user_keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        assert!(mem.verify().is_ok());
    }

    #[test]
    fn iterator_seek_lands_on_user_key() {
        let mem = MemTable::new();
        for (i, k) in ["apple", "banana", "cherry"].iter().enumerate() {
            mem.add(i as u64 + 1, ValueType::Value, k.as_bytes(), b"x");
        }
        let mut iter = mem.iter();
        iter.seek(LookupKey::new(b"b", 100).internal_key());
        assert!(iter.valid());
        assert_eq!(parse_internal_key(iter.key()).unwrap().user_key, b"banana");
    }

    #[test]
    fn memory_usage_grows_with_inserts() {
        let mem = MemTable::new();
        let before = mem.approximate_memory_usage();
        for i in 0..100u32 {
            mem.add(
                i as u64,
                ValueType::Value,
                format!("key{i}").as_bytes(),
                &[0u8; 100],
            );
        }
        assert!(mem.approximate_memory_usage() > before + 100 * 100);
        assert_eq!(mem.len(), 100);
    }

    #[test]
    fn values_can_be_empty() {
        let mem = MemTable::new();
        mem.add(1, ValueType::Value, b"k", b"");
        assert_eq!(
            mem.get(&LookupKey::new(b"k", 10)),
            MemTableGet::Found(Vec::new())
        );
    }
}
