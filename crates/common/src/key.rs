//! Internal key encoding and ordering.
//!
//! Every engine in the workspace stores *internal keys*: the user key
//! followed by an eight-byte trailer packing a 56-bit sequence number and an
//! 8-bit value type. Internal keys order by user key ascending, then sequence
//! number descending (newest first), then value type descending — exactly the
//! LevelDB ordering the paper's implementation inherits.

use std::cmp::Ordering;
use std::fmt;

use crate::coding::{decode_fixed64, put_fixed64, put_varint32};

/// Monotonically increasing version number assigned to every write.
pub type SequenceNumber = u64;

/// The largest sequence number that can be packed into the trailer.
pub const MAX_SEQUENCE_NUMBER: SequenceNumber = (1 << 56) - 1;

/// The kind of record an internal key refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueType {
    /// A tombstone: the key was deleted at this sequence number.
    Deletion = 0,
    /// A regular value.
    Value = 1,
    /// An indirect value: the record's payload is an encoded
    /// [`ValuePointer`](crate::vlog::ValuePointer) into a value-log file,
    /// not the user's bytes. Written by the engines' key-value separation
    /// path; never constructed by user batches.
    ValuePointer = 2,
}

impl ValueType {
    /// Decodes a value type from its on-disk tag.
    pub fn from_u8(tag: u8) -> Option<ValueType> {
        match tag {
            0 => Some(ValueType::Deletion),
            1 => Some(ValueType::Value),
            2 => Some(ValueType::ValuePointer),
            _ => None,
        }
    }
}

/// The value type used when constructing seek targets.
///
/// Because sequence numbers sort in decreasing order inside the trailer, the
/// highest-tag value type is used so a lookup key positions *before* any
/// entry with the same user key and sequence number.
pub const VALUE_TYPE_FOR_SEEK: ValueType = ValueType::ValuePointer;

/// Packs a sequence number and a value type into the 8-byte trailer.
pub fn pack_sequence_and_type(seq: SequenceNumber, value_type: ValueType) -> u64 {
    debug_assert!(seq <= MAX_SEQUENCE_NUMBER, "sequence number overflow");
    (seq << 8) | value_type as u64
}

/// Appends the encoded internal key for `(user_key, seq, value_type)` to `dst`.
pub fn append_internal_key(
    dst: &mut Vec<u8>,
    user_key: &[u8],
    seq: SequenceNumber,
    value_type: ValueType,
) {
    dst.extend_from_slice(user_key);
    put_fixed64(dst, pack_sequence_and_type(seq, value_type));
}

/// Builds the encoded internal key for `(user_key, seq, value_type)`.
pub fn encode_internal_key(user_key: &[u8], seq: SequenceNumber, value_type: ValueType) -> Vec<u8> {
    let mut out = Vec::with_capacity(user_key.len() + 8);
    append_internal_key(&mut out, user_key, seq, value_type);
    out
}

/// Extracts the user-key portion of an encoded internal key.
///
/// # Panics
///
/// Panics if `internal_key` is shorter than the 8-byte trailer.
#[inline]
pub fn extract_user_key(internal_key: &[u8]) -> &[u8] {
    assert!(internal_key.len() >= 8, "internal key too short");
    &internal_key[..internal_key.len() - 8]
}

/// A borrowed, decoded view of an internal key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedInternalKey<'a> {
    /// The user-supplied key bytes.
    pub user_key: &'a [u8],
    /// The sequence number of the write.
    pub sequence: SequenceNumber,
    /// Whether the record is a value or a tombstone.
    pub value_type: ValueType,
}

/// Parses an encoded internal key, returning `None` if it is malformed.
pub fn parse_internal_key(internal_key: &[u8]) -> Option<ParsedInternalKey<'_>> {
    if internal_key.len() < 8 {
        return None;
    }
    let split = internal_key.len() - 8;
    let trailer = decode_fixed64(&internal_key[split..]);
    let value_type = ValueType::from_u8((trailer & 0xff) as u8)?;
    Some(ParsedInternalKey {
        user_key: &internal_key[..split],
        sequence: trailer >> 8,
        value_type,
    })
}

/// Compares two encoded internal keys.
///
/// Ordering: user key ascending, then trailer (sequence, type) descending, so
/// that for equal user keys the newest record comes first.
#[inline]
pub fn compare_internal_keys(a: &[u8], b: &[u8]) -> Ordering {
    let ua = extract_user_key(a);
    let ub = extract_user_key(b);
    match ua.cmp(ub) {
        Ordering::Equal => {
            let ta = decode_fixed64(&a[a.len() - 8..]);
            let tb = decode_fixed64(&b[b.len() - 8..]);
            tb.cmp(&ta)
        }
        other => other,
    }
}

/// An owned encoded internal key.
///
/// The engines store these in file metadata (smallest/largest key per
/// sstable) and in guard metadata; ordering follows
/// [`compare_internal_keys`].
#[derive(Clone, PartialEq, Eq, Default)]
pub struct InternalKey {
    encoded: Vec<u8>,
}

impl InternalKey {
    /// Builds an internal key from its parts.
    pub fn new(user_key: &[u8], seq: SequenceNumber, value_type: ValueType) -> Self {
        InternalKey {
            encoded: encode_internal_key(user_key, seq, value_type),
        }
    }

    /// Wraps an already-encoded internal key.
    pub fn from_encoded(encoded: Vec<u8>) -> Self {
        debug_assert!(encoded.is_empty() || encoded.len() >= 8);
        InternalKey { encoded }
    }

    /// Returns the encoded representation.
    pub fn encoded(&self) -> &[u8] {
        &self.encoded
    }

    /// Returns the user-key portion.
    pub fn user_key(&self) -> &[u8] {
        extract_user_key(&self.encoded)
    }

    /// Returns `true` if no key has been set.
    pub fn is_empty(&self) -> bool {
        self.encoded.is_empty()
    }

    /// Returns the decoded sequence number.
    pub fn sequence(&self) -> SequenceNumber {
        parse_internal_key(&self.encoded)
            .map(|parsed| parsed.sequence)
            .unwrap_or(0)
    }
}

impl fmt::Debug for InternalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match parse_internal_key(&self.encoded) {
            Some(parsed) => write!(
                f,
                "InternalKey({:?} @ {} : {:?})",
                String::from_utf8_lossy(parsed.user_key),
                parsed.sequence,
                parsed.value_type
            ),
            None => write!(f, "InternalKey(<empty or malformed>)"),
        }
    }
}

impl PartialOrd for InternalKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InternalKey {
    fn cmp(&self, other: &Self) -> Ordering {
        compare_internal_keys(&self.encoded, &other.encoded)
    }
}

/// A lookup key: the internal key used as a seek target for a `get()`.
///
/// Positions at or before every record for `user_key` visible at `snapshot`.
/// Built once per `get` and read two ways, as in LevelDB: the memtables seek
/// with the framed form, the sstables with the bare internal key inside it.
#[derive(Debug, Clone)]
pub struct LookupKey {
    /// `varint32(internal key length) | user key | 8-byte trailer | 0` — a
    /// memtable entry with an empty value.
    framed: Vec<u8>,
    /// Where the internal key starts.
    start: usize,
}

impl LookupKey {
    /// Creates a lookup key for `user_key` at `snapshot`.
    pub fn new(user_key: &[u8], snapshot: SequenceNumber) -> Self {
        let mut framed = Vec::with_capacity(user_key.len() + 14);
        put_varint32(&mut framed, user_key.len() as u32 + 8);
        let start = framed.len();
        append_internal_key(&mut framed, user_key, snapshot, VALUE_TYPE_FOR_SEEK);
        framed.push(0);
        LookupKey { framed, start }
    }

    /// The seek target in a memtable's entry encoding.
    pub fn memtable_key(&self) -> &[u8] {
        &self.framed
    }

    /// The encoded internal key to seek with.
    pub fn internal_key(&self) -> &[u8] {
        &self.framed[self.start..self.framed.len() - 1]
    }

    /// The raw user key.
    pub fn user_key(&self) -> &[u8] {
        &self.framed[self.start..self.framed.len() - 9]
    }

    /// The snapshot sequence number of this lookup.
    pub fn sequence(&self) -> SequenceNumber {
        decode_fixed64(&self.framed[self.framed.len() - 9..]) >> 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_and_parse_roundtrip() {
        let key = encode_internal_key(b"user", 99, ValueType::Value);
        let parsed = parse_internal_key(&key).unwrap();
        assert_eq!(parsed.user_key, b"user");
        assert_eq!(parsed.sequence, 99);
        assert_eq!(parsed.value_type, ValueType::Value);
    }

    #[test]
    fn tombstones_parse() {
        let key = encode_internal_key(b"gone", 7, ValueType::Deletion);
        let parsed = parse_internal_key(&key).unwrap();
        assert_eq!(parsed.value_type, ValueType::Deletion);
    }

    #[test]
    fn malformed_keys_are_rejected() {
        assert!(parse_internal_key(b"short").is_none());
        let mut key = encode_internal_key(b"k", 1, ValueType::Value);
        let last = key.len() - 8;
        key[last] = 99; // Invalid value-type tag.
        assert!(parse_internal_key(&key).is_none());
    }

    #[test]
    fn ordering_is_user_key_then_descending_sequence() {
        let a = encode_internal_key(b"aaa", 5, ValueType::Value);
        let b = encode_internal_key(b"bbb", 1, ValueType::Value);
        assert_eq!(compare_internal_keys(&a, &b), Ordering::Less);

        let newer = encode_internal_key(b"same", 10, ValueType::Value);
        let older = encode_internal_key(b"same", 2, ValueType::Value);
        assert_eq!(compare_internal_keys(&newer, &older), Ordering::Less);
        assert_eq!(compare_internal_keys(&older, &newer), Ordering::Greater);
    }

    #[test]
    fn deletion_sorts_after_value_at_same_sequence() {
        // Trailer orders descending; Value (1) > Deletion (0), so Value first.
        let value = encode_internal_key(b"k", 5, ValueType::Value);
        let deletion = encode_internal_key(b"k", 5, ValueType::Deletion);
        assert_eq!(compare_internal_keys(&value, &deletion), Ordering::Less);
    }

    #[test]
    fn lookup_key_exposes_parts() {
        let lk = LookupKey::new(b"needle", 1234);
        assert_eq!(lk.user_key(), b"needle");
        assert_eq!(lk.sequence(), 1234);
        let parsed = parse_internal_key(lk.internal_key()).unwrap();
        assert_eq!(parsed.user_key, b"needle");
        assert_eq!(parsed.sequence, 1234);
    }

    #[test]
    fn internal_key_debug_is_readable() {
        let key = InternalKey::new(b"abc", 3, ValueType::Value);
        let dbg = format!("{key:?}");
        assert!(dbg.contains("abc"));
        assert!(dbg.contains('3'));
    }

    #[test]
    fn seek_type_is_the_highest_tag() {
        // A lookup key at sequence `s` must position at-or-before every
        // record with sequence <= s, including pointer records; that only
        // holds if the seek type is the numerically largest tag.
        let lookup = LookupKey::new(b"k", 5);
        for value_type in [
            ValueType::Deletion,
            ValueType::Value,
            ValueType::ValuePointer,
        ] {
            let record = encode_internal_key(b"k", 5, value_type);
            assert_ne!(
                compare_internal_keys(lookup.internal_key(), &record),
                Ordering::Greater,
                "lookup must not sort after a same-sequence {value_type:?} record"
            );
        }
    }

    #[test]
    fn pointer_records_roundtrip() {
        let key = encode_internal_key(b"big", 42, ValueType::ValuePointer);
        let parsed = parse_internal_key(&key).unwrap();
        assert_eq!(parsed.value_type, ValueType::ValuePointer);
        assert_eq!(ValueType::from_u8(2), Some(ValueType::ValuePointer));
    }
}
