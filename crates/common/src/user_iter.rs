//! User-level cursors over internal-key iterators.
//!
//! Engine internals iterate over *internal* keys: every version of every
//! user key, tombstones included, ordered by (user key asc, sequence desc).
//! The public [`KvStore::iter`](crate::KvStore::iter) contract is a cursor
//! over *user* keys: one live value per key, as of a snapshot sequence.
//! [`UserIterator`] bridges the two, following the forward half of the
//! LevelDB `DBIter` design: entries newer than the snapshot are skipped,
//! tombstones hide older versions, and only the newest visible version of
//! each key is surfaced.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::iterator::DbIterator;
use crate::key::{
    encode_internal_key, parse_internal_key, SequenceNumber, ValueType, VALUE_TYPE_FOR_SEEK,
};
use crate::vlog::{ValuePointer, ValueResolver};

/// Adapts an internal-key [`DbIterator`] into a user-key cursor bounded by a
/// snapshot sequence number.
///
/// `seek` targets are plain user keys. `key()` returns the user key and
/// `value()` the newest value visible at the snapshot; deleted and
/// superseded versions are never surfaced. `inner` always sits on the entry
/// that defines `key()`.
pub struct UserIterator {
    inner: Box<dyn DbIterator>,
    sequence: SequenceNumber,
    valid: bool,
    /// The user key whose remaining versions `find_next_user_entry` skips.
    saved_key: Vec<u8>,
    /// Resolves value-pointer entries into their vlog bytes. Entries tagged
    /// [`ValueType::ValuePointer`] are resolved *eagerly* when the cursor
    /// lands on them (the `value()` contract returns a borrow, so resolution
    /// cannot be deferred to the accessor).
    resolver: Option<Arc<dyn ValueResolver>>,
    /// Holds the resolved bytes when the current entry is a pointer.
    resolved_value: Vec<u8>,
    /// Whether `value()` must read `resolved_value`.
    resolved: bool,
    /// First malformed internal key or failed pointer resolution seen; the
    /// cursor stops rather than silently skipping data.
    corruption: Option<Error>,
}

impl UserIterator {
    /// Wraps `inner`, exposing the view as of `sequence`.
    pub fn new(inner: Box<dyn DbIterator>, sequence: SequenceNumber) -> Self {
        UserIterator {
            inner,
            sequence,
            valid: false,
            saved_key: Vec::new(),
            resolver: None,
            resolved_value: Vec::new(),
            resolved: false,
            corruption: None,
        }
    }

    /// Attaches a resolver for value-pointer entries. Without one, landing
    /// on a pointer entry is reported as corruption (pointers in the tree
    /// are unreadable without their value log).
    pub fn with_resolver(mut self, resolver: Arc<dyn ValueResolver>) -> Self {
        self.resolver = Some(resolver);
        self
    }

    fn record_error(&mut self, err: Error) {
        if self.corruption.is_none() {
            self.corruption = Some(err);
        }
        self.valid = false;
        self.saved_key.clear();
    }

    /// Resolves an encoded pointer through the attached resolver.
    fn resolve(&self, encoded_pointer: &[u8]) -> Result<Vec<u8>> {
        let pointer = ValuePointer::decode(encoded_pointer)?;
        match &self.resolver {
            Some(resolver) => resolver.resolve(&pointer),
            None => Err(Error::corruption(
                "value-pointer entry but no value-log resolver attached",
            )),
        }
    }

    /// Scans forward to the newest visible, live entry of the next user key.
    ///
    /// When `skipping` is true, entries for user keys `<= saved_key` are
    /// treated as already consumed (or deleted) and passed over.
    fn find_next_user_entry(&mut self, mut skipping: bool) {
        while self.inner.valid() {
            let Some(parsed) = parse_internal_key(self.inner.key()) else {
                self.record_error(Error::corruption("malformed internal key during iteration"));
                return;
            };
            if parsed.sequence <= self.sequence {
                match parsed.value_type {
                    ValueType::Deletion => {
                        // Every older version of this key is shadowed.
                        self.saved_key.clear();
                        self.saved_key.extend_from_slice(parsed.user_key);
                        skipping = true;
                    }
                    ValueType::Value | ValueType::ValuePointer => {
                        if !(skipping && parsed.user_key <= self.saved_key.as_slice()) {
                            self.resolved = parsed.value_type == ValueType::ValuePointer;
                            if self.resolved {
                                let encoded = self.inner.value().to_vec();
                                match self.resolve(&encoded) {
                                    Ok(value) => self.resolved_value = value,
                                    Err(err) => {
                                        self.record_error(err);
                                        return;
                                    }
                                }
                            }
                            self.valid = true;
                            self.saved_key.clear();
                            return;
                        }
                    }
                }
            }
            self.inner.next();
        }
        self.valid = false;
        self.saved_key.clear();
    }
}

impl DbIterator for UserIterator {
    fn valid(&self) -> bool {
        self.valid
    }

    fn seek_to_first(&mut self) {
        self.saved_key.clear();
        self.inner.seek_to_first();
        self.find_next_user_entry(false);
    }

    fn seek(&mut self, target: &[u8]) {
        self.saved_key.clear();
        self.inner.seek(&encode_internal_key(
            target,
            self.sequence,
            VALUE_TYPE_FOR_SEEK,
        ));
        self.find_next_user_entry(false);
    }

    fn next(&mut self) {
        assert!(self.valid, "next() on invalid iterator");
        self.saved_key.clear();
        self.saved_key
            .extend_from_slice(crate::key::extract_user_key(self.inner.key()));
        self.inner.next();
        self.find_next_user_entry(true);
    }

    fn key(&self) -> &[u8] {
        assert!(self.valid, "key() on invalid iterator");
        crate::key::extract_user_key(self.inner.key())
    }

    fn value(&self) -> &[u8] {
        assert!(self.valid, "value() on invalid iterator");
        if self.resolved {
            &self.resolved_value
        } else {
            self.inner.value()
        }
    }

    fn status(&self) -> Result<()> {
        if let Some(err) = &self.corruption {
            return Err(err.clone());
        }
        self.inner.status()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterator::VecIterator;
    use crate::key::MAX_SEQUENCE_NUMBER;

    fn entry(key: &str, seq: u64, ty: ValueType, value: &str) -> (Vec<u8>, Vec<u8>) {
        (
            encode_internal_key(key.as_bytes(), seq, ty),
            value.as_bytes().to_vec(),
        )
    }

    fn sorted(mut entries: Vec<(Vec<u8>, Vec<u8>)>) -> Vec<(Vec<u8>, Vec<u8>)> {
        entries.sort_by(|a, b| crate::key::compare_internal_keys(&a.0, &b.0));
        entries
    }

    fn user_iter(entries: Vec<(Vec<u8>, Vec<u8>)>, sequence: u64) -> UserIterator {
        UserIterator::new(Box::new(VecIterator::new(sorted(entries))), sequence)
    }

    fn collect_forward(iter: &mut UserIterator) -> Vec<(String, String)> {
        let mut out = Vec::new();
        iter.seek_to_first();
        while iter.valid() {
            out.push((
                String::from_utf8_lossy(iter.key()).into_owned(),
                String::from_utf8_lossy(iter.value()).into_owned(),
            ));
            iter.next();
        }
        out
    }

    #[test]
    fn surfaces_only_newest_visible_version() {
        let mut iter = user_iter(
            vec![
                entry("a", 1, ValueType::Value, "a1"),
                entry("a", 5, ValueType::Value, "a5"),
                entry("b", 2, ValueType::Value, "b2"),
            ],
            MAX_SEQUENCE_NUMBER,
        );
        assert_eq!(
            collect_forward(&mut iter),
            vec![
                ("a".to_string(), "a5".to_string()),
                ("b".to_string(), "b2".to_string())
            ]
        );
    }

    #[test]
    fn snapshot_sequence_hides_newer_writes() {
        let entries = vec![
            entry("a", 1, ValueType::Value, "old"),
            entry("a", 9, ValueType::Value, "new"),
            entry("b", 8, ValueType::Value, "late"),
        ];
        let mut iter = user_iter(entries.clone(), 5);
        assert_eq!(
            collect_forward(&mut iter),
            vec![("a".to_string(), "old".to_string())]
        );
        let mut iter = user_iter(entries, 9);
        assert_eq!(
            collect_forward(&mut iter),
            vec![
                ("a".to_string(), "new".to_string()),
                ("b".to_string(), "late".to_string())
            ]
        );
    }

    #[test]
    fn tombstones_hide_older_versions() {
        let mut iter = user_iter(
            vec![
                entry("a", 1, ValueType::Value, "a1"),
                entry("a", 4, ValueType::Deletion, ""),
                entry("b", 2, ValueType::Value, "b2"),
            ],
            MAX_SEQUENCE_NUMBER,
        );
        assert_eq!(
            collect_forward(&mut iter),
            vec![("b".to_string(), "b2".to_string())]
        );
        // ...but a snapshot from before the delete still sees the value.
        let mut iter = user_iter(
            vec![
                entry("a", 1, ValueType::Value, "a1"),
                entry("a", 4, ValueType::Deletion, ""),
            ],
            3,
        );
        assert_eq!(
            collect_forward(&mut iter),
            vec![("a".to_string(), "a1".to_string())]
        );
    }

    #[test]
    fn seek_lands_on_user_keys() {
        let mut iter = user_iter(
            vec![
                entry("apple", 1, ValueType::Value, "1"),
                entry("cherry", 2, ValueType::Value, "2"),
                entry("plum", 3, ValueType::Value, "3"),
            ],
            MAX_SEQUENCE_NUMBER,
        );
        iter.seek(b"banana");
        assert!(iter.valid());
        assert_eq!(iter.key(), b"cherry");
        iter.seek(b"zzz");
        assert!(!iter.valid());
        iter.seek(b"");
        assert_eq!(iter.key(), b"apple");
    }

    #[test]
    fn corruption_stops_the_cursor_and_surfaces_in_status() {
        // A malformed internal key: long enough to slice, but carrying an
        // invalid value-type tag in its trailer.
        let mut entries = vec![entry("a", 1, ValueType::Value, "ok")];
        let mut bad = b"zzz".to_vec();
        bad.extend_from_slice(&0x7fu64.to_le_bytes());
        entries.push((bad, b"x".to_vec()));
        let mut iter = UserIterator::new(Box::new(VecIterator::new(entries)), MAX_SEQUENCE_NUMBER);
        iter.seek_to_first();
        assert!(iter.valid());
        assert_eq!(iter.key(), b"a");
        assert!(iter.status().is_ok());
        iter.next();
        assert!(!iter.valid(), "cursor stops at the corrupt entry");
        assert!(iter.status().is_err(), "status reports the corruption");
    }

    /// A resolver backed by a map from (file, offset) to bytes.
    struct MapResolver(std::collections::HashMap<(u64, u64), Vec<u8>>);

    impl ValueResolver for MapResolver {
        fn resolve(&self, pointer: &ValuePointer) -> Result<Vec<u8>> {
            self.0
                .get(&(pointer.file_number, pointer.offset))
                .cloned()
                .ok_or_else(|| Error::corruption("dangling value pointer"))
        }
    }

    fn pointer_entry(key: &str, seq: u64, file: u64, offset: u64) -> (Vec<u8>, Vec<u8>) {
        let pointer = ValuePointer {
            file_number: file,
            offset,
            len: 64,
        };
        (
            encode_internal_key(key.as_bytes(), seq, ValueType::ValuePointer),
            pointer.encode(),
        )
    }

    #[test]
    fn pointer_entries_resolve_to_their_log_bytes() {
        let resolver = Arc::new(MapResolver(
            [((7, 0), b"big-a".to_vec()), ((7, 100), b"big-c".to_vec())]
                .into_iter()
                .collect(),
        ));
        let entries = vec![
            pointer_entry("a", 1, 7, 0),
            entry("b", 2, ValueType::Value, "inline-b"),
            pointer_entry("c", 3, 7, 100),
        ];
        let mut iter = UserIterator::new(Box::new(VecIterator::new(sorted(entries))), 10)
            .with_resolver(resolver);
        assert_eq!(
            collect_forward(&mut iter),
            vec![
                ("a".to_string(), "big-a".to_string()),
                ("b".to_string(), "inline-b".to_string()),
                ("c".to_string(), "big-c".to_string()),
            ]
        );
        iter.seek(b"b");
        assert_eq!(iter.value(), b"inline-b");
        iter.next();
        assert_eq!(iter.value(), b"big-c");
        assert!(iter.status().is_ok());
    }

    #[test]
    fn failed_pointer_resolution_surfaces_in_status() {
        let resolver = Arc::new(MapResolver(Default::default()));
        let entries = vec![
            entry("a", 1, ValueType::Value, "fine"),
            pointer_entry("b", 2, 9, 0),
        ];
        let mut iter = UserIterator::new(Box::new(VecIterator::new(sorted(entries))), 10)
            .with_resolver(resolver);
        iter.seek_to_first();
        assert!(iter.valid());
        iter.next();
        assert!(!iter.valid(), "cursor stops at the unresolvable entry");
        assert!(iter.status().is_err());

        // Without a resolver the pointer entry itself is the error.
        let entries = vec![pointer_entry("a", 1, 9, 0)];
        let mut iter = UserIterator::new(Box::new(VecIterator::new(sorted(entries))), 10);
        iter.seek_to_first();
        assert!(!iter.valid());
        assert!(iter.status().is_err());
    }
}
