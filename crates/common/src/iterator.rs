//! The iterator abstraction shared by memtables, sstables and engines.
//!
//! Engines compose small iterators (a block, an sstable, a guard, a level)
//! into larger ones; [`MergingIterator`] implements the k-way merge both the
//! LSM baseline and the FLSM engine use for range queries.

use std::cmp::Ordering;
use std::marker::PhantomData;

use crate::error::Result;
use crate::key::compare_internal_keys;

/// A cursor over a sorted sequence of internal key/value pairs.
///
/// The contract follows LevelDB's iterator: after construction the iterator
/// is *not* positioned; callers must call one of the seek methods first.
/// `key()`/`value()` may only be called while `valid()` returns `true`.
pub trait DbIterator {
    /// Returns `true` if the iterator is positioned at an entry.
    fn valid(&self) -> bool;
    /// Positions at the first entry.
    fn seek_to_first(&mut self);
    /// Positions at the last entry.
    fn seek_to_last(&mut self);
    /// Positions at the first entry with key `>= target` (internal key).
    fn seek(&mut self, target: &[u8]);
    /// Advances to the next entry.
    ///
    /// # Panics
    ///
    /// May panic if the iterator is not valid.
    fn next(&mut self);
    /// Moves to the previous entry.
    ///
    /// # Panics
    ///
    /// May panic if the iterator is not valid.
    fn prev(&mut self);
    /// The current internal key.
    ///
    /// # Panics
    ///
    /// May panic if the iterator is not valid.
    fn key(&self) -> &[u8];
    /// The current value.
    ///
    /// # Panics
    ///
    /// May panic if the iterator is not valid.
    fn value(&self) -> &[u8];
    /// Any IO or corruption error the cursor hit while iterating.
    ///
    /// A cursor that encounters an error stops (becomes invalid) rather
    /// than silently skipping data; callers draining a cursor should check
    /// `status` once the cursor is exhausted, as the provided
    /// [`KvStore::scan`](crate::KvStore::scan) does.
    fn status(&self) -> Result<()> {
        Ok(())
    }
}

/// An iterator over an in-memory list of entries already sorted by `O`.
///
/// Used by tests and by simple stores that materialise their view up front
/// (with [`BytewiseOrder`] they surface plain user keys).
pub struct VecIterator<O = InternalKeyOrder> {
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    /// `entries.len()` means "not positioned / exhausted".
    index: usize,
    order: PhantomData<O>,
}

impl VecIterator {
    /// Creates an iterator over `entries`, which must already be sorted by
    /// internal key.
    pub fn new(entries: Vec<(Vec<u8>, Vec<u8>)>) -> Self {
        VecIterator::with_order(entries)
    }
}

impl<O: KeyOrder> VecIterator<O> {
    /// Creates an iterator over `entries`, which must already be sorted by
    /// `O`.
    pub fn with_order(entries: Vec<(Vec<u8>, Vec<u8>)>) -> Self {
        debug_assert!(entries
            .windows(2)
            .all(|w| O::compare(&w[0].0, &w[1].0) != Ordering::Greater));
        let index = entries.len();
        VecIterator {
            entries,
            index,
            order: PhantomData,
        }
    }
}

impl<O: KeyOrder> DbIterator for VecIterator<O> {
    fn valid(&self) -> bool {
        self.index < self.entries.len()
    }

    fn seek_to_first(&mut self) {
        self.index = 0;
    }

    fn seek_to_last(&mut self) {
        self.index = self.entries.len().saturating_sub(1);
        if self.entries.is_empty() {
            self.index = 0;
        }
    }

    fn seek(&mut self, target: &[u8]) {
        self.index = self
            .entries
            .partition_point(|(k, _)| O::compare(k, target) == Ordering::Less);
    }

    fn next(&mut self) {
        assert!(self.valid(), "next() on invalid iterator");
        self.index += 1;
    }

    fn prev(&mut self) {
        assert!(self.valid(), "prev() on invalid iterator");
        if self.index == 0 {
            self.index = self.entries.len();
        } else {
            self.index -= 1;
        }
    }

    fn key(&self) -> &[u8] {
        &self.entries[self.index].0
    }

    fn value(&self) -> &[u8] {
        &self.entries[self.index].1
    }
}

/// A total order on the keys a [`MergingIterator`] merges or a
/// [`VecIterator`] holds. Implementors are
/// zero-sized: the order is a type, so every comparison is a direct call.
pub trait KeyOrder {
    /// Compares two keys.
    fn compare(a: &[u8], b: &[u8]) -> Ordering;
}

/// Internal keys: user key ascending, then sequence descending.
pub struct InternalKeyOrder;

impl KeyOrder for InternalKeyOrder {
    fn compare(a: &[u8], b: &[u8]) -> Ordering {
        compare_internal_keys(a, b)
    }
}

/// Plain bytes — user keys, as store-level cursors surface them.
pub struct BytewiseOrder;

impl KeyOrder for BytewiseOrder {
    fn compare(a: &[u8], b: &[u8]) -> Ordering {
        a.cmp(b)
    }
}

/// Merges several child iterators into one stream sorted by `O`.
///
/// Children may contain overlapping keys; ties are broken by child order so
/// callers should pass newer sources first when that matters (both engines
/// instead rely on sequence numbers embedded in internal keys).
///
/// `next`/`prev` are O(children) comparisons without a heap — child counts
/// are small. Direction switching follows the LevelDB pattern: when a
/// forward cursor is asked to step backwards, every non-current child is
/// repositioned to just before the current key first (and vice versa).
pub struct MergingIterator<O = InternalKeyOrder> {
    children: Vec<Box<dyn DbIterator>>,
    current: Option<usize>,
    direction: Direction,
    order: PhantomData<O>,
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Direction {
    Forward,
    Reverse,
}

impl MergingIterator {
    /// Creates a merging iterator over `children`, which yield internal keys.
    pub fn new(children: Vec<Box<dyn DbIterator>>) -> Self {
        MergingIterator::with_order(children)
    }
}

impl<O: KeyOrder> MergingIterator<O> {
    /// Creates a merging iterator over `children`, whose keys sort by `O`.
    pub fn with_order(children: Vec<Box<dyn DbIterator>>) -> Self {
        MergingIterator {
            children,
            current: None,
            direction: Direction::Forward,
            order: PhantomData,
        }
    }

    fn find_smallest(&mut self) {
        let mut smallest: Option<usize> = None;
        for (idx, child) in self.children.iter().enumerate() {
            if !child.valid() {
                continue;
            }
            smallest = match smallest {
                None => Some(idx),
                Some(best) => {
                    if O::compare(child.key(), self.children[best].key()) == Ordering::Less {
                        Some(idx)
                    } else {
                        Some(best)
                    }
                }
            };
        }
        self.current = smallest;
    }

    fn find_largest(&mut self) {
        let mut largest: Option<usize> = None;
        for (idx, child) in self.children.iter().enumerate() {
            if !child.valid() {
                continue;
            }
            largest = match largest {
                None => Some(idx),
                Some(best) => {
                    if O::compare(child.key(), self.children[best].key()) == Ordering::Greater {
                        Some(idx)
                    } else {
                        Some(best)
                    }
                }
            };
        }
        self.current = largest;
    }
}

impl<O: KeyOrder> DbIterator for MergingIterator<O> {
    fn valid(&self) -> bool {
        self.current.is_some()
    }

    fn seek_to_first(&mut self) {
        for child in &mut self.children {
            child.seek_to_first();
        }
        self.direction = Direction::Forward;
        self.find_smallest();
    }

    fn seek_to_last(&mut self) {
        for child in &mut self.children {
            child.seek_to_last();
        }
        self.direction = Direction::Reverse;
        self.find_largest();
    }

    fn seek(&mut self, target: &[u8]) {
        for child in &mut self.children {
            child.seek(target);
        }
        self.direction = Direction::Forward;
        self.find_smallest();
    }

    fn next(&mut self) {
        let current = self.current.expect("next() on invalid merging iterator");
        // If we were previously moving backwards every non-current child is
        // positioned before `key()`; re-seek them past the current key first.
        if self.direction == Direction::Reverse {
            let key = self.children[current].key().to_vec();
            for (idx, child) in self.children.iter_mut().enumerate() {
                if idx == current {
                    continue;
                }
                child.seek(&key);
                if child.valid() && child.key() == key.as_slice() {
                    child.next();
                }
            }
            self.direction = Direction::Forward;
        }
        self.children[current].next();
        self.find_smallest();
    }

    fn prev(&mut self) {
        let current = self.current.expect("prev() on invalid merging iterator");
        if self.direction == Direction::Forward {
            let key = self.children[current].key().to_vec();
            for (idx, child) in self.children.iter_mut().enumerate() {
                if idx == current {
                    continue;
                }
                child.seek(&key);
                if child.valid() {
                    child.prev();
                } else {
                    child.seek_to_last();
                }
            }
            self.direction = Direction::Reverse;
        }
        self.children[current].prev();
        self.find_largest();
    }

    fn key(&self) -> &[u8] {
        self.children[self.current.expect("key() on invalid iterator")].key()
    }

    fn value(&self) -> &[u8] {
        self.children[self.current.expect("value() on invalid iterator")].value()
    }

    fn status(&self) -> Result<()> {
        for child in &self.children {
            child.status()?;
        }
        Ok(())
    }
}

/// Forwards to an inner iterator while keeping an arbitrary pin alive.
///
/// The engines use this to tie the lifetime of a cursor to the version (file
/// set) it reads: as long as the cursor exists, the pinned `Arc` keeps the
/// version live and the obsolete-file collector will not delete its
/// sstables.
pub struct PinnedIterator<P> {
    inner: Box<dyn DbIterator>,
    _pin: P,
}

impl<P> PinnedIterator<P> {
    /// Wraps `inner`, holding `pin` until the iterator is dropped.
    pub fn new(inner: Box<dyn DbIterator>, pin: P) -> Self {
        PinnedIterator { inner, _pin: pin }
    }
}

impl<P> DbIterator for PinnedIterator<P> {
    fn valid(&self) -> bool {
        self.inner.valid()
    }
    fn seek_to_first(&mut self) {
        self.inner.seek_to_first();
    }
    fn seek_to_last(&mut self) {
        self.inner.seek_to_last();
    }
    fn seek(&mut self, target: &[u8]) {
        self.inner.seek(target);
    }
    fn next(&mut self) {
        self.inner.next();
    }
    fn prev(&mut self) {
        self.inner.prev();
    }
    fn key(&self) -> &[u8] {
        self.inner.key()
    }
    fn value(&self) -> &[u8] {
        self.inner.value()
    }
    fn status(&self) -> Result<()> {
        self.inner.status()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{encode_internal_key, ValueType};

    fn entry(key: &str, seq: u64, value: &str) -> (Vec<u8>, Vec<u8>) {
        (
            encode_internal_key(key.as_bytes(), seq, ValueType::Value),
            value.as_bytes().to_vec(),
        )
    }

    fn collect_forward(iter: &mut dyn DbIterator) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        iter.seek_to_first();
        while iter.valid() {
            out.push((iter.key().to_vec(), iter.value().to_vec()));
            iter.next();
        }
        out
    }

    #[test]
    fn vec_iterator_walks_entries_in_order() {
        let entries = vec![entry("a", 1, "1"), entry("b", 2, "2"), entry("c", 3, "3")];
        let mut iter = VecIterator::new(entries.clone());
        assert!(!iter.valid());
        let walked = collect_forward(&mut iter);
        assert_eq!(walked, entries);
    }

    #[test]
    fn vec_iterator_seek_finds_lower_bound() {
        let entries = vec![entry("a", 1, "1"), entry("c", 2, "2"), entry("e", 3, "3")];
        let mut iter = VecIterator::new(entries);
        iter.seek(&encode_internal_key(b"b", u64::MAX >> 8, ValueType::Value));
        assert!(iter.valid());
        assert_eq!(crate::key::extract_user_key(iter.key()), b"c");
        iter.seek(&encode_internal_key(b"f", u64::MAX >> 8, ValueType::Value));
        assert!(!iter.valid());
    }

    #[test]
    fn vec_iterator_in_bytewise_order_is_a_plain_cursor() {
        let mut iter = VecIterator::<BytewiseOrder>::with_order(vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"c".to_vec(), b"3".to_vec()),
        ]);
        assert!(!iter.valid());
        iter.seek(b"b");
        assert_eq!(iter.key(), b"c");
        iter.seek_to_first();
        assert_eq!(iter.key(), b"a");
        iter.next();
        assert_eq!(iter.key(), b"c");
        iter.prev();
        assert_eq!(iter.key(), b"a");
        iter.seek_to_last();
        assert_eq!(iter.key(), b"c");
    }

    #[test]
    fn merging_iterator_interleaves_children() {
        let left = VecIterator::new(vec![entry("a", 1, "la"), entry("c", 1, "lc")]);
        let right = VecIterator::new(vec![entry("b", 1, "rb"), entry("d", 1, "rd")]);
        let mut merged = MergingIterator::new(vec![Box::new(left), Box::new(right)]);
        let keys: Vec<Vec<u8>> = collect_forward(&mut merged)
            .into_iter()
            .map(|(k, _)| crate::key::extract_user_key(&k).to_vec())
            .collect();
        assert_eq!(
            keys,
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
    }

    #[test]
    fn merging_iterator_orders_same_user_key_by_sequence() {
        let newer = VecIterator::new(vec![entry("k", 9, "new")]);
        let older = VecIterator::new(vec![entry("k", 3, "old")]);
        let mut merged = MergingIterator::new(vec![Box::new(older), Box::new(newer)]);
        merged.seek_to_first();
        assert!(merged.valid());
        assert_eq!(merged.value(), b"new");
        merged.next();
        assert!(merged.valid());
        assert_eq!(merged.value(), b"old");
        merged.next();
        assert!(!merged.valid());
    }

    #[test]
    fn merging_iterator_seek_and_reverse() {
        let left = VecIterator::new(vec![entry("a", 1, "1"), entry("c", 1, "3")]);
        let right = VecIterator::new(vec![entry("b", 1, "2"), entry("d", 1, "4")]);
        let mut merged = MergingIterator::new(vec![Box::new(left), Box::new(right)]);
        merged.seek(&encode_internal_key(b"b", u64::MAX >> 8, ValueType::Value));
        assert!(merged.valid());
        assert_eq!(crate::key::extract_user_key(merged.key()), b"b");

        merged.seek_to_last();
        assert!(merged.valid());
        assert_eq!(crate::key::extract_user_key(merged.key()), b"d");
        merged.prev();
        assert_eq!(crate::key::extract_user_key(merged.key()), b"c");
        merged.prev();
        assert_eq!(crate::key::extract_user_key(merged.key()), b"b");
    }

    #[test]
    fn merging_iterator_direction_switch_forward_then_back() {
        let left = VecIterator::new(vec![entry("a", 1, "1"), entry("c", 1, "3")]);
        let right = VecIterator::new(vec![entry("b", 1, "2")]);
        let mut merged = MergingIterator::new(vec![Box::new(left), Box::new(right)]);
        merged.seek_to_first();
        merged.next(); // at "b"
        assert_eq!(crate::key::extract_user_key(merged.key()), b"b");
        merged.prev(); // back to "a"
        assert!(merged.valid());
        assert_eq!(crate::key::extract_user_key(merged.key()), b"a");
        merged.next();
        assert_eq!(crate::key::extract_user_key(merged.key()), b"b");
    }
}
