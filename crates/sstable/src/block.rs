//! Data and index blocks: prefix-compressed sorted entries with restarts.

use std::cmp::Ordering;

use pebblesdb_common::coding::{decode_fixed32, decode_varint32, put_fixed32, put_varint32};
use pebblesdb_common::iterator::DbIterator;
use pebblesdb_common::key::compare_internal_keys;
use pebblesdb_common::{Error, Result};
use pebblesdb_env::FileBytes;

/// Builds a block of sorted entries with shared-prefix compression.
///
/// Every `restart_interval` entries the shared prefix resets to zero and the
/// entry offset is recorded in the restart array, which the reader uses for
/// binary search.
pub struct BlockBuilder {
    buffer: Vec<u8>,
    restarts: Vec<u32>,
    restart_interval: usize,
    counter: usize,
    last_key: Vec<u8>,
    num_entries: usize,
}

impl BlockBuilder {
    /// Creates a builder with the given restart interval.
    pub fn new(restart_interval: usize) -> Self {
        BlockBuilder {
            buffer: Vec::new(),
            restarts: vec![0],
            restart_interval: restart_interval.max(1),
            counter: 0,
            last_key: Vec::new(),
            num_entries: 0,
        }
    }

    /// Appends an entry. Keys must be added in ascending order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        debug_assert!(
            self.last_key.is_empty()
                || compare_internal_keys(&self.last_key, key) != Ordering::Greater
        );
        let mut shared = 0usize;
        if self.counter < self.restart_interval {
            let max_shared = self.last_key.len().min(key.len());
            while shared < max_shared && self.last_key[shared] == key[shared] {
                shared += 1;
            }
        } else {
            self.restarts.push(self.buffer.len() as u32);
            self.counter = 0;
        }
        let non_shared = key.len() - shared;
        put_varint32(&mut self.buffer, shared as u32);
        put_varint32(&mut self.buffer, non_shared as u32);
        put_varint32(&mut self.buffer, value.len() as u32);
        self.buffer.extend_from_slice(&key[shared..]);
        self.buffer.extend_from_slice(value);

        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.counter += 1;
        self.num_entries += 1;
    }

    /// Estimated size of the finished block in bytes.
    pub fn current_size_estimate(&self) -> usize {
        self.buffer.len() + self.restarts.len() * 4 + 4
    }

    /// Returns `true` if no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.num_entries == 0
    }

    /// Number of entries added.
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// The last key added (empty before the first `add`).
    pub fn last_key(&self) -> &[u8] {
        &self.last_key
    }

    /// Finalises the block, appending the restart array, and returns its
    /// contents. The builder is left ready to build the next block after
    /// [`BlockBuilder::reset`].
    pub fn finish(&mut self) -> Vec<u8> {
        let mut out = std::mem::take(&mut self.buffer);
        for &restart in &self.restarts {
            put_fixed32(&mut out, restart);
        }
        put_fixed32(&mut out, self.restarts.len() as u32);
        out
    }

    /// Clears the builder for reuse.
    pub fn reset(&mut self) {
        self.buffer.clear();
        self.restarts.clear();
        self.restarts.push(0);
        self.counter = 0;
        self.last_key.clear();
        self.num_entries = 0;
    }
}

/// An immutable, decoded block: its contents are parsed where they lie, and
/// a clone shares them.
#[derive(Debug, Clone)]
pub struct Block {
    data: FileBytes,
    restart_offset: usize,
    num_restarts: usize,
}

impl Block {
    /// Wraps the raw contents produced by [`BlockBuilder::finish`].
    pub fn new(data: FileBytes) -> Result<Self> {
        if data.len() < 4 {
            return Err(Error::corruption("block too small for restart count"));
        }
        let num_restarts = decode_fixed32(&data[data.len() - 4..]) as usize;
        let restart_array_bytes = num_restarts
            .checked_mul(4)
            .and_then(|n| n.checked_add(4))
            .ok_or_else(|| Error::corruption("restart count overflow"))?;
        if restart_array_bytes > data.len() {
            return Err(Error::corruption("restart array larger than block"));
        }
        let restart_offset = data.len() - restart_array_bytes;
        Ok(Block {
            data,
            restart_offset,
            num_restarts,
        })
    }

    /// Size of the raw block contents in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    fn restart_point(&self, index: usize) -> usize {
        decode_fixed32(&self.data[self.restart_offset + index * 4..]) as usize
    }

    /// Creates an iterator over a clone of the block.
    pub fn iter(&self) -> BlockIterator {
        BlockIterator::new(self.clone())
    }
}

/// Iterator over the entries of a [`Block`].
pub struct BlockIterator {
    block: Block,
    /// Offset of the *next* entry to decode.
    offset: usize,
    pub(crate) key: Vec<u8>,
    value_range: (usize, usize),
    valid: bool,
}

impl BlockIterator {
    /// An iterator over `block`, before its first entry.
    pub fn new(block: Block) -> BlockIterator {
        BlockIterator {
            offset: block.restart_offset,
            block,
            key: Vec::new(),
            value_range: (0, 0),
            valid: false,
        }
    }

    /// Decodes the entry starting at `self.offset`, updating `key`/`value`.
    ///
    /// Returns `false` at the end of the entry area.
    fn parse_next_entry(&mut self) -> bool {
        if self.offset >= self.block.restart_offset {
            self.valid = false;
            return false;
        }
        let data: &[u8] = &self.block.data;
        let mut pos = self.offset;
        let (shared, n1) = match decode_varint32(&data[pos..]) {
            Ok(v) => v,
            Err(_) => {
                self.valid = false;
                return false;
            }
        };
        pos += n1;
        let (non_shared, n2) = match decode_varint32(&data[pos..]) {
            Ok(v) => v,
            Err(_) => {
                self.valid = false;
                return false;
            }
        };
        pos += n2;
        let (value_len, n3) = match decode_varint32(&data[pos..]) {
            Ok(v) => v,
            Err(_) => {
                self.valid = false;
                return false;
            }
        };
        pos += n3;
        let shared = shared as usize;
        let non_shared = non_shared as usize;
        let value_len = value_len as usize;
        if pos + non_shared + value_len > self.block.restart_offset || shared > self.key.len() {
            self.valid = false;
            return false;
        }
        self.key.truncate(shared);
        self.key.extend_from_slice(&data[pos..pos + non_shared]);
        self.value_range = (pos + non_shared, pos + non_shared + value_len);
        self.offset = pos + non_shared + value_len;
        self.valid = true;
        true
    }

    fn seek_to_restart_point(&mut self, index: usize) {
        self.key.clear();
        self.offset = self.block.restart_point(index);
        self.valid = false;
    }

    /// The raw offset of the current entry's successor (used for tests).
    pub fn next_entry_offset(&self) -> usize {
        self.offset
    }
}

impl DbIterator for BlockIterator {
    fn valid(&self) -> bool {
        self.valid
    }

    fn seek_to_first(&mut self) {
        if self.block.num_restarts == 0 {
            self.valid = false;
            return;
        }
        self.seek_to_restart_point(0);
        self.parse_next_entry();
    }

    fn seek_to_last(&mut self) {
        if self.block.num_restarts == 0 {
            self.valid = false;
            return;
        }
        self.seek_to_restart_point(self.block.num_restarts - 1);
        // Walk forward to the final entry.
        while self.parse_next_entry() && self.offset < self.block.restart_offset {}
    }

    fn seek(&mut self, target: &[u8]) {
        if self.block.num_restarts == 0 {
            self.valid = false;
            return;
        }
        // Binary search the restart array for the last restart whose key is
        // strictly less than the target.
        let mut left = 0usize;
        let mut right = self.block.num_restarts - 1;
        while left < right {
            let mid = (left + right).div_ceil(2);
            self.seek_to_restart_point(mid);
            if !self.parse_next_entry() {
                right = mid - 1;
                continue;
            }
            if compare_internal_keys(&self.key, target) == Ordering::Less {
                left = mid;
            } else {
                right = mid - 1;
            }
        }
        self.seek_to_restart_point(left);
        // Linear scan forward to the first entry >= target.
        while self.parse_next_entry() {
            if compare_internal_keys(&self.key, target) != Ordering::Less {
                return;
            }
        }
    }

    fn next(&mut self) {
        assert!(self.valid, "next() on invalid block iterator");
        self.parse_next_entry();
    }

    fn prev(&mut self) {
        assert!(self.valid, "prev() on invalid block iterator");
        let original_key = self.key.clone();
        // Find the restart point strictly before the current entry, then walk
        // forward until the entry just before the original key.
        let mut restart = self.block.num_restarts - 1;
        loop {
            self.seek_to_restart_point(restart);
            self.parse_next_entry();
            if self.valid && compare_internal_keys(&self.key, &original_key) == Ordering::Less {
                break;
            }
            if restart == 0 {
                self.valid = false;
                return;
            }
            restart -= 1;
        }
        // Walk forward while the next entry remains before the original key.
        loop {
            let saved_key = self.key.clone();
            let saved_value = self.value_range;
            let saved_offset = self.offset;
            if !self.parse_next_entry()
                || compare_internal_keys(&self.key, &original_key) != Ordering::Less
            {
                self.key = saved_key;
                self.value_range = saved_value;
                self.offset = saved_offset;
                self.valid = true;
                return;
            }
        }
    }

    fn key(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.key
    }

    fn value(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.block.data[self.value_range.0..self.value_range.1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::key::{encode_internal_key, extract_user_key, ValueType};

    fn ikey(user: &str) -> Vec<u8> {
        encode_internal_key(user.as_bytes(), 1, ValueType::Value)
    }

    fn build(keys: &[&str], restart_interval: usize) -> Block {
        let mut builder = BlockBuilder::new(restart_interval);
        for k in keys {
            builder.add(&ikey(k), format!("val-{k}").as_bytes());
        }
        Block::new(builder.finish().into()).unwrap()
    }

    #[test]
    fn empty_block_iterates_nothing() {
        let mut builder = BlockBuilder::new(4);
        let block = Block::new(builder.finish().into()).unwrap();
        let mut iter = block.iter();
        iter.seek_to_first();
        assert!(!iter.valid());
        iter.seek(&ikey("a"));
        assert!(!iter.valid());
    }

    #[test]
    fn entries_roundtrip_with_prefix_compression() {
        let keys = ["apple", "application", "apply", "banana", "bandana"];
        let block = build(&keys, 2);
        let mut iter = block.iter();
        iter.seek_to_first();
        for k in keys {
            assert!(iter.valid());
            assert_eq!(extract_user_key(iter.key()), k.as_bytes());
            assert_eq!(iter.value(), format!("val-{k}").as_bytes());
            iter.next();
        }
        assert!(!iter.valid());
    }

    #[test]
    fn seek_finds_lower_bound_across_restarts() {
        let keys: Vec<String> = (0..100).map(|i| format!("key{i:04}")).collect();
        let refs: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
        let block = build(&refs, 7);
        let mut iter = block.iter();

        iter.seek(&ikey("key0042"));
        assert!(iter.valid());
        assert_eq!(extract_user_key(iter.key()), b"key0042");

        iter.seek(&ikey("key0042x"));
        assert_eq!(extract_user_key(iter.key()), b"key0043");

        iter.seek(&ikey("zzz"));
        assert!(!iter.valid());

        iter.seek(&ikey(""));
        assert!(iter.valid());
        assert_eq!(extract_user_key(iter.key()), b"key0000");
    }

    #[test]
    fn seek_to_last_and_prev_walk_backwards() {
        let keys = ["a", "b", "c", "d", "e"];
        let block = build(&keys, 2);
        let mut iter = block.iter();
        iter.seek_to_last();
        assert!(iter.valid());
        assert_eq!(extract_user_key(iter.key()), b"e");
        for expected in ["d", "c", "b", "a"] {
            iter.prev();
            assert!(iter.valid());
            assert_eq!(extract_user_key(iter.key()), expected.as_bytes());
        }
        iter.prev();
        assert!(!iter.valid());
    }

    #[test]
    fn corrupt_restart_count_is_rejected() {
        assert!(Block::new(vec![1, 2].into()).is_err());
        // Restart count claims more restarts than bytes available.
        let mut data = vec![0u8; 8];
        data[4..].copy_from_slice(&100u32.to_le_bytes());
        assert!(Block::new(data.into()).is_err());
    }

    #[test]
    fn builder_reset_allows_reuse() {
        let mut builder = BlockBuilder::new(4);
        builder.add(&ikey("a"), b"1");
        assert!(!builder.is_empty());
        let first = builder.finish();
        builder.reset();
        assert!(builder.is_empty());
        builder.add(&ikey("b"), b"2");
        let second = builder.finish();
        assert_ne!(first, second);
    }

    #[test]
    fn size_estimate_tracks_growth() {
        let mut builder = BlockBuilder::new(16);
        let empty = builder.current_size_estimate();
        builder.add(&ikey("abcdef"), &[0u8; 100]);
        assert!(builder.current_size_estimate() > empty + 100);
    }
}
