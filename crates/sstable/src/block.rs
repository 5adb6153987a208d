//! Data and index blocks: prefix-compressed sorted entries with restarts.

use std::cmp::Ordering;

use pebblesdb_common::coding::{decode_fixed32, put_fixed32, put_varint32};
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
    /// contents. They stay in the builder's buffer, which
    /// [`BlockBuilder::reset`] readies for the next block without giving up
    /// its capacity.
    pub fn finish(&mut self) -> &[u8] {
        for &restart in &self.restarts {
            put_fixed32(&mut self.buffer, restart);
        }
        put_fixed32(&mut self.buffer, self.restarts.len() as u32);
        &self.buffer
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
    /// Where the entries end and the restart array begins.
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
        if num_restarts == 0 {
            return Err(Error::corruption("block without restart points"));
        }
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

    /// The entry area: every entry, without the restart array.
    #[inline]
    fn entries(&self) -> &[u8] {
        &self.data[..self.restart_offset]
    }

    /// Offset of restart point `index`. The first entry is at 0 whatever
    /// the array says.
    fn restart_point(&self, index: usize) -> usize {
        match index {
            0 => 0,
            _ => decode_fixed32(&self.data[self.restart_offset + index * 4..]) as usize,
        }
    }

    /// The key of the entry at restart point `index`, where it lies: a
    /// restart entry shares no prefix. `None` if that entry is malformed.
    #[inline]
    fn restart_key(&self, index: usize) -> Option<&[u8]> {
        let entry = decode_entry(self.entries(), self.restart_point(index))?;
        (entry.shared == 0).then(|| &self.entries()[entry.key_start..entry.key_end])
    }

    /// Creates an iterator over a clone of the block.
    pub fn iter(&self) -> BlockIterator {
        BlockIterator::new(self.clone())
    }
}

/// Length of an internal key's trailer: no key in a block is shorter.
const TRAILER_LEN: usize = 8;

/// An entry's header, decoded: the key bytes it shares with its
/// predecessor, where its own key bytes lie, and where its value (which
/// follows them) ends.
struct Entry {
    shared: usize,
    key_start: usize,
    key_end: usize,
    value_end: usize,
}

/// Decodes the header of the entry at `offset` of `entries`: three varint32
/// lengths — shared key bytes, unshared key bytes, value bytes — each
/// bounds-checked. `None` if a length is malformed, the entry runs past
/// `entries`, or its key would be shorter than a trailer.
#[inline]
fn decode_entry(entries: &[u8], offset: usize) -> Option<Entry> {
    let mut pos = offset;
    let shared = varint32_at(entries, &mut pos)? as usize;
    let non_shared = varint32_at(entries, &mut pos)? as usize;
    let value_len = varint32_at(entries, &mut pos)? as usize;
    let entry = Entry {
        shared,
        key_start: pos,
        key_end: pos + non_shared,
        value_end: pos + non_shared + value_len,
    };
    (entry.value_end <= entries.len() && shared + non_shared >= TRAILER_LEN).then_some(entry)
}

/// Reads the varint32 at `*pos` of `src` and moves `pos` past it; `None` if
/// it runs past `src` or does not fit 32 bits.
#[inline]
fn varint32_at(src: &[u8], pos: &mut usize) -> Option<u32> {
    let mut value = 0u32;
    for shift in [0, 7, 14, 21, 28] {
        let byte = *src.get(*pos)?;
        *pos += 1;
        value |= u32::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return (shift < 28 || byte < 0x10).then_some(value);
        }
    }
    None
}

/// Iterator over the entries of a [`Block`].
///
/// The current key is read where it lies whenever its entry shares nothing
/// with its predecessor — every restart entry, so every entry of an index
/// block — and is assembled in the iterator's buffer only where prefix
/// compression left part of it in earlier entries. A malformed entry ends
/// iteration: the iterator turns invalid and [`BlockIterator::status`]
/// reports `Corruption` until the iterator is [reset](BlockIterator::reset).
pub struct BlockIterator {
    block: Block,
    /// Offset of the entry after the current one.
    next: usize,
    /// The current key: a range of the block, or `None` for `buf`.
    key: Option<(usize, usize)>,
    buf: Vec<u8>,
    /// The current value, a range of the block.
    value: (usize, usize),
    valid: bool,
    corrupt: bool,
}

impl BlockIterator {
    /// An iterator over `block`, before its first entry.
    pub fn new(block: Block) -> BlockIterator {
        BlockIterator {
            next: block.restart_offset,
            block,
            key: Some((0, 0)),
            buf: Vec::new(),
            value: (0, 0),
            valid: false,
            corrupt: false,
        }
    }

    /// Makes this an iterator over `block`, before its first entry, keeping
    /// the key buffer.
    pub fn reset(&mut self, block: Block) {
        let buf = std::mem::take(&mut self.buf);
        *self = BlockIterator {
            buf,
            ..BlockIterator::new(block)
        };
    }

    /// `Corruption` once the iterator has met a malformed entry.
    pub fn status(&self) -> Result<()> {
        if self.corrupt {
            return Err(Error::corruption("malformed block entry"));
        }
        Ok(())
    }

    /// Latches corruption; always returns `false`.
    #[cold]
    fn corruption(&mut self) -> bool {
        self.corrupt = true;
        self.valid = false;
        false
    }

    /// Positions the iterator just before restart point `index`; `false`
    /// (corruption latched) if the point lies outside the entries.
    fn seek_to_restart_point(&mut self, index: usize) -> bool {
        let offset = self.block.restart_point(index);
        if index > 0 && offset >= self.block.restart_offset {
            return self.corruption();
        }
        self.key = Some((0, 0));
        self.next = offset;
        self.valid = false;
        true
    }

    /// Decodes the entry at `self.next` and makes it the current one.
    /// Returns `false` past the last entry and on a malformed one.
    #[inline]
    fn parse_next_entry(&mut self) -> bool {
        let entries = self.block.entries();
        if self.next >= entries.len() {
            self.valid = false;
            return false;
        }
        let Some(entry) = decode_entry(entries, self.next) else {
            return self.corruption();
        };
        let unshared = &entries[entry.key_start..entry.key_end];
        match self.key {
            _ if entry.shared == 0 => self.key = Some((entry.key_start, entry.key_end)),
            Some((start, end)) if entry.shared <= end - start => {
                self.buf.clear();
                self.buf
                    .extend_from_slice(&entries[start..start + entry.shared]);
                self.buf.extend_from_slice(unshared);
                self.key = None;
            }
            None if entry.shared <= self.buf.len() => {
                self.buf.truncate(entry.shared);
                self.buf.extend_from_slice(unshared);
            }
            _ => return self.corruption(),
        }
        self.value = (entry.key_end, entry.value_end);
        self.next = entry.value_end;
        self.valid = true;
        true
    }
}

impl DbIterator for BlockIterator {
    #[inline]
    fn valid(&self) -> bool {
        self.valid
    }

    fn seek_to_first(&mut self) {
        if !self.corrupt && self.seek_to_restart_point(0) {
            self.parse_next_entry();
        }
    }

    fn seek(&mut self, target: &[u8]) {
        if self.corrupt {
            return;
        }
        // Binary search the restart array for the last restart whose key is
        // strictly less than the target.
        let mut left = 0usize;
        let mut right = self.block.num_restarts - 1;
        while left < right {
            let mid = (left + right).div_ceil(2);
            let Some(key) = self.block.restart_key(mid) else {
                self.corruption();
                return;
            };
            if compare_internal_keys(key, target) == Ordering::Less {
                left = mid;
            } else {
                right = mid - 1;
            }
        }
        // Linear scan forward to the first entry >= target.
        if self.seek_to_restart_point(left) {
            while self.parse_next_entry()
                && compare_internal_keys(self.key(), target) == Ordering::Less
            {}
        }
    }

    #[inline]
    fn next(&mut self) {
        assert!(self.valid, "next() on invalid block iterator");
        self.parse_next_entry();
    }

    #[inline]
    fn key(&self) -> &[u8] {
        debug_assert!(self.valid);
        match self.key {
            Some((start, end)) => &self.block.data[start..end],
            None => &self.buf,
        }
    }

    #[inline]
    fn value(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.block.data[self.value.0..self.value.1]
    }

    fn status(&self) -> Result<()> {
        BlockIterator::status(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::key::{
        encode_internal_key, extract_user_key, parse_internal_key, ValueType, MAX_SEQUENCE_NUMBER,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ikey(user: &str) -> Vec<u8> {
        encode_internal_key(user.as_bytes(), 1, ValueType::Value)
    }

    fn build(keys: &[&str], restart_interval: usize) -> Block {
        let mut builder = BlockBuilder::new(restart_interval);
        for k in keys {
            builder.add(&ikey(k), format!("val-{k}").as_bytes());
        }
        Block::new(builder.finish().to_vec().into()).unwrap()
    }

    #[test]
    fn empty_block_iterates_nothing() {
        let mut builder = BlockBuilder::new(4);
        let block = Block::new(builder.finish().to_vec().into()).unwrap();
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
        let first = builder.finish().to_vec();
        builder.reset();
        assert!(builder.is_empty());
        builder.add(&ikey("b"), b"2");
        let second = builder.finish().to_vec();
        assert_ne!(first, second);
    }

    #[test]
    fn size_estimate_tracks_growth() {
        let mut builder = BlockBuilder::new(16);
        let empty = builder.current_size_estimate();
        builder.add(&ikey("abcdef"), &[0u8; 100]);
        assert!(builder.current_size_estimate() > empty + 100);
    }

    /// Every entry of an index block (restart interval 1) shares nothing
    /// with its predecessor, so its iterator reads every key where it lies
    /// and never fills its buffer; a data block's assembles the keys prefix
    /// compression split.
    #[test]
    fn index_block_keys_are_never_copied() {
        let keys: Vec<String> = (0..50).map(|i| format!("key{i:04}")).collect();
        let refs: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
        for (interval, copies) in [(1, false), (16, true)] {
            let mut iter = build(&refs, interval).iter();
            iter.seek_to_first();
            while iter.valid() {
                iter.next();
            }
            for key in &refs {
                iter.seek(&ikey(key));
                assert_eq!(extract_user_key(iter.key()), key.as_bytes());
            }
            assert_eq!(iter.buf.capacity() > 0, copies, "interval {interval}");
        }
    }

    #[test]
    fn entry_lengths_are_varint32s_of_at_most_five_bytes() {
        let read = |bytes: &[u8]| {
            let mut pos = 0;
            varint32_at(bytes, &mut pos).map(|value| (value, pos))
        };
        assert_eq!(read(&[0x05, 0xff]), Some((5, 1)));
        assert_eq!(read(&[0xac, 0x02]), Some((300, 2)));
        assert_eq!(read(&[0xff, 0xff, 0xff, 0xff, 0x0f]), Some((u32::MAX, 5)));
        assert_eq!(read(&[0xff, 0xff, 0xff, 0xff, 0x10]), None, "past 32 bits");
        assert_eq!(
            read(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x00]),
            None,
            "six bytes"
        );
        assert_eq!(read(&[0x80, 0x80]), None, "truncated");
    }

    /// A restart point past the entries is corruption where a seek's binary
    /// search follows it.
    #[test]
    fn a_restart_point_past_the_entries_is_corruption() {
        let mut builder = BlockBuilder::new(2);
        for key in ["a", "b", "c"] {
            builder.add(&ikey(key), b"v");
        }
        let mut bytes = builder.finish().to_vec();
        let restarts = bytes.len() - 12;
        bytes[restarts + 4..restarts + 8].copy_from_slice(&(restarts as u32 + 1).to_le_bytes());
        let block = Block::new(bytes.into()).unwrap();
        let mut iter = block.iter();
        iter.seek(&ikey("c"));
        assert!(!iter.valid() && iter.status().is_err());
        iter.seek_to_first();
        assert!(!iter.valid(), "corruption stays latched");
    }

    type Entries = Vec<(Vec<u8>, Vec<u8>)>;

    /// Sorted entries for one seeded block: user keys of 0–300 bytes, each
    /// a prefix of an earlier one plus a random tail (so prefix compression
    /// bites), and values of 0–2,000 bytes, now and then 20,000 — every
    /// length takes one to three varint bytes.
    fn random_entries(rng: &mut StdRng) -> Entries {
        let mut users: Vec<Vec<u8>> = Vec::new();
        for _ in 0..rng.gen_range(0..40) {
            let mut user = match users.len() {
                0 => Vec::new(),
                n => users[rng.gen_range(0..n)].clone(),
            };
            user.truncate(rng.gen_range(0..=user.len()));
            let tail = rng.gen_range(0..=300 - user.len());
            user.extend((0..tail).map(|_| rng.gen_range(b'a'..=b'd')));
            users.push(user);
        }
        users.sort();
        users.dedup();
        users
            .into_iter()
            .map(|user| {
                let value_type = [ValueType::Value, ValueType::Deletion][rng.gen_range(0..2)];
                let key = encode_internal_key(&user, rng.gen_range(0..1 << 56), value_type);
                let len = match rng.gen_ratio(1, 20) {
                    true => 20_000,
                    false => rng.gen_range(0..=2_000),
                };
                (key, (0..len).map(|_| rng.gen()).collect())
            })
            .collect()
    }

    /// The entries of `block` decoded the plain way, apart from
    /// `BlockIterator`: from offset 0 to the restart array, three varint32
    /// lengths (at most five bytes, within 32 bits), then the unshared key
    /// bytes and the value. `None` where [`Block::new`] refuses the block;
    /// otherwise the entries before the first malformed one — a length that
    /// does not decode, more shared bytes than the previous key has, a key
    /// shorter than a trailer, an entry past the area — and whether there
    /// was one.
    fn reference_decode(block: &[u8]) -> Option<(Entries, bool)> {
        let count = u64::from(decode_fixed32(&block[block.len().checked_sub(4)?..]));
        if count == 0 || 4 * count + 4 > block.len() as u64 {
            return None;
        }
        let area = &block[..block.len() - 4 * count as usize - 4];
        let varint = |pos: &mut usize| -> Option<usize> {
            let mut value = 0u64;
            for i in 0..5 {
                let byte = *area.get(*pos)?;
                *pos += 1;
                value |= u64::from(byte & 0x7f) << (7 * i);
                if byte < 0x80 {
                    return u32::try_from(value).ok().map(|v| v as usize);
                }
            }
            None
        };
        let (mut entries, mut key, mut pos) = (Vec::new(), Vec::new(), 0);
        while pos < area.len() {
            let header = (varint(&mut pos), varint(&mut pos), varint(&mut pos));
            let (Some(shared), Some(unshared), Some(value_len)) = header else {
                return Some((entries, true));
            };
            if shared > key.len()
                || shared + unshared < 8
                || pos + unshared + value_len > area.len()
            {
                return Some((entries, true));
            }
            key.truncate(shared);
            key.extend_from_slice(&area[pos..pos + unshared]);
            pos += unshared;
            entries.push((key.clone(), area[pos..pos + value_len].to_vec()));
            pos += value_len;
        }
        Some((entries, false))
    }

    /// Walks the iterator from `start` with `step` and returns what it saw,
    /// failing if it takes more than `limit` steps (each entry is at least
    /// three bytes, so a block of `limit` bytes holds fewer).
    fn walk(
        iter: &mut BlockIterator,
        start: fn(&mut BlockIterator),
        step: fn(&mut BlockIterator),
        limit: usize,
    ) -> Entries {
        let mut seen = Vec::new();
        start(iter);
        while iter.valid() {
            seen.push((iter.key().to_vec(), iter.value().to_vec()));
            assert!(seen.len() <= limit, "iteration does not end");
            step(iter);
        }
        seen
    }

    /// Seek targets around every key — the key, its user key one byte
    /// longer and one shorter, its sequence one higher and one lower — and
    /// past both ends.
    fn seek_targets(entries: &Entries) -> Vec<Vec<u8>> {
        let mut targets = vec![
            encode_internal_key(b"", u64::MAX >> 8, ValueType::Value),
            encode_internal_key(&[0xff; 301], 0, ValueType::Deletion),
        ];
        for (key, _) in entries {
            let parsed = parse_internal_key(key).unwrap();
            let (user, seq, kind) = (parsed.user_key, parsed.sequence, parsed.value_type);
            let longer = [user, &[0]].concat();
            let shorter = &user[..user.len().saturating_sub(1)];
            targets.push(key.clone());
            targets.push(encode_internal_key(&longer, seq, kind));
            targets.push(encode_internal_key(shorter, seq, kind));
            targets.push(encode_internal_key(
                user,
                (seq + 1).min(MAX_SEQUENCE_NUMBER),
                kind,
            ));
            targets.push(encode_internal_key(user, seq.saturating_sub(1), kind));
        }
        targets
    }

    /// An intact block iterates and seeks exactly as the
    /// reference decode and a binary search over its entries say.
    fn check_intact(entries: &Entries, block: &Block, limit: usize) {
        let mut iter = block.iter();
        let forward = walk(
            &mut iter,
            DbIterator::seek_to_first,
            DbIterator::next,
            limit,
        );
        assert_eq!(&forward, entries);
        let at = |iter: &BlockIterator, index: usize| match entries.get(index) {
            Some((key, value)) => iter.valid() && iter.key() == key && iter.value() == value,
            None => !iter.valid(),
        };
        for target in seek_targets(entries) {
            let expected = entries
                .partition_point(|(key, _)| compare_internal_keys(key, &target) == Ordering::Less);
            iter.seek(&target);
            assert!(at(&iter, expected), "seek to {target:?}");
            if iter.valid() {
                iter.next();
                assert!(at(&iter, expected + 1), "next after seek to {target:?}");
            }
        }
        assert!(iter.status().is_ok());
    }

    /// A damaged block iterates to exactly the entries the reference decode
    /// finds before the damage, then reports `Corruption` — or, where the
    /// damage leaves a well-formed block, to all of them with no error. Its
    /// seeks end and never panic.
    fn check_damaged(bytes: &[u8], targets: &[Vec<u8>]) {
        let (block, reference) = (Block::new(bytes.to_vec().into()), reference_decode(bytes));
        let (block, (expected, corrupt)) = match (block, reference) {
            (Ok(block), Some(reference)) => (block, reference),
            (Err(_), None) => return,
            (block, reference) => panic!("Block::new {block:?}, reference {reference:?}"),
        };
        let mut iter = block.iter();
        let limit = bytes.len();
        let forward = walk(
            &mut iter,
            DbIterator::seek_to_first,
            DbIterator::next,
            limit,
        );
        assert_eq!(forward, expected);
        assert_eq!(iter.status().is_err(), corrupt);
        for target in targets {
            let mut iter = block.iter();
            iter.seek(target);
            for _ in 0..2 {
                if iter.valid() {
                    iter.next();
                }
            }
        }
    }

    /// Seeded blocks at restart intervals 1–16 against the reference
    /// decode, then `mutations` copies of each with one or two bytes
    /// changed.
    fn block_decoder_sweep(seeds: std::ops::Range<u64>, mutations: usize) {
        for seed in seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let entries = random_entries(&mut rng);
            let mut builder = BlockBuilder::new(rng.gen_range(1..=16));
            for (key, value) in &entries {
                builder.add(key, value);
            }
            let bytes = builder.finish().to_vec();
            let block = Block::new(bytes.clone().into()).unwrap();
            assert_eq!(reference_decode(&bytes), Some((entries.clone(), false)));
            check_intact(&entries, &block, bytes.len());

            // Values are most of a block: aim half the damage at entry
            // headers and a quarter at the restart array.
            let (mut headers, mut at) = (Vec::new(), 0);
            let mut iter = block.iter();
            iter.seek_to_first();
            while iter.valid() {
                headers.push(at);
                at = iter.next;
                iter.next();
            }
            let targets = seek_targets(&entries);
            for _ in 0..mutations {
                let mut damaged = bytes.clone();
                for _ in 0..rng.gen_range(1..=2) {
                    let at = match rng.gen_range(0..4) {
                        0 | 1 if !headers.is_empty() => {
                            headers[rng.gen_range(0..headers.len())] + rng.gen_range(0..3)
                        }
                        2 => rng.gen_range(block.restart_offset..bytes.len()),
                        _ => rng.gen_range(0..bytes.len()),
                    };
                    damaged[at] ^= rng.gen_range(1..=255u8);
                }
                check_damaged(&damaged, &targets);
            }
        }
    }

    #[test]
    fn block_decoder_matches_a_reference_decode_intact_and_damaged() {
        block_decoder_sweep(0..40, 25);
    }

    /// The long sweep (CI runs it in release with `--ignored`).
    #[test]
    #[ignore]
    fn block_decoder_long_sweep() {
        block_decoder_sweep(0x5eed_0000..0x5eed_0000 + 4_000, 200);
    }
}
