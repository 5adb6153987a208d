//! A concurrent, arena-backed probabilistic skip list keyed by byte strings.
//!
//! This is the LevelDB memtable design: nodes are bump-allocated into
//! append-only arena segments, forward links are atomic, and the structure is
//! never mutated in place — inserts only splice new nodes in. That gives the
//! two properties the engines build on:
//!
//! * **Wait-free readers.** `get` and long-lived cursors traverse the list
//!   with acquire loads while a writer inserts concurrently; no locks, no
//!   copies, no invalidation. A reader simply may or may not see entries
//!   inserted after it started (the engines' sequence-number filtering makes
//!   such entries invisible anyway).
//! * **Single mutation point.** Inserts are serialised by a small internal
//!   writer mutex (the engines additionally funnel all writes through one
//!   group-commit leader, so the mutex is uncontended in practice).
//!
//! # Memory layout and safety
//!
//! Nodes live in power-of-two-growing segments addressed by a stable `u32`
//! index; keys live in a separate append-only byte arena. Neither allocation
//! is ever moved or freed before the list drops, so raw pointers taken at
//! insert time stay valid for the list's lifetime. Publication follows the
//! classic release/acquire protocol: a node's key bytes and initial links
//! are fully written *before* the node's index is release-stored into a
//! predecessor's `next` pointer, and readers only learn about a node through
//! an acquire load of such a pointer — which makes the key bytes visible and
//! data-race-free even though they are plain (non-atomic) memory.

use std::cmp::Ordering;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering as MemOrder};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maximum tower height. With a branching factor of 4 this comfortably
/// supports hundreds of millions of entries.
const MAX_HEIGHT: usize = 12;
/// Probability denominator for growing a tower by one level.
const BRANCHING: u32 = 4;

/// Index of the head sentinel node.
const HEAD: u32 = 0;
/// Sentinel meaning "no node".
const NIL: u32 = u32::MAX;

/// log2 of the first node segment's length.
const SEG0_BITS: u32 = 6;
/// Nodes in the first segment; segment `s` holds `SEG0_LEN << s` nodes.
const SEG0_LEN: u32 = 1 << SEG0_BITS;
/// Segment count; 26 doubling segments cover the whole `u32` index space.
const NUM_SEGMENTS: usize = 26;
/// Highest valid node index (exclusive): the capacity of all segments,
/// which also keeps real indices clear of the `NIL` sentinel.
const MAX_NODES: u32 = ((1u32 << NUM_SEGMENTS) - 1) << SEG0_BITS;

/// Byte size of a fresh key-arena block (bigger keys get their own block).
const KEY_BLOCK_BYTES: usize = 4096;

/// Maps a node index to its (segment, offset-within-segment) pair.
fn locate(index: u32) -> (usize, usize) {
    let bucket = (index >> SEG0_BITS) + 1;
    let segment = (31 - bucket.leading_zeros()) as usize;
    let segment_start = ((1u32 << segment) - 1) << SEG0_BITS;
    (segment, (index - segment_start) as usize)
}

/// Number of nodes segment `segment` holds.
fn segment_len(segment: usize) -> usize {
    (SEG0_LEN as usize) << segment
}

/// A tower node. `key_ptr`/`key_len`/`height` are written exactly once,
/// before the node is published; `next` is only ever touched atomically.
struct Node {
    key_ptr: *const u8,
    key_len: u32,
    /// Tower height (levels `0..height` participate in the list). Only used
    /// by diagnostics/tests; traversal never needs it.
    height: u8,
    next: [AtomicU32; MAX_HEIGHT],
}

fn empty_node() -> Node {
    Node {
        key_ptr: ptr::null(),
        key_len: 0,
        height: 0,
        next: [(); MAX_HEIGHT].map(|_| AtomicU32::new(NIL)),
    }
}

impl Node {
    /// The node's key. Only valid on published (or head) nodes.
    fn key(&self) -> &[u8] {
        if self.key_ptr.is_null() {
            return &[];
        }
        // Safety: `key_ptr`/`key_len` were written before the node was
        // published and address key-arena bytes that live (immutably) as
        // long as the list.
        unsafe { std::slice::from_raw_parts(self.key_ptr, self.key_len as usize) }
    }
}

/// Append-only arena for key bytes. Blocks are raw allocations so the writer
/// can keep filling a block while readers hold pointers into its already
/// published prefix (no `&mut` is ever formed over published bytes).
struct KeyArena {
    /// Every block ever allocated, as `(pointer, capacity)`, for `Drop`.
    blocks: Vec<(*mut u8, usize)>,
    /// Bump pointer into the last block.
    current: *mut u8,
    /// Bytes left in the last block.
    remaining: usize,
}

impl KeyArena {
    fn new() -> Self {
        KeyArena {
            blocks: Vec::new(),
            current: ptr::null_mut(),
            remaining: 0,
        }
    }

    /// Copies `bytes` into the arena and returns a pointer valid for the
    /// arena's lifetime.
    fn allocate(&mut self, bytes: &[u8]) -> *const u8 {
        if self.remaining < bytes.len() {
            let capacity = bytes.len().max(KEY_BLOCK_BYTES);
            let block: Box<[u8]> = vec![0u8; capacity].into_boxed_slice();
            let pointer = Box::into_raw(block) as *mut u8;
            self.blocks.push((pointer, capacity));
            self.current = pointer;
            self.remaining = capacity;
        }
        let out = self.current as *const u8;
        // Safety: `current` has at least `bytes.len()` bytes of exclusive,
        // never-published space left in its block.
        unsafe {
            ptr::copy_nonoverlapping(bytes.as_ptr(), self.current, bytes.len());
            self.current = self.current.add(bytes.len());
        }
        self.remaining -= bytes.len();
        out
    }
}

impl Drop for KeyArena {
    fn drop(&mut self) {
        for &(pointer, capacity) in &self.blocks {
            // Safety: each entry came from `Box::into_raw` of a boxed slice
            // with exactly this capacity and is freed exactly once.
            unsafe {
                drop(Box::from_raw(ptr::slice_from_raw_parts_mut(
                    pointer, capacity,
                )));
            }
        }
    }
}

// Safety: the raw pointers are plain heap allocations; the arena is only
// mutated under the list's writer mutex.
unsafe impl Send for KeyArena {}

/// Writer-side state, serialised by a mutex: the tower-height RNG, the key
/// arena's bump pointer, and the next free node slot.
struct WriterState {
    rng: StdRng,
    keys: KeyArena,
    /// Index the next inserted node will occupy.
    next_index: u32,
}

/// Source of per-list RNG seeds: successive lists draw successive counter
/// values, so two memtables created back to back get different tower-height
/// sequences while any fixed creation order stays deterministic for tests.
static NEXT_LIST_SEED: AtomicU64 = AtomicU64::new(1);

fn next_seed() -> u64 {
    let n = NEXT_LIST_SEED.fetch_add(1, MemOrder::Relaxed);
    0xdead_beef ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// An append-only ordered map over byte-string keys, safe to read from any
/// number of threads while one writer inserts.
///
/// Keys are compared with a caller-provided comparator so the memtable can
/// order encoded internal keys (user key ascending, sequence descending).
/// Duplicate keys are not detected — the memtable never inserts the same
/// internal key twice because sequence numbers are unique.
pub struct SkipList {
    /// Node segments; `segments[s]` points at `SEG0_LEN << s` nodes once
    /// allocated (null before). Published with release stores.
    segments: [AtomicPtr<Node>; NUM_SEGMENTS],
    max_height: AtomicUsize,
    len: AtomicUsize,
    approximate_memory: AtomicUsize,
    cmp: fn(&[u8], &[u8]) -> Ordering,
    writer: Mutex<WriterState>,
}

// Safety: shared state is only reached through atomics; node and key memory
// is written before publication and immutable afterwards (see module docs);
// the writer-only raw pointers are guarded by the writer mutex.
unsafe impl Send for SkipList {}
unsafe impl Sync for SkipList {}

impl SkipList {
    /// Creates an empty skip list ordered by `cmp`.
    pub fn new(cmp: fn(&[u8], &[u8]) -> Ordering) -> Self {
        let list = SkipList {
            segments: [(); NUM_SEGMENTS].map(|_| AtomicPtr::new(ptr::null_mut())),
            max_height: AtomicUsize::new(1),
            len: AtomicUsize::new(0),
            approximate_memory: AtomicUsize::new(std::mem::size_of::<Node>()),
            cmp,
            writer: Mutex::new(WriterState {
                rng: StdRng::seed_from_u64(next_seed()),
                keys: KeyArena::new(),
                next_index: 1,
            }),
        };
        // Allocate segment 0 and claim slot 0 as the head sentinel (its
        // `empty_node` defaults — null key, all-NIL links — are exactly the
        // head's state).
        list.ensure_segment(0);
        list
    }

    /// Number of entries in the list.
    pub fn len(&self) -> usize {
        self.len.load(MemOrder::Acquire)
    }

    /// Returns `true` if the list holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes of memory used by keys and nodes.
    pub fn approximate_memory_usage(&self) -> usize {
        self.approximate_memory.load(MemOrder::Relaxed)
    }

    /// Allocates the backing storage for `segment` if it does not exist yet.
    /// Caller must hold the writer mutex (or be constructing the list).
    fn ensure_segment(&self, segment: usize) {
        if !self.segments[segment].load(MemOrder::Relaxed).is_null() {
            return;
        }
        let nodes: Box<[Node]> = (0..segment_len(segment)).map(|_| empty_node()).collect();
        let pointer = Box::into_raw(nodes) as *mut Node;
        // Release pairs with the acquire loads readers use to find nodes, so
        // a published node index always implies a visible segment pointer.
        self.segments[segment].store(pointer, MemOrder::Release);
    }

    /// Raw pointer to the node slot at `index`, which must be allocated.
    /// Derived from the segment base (not a shared reference) so the writer
    /// may initialise an unpublished slot through it.
    fn node_ptr(&self, index: u32) -> *mut Node {
        let (segment, offset) = locate(index);
        let base = self.segments[segment].load(MemOrder::Acquire);
        debug_assert!(!base.is_null(), "node index {index} not allocated");
        // Safety: `offset` is in bounds for the segment by construction.
        unsafe { base.add(offset) }
    }

    /// Shared reference to the node at `index`, which must be allocated.
    fn node(&self, index: u32) -> &Node {
        // Safety: indices only come from the head constant or published next
        // pointers, both of which happen-after the segment's release store;
        // published nodes are never mutated except through their atomics.
        unsafe { &*self.node_ptr(index) }
    }

    fn random_height(rng: &mut StdRng) -> usize {
        let mut height = 1;
        while height < MAX_HEIGHT && rng.gen_ratio(1, BRANCHING) {
            height += 1;
        }
        height
    }

    fn key_is_after_node(&self, key: &[u8], node: u32) -> bool {
        node != NIL && node != HEAD && (self.cmp)(self.node(node).key(), key) == Ordering::Less
    }

    /// Finds the first node `>= key`; fills `prev`, per level, with the last
    /// node whose key is `< key`.
    fn find_greater_or_equal(&self, key: &[u8], prev: Option<&mut [u32; MAX_HEIGHT]>) -> u32 {
        let mut scratch = [HEAD; MAX_HEIGHT];
        let prev = match prev {
            Some(p) => p,
            None => &mut scratch,
        };
        let mut node = HEAD;
        let mut level = self.max_height.load(MemOrder::Relaxed) - 1;
        loop {
            let next = self.node(node).next[level].load(MemOrder::Acquire);
            if self.key_is_after_node(key, next) {
                node = next;
            } else {
                prev[level] = node;
                if level == 0 {
                    return next;
                }
                level -= 1;
            }
        }
    }

    /// Inserts `key` into the list.
    ///
    /// Inserts are serialised internally; readers and cursors keep working
    /// concurrently and observe the new entry atomically once it is linked.
    pub fn insert(&self, key: &[u8]) {
        let mut writer = self.writer.lock();

        let mut prev = [HEAD; MAX_HEIGHT];
        let _ = self.find_greater_or_equal(key, Some(&mut prev));

        let height = Self::random_height(&mut writer.rng);
        let max_height = self.max_height.load(MemOrder::Relaxed);
        if height > max_height {
            for slot in prev.iter_mut().take(height).skip(max_height) {
                *slot = HEAD;
            }
            // Racing readers that observe the new height before the new
            // links simply fall through NIL head pointers at the top levels.
            self.max_height.store(height, MemOrder::Relaxed);
        }

        let index = writer.next_index;
        assert!(
            index < MAX_NODES,
            "skiplist is full ({MAX_NODES} entries); \
             write_buffer_size must rotate memtables long before this"
        );
        let (segment, _) = locate(index);
        self.ensure_segment(segment);
        let key_ptr = writer.keys.allocate(key);

        let raw = self.node_ptr(index);
        // Safety: slot `index` is unpublished — no reader can reach it — so
        // these raw one-time writes race with nothing. Going through the raw
        // segment pointer (never `&mut`) keeps readers of *other* nodes in
        // the same segment untouched by aliasing rules.
        unsafe {
            ptr::addr_of_mut!((*raw).key_ptr).write(key_ptr);
            ptr::addr_of_mut!((*raw).key_len).write(key.len() as u32);
            ptr::addr_of_mut!((*raw).height).write(height as u8);
        }
        for (level, &prev_index) in prev.iter().enumerate().take(height) {
            let successor = self.node(prev_index).next[level].load(MemOrder::Relaxed);
            // Safety: as above — the slot is unpublished; the store itself
            // is atomic so later concurrent readers are race-free.
            unsafe { &(*raw).next[level] }.store(successor, MemOrder::Relaxed);
        }
        // Publish bottom-up: once a reader can see the node at some level,
        // every lower level (and the key bytes) is already in place.
        for (level, &prev_index) in prev.iter().enumerate().take(height) {
            self.node(prev_index).next[level].store(index, MemOrder::Release);
        }

        writer.next_index = index + 1;
        self.approximate_memory
            .fetch_add(key.len() + std::mem::size_of::<Node>(), MemOrder::Relaxed);
        self.len.fetch_add(1, MemOrder::Release);
    }

    /// Returns `true` if a key equal to `key` (under the comparator) exists.
    pub fn contains(&self, key: &[u8]) -> bool {
        let node = self.find_greater_or_equal(key, None);
        node != NIL && (self.cmp)(self.node(node).key(), key) == Ordering::Equal
    }

    /// Creates a cursor over the list.
    pub fn iter(&self) -> SkipListIterator<'_> {
        SkipListIterator {
            list: self,
            node: NIL,
        }
    }

    // Index-based cursor primitives, used by the crate's owned iterator
    // (which stores a node index next to an `Arc` of the list instead of a
    // borrow). Indices stay valid forever — the arena never moves or frees
    // nodes — so a cursor can outlive arbitrarily many concurrent inserts.
    // `u32::MAX` means "not positioned".

    /// Index of the first entry, or the invalid index if empty.
    pub(crate) fn first_index(&self) -> u32 {
        self.node(HEAD).next[0].load(MemOrder::Acquire)
    }

    /// Index of the first entry `>= key`.
    pub(crate) fn seek_index(&self, key: &[u8]) -> u32 {
        self.find_greater_or_equal(key, None)
    }

    /// Index of the entry after `node`.
    pub(crate) fn next_index(&self, node: u32) -> u32 {
        self.node(node).next[0].load(MemOrder::Acquire)
    }

    /// Whether `node` addresses a real entry.
    pub(crate) fn index_valid(&self, node: u32) -> bool {
        node != NIL && node != HEAD
    }

    /// The key stored at `node`.
    pub(crate) fn key_at(&self, node: u32) -> &[u8] {
        self.node(node).key()
    }

    /// Tower height of the entry at `node` (diagnostics/tests only).
    #[allow(dead_code)]
    pub(crate) fn height_at(&self, node: u32) -> usize {
        self.node(node).height as usize
    }
}

impl Drop for SkipList {
    fn drop(&mut self) {
        for (segment, slot) in self.segments.iter_mut().enumerate() {
            let pointer = *slot.get_mut();
            if pointer.is_null() {
                continue;
            }
            // Safety: the pointer came from `Box::into_raw` of a boxed slice
            // of exactly `segment_len(segment)` nodes; `&mut self` proves no
            // reader remains.
            unsafe {
                drop(Box::from_raw(ptr::slice_from_raw_parts_mut(
                    pointer,
                    segment_len(segment),
                )));
            }
        }
    }
}

/// A cursor over a [`SkipList`].
///
/// The cursor never invalidates: the list is append-only, so a held position
/// stays live across any number of concurrent inserts.
pub struct SkipListIterator<'a> {
    list: &'a SkipList,
    node: u32,
}

impl<'a> SkipListIterator<'a> {
    /// Returns `true` when positioned at an entry.
    pub fn valid(&self) -> bool {
        self.node != NIL && self.node != HEAD
    }

    /// The key at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is not valid.
    pub fn key(&self) -> &'a [u8] {
        assert!(self.valid(), "key() on invalid skiplist iterator");
        self.list.node(self.node).key()
    }

    /// Positions at the first entry `>= key`.
    pub fn seek(&mut self, key: &[u8]) {
        self.node = self.list.find_greater_or_equal(key, None);
    }

    /// Positions at the first entry.
    pub fn seek_to_first(&mut self) {
        self.node = self.list.first_index();
    }

    /// Advances to the next entry.
    pub fn next(&mut self) {
        assert!(self.valid(), "next() on invalid skiplist iterator");
        self.node = self.list.next_index(self.node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn bytewise(a: &[u8], b: &[u8]) -> Ordering {
        a.cmp(b)
    }

    #[test]
    fn empty_list_has_no_entries() {
        let list = SkipList::new(bytewise);
        assert!(list.is_empty());
        assert!(!list.contains(b"x"));
        let mut iter = list.iter();
        iter.seek_to_first();
        assert!(!iter.valid());
        iter.seek(b"");
        assert!(!iter.valid());
    }

    #[test]
    fn inserted_keys_are_found_and_sorted() {
        let list = SkipList::new(bytewise);
        let keys = [b"m".to_vec(), b"a".to_vec(), b"z".to_vec(), b"c".to_vec()];
        for k in &keys {
            list.insert(k);
        }
        assert_eq!(list.len(), 4);
        for k in &keys {
            assert!(list.contains(k));
        }
        assert!(!list.contains(b"q"));

        let mut iter = list.iter();
        iter.seek_to_first();
        let mut seen = Vec::new();
        while iter.valid() {
            seen.push(iter.key().to_vec());
            iter.next();
        }
        let mut expected = keys.to_vec();
        expected.sort();
        assert_eq!(seen, expected);
    }

    #[test]
    fn seek_positions_at_lower_bound() {
        let list = SkipList::new(bytewise);
        for k in ["b", "d", "f"] {
            list.insert(k.as_bytes());
        }
        let mut iter = list.iter();
        iter.seek(b"c");
        assert!(iter.valid());
        assert_eq!(iter.key(), b"d");
        iter.seek(b"d");
        assert_eq!(iter.key(), b"d");
        iter.seek(b"g");
        assert!(!iter.valid());
    }

    #[test]
    fn large_random_insertions_stay_sorted() {
        use rand::seq::SliceRandom;
        let mut keys: Vec<Vec<u8>> = (0..5000u32)
            .map(|i| format!("{i:08}").into_bytes())
            .collect();
        let mut rng = StdRng::seed_from_u64(42);
        keys.shuffle(&mut rng);
        let list = SkipList::new(bytewise);
        for k in &keys {
            list.insert(k);
        }
        let mut iter = list.iter();
        iter.seek_to_first();
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        while iter.valid() {
            if let Some(p) = &prev {
                assert!(p.as_slice() < iter.key());
            }
            prev = Some(iter.key().to_vec());
            count += 1;
            iter.next();
        }
        assert_eq!(count, 5000);
        assert!(list.approximate_memory_usage() > 5000 * 8);
    }

    #[test]
    fn keys_longer_than_an_arena_block_are_stored_intact() {
        let list = SkipList::new(bytewise);
        let huge = vec![b'x'; KEY_BLOCK_BYTES * 3 + 17];
        list.insert(b"small");
        list.insert(&huge);
        assert!(list.contains(&huge));
        let mut iter = list.iter();
        iter.seek(b"x");
        assert_eq!(iter.key(), huge.as_slice());
    }

    #[test]
    fn segment_indexing_is_contiguous_and_non_overlapping() {
        let mut expected = (0usize, 0usize);
        for index in 0..200_000u32 {
            let (segment, offset) = locate(index);
            assert_eq!((segment, offset), expected, "index {index}");
            expected = if offset + 1 == segment_len(segment) {
                (segment + 1, 0)
            } else {
                (segment, offset + 1)
            };
        }
    }

    #[test]
    fn successive_lists_draw_different_tower_sequences() {
        // The per-list seed counter must keep two back-to-back memtables
        // from replaying identical tower heights (the old fixed-seed bug).
        let first = SkipList::new(bytewise);
        let second = SkipList::new(bytewise);
        for i in 0..512u32 {
            let key = format!("{i:08}").into_bytes();
            first.insert(&key);
            second.insert(&key);
        }
        let heights = |list: &SkipList| -> Vec<usize> {
            (1..=512u32).map(|index| list.height_at(index)).collect()
        };
        assert_ne!(
            heights(&first),
            heights(&second),
            "independent lists replayed the same height sequence"
        );
    }

    #[test]
    fn concurrent_readers_see_a_consistent_sorted_prefix() {
        // Satellite: interleaved insert/iterate. A writer streams ordered
        // numeric keys while reader threads continuously iterate; every scan
        // must observe a sorted sequence and never lose an entry it has
        // already seen (the list is append-only).
        const TOTAL: u32 = 20_000;
        let list = Arc::new(SkipList::new(bytewise));
        let stop = Arc::new(AtomicBool::new(false));

        std::thread::scope(|scope| {
            for _ in 0..3 {
                let list = Arc::clone(&list);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut max_seen = 0usize;
                    while !stop.load(MemOrder::Acquire) {
                        let mut iter = list.iter();
                        iter.seek_to_first();
                        let mut count = 0usize;
                        let mut prev: Option<Vec<u8>> = None;
                        while iter.valid() {
                            let key = iter.key();
                            if let Some(p) = &prev {
                                assert!(p.as_slice() < key, "scan went out of order");
                            }
                            prev = Some(key.to_vec());
                            count += 1;
                            iter.next();
                        }
                        assert!(count >= max_seen, "a published entry disappeared");
                        max_seen = count;
                    }
                });
            }
            for i in 0..TOTAL {
                list.insert(format!("{i:08}").as_bytes());
            }
            stop.store(true, MemOrder::Release);
        });

        assert_eq!(list.len(), TOTAL as usize);
    }

    #[test]
    fn concurrent_seeks_during_inserts_find_published_keys() {
        let list = Arc::new(SkipList::new(bytewise));
        let published = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        std::thread::scope(|scope| {
            for _ in 0..2 {
                let list = Arc::clone(&list);
                let published = Arc::clone(&published);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(MemOrder::Acquire) {
                        let upto = published.load(MemOrder::Acquire);
                        if upto == 0 {
                            continue;
                        }
                        // Every key published before we started must be
                        // findable mid-insert-stream.
                        let probe = upto / 2;
                        let key = format!("{probe:08}");
                        assert!(
                            list.contains(key.as_bytes()),
                            "published key {probe} not found"
                        );
                    }
                });
            }
            for i in 0..10_000usize {
                list.insert(format!("{i:08}").as_bytes());
                published.store(i + 1, MemOrder::Release);
            }
            stop.store(true, MemOrder::Release);
        });
    }
}
