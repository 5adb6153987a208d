//! A thread-safe, sharded LRU cache with byte-size accounting.
//!
//! Used as the block cache (keyed by `(table id, block offset)`). Capacity is
//! expressed in abstract "charge" units — bytes for blocks. Values are handed
//! out as clones, so a value should be cheap to clone (a [`Block`] shares its
//! bytes).
//!
//! [`Block`]: crate::Block
//!
//! Large caches are split into a power-of-two number of independently locked
//! shards selected by key hash, so concurrent readers hitting different
//! blocks do not serialise on a single mutex. A key is hashed once per
//! operation: the shard is picked from the hash's high bits and the shard's
//! map is handed the same value. Each shard owns an equal slice of the total
//! capacity and runs its own LRU list; hit/miss/usage totals are exact sums
//! over the shards. Small caches (where per-shard capacity would be too small
//! to behave like an LRU at all) stay single-sharded and keep strict global
//! LRU ordering.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use parking_lot::Mutex;

/// Upper bound on the number of shards (must be a power of two).
const MAX_SHARDS: usize = 16;

/// Minimum per-shard capacity required before the cache splits into more
/// than one shard. Below this, sharding would make eviction behaviour
/// erratic (single entries larger than a shard), so we keep one shard.
const MIN_SHARD_CAPACITY: usize = 4096;

/// One multiply per word: keys are file numbers and block offsets the store
/// chose itself, so there is no crafted collision for SipHash to defend
/// against. `finish` rotates the well-mixed high bits down to where a hash
/// map takes its bucket index from.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.write_u64(u64::from(*byte));
        }
    }
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A key with its hash, computed once by [`LruCache::hashed`]; the shard's
/// map reads it back through [`PassThrough`] instead of hashing again.
#[derive(PartialEq, Eq, Clone)]
struct Hashed<K> {
    hash: u64,
    key: K,
}

impl<K> Hash for Hashed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a Hashed key writes one u64");
    }
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

struct Entry<K, V> {
    key: Hashed<K>,
    value: V,
    charge: usize,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

struct LruInner<K, V> {
    map: HashMap<Hashed<K>, usize, BuildHasherDefault<PassThrough>>,
    slab: Vec<Option<Entry<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    usage: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruInner<K, V> {
    fn new(capacity: usize) -> Self {
        LruInner {
            map: HashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            usage: 0,
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    fn insert(&mut self, key: Hashed<K>, value: V, charge: usize) {
        if let Some(&slot) = self.map.get(&key) {
            self.detach(slot);
            self.remove_slot(slot);
        }
        let entry = Entry {
            key: key.clone(),
            value,
            charge,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(entry);
                slot
            }
            None => {
                self.slab.push(Some(entry));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.usage += charge;
        self.attach_front(slot);
        self.evict_if_needed();
    }

    fn get(&mut self, key: &Hashed<K>) -> Option<V> {
        match self.map.get(key).copied() {
            Some(slot) => {
                self.hits += 1;
                self.detach(slot);
                self.attach_front(slot);
                self.slab[slot].as_ref().map(|e| e.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.usage = 0;
    }

    fn attach_front(&mut self, slot: usize) {
        let old_head = self.head;
        if let Some(entry) = self.slab[slot].as_mut() {
            entry.prev = NIL;
            entry.next = old_head;
        }
        if old_head != NIL {
            if let Some(entry) = self.slab[old_head].as_mut() {
                entry.prev = slot;
            }
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = match self.slab[slot].as_ref() {
            Some(entry) => (entry.prev, entry.next),
            None => return,
        };
        if prev != NIL {
            if let Some(entry) = self.slab[prev].as_mut() {
                entry.next = next;
            }
        } else {
            self.head = next;
        }
        if next != NIL {
            if let Some(entry) = self.slab[next].as_mut() {
                entry.prev = prev;
            }
        } else {
            self.tail = prev;
        }
    }

    fn remove_slot(&mut self, slot: usize) {
        if let Some(entry) = self.slab[slot].take() {
            self.usage -= entry.charge;
            self.map.remove(&entry.key);
            self.free.push(slot);
        }
    }

    fn evict_if_needed(&mut self) {
        while self.usage > self.capacity && self.tail != NIL {
            let victim = self.tail;
            self.detach(victim);
            self.remove_slot(victim);
        }
    }
}

/// A sharded, mutex-per-shard LRU cache.
pub struct LruCache<K, V> {
    shards: Vec<Mutex<LruInner<K, V>>>,
    /// `shards.len() - 1`; valid as a bitmask because the count is a power
    /// of two.
    mask: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` units of charge, split
    /// evenly across a power-of-two number of shards chosen from the
    /// capacity (large byte-sized caches get [`MAX_SHARDS`]; small caches
    /// stay single-sharded so strict LRU order holds).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut shards = MAX_SHARDS;
        while shards > 1 && capacity / shards < MIN_SHARD_CAPACITY {
            shards /= 2;
        }
        let per_shard = capacity.div_ceil(shards);
        LruCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruInner::new(per_shard)))
                .collect(),
            mask: shards - 1,
        }
    }

    /// Number of independently locked shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Hashes `key` once and picks its shard from the hash's well-mixed
    /// bits: after `finish`'s rotation those sit at bit 22 and up, clear of
    /// the low bits and the top seven a hash map reads.
    fn hashed(&self, key: &K) -> (&Mutex<LruInner<K, V>>, Hashed<K>) {
        let mut hasher = MulHasher::default();
        key.hash(&mut hasher);
        let hash = hasher.finish();
        let shard = &self.shards[(hash >> 22) as usize & self.mask];
        let key = key.clone();
        (shard, Hashed { hash, key })
    }

    /// Inserts `key -> value` with the given charge, evicting old entries
    /// from the key's shard if its capacity is exceeded.
    pub fn insert(&self, key: K, value: V, charge: usize) {
        let (shard, key) = self.hashed(&key);
        shard.lock().insert(key, value, charge);
    }

    /// Returns a clone of the cached value for `key`, marking it most
    /// recently used within its shard.
    pub fn get(&self, key: &K) -> Option<V> {
        let (shard, key) = self.hashed(key);
        shard.lock().get(&key)
    }

    /// Number of entries currently cached, summed over all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Returns `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total charge of the cached entries, summed over all shards.
    pub fn usage(&self) -> usize {
        self.shards.iter().map(|s| s.lock().usage).sum()
    }

    /// Exact hit and miss counters since creation, summed over all shards.
    pub fn hit_miss(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for shard in &self.shards {
            let inner = shard.lock();
            hits += inner.hits;
            misses += inner.misses;
        }
        (hits, misses)
    }

    /// Removes every entry from every shard (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let cache: LruCache<u64, String> = LruCache::new(100);
        cache.insert(1, "one".to_string(), 10);
        cache.insert(2, "two".to_string(), 10);
        assert_eq!(cache.get(&1).unwrap().as_str(), "one");
        assert_eq!(cache.get(&2).unwrap().as_str(), "two");
        assert!(cache.get(&3).is_none());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.usage(), 20);
        let (hits, misses) = cache.hit_miss();
        assert_eq!(hits, 2);
        assert_eq!(misses, 1);
    }

    #[test]
    fn least_recently_used_entries_are_evicted_first() {
        let cache: LruCache<u32, u32> = LruCache::new(3);
        cache.insert(1, 10, 1);
        cache.insert(2, 20, 1);
        cache.insert(3, 30, 1);
        // Touch 1 so 2 becomes the LRU entry.
        cache.get(&1);
        cache.insert(4, 40, 1);
        assert!(cache.get(&2).is_none());
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&3).is_some());
        assert!(cache.get(&4).is_some());
    }

    #[test]
    fn oversized_entry_evicts_everything_else() {
        let cache: LruCache<u32, Vec<u8>> = LruCache::new(10);
        cache.insert(1, vec![0; 4], 4);
        cache.insert(2, vec![0; 4], 4);
        cache.insert(3, vec![0; 20], 20);
        // The oversized entry itself is evicted too (usage > capacity).
        assert!(cache.usage() <= 10 || cache.len() == 1);
        assert!(cache.get(&1).is_none());
        assert!(cache.get(&2).is_none());
    }

    #[test]
    fn reinserting_a_key_replaces_it() {
        let cache: LruCache<u32, u32> = LruCache::new(10);
        cache.insert(1, 100, 2);
        cache.insert(1, 200, 2);
        assert_eq!(cache.get(&1), Some(200));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.usage(), 2);
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache: LruCache<u32, u32> = LruCache::new(10);
        cache.insert(1, 1, 1);
        cache.insert(2, 2, 1);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.usage(), 0);
    }

    #[test]
    fn value_survives_eviction_while_referenced() {
        let cache: LruCache<u32, std::sync::Arc<String>> = LruCache::new(1);
        cache.insert(1, std::sync::Arc::new("held".to_string()), 1);
        let held = cache.get(&1).unwrap();
        cache.insert(2, std::sync::Arc::new("evictor".to_string()), 1);
        assert!(cache.get(&1).is_none());
        // The clone we hold keeps the value alive after it left the cache,
        // and the cache let go of its own.
        assert_eq!(held.as_str(), "held");
        assert_eq!(std::sync::Arc::strong_count(&held), 1);
    }

    #[test]
    fn small_capacities_stay_single_sharded_large_ones_split() {
        let small: LruCache<u32, u32> = LruCache::new(100);
        assert_eq!(small.shard_count(), 1);
        let large: LruCache<u32, u32> = LruCache::new(8 << 20);
        assert_eq!(large.shard_count(), MAX_SHARDS);
        assert!(large.shard_count().is_power_of_two());
    }

    /// Block-cache keys are regular — small file numbers, offsets in block
    /// steps — and one cheap hash must still spread them: over the shards
    /// (its high bits) and inside a shard's map (the bits handed on).
    #[test]
    fn block_keys_spread_evenly_over_the_shards() {
        const OFFSETS: u64 = 16;
        let cache: LruCache<(u64, u64), ()> = LruCache::new(1 << 30);
        assert_eq!(cache.shard_count(), MAX_SHARDS);
        for file in 1..=512u64 {
            for block in 0..OFFSETS {
                cache.insert((file, block * 4096), (), 1);
            }
        }
        let even = 512 * OFFSETS as usize / MAX_SHARDS;
        let mut low_bits = std::collections::HashSet::new();
        for shard in &cache.shards {
            let inner = shard.lock();
            let held = inner.map.len();
            assert!(held >= even / 2 && held <= even * 2, "{held} of {even}");
            low_bits.extend(inner.map.keys().map(|key| key.hash & 0xfff));
        }
        assert_eq!(cache.len(), 512 * OFFSETS as usize);
        assert!(low_bits.len() > 3_000, "{} bucket indexes", low_bits.len());
    }

    #[test]
    fn sharded_cache_aggregates_exact_counters_and_bounds_usage() {
        let capacity = MAX_SHARDS * MIN_SHARD_CAPACITY * 4;
        let cache: LruCache<u64, Vec<u8>> = LruCache::new(capacity);
        assert_eq!(cache.shard_count(), MAX_SHARDS);

        for i in 0..1000u64 {
            cache.insert(i, vec![0u8; 512], 512);
        }
        let mut hits = 0u64;
        for i in 0..1000u64 {
            if cache.get(&i).is_some() {
                hits += 1;
            }
        }
        let (h, m) = cache.hit_miss();
        assert_eq!(h, hits);
        assert_eq!(m, 1000 - hits);
        assert_eq!(cache.usage(), cache.len() * 512);
        // Per-shard eviction keeps total usage within a rounding slop of
        // one entry per shard above the configured capacity.
        assert!(cache.usage() <= capacity + MAX_SHARDS * 512);

        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.usage(), 0);
    }

    #[test]
    fn concurrent_access_across_shards_is_safe() {
        let cache: std::sync::Arc<LruCache<u64, u64>> =
            std::sync::Arc::new(LruCache::new(MAX_SHARDS * MIN_SHARD_CAPACITY));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let cache = std::sync::Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    let key = t * 10_000 + i;
                    cache.insert(key, key, 1);
                    assert_eq!(cache.get(&key), Some(key));
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let (hits, misses) = cache.hit_miss();
        assert_eq!(hits + misses, 8000);
    }
}
