//! Guards: the FLSM mechanism that organises overlapping sstables.
//!
//! A guard at level `i` is a user key that divides that level's key space.
//! All sstables whose keys fall in `[guard, next_guard)` hang off the guard;
//! guards never overlap, so a `get()` inspects exactly one guard per level,
//! but the sstables *inside* a guard may overlap freely — which is what lets
//! FLSM compaction append fragments instead of rewriting data (chapter 3 of
//! the paper).
//!
//! Guard keys are chosen probabilistically from inserted keys by hashing them
//! with MurmurHash3 and counting trailing set bits, exactly as described in
//! section 4.4 of the paper: a key whose hash ends in `top_level_bits`
//! consecutive ones becomes a guard at level 1 (and therefore at every deeper
//! level); each level deeper relaxes the requirement by `bit_decrement` bits,
//! so deeper levels have exponentially more guards — the skip-list shape.

use std::collections::BTreeSet;
use std::sync::Arc;

use pebblesdb_common::hash::murmur3_32;
use pebblesdb_common::key::compare_internal_keys;
use pebblesdb_common::{StoreOptions, NUM_LEVELS};
use pebblesdb_engine::FileMetaData;

/// Seed used for guard-selection hashing (fixed so guard placement is stable
/// across restarts).
const GUARD_HASH_SEED: u32 = 0x9747_b28c;

/// Decides at which level (if any) an inserted key becomes a guard.
#[derive(Debug, Clone)]
pub struct GuardPicker {
    top_level_bits: u32,
    bit_decrement: u32,
}

impl GuardPicker {
    /// Creates a picker from the store options.
    pub fn new(options: &StoreOptions) -> Self {
        GuardPicker {
            top_level_bits: options.top_level_bits,
            bit_decrement: options.bit_decrement,
        }
    }

    /// Number of trailing set bits required to be a guard at `level`
    /// (levels are 1-based; level 0 has no guards).
    pub fn required_bits(&self, level: usize) -> u32 {
        let relax = self
            .bit_decrement
            .saturating_mul(level.saturating_sub(1) as u32);
        self.top_level_bits.saturating_sub(relax).max(1)
    }

    /// Returns the topmost (smallest-numbered) level at which `key` is a
    /// guard, or `None` if it is not a guard anywhere.
    ///
    /// Because required bits shrink with depth, a key that is a guard at
    /// level `i` is automatically a guard at every level `> i`.
    pub fn guard_level(&self, key: &[u8]) -> Option<usize> {
        let ones = murmur3_32(key, GUARD_HASH_SEED).trailing_ones();
        (1..NUM_LEVELS).find(|&level| ones >= self.required_bits(level))
    }
}

/// A guard and the sstables currently attached to it.
#[derive(Debug, Clone, Default)]
pub struct GuardMeta {
    /// The guard key (user key). The sentinel guard has an empty key and
    /// holds every sstable smaller than the first real guard.
    pub key: Vec<u8>,
    /// Sstables attached to this guard, newest first (descending file
    /// number). Their key ranges may overlap.
    pub files: Vec<Arc<FileMetaData>>,
}

impl GuardMeta {
    /// Creates an empty guard for `key`.
    pub fn new(key: Vec<u8>) -> Self {
        GuardMeta {
            key,
            files: Vec::new(),
        }
    }

    /// Returns `true` if this is the sentinel guard.
    pub fn is_sentinel(&self) -> bool {
        self.key.is_empty()
    }

    /// Total bytes stored under this guard.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.file_size).sum()
    }

    /// Returns `true` if two of the guard's sstables overlap, which is what
    /// a compaction of the guard can collapse. A guard holding more data
    /// than `max_file_size` legitimately keeps several sstables that are
    /// *disjoint* sorted runs (cut by internal key, so one user key's
    /// versions may end one file and start the next); rewriting those gains
    /// a reader nothing.
    pub fn has_overlapping_files(&self) -> bool {
        let ends_before = |a: &FileMetaData, b: &FileMetaData| {
            compare_internal_keys(a.largest.encoded(), b.smallest.encoded()).is_lt()
        };
        self.files.iter().enumerate().any(|(i, a)| {
            let later = &self.files[i + 1..];
            later
                .iter()
                .any(|b| !ends_before(a, b) && !ends_before(b, a))
        })
    }
}

/// Guards chosen but not yet applied to the on-disk layout.
///
/// Section 3.3 of the paper: new guards are collected in memory and only take
/// effect (and are persisted) at the next compaction into their level, so
/// reads never have to consider half-applied guards.
#[derive(Debug, Default, Clone)]
pub struct UncommittedGuards {
    /// `per_level[level]` holds the guard keys waiting to be committed.
    per_level: Vec<BTreeSet<Vec<u8>>>,
}

impl UncommittedGuards {
    /// Creates empty sets for `levels` levels.
    pub fn new(levels: usize) -> Self {
        UncommittedGuards {
            per_level: vec![BTreeSet::new(); levels],
        }
    }

    /// Records `key` as a guard at `level` and every deeper level.
    pub fn add(&mut self, level: usize, key: &[u8]) {
        for set in self.per_level.iter_mut().skip(level) {
            set.insert(key.to_vec());
        }
    }

    /// The pending guard keys for `level`.
    pub fn for_level(&self, level: usize) -> &BTreeSet<Vec<u8>> {
        &self.per_level[level]
    }

    /// Removes exactly `keys` from `level`'s pending set.
    ///
    /// Used when a compaction commits the guard keys it snapshotted at build
    /// time: guards picked by writers *while the compaction IO ran* must stay
    /// pending for the next compaction into the level, so clearing the
    /// level's whole set would silently drop them.
    pub fn remove_committed(&mut self, level: usize, keys: &[Vec<u8>]) {
        for key in keys {
            self.per_level[level].remove(key);
        }
    }

    /// Total number of pending guard keys across all levels.
    pub fn len(&self) -> usize {
        self.per_level.iter().map(|s| s.len()).sum()
    }

    /// Returns `true` if no guards are pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Given the sorted guard keys of a level, returns the index of the guard
/// that owns `user_key` (0 = sentinel).
///
/// `guard_keys` must be sorted and must *not* include the sentinel.
pub fn guard_index_for_key(guard_keys: &[Vec<u8>], user_key: &[u8]) -> usize {
    // partition_point returns the number of guards with key <= user_key,
    // which is exactly the 1-based guard slot; slot 0 is the sentinel.
    guard_keys.partition_point(|g| g.as_slice() <= user_key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn picker(top: u32, dec: u32) -> GuardPicker {
        let mut opts = StoreOptions::default();
        opts.top_level_bits = top;
        opts.bit_decrement = dec;
        GuardPicker::new(&opts)
    }

    #[test]
    fn required_bits_relax_with_depth_but_never_hit_zero() {
        let p = picker(10, 2);
        assert_eq!(p.required_bits(1), 10);
        assert_eq!(p.required_bits(2), 8);
        assert_eq!(p.required_bits(3), 6);
        assert_eq!(p.required_bits(6), 1);
        assert!(p.required_bits(100) >= 1);
        // A huge decrement saturates instead of overflowing.
        assert_eq!(picker(10, u32::MAX).required_bits(3), 1);
    }

    #[test]
    fn guard_levels_form_a_skip_list_distribution() {
        let p = picker(12, 2);
        let n = 200_000u32;
        let mut counts = [0usize; 7];
        for i in 0..n {
            let key = format!("user-key-{i:09}");
            if let Some(level) = p.guard_level(key.as_bytes()) {
                counts[level] += 1;
            }
        }
        // Deeper levels must have (roughly exponentially) more guards.
        let deep: usize = counts[6];
        let mid: usize = counts[4];
        let shallow: usize = counts[1] + counts[2];
        assert!(deep > mid, "deep={deep} mid={mid}");
        assert!(mid > shallow, "mid={mid} shallow={shallow}");
        // A key that is a guard at level i is a guard at all deeper levels by
        // construction: `guard_level` returns the topmost level.
        let total: usize = counts.iter().sum();
        // With 12 bits at the top and decrement 2, level-6 guards need 2 bits
        // => roughly 1/4 of keys are guards somewhere.
        assert!(
            total > n as usize / 8 && total < n as usize / 2,
            "total={total}"
        );
    }

    #[test]
    fn guard_selection_is_deterministic() {
        let p = picker(8, 2);
        for i in 0..1000 {
            let key = format!("key{i}");
            assert_eq!(p.guard_level(key.as_bytes()), p.guard_level(key.as_bytes()));
        }
    }

    #[test]
    fn uncommitted_guards_propagate_to_deeper_levels() {
        let mut pending = UncommittedGuards::new(7);
        pending.add(3, b"guard-a");
        assert!(pending.for_level(3).contains(&b"guard-a".to_vec()));
        assert!(pending.for_level(5).contains(&b"guard-a".to_vec()));
        assert!(!pending.for_level(2).contains(&b"guard-a".to_vec()));
        assert_eq!(pending.len(), 4); // Levels 3, 4, 5, 6.

        pending.remove_committed(4, &[b"guard-a".to_vec()]);
        assert!(pending.for_level(4).is_empty());
        assert!(!pending.is_empty());
    }

    #[test]
    fn removing_committed_guards_keeps_later_arrivals_pending() {
        let mut pending = UncommittedGuards::new(4);
        pending.add(2, b"early");
        let snapshot: Vec<Vec<u8>> = pending.for_level(2).iter().cloned().collect();
        // A writer picks another guard while the compaction IO runs.
        pending.add(2, b"late");
        pending.remove_committed(2, &snapshot);
        assert!(!pending.for_level(2).contains(&b"early".to_vec()));
        assert!(pending.for_level(2).contains(&b"late".to_vec()));
        // Deeper levels are untouched until their own compaction commits.
        assert!(pending.for_level(3).contains(&b"early".to_vec()));
    }

    #[test]
    fn guard_index_assignment_matches_ranges() {
        let guards = vec![b"f".to_vec(), b"m".to_vec(), b"t".to_vec()];
        assert_eq!(guard_index_for_key(&guards, b"a"), 0); // Sentinel.
        assert_eq!(guard_index_for_key(&guards, b"f"), 1); // Guard key itself.
        assert_eq!(guard_index_for_key(&guards, b"g"), 1);
        assert_eq!(guard_index_for_key(&guards, b"m"), 2);
        assert_eq!(guard_index_for_key(&guards, b"s"), 2);
        assert_eq!(guard_index_for_key(&guards, b"z"), 3);
        assert_eq!(guard_index_for_key(&[], b"anything"), 0);
    }

    #[test]
    fn sentinel_guard_is_recognised() {
        let sentinel = GuardMeta::new(Vec::new());
        assert!(sentinel.is_sentinel());
        let named = GuardMeta::new(b"k".to_vec());
        assert!(!named.is_sentinel());
        assert_eq!(named.total_bytes(), 0);
    }
}
