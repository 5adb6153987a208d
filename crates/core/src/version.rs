//! FLSM versions: guard-organised file metadata.
//!
//! The structure mirrors the baseline LSM's `version` module but each level (from 1
//! down) is a list of [`GuardMeta`]s instead of a sorted run of disjoint
//! files. The MANIFEST machinery is the chassis's
//! ([`pebblesdb_engine::version_set`]); its edits additionally carry newly
//! committed guard keys, which is the only extra metadata PebblesDB persists
//! compared to its HyperLevelDB base (section 4.3.1 of the paper). This
//! module supplies what defines the shape — how edits rebuild the guard
//! tree, its invariants — and the compaction triggers its policy picks by;
//! reads, per-level facts, snapshots and commits are the chassis's, over the
//! guards as [`RunSource`](pebblesdb_engine::RunSource) slots (see
//! [`crate::iter`]).

use std::cmp::Reverse;
use std::sync::Arc;

use pebblesdb_common::{Error, Result, StoreOptions};
use pebblesdb_engine::runs::distinct_files;
use pebblesdb_engine::{FileMetaData, LevelRow, VersionEdit, VersionShape};

use crate::guards::{guard_index_for_key, GuardMeta};

/// Aggressive compaction moves level `i` into `i + 1` once `size(i) >= ratio
/// * size(i + 1)`.
const AGGRESSIVE_COMPACTION_RATIO: f64 = 0.25;

/// One guard-organised level of the FLSM, immutable once built. Its files,
/// bytes and guard counts are a row of the version set's
/// [`LevelTable`](pebblesdb_engine::LevelTable); what that table does not
/// carry is cached here. Cloning shares the guards: a version edit that
/// leaves a level alone hands the next version this level by pointer.
#[derive(Debug, Clone)]
pub struct FlsmLevel {
    /// `guards[0]` is the sentinel (empty key); the rest are sorted by key.
    guards: Arc<[GuardMeta]>,
    has_overlapping_guard: bool,
}

impl FlsmLevel {
    /// Builds a level from its guards (sentinel first, then sorted by key).
    pub fn new(guards: Vec<GuardMeta>) -> Self {
        FlsmLevel {
            has_overlapping_guard: guards.iter().any(GuardMeta::has_overlapping_files),
            guards: guards.into(),
        }
    }

    /// Builds a level from its guard keys (sorted, sentinel excluded) and its
    /// distinct files, attaching every file to each guard its key range
    /// overlaps. Freshly compacted files land in exactly one guard; only
    /// files written before a guard was committed can span more — attached
    /// to each so point lookups stay correct, one file all the same.
    fn build(keys: &[Vec<u8>], files: &[Arc<FileMetaData>]) -> Self {
        let mut guards: Vec<GuardMeta> = Vec::with_capacity(keys.len() + 1);
        guards.push(GuardMeta::new(Vec::new()));
        guards.extend(keys.iter().cloned().map(GuardMeta::new));
        for file in files {
            let first = guard_index_for_key(keys, file.smallest.user_key());
            let last = guard_index_for_key(keys, file.largest.user_key());
            for guard in guards.iter_mut().take(last + 1).skip(first) {
                guard.files.push(Arc::clone(file));
            }
        }
        FlsmLevel::new(guards)
    }

    /// Creates a level with only an empty sentinel guard.
    pub fn empty() -> Self {
        FlsmLevel::new(vec![GuardMeta::new(Vec::new())])
    }

    /// The level's guards: the sentinel first, the rest sorted by key.
    pub fn guards(&self) -> &[GuardMeta] {
        &self.guards
    }

    /// The guard keys of this level, excluding the sentinel.
    pub fn guard_keys(&self) -> Vec<Vec<u8>> {
        self.guards.iter().skip(1).map(|g| g.key.clone()).collect()
    }

    /// Index into [`FlsmLevel::guards`] of the guard that owns `user_key`.
    pub fn guard_index_for(&self, user_key: &[u8]) -> usize {
        // Binary search directly over the guard list (sentinel first), so the
        // read path allocates nothing.
        self.guards
            .partition_point(|g| g.is_sentinel() || g.key.as_slice() <= user_key)
            .saturating_sub(1)
    }

    /// Whether some guard holds two sstables that overlap — the only thing
    /// a seek-triggered compaction of this level could collapse.
    pub fn has_overlapping_guard(&self) -> bool {
        self.has_overlapping_guard
    }
}

/// An immutable snapshot of the whole FLSM file layout.
#[derive(Debug, Default)]
pub struct FlsmVersion {
    /// Guard-organised levels. Level 0 has no guards: its files, newest
    /// first, are its sentinel's.
    pub levels: Vec<FlsmLevel>,
}

impl FlsmVersion {
    /// Number of levels (including level 0).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }
}

/// The distinct `files` of `level` of `base` once `edit` is applied, newest
/// first.
fn edited_files(
    base: &FlsmVersion,
    mut files: Vec<Arc<FileMetaData>>,
    edit: &VersionEdit,
    level: usize,
) -> Vec<Arc<FileMetaData>> {
    for (_, number) in edit.deleted_files.iter().filter(|(at, _)| *at == level) {
        files.retain(|f| f.number != *number);
    }
    let added = edit.new_files.iter().filter(|(at, _)| *at == level);
    files.extend(added.map(|(_, file)| edit.added_file(base, file)));
    // The dedup matters at recovery only: MANIFEST snapshots written before
    // the version set moved into the chassis listed a file once per guard it
    // spans.
    files.sort_by_key(|f| Reverse(f.number));
    files.dedup_by_key(|f| f.number);
    files
}

/// Every level of a version with the table `levels` that wants a compaction,
/// in priority order (level 0 pressure, guard fanout, byte budgets,
/// aggressive merging).
///
/// The compaction pool walks this list so a worker whose preferred level
/// is fully claimed by in-flight jobs can still pick up independent work
/// at another level. Each level appears at most once, at its
/// highest-priority trigger.
pub fn compaction_candidates(levels: &[LevelRow], options: &StoreOptions) -> Vec<usize> {
    let mut candidates: Vec<usize> = Vec::new();
    let mut push = |level: usize| {
        if !candidates.contains(&level) {
            candidates.push(level);
        }
    };
    // Level 0 is governed by file count.
    if levels[0].files >= options.level0_compaction_trigger {
        push(0);
    }
    // A guard over its sstable budget forces a compaction of its level.
    // This includes the last level, which rewrites its guards in place
    // (the paper's "exception to the no-rewrite rule").
    for row in &levels[1..] {
        if row.max_files_per_slot > options.max_sstables_per_guard {
            push(row.level);
        }
    }
    // Byte budgets.
    for row in levels.iter().take(levels.len() - 1).skip(1) {
        if row.bytes > options.max_bytes_for_level(row.level) {
            push(row.level);
        }
    }
    // Aggressive compaction: level i close in size to level i+1.
    if options.enable_aggressive_compaction {
        for pair in levels.windows(2).skip(1) {
            let (level, this, next) = (pair[0].level, pair[0].bytes, pair[1].bytes);
            if this > 0
                && next > 0
                && (this as f64) >= AGGRESSIVE_COMPACTION_RATIO * (next as f64)
                && this >= options.max_bytes_for_level(level) / 2
            {
                push(level);
            }
        }
    }
    candidates
}

impl VersionShape for FlsmVersion {
    type Runs = FlsmLevel;

    fn empty(levels: usize) -> Self {
        FlsmVersion {
            levels: (0..levels).map(|_| FlsmLevel::empty()).collect(),
        }
    }

    /// A level is rebuilt only if the edit adds or deletes a file there or
    /// commits a guard at or above it (a guard at level i is a guard at
    /// every deeper level too): its guard keys and files are collected, the
    /// edit applied to them and every file re-attached to the guards it
    /// overlaps. Every other level is the previous version's, shared — a
    /// flush rebuilds level 0 alone.
    fn apply(&self, edit: &VersionEdit) -> Result<Self> {
        edit.check_levels(self.num_levels())?;
        if edit.new_guards.iter().any(|(_, key)| key.is_empty()) {
            return Err(Error::corruption(
                "version edit commits the sentinel (empty) guard key",
            ));
        }
        let levels = self.levels.iter().enumerate().map(|(level_idx, level)| {
            let new_keys = edit.new_guards.iter().filter(|(at, _)| *at <= level_idx);
            let files_change = (edit.deleted_files.iter().map(|(at, _)| at))
                .chain(edit.new_files.iter().map(|(at, _)| at))
                .any(|at| *at == level_idx);
            if !files_change && new_keys.clone().next().is_none() {
                return level.clone();
            }
            let mut keys = level.guard_keys();
            keys.extend(new_keys.map(|(_, key)| key.clone()));
            keys.sort();
            keys.dedup();
            let files = distinct_files(level).cloned().collect();
            FlsmLevel::build(&keys, &edited_files(self, files, edit, level_idx))
        });
        Ok(FlsmVersion {
            levels: levels.collect(),
        })
    }

    /// The invariants concurrent compaction commits must preserve:
    /// * every guard level starts with the sentinel guard and its remaining
    ///   guard keys are strictly sorted (so guard ranges are disjoint);
    /// * a guard at level `i` is also a guard at every deeper level;
    /// * every file attached to a guard overlaps that guard's key range, and
    ///   every guard a file overlaps holds it (point lookups inspect exactly
    ///   one guard, so a missing attachment is a lost key).
    fn validate(&self) -> std::result::Result<(), String> {
        for (level_idx, level) in self.levels.iter().enumerate().skip(1) {
            let guards = &level.guards;
            if guards.is_empty() || !guards[0].is_sentinel() {
                return Err(format!("L{level_idx}: missing sentinel guard"));
            }
            for pair in guards.windows(2) {
                if pair[1].key.is_empty() {
                    return Err(format!("L{level_idx}: duplicate sentinel guard"));
                }
                if !pair[0].is_sentinel() && pair[0].key >= pair[1].key {
                    return Err(format!(
                        "L{level_idx}: guards out of order ({:?} >= {:?})",
                        pair[0].key, pair[1].key
                    ));
                }
            }
            // Guards propagate to deeper levels: one merge walk over the two
            // sorted guard lists (an unsorted deeper level fails its own
            // order check, if not this one).
            if let Some(deeper) = self.levels.get(level_idx + 1) {
                let mut below = deeper.guards.iter().skip(1).peekable();
                for guard in guards.iter().skip(1) {
                    while below.next_if(|g| g.key < guard.key).is_some() {}
                    if below.next_if(|g| g.key == guard.key).is_none() {
                        return Err(format!(
                            "L{level_idx}: guard {:?} missing from L{}",
                            guard.key,
                            level_idx + 1
                        ));
                    }
                }
            }
            for (guard_idx, guard) in guards.iter().enumerate() {
                let lower: &[u8] = &guard.key;
                let upper: Option<&[u8]> = guards.get(guard_idx + 1).map(|g| g.key.as_slice());
                for file in &guard.files {
                    let overlaps = file.largest.user_key() >= lower
                        && upper.is_none_or(|u| file.smallest.user_key() < u);
                    if !overlaps {
                        return Err(format!(
                            "L{level_idx}: file {} does not overlap guard {:?}",
                            file.number, guard.key
                        ));
                    }
                }
            }
            // Every guard a file's range overlaps must hold the file.
            for file in distinct_files(level) {
                let first = level.guard_index_for(file.smallest.user_key());
                let last = level.guard_index_for(file.largest.user_key());
                for guard in guards.iter().take(last + 1).skip(first) {
                    if !guard.files.iter().any(|f| f.number == file.number) {
                        return Err(format!(
                            "L{level_idx}: file {} missing from overlapped guard {:?}",
                            file.number, guard.key
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn level0(&self) -> &[Arc<FileMetaData>] {
        self.levels
            .first()
            .map_or(&[], |level| &level.guards[0].files)
    }

    fn runs(&self) -> &[FlsmLevel] {
        self.levels.get(1..).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::key::{InternalKey, ValueType};
    use pebblesdb_common::NUM_LEVELS;
    use pebblesdb_engine::version_set::{snapshot, version_files};
    use pebblesdb_engine::{FileMetaDataEdit, LevelTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    fn file_edit(number: u64, smallest: &str, largest: &str) -> FileMetaDataEdit {
        FileMetaDataEdit {
            number,
            file_size: 1000,
            smallest: InternalKey::new(smallest.as_bytes(), 9, ValueType::Value)
                .encoded()
                .to_vec(),
            largest: InternalKey::new(largest.as_bytes(), 1, ValueType::Value)
                .encoded()
                .to_vec(),
        }
    }

    #[test]
    fn builder_attaches_files_to_owning_guards() {
        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"m".to_vec()));
        edit.new_files.push((1, file_edit(10, "a", "d"))); // Sentinel.
        edit.new_files.push((1, file_edit(11, "p", "z"))); // Guard "m".
        edit.new_files.push((1, file_edit(12, "m", "n"))); // Guard "m".
        edit.new_files.push((0, file_edit(13, "a", "z"))); // Level 0.
        let version = FlsmVersion::empty(4).apply(&edit).unwrap();

        assert_eq!(version.level0().len(), 1);
        let level1 = &version.levels[1];
        assert_eq!(level1.guards.len(), 2);
        assert!(level1.guards[0].is_sentinel());
        assert_eq!(level1.guards[0].files.len(), 1);
        assert_eq!(level1.guards[1].key, b"m".to_vec());
        assert_eq!(level1.guards[1].files.len(), 2);
        // Newest first inside the guard.
        assert_eq!(level1.guards[1].files[0].number, 12);

        // A guard at level 1 is also a guard at deeper levels.
        assert_eq!(version.levels[2].guards.len(), 2);
        assert_eq!(version.levels[3].guards.len(), 2);

        // Lookups resolve guard ownership.
        assert_eq!(level1.guard_index_for(b"b"), 0);
        assert_eq!(level1.guard_index_for(b"q"), 1);
        let rows = LevelTable::of(&version);
        assert_eq!(rows.iter().map(|row| row.empty_slots).sum::<usize>(), 2 + 2);
        assert_eq!(format!("{rows:#}"), "L0:1 L1:3f/2g L2:0f/2g L3:0f/2g");
        assert_eq!(rows.to_string(), "L0:1 L1:3 L2:0 L3:0");
    }

    #[test]
    fn deleting_files_keeps_guards() {
        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"g".to_vec()));
        edit.new_files.push((1, file_edit(5, "h", "k")));
        let mut second = VersionEdit::default();
        second.delete_file(1, 5);
        let version = FlsmVersion::empty(3)
            .apply(&edit)
            .and_then(|v| v.apply(&second))
            .unwrap();
        let rows = LevelTable::of(&version);
        assert_eq!((rows[1].files, rows[1].slots), (0, 2));
        assert_eq!(rows.iter().map(|row| row.empty_slots).sum::<usize>(), 1 + 4);
    }

    /// A file spanning two guards is attached to both but is one file: the
    /// snapshot lists it once, and a snapshot that lists it twice (as
    /// MANIFESTs written before the chassis owned the version set did)
    /// rebuilds the same version.
    #[test]
    fn spanning_files_snapshot_once_and_duplicates_collapse() {
        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"m".to_vec()));
        edit.new_files.push((1, file_edit(10, "a", "z")));
        let version = FlsmVersion::empty(3).apply(&edit).unwrap();
        assert_eq!(version.levels[1].guards[0].files.len(), 1);
        assert_eq!(version.levels[1].guards[1].files.len(), 1);

        let mut records = snapshot(&version);
        assert_eq!(records.new_files.len(), 1);

        records.new_files.push((1, file_edit(10, "a", "z")));
        let rebuilt = FlsmVersion::empty(3).apply(&records).unwrap();
        assert_eq!(LevelTable::of(&rebuilt).num_files(), 1);
        assert_eq!(rebuilt.levels[1].guards[1].files.len(), 1);
        assert!(rebuilt.validate().is_ok());
    }

    #[test]
    fn validate_accepts_built_versions_and_rejects_broken_ones() {
        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"m".to_vec()));
        edit.new_files.push((1, file_edit(10, "a", "d")));
        edit.new_files.push((1, file_edit(11, "m", "z")));
        let version = FlsmVersion::empty(4).apply(&edit).unwrap();
        assert!(version.validate().is_ok());

        // Out-of-order guards are rejected.
        let mut broken = FlsmVersion::empty(4);
        broken.levels[1] = FlsmLevel::new(vec![
            GuardMeta::new(Vec::new()),
            GuardMeta::new(b"t".to_vec()),
            GuardMeta::new(b"g".to_vec()),
        ]);
        assert!(broken.validate().is_err());

        // A file attached to a guard it cannot overlap is rejected.
        let mut misfiled = FlsmVersion::empty(4);
        let guards = vec![GuardMeta::new(Vec::new()), GuardMeta::new(b"m".to_vec())];
        for level in &mut misfiled.levels[1..] {
            *level = FlsmLevel::new(guards.clone());
        }
        let mut sentinel = GuardMeta::new(Vec::new());
        sentinel.files.push(file_edit(20, "x", "z").to_meta());
        misfiled.levels[1] = FlsmLevel::new(vec![sentinel, guards[1].clone()]);
        assert!(misfiled.validate().is_err());

        // A guard missing from the level below is rejected, wherever the
        // merge walk meets it: before, between and after the deeper guards.
        let level = |keys: &[&str]| {
            let keys = keys.iter().map(|key| key.as_bytes().to_vec());
            FlsmLevel::new(
                std::iter::once(Vec::new())
                    .chain(keys)
                    .map(GuardMeta::new)
                    .collect(),
            )
        };
        for upper in [&["c"][..], &["h"], &["x"], &["g", "m", "n"]] {
            let mut unpropagated = FlsmVersion::empty(4);
            unpropagated.levels[1] = level(upper);
            unpropagated.levels[2] = level(&["g", "m", "t"]);
            unpropagated.levels[3] = level(&["g", "m", "t"]);
            let err = unpropagated.validate().unwrap_err();
            assert!(err.contains("missing from L2"), "{upper:?}: {err}");
        }
        let mut propagated = FlsmVersion::empty(4);
        propagated.levels[1] = level(&["g", "t"]);
        propagated.levels[2] = level(&["g", "m", "t"]);
        propagated.levels[3] = level(&["a", "g", "m", "t", "z"]);
        assert!(propagated.validate().is_ok());
    }

    /// Level 0's file numbers, then every guard level's guard keys with the
    /// numbers of the files attached to each guard.
    type Shape = (Vec<u64>, Vec<Vec<(Vec<u8>, Vec<u64>)>>);

    fn numbers<'a>(files: impl IntoIterator<Item = &'a Arc<FileMetaData>>) -> BTreeSet<u64> {
        files.into_iter().map(|f| f.number).collect()
    }

    fn shape(version: &FlsmVersion) -> Shape {
        let in_order = |files: &[Arc<FileMetaData>]| files.iter().map(|f| f.number).collect();
        let guards = |level: &FlsmLevel| {
            let guard = |g: &GuardMeta| (g.key.clone(), in_order(&g.files));
            level.guards.iter().map(guard).collect()
        };
        (
            in_order(version.level0()),
            version.levels.iter().map(guards).collect(),
        )
    }

    /// One seeded edit of the kinds a store commits, drawn against the files
    /// `version` holds: a flush (level 0 only), guard commits at any level, a
    /// compaction replacing most of a level's files with new ones a level
    /// down, a move-only re-add of a file one level down, or a guard
    /// committed inside a file's range so the file spans it. Returns the
    /// edit and its kind.
    fn random_edit(
        rng: &mut StdRng,
        version: &FlsmVersion,
        next: &mut u64,
    ) -> (VersionEdit, usize) {
        let max_levels = version.num_levels();
        let key = |rng: &mut StdRng, len: usize| -> String {
            let len = rng.gen_range(1..=len);
            (0..len)
                .map(|_| rng.gen_range(b'a'..=b'h') as char)
                .collect()
        };
        let mut new_file = |rng: &mut StdRng| {
            let (a, b) = (key(rng, 4), key(rng, 4));
            *next += 1;
            file_edit(*next, a.as_str().min(&b), a.as_str().max(&b))
        };
        let files_at = |level: usize| -> Vec<Arc<FileMetaData>> {
            match level {
                0 => version.level0().to_vec(),
                _ => distinct_files(&version.levels[level]).cloned().collect(),
            }
        };
        let mut edit = VersionEdit::default();
        let kind = rng.gen_range(0..5);
        match kind {
            0 => {
                edit.new_files.push((0, new_file(rng)));
                if rng.gen_bool(0.2) {
                    if let Some(file) = version.level0().last() {
                        edit.delete_file(0, file.number);
                    }
                }
            }
            1 => {
                for _ in 0..rng.gen_range(1..4) {
                    let level = rng.gen_range(1..max_levels);
                    edit.new_guards.push((level, key(rng, 3).into_bytes()));
                }
            }
            2 => {
                // The last level compacts into itself, which keeps the tree
                // (and each step's rebuild) bounded.
                let level = rng.gen_range(0..max_levels);
                let output = (level + 1).min(max_levels - 1);
                for file in files_at(level) {
                    if rng.gen_bool(0.7) {
                        edit.delete_file(level, file.number);
                    }
                }
                for _ in 0..rng.gen_range(1..4) {
                    edit.new_files.push((output, new_file(rng)));
                }
                if rng.gen_bool(0.3) {
                    edit.new_guards.push((output, key(rng, 3).into_bytes()));
                }
            }
            3 => {
                let level = rng.gen_range(0..max_levels - 1);
                if let Some(file) = files_at(level).first() {
                    edit.delete_file(level, file.number);
                    edit.add_file(level + 1, file);
                }
            }
            _ => {
                let level = rng.gen_range(1..max_levels);
                if let Some(file) = files_at(level).last() {
                    let key = file.largest.user_key().to_vec();
                    edit.new_guards.push((rng.gen_range(1..=level), key));
                }
            }
        }
        (edit, kind)
    }

    /// Sharing levels must not change the version: after every edit the
    /// version equals a rebuild from scratch of its own snapshot (which
    /// touches every level) — guard keys, per-guard files, level table and
    /// validity — and to a model that keeps each level's guard keys and file
    /// numbers as sets (a stale shared level fails it), every level the
    /// edit leaves alone is the previous version's guard array, by pointer
    /// (all but level 0, for a flush; level 0, for an edit that adds or
    /// deletes none of its files), and a file the edit keeps or moves is the
    /// previous version's `Arc`.
    fn shared_levels_match_rebuilds(seed: u64, steps: usize) {
        const MAX_LEVELS: usize = 5;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut version = FlsmVersion::empty(MAX_LEVELS);
        let mut model_keys = vec![BTreeSet::<Vec<u8>>::new(); MAX_LEVELS];
        let mut model_files = vec![BTreeSet::<u64>::new(); MAX_LEVELS];
        let (mut next_number, mut spanned, mut kinds) = (0, false, [0; 5]);
        for step in 0..steps {
            let (edit, kind) = random_edit(&mut rng, &version, &mut next_number);
            let next = version.apply(&edit).unwrap();
            let rebuilt = FlsmVersion::empty(MAX_LEVELS)
                .apply(&snapshot(&next))
                .unwrap();
            let what = format!("seed {seed} step {step}: {edit:?}");
            assert_eq!(shape(&next), shape(&rebuilt), "{what}");
            assert_eq!(LevelTable::of(&next), LevelTable::of(&rebuilt), "{what}");

            for (level, number) in &edit.deleted_files {
                model_files[*level].remove(number);
            }
            for (level, file) in &edit.new_files {
                model_files[*level].insert(file.number);
            }
            for (level, key) in &edit.new_guards {
                for keys in &mut model_keys[*level..] {
                    keys.insert(key.clone());
                }
            }
            assert_eq!(numbers(next.level0()), model_files[0], "{what}");
            for (level, built) in next.levels.iter().enumerate().skip(1) {
                let keys: BTreeSet<Vec<u8>> = built.guard_keys().into_iter().collect();
                assert_eq!(keys, model_keys[level], "{what}: L{level} guards");
                let files = numbers(distinct_files(built));
                assert_eq!(files, model_files[level], "{what}: L{level} files");
            }
            assert_eq!(next.validate(), Ok(()), "{what}");
            assert_eq!(rebuilt.validate(), Ok(()), "{what}");
            // One `Arc` per live file across versions, a moved one included.
            let before: BTreeMap<u64, _> = version_files(&version).map(|f| (f.number, f)).collect();
            for file in version_files(&next) {
                let same = before
                    .get(&file.number)
                    .is_none_or(|f| Arc::ptr_eq(f, file));
                assert!(same, "{what}: file {} has a second Arc", file.number);
            }

            for (level, (before, after)) in version.levels.iter().zip(&next.levels).enumerate() {
                let touched = edit.new_files.iter().any(|(at, _)| *at == level)
                    || edit.deleted_files.iter().any(|(at, _)| *at == level)
                    || edit.new_guards.iter().any(|(at, _)| *at <= level);
                if !touched {
                    assert!(
                        Arc::ptr_eq(&before.guards, &after.guards),
                        "{what}: L{level}"
                    );
                }
            }
            spanned |= next.levels.iter().any(|level| {
                let attached: usize = level.guards.iter().map(|g| g.files.len()).sum();
                attached > distinct_files(level).count()
            });
            kinds[kind] += usize::from(edit != VersionEdit::default());
            version = next;
        }
        assert!(spanned, "seed {seed}: no file ever spanned two guards");
        assert!(kinds.iter().all(|n| *n > 0), "seed {seed}: kinds {kinds:?}");
    }

    #[test]
    fn shared_levels_match_rebuilds_from_snapshots() {
        for seed in 0..3 {
            shared_levels_match_rebuilds(seed, 300);
        }
    }

    /// The same property over longer sequences; run in release with
    /// `cargo test --release -p pebblesdb --lib -- --ignored`.
    #[test]
    #[ignore]
    fn shared_levels_match_rebuilds_long_sweep() {
        for seed in 0..32 {
            shared_levels_match_rebuilds(0x5eed_0000 + seed, 2000);
        }
    }

    #[test]
    fn compaction_candidates_list_every_triggered_level_once() {
        let mut opts = StoreOptions::default();
        opts.level0_compaction_trigger = 2;
        opts.max_sstables_per_guard = 2;
        opts.enable_aggressive_compaction = false;

        // Trigger level 0 (two files) and guard fanout at levels 1 and 2.
        let mut edit = VersionEdit::default();
        edit.new_files.push((0, file_edit(10, "a", "b")));
        edit.new_files.push((0, file_edit(11, "c", "d")));
        for n in 20..23 {
            edit.new_files.push((1, file_edit(n, "k", "p")));
        }
        for n in 30..33 {
            edit.new_files.push((2, file_edit(n, "k", "p")));
        }
        let version = FlsmVersion::empty(NUM_LEVELS).apply(&edit).unwrap();

        let rows = LevelTable::of(&version);
        assert_eq!(compaction_candidates(&rows, &opts), [0, 1, 2]);
        assert!(!compaction_candidates(&rows, &opts).is_empty());
    }

    #[test]
    fn compaction_triggers_cover_level0_guards_and_bytes() {
        let mut opts = StoreOptions::default();
        opts.level0_compaction_trigger = 2;
        opts.max_sstables_per_guard = 2;
        opts.base_level_bytes = 2500;
        opts.enable_aggressive_compaction = false;
        let version = FlsmVersion::empty(NUM_LEVELS);
        assert!(compaction_candidates(&LevelTable::of(&version), &opts).is_empty());
        let first_candidate = |version: &FlsmVersion| {
            let candidates = compaction_candidates(&LevelTable::of(version), &opts);
            candidates.first().copied()
        };

        // Two level-0 files trigger a level-0 compaction.
        let mut edit = VersionEdit::default();
        edit.new_files.push((0, file_edit(10, "a", "b")));
        edit.new_files.push((0, file_edit(11, "c", "d")));
        let version = version.apply(&edit).unwrap();
        assert_eq!(first_candidate(&version), Some(0));

        // Guard fanout trigger: three files in one guard with budget 2.
        let mut edit = VersionEdit::default();
        edit.delete_file(0, 10);
        edit.delete_file(0, 11);
        for n in 20..23 {
            edit.new_files.push((1, file_edit(n, "k", "p")));
        }
        let version = version.apply(&edit).unwrap();
        assert_eq!(first_candidate(&version), Some(1));
        // The fanout alone triggers it: no byte budget is in reach.
        let mut roomy = opts.clone();
        roomy.base_level_bytes = 1 << 40;
        let candidates = compaction_candidates(&LevelTable::of(&version), &roomy);
        assert_eq!(candidates, [1]);
    }
}
