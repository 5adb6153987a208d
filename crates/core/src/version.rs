//! The FLSM's level type, [`FlsmLevel`]: a list of [`GuardMeta`]s where the
//! LSM has a sorted run of disjoint files, in the chassis's
//! [`Version`](pebblesdb_engine::Version). Guard keys are the only metadata
//! PebblesDB adds to its HyperLevelDB base's MANIFEST (section 4.3.1 of the
//! paper). Also the compaction triggers the FLSM policy picks by.

use std::cmp::Reverse;
use std::sync::Arc;

use pebblesdb_common::key::extract_user_key;
use pebblesdb_common::{Result, StoreOptions};
use pebblesdb_engine::runs::distinct_files;
use pebblesdb_engine::{FileMetaData, LevelRow, RunSource};

use crate::guards::{guard_index_for_key, GuardMeta};

/// Aggressive compaction moves level `i` into `i + 1` once `size(i) >= ratio
/// * size(i + 1)`.
const AGGRESSIVE_COMPACTION_RATIO: f64 = 0.25;

/// One guard-organised level of the FLSM, immutable once built. Its files,
/// bytes and guard counts are a row of the version set's
/// [`LevelTable`](pebblesdb_engine::LevelTable); what that table does not
/// carry is cached here. A version shares a level an edit leaves alone with
/// the version before it.
#[derive(Debug)]
pub struct FlsmLevel {
    /// `guards[0]` is the sentinel (empty key); the rest are sorted by key.
    guards: Vec<GuardMeta>,
    has_overlapping_guard: bool,
}

impl Default for FlsmLevel {
    /// A level with only an empty sentinel guard.
    fn default() -> Self {
        FlsmLevel::new(vec![GuardMeta::new(Vec::new())])
    }
}

impl FlsmLevel {
    /// Builds a level from its guards (sentinel first, then sorted by key).
    pub fn new(guards: Vec<GuardMeta>) -> Self {
        FlsmLevel {
            has_overlapping_guard: guards.iter().any(GuardMeta::has_overlapping_files),
            guards,
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

/// One slot per guard, clipped to the guard's key range. The paper (section
/// 3.4): "in FLSM, the level iterators are themselves implemented by merging
/// iterators on the sstables inside the guard of interest".
impl RunSource for FlsmLevel {
    fn slots(&self) -> usize {
        self.guards.len()
    }

    fn slot_for(&self, target: &[u8]) -> usize {
        self.guard_index_for(extract_user_key(target))
    }

    fn files(&self, slot: usize) -> &[Arc<FileMetaData>] {
        self.guards.get(slot).map_or(&[], |guard| &guard.files)
    }

    /// The guard-key bounds `[lower, upper)` of guard `slot`.
    ///
    /// Files written before a guard was committed may span several guards
    /// (they are attached to each guard they overlap); bounding iteration to
    /// the guard's own key range ensures every entry is emitted exactly once
    /// and in global key order.
    fn bounds(&self, slot: usize) -> (Option<&[u8]>, Option<&[u8]>) {
        // The sentinel's empty key is "no lower bound".
        let lower = (self.guards.get(slot))
            .filter(|g| !g.is_sentinel())
            .map(|g| g.key.as_slice());
        let upper = self.guards.get(slot + 1).map(|g| g.key.as_slice());
        (lower, upper)
    }

    /// The level's guard keys and the new ones, its distinct files without
    /// those numbered `gone` and with `added`, every file re-attached to
    /// the guards it overlaps.
    fn apply(&self, gone: &[u64], added: &[Arc<FileMetaData>], guards: &[&[u8]]) -> Result<Self> {
        let mut keys = self.guard_keys();
        keys.extend(guards.iter().map(|key| key.to_vec()));
        keys.sort();
        keys.dedup();
        let kept = distinct_files(self).filter(|f| !gone.contains(&f.number));
        let mut files: Vec<_> = kept.chain(added).cloned().collect();
        // The dedup matters at recovery only: MANIFEST snapshots written
        // before the version set moved into the chassis listed a file once
        // per guard it spans.
        files.sort_by_key(|f| Reverse(f.number));
        files.dedup_by_key(|f| f.number);
        Ok(FlsmLevel::build(&keys, &files))
    }

    /// The invariants concurrent compaction commits must preserve:
    /// * the level starts with the sentinel guard and its remaining guard
    ///   keys are strictly sorted (so guard ranges are disjoint);
    /// * each of its guards is also a guard of the `deeper` level;
    /// * every file attached to a guard overlaps that guard's key range, and
    ///   every guard a file overlaps holds it (point lookups inspect exactly
    ///   one guard, so a missing attachment is a lost key).
    fn validate(&self, level: usize, deeper: Option<&Self>) -> std::result::Result<(), String> {
        let guards = &self.guards;
        if guards.is_empty() || !guards[0].is_sentinel() {
            return Err(format!("L{level}: missing sentinel guard"));
        }
        for pair in guards.windows(2) {
            if pair[1].key.is_empty() {
                return Err(format!("L{level}: duplicate sentinel guard"));
            }
            if !pair[0].is_sentinel() && pair[0].key >= pair[1].key {
                return Err(format!(
                    "L{level}: guards out of order ({:?} >= {:?})",
                    pair[0].key, pair[1].key
                ));
            }
        }
        // Guards propagate to deeper levels: one merge walk over the two
        // sorted guard lists (an unsorted deeper level fails its own order
        // check, if not this one).
        if let Some(deeper) = deeper {
            let mut below = deeper.guards.iter().skip(1).peekable();
            for guard in guards.iter().skip(1) {
                while below.next_if(|g| g.key < guard.key).is_some() {}
                if below.next_if(|g| g.key == guard.key).is_none() {
                    return Err(format!(
                        "L{level}: guard {:?} missing from L{}",
                        guard.key,
                        level + 1
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
                        "L{level}: file {} does not overlap guard {:?}",
                        file.number, guard.key
                    ));
                }
            }
        }
        // Every guard a file's range overlaps must hold the file.
        for file in distinct_files(self) {
            let first = self.guard_index_for(file.smallest.user_key());
            let last = self.guard_index_for(file.largest.user_key());
            for guard in guards.iter().take(last + 1).skip(first) {
                if !guard.files.iter().any(|f| f.number == file.number) {
                    return Err(format!(
                        "L{level}: file {} missing from overlapped guard {:?}",
                        file.number, guard.key
                    ));
                }
            }
        }
        Ok(())
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::key::{InternalKey, ValueType};
    use pebblesdb_common::NUM_LEVELS;
    use pebblesdb_engine::version_set::{level_files, snapshot, version_files};
    use pebblesdb_engine::{FileMetaDataEdit, LevelTable, Version, VersionEdit};
    use pebblesdb_lsm::FileRuns;
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
        let version = Version::<FlsmLevel>::empty(4).apply(&edit).unwrap();

        assert_eq!(version.level0().len(), 1);
        let level1 = version.run(1);
        assert_eq!(level1.guards.len(), 2);
        assert!(level1.guards[0].is_sentinel());
        assert_eq!(level1.guards[0].files.len(), 1);
        assert_eq!(level1.guards[1].key, b"m".to_vec());
        assert_eq!(level1.guards[1].files.len(), 2);
        // Newest first inside the guard.
        assert_eq!(level1.guards[1].files[0].number, 12);

        // A guard at level 1 is also a guard at deeper levels.
        assert_eq!(version.run(2).guards.len(), 2);
        assert_eq!(version.run(3).guards.len(), 2);

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
        let version = Version::<FlsmLevel>::empty(3)
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
        let version = Version::<FlsmLevel>::empty(3).apply(&edit).unwrap();
        assert_eq!(version.run(1).guards[0].files.len(), 1);
        assert_eq!(version.run(1).guards[1].files.len(), 1);

        let mut records = snapshot(&version);
        assert_eq!(records.new_files.len(), 1);

        records.new_files.push((1, file_edit(10, "a", "z")));
        let rebuilt = Version::<FlsmLevel>::empty(3).apply(&records).unwrap();
        assert_eq!(LevelTable::of(&rebuilt).num_files(), 1);
        assert_eq!(rebuilt.run(1).guards[1].files.len(), 1);
        assert!(rebuilt.validate().is_ok());
    }

    #[test]
    fn validate_accepts_built_versions_and_rejects_broken_ones() {
        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"m".to_vec()));
        edit.new_files.push((1, file_edit(10, "a", "d")));
        edit.new_files.push((1, file_edit(11, "m", "z")));
        let version = Version::<FlsmLevel>::empty(4).apply(&edit).unwrap();
        assert!(version.validate().is_ok());
        // Levels 1 down of a version no edit builds, each checked against the
        // one below it, as `Version::validate` does.
        let validate = |levels: &[FlsmLevel]| {
            let mut numbered = (1..).zip(levels);
            numbered.try_for_each(|(level, run)| run.validate(level, levels.get(level)))
        };

        // Out-of-order guards are rejected.
        let broken = vec![
            FlsmLevel::new(vec![
                GuardMeta::new(Vec::new()),
                GuardMeta::new(b"t".to_vec()),
                GuardMeta::new(b"g".to_vec()),
            ]),
            FlsmLevel::default(),
            FlsmLevel::default(),
        ];
        assert!(validate(&broken).is_err());

        // A file attached to a guard it cannot overlap is rejected.
        let guards = vec![GuardMeta::new(Vec::new()), GuardMeta::new(b"m".to_vec())];
        let mut sentinel = GuardMeta::new(Vec::new());
        sentinel.files.push(file_edit(20, "x", "z").to_meta());
        let misfiled = vec![
            FlsmLevel::new(vec![sentinel, guards[1].clone()]),
            FlsmLevel::new(guards.clone()),
            FlsmLevel::new(guards.clone()),
        ];
        assert!(validate(&misfiled).is_err());

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
            let unpropagated = vec![
                level(upper),
                level(&["g", "m", "t"]),
                level(&["g", "m", "t"]),
            ];
            let err = validate(&unpropagated).unwrap_err();
            assert!(err.contains("missing from L2"), "{upper:?}: {err}");
        }
        let propagated = vec![
            level(&["g", "t"]),
            level(&["g", "m", "t"]),
            level(&["a", "g", "m", "t", "z"]),
        ];
        assert!(validate(&propagated).is_ok());
    }

    /// Level 0's file numbers, then every deeper level's slots: each slot's
    /// lower bound (a guard key, or none) with the numbers of its files.
    type Shape = (Vec<u64>, Vec<Vec<(Option<Vec<u8>>, Vec<u64>)>>);

    fn numbers<'a>(files: impl IntoIterator<Item = &'a Arc<FileMetaData>>) -> BTreeSet<u64> {
        files.into_iter().map(|f| f.number).collect()
    }

    fn shape<R: RunSource>(version: &Version<R>) -> Shape {
        let in_order = |files: &[Arc<FileMetaData>]| files.iter().map(|f| f.number).collect();
        let slots = |run: &R| {
            let slot = |slot| {
                (
                    run.bounds(slot).0.map(<[u8]>::to_vec),
                    in_order(run.files(slot)),
                )
            };
            (0..run.slots()).map(slot).collect()
        };
        (
            in_order(version.level0()),
            version.runs().map(slots).collect(),
        )
    }

    /// A random key of one to `len` letters from `a` to `h`.
    fn key(rng: &mut StdRng, len: usize) -> String {
        let len = rng.gen_range(1..=len);
        (0..len)
            .map(|_| rng.gen_range(b'a'..=b'h') as char)
            .collect()
    }

    /// A level type the sharing property drives: seeded edits of the kinds
    /// its store commits, drawn against the files a version holds.
    trait Drawn: RunSource {
        /// How many kinds of edit [`Drawn::random_edit`] draws.
        const KINDS: usize;
        /// Whether some file is expected to span two slots of its level.
        const SPANS: bool;
        /// One seeded edit against `version` and its kind; new files are
        /// numbered from `next` on.
        fn random_edit(
            rng: &mut StdRng,
            version: &Version<Self>,
            next: &mut u64,
        ) -> (VersionEdit, usize);
    }

    impl Drawn for FlsmLevel {
        const KINDS: usize = 5;
        const SPANS: bool = true;

        /// A flush (level 0 only), guard commits at any level, a compaction
        /// replacing most of a level's files with new ones a level down, a
        /// move-only re-add of a file one level down, or a guard committed
        /// inside a file's range so the file spans it.
        fn random_edit(
            rng: &mut StdRng,
            version: &Version<FlsmLevel>,
            next: &mut u64,
        ) -> (VersionEdit, usize) {
            let max_levels = version.num_levels();
            let mut new_file = |rng: &mut StdRng| {
                let (a, b) = (key(rng, 4), key(rng, 4));
                *next += 1;
                file_edit(*next, a.as_str().min(&b), a.as_str().max(&b))
            };
            let files_at = |level| level_files(version, level).cloned().collect::<Vec<_>>();
            let mut edit = VersionEdit::default();
            let kind = rng.gen_range(0..Self::KINDS);
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
                    // The last level compacts into itself, which keeps the
                    // tree (and each step's rebuild) bounded.
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
    }

    impl Drawn for FileRuns {
        const KINDS: usize = 3;
        const SPANS: bool = false;

        /// A flush (level 0 only), a leveled compaction — some files of a
        /// level with every file of the next level inside their hull,
        /// replaced by up to three disjoint files over that hull a level
        /// down — or a move of a file that overlaps nothing a level down.
        /// Each run stays disjoint.
        fn random_edit(
            rng: &mut StdRng,
            version: &Version<FileRuns>,
            next: &mut u64,
        ) -> (VersionEdit, usize) {
            let max_levels = version.num_levels();
            let files_at = |level| level_files(version, level).cloned().collect::<Vec<_>>();
            let mut edit = VersionEdit::default();
            let kind = rng.gen_range(0..Self::KINDS);
            match kind {
                0 => {
                    let (a, b) = (key(rng, 4), key(rng, 4));
                    *next += 1;
                    let file = file_edit(*next, a.as_str().min(&b), a.as_str().max(&b));
                    edit.new_files.push((0, file));
                    if rng.gen_bool(0.2) {
                        if let Some(file) = version.level0().last() {
                            edit.delete_file(0, file.number);
                        }
                    }
                }
                1 => {
                    // The last level compacts into itself.
                    let level = rng.gen_range(0..max_levels);
                    let output = (level + 1).min(max_levels - 1);
                    let inputs: Vec<_> = (files_at(level).into_iter())
                        .filter(|_| rng.gen_bool(0.5))
                        .collect();
                    let Some(first) = inputs.first() else {
                        return (edit, kind);
                    };
                    let mut lo = first.smallest.user_key().to_vec();
                    let mut hi = first.largest.user_key().to_vec();
                    for file in &inputs {
                        lo = lo.min(file.smallest.user_key().to_vec());
                        hi = hi.max(file.largest.user_key().to_vec());
                    }
                    // The output level's files inside the hull go too (at
                    // the last level, the ones between the inputs).
                    let below = (files_at(output).into_iter())
                        .filter(|f| f.overlaps_user_range(Some(&lo), Some(&hi)));
                    let taken = |f: &Arc<FileMetaData>| inputs.iter().any(|i| i.number == f.number);
                    let below: Vec<_> = below.filter(|f| !taken(f)).collect();
                    for file in &below {
                        lo = lo.min(file.smallest.user_key().to_vec());
                        hi = hi.max(file.largest.user_key().to_vec());
                    }
                    for file in &inputs {
                        edit.delete_file(level, file.number);
                    }
                    for file in &below {
                        edit.delete_file(output, file.number);
                    }
                    // Up to three pieces of the hull, cut at distinct keys
                    // strictly inside it, so no piece overlaps another.
                    let mut cuts: Vec<String> = (0..rng.gen_range(0..3))
                        .map(|_| key(rng, 4))
                        .filter(|k| lo.as_slice() < k.as_bytes() && k.as_bytes() < hi.as_slice())
                        .collect();
                    cuts.sort();
                    cuts.dedup();
                    let lo = String::from_utf8(lo).unwrap();
                    let hi = String::from_utf8(hi).unwrap();
                    let mut start = lo;
                    for cut in cuts.into_iter().chain([hi.clone()]) {
                        // A piece ends just below its cut: at the cut's
                        // predecessor key, the cut itself for the last one.
                        let end = if cut == hi { cut.clone() } else { before(&cut) };
                        if start <= end {
                            *next += 1;
                            edit.new_files
                                .push((output, file_edit(*next, &start, &end)));
                        }
                        start = cut;
                    }
                }
                _ => {
                    let level = rng.gen_range(0..max_levels - 1);
                    let below = files_at(level + 1);
                    let clear = |f: &&Arc<FileMetaData>| {
                        let (lo, hi) = (f.smallest.user_key(), f.largest.user_key());
                        !below
                            .iter()
                            .any(|b| b.overlaps_user_range(Some(lo), Some(hi)))
                    };
                    if let Some(file) = files_at(level).iter().find(clear) {
                        edit.delete_file(level, file.number);
                        edit.add_file(level + 1, file);
                    }
                }
            }
            (edit, kind)
        }
    }

    /// A key below `key`: its last letter lowered, or dropped if it is `a`.
    fn before(key: &str) -> String {
        let mut key = key.as_bytes().to_vec();
        match key.last_mut() {
            Some(last) if *last > b'a' => *last -= 1,
            _ => {
                key.pop();
            }
        }
        String::from_utf8(key).unwrap()
    }

    /// Sharing levels must not change the version: after every edit the
    /// version equals a rebuild from scratch of its own snapshot (which
    /// touches every level) — slot bounds, per-slot files, level table and
    /// validity — and a model that keeps each level's guard keys and file
    /// numbers as sets (a stale shared level fails it); every level the edit
    /// leaves alone, level 0 included, is the previous version's allocation
    /// (all but level 0, for a flush; level 0, for an edit that adds or
    /// deletes none of its files); and each live file has exactly one `Arc`,
    /// within the version and across it and the previous one, a moved file
    /// included.
    fn shared_levels_match_rebuilds<R: Drawn>(seed: u64, steps: usize) {
        const MAX_LEVELS: usize = 5;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut version = Version::<R>::empty(MAX_LEVELS);
        let mut model_keys = vec![BTreeSet::<Vec<u8>>::new(); MAX_LEVELS];
        let mut model_files = vec![BTreeSet::<u64>::new(); MAX_LEVELS];
        let (mut next_number, mut spanned, mut kinds) = (0, false, vec![0; R::KINDS]);
        for step in 0..steps {
            let (edit, kind) = R::random_edit(&mut rng, &version, &mut next_number);
            let next = version.apply(&edit).unwrap();
            let rebuilt = Version::<R>::empty(MAX_LEVELS)
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
            for (level, model) in model_files.iter().enumerate() {
                let files = numbers(level_files(&next, level));
                assert_eq!(files, *model, "{what}: L{level} files");
            }
            for (level, run) in (1..).zip(next.runs()) {
                let keys = (0..run.slots()).filter_map(|slot| run.bounds(slot).0);
                let keys: BTreeSet<Vec<u8>> = keys.map(<[u8]>::to_vec).collect();
                assert_eq!(keys, model_keys[level], "{what}: L{level} guards");
            }
            assert_eq!(next.validate(), Ok(()), "{what}");
            assert_eq!(rebuilt.validate(), Ok(()), "{what}");
            // One `Arc` per live file, within the version and across
            // versions, a moved one included.
            let live: Vec<u64> = version_files(&next).map(|f| f.number).collect();
            assert_eq!(live.len(), numbers(version_files(&next)).len(), "{what}");
            let before: BTreeMap<u64, _> = version_files(&version).map(|f| (f.number, f)).collect();
            for file in version_files(&next) {
                let same = before
                    .get(&file.number)
                    .is_none_or(|f| Arc::ptr_eq(f, file));
                assert!(same, "{what}: file {} has a second Arc", file.number);
            }

            for level in 0..MAX_LEVELS {
                let touched = edit.new_files.iter().any(|(at, _)| *at == level)
                    || edit.deleted_files.iter().any(|(at, _)| *at == level)
                    || edit.new_guards.iter().any(|(at, _)| *at <= level);
                // A shared level is the same allocation: its slice or level
                // sits at the same address.
                let shared = match level {
                    0 => std::ptr::eq(next.level0(), version.level0()),
                    _ => std::ptr::eq(next.run(level), version.run(level)),
                };
                assert!(touched || shared, "{what}: L{level} was rebuilt");
            }
            spanned |= next.runs().any(|run| {
                let attached: usize = (0..run.slots()).map(|slot| run.files(slot).len()).sum();
                attached > distinct_files(run).count()
            });
            kinds[kind] += usize::from(edit != VersionEdit::default());
            version = next;
        }
        assert_eq!(
            spanned,
            R::SPANS,
            "seed {seed}: whether a file spanned two slots"
        );
        assert!(kinds.iter().all(|n| *n > 0), "seed {seed}: kinds {kinds:?}");
    }

    #[test]
    fn shared_levels_match_rebuilds_from_snapshots() {
        for seed in 0..3 {
            shared_levels_match_rebuilds::<FlsmLevel>(seed, 300);
            shared_levels_match_rebuilds::<FileRuns>(seed, 300);
        }
    }

    /// The same property over longer sequences, for both shapes; run in
    /// release with `cargo test --release -p pebblesdb --lib -- --ignored`.
    #[test]
    #[ignore]
    fn shared_levels_match_rebuilds_long_sweep() {
        for seed in 0..32 {
            shared_levels_match_rebuilds::<FlsmLevel>(0x5eed_0000 + seed, 2000);
            shared_levels_match_rebuilds::<FileRuns>(0x5eed_0000 + seed, 2000);
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
        let version = Version::<FlsmLevel>::empty(NUM_LEVELS)
            .apply(&edit)
            .unwrap();

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
        let version = Version::<FlsmLevel>::empty(NUM_LEVELS);
        assert!(compaction_candidates(&LevelTable::of(&version), &opts).is_empty());
        let first_candidate = |version: &Version<FlsmLevel>| {
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
