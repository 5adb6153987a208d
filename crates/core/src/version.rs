//! FLSM versions: guard-organised file metadata.
//!
//! The structure mirrors the baseline LSM's `version` module but each level (from 1
//! down) is a list of [`GuardMeta`]s instead of a sorted run of disjoint
//! files. The MANIFEST machinery is the chassis's
//! ([`pebblesdb_engine::version_set`]); its edits additionally carry newly
//! committed guard keys, which is the only extra metadata PebblesDB persists
//! compared to its HyperLevelDB base (section 4.3.1 of the paper). This
//! module supplies the shape: how edits rebuild the guard tree.

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::sync::Arc;

use pebblesdb_common::key::LookupKey;
use pebblesdb_common::vlog::LookupValue;
use pebblesdb_common::{Error, ReadOptions, Result, StoreOptions};
use pebblesdb_engine::runs::{probe_file, probe_level0};
use pebblesdb_engine::{FileMetaData, VersionEdit, VersionShape};
use pebblesdb_sstable::TableCache;

use crate::guards::{guard_index_for_key, GuardMeta};

/// Aggressive compaction moves level `i` into `i + 1` once `size(i) >= ratio
/// * size(i + 1)`.
const AGGRESSIVE_COMPACTION_RATIO: f64 = 0.25;

/// One guard-organised level of the FLSM.
///
/// A level is immutable once built; the aggregate facts the read, stats and
/// compaction-picking paths ask of it are computed once in
/// [`FlsmLevel::new`], so none of them walks the guard list.
#[derive(Debug, Clone, Default)]
pub struct FlsmLevel {
    /// `guards[0]` is the sentinel (empty key); the rest are sorted by key.
    guards: Vec<GuardMeta>,
    num_files: usize,
    total_bytes: u64,
    max_files_in_guard: usize,
    empty_guards: usize,
    has_overlapping_guard: bool,
}

impl FlsmLevel {
    /// Builds a level from its guards (sentinel first, then sorted by key).
    pub fn new(guards: Vec<GuardMeta>) -> Self {
        let mut level = FlsmLevel {
            max_files_in_guard: guards.iter().map(|g| g.files.len()).max().unwrap_or(0),
            empty_guards: guards.iter().filter(|g| g.files.is_empty()).count(),
            has_overlapping_guard: guards.iter().any(GuardMeta::has_overlapping_files),
            guards,
            num_files: 0,
            total_bytes: 0,
        };
        let files = level.unique_files();
        level.num_files = files.len();
        level.total_bytes = files.iter().map(|f| f.file_size).sum();
        level
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

    /// The guard that owns `user_key`.
    pub fn guard_for(&self, user_key: &[u8]) -> &GuardMeta {
        &self.guards[self.guard_index_for(user_key)]
    }

    /// Total bytes across every guard (files spanning several guards are
    /// counted once).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total number of distinct files across every guard.
    pub fn num_files(&self) -> usize {
        self.num_files
    }

    /// The distinct files of this level.
    ///
    /// A file whose key range spans several guards (because a guard was
    /// committed after the file was written) is attached to each guard it
    /// overlaps so point lookups stay correct; aggregations must therefore
    /// de-duplicate by file number. Walks every guard: the per-operation
    /// paths read the facts cached by [`FlsmLevel::new`] instead.
    pub fn unique_files(&self) -> Vec<Arc<FileMetaData>> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for guard in &self.guards {
            for file in &guard.files {
                if seen.insert(file.number) {
                    out.push(Arc::clone(file));
                }
            }
        }
        out
    }

    /// The largest number of sstables held by any single guard.
    pub fn max_files_in_guard(&self) -> usize {
        self.max_files_in_guard
    }

    /// Whether some guard holds two sstables that overlap — the only thing
    /// a seek-triggered compaction of this level could collapse.
    pub fn has_overlapping_guard(&self) -> bool {
        self.has_overlapping_guard
    }

    /// Number of guards with no sstables (tracked for the empty-guard
    /// experiment, Figure 5.4 of the paper).
    pub fn empty_guards(&self) -> usize {
        self.empty_guards
    }
}

/// An immutable snapshot of the whole FLSM file layout.
#[derive(Debug, Default)]
pub struct FlsmVersion {
    /// Level-0 files (no guards), newest first.
    pub level0: Vec<Arc<FileMetaData>>,
    /// Guard-organised levels; index 0 is unused.
    pub levels: Vec<FlsmLevel>,
}

impl FlsmVersion {
    /// Number of levels (including level 0).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total bytes at `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        if level == 0 {
            self.level0.iter().map(|f| f.file_size).sum()
        } else {
            self.levels[level].total_bytes()
        }
    }

    /// Number of files at `level`.
    pub fn level_files(&self, level: usize) -> usize {
        if level == 0 {
            self.level0.len()
        } else {
            self.levels[level].num_files()
        }
    }

    /// Number of guards per level (sentinel included), for diagnostics.
    pub fn guards_per_level(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.guards().len()).collect()
    }

    /// Total number of empty guards across all levels.
    pub fn empty_guards(&self) -> usize {
        self.levels.iter().skip(1).map(|l| l.empty_guards()).sum()
    }

    /// Decides whether (and why) a compaction is needed, and at which level.
    pub fn pick_compaction_level(
        &self,
        options: &StoreOptions,
    ) -> Option<(usize, CompactionReason)> {
        self.compaction_candidates(options).into_iter().next()
    }

    /// Every level that currently wants a compaction, in priority order
    /// (level 0 pressure, guard fanout, byte budgets, aggressive merging).
    ///
    /// The compaction pool walks this list so a worker whose preferred level
    /// is fully claimed by in-flight jobs can still pick up independent work
    /// at another level. Each level appears at most once, under its
    /// highest-priority reason.
    pub fn compaction_candidates(&self, options: &StoreOptions) -> Vec<(usize, CompactionReason)> {
        let mut candidates: Vec<(usize, CompactionReason)> = Vec::new();
        let mut push = |level: usize, reason: CompactionReason| {
            if candidates.iter().all(|(listed, _)| *listed != level) {
                candidates.push((level, reason));
            }
        };
        // Level 0 is governed by file count.
        if self.level0.len() >= options.level0_compaction_trigger {
            push(0, CompactionReason::Level0Files);
        }
        // A guard over its sstable budget forces a compaction of its level.
        // This includes the last level, which rewrites its guards in place
        // (the paper's "exception to the no-rewrite rule").
        for level in 1..self.num_levels() {
            if self.levels[level].max_files_in_guard() > options.max_sstables_per_guard {
                push(level, CompactionReason::GuardFanout);
            }
        }
        // Byte budgets.
        for level in 1..self.num_levels() - 1 {
            if self.level_bytes(level) > options.max_bytes_for_level(level) {
                push(level, CompactionReason::LevelBytes);
            }
        }
        // Aggressive compaction: level i close in size to level i+1.
        if options.enable_aggressive_compaction {
            for level in 1..self.num_levels() - 1 {
                let this = self.level_bytes(level);
                let next = self.level_bytes(level + 1);
                if this > 0
                    && next > 0
                    && (this as f64) >= AGGRESSIVE_COMPACTION_RATIO * (next as f64)
                    && this >= options.max_bytes_for_level(level) / 2
                {
                    push(level, CompactionReason::Aggressive);
                }
            }
        }
        candidates
    }
}

/// Why a compaction was scheduled (used for stats and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionReason {
    /// Too many level-0 files.
    Level0Files,
    /// Some guard exceeded `max_sstables_per_guard`.
    GuardFanout,
    /// A level exceeded its byte budget.
    LevelBytes,
    /// The level is close in size to the next level (aggressive compaction).
    Aggressive,
    /// Requested by the consecutive-seek heuristic.
    SeekTriggered,
    /// Explicitly requested (flush / compact_all).
    Manual,
}

impl VersionShape for FlsmVersion {
    fn empty(max_levels: usize) -> Self {
        FlsmVersion {
            level0: Vec::new(),
            levels: (0..max_levels).map(|_| FlsmLevel::empty()).collect(),
        }
    }

    /// Rebuilds the guard tree: guard keys and files are collected per level,
    /// the edit is applied to those lists, and every file is re-attached to
    /// the guards its key range overlaps.
    fn apply(&self, edit: &VersionEdit) -> Result<Self> {
        edit.check_levels(self.num_levels())?;
        if edit.new_guards.iter().any(|(_, key)| key.is_empty()) {
            return Err(Error::corruption(
                "version edit commits the sentinel (empty) guard key",
            ));
        }
        // Guard keys per level (sentinel excluded) and files per level
        // (level 0 included at index 0).
        let mut guard_keys: Vec<BTreeSet<Vec<u8>>> = self
            .levels
            .iter()
            .map(|level| level.guard_keys().into_iter().collect())
            .collect();
        let mut files: Vec<Vec<Arc<FileMetaData>>> =
            self.levels.iter().map(FlsmLevel::unique_files).collect();
        files[0] = self.level0.clone();

        for (level, key) in &edit.new_guards {
            // A guard at level i is a guard at every deeper level too.
            for keys in &mut guard_keys[*level..] {
                keys.insert(key.clone());
            }
        }
        for (level, number) in &edit.deleted_files {
            files[*level].retain(|f| f.number != *number);
        }
        for (level, file) in &edit.new_files {
            files[*level].push(file.to_meta());
        }
        // Newest first everywhere. The dedup matters at recovery only:
        // MANIFEST snapshots written before the version set moved into the
        // chassis listed a file once per guard it spans.
        for level_files in &mut files {
            level_files.sort_by_key(|f| Reverse(f.number));
            level_files.dedup_by_key(|f| f.number);
        }

        let mut version = FlsmVersion::empty(self.num_levels());
        version.level0 = std::mem::take(&mut files[0]);
        for (level_idx, keys) in guard_keys.into_iter().enumerate().skip(1) {
            let keys: Vec<Vec<u8>> = keys.into_iter().collect();
            let mut guards: Vec<GuardMeta> = Vec::with_capacity(keys.len() + 1);
            guards.push(GuardMeta::new(Vec::new()));
            guards.extend(keys.iter().cloned().map(GuardMeta::new));
            for file in &files[level_idx] {
                // A file is attached to every guard its key range overlaps.
                // Freshly compacted files land in exactly one guard; only
                // files written before a guard was committed can span more.
                let first = guard_index_for_key(&keys, file.smallest.user_key());
                let last = guard_index_for_key(&keys, file.largest.user_key());
                for guard in guards.iter_mut().take(last + 1).skip(first) {
                    guard.files.push(Arc::clone(file));
                }
            }
            version.levels[level_idx] = FlsmLevel::new(guards);
        }
        Ok(version)
    }

    /// Point lookup across the whole version.
    fn get(
        &self,
        read_options: &ReadOptions,
        key: &LookupKey,
        table_cache: &TableCache,
    ) -> Result<Option<LookupValue>> {
        let user_key = key.user_key();
        if let Some(decided) = probe_level0(table_cache, read_options, &self.level0, key)? {
            return Ok(decided);
        }

        // Levels 1..: exactly one guard per level can own the key. The
        // sstables inside a guard overlap freely and — now that concurrent
        // compaction jobs at different levels may deliver files into the same
        // guard out of file-number order — the newest-number-first heuristic
        // is no longer a total order on recency. Each candidate file is
        // consulted (bloom filters skip most) and the match with the highest
        // sequence number wins.
        for level in self.levels.iter().skip(1) {
            let guard = level.guard_for(user_key);
            let mut best = None;
            for file in guard
                .files
                .iter()
                .filter(|f| f.overlaps_user_range(Some(user_key), Some(user_key)))
            {
                if let Some(found) = probe_file(table_cache, read_options, file, key)? {
                    if best.as_ref().is_none_or(|(newest, _)| found.0 > *newest) {
                        best = Some(found);
                    }
                }
            }
            if let Some((_, decided)) = best {
                return Ok(decided);
            }
        }
        Ok(None)
    }

    fn snapshot_into(&self, edit: &mut VersionEdit) {
        for file in &self.level0 {
            edit.add_file(0, file);
        }
        for (level_idx, level) in self.levels.iter().enumerate().skip(1) {
            edit.new_guards
                .extend(level.guard_keys().into_iter().map(|key| (level_idx, key)));
            for file in level.unique_files() {
                edit.add_file(level_idx, &file);
            }
        }
    }

    fn live_file_numbers(&self) -> Vec<u64> {
        let mut numbers: Vec<u64> = self.level0.iter().map(|f| f.number).collect();
        for level in self.levels.iter().skip(1) {
            numbers.extend(level.unique_files().iter().map(|f| f.number));
        }
        numbers
    }

    fn needs_compaction(&self, options: &StoreOptions) -> bool {
        self.pick_compaction_level(options).is_some()
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
            // Guards propagate to deeper levels.
            if level_idx + 1 < self.levels.len() {
                let deeper = &self.levels[level_idx + 1];
                for guard in guards.iter().skip(1) {
                    if !deeper.guards.iter().any(|g| g.key == guard.key) {
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
            for file in level.unique_files() {
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

    fn level0_len(&self) -> usize {
        self.level0.len()
    }

    fn total_bytes(&self) -> u64 {
        (0..self.num_levels()).map(|l| self.level_bytes(l)).sum()
    }

    fn num_files(&self) -> usize {
        (0..self.num_levels()).map(|l| self.level_files(l)).sum()
    }

    /// Sizes of every live file (Table 5.1 of the paper).
    fn file_sizes(&self) -> Vec<u64> {
        let mut sizes: Vec<u64> = self.level0.iter().map(|f| f.file_size).collect();
        for level in self.levels.iter().skip(1) {
            sizes.extend(level.unique_files().iter().map(|f| f.file_size));
        }
        sizes
    }

    /// `L0:n L1:files/guards ...`.
    fn level_summary(&self) -> String {
        let mut parts = vec![format!("L0:{}", self.level0.len())];
        for (idx, level) in self.levels.iter().enumerate().skip(1) {
            parts.push(format!(
                "L{idx}:{}f/{}g",
                level.num_files(),
                level.guards.len()
            ));
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::key::{InternalKey, ValueType};
    use pebblesdb_engine::FileMetaDataEdit;

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

        assert_eq!(version.level0.len(), 1);
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
        assert_eq!(level1.guard_for(b"b").key, b"");
        assert_eq!(level1.guard_for(b"q").key, b"m");
        assert_eq!(version.empty_guards(), 2 + 2);
        assert!(version.level_summary().starts_with("L0:1 L1:3f/2g"));
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
        assert_eq!(version.levels[1].num_files(), 0);
        assert_eq!(version.levels[1].guards.len(), 2);
        assert_eq!(version.empty_guards(), 4);
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

        let mut snapshot = VersionEdit::default();
        version.snapshot_into(&mut snapshot);
        assert_eq!(snapshot.new_files.len(), 1);

        snapshot.new_files.push((1, file_edit(10, "a", "z")));
        let rebuilt = FlsmVersion::empty(3).apply(&snapshot).unwrap();
        assert_eq!(rebuilt.num_files(), 1);
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
        let version = FlsmVersion::empty(opts.max_levels).apply(&edit).unwrap();

        assert_eq!(
            version.compaction_candidates(&opts),
            vec![
                (0, CompactionReason::Level0Files),
                (1, CompactionReason::GuardFanout),
                (2, CompactionReason::GuardFanout),
            ]
        );
        // The single-level picker returns the highest-priority candidate.
        assert_eq!(
            version.pick_compaction_level(&opts),
            Some((0, CompactionReason::Level0Files))
        );
    }

    #[test]
    fn compaction_triggers_cover_level0_guards_and_bytes() {
        let mut opts = StoreOptions::default();
        opts.level0_compaction_trigger = 2;
        opts.max_sstables_per_guard = 2;
        opts.base_level_bytes = 2500;
        opts.enable_aggressive_compaction = false;
        let version = FlsmVersion::empty(opts.max_levels);
        assert!(!version.needs_compaction(&opts));

        // Two level-0 files trigger a level-0 compaction.
        let mut edit = VersionEdit::default();
        edit.new_files.push((0, file_edit(10, "a", "b")));
        edit.new_files.push((0, file_edit(11, "c", "d")));
        let version = version.apply(&edit).unwrap();
        assert_eq!(
            version.pick_compaction_level(&opts),
            Some((0, CompactionReason::Level0Files))
        );

        // Guard fanout trigger: three files in one guard with budget 2.
        let mut edit = VersionEdit::default();
        edit.delete_file(0, 10);
        edit.delete_file(0, 11);
        for n in 20..23 {
            edit.new_files.push((1, file_edit(n, "k", "p")));
        }
        let version = version.apply(&edit).unwrap();
        assert_eq!(
            version.pick_compaction_level(&opts),
            Some((1, CompactionReason::GuardFanout))
        );
    }
}
