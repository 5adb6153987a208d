//! The leveled version: sorted runs of disjoint sstables per level.
//!
//! A [`Version`] is an immutable snapshot of which sstables live at which
//! level. Mutations (memtable flushes, compactions) are described by
//! [`VersionEdit`]s which the chassis's version set
//! ([`pebblesdb_engine::version_set`]) appends to the MANIFEST log and
//! applies to produce the next version — the standard LevelDB descriptor
//! scheme that PebblesDB inherits (and extends with guard records for the
//! `pebblesdb` crate's shape). This module supplies the leveled shape.

use std::cmp::Ordering;
use std::sync::Arc;

use pebblesdb_common::key::{compare_internal_keys, LookupKey, SequenceNumber};
use pebblesdb_common::key::{parse_internal_key, ValueType};
use pebblesdb_common::vlog::{LookupValue, ValuePointer};
use pebblesdb_common::{Error, ReadOptions, Result, StoreOptions};
use pebblesdb_engine::{VersionEdit, VersionShape};
use pebblesdb_sstable::TableCache;

pub use pebblesdb_engine::meta::{FileMetaData, FileMetaDataEdit};

/// An immutable snapshot of the files at every level.
#[derive(Debug)]
pub struct Version {
    /// `files[level]` is sorted by smallest key for levels >= 1; level 0 is
    /// ordered newest-file-first (by file number, descending).
    pub files: Vec<Vec<Arc<FileMetaData>>>,
}

impl Version {
    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.files.len()
    }

    /// Total bytes stored at `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.files[level].iter().map(|f| f.file_size).sum()
    }

    /// The files at `level` whose user-key range overlaps `[begin, end]`.
    pub fn overlapping_inputs(
        &self,
        level: usize,
        begin: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Vec<Arc<FileMetaData>> {
        let mut inputs = Vec::new();
        let mut begin = begin.map(|b| b.to_vec());
        let mut end = end.map(|e| e.to_vec());
        let mut restart = true;
        while restart {
            restart = false;
            inputs.clear();
            for file in &self.files[level] {
                if file.overlaps_user_range(begin.as_deref(), end.as_deref()) {
                    // Level-0 files overlap each other, so growing the range
                    // must restart the search to stay transitive.
                    if level == 0 {
                        let fs = file.smallest.user_key();
                        let fl = file.largest.user_key();
                        if begin.as_deref().map(|b| fs < b).unwrap_or(false) {
                            begin = Some(fs.to_vec());
                            restart = true;
                        }
                        if end.as_deref().map(|e| fl > e).unwrap_or(false) {
                            end = Some(fl.to_vec());
                            restart = true;
                        }
                    }
                    inputs.push(Arc::clone(file));
                    if restart {
                        break;
                    }
                }
            }
        }
        inputs
    }

    /// Point lookup: searches level 0 newest-first, then deeper levels.
    ///
    /// Returns `Ok(Some(value))`, `Ok(None)` for "definitely deleted or never
    /// written", and records a seek on the first file probed (for
    /// seek-triggered compaction, reported through the return).
    pub fn get(
        &self,
        read_options: &ReadOptions,
        key: &LookupKey,
        table_cache: &TableCache,
    ) -> Result<Option<LookupValue>> {
        let user_key = key.user_key();
        let snapshot = key.sequence();

        // Level 0: every overlapping file, newest first.
        let mut level0: Vec<&Arc<FileMetaData>> = self.files[0]
            .iter()
            .filter(|f| f.smallest.user_key() <= user_key && user_key <= f.largest.user_key())
            .collect();
        level0.sort_by_key(|f| std::cmp::Reverse(f.number));
        for file in level0 {
            if let Some(result) =
                Self::get_in_file(read_options, file, user_key, snapshot, table_cache)?
            {
                return Ok(result);
            }
        }

        // Deeper levels: the files are disjoint by *internal* key, so binary
        // search with the lookup's internal key (user key + snapshot
        // sequence). Searching by user key alone is wrong for snapshot
        // reads: compaction may split one user key's versions across two
        // adjacent files, and the version visible at the snapshot can sit in
        // the file *after* the one holding the newest versions.
        for level in 1..self.num_levels() {
            let files = &self.files[level];
            if files.is_empty() {
                continue;
            }
            let idx = files.partition_point(|f| {
                compare_internal_keys(f.largest.encoded(), key.internal_key())
                    == std::cmp::Ordering::Less
            });
            if idx >= files.len() {
                continue;
            }
            let file = &files[idx];
            if file.smallest.user_key() > user_key {
                continue;
            }
            if let Some(result) =
                Self::get_in_file(read_options, file, user_key, snapshot, table_cache)?
            {
                return Ok(result);
            }
        }
        Ok(None)
    }

    /// Searches a single file. The outer `Option` is "did this file decide
    /// the outcome"; the inner is the value (None = tombstone).
    fn get_in_file(
        read_options: &ReadOptions,
        file: &Arc<FileMetaData>,
        user_key: &[u8],
        snapshot: SequenceNumber,
        table_cache: &TableCache,
    ) -> Result<Option<Option<LookupValue>>> {
        let table = table_cache.get_table(file.number, file.file_size)?;
        if !table.may_contain_user_key(user_key) {
            return Ok(None);
        }
        let target = LookupKey::new(user_key, snapshot);
        match table.get(read_options, target.internal_key())? {
            Some((found_key, value)) => match parse_internal_key(&found_key) {
                Some(parsed) if parsed.user_key == user_key => match parsed.value_type {
                    ValueType::Value => Ok(Some(Some(LookupValue::Inline(value)))),
                    ValueType::ValuePointer => Ok(Some(Some(LookupValue::Pointer(
                        ValuePointer::decode(&value)?,
                    )))),
                    ValueType::Deletion => Ok(Some(None)),
                },
                _ => Ok(None),
            },
            None => Ok(None),
        }
    }

    /// Returns the level with the highest compaction score, if any level is
    /// over budget. Level 0 is scored by file count, deeper levels by bytes.
    pub fn pick_compaction_level(&self, options: &StoreOptions) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for level in 0..self.num_levels() - 1 {
            let score = if level == 0 {
                self.files[0].len() as f64 / options.level0_compaction_trigger as f64
            } else {
                self.level_bytes(level) as f64 / options.max_bytes_for_level(level) as f64
            };
            if score >= 1.0 && best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((level, score));
            }
        }
        best
    }
}

impl VersionShape for Version {
    fn empty(max_levels: usize) -> Self {
        Version {
            files: vec![Vec::new(); max_levels],
        }
    }

    /// Applies the edit's deletes, then its adds, and restores per-level
    /// ordering (files are shared with `self` via `Arc`).
    fn apply(&self, edit: &VersionEdit) -> Result<Self> {
        edit.check_levels(self.num_levels())?;
        if !edit.new_guards.is_empty() {
            return Err(Error::corruption(
                "guard record (tag 7) in the MANIFEST of a leveled store",
            ));
        }
        let mut files = self.files.clone();
        for (level, number) in &edit.deleted_files {
            files[*level].retain(|f| f.number != *number);
        }
        for (level, file) in &edit.new_files {
            files[*level].push(file.to_meta());
        }
        for (level, files) in files.iter_mut().enumerate() {
            if level == 0 {
                files.sort_by_key(|f| std::cmp::Reverse(f.number));
            } else {
                files.sort_by(|a, b| {
                    compare_internal_keys(a.smallest.encoded(), b.smallest.encoded())
                });
            }
        }
        let version = Version { files };
        // Reads binary-search the deeper levels, so an edit that makes two
        // of their files overlap would hide keys rather than fail.
        version.validate().map_err(Error::corruption)?;
        Ok(version)
    }

    fn snapshot_into(&self, edit: &mut VersionEdit) {
        for (level, files) in self.files.iter().enumerate() {
            for file in files {
                edit.add_file(level, file);
            }
        }
    }

    fn live_file_numbers(&self) -> Vec<u64> {
        self.files.iter().flatten().map(|f| f.number).collect()
    }

    fn needs_compaction(&self, options: &StoreOptions) -> bool {
        self.pick_compaction_level(options).is_some()
    }

    /// Every level from 1 down is a sorted run of files disjoint by internal
    /// key.
    fn validate(&self) -> std::result::Result<(), String> {
        for (level, files) in self.files.iter().enumerate().skip(1) {
            for pair in files.windows(2) {
                if compare_internal_keys(pair[0].largest.encoded(), pair[1].smallest.encoded())
                    != Ordering::Less
                {
                    return Err(format!(
                        "L{level}: files {} and {} overlap",
                        pair[0].number, pair[1].number
                    ));
                }
            }
        }
        Ok(())
    }

    fn level0_len(&self) -> usize {
        self.files[0].len()
    }

    fn total_bytes(&self) -> u64 {
        self.files.iter().flatten().map(|f| f.file_size).sum()
    }

    fn num_files(&self) -> usize {
        self.files.iter().map(|l| l.len()).sum()
    }

    fn file_sizes(&self) -> Vec<u64> {
        self.files.iter().flatten().map(|f| f.file_size).collect()
    }

    /// Files per level (for debugging and the `compare_engines` example).
    fn level_summary(&self) -> String {
        let counts: Vec<String> = self
            .files
            .iter()
            .enumerate()
            .map(|(level, files)| format!("L{level}:{}", files.len()))
            .collect();
        counts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::key::{InternalKey, ValueType};

    fn ikey(user: &str, seq: u64) -> InternalKey {
        InternalKey::new(user.as_bytes(), seq, ValueType::Value)
    }

    fn meta(number: u64, smallest: &str, largest: &str) -> FileMetaDataEdit {
        FileMetaDataEdit {
            number,
            file_size: 1000,
            smallest: ikey(smallest, 5).encoded().to_vec(),
            largest: ikey(largest, 1).encoded().to_vec(),
        }
    }

    #[test]
    fn builder_applies_adds_and_deletes_in_order() {
        let mut edit = VersionEdit::default();
        edit.new_files.push((1, meta(10, "k", "p")));
        edit.new_files.push((1, meta(11, "a", "e")));
        edit.new_files.push((0, meta(12, "c", "z")));
        let mut second = VersionEdit::default();
        second.deleted_files.push((1, 10));
        second.new_files.push((2, meta(13, "q", "t")));
        let version = Version::empty(7)
            .apply(&edit)
            .and_then(|v| v.apply(&second))
            .unwrap();
        assert_eq!(version.files[0].len(), 1);
        assert_eq!(version.files[1].len(), 1);
        assert_eq!(version.files[1][0].number, 11);
        assert_eq!(version.files[2].len(), 1);
        assert_eq!(version.num_files(), 3);
        assert_eq!(version.total_bytes(), 3000);
        assert_eq!(
            version.level_summary(),
            "L0:1 L1:1 L2:1 L3:0 L4:0 L5:0 L6:0"
        );
    }

    #[test]
    fn overlapping_inputs_expands_level0_ranges() {
        let mut edit = VersionEdit::default();
        // Two overlapping level-0 files and one detached one.
        edit.new_files.push((0, meta(1, "a", "f")));
        edit.new_files.push((0, meta(2, "e", "k")));
        edit.new_files.push((0, meta(3, "x", "z")));
        let version = Version::empty(7).apply(&edit).unwrap();
        let inputs = version.overlapping_inputs(0, Some(b"a"), Some(b"b"));
        // Picking "a".."b" pulls in file 1; expansion to file 1's range pulls
        // in file 2 because they overlap at "e"/"f".
        let numbers: Vec<u64> = inputs.iter().map(|f| f.number).collect();
        assert!(numbers.contains(&1) && numbers.contains(&2));
        assert!(!numbers.contains(&3));
    }

    #[test]
    fn compaction_scores_trigger_on_level0_count_and_level_bytes() {
        let mut opts = StoreOptions::default();
        opts.level0_compaction_trigger = 2;
        opts.base_level_bytes = 1500;
        let version = Version::empty(opts.max_levels);
        assert!(!version.needs_compaction(&opts));

        let mut edit = VersionEdit::default();
        edit.new_files.push((0, meta(10, "a", "b")));
        edit.new_files.push((0, meta(11, "c", "d")));
        let version = version.apply(&edit).unwrap();
        let (level, score) = version.pick_compaction_level(&opts).unwrap();
        assert_eq!(level, 0);
        assert!(score >= 1.0);

        // Push level 1 over its byte budget (2 files x 1000 bytes > 1500).
        let mut edit = VersionEdit::default();
        edit.deleted_files.push((0, 10));
        edit.deleted_files.push((0, 11));
        edit.new_files.push((1, meta(12, "a", "b")));
        edit.new_files.push((1, meta(13, "c", "d")));
        let version = version.apply(&edit).unwrap();
        let (level, _) = version.pick_compaction_level(&opts).unwrap();
        assert_eq!(level, 1);
    }

    #[test]
    fn overlapping_files_within_a_deeper_level_are_corruption() {
        let mut edit = VersionEdit::default();
        edit.new_files.push((0, meta(1, "a", "m")));
        edit.new_files.push((0, meta(2, "c", "z")));
        assert!(Version::empty(7).apply(&edit).is_ok());
        let mut edit = VersionEdit::default();
        edit.new_files.push((1, meta(1, "a", "m")));
        edit.new_files.push((1, meta(2, "c", "z")));
        assert!(matches!(
            Version::empty(7).apply(&edit),
            Err(Error::Corruption(_))
        ));
    }
}
