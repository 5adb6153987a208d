//! The leveled version: sorted runs of disjoint sstables per level.
//!
//! A [`Version`] is an immutable snapshot of which sstables live at which
//! level. Mutations (memtable flushes, compactions) are described by
//! [`VersionEdit`]s which the chassis's version set
//! ([`pebblesdb_engine::version_set`]) appends to the MANIFEST log and
//! applies to produce the next version — the standard LevelDB descriptor
//! scheme that PebblesDB inherits (and extends with guard records for the
//! `pebblesdb` crate's shape). This module supplies what defines the leveled
//! shape: how edits build a version, its invariant, the compaction score its
//! policy picks by and the cut of a level into one-file slots
//! ([`FileRuns`]); reads, per-level facts, snapshots and commits are the
//! chassis's.

use std::cmp::Ordering;
use std::sync::Arc;

use pebblesdb_common::key::compare_internal_keys;
use pebblesdb_common::{Error, Result, StoreOptions};
use pebblesdb_engine::{LevelRow, RunSource, VersionEdit, VersionShape};

pub use pebblesdb_engine::meta::{FileMetaData, FileMetaDataEdit};

/// An immutable snapshot of the files at every level.
#[derive(Debug)]
pub struct Version {
    /// `files[level]` is sorted by smallest key for levels >= 1; level 0 is
    /// ordered newest-file-first (by file number, descending).
    pub files: Vec<FileRuns>,
}

impl Version {
    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.files.len()
    }

    /// The files of `level` (1 or deeper) whose user-key range overlaps
    /// `[begin, end]`: a contiguous slice of the level's sorted, disjoint
    /// run. Compaction asks this of the levels below its inputs and of its
    /// input level when it claims (level 0 is always compacted whole).
    pub fn overlapping_inputs(
        &self,
        level: usize,
        begin: &[u8],
        end: &[u8],
    ) -> &[Arc<FileMetaData>] {
        let FileRuns(files) = &self.files[level];
        let first = files.partition_point(|f| f.largest.user_key() < begin);
        let past = files.partition_point(|f| f.smallest.user_key() <= end);
        &files[first..past.max(first)]
    }
}

/// The levels of a version with the table `levels` whose compaction score
/// is at least 1, highest score first and ties to the shallowest level.
/// Level 0 is scored by file count, deeper levels by bytes.
pub fn compaction_levels(levels: &[LevelRow], options: &StoreOptions) -> Vec<usize> {
    let score = |row: &LevelRow| {
        if row.level == 0 {
            row.files as f64 / options.level0_compaction_trigger as f64
        } else {
            row.bytes as f64 / options.max_bytes_for_level(row.level) as f64
        }
    };
    let mut due: Vec<(usize, f64)> = levels[..levels.len() - 1]
        .iter()
        .map(|row| (row.level, score(row)))
        .filter(|&(_, score)| score >= 1.0)
        .collect();
    // Stable: equal scores keep level order.
    due.sort_by(|a, b| b.1.total_cmp(&a.1));
    due.into_iter().map(|(level, _)| level).collect()
}

/// The files of one level. From level 1 down they are a leveled run, which
/// the chassis reads with every file its own slot and — the files being
/// disjoint — no slot clipped.
#[derive(Debug, Clone, Default)]
pub struct FileRuns(pub Vec<Arc<FileMetaData>>);

impl RunSource for FileRuns {
    fn slots(&self) -> usize {
        self.0.len()
    }

    /// The first file whose largest key is at or past `target`.
    ///
    /// The files are disjoint by *internal* key, so the search compares
    /// internal keys (user key + snapshot sequence). Searching by user key
    /// alone is wrong for snapshot reads: compaction may split one user
    /// key's versions across two adjacent files, and the version visible at
    /// the snapshot can sit in the file *after* the one holding the newest
    /// versions.
    fn slot_for(&self, target: &[u8]) -> usize {
        self.0
            .partition_point(|f| compare_internal_keys(f.largest.encoded(), target).is_lt())
    }

    fn files(&self, slot: usize) -> &[Arc<FileMetaData>] {
        self.0.get(slot).map_or(&[], std::slice::from_ref)
    }

    fn bounds(&self, _slot: usize) -> (Option<&[u8]>, Option<&[u8]>) {
        (None, None)
    }
}

impl VersionShape for Version {
    type Runs = FileRuns;

    fn empty(levels: usize) -> Self {
        Version {
            files: vec![FileRuns::default(); levels],
        }
    }

    /// Applies the edit's deletes, then its adds, and restores per-level
    /// ordering (files are shared with `self` via `Arc`, a moved one too).
    fn apply(&self, edit: &VersionEdit) -> Result<Self> {
        edit.check_levels(self.num_levels())?;
        if !edit.new_guards.is_empty() {
            return Err(Error::corruption(
                "guard record (tag 7) in the MANIFEST of a leveled store",
            ));
        }
        let mut files = self.files.clone();
        for (level, number) in &edit.deleted_files {
            files[*level].0.retain(|f| f.number != *number);
        }
        for (level, file) in &edit.new_files {
            files[*level].0.push(edit.added_file(self, file));
        }
        for (level, FileRuns(files)) in files.iter_mut().enumerate() {
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

    /// Every level from 1 down is a sorted run of files disjoint by internal
    /// key.
    fn validate(&self) -> std::result::Result<(), String> {
        for (level, FileRuns(files)) in self.files.iter().enumerate().skip(1) {
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

    fn level0(&self) -> &[Arc<FileMetaData>] {
        self.files.first().map_or(&[], |level0| &level0.0)
    }

    fn runs(&self) -> &[FileRuns] {
        self.files.get(1..).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::filename::table_file_name;
    use pebblesdb_common::iterator::DbIterator;
    use pebblesdb_common::key::{encode_internal_key, extract_user_key, InternalKey, ValueType};
    use pebblesdb_common::NUM_LEVELS;
    use pebblesdb_engine::{LevelCursor, LevelTable};
    use pebblesdb_env::{Env, MemEnv};
    use pebblesdb_sstable::{TableBuilder, TableCache};
    use std::path::{Path, PathBuf};

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
        assert_eq!(version.files[0].0.len(), 1);
        assert_eq!(version.files[1].0.len(), 1);
        assert_eq!(version.files[1].0[0].number, 11);
        assert_eq!(version.files[2].0.len(), 1);
        let rows = LevelTable::of(&version);
        assert_eq!(rows.num_files(), 3);
        assert_eq!(rows.total_bytes(), 3000);
        assert_eq!(rows.to_string(), "L0:1 L1:1 L2:1 L3:0 L4:0 L5:0 L6:0");
    }

    /// A trivial move hands the next version the file's `Arc`; a file added
    /// under a moved file's number with other bounds is a new one.
    #[test]
    fn a_trivial_move_keeps_the_files_arc() {
        let mut edit = VersionEdit::default();
        edit.new_files.push((1, meta(10, "a", "c")));
        let version = Version::empty(7).apply(&edit).unwrap();
        let file = Arc::clone(&version.files[1].0[0]);

        let mut moved = VersionEdit::default();
        moved.delete_file(1, 10);
        moved.add_file(2, &file);
        let next = version.apply(&moved).unwrap();
        assert!(next.files[1].0.is_empty());
        assert!(Arc::ptr_eq(&next.files[2].0[0], &file));

        let mut changed = VersionEdit::default();
        changed.delete_file(1, 10);
        changed.new_files.push((2, meta(10, "a", "d")));
        let next = version.apply(&changed).unwrap();
        assert!(!Arc::ptr_eq(&next.files[2].0[0], &file));
    }

    #[test]
    fn overlapping_inputs_are_the_files_a_range_touches() {
        let mut edit = VersionEdit::default();
        edit.new_files.push((1, meta(1, "a", "f")));
        edit.new_files.push((1, meta(2, "g", "k")));
        edit.new_files.push((1, meta(3, "x", "z")));
        let version = Version::empty(7).apply(&edit).unwrap();
        let numbers = |begin: &[u8], end: &[u8]| -> Vec<u64> {
            let inputs = version.overlapping_inputs(1, begin, end);
            inputs.iter().map(|f| f.number).collect()
        };
        // Bounds are inclusive on both sides.
        assert_eq!(numbers(b"f", b"g"), [1, 2]);
        assert_eq!(numbers(b"b", b"c"), [1]);
        assert_eq!(numbers(b"l", b"w"), [0u64; 0]);
        assert_eq!(numbers(b"a", b"z"), [1, 2, 3]);
        assert!(version.overlapping_inputs(2, b"a", b"z").is_empty());
    }

    #[test]
    fn compaction_scores_trigger_on_level0_count_and_level_bytes() {
        let mut opts = StoreOptions::default();
        opts.level0_compaction_trigger = 2;
        opts.base_level_bytes = 1500;
        let version = Version::empty(NUM_LEVELS);
        assert!(compaction_levels(&LevelTable::of(&version), &opts).is_empty());

        let mut edit = VersionEdit::default();
        edit.new_files.push((0, meta(10, "a", "b")));
        edit.new_files.push((0, meta(11, "c", "d")));
        let version = version.apply(&edit).unwrap();
        assert_eq!(compaction_levels(&LevelTable::of(&version), &opts), [0]);

        // Push level 1 over its byte budget (2 files x 1000 bytes > 1500).
        let mut edit = VersionEdit::default();
        edit.deleted_files.push((0, 10));
        edit.deleted_files.push((0, 11));
        edit.new_files.push((1, meta(12, "a", "b")));
        edit.new_files.push((1, meta(13, "c", "d")));
        let version = version.apply(&edit).unwrap();
        assert_eq!(compaction_levels(&LevelTable::of(&version), &opts), [1]);
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
    fn build_file(
        env: &Arc<dyn Env>,
        db: &Path,
        options: &StoreOptions,
        number: u64,
        keys: &[&str],
    ) -> Arc<FileMetaData> {
        let file = env.new_writable_file(&table_file_name(db, number)).unwrap();
        let mut builder = TableBuilder::new(options, file);
        for k in keys {
            let key = encode_internal_key(k.as_bytes(), 1, ValueType::Value);
            builder.add(&key, b"v").unwrap();
        }
        let smallest = builder.first_key().unwrap().to_vec();
        let largest = builder.last_key().unwrap().to_vec();
        let size = builder.finish().unwrap();
        Arc::new(FileMetaData::new(
            number,
            size,
            InternalKey::from_encoded(smallest),
            InternalKey::from_encoded(largest),
        ))
    }

    /// A level cursor over level 1 of a version holding `files` there.
    fn run_cursor(
        env: &Arc<dyn Env>,
        db: PathBuf,
        files: Vec<Arc<FileMetaData>>,
    ) -> LevelCursor<Version> {
        let version = Arc::new(Version {
            files: vec![FileRuns::default(), FileRuns(files)],
        });
        let cache = TableCache::new(Arc::clone(env), db, StoreOptions::default(), 16);
        LevelCursor::new(Arc::new(cache), version, 1)
    }

    #[test]
    fn level_cursor_walks_a_run_of_files_lazily() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/concat");
        env.create_dir_all(&db).unwrap();
        let options = StoreOptions::default();
        let files = vec![
            build_file(&env, &db, &options, 1, &["a", "b"]),
            build_file(&env, &db, &options, 2, &["f", "g"]),
            build_file(&env, &db, &options, 3, &["m", "n"]),
        ];
        let mut iter = run_cursor(&env, db, files);

        iter.seek_to_first();
        let mut seen = Vec::new();
        while iter.valid() {
            seen.push(extract_user_key(iter.key()).to_vec());
            iter.next();
        }
        assert_eq!(
            seen,
            vec![
                b"a".to_vec(),
                b"b".to_vec(),
                b"f".to_vec(),
                b"g".to_vec(),
                b"m".to_vec(),
                b"n".to_vec()
            ]
        );

        // Seek lands on the right file.
        iter.seek(&encode_internal_key(b"c", u64::MAX >> 8, ValueType::Value));
        assert!(iter.valid());
        assert_eq!(extract_user_key(iter.key()), b"f");
        // ...and `next` crosses the file boundary after it.
        iter.next();
        iter.next();
        assert_eq!(extract_user_key(iter.key()), b"m");

        // Seeking past the end invalidates the iterator.
        iter.seek(&encode_internal_key(
            b"zzz",
            u64::MAX >> 8,
            ValueType::Value,
        ));
        assert!(!iter.valid());
    }

    #[test]
    fn empty_level_yields_nothing() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let mut iter = run_cursor(&env, PathBuf::from("/x"), Vec::new());
        iter.seek_to_first();
        assert!(!iter.valid());
        iter.seek(&encode_internal_key(b"a", 1, ValueType::Value));
        assert!(!iter.valid());
    }
}
