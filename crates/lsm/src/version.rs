//! The leveled level type, [`FileRuns`]: a level of the chassis's
//! [`Version`](pebblesdb_engine::Version) as one sorted run of disjoint
//! sstables, each its own slot — LevelDB's layout, the FLSM with one
//! implicit guard per level. Also the compaction score its policy picks by.

use std::sync::Arc;

use pebblesdb_common::key::compare_internal_keys;
use pebblesdb_common::{Error, Result, StoreOptions};
use pebblesdb_engine::{LevelRow, RunSource};

pub use pebblesdb_engine::meta::{FileMetaData, FileMetaDataEdit};

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

/// The files of one level from 1 down: a leveled run, sorted by smallest
/// key, which the chassis reads with every file its own slot and — the
/// files being disjoint — no slot clipped.
#[derive(Debug, Clone, Default)]
pub struct FileRuns(pub Vec<Arc<FileMetaData>>);

impl FileRuns {
    /// The files whose user-key range overlaps `[begin, end]`: a contiguous
    /// slice of the sorted, disjoint run. Compaction asks this of the level
    /// below its inputs and of its input level when it claims (level 0 is
    /// always compacted whole).
    pub fn overlapping_inputs(&self, begin: &[u8], end: &[u8]) -> &[Arc<FileMetaData>] {
        let first = self.0.partition_point(|f| f.largest.user_key() < begin);
        let past = self.0.partition_point(|f| f.smallest.user_key() <= end);
        &self.0[first..past.max(first)]
    }

    /// The first two adjacent files that are not disjoint by internal key.
    fn overlap(&self) -> Option<(u64, u64)> {
        let ordered = |a: &FileMetaData, b: &FileMetaData| {
            compare_internal_keys(a.largest.encoded(), b.smallest.encoded()).is_lt()
        };
        let mut pairs = self.0.windows(2);
        let pair = pairs.find(|pair| !ordered(&pair[0], &pair[1]))?;
        Some((pair[0].number, pair[1].number))
    }
}

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

    /// The run without the files numbered `gone` and with `added`, sorted.
    /// Reads binary-search the run, so an edit that makes two of its files
    /// overlap would hide keys rather than fail: it is `Corruption`, and so
    /// is a guard record.
    fn apply(&self, gone: &[u64], added: &[Arc<FileMetaData>], guards: &[&[u8]]) -> Result<Self> {
        if !guards.is_empty() {
            return Err(Error::corruption(
                "guard record (tag 7) in the MANIFEST of a leveled store",
            ));
        }
        let kept = self.0.iter().filter(|f| !gone.contains(&f.number));
        let mut files: Vec<_> = kept.chain(added).cloned().collect();
        files.sort_by(|a, b| compare_internal_keys(a.smallest.encoded(), b.smallest.encoded()));
        let run = FileRuns(files);
        match run.overlap() {
            Some((a, b)) => Err(Error::corruption(format!("files {a} and {b} overlap"))),
            None => Ok(run),
        }
    }

    /// The run is sorted and its files are disjoint by internal key.
    fn validate(&self, level: usize, _deeper: Option<&Self>) -> std::result::Result<(), String> {
        match self.overlap() {
            Some((a, b)) => Err(format!("L{level}: files {a} and {b} overlap")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::filename::table_file_name;
    use pebblesdb_common::iterator::DbIterator;
    use pebblesdb_common::key::{encode_internal_key, extract_user_key, InternalKey, ValueType};
    use pebblesdb_common::NUM_LEVELS;
    use pebblesdb_engine::{LevelCursor, LevelTable, Version, VersionEdit};
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
        let version = Version::<FileRuns>::empty(7)
            .apply(&edit)
            .and_then(|v| v.apply(&second))
            .unwrap();
        assert_eq!(version.level0().len(), 1);
        assert_eq!(version.run(1).0.len(), 1);
        assert_eq!(version.run(1).0[0].number, 11);
        assert_eq!(version.run(2).0.len(), 1);
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
        let version = Version::<FileRuns>::empty(7).apply(&edit).unwrap();
        let file = Arc::clone(&version.run(1).0[0]);

        let mut moved = VersionEdit::default();
        moved.delete_file(1, 10);
        moved.add_file(2, &file);
        let next = version.apply(&moved).unwrap();
        assert!(next.run(1).0.is_empty());
        assert!(Arc::ptr_eq(&next.run(2).0[0], &file));

        let mut changed = VersionEdit::default();
        changed.delete_file(1, 10);
        changed.new_files.push((2, meta(10, "a", "d")));
        let next = version.apply(&changed).unwrap();
        assert!(!Arc::ptr_eq(&next.run(2).0[0], &file));
    }

    #[test]
    fn overlapping_inputs_are_the_files_a_range_touches() {
        let mut edit = VersionEdit::default();
        edit.new_files.push((1, meta(1, "a", "f")));
        edit.new_files.push((1, meta(2, "g", "k")));
        edit.new_files.push((1, meta(3, "x", "z")));
        let version = Version::<FileRuns>::empty(7).apply(&edit).unwrap();
        let numbers = |begin: &[u8], end: &[u8]| -> Vec<u64> {
            let inputs = version.run(1).overlapping_inputs(begin, end);
            inputs.iter().map(|f| f.number).collect()
        };
        // Bounds are inclusive on both sides.
        assert_eq!(numbers(b"f", b"g"), [1, 2]);
        assert_eq!(numbers(b"b", b"c"), [1]);
        assert_eq!(numbers(b"l", b"w"), [0u64; 0]);
        assert_eq!(numbers(b"a", b"z"), [1, 2, 3]);
        assert!(version.run(2).overlapping_inputs(b"a", b"z").is_empty());
    }

    #[test]
    fn compaction_scores_trigger_on_level0_count_and_level_bytes() {
        let mut opts = StoreOptions::default();
        opts.level0_compaction_trigger = 2;
        opts.base_level_bytes = 1500;
        let version = Version::<FileRuns>::empty(NUM_LEVELS);
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
        assert!(Version::<FileRuns>::empty(7).apply(&edit).is_ok());
        let mut edit = VersionEdit::default();
        edit.new_files.push((1, meta(1, "a", "m")));
        edit.new_files.push((1, meta(2, "c", "z")));
        assert!(matches!(
            Version::<FileRuns>::empty(7).apply(&edit),
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
    ) -> LevelCursor<FileRuns> {
        let mut edit = VersionEdit::default();
        for file in &files {
            edit.add_file(1, file);
        }
        let version = Arc::new(Version::<FileRuns>::empty(2).apply(&edit).unwrap());
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
