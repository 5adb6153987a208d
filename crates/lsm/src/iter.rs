//! Lazy iterators over the files of one level.
//!
//! Levels 1 and deeper hold files with disjoint key ranges, so a range query
//! only ever needs one file open at a time; [`LevelConcatIterator`] walks the
//! sorted file list and opens tables lazily through the table cache.

use std::sync::Arc;

use pebblesdb_common::iterator::DbIterator;
use pebblesdb_common::key::{compare_internal_keys, extract_user_key};
use pebblesdb_common::{ReadOptions, Result};
use pebblesdb_sstable::table::TableIterator;
use pebblesdb_sstable::TableCache;

use crate::version::{FileMetaData, Version};

/// Iterates over a sorted run of non-overlapping files, opening each sstable
/// only when the cursor reaches it.
///
/// The run is `version.files[level]`, read in place from the version the
/// iterator pins.
pub struct LevelConcatIterator {
    table_cache: Arc<TableCache>,
    read_options: ReadOptions,
    version: Arc<Version>,
    level: usize,
    /// Index of the file the cursor is in; `files.len()` means unpositioned.
    index: usize,
    current: Option<TableIterator>,
    /// First error hit while opening a file; ends iteration.
    error: Option<pebblesdb_common::Error>,
}

impl LevelConcatIterator {
    /// Creates an iterator over `version.files[level]`, which must be sorted
    /// by smallest key and non-overlapping (any level but 0).
    pub fn new(
        table_cache: Arc<TableCache>,
        read_options: ReadOptions,
        version: Arc<Version>,
        level: usize,
    ) -> Self {
        let index = version.files[level].len();
        LevelConcatIterator {
            table_cache,
            read_options,
            version,
            level,
            index,
            current: None,
            error: None,
        }
    }

    fn files(&self) -> &[Arc<FileMetaData>] {
        &self.version.files[self.level]
    }

    fn record_open_error(&mut self, result: Result<()>) -> bool {
        match result {
            Ok(()) => true,
            Err(err) => {
                self.error = Some(err);
                self.current = None;
                false
            }
        }
    }

    fn open_file(&mut self, index: usize) -> Result<()> {
        self.index = index;
        let Some(file) = self.version.files[self.level].get(index) else {
            self.current = None;
            return Ok(());
        };
        self.current = Some(self.table_cache.iter(
            &self.read_options,
            file.number,
            file.file_size,
        )?);
        Ok(())
    }

    fn skip_forward_while_invalid(&mut self) {
        while self.current.as_ref().map(|it| !it.valid()).unwrap_or(false) {
            let next = self.index + 1;
            if next >= self.files().len() {
                self.current = None;
                return;
            }
            let result = self.open_file(next);
            if !self.record_open_error(result) {
                return;
            }
            if let Some(iter) = self.current.as_mut() {
                iter.seek_to_first();
            }
        }
    }

    fn skip_backward_while_invalid(&mut self) {
        while self.current.as_ref().map(|it| !it.valid()).unwrap_or(false) {
            if self.index == 0 {
                self.current = None;
                return;
            }
            let result = self.open_file(self.index - 1);
            if !self.record_open_error(result) {
                return;
            }
            if let Some(iter) = self.current.as_mut() {
                iter.seek_to_last();
            }
        }
    }
}

impl DbIterator for LevelConcatIterator {
    fn valid(&self) -> bool {
        self.current.as_ref().map(|it| it.valid()).unwrap_or(false)
    }

    fn seek_to_first(&mut self) {
        if self.files().is_empty() {
            self.current = None;
            return;
        }
        let result = self.open_file(0);
        if !self.record_open_error(result) {
            return;
        }
        if let Some(iter) = self.current.as_mut() {
            iter.seek_to_first();
        }
        self.skip_forward_while_invalid();
    }

    fn seek_to_last(&mut self) {
        if self.files().is_empty() {
            self.current = None;
            return;
        }
        let last = self.files().len() - 1;
        let result = self.open_file(last);
        if !self.record_open_error(result) {
            return;
        }
        if let Some(iter) = self.current.as_mut() {
            iter.seek_to_last();
        }
        self.skip_backward_while_invalid();
    }

    fn seek(&mut self, target: &[u8]) {
        // Find the first file whose largest key is >= target.
        let index = self.files().partition_point(|f| {
            compare_internal_keys(f.largest.encoded(), target) == std::cmp::Ordering::Less
        });
        if index >= self.files().len() {
            self.current = None;
            self.index = self.files().len();
            return;
        }
        let result = self.open_file(index);
        if !self.record_open_error(result) {
            return;
        }
        if let Some(iter) = self.current.as_mut() {
            iter.seek(target);
        }
        self.skip_forward_while_invalid();
    }

    fn next(&mut self) {
        if let Some(iter) = self.current.as_mut() {
            iter.next();
        }
        self.skip_forward_while_invalid();
    }

    fn prev(&mut self) {
        if let Some(iter) = self.current.as_mut() {
            iter.prev();
        }
        self.skip_backward_while_invalid();
    }

    fn key(&self) -> &[u8] {
        self.current.as_ref().expect("iterator not valid").key()
    }

    fn value(&self) -> &[u8] {
        self.current.as_ref().expect("iterator not valid").value()
    }

    fn status(&self) -> Result<()> {
        if let Some(err) = &self.error {
            return Err(err.clone());
        }
        match &self.current {
            Some(iter) => iter.status(),
            None => Ok(()),
        }
    }
}

/// Returns the user key of the iterator's current entry (test helper).
pub fn current_user_key(iter: &dyn DbIterator) -> Vec<u8> {
    extract_user_key(iter.key()).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::filename::table_file_name;
    use pebblesdb_common::key::{encode_internal_key, InternalKey, ValueType};
    use pebblesdb_common::StoreOptions;
    use pebblesdb_env::{Env, MemEnv};
    use pebblesdb_sstable::TableBuilder;
    use std::path::{Path, PathBuf};

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

    #[test]
    fn concatenating_iterator_walks_files_lazily() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/concat");
        env.create_dir_all(&db).unwrap();
        let options = StoreOptions::default();
        let files = vec![
            build_file(&env, &db, &options, 1, &["a", "b"]),
            build_file(&env, &db, &options, 2, &["f", "g"]),
            build_file(&env, &db, &options, 3, &["m", "n"]),
        ];
        let version = Arc::new(Version {
            files: vec![Vec::new(), files],
        });
        let cache = Arc::new(TableCache::new(Arc::clone(&env), db, options.clone(), 16));
        let mut iter =
            LevelConcatIterator::new(Arc::clone(&cache), ReadOptions::default(), version, 1);

        iter.seek_to_first();
        let mut seen = Vec::new();
        while iter.valid() {
            seen.push(current_user_key(&iter));
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
        assert_eq!(current_user_key(&iter), b"f".to_vec());

        // Reverse iteration crosses file boundaries too.
        iter.seek_to_last();
        assert_eq!(current_user_key(&iter), b"n".to_vec());
        iter.prev();
        assert_eq!(current_user_key(&iter), b"m".to_vec());
        iter.prev();
        assert_eq!(current_user_key(&iter), b"g".to_vec());

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
        let cache = Arc::new(TableCache::new(
            Arc::clone(&env),
            PathBuf::from("/x"),
            StoreOptions::default(),
            4,
        ));
        let version = Arc::new(Version {
            files: vec![Vec::new(), Vec::new()],
        });
        let mut iter = LevelConcatIterator::new(cache, ReadOptions::default(), version, 1);
        iter.seek_to_first();
        assert!(!iter.valid());
        iter.seek(&encode_internal_key(b"a", 1, ValueType::Value));
        assert!(!iter.valid());
    }
}
