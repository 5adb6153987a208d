//! Range-query iterators over guard-organised levels.
//!
//! The paper (section 3.4): "in FLSM, the level iterators are themselves
//! implemented by merging iterators on the sstables inside the guard of
//! interest". [`GuardLevelIterator`] does exactly that — it walks a level's
//! guards in key order, and within the current guard merges its (possibly
//! overlapping) sstables; sstables are only opened when the cursor reaches
//! their guard.

use std::sync::Arc;

use pebblesdb_common::iterator::{DbIterator, MergingIterator};
use pebblesdb_common::key::extract_user_key;
use pebblesdb_common::{ReadOptions, Result};
use pebblesdb_sstable::TableCache;

use crate::guards::GuardMeta;
use crate::version::FlsmVersion;

/// A lazy iterator over one guard-organised FLSM level.
///
/// The iterator borrows the level's guards from the version it pins, so
/// building one costs the same whatever the number of guards.
pub struct GuardLevelIterator {
    table_cache: Arc<TableCache>,
    read_options: ReadOptions,
    /// The pinned version; the guards of `version.levels[level]` are read in
    /// place.
    version: Arc<FlsmVersion>,
    level: usize,
    /// Index of the guard the cursor is in; `guards.len()` = unpositioned.
    index: usize,
    current: Option<MergingIterator>,
    /// First error hit while opening a guard; ends iteration.
    error: Option<pebblesdb_common::Error>,
    /// Threads used to pre-position a guard's sstables on `seek` (the
    /// paper's "parallel seeks"); `<= 1` disables the optimisation.
    parallel_seek_threads: usize,
}

/// The guard-key bounds `[lower, upper)` of guard `index`.
///
/// Files written before a guard was committed may span several guards
/// (they are attached to each guard they overlap); bounding iteration to
/// the guard's own key range ensures every entry is emitted exactly once
/// and in global key order.
fn guard_bounds(guards: &[GuardMeta], index: usize) -> (Option<&[u8]>, Option<&[u8]>) {
    // The sentinel's empty key is "no lower bound".
    let lower = guards
        .get(index)
        .filter(|g| !g.is_sentinel())
        .map(|g| g.key.as_slice());
    let upper = guards.get(index + 1).map(|g| g.key.as_slice());
    (lower, upper)
}

impl GuardLevelIterator {
    /// Creates an iterator over the guards of `version.levels[level]`.
    pub fn new(
        table_cache: Arc<TableCache>,
        read_options: ReadOptions,
        version: Arc<FlsmVersion>,
        level: usize,
    ) -> Self {
        let index = version.levels[level].guards().len();
        GuardLevelIterator {
            table_cache,
            read_options,
            version,
            level,
            index,
            current: None,
            error: None,
            parallel_seek_threads: 1,
        }
    }

    /// The level's guards. Methods that move the cursor spell this out on
    /// the `version` field instead, keeping the borrow off `current`.
    fn guards(&self) -> &[GuardMeta] {
        self.version.levels[self.level].guards()
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

    /// Enables parallel positioning of a guard's sstables on `seek`.
    ///
    /// Section 4.2 of the paper: a seek into a guard must position an
    /// iterator in *every* sstable of the guard; doing so with a thread pool
    /// hides the per-sstable IO latency on the coldest (deepest) level.
    pub fn with_parallel_seeks(mut self, threads: usize) -> Self {
        self.parallel_seek_threads = threads.max(1);
        self
    }

    /// Warms the guard's sstables for `target` with a thread pool, so the
    /// serial merged seek that follows hits cache.
    fn parallel_warm_guard(&self, index: usize, target: &[u8]) {
        if self.parallel_seek_threads <= 1 {
            return;
        }
        let Some(guard) = self.guards().get(index) else {
            return;
        };
        if guard.files.len() <= 1 {
            return;
        }
        let chunk_size = guard
            .files
            .len()
            .div_ceil(self.parallel_seek_threads)
            .max(1);
        // Capture only the Sync pieces; `self` also holds the (non-Sync)
        // current merging iterator.
        let table_cache = &self.table_cache;
        let read_options = &self.read_options;
        std::thread::scope(|scope| {
            for chunk in guard.files.chunks(chunk_size) {
                scope.spawn(move || {
                    for file in chunk {
                        if let Ok(mut iter) =
                            table_cache.iter(read_options, file.number, file.file_size)
                        {
                            iter.seek(target);
                        }
                    }
                });
            }
        });
    }

    fn open_guard(&mut self, index: usize) -> Result<()> {
        self.index = index;
        let files = match self.version.levels[self.level].guards().get(index) {
            Some(guard) if !guard.files.is_empty() => &guard.files,
            _ => {
                self.current = None;
                return Ok(());
            }
        };
        let mut children: Vec<Box<dyn DbIterator>> = Vec::with_capacity(files.len());
        for file in files {
            children.push(Box::new(self.table_cache.iter(
                &self.read_options,
                file.number,
                file.file_size,
            )?));
        }
        self.current = Some(MergingIterator::new(children));
        Ok(())
    }

    /// Returns `true` if the current entry lies inside the current guard's
    /// key range.
    fn current_entry_in_bounds(&self) -> bool {
        let Some(iter) = self.current.as_ref() else {
            return false;
        };
        if !iter.valid() {
            return false;
        }
        let user_key = extract_user_key(iter.key());
        let (lower, upper) = guard_bounds(self.guards(), self.index);
        lower.is_none_or(|lower| user_key >= lower) && upper.is_none_or(|upper| user_key < upper)
    }

    /// Skips forward over entries below the guard's lower bound (they belong
    /// to an earlier guard and were emitted there).
    fn skip_below_lower_bound(&mut self) {
        let guards = self.version.levels[self.level].guards();
        let Some(lower) = guard_bounds(guards, self.index).0 else {
            return;
        };
        while let Some(iter) = self.current.as_mut() {
            if !iter.valid() || extract_user_key(iter.key()) >= lower {
                break;
            }
            iter.next();
        }
    }

    fn advance_to_valid_forward(&mut self) {
        loop {
            if self.current_entry_in_bounds() {
                return;
            }
            // Either the guard is exhausted or the next entry spills past the
            // guard's upper bound; move on to the following guard.
            let guard_count = self.guards().len();
            if self.index >= guard_count {
                return;
            }
            let next = self.index + 1;
            if next >= guard_count {
                self.current = None;
                self.index = guard_count;
                return;
            }
            let result = self.open_guard(next);
            if !self.record_open_error(result) {
                return;
            }
            if let Some(iter) = self.current.as_mut() {
                iter.seek_to_first();
            }
            self.skip_below_lower_bound();
        }
    }

    fn retreat_to_valid_backward(&mut self) {
        loop {
            if self.current_entry_in_bounds() {
                return;
            }
            // If the current entry is merely above the upper bound, walk
            // backwards within the same guard first.
            let guards = self.version.levels[self.level].guards();
            if let (Some(iter), Some(upper)) =
                (self.current.as_mut(), guard_bounds(guards, self.index).1)
            {
                if iter.valid() && extract_user_key(iter.key()) >= upper {
                    iter.prev();
                    continue;
                }
            }
            if self.index == 0 {
                self.current = None;
                return;
            }
            let prev = self.index.min(guards.len()) - 1;
            let result = self.open_guard(prev);
            if !self.record_open_error(result) {
                return;
            }
            if let Some(iter) = self.current.as_mut() {
                iter.seek_to_last();
            }
        }
    }
}

impl DbIterator for GuardLevelIterator {
    fn valid(&self) -> bool {
        self.current.as_ref().map(|it| it.valid()).unwrap_or(false)
    }

    fn seek_to_first(&mut self) {
        if self.guards().is_empty() {
            self.current = None;
            return;
        }
        let result = self.open_guard(0);
        if !self.record_open_error(result) {
            return;
        }
        if let Some(iter) = self.current.as_mut() {
            iter.seek_to_first();
        }
        self.advance_to_valid_forward();
    }

    fn seek_to_last(&mut self) {
        if self.guards().is_empty() {
            self.current = None;
            return;
        }
        let last = self.guards().len() - 1;
        let result = self.open_guard(last);
        if !self.record_open_error(result) {
            return;
        }
        if let Some(iter) = self.current.as_mut() {
            iter.seek_to_last();
        }
        self.index = last;
        self.retreat_to_valid_backward();
    }

    fn seek(&mut self, target: &[u8]) {
        if self.guards().is_empty() {
            self.current = None;
            return;
        }
        let index = self.version.levels[self.level].guard_index_for(extract_user_key(target));
        self.parallel_warm_guard(index, target);
        let result = self.open_guard(index);
        if !self.record_open_error(result) {
            return;
        }
        if let Some(iter) = self.current.as_mut() {
            iter.seek(target);
        }
        self.advance_to_valid_forward();
    }

    fn next(&mut self) {
        if let Some(iter) = self.current.as_mut() {
            iter.next();
        }
        self.advance_to_valid_forward();
    }

    fn prev(&mut self) {
        if let Some(iter) = self.current.as_mut() {
            iter.prev();
        }
        self.retreat_to_valid_backward();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::FlsmLevel;
    use pebblesdb_common::filename::table_file_name;
    use pebblesdb_common::key::{
        compare_internal_keys, encode_internal_key, InternalKey, ValueType,
    };
    use pebblesdb_common::StoreOptions;
    use pebblesdb_engine::{FileMetaData, VersionEdit, VersionShape};
    use pebblesdb_env::{Env, MemEnv};
    use pebblesdb_sstable::TableBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::path::{Path, PathBuf};

    fn build_file(
        env: &Arc<dyn Env>,
        db: &Path,
        options: &StoreOptions,
        number: u64,
        keys: &[(&str, u64)],
    ) -> Arc<FileMetaData> {
        let file = env.new_writable_file(&table_file_name(db, number)).unwrap();
        let mut builder = TableBuilder::new(options, file);
        let mut encoded: Vec<Vec<u8>> = keys
            .iter()
            .map(|(k, seq)| encode_internal_key(k.as_bytes(), *seq, ValueType::Value))
            .collect();
        encoded.sort_by(|a, b| compare_internal_keys(a, b));
        for key in &encoded {
            builder.add(key, format!("v{number}").as_bytes()).unwrap();
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

    fn setup() -> (Arc<TableCache>, Vec<GuardMeta>) {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/guard-iter");
        env.create_dir_all(&db).unwrap();
        let options = StoreOptions::default();

        // Sentinel guard: overlapping files covering a..e.
        let f1 = build_file(&env, &db, &options, 1, &[("a", 5), ("c", 5)]);
        let f2 = build_file(&env, &db, &options, 2, &[("b", 6), ("c", 6)]);
        // Guard "m": one file.
        let f3 = build_file(&env, &db, &options, 3, &[("m", 2), ("p", 2)]);
        // Guard "t": empty.

        let mut sentinel = GuardMeta::new(Vec::new());
        sentinel.files = vec![f2, f1];
        let mut guard_m = GuardMeta::new(b"m".to_vec());
        guard_m.files = vec![f3];
        let guard_t = GuardMeta::new(b"t".to_vec());

        let cache = Arc::new(TableCache::new(Arc::clone(&env), db, options, 16));
        (cache, vec![sentinel, guard_m, guard_t])
    }

    /// An iterator over level 1 of a version whose level 1 holds `guards`.
    fn level_iter(cache: Arc<TableCache>, guards: Vec<GuardMeta>) -> GuardLevelIterator {
        let mut version = FlsmVersion::empty(2);
        version.levels[1] = FlsmLevel::new(guards);
        GuardLevelIterator::new(cache, ReadOptions::default(), Arc::new(version), 1)
    }

    fn user_keys_forward(iter: &mut GuardLevelIterator) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        iter.seek_to_first();
        while iter.valid() {
            out.push((extract_user_key(iter.key()).to_vec(), iter.value().to_vec()));
            iter.next();
        }
        out
    }

    #[test]
    fn iterates_across_guards_and_merges_within_a_guard() {
        let (cache, guards) = setup();
        let mut iter = level_iter(cache, guards);
        let entries = user_keys_forward(&mut iter);
        let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
        // "c" appears in both sentinel files (seq 6 newer than seq 5).
        assert_eq!(
            keys,
            vec![
                b"a".to_vec(),
                b"b".to_vec(),
                b"c".to_vec(),
                b"c".to_vec(),
                b"m".to_vec(),
                b"p".to_vec()
            ]
        );
        // The newer "c" (from file 2) comes first.
        assert_eq!(entries[2].1, b"v2".to_vec());
        assert_eq!(entries[3].1, b"v1".to_vec());
    }

    #[test]
    fn seek_lands_in_the_owning_guard() {
        let (cache, guards) = setup();
        let mut iter = level_iter(cache, guards);
        iter.seek(&encode_internal_key(b"n", u64::MAX >> 8, ValueType::Value));
        assert!(iter.valid());
        assert_eq!(extract_user_key(iter.key()), b"p");

        // Seeking into the empty trailing guard yields nothing.
        iter.seek(&encode_internal_key(b"u", u64::MAX >> 8, ValueType::Value));
        assert!(!iter.valid());

        // Seeking before everything starts at the first key.
        iter.seek(&encode_internal_key(b"", u64::MAX >> 8, ValueType::Value));
        assert!(iter.valid());
        assert_eq!(extract_user_key(iter.key()), b"a");
    }

    #[test]
    fn empty_guard_in_the_middle_is_skipped() {
        let (cache, mut guards) = setup();
        // Clear guard "m" so the level is sentinel + empty + empty.
        guards[1].files.clear();
        let mut iter = level_iter(cache, guards);
        let entries = user_keys_forward(&mut iter);
        assert_eq!(entries.len(), 4);
        assert_eq!(entries.last().unwrap().0, b"c".to_vec());
    }

    #[test]
    fn reverse_iteration_walks_back_through_guards() {
        let (cache, guards) = setup();
        let mut iter = level_iter(cache, guards);
        iter.seek_to_last();
        assert!(iter.valid());
        assert_eq!(extract_user_key(iter.key()), b"p");
        iter.prev();
        assert_eq!(extract_user_key(iter.key()), b"m");
        iter.prev();
        // Crosses back into the sentinel guard.
        assert_eq!(extract_user_key(iter.key()), b"c");
    }

    /// Differential test against a flat sorted oracle: random guard sets
    /// (empty guards included), files that span several guards and overlap
    /// inside a guard, user keys repeated at different sequences; random
    /// cursor programs must see every entry exactly once, in global
    /// internal-key order, in both directions.
    #[test]
    fn random_guard_levels_match_a_flat_sorted_oracle() {
        const KEYS: u32 = 120;
        let user_key = |k: u32| format!("k{k:03}");
        let mut max_span = 0;
        for seed in 0..150u64 {
            let mut rng = StdRng::seed_from_u64(0x6a4d_0000 + seed);
            let env: Arc<dyn Env> = Arc::new(MemEnv::new());
            let db = PathBuf::from("/guard-diff");
            env.create_dir_all(&db).unwrap();
            let options = StoreOptions::default();

            // The version is built by `apply`, which attaches each file to
            // every guard its key range overlaps.
            let mut edit = VersionEdit::default();
            for _ in 0..rng.gen_range(0..12) {
                let key = user_key(rng.gen_range(0..KEYS));
                edit.new_guards.push((1, key.into_bytes()));
            }
            let mut oracle: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            let mut sequence = 1u64;
            for number in 1..=rng.gen_range(1..9u64) {
                // Narrow files sit inside a guard; wide ones span several.
                let width = if rng.gen_bool(0.5) { 8 } else { 70 };
                let low = rng.gen_range(0..KEYS);
                let entries: Vec<(String, u64)> = (0..rng.gen_range(1..14))
                    .map(|_| {
                        sequence += 1;
                        let key = (low + rng.gen_range(0..width)).min(KEYS - 1);
                        (user_key(key), sequence)
                    })
                    .collect();
                let borrowed: Vec<(&str, u64)> =
                    entries.iter().map(|(k, s)| (k.as_str(), *s)).collect();
                let file = build_file(&env, &db, &options, number, &borrowed);
                edit.add_file(1, &file);
                for (key, seq) in &entries {
                    oracle.push((
                        encode_internal_key(key.as_bytes(), *seq, ValueType::Value),
                        format!("v{number}").into_bytes(),
                    ));
                }
            }
            oracle.sort_by(|a, b| compare_internal_keys(&a.0, &b.0));
            let version = Arc::new(FlsmVersion::empty(2).apply(&edit).unwrap());
            version.validate().unwrap();
            let level = &version.levels[1];
            for file in level.unique_files() {
                let span = level.guard_index_for(file.largest.user_key())
                    - level.guard_index_for(file.smallest.user_key());
                max_span = max_span.max(span + 1);
            }

            let cache = Arc::new(TableCache::new(Arc::clone(&env), db, options, 16));
            let mut iter = GuardLevelIterator::new(cache, ReadOptions::default(), version, 1);
            // `position` is the oracle's cursor: an index, or `None` for
            // "not valid".
            let mut position: Option<usize> = None;
            for step in 0..80 {
                match rng.gen_range(0..6) {
                    0 => {
                        iter.seek_to_first();
                        position = Some(0);
                    }
                    1 => {
                        iter.seek_to_last();
                        position = Some(oracle.len() - 1);
                    }
                    2 => {
                        let key = user_key(rng.gen_range(0..KEYS));
                        let seq = if rng.gen_bool(0.5) {
                            u64::MAX >> 8
                        } else {
                            rng.gen_range(0..sequence + 2)
                        };
                        let target = encode_internal_key(key.as_bytes(), seq, ValueType::Value);
                        iter.seek(&target);
                        let at = oracle.partition_point(|(k, _)| {
                            compare_internal_keys(k, &target) == std::cmp::Ordering::Less
                        });
                        position = (at < oracle.len()).then_some(at);
                    }
                    3 | 4 => {
                        let Some(at) = position else { continue };
                        iter.next();
                        position = (at + 1 < oracle.len()).then_some(at + 1);
                    }
                    _ => {
                        let Some(at) = position else { continue };
                        iter.prev();
                        position = at.checked_sub(1);
                    }
                }
                iter.status().unwrap();
                assert_eq!(
                    iter.valid(),
                    position.is_some(),
                    "seed {seed} step {step}: validity"
                );
                if let Some(at) = position {
                    let found = (iter.key(), iter.value());
                    let expected = (oracle[at].0.as_slice(), oracle[at].1.as_slice());
                    assert_eq!(found, expected, "seed {seed} step {step}");
                }
            }
            // A full forward walk emits each entry exactly once.
            iter.seek_to_first();
            for (key, value) in &oracle {
                assert!(iter.valid(), "seed {seed}: walk ended early");
                assert_eq!(
                    (iter.key(), iter.value()),
                    (key.as_slice(), value.as_slice())
                );
                iter.next();
            }
            assert!(!iter.valid(), "seed {seed}: an entry was emitted twice");
        }
        assert!(max_span >= 4, "the generator must produce spanning files");
    }
}
