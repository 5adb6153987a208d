//! The chassis's point `get` and level cursor ([`pebblesdb_engine::runs`])
//! over guard-organised levels, whose files overlap, span guards and hold
//! tombstones, against the same entries as a leveled run.

#[cfg(test)]
mod tests {
    use crate::guards::GuardMeta;
    use crate::version::FlsmLevel;
    use pebblesdb_common::filename::table_file_name;
    use pebblesdb_common::iterator::DbIterator;
    use pebblesdb_common::key::{
        compare_internal_keys, encode_internal_key, extract_user_key, parse_internal_key,
        InternalKey, LookupKey, ValueType,
    };
    use pebblesdb_common::vlog::LookupValue;
    use pebblesdb_common::StoreOptions;
    use pebblesdb_engine::{runs, FileMetaData, LevelCursor, RunSource, Version, VersionEdit};
    use pebblesdb_env::{Env, MemEnv};
    use pebblesdb_lsm::FileRuns;
    use pebblesdb_sstable::{TableBuilder, TableCache};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    /// A cursor's entries, or an oracle's: `(internal key, value)`.
    type Entries = Vec<(Vec<u8>, Vec<u8>)>;

    /// Writes `entries` (sorted by internal key) as table `number`.
    fn build_table(
        env: &Arc<dyn Env>,
        db: &Path,
        options: &StoreOptions,
        number: u64,
        entries: &[(Vec<u8>, Vec<u8>)],
    ) -> Arc<FileMetaData> {
        let file = env.new_writable_file(&table_file_name(db, number)).unwrap();
        let mut builder = TableBuilder::new(options, file);
        for (key, value) in entries {
            builder.add(key, value).unwrap();
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

    /// Table `number` holding `keys` (any order), every value `v<number>`;
    /// an odd sequence number is a put, an even one a tombstone.
    fn build_file(
        env: &Arc<dyn Env>,
        db: &Path,
        options: &StoreOptions,
        number: u64,
        keys: &[(&str, u64)],
    ) -> Arc<FileMetaData> {
        let mut entries: Entries = keys
            .iter()
            .map(|(k, seq)| (entry_key(k, *seq), format!("v{number}").into_bytes()))
            .collect();
        entries.sort_by(|a, b| compare_internal_keys(&a.0, &b.0));
        build_table(env, db, options, number, &entries)
    }

    fn entry_key(user_key: &str, sequence: u64) -> Vec<u8> {
        let value_type = if sequence % 2 == 1 {
            ValueType::Value
        } else {
            ValueType::Deletion
        };
        encode_internal_key(user_key.as_bytes(), sequence, value_type)
    }

    fn setup() -> (Arc<dyn Env>, Arc<TableCache>, Vec<GuardMeta>) {
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
        (env, cache, vec![sentinel, guard_m, guard_t])
    }

    /// A version whose level 1 holds `files` and the guard keys `keys`, as
    /// an edit builds it.
    fn level1<R: RunSource>(keys: &[&[u8]], files: &[Arc<FileMetaData>]) -> Arc<Version<R>> {
        let mut edit = VersionEdit::default();
        edit.new_guards = keys.iter().map(|key| (1, key.to_vec())).collect();
        for file in files {
            edit.add_file(1, file);
        }
        Arc::new(Version::empty(2).apply(&edit).unwrap())
    }

    /// A cursor over level 1 of a version whose level 1 holds `guards`.
    fn level_iter(cache: Arc<TableCache>, guards: Vec<GuardMeta>) -> LevelCursor<FlsmLevel> {
        let keys: Vec<&[u8]> = guards.iter().skip(1).map(|g| g.key.as_slice()).collect();
        let mut files: Vec<_> = guards.iter().flat_map(|g| g.files.clone()).collect();
        files.dedup_by_key(|f| f.number);
        let version = level1::<FlsmLevel>(&keys, &files);
        let numbers = |guards: &[GuardMeta]| -> Vec<Vec<u64>> {
            let numbers = |g: &GuardMeta| g.files.iter().map(|f| f.number).collect();
            guards.iter().map(numbers).collect()
        };
        assert_eq!(numbers(version.run(1).guards()), numbers(&guards));
        level1_cursor(&version, &cache)
    }

    /// A cursor over level 1 of `version`.
    fn level1_cursor<R: RunSource>(
        version: &Arc<Version<R>>,
        cache: &Arc<TableCache>,
    ) -> LevelCursor<R> {
        let version = Arc::clone(version);
        LevelCursor::new(Arc::clone(cache), version, 1)
    }

    fn user_keys_forward(iter: &mut impl DbIterator) -> Entries {
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
        let (_, cache, guards) = setup();
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
        let (_, cache, guards) = setup();
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
        let (_, cache, mut guards) = setup();
        // Clear guard "m" so the level is sentinel + empty + empty.
        guards[1].files.clear();
        let mut iter = level_iter(cache, guards);
        let entries = user_keys_forward(&mut iter);
        assert_eq!(entries.len(), 4);
        assert_eq!(entries.last().unwrap().0, b"c".to_vec());
    }

    /// A table that cannot be opened ends iteration with the error latched
    /// into `status()`, for a guard slot and for a file slot alike; the
    /// cursor never skips the slot silently.
    #[test]
    fn an_open_error_is_latched_into_status() {
        let (env, cache, guards) = setup();
        // Guard "m"'s only table disappears before the cursor reaches it.
        let files = vec![guards[0].files[1].clone(), guards[1].files[0].clone()];
        env.remove_file(&table_file_name(Path::new("/guard-iter"), 3))
            .unwrap();
        let version = level1::<FileRuns>(&[], &files);
        let file_shaped = level1_cursor(&version, &cache);
        let guard_shaped = level_iter(cache, guards);

        fn check(mut iter: impl DbIterator, reachable: usize) {
            iter.seek_to_first();
            for _ in 0..reachable {
                assert!(iter.valid());
                iter.status().unwrap();
                iter.next();
            }
            assert!(!iter.valid(), "the unreadable slot ended iteration");
            assert!(iter.status().is_err());
            iter.seek(&encode_internal_key(b"p", u64::MAX >> 8, ValueType::Value));
            assert!(!iter.valid());
            assert!(iter.status().is_err(), "the error stays latched");
        }
        check(file_shaped, 2); // file 1: a, c
        check(guard_shaped, 4); // sentinel: a, b, c, c
    }

    /// Drives `iter` through a random cursor program and then one full
    /// forward walk, checking every step entry-for-entry against `oracle`
    /// (sorted by internal key).
    fn check_against_oracle(
        iter: &mut impl DbIterator,
        oracle: &[(Vec<u8>, Vec<u8>)],
        rng: &mut StdRng,
        user_key: impl Fn(u32) -> String,
        (keys, max_sequence): (u32, u64),
        what: &str,
    ) {
        // `position` is the oracle's cursor: an index, or `None` for
        // "not valid".
        let mut position: Option<usize> = None;
        for step in 0..80 {
            match rng.gen_range(0..4) {
                0 => {
                    iter.seek_to_first();
                    position = Some(0);
                }
                1 => {
                    let key = user_key(rng.gen_range(0..keys));
                    let seq = if rng.gen_bool(0.5) {
                        u64::MAX >> 8
                    } else {
                        rng.gen_range(0..max_sequence + 2)
                    };
                    let target = encode_internal_key(key.as_bytes(), seq, ValueType::Value);
                    iter.seek(&target);
                    let at = oracle.partition_point(|(k, _)| {
                        compare_internal_keys(k, &target) == std::cmp::Ordering::Less
                    });
                    position = (at < oracle.len()).then_some(at);
                }
                _ => {
                    let Some(at) = position else { continue };
                    iter.next();
                    position = (at + 1 < oracle.len()).then_some(at + 1);
                }
            }
            iter.status().unwrap();
            assert_eq!(
                iter.valid(),
                position.is_some(),
                "{what} step {step}: validity"
            );
            if let Some(at) = position {
                let found = (iter.key(), iter.value());
                let expected = (oracle[at].0.as_slice(), oracle[at].1.as_slice());
                assert_eq!(found, expected, "{what} step {step}");
            }
        }
        // A full forward walk emits each entry exactly once.
        iter.seek_to_first();
        for (key, value) in oracle {
            assert!(iter.valid(), "{what}: walk ended early");
            assert_eq!(
                (iter.key(), iter.value()),
                (key.as_slice(), value.as_slice())
            );
            iter.next();
        }
        assert!(!iter.valid(), "{what}: an entry was emitted twice");
    }

    /// The chassis `get` of `key` at `snapshot` against the first entry a
    /// level cursor's `seek` lands on for the same lookup key. Returns which
    /// of present (0), deleted (1) and absent (2) both agreed on.
    fn check_get_against_seek<R: RunSource>(
        version: &Arc<Version<R>>,
        cache: &Arc<TableCache>,
        key: &str,
        snapshot: u64,
        what: &str,
    ) -> usize {
        let lookup = LookupKey::new(key.as_bytes(), snapshot);
        let mut cursor = level1_cursor(version, cache);
        cursor.seek(lookup.internal_key());
        let landed = cursor.valid() && extract_user_key(cursor.key()) == key.as_bytes();
        let expected = landed.then(|| {
            let value_type = parse_internal_key(cursor.key()).unwrap().value_type;
            (value_type == ValueType::Value).then(|| LookupValue::Inline(cursor.value().to_vec()))
        });
        let found = runs::get(&**version, cache, &lookup).unwrap();
        assert_eq!(
            found,
            expected.clone().flatten(),
            "{what}: {key}@{snapshot}"
        );
        match expected {
            Some(Some(_)) => 0,
            Some(None) => 1,
            None => 2,
        }
    }

    /// Differential test against a flat sorted oracle, over both ways a
    /// level is cut into slots. Guard-shaped: random guard sets (empty
    /// guards included), files that span several guards and overlap inside
    /// a guard — on odd seeds numbered against their recency, as concurrent
    /// jobs deliver them — user keys repeated at different sequences, puts
    /// and tombstones. File-shaped: the same entries cut into a sorted run
    /// of disjoint files at random points, so one user key's versions may
    /// straddle two files. Random cursor programs of seeks and `next`s must
    /// see every entry exactly once, in global internal-key order; and
    /// the chassis point `get` must agree with a cursor `seek` for present,
    /// deleted and absent keys at random snapshots.
    #[test]
    fn random_levels_of_both_shapes_match_a_flat_sorted_oracle() {
        random_levels_match_a_flat_sorted_oracle(16);
    }

    /// The same with one open reader allowed: every table a merge or a
    /// probe moves on from is swept while cursors still stand in it.
    #[test]
    fn random_levels_match_the_oracle_with_one_open_reader() {
        random_levels_match_a_flat_sorted_oracle(1);
    }

    fn random_levels_match_a_flat_sorted_oracle(max_open_files: usize) {
        const KEYS: u32 = 120;
        let user_key = |k: u32| format!("k{k:03}");
        let (mut max_span, mut empty_guards, mut straddled_keys) = (0, 0, 0);
        // Per shape: gets that found a value, a tombstone, nothing.
        let mut outcomes = [[0usize; 3]; 2];
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
            let mut oracle: Entries = Vec::new();
            let mut sequence = 1u64;
            let files = rng.gen_range(1..9u64);
            for number in 1..=files {
                let number = if seed % 2 == 1 {
                    files + 1 - number
                } else {
                    number
                };
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
                    oracle.push((entry_key(key, *seq), format!("v{number}").into_bytes()));
                }
            }
            oracle.sort_by(|a, b| compare_internal_keys(&a.0, &b.0));
            let version = Arc::new(Version::<FlsmLevel>::empty(2).apply(&edit).unwrap());
            version.validate().unwrap();
            let level = version.run(1);
            empty_guards += level.guards().iter().filter(|g| g.files.is_empty()).count();
            for file in runs::distinct_files(level) {
                let span = level.guard_index_for(file.largest.user_key())
                    - level.guard_index_for(file.smallest.user_key());
                max_span = max_span.max(span + 1);
            }

            // The same entries as a sorted run of disjoint files.
            let mut run = VersionEdit::default();
            let mut rest = oracle.as_slice();
            let mut number = 100;
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(9)));
                if let (Some(last), Some(next)) = (chunk.last(), tail.first()) {
                    straddled_keys +=
                        usize::from(extract_user_key(&last.0) == extract_user_key(&next.0));
                }
                run.add_file(1, &build_table(&env, &db, &options, number, chunk));
                number += 1;
                rest = tail;
            }
            let run = Arc::new(Version::<FileRuns>::empty(2).apply(&run).unwrap());

            let cache = TableCache::new(Arc::clone(&env), db, options, max_open_files);
            let cache = Arc::new(cache);
            let mut guard_shaped = level1_cursor(&version, &cache);
            let mut file_shaped = level1_cursor(&run, &cache);
            let limits = (KEYS, sequence);
            let what = format!("seed {seed}, guards");
            check_against_oracle(
                &mut guard_shaped,
                &oracle,
                &mut rng,
                user_key,
                limits,
                &what,
            );
            let what = format!("seed {seed}, files");
            check_against_oracle(&mut file_shaped, &oracle, &mut rng, user_key, limits, &what);

            for _ in 0..60 {
                let key = user_key(rng.gen_range(0..KEYS));
                let snapshot = if rng.gen_bool(0.3) {
                    u64::MAX >> 8
                } else {
                    rng.gen_range(0..sequence + 2)
                };
                let what = format!("seed {seed}");
                outcomes[0][check_get_against_seek(&version, &cache, &key, snapshot, &what)] += 1;
                outcomes[1][check_get_against_seek(&run, &cache, &key, snapshot, &what)] += 1;
            }
            assert!(cache.open_tables() <= max_open_files, "seed {seed}");
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "both shapes hold the same entries"
        );
        assert!(outcomes[0].iter().all(|n| *n > 100), "{outcomes:?}");
        assert!(max_span >= 4, "the generator must produce spanning files");
        assert!(empty_guards > 0, "the generator must produce empty slots");
        assert!(straddled_keys > 0, "a user key must straddle two files");
    }
}
