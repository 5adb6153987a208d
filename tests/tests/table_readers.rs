//! A live sstable carries its open reader; the table cache is the open-file
//! budget. Counted behind a `SimEnv`, which knows every live
//! `RandomAccessFile` (a file descriptor each on a real disk):
//!
//! * **the bound** — `max_open_files` holds over any mix of gets, cursors
//!   and compactions, plus what live cursors and jobs pin;
//! * **the lifetime** — a reader is reused while its file is live and is
//!   gone once the last version naming the file is, with nothing evicted by
//!   hand;
//! * **the race** — readers, a writer and compactions over a budget far
//!   below the file count return no error and no wrong value;
//! * **the block cache** — a `MemEnv` table is read in place, so the cache
//!   only ever holds blocks that cost a copy or a decode, and on an
//!   uncompressed store it is never touched.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pebblesdb::PebblesDb;
use pebblesdb_common::{Db, DbIterator, ReadOptions, StoreOptions, StorePreset};
use pebblesdb_env::{Env, MemEnv, SimEnv};
use pebblesdb_lsm::LsmDb;
use pebblesdb_tests::sim_over;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A store of either shape behind the counting layer, with the count of
/// slots its table cache holds full.
struct Store {
    name: &'static str,
    env: SimEnv,
    db: Arc<dyn Db>,
    open_tables: Box<dyn Fn() -> usize + Send + Sync>,
}

/// Both engines with tables of a few kilobytes, so a few thousand keys make
/// well over 64 of them.
fn stores(max_open_files: usize) -> Vec<Store> {
    let mut options = StoreOptions::default();
    options.write_buffer_size = 16 << 10;
    options.max_file_size = 4 << 10;
    options.base_level_bytes = 64 << 10;
    options.max_open_files = max_open_files;

    let (env, dyn_env) = sim_over(MemEnv::new());
    let flsm = PebblesDb::open_with_options(dyn_env, Path::new("/flsm"), options.clone());
    let flsm = Arc::new(flsm.unwrap());
    let flsm_core = Arc::clone(flsm.engine().core());
    let flsm = Store {
        name: "flsm",
        env,
        db: flsm,
        open_tables: Box::new(move || flsm_core.io.table_cache.open_tables()),
    };

    let (env, dyn_env) = sim_over(MemEnv::new());
    let preset = StorePreset::HyperLevelDb;
    let lsm = LsmDb::open_with_options(dyn_env, Path::new("/lsm"), options, preset);
    let lsm = Arc::new(lsm.unwrap());
    let lsm_core = Arc::clone(lsm.engine().core());
    let lsm = Store {
        name: "lsm",
        env,
        db: lsm,
        open_tables: Box::new(move || lsm_core.io.table_cache.open_tables()),
    };
    vec![flsm, lsm]
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn value(i: u32, version: u32) -> Vec<u8> {
    format!("value-{i:06}-{version:06}-{}", "x".repeat(40)).into_bytes()
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// Writes keys `0..keys` in a shuffled order (every flush spans the key
/// space) and brings the store to rest.
fn load(store: &Store, model: &mut Model, keys: u32, version: u32) {
    for i in 0..u64::from(keys) {
        // A prime multiplier permutes the residues.
        let i = (i * 2_654_435_761 % u64::from(keys)) as u32;
        store.db.put(&key(i), &value(i, version)).unwrap();
        model.insert(key(i), value(i, version));
    }
    store.db.flush().unwrap();
}

/// Walks `iter`, which stands at `from`, `steps` entries against the model.
fn check_walk(iter: &mut dyn DbIterator, model: &Model, from: &[u8], steps: usize, name: &str) {
    for (expected_key, expected_value) in model.range(from.to_vec()..).take(steps) {
        assert!(iter.valid(), "{name}: cursor ended early");
        assert_eq!(iter.key(), expected_key.as_slice(), "{name}");
        assert_eq!(iter.value(), expected_value.as_slice(), "{name}");
        iter.next();
    }
    iter.status().unwrap();
}

/// A cursor at `from`, walked `steps` entries against the model.
fn check_scan(store: &Store, model: &Model, from: &[u8], steps: usize) {
    let mut iter = store.db.iter(&ReadOptions::default()).unwrap();
    iter.seek(from);
    check_walk(iter.as_mut(), model, from, steps, store.name);
}

/// (a) The bound. `max_open_files = 8` over far more sstables: whatever is
/// read, however, once cursors are dropped and jobs are done the open
/// readers fit the budget; a cursor keeps reading a table whose slot the
/// sweep has emptied under it.
#[test]
fn open_readers_stay_within_the_budget_over_gets_cursors_and_compactions() {
    const BUDGET: usize = 8;
    const KEYS: u32 = 6_000;
    for store in stores(BUDGET) {
        let name = store.name;
        let mut model = Model::new();
        load(&store, &mut model, KEYS, 0);
        let files = store.db.stats().num_files;
        assert!(files >= 64, "{name}: only {files} sstables");
        let mut rng = StdRng::seed_from_u64(0x26);

        for round in 0..40u32 {
            match round % 4 {
                // Uniform gets: every one may land in a different file.
                0 => {
                    for _ in 0..300 {
                        let i = rng.gen_range(0..KEYS + 50);
                        let found = store.db.get(&key(i)).unwrap();
                        assert_eq!(found.as_ref(), model.get(&key(i)), "{name}: get {i}");
                    }
                }
                // Cursors that cross many files.
                1 => {
                    for _ in 0..10 {
                        let from = key(rng.gen_range(0..KEYS));
                        check_scan(&store, &model, &from, 200);
                    }
                }
                // Overwrites: flushes and compactions replace files.
                2 => {
                    for _ in 0..400 {
                        let i = rng.gen_range(0..KEYS);
                        store.db.put(&key(i), &value(i, round)).unwrap();
                        model.insert(key(i), value(i, round));
                    }
                    // Unquiesced on purpose: the reads of the next rounds
                    // race the jobs this started.
                }
                // A cursor parked in a table while gets sweep every slot.
                _ => {
                    let from = key(rng.gen_range(0..KEYS / 2));
                    let mut iter = store.db.iter(&ReadOptions::default()).unwrap();
                    iter.seek(&from);
                    assert_eq!(iter.key(), from.as_slice(), "{name}");
                    for i in (0..KEYS).step_by(7) {
                        let found = store.db.get(&key(i)).unwrap();
                        assert_eq!(found.as_ref(), model.get(&key(i)), "{name}: get {i}");
                    }
                    assert!((store.open_tables)() <= BUDGET, "{name}: slots");
                    check_walk(iter.as_mut(), &model, &from, 500, name);
                }
            }
            // No cursor is alive here; jobs may be. At rest nothing is
            // pinned and the budget is exact.
            assert!((store.open_tables)() <= BUDGET, "{name}: round {round}");
            if round % 4 != 2 {
                store.db.flush().unwrap();
                let open = store.env.open_readers();
                assert!(open <= BUDGET, "{name}: {open} readers open at rest");
            }
        }
        let stats = store.db.stats();
        assert!(stats.table_cache_misses > files, "{name}: the sweep ran");
        assert!(stats.table_cache_hits > 0, "{name}");
    }
}

/// (b) The lifetime. An open reader is reused, not reopened; after the
/// files under it are compacted away and the store is at rest, no reader of
/// a deleted file is alive and the full slots are live files' — without any
/// eviction call on the delete path.
#[test]
fn a_reader_is_reused_while_its_file_lives_and_gone_when_it_is_deleted() {
    const KEYS: u32 = 3_000;
    for store in stores(1_000) {
        let name = store.name;
        let mut model = Model::new();
        load(&store, &mut model, KEYS, 0);
        // The layer forwards all of `Env`: the flushes' directory syncs
        // reached the disk under it.
        let dir_syncs = store.env.io_stats().snapshot().dir_syncs;
        assert!(dir_syncs > 0, "{name}: no sync_dir reached the MemEnv");

        // Reuse: a second pass over the same keys opens nothing.
        let pass = || {
            for i in (0..KEYS).step_by(3) {
                assert_eq!(store.db.get(&key(i)).unwrap().as_ref(), model.get(&key(i)));
            }
            store.db.stats()
        };
        let first = pass();
        let second = pass();
        assert_eq!(
            second.table_cache_misses, first.table_cache_misses,
            "{name}: the second pass reopened a table"
        );
        assert!(second.table_cache_hits > first.table_cache_hits, "{name}");
        let before = store.env.open_readers();
        assert!(before > 0 && before == (store.open_tables)(), "{name}");

        // Replace every file under the readers, twice over.
        for version in 1..=2 {
            load(&store, &mut model, KEYS, version);
        }
        let deleted = store.env.readers_of_deleted_files();
        assert!(deleted.is_empty(), "{name}: readers outlived {deleted:?}");
        let live_files = store.db.stats().num_files as usize;
        let open = (store.open_tables)();
        assert!(
            open <= live_files,
            "{name}: {open} slots, {live_files} files"
        );
        assert_eq!(store.env.open_readers(), open, "{name}");
        check_scan(&store, &model, &key(0), KEYS as usize);
    }
}

/// (c) The race. Four readers, a writer whose flushes force compactions,
/// and a budget of four readers for two seconds: no error, no value that
/// was never written, and the budget still holds at rest.
#[test]
fn readers_racing_a_writer_over_a_tiny_budget_see_no_error_and_no_wrong_value() {
    const BUDGET: usize = 4;
    const KEYS: u32 = 2_000;
    const READERS: u32 = 4;
    for store in stores(BUDGET) {
        let name = store.name;
        let mut model = Model::new();
        load(&store, &mut model, KEYS, 0);
        let stop = AtomicBool::new(false);
        let deadline = Instant::now() + Duration::from_secs(2);

        std::thread::scope(|scope| {
            let (store, stop) = (&store, &stop);
            // The writer rewrites keys in order with rising versions: a
            // key's value is always its own, at some version written so far.
            let writer = scope.spawn(move || {
                let mut version = 1;
                while Instant::now() < deadline {
                    for i in 0..KEYS {
                        store.db.put(&key(i), &value(i, version)).unwrap();
                    }
                    version += 1;
                }
                stop.store(true, Ordering::SeqCst);
                version
            });
            let readers: Vec<_> = (0..READERS)
                .map(|reader| {
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(u64::from(reader));
                        let mut reads = 0u64;
                        while !stop.load(Ordering::SeqCst) {
                            let i = rng.gen_range(0..KEYS);
                            let found = store.db.get(&key(i)).unwrap().expect("never deleted");
                            let own = format!("value-{i:06}-");
                            assert!(found.starts_with(own.as_bytes()), "{name}: key {i}");
                            if reads.is_multiple_of(64) {
                                let mut iter = store.db.iter(&ReadOptions::default()).unwrap();
                                iter.seek(&key(i));
                                for j in i..(i + 20).min(KEYS) {
                                    assert_eq!(iter.key(), key(j).as_slice(), "{name}");
                                    iter.next();
                                }
                                iter.status().unwrap();
                            }
                            reads += 1;
                        }
                        reads
                    })
                })
                .collect();
            let versions = writer.join().unwrap();
            let reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
            assert!(versions > 1 && reads > 1_000, "{name}: {versions}, {reads}");
        });

        store.db.flush().unwrap();
        let stats = store.db.stats();
        assert!(stats.compactions > 0, "{name}: no compaction ran");
        assert!(stats.table_cache_misses > 0 && stats.table_cache_hits > 0);
        let open = store.env.open_readers();
        assert!(open <= BUDGET, "{name}: {open} readers open at rest");
        assert!(store.env.readers_of_deleted_files().is_empty(), "{name}");
    }
}

/// (d) The block cache. Every sstable of an uncompressed store on a
/// `MemEnv` (behind the layer, which forwards `read_bytes`) is resident:
/// gets, cursors and the compactions that read the tables parse blocks
/// where they lie, and the cache sees not one lookup.
#[test]
fn a_resident_store_never_touches_the_block_cache() {
    const KEYS: u32 = 3_000;
    for store in stores(1_000) {
        let name = store.name;
        let mut model = Model::new();
        for version in 0..3 {
            load(&store, &mut model, KEYS, version);
            for i in (0..KEYS).step_by(5) {
                assert_eq!(store.db.get(&key(i)).unwrap().as_ref(), model.get(&key(i)));
            }
            check_scan(&store, &model, &key(KEYS / 3), 500);
        }
        let stats = store.db.stats();
        assert!(stats.compactions > 0, "{name}: no compaction ran");
        let cache = (stats.block_cache_hits, stats.block_cache_misses);
        assert_eq!(cache, (0, 0), "{name}: block cache hits and misses");
    }
}
