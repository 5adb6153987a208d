//! Cross-engine integration tests: every engine must agree with an in-memory
//! model and with each other on the same workload — including reads through
//! pinned snapshots and streaming cursors.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use pebblesdb::{FlsmPolicy, PebblesDb};
use pebblesdb_btree::BTreeStore;
use pebblesdb_common::{
    ColumnFamilyHandle, Db, KvStore, PrefixDb, ReadOptions, StoreOptions, StorePreset, WriteBatch,
};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::LsmDb;
use pebblesdb_replica::{FollowerConfig, FollowerDb};
use pebblesdb_server::{Server, ServerConfig};
use pebblesdb_shard::{PartitionerKind, ShardConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_options() -> StoreOptions {
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = 32 << 10;
    opts.max_file_size = 16 << 10;
    opts.base_level_bytes = 64 << 10;
    opts.level0_compaction_trigger = 2;
    opts.top_level_bits = 8;
    opts.bit_decrement = 1;
    opts
}

fn all_engines() -> Vec<(&'static str, Arc<dyn KvStore>)> {
    let opts = small_options();
    let pebbles_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let lsm_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let rocks_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let btree_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    // Column-family handles are full `KvStore`s: one non-default family per
    // LSM engine runs the *same* suites as the whole stores, unmodified.
    // The handles keep their stores (and background threads) alive.
    let pebbles_cf_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let pebbles_cf = PebblesDb::open_with_options(pebbles_cf_env, Path::new("/pcf"), opts.clone())
        .unwrap()
        .create_cf("shard")
        .unwrap();
    let lsm_cf_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let lsm_cf = LsmDb::open_with_options(
        lsm_cf_env,
        Path::new("/hcf"),
        opts.clone(),
        StorePreset::HyperLevelDb,
    )
    .unwrap()
    .create_cf("shard")
    .unwrap();
    vec![
        (
            "pebblesdb",
            Arc::new(
                PebblesDb::open_with_options(pebbles_env, Path::new("/p"), opts.clone()).unwrap(),
            ) as Arc<dyn KvStore>,
        ),
        (
            "hyperleveldb",
            Arc::new(
                LsmDb::open_with_options(
                    lsm_env,
                    Path::new("/h"),
                    opts.clone(),
                    StorePreset::HyperLevelDb,
                )
                .unwrap(),
            ),
        ),
        (
            "rocksdb",
            Arc::new(
                LsmDb::open_with_options(
                    rocks_env,
                    Path::new("/r"),
                    opts.clone(),
                    StorePreset::RocksDb,
                )
                .unwrap(),
            ),
        ),
        (
            "btree",
            Arc::new(BTreeStore::open(btree_env, Path::new("/b"), opts).unwrap()),
        ),
        ("pebblesdb-cf", Arc::new(pebbles_cf)),
        ("hyperleveldb-cf", Arc::new(lsm_cf)),
    ]
}

/// Applies the same randomized workload of puts, deletes and overwrites to
/// every engine and to a `BTreeMap` model, then checks point reads and range
/// scans agree with the model.
#[test]
fn engines_agree_with_model_on_mixed_workload() {
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let engines = all_engines();
    let mut rng = StdRng::seed_from_u64(2024);

    for op in 0..8000u32 {
        let key = format!("key{:05}", rng.gen_range(0..2000u32)).into_bytes();
        if rng.gen_bool(0.8) {
            let value = format!("value-{op}").into_bytes();
            for (_, engine) in &engines {
                engine.put(&key, &value).unwrap();
            }
            model.insert(key, value);
        } else {
            for (_, engine) in &engines {
                engine.delete(&key).unwrap();
            }
            model.remove(&key);
        }
    }
    for (_, engine) in &engines {
        engine.flush().unwrap();
    }

    // Point reads.
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..500 {
        let key = format!("key{:05}", rng.gen_range(0..2100u32)).into_bytes();
        let expected = model.get(&key).cloned();
        for (name, engine) in &engines {
            assert_eq!(engine.get(&key).unwrap(), expected, "{name} get {key:?}");
        }
    }

    // Range scans.
    for start in [0u32, 123, 999, 1990] {
        let start_key = format!("key{start:05}").into_bytes();
        let end_key = format!("key{:05}", start + 50).into_bytes();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model
            .range(start_key.clone()..end_key.clone())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for (name, engine) in &engines {
            let got = engine.scan(&start_key, &end_key, 10_000).unwrap();
            assert_eq!(got, expected, "{name} scan from {start}");
        }
    }

    // Bounded scans respect the limit.
    for (name, engine) in &engines {
        let got = engine.scan(b"key", &[], 7).unwrap();
        assert!(got.len() <= 7, "{name} limit");
    }
}

/// The FLSM engine must write less to the device than the LSM baseline for
/// the same random-update workload, while the B+Tree writes the most — the
/// paper's central claim at integration scale.
#[test]
fn write_amplification_ordering_matches_the_paper() {
    let engines = all_engines();
    let mut rng = StdRng::seed_from_u64(55);
    for _ in 0..10_000u32 {
        let key = format!("key{:05}", rng.gen_range(0..5000u32)).into_bytes();
        let value = vec![b'v'; 200];
        for (_, engine) in &engines {
            engine.put(&key, &value).unwrap();
        }
    }
    for (_, engine) in &engines {
        engine.flush().unwrap();
    }
    let amp: std::collections::HashMap<&str, f64> = engines
        .iter()
        .map(|(name, engine)| (*name, engine.stats().write_amplification()))
        .collect();

    assert!(
        amp["pebblesdb"] < amp["hyperleveldb"],
        "PebblesDB {:.2} should beat the LSM baseline {:.2}",
        amp["pebblesdb"],
        amp["hyperleveldb"]
    );
    assert!(
        amp["btree"] > amp["hyperleveldb"],
        "the B+Tree {:.2} should be worse than any LSM {:.2}",
        amp["btree"],
        amp["hyperleveldb"]
    );
}

/// Snapshot isolation, on every engine: writes issued after `snapshot()`
/// are invisible to `get_opts` and `iter` on that snapshot — across
/// overwrites, deletes, fresh inserts, flushes and the compactions they
/// trigger — while latest reads see everything.
#[test]
fn snapshots_isolate_reads_on_every_engine() {
    for (name, engine) in all_engines() {
        // Base state the snapshot will pin.
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for i in 0..800u32 {
            let key = format!("key{i:05}").into_bytes();
            let value = format!("base-{i}").into_bytes();
            engine.put(&key, &value).unwrap();
            model.insert(key, value);
        }

        let snap = engine.snapshot();
        let snap_opts = snap.read_options();

        // Mutate heavily after the snapshot: overwrite, delete, insert —
        // enough churn to force memtable flushes and compactions past it.
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..4u32 {
            for i in 0..800u32 {
                let key = format!("key{i:05}").into_bytes();
                match rng.gen_range(0..3u32) {
                    0 => engine
                        .put(&key, format!("new-{round}-{i}").as_bytes())
                        .unwrap(),
                    1 => engine.delete(&key).unwrap(),
                    _ => {}
                }
            }
            for i in 0..200u32 {
                engine
                    .put(format!("zzz{round:02}{i:05}").as_bytes(), b"late")
                    .unwrap();
            }
            engine.flush().unwrap();
        }

        // Point reads through the snapshot see exactly the base state.
        for i in (0..800u32).step_by(7) {
            let key = format!("key{i:05}").into_bytes();
            assert_eq!(
                engine.get_opts(&snap_opts, &key).unwrap(),
                model.get(&key).cloned(),
                "{name} snapshot get key{i:05}"
            );
        }
        // Late inserts are invisible through the snapshot.
        assert_eq!(
            engine.get_opts(&snap_opts, b"zzz0000001").unwrap(),
            None,
            "{name} snapshot hides late insert"
        );

        // The snapshot cursor streams exactly the base state, in order.
        let mut iter = engine.iter(&snap_opts).unwrap();
        iter.seek(b"key");
        let mut streamed: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        while iter.valid() && iter.key() < b"z".as_slice() {
            streamed.push((iter.key().to_vec(), iter.value().to_vec()));
            iter.next();
        }
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(streamed, expected, "{name} snapshot cursor");
        drop(iter);

        // Latest reads observe the churn (at least one key must differ).
        let latest = engine.scan(b"key", b"z", 10_000).unwrap();
        assert_ne!(latest, expected, "{name} latest reads see new writes");

        // Dropping the snapshot releases it: a fresh snapshot pins the new
        // state, not the old one.
        drop(snap);
        let fresh = engine.snapshot();
        assert_eq!(
            engine
                .get_opts(&fresh.read_options(), b"zzz0000001")
                .unwrap(),
            engine.get(b"zzz0000001").unwrap(),
            "{name} fresh snapshot sees current state"
        );
    }
}

/// Cursor traversal agrees with the materialised `scan` on randomized
/// content — the cursor is the source of truth `scan` is defined on, so a
/// full walk must reproduce the same entries, and a seek to any key, present
/// or absent, followed by 20 `next`s must reproduce the scan's suffix from
/// that key's lower bound (crossing guard, file and table boundaries).
#[test]
fn cursor_walks_and_seeks_match_scan() {
    let engines = all_engines();
    let mut rng = StdRng::seed_from_u64(4242);
    for op in 0..4000u32 {
        let key = format!("key{:05}", rng.gen_range(0..1200u32)).into_bytes();
        if rng.gen_bool(0.75) {
            let value = format!("v{op}").into_bytes();
            for (_, engine) in &engines {
                engine.put(&key, &value).unwrap();
            }
        } else {
            for (_, engine) in &engines {
                engine.delete(&key).unwrap();
            }
        }
    }
    // Present keys, the gaps just past them, keys never written, and both
    // ends of the key space.
    let mut probes: Vec<Vec<u8>> = vec![Vec::new(), b"zzz".to_vec()];
    for _ in 0..40 {
        let key = format!("key{:05}", rng.gen_range(0..1300u32));
        probes.push(format!("{key}!").into_bytes());
        probes.push(key.into_bytes());
    }
    for (name, engine) in &engines {
        engine.flush().unwrap();
        let scanned = engine.scan(b"", &[], 100_000).unwrap();

        let mut iter = engine.iter(&ReadOptions::default()).unwrap();
        iter.seek_to_first();
        let mut forward = Vec::new();
        while iter.valid() {
            forward.push((iter.key().to_vec(), iter.value().to_vec()));
            iter.next();
        }
        assert_eq!(forward, scanned, "{name} forward traversal");

        for probe in &probes {
            let at = scanned.partition_point(|(k, _)| k < probe);
            let expected = &scanned[at..(at + 21).min(scanned.len())];
            iter.seek(probe);
            let mut seen = Vec::new();
            while iter.valid() && seen.len() < expected.len() {
                seen.push((iter.key().to_vec(), iter.value().to_vec()));
                iter.next();
            }
            assert_eq!(seen, expected, "{name} seek to {probe:?} and 20 nexts");
        }
        iter.status().unwrap();
    }
}

/// Engines expose consistent statistics after a workload.
#[test]
fn stats_are_consistent_across_engines() {
    let engines = all_engines();
    for (_, engine) in &engines {
        for i in 0..2000u32 {
            engine
                .put(format!("k{i:06}").as_bytes(), &[b'x'; 128])
                .unwrap();
        }
        engine.flush().unwrap();
    }
    for (name, engine) in &engines {
        let stats = engine.stats();
        assert!(stats.user_bytes_written >= 2000 * 128, "{name}");
        assert!(stats.bytes_written >= stats.user_bytes_written, "{name}");
        assert!(stats.disk_bytes_live > 0, "{name}");
        assert!(!engine.engine_name().is_empty(), "{name}");
    }
}

/// Every kind of `Db` the workspace builds; each derives its `KvStore`,
/// `Db` and handles from one `CfOps` core.
fn writable_dbs() -> Vec<(&'static str, Arc<dyn Db>)> {
    let env = || -> Arc<dyn Env> { Arc::new(MemEnv::new()) };
    let opts = StoreOptions::default;
    let shards = ShardConfig {
        shards: 2,
        partitioner: PartitionerKind::Hash,
    };
    let preset = StorePreset::HyperLevelDb;
    let btree = BTreeStore::open(env(), Path::new("/b"), opts()).unwrap();
    vec![
        (
            "flsm",
            Arc::new(PebblesDb::open_with_options(env(), Path::new("/p"), opts()).unwrap()),
        ),
        (
            "lsm",
            Arc::new(LsmDb::open_with_options(env(), Path::new("/h"), opts(), preset).unwrap()),
        ),
        (
            "flsm x2 shards",
            Arc::new(PebblesDb::open_sharded(env(), Path::new("/s"), opts(), shards).unwrap()),
        ),
        ("btree prefix", Arc::new(PrefixDb::new(Arc::new(btree)))),
    ]
}

fn one_record(key: &[u8], value: Option<&[u8]>) -> WriteBatch {
    let mut batch = WriteBatch::new();
    match value {
        Some(value) => batch.put(key, value),
        None => batch.delete(key),
    }
    batch
}

/// The scripted writes: the default family through the store *and* through
/// its handle, family `a` through `put`/`delete`, family `b` through the
/// equivalent one-record batches.
fn run_facade_script(db: &dyn Db) {
    let default = db.default_cf();
    let a = db.create_cf("a").unwrap();
    let b = db.create_cf("b").unwrap();
    for i in 0..40u32 {
        let key = format!("key{i:03}").into_bytes();
        let value = format!("value{i}").into_bytes();
        // Even keys through the store, odd keys through the handle.
        let kv: &dyn KvStore = if i % 2 == 0 { db } else { &default };
        kv.put(&key, &value).unwrap();
        a.put(&key, &value).unwrap();
        b.write(one_record(&key, Some(&value))).unwrap();
        if i % 5 == 0 {
            let other: &dyn KvStore = if i % 2 == 0 { &default } else { db };
            other.delete(&key).unwrap();
            a.delete(&key).unwrap();
            b.write(one_record(&key, None)).unwrap();
        }
    }
    // A plain batch lands in the family of the view it is written through.
    let mut batch = WriteBatch::new();
    batch.put(b"batched", b"default");
    batch.put_cf(a.id(), b"batched", b"a");
    default.write(batch.clone()).unwrap();
    let mut batch_b = WriteBatch::new();
    batch_b.put(b"batched", b"a");
    b.write(batch_b).unwrap();
    db.write(batch).unwrap();
    db.flush().unwrap();
}

fn dump(kv: &dyn KvStore) -> Vec<(Vec<u8>, Vec<u8>)> {
    kv.scan(b"", &[], usize::MAX).unwrap()
}

/// The read half of the conformance check, over a store the script ran
/// against (or a follower of one).
fn check_facade_views(name: &str, db: &dyn Db) {
    let default = db.default_cf();
    let a = db.cf("a").unwrap_or_else(|| panic!("{name}: family a"));
    let b = db.cf("b").unwrap_or_else(|| panic!("{name}: family b"));
    assert_eq!(db.list_cfs(), ["default", "a", "b"], "{name}");

    // Whole-store `KvStore` == `default_cf()` handle.
    assert_eq!(
        dump(db).len(),
        33,
        "{name}: 40 keys - 8 deleted + 1 batched"
    );
    assert_eq!(dump(db), dump(&default), "{name}");
    for key in [&b"key000"[..], b"key001", b"key005", b"batched", b"absent"] {
        assert_eq!(db.get(key).unwrap(), default.get(key).unwrap(), "{name}");
    }
    assert_eq!(db.get(b"batched").unwrap(), Some(b"default".to_vec()));
    assert_eq!(db.engine_name(), default.engine_name(), "{name}");
    let pinned = (db.snapshot().sequence(), default.snapshot().sequence());
    assert_eq!(pinned.0, pinned.1, "{name}: one store-wide sequence");
    let last = dump(db).pop().unwrap().0;
    let mut cursor = default.iter(&ReadOptions::default()).unwrap();
    cursor.seek(&last);
    assert_eq!(cursor.key(), last, "{name}");
    cursor.next();
    assert!(
        !cursor.valid(),
        "{name}: the cursor ends at the family's last key"
    );

    // `put`/`delete` == the one-record batch.
    assert_eq!(dump(&a), dump(&b), "{name}");
    assert_eq!(a.get(b"batched").unwrap(), Some(b"a".to_vec()), "{name}");
    assert_eq!(a.engine_name(), format!("{}#a", db.engine_name()), "{name}");

    // A handle scopes the file figures and nothing else.
    let whole = db.stats();
    assert_eq!(whole.num_column_families, 3, "{name}");
    for handle in [&default, &a, &b] {
        let scoped = handle.stats();
        assert!(scoped.num_files <= whole.num_files, "{name}");
        assert!(scoped.disk_bytes_live <= whole.disk_bytes_live, "{name}");
        assert!(
            scoped.memory_usage_bytes <= whole.memory_usage_bytes,
            "{name}"
        );
        assert_eq!(
            scoped.user_bytes_written, whole.user_bytes_written,
            "{name}"
        );
        assert_eq!(scoped.num_column_families, 3, "{name}");
        assert!(handle.live_file_sizes().len() <= db.live_file_sizes().len());
    }
}

fn every_mutation(db: &dyn Db, handle: &ColumnFamilyHandle) -> Vec<pebblesdb_common::Result<()>> {
    vec![
        db.put(b"k", b"v"),
        db.delete(b"k"),
        db.write(one_record(b"k", Some(b"v"))),
        handle.put(b"k", b"v"),
        handle.delete(b"k"),
        handle.write(one_record(b"k", Some(b"v"))),
    ]
}

/// One scripted workload against every `Db` kind: the whole-store `KvStore`,
/// the `Db` catalog and the family handles are views derived from one core,
/// so they must agree with each other on every store — and a follower must
/// serve the same read views while rejecting every mutation alike.
#[test]
fn every_db_facade_serves_the_same_derived_views() {
    for (name, db) in writable_dbs() {
        let db = db.as_ref();
        run_facade_script(db);
        check_facade_views(name, db);

        // A put and its one-record batch consume the same sequence range.
        let (a, b) = (db.cf("a").unwrap(), db.cf("b").unwrap());
        let start = db.committed_sequence();
        a.put(b"seq", b"v").unwrap();
        let after_put = db.committed_sequence();
        b.write(one_record(b"seq", Some(b"v"))).unwrap();
        assert_eq!(after_put - start, db.committed_sequence() - after_put);

        // A dropped family's handle fails on every operation.
        db.drop_cf("b").unwrap();
        assert!(db.cf("b").is_none(), "{name}");
        assert!(b.get(b"key001").is_err(), "{name}");
        assert!(b.iter(&ReadOptions::default()).is_err(), "{name}");
        assert!(b.scan(b"", &[], 10).is_err(), "{name}");
        let mutations = every_mutation(db, &b);
        assert!(mutations[..3].iter().all(|r| r.is_ok()), "{name}: store");
        assert!(mutations[3..].iter().all(|r| r.is_err()), "{name}: handle");
        assert_eq!(a.get(b"key001").unwrap(), Some(b"value1".to_vec()));
    }

    // The read half again, through a follower of a scripted leader.
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let leader: Arc<dyn Db> = Arc::new(PebblesDb::open(env, Path::new("/leader")).unwrap());
    let server = Server::start(Arc::clone(&leader), ServerConfig::default()).unwrap();
    run_facade_script(leader.as_ref());
    let config = FollowerConfig {
        leader_addr: server.local_addr().to_string(),
        ..Default::default()
    };
    let (env, options) = (Arc::new(MemEnv::new()), StoreOptions::default());
    let follower = FollowerDb::open_with(
        FlsmPolicy::new,
        env,
        Path::new("/follower"),
        options,
        config,
    )
    .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while follower.applied_sequence() < leader.committed_sequence() {
        assert!(
            std::time::Instant::now() < deadline,
            "follower never caught up"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    follower.flush().unwrap();
    check_facade_views("follower", &follower);
    assert_eq!(dump(&follower), dump(leader.as_ref()));

    // Every mutation is rejected, with one error, through both surfaces.
    let refusal = follower.create_cf("c").unwrap_err().to_string();
    assert!(refusal.contains("read-only"), "got: {refusal}");
    assert_eq!(follower.drop_cf("a").unwrap_err().to_string(), refusal);
    for result in every_mutation(&follower, &follower.cf("a").unwrap()) {
        assert_eq!(result.unwrap_err().to_string(), refusal);
    }
    assert_eq!(dump(&follower), dump(leader.as_ref()));
    server.shutdown();
}
