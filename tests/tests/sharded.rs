//! Sharded-store integration tests: the hash-partitioned [`ShardedDb`] must
//! behave exactly like a reference model under random workloads (including
//! snapshots pinned mid-stream and cross-shard batches), and cross-shard
//! atomicity must survive a crash between a shard staging its sub-batch and
//! the global sequence publish.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pebblesdb::PebblesDb;
use pebblesdb_common::snapshot::Snapshot;
use pebblesdb_common::{
    CompressionType, Db, Error, KvStore, ReadOptions, StoreOptions, StorePreset, StoreStats,
    WriteBatch,
};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::LsmDb;
use pebblesdb_shard::{HashPartitioner, Partitioner, PartitionerKind, ShardConfig};
use pebblesdb_tests::sim_over;

fn tiny_options() -> StoreOptions {
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = 8 << 10;
    opts.max_file_size = 8 << 10;
    opts.base_level_bytes = 32 << 10;
    opts.level0_compaction_trigger = 2;
    opts.max_sstables_per_guard = 2;
    opts.top_level_bits = 6;
    opts.bit_decrement = 1;
    opts
}

fn hash_config() -> ShardConfig {
    ShardConfig {
        shards: 4,
        partitioner: PartitionerKind::Hash,
    }
}

/// Opens a sharded store of either policy family by name, so every scenario
/// runs against both the FLSM and the baseline-LSM shards.
fn open_sharded(env: Arc<dyn Env>, dir: &Path, engine: &str, config: ShardConfig) -> Arc<dyn Db> {
    open_sharded_with(env, dir, engine, tiny_options(), config)
}

fn open_sharded_with(
    env: Arc<dyn Env>,
    dir: &Path,
    engine: &str,
    options: StoreOptions,
    config: ShardConfig,
) -> Arc<dyn Db> {
    match engine {
        "flsm" => {
            Arc::new(PebblesDb::open_sharded(env, dir, options, config).expect("open flsm shards"))
        }
        "lsm" => Arc::new(
            LsmDb::open_sharded(env, dir, options, StorePreset::HyperLevelDb, config)
                .expect("open lsm shards"),
        ),
        other => panic!("unknown engine {other}"),
    }
}

fn key_of(id: u16) -> Vec<u8> {
    format!("key{id:05}").into_bytes()
}

/// One step of the model-based differential test.
enum Op {
    Put(u16, Vec<u8>),
    Delete(u16),
    /// A batch mixing puts and deletes; with 4 hash shards almost every
    /// multi-record batch is cross-shard.
    Batch(Vec<(u16, Option<Vec<u8>>)>),
    Scan(u16, u8),
    PinSnapshot,
}

fn random_op(rng: &mut StdRng) -> Op {
    let key = rng.gen_range(0..512u16);
    match rng.gen_range(0..8u32) {
        0..=2 => {
            let len = rng.gen_range(0..64usize);
            Op::Put(key, (0..len).map(|_| rng.gen::<u8>()).collect())
        }
        3 => Op::Delete(key),
        4..=5 => {
            let count = rng.gen_range(2..10usize);
            Op::Batch(
                (0..count)
                    .map(|_| {
                        let id = rng.gen_range(0..512u16);
                        if rng.gen_range(0..4u32) == 0 {
                            (id, None)
                        } else {
                            let len = rng.gen_range(0..48usize);
                            (id, Some((0..len).map(|_| rng.gen::<u8>()).collect()))
                        }
                    })
                    .collect(),
            )
        }
        6 => Op::Scan(key, rng.gen::<u8>()),
        _ => Op::PinSnapshot,
    }
}

/// Applies `ops` to the store and the model in lockstep, pinning snapshots
/// mid-stream; at the end every pinned snapshot must replay its frozen
/// model, and the live store must agree with the live model before and
/// after a full flush.
fn check_sharded_against_model(store: &dyn Db, ops: Vec<Op>) {
    type Model = BTreeMap<Vec<u8>, Vec<u8>>;
    let mut model: Model = BTreeMap::new();
    let mut pinned: Vec<(Snapshot, Model)> = Vec::new();
    for op in &ops {
        match op {
            Op::Put(id, value) => {
                store.put(&key_of(*id), value).unwrap();
                model.insert(key_of(*id), value.clone());
            }
            Op::Delete(id) => {
                store.delete(&key_of(*id)).unwrap();
                model.remove(&key_of(*id));
            }
            Op::Batch(entries) => {
                let mut batch = WriteBatch::new();
                for (id, value) in entries {
                    match value {
                        Some(value) => batch.put(&key_of(*id), value),
                        None => batch.delete(&key_of(*id)),
                    }
                }
                store.write(batch).unwrap();
                for (id, value) in entries {
                    match value {
                        Some(value) => model.insert(key_of(*id), value.clone()),
                        None => model.remove(&key_of(*id)),
                    };
                }
            }
            Op::Scan(id, limit) => {
                let limit = (*limit as usize % 20) + 1;
                let got = store.scan(&key_of(*id), &[], limit).unwrap();
                let expected: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range(key_of(*id)..)
                    .take(limit)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, expected, "scan from {id} with limit {limit}");
            }
            Op::PinSnapshot => pinned.push((store.snapshot(), model.clone())),
        }
    }

    // Every snapshot pinned mid-stream replays its oracle exactly, even
    // though the store kept moving (and flushing) after the pin.
    for check_after_flush in [false, true] {
        if check_after_flush {
            store.flush().unwrap();
        }
        for (index, (snap, frozen)) in pinned.iter().enumerate() {
            let mut opts = ReadOptions::default();
            opts.snapshot = Some(snap.sequence());
            let got = store.scan_opts(&opts, b"key", &[], 10_000).unwrap();
            let expected: Vec<(Vec<u8>, Vec<u8>)> =
                frozen.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(
                got, expected,
                "snapshot {index} drifted (after_flush={check_after_flush})"
            );
        }
        for id in 0..512u16 {
            assert_eq!(
                store.get(&key_of(id)).unwrap(),
                model.get(&key_of(id)).cloned(),
                "key {id} (after_flush={check_after_flush})"
            );
        }
        let got = store.scan(b"key", &[], 10_000).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(got, expected, "full scan (after_flush={check_after_flush})");
    }
}

#[test]
fn sharded_stores_match_model_with_snapshots() {
    for engine in ["flsm", "lsm"] {
        let mut rng = StdRng::seed_from_u64(0x5eed_5a4d);
        for case in 0..4 {
            let count = rng.gen_range(50..400usize);
            let ops: Vec<Op> = (0..count).map(|_| random_op(&mut rng)).collect();
            let env: Arc<dyn Env> = Arc::new(MemEnv::new());
            let store = open_sharded(env, Path::new("/sharded-prop"), engine, hash_config());
            eprintln!("{engine} case {case}: {count} ops");
            check_sharded_against_model(store.as_ref(), ops);
        }
    }
}

#[test]
fn sharded_store_survives_reopen() {
    for engine in ["flsm", "lsm"] {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let dir = Path::new("/sharded-reopen");
        {
            let store = open_sharded(Arc::clone(&env), dir, engine, hash_config());
            for i in 0..800u16 {
                store.put(&key_of(i), format!("v{i}").as_bytes()).unwrap();
            }
            // A flushed prefix plus WAL-only tail on every shard.
            store.flush().unwrap();
            for i in 800..900u16 {
                store.put(&key_of(i), format!("v{i}").as_bytes()).unwrap();
            }
        }
        let store = open_sharded(Arc::clone(&env), dir, engine, hash_config());
        for i in 0..900u16 {
            assert_eq!(
                store.get(&key_of(i)).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "{engine} key {i}"
            );
        }
        let scanned = store.scan(b"key", &[], 10_000).unwrap();
        assert_eq!(scanned.len(), 900, "{engine}");
        env.remove_dir_all(dir).unwrap();
    }
}

#[test]
fn reopening_with_a_different_topology_is_refused() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = Path::new("/sharded-meta");
    {
        let store = open_sharded(Arc::clone(&env), dir, "flsm", hash_config());
        store.put(b"k", b"v").unwrap();
    }
    let wrong_count = ShardConfig {
        shards: 2,
        partitioner: PartitionerKind::Hash,
    };
    assert!(
        PebblesDb::open_sharded(Arc::clone(&env), dir, tiny_options(), wrong_count).is_err(),
        "shard-count mismatch must be refused"
    );
    let wrong_partitioner = ShardConfig {
        shards: 4,
        partitioner: PartitionerKind::Range,
    };
    assert!(
        PebblesDb::open_sharded(Arc::clone(&env), dir, tiny_options(), wrong_partitioner).is_err(),
        "partitioner mismatch must be refused"
    );
    // The original topology still opens.
    let store = open_sharded(Arc::clone(&env), dir, "flsm", hash_config());
    assert_eq!(store.get(b"k").unwrap(), Some(b"v".to_vec()));
}

#[test]
fn range_partitioned_scans_stay_globally_sorted() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let config = ShardConfig {
        shards: 4,
        partitioner: PartitionerKind::Range,
    };
    let store = open_sharded(env, Path::new("/sharded-range"), "flsm", config);
    // Leading bytes spread across all four range buckets.
    for i in 0..1024u32 {
        let key = vec![(i % 256) as u8, (i / 256) as u8];
        store.put(&key, format!("v{i}").as_bytes()).unwrap();
    }
    store.flush().unwrap();
    let got = store.scan(&[], &[], 10_000).unwrap();
    assert_eq!(got.len(), 1024);
    assert!(
        got.windows(2).all(|w| w[0].0 < w[1].0),
        "merged scan must be sorted across range shards"
    );
}

/// Two keys that the 4-way hash partitioner routes to shards 0 and 1, in
/// that order — so a batch holding both stages shard 0 first and shard 1
/// second, and a fault on shard 1's WAL leaves the batch half-staged.
fn keys_on_shards_0_and_1() -> (Vec<u8>, Vec<u8>) {
    let partitioner = HashPartitioner;
    let mut on_zero = None;
    let mut on_one = None;
    for i in 0..10_000u32 {
        let key = format!("atomic{i:05}").into_bytes();
        match partitioner.shard_of(&key, 4) {
            0 if on_zero.is_none() => on_zero = Some(key),
            1 if on_one.is_none() => on_one = Some(key),
            _ => {}
        }
        if on_zero.is_some() && on_one.is_some() {
            break;
        }
    }
    (on_zero.unwrap(), on_one.unwrap())
}

#[test]
fn cross_shard_batch_interrupted_mid_stage_recovers_atomically() {
    for engine in ["flsm", "lsm"] {
        let (sim, env) = sim_over(MemEnv::new());
        let dir = Path::new("/sharded-crash");
        let (key_a, key_b) = keys_on_shards_0_and_1();
        {
            let store = open_sharded(Arc::clone(&env), dir, engine, hash_config());
            store.put(b"base", b"line").unwrap();

            // Kill shard 1's WAL: the cross-shard batch journals, stages its
            // shard-0 slice, then dies staging shard 1 — exactly the window
            // between sub-batch staging and the global sequence publish.
            sim.fail_writes_after("shard-1/", 0);
            let mut batch = WriteBatch::new();
            batch.put(&key_a, b"half");
            batch.put(&key_b, b"other-half");
            assert!(store.write(batch).is_err(), "{engine}: staging must fail");

            // Atomicity before the crash: the shard-0 slice is staged but
            // unpublished, so no reader may see it.
            sim.heal();
            assert_eq!(
                store.get(&key_a).unwrap(),
                None,
                "{engine}: half-staged batch leaked to a reader"
            );
            assert_eq!(store.get(&key_b).unwrap(), None, "{engine}");
            let snap = store.snapshot();
            let mut opts = ReadOptions::default();
            opts.snapshot = Some(snap.sequence());
            assert_eq!(store.get_opts(&opts, &key_a).unwrap(), None, "{engine}");

            // The store is poisoned: later writes are refused rather than
            // silently reordered around the frozen watermark.
            assert!(store.put(b"after", b"fail").is_err(), "{engine}");
        }

        // "Crash" (drop the handles) and reopen: journal replay rolls the
        // batch forward into both shards — all-or-nothing, here "all".
        let store = open_sharded(Arc::clone(&env), dir, engine, hash_config());
        assert_eq!(store.get(b"base").unwrap(), Some(b"line".to_vec()));
        assert_eq!(
            store.get(&key_a).unwrap(),
            Some(b"half".to_vec()),
            "{engine}: journal replay must complete the batch"
        );
        assert_eq!(
            store.get(&key_b).unwrap(),
            Some(b"other-half".to_vec()),
            "{engine}"
        );
        // And the store writes normally again.
        store.put(b"after", b"recovered").unwrap();
        assert_eq!(store.get(b"after").unwrap(), Some(b"recovered".to_vec()));
        env.remove_dir_all(dir).unwrap();
    }
}

/// A device error while the coordinator journal is replayed must fail the
/// open and leave the journal: treated as the journal's end, it had the
/// half-replayed journal deleted and the cross-shard batch left torn.
#[test]
fn an_io_error_inside_the_journal_fails_the_open_and_a_retry_completes_the_batch() {
    for engine in ["flsm", "lsm"] {
        let (probe, env) = sim_over(MemEnv::new());
        let dir = Path::new("/sharded-io-error");
        let (key_a, key_b) = keys_on_shards_0_and_1();
        {
            let store = open_sharded(Arc::clone(&env), dir, engine, hash_config());
            // Journaled, staged on shard 0, dead before shard 1.
            probe.fail_writes_after("shard-1/", 0);
            let mut batch = WriteBatch::new();
            batch.put(&key_a, b"half");
            batch.put(&key_b, b"other-half");
            assert!(store.write(batch).is_err(), "{engine}: staging must fail");
            probe.heal();
        }
        let journals = |env: &dyn Env| -> Vec<String> {
            let names = env.children(dir).unwrap().into_iter();
            names.filter(|name| name.starts_with("journal-")).collect()
        };
        let before = journals(env.as_ref());
        assert!(!before.is_empty(), "{engine}: the batch was journaled");

        // Inside the journal's one record.
        probe.fail_sequential_read("journal-", 2);
        let opened = match engine {
            "flsm" => PebblesDb::open_sharded(Arc::clone(&env), dir, tiny_options(), hash_config())
                .map(drop),
            _ => {
                let preset = StorePreset::HyperLevelDb;
                LsmDb::open_sharded(Arc::clone(&env), dir, tiny_options(), preset, hash_config())
                    .map(drop)
            }
        };
        assert!(matches!(opened, Err(Error::Io(_))), "{engine}: {opened:?}");
        assert!(
            !probe.read_fault_pending(),
            "{engine}: the fault never fired"
        );
        assert_eq!(journals(env.as_ref()), before, "{engine}: journal deleted");

        let store = open_sharded(Arc::clone(&env), dir, engine, hash_config());
        assert_eq!(
            store.get(&key_a).unwrap(),
            Some(b"half".to_vec()),
            "{engine}"
        );
        assert_eq!(
            store.get(&key_b).unwrap(),
            Some(b"other-half".to_vec()),
            "{engine}: the journal went before it was replayed"
        );
    }
}

#[test]
fn cross_shard_batch_whose_journal_append_fails_applies_nothing() {
    let (sim, env) = sim_over(MemEnv::new());
    let dir = Path::new("/sharded-journal-fail");
    let (key_a, key_b) = keys_on_shards_0_and_1();
    {
        let store = open_sharded(Arc::clone(&env), dir, "flsm", hash_config());
        store.put(b"base", b"line").unwrap();
        sim.fail_writes_after("journal-", 0);
        let mut batch = WriteBatch::new();
        batch.put(&key_a, b"x");
        batch.put(&key_b, b"y");
        assert!(store.write(batch).is_err());
        sim.heal();
        assert_eq!(store.get(&key_a).unwrap(), None);
        assert_eq!(store.get(&key_b).unwrap(), None);
    }
    // Nothing was journaled or staged: after reopen the batch is absent on
    // every shard ("all-or-nothing", here "nothing").
    let store = open_sharded(Arc::clone(&env), dir, "flsm", hash_config());
    assert_eq!(store.get(b"base").unwrap(), Some(b"line".to_vec()));
    assert_eq!(store.get(&key_a).unwrap(), None);
    assert_eq!(store.get(&key_b).unwrap(), None);
}

/// Every row of a sharded store's `stats()` is its shards' rows merged by
/// the row's rule. The value-log and compression rows used to read 0 (the
/// hand-written aggregate never copied them), and the device-IO rows are one
/// shared `Env`'s store-wide figures — the same on every shard — so they
/// must not come out multiplied by the shard count.
#[test]
fn sharded_stats_merge_every_row_by_its_rule() {
    for engine in ["flsm", "lsm"] {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let mut options = tiny_options();
        options.value_separation_threshold = 256;
        options.compression = CompressionType::Lz;
        let config = ShardConfig {
            shards: 2,
            partitioner: PartitionerKind::Hash,
        };
        let store = open_sharded_with(env, Path::new("/sharded-stats"), engine, options, config);
        for i in 0..200u16 {
            let value = format!("value-{:04}-", i % 5).repeat(100);
            store.put(&key_of(i), value.as_bytes()).unwrap();
        }
        store.flush().unwrap();

        // Background work may still move counters, and they only grow: the
        // aggregate lies between the per-shard readings around it.
        let before = store.shard_stats();
        let total = store.stats();
        let after = store.shard_stats();
        assert_eq!(before.len(), 2, "{engine}");
        let row = |stats: &StoreStats, name: &str| -> u64 {
            let fields = stats.fields();
            fields.iter().find(|f| f.name == name).unwrap().value
        };
        for name in [
            "user_bytes_written",
            "vlog_bytes_written",
            "compress_input_bytes",
            "compress_output_bytes",
        ] {
            let total = row(&total, name);
            let low: u64 = before.iter().map(|s| row(s, name)).sum();
            let high: u64 = after.iter().map(|s| row(s, name)).sum();
            assert!(total > 0, "{engine}: {name} reads 0");
            assert!(
                low <= total && total <= high,
                "{engine}: {name} = {total} is not the sum of its shards ({low}..={high})"
            );
        }
        for name in ["bytes_written", "bytes_read"] {
            let total = row(&total, name);
            let low = before.iter().map(|s| row(s, name)).min().unwrap();
            let high = after.iter().map(|s| row(s, name)).max().unwrap();
            assert!(
                low <= total && total <= high,
                "{engine}: {name} = {total} is not one shard's store-wide reading ({low}..={high})"
            );
        }
        assert!(total.bytes_written > 0, "{engine}");
    }
}

#[test]
fn sharded_column_families_route_and_aggregate() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let store = open_sharded(env, Path::new("/sharded-cf"), "flsm", hash_config());
    let users = store.create_cf("users").unwrap();
    let events = store.create_cf("events").unwrap();
    for i in 0..200u16 {
        users.put(&key_of(i), format!("u{i}").as_bytes()).unwrap();
        events.put(&key_of(i), format!("e{i}").as_bytes()).unwrap();
    }
    // Families are isolated even though they share the shards.
    assert_eq!(users.get(&key_of(7)).unwrap(), Some(b"u7".to_vec()));
    assert_eq!(events.get(&key_of(7)).unwrap(), Some(b"e7".to_vec()));
    assert_eq!(store.get(&key_of(7)).unwrap(), None, "default cf untouched");

    // A batch spanning families and shards commits atomically.
    let mut batch = WriteBatch::new();
    let (key_a, key_b) = keys_on_shards_0_and_1();
    batch.put_cf(users.id(), &key_a, b"alice");
    batch.put_cf(events.id(), &key_b, b"login");
    store.write(batch).unwrap();
    assert_eq!(users.get(&key_a).unwrap(), Some(b"alice".to_vec()));
    assert_eq!(events.get(&key_b).unwrap(), Some(b"login".to_vec()));

    let stats = store.cf_stats();
    assert_eq!(stats.len(), 3, "default + users + events");

    // Aggregate store stats advertise the topology; the per-shard view has
    // one entry per shard.
    assert_eq!(store.stats().num_shards, 4);
    let per_shard = store.shard_stats();
    assert_eq!(per_shard.len(), 4);
    let summed: u64 = per_shard.iter().map(|s| s.user_bytes_written).sum();
    assert_eq!(summed, store.stats().user_bytes_written);

    store.drop_cf("events").unwrap();
    assert!(store.cf("events").is_none());
    assert!(store.list_cfs().iter().any(|n| n == "users"));

    // Writes addressed at the dropped family fail cleanly and do not poison
    // the store.
    let mut stale = WriteBatch::new();
    stale.put_cf(events.id(), b"zombie", b"write");
    assert!(store.write(stale).is_err());
    store.put(b"alive", b"yes").unwrap();
    assert_eq!(store.get(b"alive").unwrap(), Some(b"yes".to_vec()));
}

/// `committed_sequence()` is the visibility watermark: it advances with
/// every write — point or cross-shard — and is the sequence a snapshot taken
/// at that moment pins. (It used to be the trait default, a constant 0.)
#[test]
fn committed_sequence_is_the_visibility_watermark() {
    for engine in ["flsm", "lsm"] {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let store = open_sharded(env, Path::new("/sharded-seq"), engine, hash_config());
        assert_eq!(store.committed_sequence(), 0, "{engine}: fresh store");
        let mut last = 0;
        for i in 0..20u16 {
            store.put(&key_of(i), b"v").unwrap();
            let now = store.committed_sequence();
            assert_eq!(now, last + 1, "{engine}: one put is one sequence");
            assert_eq!(store.snapshot().sequence(), now, "{engine}");
            last = now;
        }
        let (key_a, key_b) = keys_on_shards_0_and_1();
        let mut batch = WriteBatch::new();
        batch.put(&key_a, b"a");
        batch.put(&key_b, b"b");
        batch.delete(&key_of(3));
        store.write(batch).unwrap();
        assert_eq!(store.committed_sequence(), last + 3, "{engine}");
        assert_eq!(store.snapshot().sequence(), last + 3, "{engine}");
    }
}
