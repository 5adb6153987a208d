//! Property-style tests: random operation sequences applied to the engines
//! must match a reference `BTreeMap` model, and core encodings must
//! round-trip for arbitrary inputs.
//!
//! The cases are generated with a seeded RNG (the workspace builds offline,
//! so there is no `proptest` dependency); every failure therefore reproduces
//! deterministically.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pebblesdb::PebblesDb;
use pebblesdb_common::batch::WriteBatch;
use pebblesdb_common::coding;
use pebblesdb_common::key::{
    compare_internal_keys, encode_internal_key, parse_internal_key, ValueType,
};
use pebblesdb_common::snapshot::Snapshot;
use pebblesdb_common::{ColumnFamilyHandle, Db, KvStore, StoreOptions, StorePreset};
use pebblesdb_env::{Env, MemEnv, SimEnv};
use pebblesdb_lsm::LsmDb;

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

/// One step of the model-based test.
#[derive(Debug, Clone)]
enum Op {
    Put(u16, Vec<u8>),
    Delete(u16),
    Scan(u16, u8),
}

fn random_op(rng: &mut StdRng) -> Op {
    let key = rng.gen_range(0..512u16);
    match rng.gen_range(0..6u32) {
        0..=3 => {
            let len = rng.gen_range(0..64usize);
            let value: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
            Op::Put(key, value)
        }
        4 => Op::Delete(key),
        _ => Op::Scan(key, rng.gen::<u8>()),
    }
}

fn key_of(id: u16) -> Vec<u8> {
    format!("key{id:05}").into_bytes()
}

fn check_engine_against_model(store: &dyn KvStore, ops: &[Op]) {
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Put(id, value) => {
                store.put(&key_of(*id), value).unwrap();
                model.insert(key_of(*id), value.clone());
            }
            Op::Delete(id) => {
                store.delete(&key_of(*id)).unwrap();
                model.remove(&key_of(*id));
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
        }
    }
    // Final full agreement check, both before and after a flush.
    for check_after_flush in [false, true] {
        if check_after_flush {
            store.flush().unwrap();
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

fn random_ops(rng: &mut StdRng) -> Vec<Op> {
    let count = rng.gen_range(1..400usize);
    (0..count).map(|_| random_op(rng)).collect()
}

#[test]
fn pebblesdb_matches_model() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for case in 0..8 {
        let ops = random_ops(&mut rng);
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let store = PebblesDb::open_with_options(env, Path::new("/prop"), tiny_options()).unwrap();
        eprintln!("case {case}: {} ops", ops.len());
        check_engine_against_model(&store, &ops);
    }
}

#[test]
fn baseline_lsm_matches_model() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for case in 0..8 {
        let ops = random_ops(&mut rng);
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let store = LsmDb::open_with_options(
            env,
            Path::new("/prop"),
            tiny_options(),
            StorePreset::HyperLevelDb,
        )
        .unwrap();
        eprintln!("case {case}: {} ops", ops.len());
        check_engine_against_model(&store, &ops);
    }
}

/// Deletes over a leveled store three levels deep, run without workers so
/// the tree is a function of the load. A level-1 file's job takes every
/// level-2 file it overlaps, and those can reach past it: a tombstone out
/// there still shadows a value a level-3 file holds. Dropped on the picked
/// file's range alone, such tombstones let 22 of these 8,000 keys read back
/// a deleted value.
#[test]
fn baseline_lsm_deletes_stay_deleted_below_a_jobs_picked_file() {
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = 16 << 10;
    opts.max_file_size = 16 << 10;
    opts.base_level_bytes = 64 << 10;
    opts.compaction_threads = 0;
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let store =
        LsmDb::open_with_options(env, Path::new("/deletes"), opts, StorePreset::HyperLevelDb)
            .unwrap();
    // xorshift64, seeded: the load that showed the resurrected values.
    let mut x = 2u64.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut model = BTreeMap::new();
    for i in 0..30_000usize {
        let key = format!("key{:06}", next() % 8_000).into_bytes();
        if next() % 5 == 0 {
            store.delete(&key).unwrap();
            model.remove(&key);
        } else {
            let len = 20 + (next() % 200) as usize;
            let value: Vec<u8> = (0..len).map(|j| b'a' + ((i + j) % 26) as u8).collect();
            store.put(&key, &value).unwrap();
            model.insert(key, value);
        }
    }
    store.flush().unwrap();
    assert!(store.files_per_level()[3] > 0, "{}", store.level_summary());
    for k in 0..8_000 {
        let key = format!("key{k:06}").into_bytes();
        assert_eq!(
            store.get(&key).unwrap(),
            model.get(&key).cloned(),
            "key {k}"
        );
    }
}

/// Model-based differential test under *concurrent* compaction: one thread
/// applies random put/delete/scan sequences against the store and a
/// `BTreeMap` oracle while a churn thread keeps forcing flushes, so the
/// compaction pool (4 workers) constantly reorganizes the tree underneath
/// the reads. Snapshots pinned along the way must keep replaying the oracle
/// state captured at pin time, no matter how many compactions have committed
/// since. Both engines run through the shared chassis with the same seeds.
/// Returns the most compactions any store ran at once.
fn concurrent_compactions_match_model_and_snapshots(
    open_store: impl Fn(Arc<dyn Env>, StoreOptions) -> Arc<dyn KvStore>,
) -> u64 {
    let seed = 0x5eed_0010;
    let mut max_concurrent = 0;
    let mut rng = StdRng::seed_from_u64(seed);
    // The pool's size is one more input: the last case has no pool, and the
    // two threads below run every flush and compaction themselves.
    for (case, threads) in [4, 4, 4, 0].into_iter().enumerate() {
        eprintln!("seed {seed:#x}, case {case}, compaction_threads {threads}");
        let mut opts = tiny_options();
        opts.compaction_threads = threads;
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let store = open_store(env, opts);

        let stop = Arc::new(AtomicBool::new(false));
        let churn = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            // Forcing memtable rotations makes level-0 fill up fast, keeping
            // the compaction pool busy for the whole run.
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    store.flush().expect("churn flush must not hit bg_error");
                    std::thread::yield_now();
                }
            })
        };

        let ops: Vec<Op> = (0..600).map(|_| random_op(&mut rng)).collect();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        type PinnedState = (Snapshot, BTreeMap<Vec<u8>, Vec<u8>>);
        let mut pinned: Vec<PinnedState> = Vec::new();
        for (index, op) in ops.iter().enumerate() {
            match op {
                Op::Put(id, value) => {
                    store.put(&key_of(*id), value).unwrap();
                    model.insert(key_of(*id), value.clone());
                }
                Op::Delete(id) => {
                    store.delete(&key_of(*id)).unwrap();
                    model.remove(&key_of(*id));
                }
                Op::Scan(id, limit) => {
                    let limit = (*limit as usize % 20) + 1;
                    let got = store.scan(&key_of(*id), &[], limit).unwrap();
                    let expected: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(key_of(*id)..)
                        .take(limit)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    assert_eq!(got, expected, "case {case}: scan at op {index}");
                }
            }
            if index % 150 == 0 {
                pinned.push((store.snapshot(), model.clone()));
            }
        }
        stop.store(true, Ordering::Release);
        churn.join().unwrap();

        // Every pinned snapshot still replays the oracle state captured at
        // pin time, even though compactions have rewritten the tree since.
        for (pin_index, (snapshot, pinned_model)) in pinned.iter().enumerate() {
            let read_opts = snapshot.read_options();
            for id in 0..512u16 {
                assert_eq!(
                    store.get_opts(&read_opts, &key_of(id)).unwrap(),
                    pinned_model.get(&key_of(id)).cloned(),
                    "case {case}: snapshot {pin_index}, key {id}"
                );
            }
            let got = store.scan_opts(&read_opts, b"key", &[], 10_000).unwrap();
            let expected: Vec<(Vec<u8>, Vec<u8>)> = pinned_model
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(got, expected, "case {case}: snapshot {pin_index} full scan");
        }
        drop(pinned);

        // Final agreement before and after a last full flush.
        for check_after_flush in [false, true] {
            if check_after_flush {
                store.flush().unwrap();
            }
            for id in 0..512u16 {
                assert_eq!(
                    store.get(&key_of(id)).unwrap(),
                    model.get(&key_of(id)).cloned(),
                    "case {case}: key {id} (after_flush={check_after_flush})"
                );
            }
            let got = store.scan(b"key", &[], 10_000).unwrap();
            let expected: Vec<(Vec<u8>, Vec<u8>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(got, expected, "case {case}: full scan");
        }
        max_concurrent = max_concurrent.max(store.stats().max_concurrent_compactions);
    }
    max_concurrent
}

/// The FLSM engine under the concurrent differential harness. Debug builds
/// additionally run `Version::validate()` after every concurrent commit
/// (guards sorted and disjoint), via the `debug_assert!` inside
/// `log_and_apply`.
#[test]
fn pebblesdb_concurrent_compactions_match_model_and_snapshots() {
    concurrent_compactions_match_model_and_snapshots(|env, opts| {
        Arc::new(PebblesDb::open_with_options(env, Path::new("/prop-conc"), opts).unwrap())
    });
}

/// The LSM baseline through the *same* chassis code paths (flush thread,
/// worker pool, claim bookkeeping, GC) with the same seeds: its leveled
/// jobs, run side by side where their key ranges are free, must keep the
/// model under a 4-worker pool, and snapshots pinned mid-stream must keep
/// replaying their oracle state. The run must really overlap jobs, or the
/// model would check serial ones only: 1 KiB levels and tables put the
/// stores' few dozen KiB across three levels of many files, and slow table
/// writes keep each job in flight long enough for another to start.
#[test]
fn baseline_lsm_concurrent_compactions_match_model_and_snapshots() {
    let max_concurrent = concurrent_compactions_match_model_and_snapshots(|env, mut opts| {
        opts.base_level_bytes = 1 << 10;
        opts.max_file_size = 1 << 10;
        let sim = SimEnv::new(env);
        sim.set_append_latency(".sst", Duration::from_micros(30));
        Arc::new(
            LsmDb::open_with_options(
                Arc::new(sim),
                Path::new("/prop-conc"),
                opts,
                StorePreset::HyperLevelDb,
            )
            .unwrap(),
        )
    });
    assert!(
        max_concurrent >= 2,
        "leveled jobs never overlapped (max concurrency {max_concurrent})"
    );
}

/// The concurrent differential harness over **three column families**: one
/// `BTreeMap` oracle per family, random ops routed across them (including
/// cross-family atomic twin-puts), a churn thread forcing flushes so the
/// compaction pool keeps reorganising every family's tree, and snapshots
/// pinned mid-stream. Because all families share one sequence space, a
/// pinned snapshot must replay the oracle state of *every* family as
/// captured at the same instant — cross-family consistency, not just
/// per-family.
fn concurrent_compactions_match_model_across_families(
    open_store: impl Fn(Arc<dyn Env>, StoreOptions) -> Arc<dyn Db>,
) {
    #[derive(Debug, Clone)]
    enum CfOp {
        Put(usize, u16, Vec<u8>),
        Delete(usize, u16),
        Scan(usize, u16, u8),
        /// One atomic batch writing the key into families 0 and 1.
        TwinPut(u16, Vec<u8>),
    }

    let seed = 0x5eed_0c0f;
    let mut rng = StdRng::seed_from_u64(seed);
    for (case, threads) in [4, 4, 0].into_iter().enumerate() {
        eprintln!("seed {seed:#x}, case {case}, compaction_threads {threads}");
        let mut opts = tiny_options();
        opts.compaction_threads = threads;
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let store = open_store(env, opts);
        let families: Vec<ColumnFamilyHandle> = vec![
            store.default_cf(),
            store.create_cf("alpha").unwrap(),
            store.create_cf("beta").unwrap(),
        ];

        let stop = Arc::new(AtomicBool::new(false));
        let churn = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    store.flush().expect("churn flush must not hit bg_error");
                    std::thread::yield_now();
                }
            })
        };

        let ops: Vec<CfOp> = (0..600)
            .map(|_| {
                let family = rng.gen_range(0..3usize);
                let key = rng.gen_range(0..256u16);
                match rng.gen_range(0..7u32) {
                    0..=2 => {
                        let len = rng.gen_range(0..48usize);
                        CfOp::Put(family, key, (0..len).map(|_| rng.gen::<u8>()).collect())
                    }
                    3 => CfOp::Delete(family, key),
                    4 => CfOp::TwinPut(key, vec![rng.gen::<u8>(); 24]),
                    _ => CfOp::Scan(family, key, rng.gen::<u8>()),
                }
            })
            .collect();

        let mut models: Vec<BTreeMap<Vec<u8>, Vec<u8>>> = vec![BTreeMap::new(); 3];
        type PinnedState = (Snapshot, Vec<BTreeMap<Vec<u8>, Vec<u8>>>);
        let mut pinned: Vec<PinnedState> = Vec::new();
        for (index, op) in ops.iter().enumerate() {
            match op {
                CfOp::Put(family, id, value) => {
                    families[*family].put(&key_of(*id), value).unwrap();
                    models[*family].insert(key_of(*id), value.clone());
                }
                CfOp::Delete(family, id) => {
                    families[*family].delete(&key_of(*id)).unwrap();
                    models[*family].remove(&key_of(*id));
                }
                CfOp::TwinPut(id, value) => {
                    let mut batch = WriteBatch::new();
                    batch.put(&key_of(*id), value);
                    batch.put_cf(families[1].id(), &key_of(*id), value);
                    store.write(batch).unwrap();
                    models[0].insert(key_of(*id), value.clone());
                    models[1].insert(key_of(*id), value.clone());
                }
                CfOp::Scan(family, id, limit) => {
                    let limit = (*limit as usize % 20) + 1;
                    let got = families[*family].scan(&key_of(*id), &[], limit).unwrap();
                    let expected: Vec<(Vec<u8>, Vec<u8>)> = models[*family]
                        .range(key_of(*id)..)
                        .take(limit)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    assert_eq!(got, expected, "case {case}: scan at op {index}");
                }
            }
            if index % 120 == 0 {
                pinned.push((store.snapshot(), models.clone()));
            }
        }
        stop.store(true, Ordering::Release);
        churn.join().unwrap();

        // Each pinned snapshot replays *all three* families' oracle states
        // captured at pin time — one shared sequence, three namespaces.
        for (pin_index, (snapshot, pinned_models)) in pinned.iter().enumerate() {
            let read_opts = snapshot.read_options();
            for (family, model) in pinned_models.iter().enumerate() {
                for id in (0..256u16).step_by(3) {
                    assert_eq!(
                        families[family].get_opts(&read_opts, &key_of(id)).unwrap(),
                        model.get(&key_of(id)).cloned(),
                        "case {case}: snapshot {pin_index}, family {family}, key {id}"
                    );
                }
                let got = families[family]
                    .scan_opts(&read_opts, b"key", &[], 10_000)
                    .unwrap();
                let expected: Vec<(Vec<u8>, Vec<u8>)> =
                    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                assert_eq!(
                    got, expected,
                    "case {case}: snapshot {pin_index}, family {family} full scan"
                );
            }
        }
        drop(pinned);

        // Final agreement for every family, before and after a full flush.
        for check_after_flush in [false, true] {
            if check_after_flush {
                store.flush().unwrap();
            }
            for (family, model) in models.iter().enumerate() {
                let got = families[family].scan(b"key", &[], 10_000).unwrap();
                let expected: Vec<(Vec<u8>, Vec<u8>)> =
                    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                assert_eq!(
                    got, expected,
                    "case {case}: family {family} (after_flush={check_after_flush})"
                );
            }
        }
        assert_eq!(store.stats().num_column_families, 3);
    }
}

/// The FLSM engine under the three-family concurrent differential harness.
#[test]
fn pebblesdb_three_family_differential_with_shared_snapshots() {
    concurrent_compactions_match_model_across_families(|env, opts| {
        Arc::new(PebblesDb::open_with_options(env, Path::new("/prop-cf"), opts).unwrap())
    });
}

/// The LSM baseline through the same chassis code paths and seeds.
#[test]
fn baseline_lsm_three_family_differential_with_shared_snapshots() {
    concurrent_compactions_match_model_across_families(|env, opts| {
        Arc::new(
            LsmDb::open_with_options(env, Path::new("/prop-cf"), opts, StorePreset::HyperLevelDb)
                .unwrap(),
        )
    });
}

#[test]
fn varint_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for _ in 0..2000 {
        // Cover every bit width, not just large values.
        let value = rng.gen::<u64>() >> rng.gen_range(0..64u32);
        let mut buf = Vec::new();
        coding::put_varint64(&mut buf, value);
        let (decoded, used) = coding::decode_varint64(&buf).unwrap();
        assert_eq!(decoded, value);
        assert_eq!(used, buf.len());
        assert_eq!(coding::varint_length(value), buf.len());
    }
}

#[test]
fn internal_keys_roundtrip_and_order() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    for _ in 0..2000 {
        let len = rng.gen_range(0..40usize);
        let user_key: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        let seq = rng.gen::<u64>() >> 8;
        let other_seq = rng.gen::<u64>() >> 8;

        let encoded = encode_internal_key(&user_key, seq, ValueType::Value);
        let parsed = parse_internal_key(&encoded).unwrap();
        assert_eq!(parsed.user_key, user_key.as_slice());
        assert_eq!(parsed.sequence, seq);

        // Same user key: higher sequence numbers sort first.
        let other = encode_internal_key(&user_key, other_seq, ValueType::Value);
        let ordering = compare_internal_keys(&encoded, &other);
        assert_eq!(ordering, other_seq.cmp(&seq));
    }
}

#[test]
fn write_batches_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0005);
    for _ in 0..200 {
        let count = rng.gen_range(0..30usize);
        let entries: Vec<(Vec<u8>, Vec<u8>, bool)> = (0..count)
            .map(|_| {
                let key: Vec<u8> = (0..rng.gen_range(1..20usize))
                    .map(|_| rng.gen::<u8>())
                    .collect();
                let value: Vec<u8> = (0..rng.gen_range(0..50usize))
                    .map(|_| rng.gen::<u8>())
                    .collect();
                (key, value, rng.gen_bool(0.3))
            })
            .collect();

        let mut batch = WriteBatch::new();
        for (key, value, is_delete) in &entries {
            if *is_delete {
                batch.delete(key);
            } else {
                batch.put(key, value);
            }
        }
        batch.set_sequence(42);
        let restored = WriteBatch::from_contents(batch.contents().to_vec()).unwrap();
        assert_eq!(restored.verify().unwrap() as usize, entries.len());
        for (record, (key, value, is_delete)) in restored.iter().zip(entries.iter()) {
            let record = record.unwrap();
            assert_eq!(record.key, key.as_slice());
            if *is_delete {
                assert_eq!(record.value_type, ValueType::Deletion);
            } else {
                assert_eq!(record.value, value.as_slice());
            }
        }
    }
}
