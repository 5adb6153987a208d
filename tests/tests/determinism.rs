//! The `Env` owns time and threads, and with `compaction_threads = 0` a
//! store starts none: every flush and compaction runs on the thread whose
//! call made it due. The tree is then a function of the operations applied
//! — same sequence, same MANIFEST bytes, same files, same `LevelTable` —
//! which is what lets a failure be replayed from a seed.
//!
//! To replay one: the panic message names the shape and the seed; run
//! `fingerprint` with them (and `None`) under a debugger or with prints.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pebblesdb::FlsmPolicy;
use pebblesdb_common::{ColumnFamilyHandle, Db, Error, KvStore, ReadOptions, StoreOptions};
use pebblesdb_engine::{EngineDb, LevelTable, ShapePolicy};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::LsmPolicy;
use pebblesdb_replica::{FollowerConfig, FollowerDb};
use pebblesdb_tests::sim_over;

const OPS: usize = 24_000;
const KEYS: u32 = 3_000;
const DIR: &str = "/determinism";

fn options(compaction_threads: usize) -> StoreOptions {
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = 16 << 10;
    opts.max_file_size = 8 << 10;
    opts.base_level_bytes = 32 << 10;
    opts.level0_compaction_trigger = 2;
    opts.top_level_bits = 8;
    opts.bit_decrement = 1;
    opts.compaction_threads = compaction_threads;
    opts
}

fn open<P: ShapePolicy>(policy: fn(&StoreOptions) -> P, env: &Arc<dyn Env>) -> EngineDb<P> {
    let opts = options(0);
    EngineDb::open(policy(&opts), Arc::clone(env), Path::new(DIR), opts).unwrap()
}

fn families<P: ShapePolicy>(db: &EngineDb<P>) -> Vec<ColumnFamilyHandle> {
    let named = |name: &str| db.cf(name).unwrap_or_else(|| db.create_cf(name).unwrap());
    vec![db.default_cf(), named("alpha"), named("beta")]
}

/// Everything a store left behind that the run should have decided.
#[derive(PartialEq)]
struct Fingerprint {
    /// `(name, size)` of every file, per directory.
    listing: BTreeMap<String, Vec<(String, u64)>>,
    /// The bytes of every MANIFEST.
    manifests: BTreeMap<String, Vec<u8>>,
    /// The default family's per-level table.
    levels: LevelTable,
    /// `(id, files, live bytes, flushes)` of every family.
    families: Vec<(u32, u64, u64, u64)>,
    /// Bursts of cursors during which a compaction ran.
    seek_merges: usize,
}

/// Applies the sequence `seed` generates — with op number `changed`, if
/// any, replaced by a different put — to a fresh store of `policy`'s shape
/// without background threads.
fn fingerprint<P: ShapePolicy>(
    policy: fn(&StoreOptions) -> P,
    seed: u64,
    changed: Option<usize>,
) -> Fingerprint {
    let (probe, env) = sim_over(MemEnv::new());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = open(policy, &env);
    let mut cfs = families(&db);
    let mut seek_merges = 0;
    for index in 0..OPS {
        let family = rng.gen_range(0..3usize);
        let key = format!("key{:05}", rng.gen_range(0..KEYS));
        let kind = rng.gen_range(0..100u32);
        let len = rng.gen_range(16..80usize);
        if changed == Some(index) {
            cfs[0].put(b"key00000", b"the one op that differs").unwrap();
        } else if kind < 80 {
            cfs[family]
                .put(key.as_bytes(), &vec![kind as u8; len])
                .unwrap();
        } else {
            cfs[family].delete(key.as_bytes()).unwrap();
        }
        if index % 3_000 == 2_999 {
            // A read-only phase: consecutive cursors arm seek-triggered
            // merges, which have run by the time the cursor is handed out.
            let before = db.stats().compactions;
            for _ in 0..30 {
                let mut iter = cfs[family].iter(&ReadOptions::default()).unwrap();
                iter.seek(key.as_bytes());
                for _ in 0..10 {
                    if !iter.valid() {
                        break;
                    }
                    iter.next();
                }
            }
            seek_merges += usize::from(db.stats().compactions > before);
        }
        if index == OPS / 3 {
            db.flush().unwrap();
        }
        if index == OPS / 2 {
            // A reopen mid-way: recovery replays the WAL into the same tree.
            drop(cfs);
            drop(db);
            db = open(policy, &env);
            cfs = families(&db);
        }
    }
    db.flush().unwrap();
    let levels = db.levels();
    let families = db.cf_stats().into_iter();
    let families = families.map(|cf| (cf.id, cf.num_files, cf.live_bytes, cf.flushes));
    let families = families.collect();
    drop(cfs);
    drop(db);
    assert_eq!(
        probe.spawn_calls(),
        0,
        "a store without workers asked for a thread"
    );

    let mut listing = BTreeMap::new();
    let mut manifests = BTreeMap::new();
    let root = Path::new(DIR);
    // The default family lives in the root, the other two beside it.
    for dir in [root.to_path_buf(), root.join("cf-1"), root.join("cf-2")] {
        let mut files = Vec::new();
        for name in env.children(&dir).unwrap() {
            let path = dir.join(&name);
            let Ok(size) = env.file_size(&path) else {
                continue; // a family's directory, on an env that lists them
            };
            files.push((name.clone(), size));
            if name.starts_with("MANIFEST") {
                let bytes = env.read_file_to_vec(&path).unwrap();
                manifests.insert(path.to_string_lossy().into_owned(), bytes);
            }
        }
        files.sort();
        listing.insert(dir.to_string_lossy().into_owned(), files);
    }
    Fingerprint {
        listing,
        manifests,
        levels,
        families,
        seek_merges,
    }
}

fn same_inputs_same_tree<P: ShapePolicy>(
    shape: &str,
    policy: fn(&StoreOptions) -> P,
) -> Fingerprint {
    let seed = 0x5eed_0027;
    let first = fingerprint(policy, seed, None);
    let second = fingerprint(policy, seed, None);
    let context = format!("{shape}, seed {seed:#x}");
    assert!(
        first.manifests == second.manifests,
        "{context}: MANIFEST bytes differ"
    );
    assert_eq!(first.listing, second.listing, "{context}: files differ");
    assert_eq!(first.levels, second.levels, "{context}: LevelTable differs");
    assert_eq!(
        first.families, second.families,
        "{context}: families differ"
    );
    assert!(first == second, "{context}");

    // The run decided something: three directories, a tree below level 0.
    assert_eq!(first.listing.len(), 3, "{context}");
    assert_eq!(first.manifests.len(), 3, "{context}");
    assert!(
        first.levels.iter().skip(1).any(|row| row.files > 0),
        "{context}: {}",
        first.levels
    );

    // And the comparison can fail: one op changed, a different store.
    let other = fingerprint(policy, seed, Some(OPS / 4));
    assert!(first != other, "{context}: a changed op left no trace");
    first
}

#[test]
fn flsm_without_workers_is_a_function_of_its_operations() {
    let run = same_inputs_same_tree("FLSM", FlsmPolicy::new);
    // The sequence's read-only phases did arm seek-triggered merges.
    assert!(run.seek_merges > 0);
}

#[test]
fn lsm_without_workers_is_a_function_of_its_operations() {
    same_inputs_same_tree("LSM", LsmPolicy::new);
}

/// With workers, the threads come from `Env::spawn` under the names the
/// engine gives them, and are joined with the store.
#[test]
fn workers_are_started_through_the_env_under_their_names() {
    let (env, dyn_env) = sim_over(MemEnv::new());
    let opts = options(2);
    let flsm = EngineDb::open(
        FlsmPolicy::new(&opts),
        Arc::clone(&dyn_env),
        Path::new("/a"),
        opts.clone(),
    );
    let lsm = EngineDb::open(LsmPolicy::new(&opts), dyn_env, Path::new("/b"), opts);
    let (flsm, lsm) = (flsm.unwrap(), lsm.unwrap());
    let mut expected = Vec::new();
    for label in [flsm.engine_name(), lsm.engine_name()] {
        let label = label.to_ascii_lowercase();
        expected.extend([
            format!("{label}-compact-0"),
            format!("{label}-compact-1"),
            format!("{label}-flush"),
        ]);
    }
    assert_eq!(env.spawn_calls(), 6);
    assert_eq!(env.running_threads(), 6);
    drop((flsm, lsm));
    assert_eq!(
        env.running_threads(),
        0,
        "dropping the store joins its threads"
    );
    let mut names = env.thread_names();
    names.sort();
    expected.sort();
    assert_eq!(names, expected);
}

/// A thread that cannot be started fails the open with the env's error,
/// and the threads started before it are stopped and joined, not leaked.
#[test]
fn a_failed_spawn_fails_the_open_and_joins_the_threads_already_started() {
    let (env, dyn_env) = sim_over(MemEnv::new());
    env.fail_spawn_after(2);
    let opts = options(4);
    let opened = EngineDb::open(FlsmPolicy::new(&opts), dyn_env, Path::new(DIR), opts);
    assert!(matches!(opened.err(), Some(Error::Internal(_))));
    assert_eq!(env.spawn_calls(), 3);
    assert_eq!(
        env.running_threads(),
        0,
        "the flush thread and a worker leaked"
    );
    assert_eq!(env.thread_names().len(), 2);
}

/// A follower's replication thread is its store's `Env`'s to start as well:
/// when the engine's workers start and that one does not, the open fails
/// with the env's error and the workers are joined.
#[test]
fn a_follower_whose_thread_cannot_start_fails_the_open_and_joins_the_workers() {
    let (env, dyn_env) = sim_over(MemEnv::new());
    let opts = options(2);
    // The flush thread and two compaction workers; the fourth is refused.
    env.fail_spawn_after(3);
    let config = FollowerConfig {
        leader_addr: "127.0.0.1:1".to_string(),
        ..FollowerConfig::default()
    };
    let opened = FollowerDb::open_with(FlsmPolicy::new, dyn_env, Path::new(DIR), opts, config);
    assert!(matches!(opened.err(), Some(Error::Internal(_))));
    assert_eq!(env.spawn_calls(), 4, "the follower asked the env");
    assert_eq!(env.running_threads(), 0, "the engine's workers leaked");
    assert_eq!(env.thread_names().len(), 3);
}

/// One load of the zero-worker identity protocol: its shape, seed,
/// `level0_compaction_trigger`, operations, key count, operations between
/// bursts of cursors, and the options the deep loads change.
struct Load {
    lsm: bool,
    seed: u64,
    trigger: usize,
    ops: usize,
    keys: u32,
    cursor_every: usize,
    deep: Option<u64>,
}

/// Runs `load` on a fresh `MemEnv` store with no workers and returns one
/// hash of what it left: every key's value read back after `flush()`, then
/// every file's name and bytes, in name order. Only the public store API is
/// used, so the same function runs against any earlier tree.
fn identity_hash(load: &Load) -> u64 {
    use pebblesdb::PebblesDb;
    use pebblesdb_common::StorePreset;
    use pebblesdb_lsm::LsmDb;
    use std::hash::{DefaultHasher, Hash, Hasher};

    let mut opts = StoreOptions::default();
    opts.compaction_threads = 0;
    opts.write_buffer_size = 16 << 10;
    opts.max_file_size = 8 << 10;
    opts.top_level_bits = 8;
    opts.bit_decrement = 1;
    opts.level0_stop_writes_trigger = 12;
    opts.level0_compaction_trigger = load.trigger;
    opts.base_level_bytes = 32 << 10;
    opts.seek_compaction_threshold = 5;
    if let Some(base_level_bytes) = load.deep {
        opts.base_level_bytes = base_level_bytes;
        opts.max_sstables_per_guard = 2;
        opts.seek_compaction_threshold = 3;
    }
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = Path::new("/identity");
    let db: Box<dyn KvStore> = if load.lsm {
        let preset = StorePreset::HyperLevelDb;
        Box::new(LsmDb::open_with_options(Arc::clone(&env), dir, opts, preset).unwrap())
    } else {
        Box::new(PebblesDb::open_with_options(Arc::clone(&env), dir, opts).unwrap())
    };
    let mut rng = StdRng::seed_from_u64(load.seed);
    let key = |rng: &mut StdRng| format!("key{:06}", rng.gen_range(0..load.keys));
    for index in 0..load.ops {
        let user_key = key(&mut rng);
        if rng.gen_range(0..100) < 80 {
            let value: Vec<u8> = (0..rng.gen_range(50..150)).map(|_| rng.gen()).collect();
            db.put(user_key.as_bytes(), &value).unwrap();
        } else {
            db.delete(user_key.as_bytes()).unwrap();
        }
        if index % load.cursor_every == load.cursor_every - 1 {
            for _ in 0..30 {
                let mut iter = db.iter(&ReadOptions::default()).unwrap();
                iter.seek(key(&mut rng).as_bytes());
                for _ in 0..rng.gen_range(0..=5) {
                    if iter.valid() {
                        iter.next();
                    }
                }
            }
        }
    }
    db.flush().unwrap();
    let mut hasher = DefaultHasher::new();
    for n in 0..load.keys {
        db.get(format!("key{n:06}").as_bytes())
            .unwrap()
            .hash(&mut hasher);
    }
    drop(db);
    let mut names = env.children(dir).unwrap();
    names.sort();
    for name in names {
        name.hash(&mut hasher);
        env.read_file_to_vec(&dir.join(&name))
            .unwrap()
            .hash(&mut hasher);
    }
    hasher.finish()
}

/// Prints one hash per load of the zero-worker identity protocol, 16 per
/// shape, for comparing two trees: copy this file into the other checkout
/// and run, in each,
/// `cargo test --release -p pebblesdb-tests --test determinism zero_worker_identity -- --ignored --nocapture`.
/// Base loads: seeds 1-6 at `level0_compaction_trigger` 4 and 1, 30,000
/// operations over 8,000 keys, cursors every 3,000. Deep loads: seeds
/// 101-104 at trigger 2, 60,000 operations over 6,000 keys, cursors every
/// 500, `base_level_bytes` 256 (101, 102) or 16 (103, 104).
#[test]
#[ignore]
fn zero_worker_identity() {
    let mut loads = Vec::new();
    for lsm in [false, true] {
        for seed in 1..=6 {
            for trigger in [4, 1] {
                let (ops, keys, cursor_every, deep) = (30_000, 8_000, 3_000, None);
                loads.push(Load {
                    lsm,
                    seed,
                    trigger,
                    ops,
                    keys,
                    cursor_every,
                    deep,
                });
            }
        }
        for seed in 101..=104 {
            let deep = Some(if seed <= 102 { 256 } else { 16 });
            let (trigger, ops, keys, cursor_every) = (2, 60_000, 6_000, 500);
            loads.push(Load {
                lsm,
                seed,
                trigger,
                ops,
                keys,
                cursor_every,
                deep,
            });
        }
    }
    for load in &loads {
        let shape = if load.lsm { "lsm" } else { "flsm" };
        let (seed, trigger) = (load.seed, load.trigger);
        println!(
            "{shape} seed {seed} trigger {trigger}: {:016x}",
            identity_hash(load)
        );
    }
}
