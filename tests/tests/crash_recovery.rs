//! Crash-recovery integration tests: both LSM-family engines must recover
//! all acknowledged data (modulo a torn WAL tail) after a simulated crash at
//! arbitrary points — including the window where a flush or compaction has
//! fully written its output sstables but its MANIFEST commit never happened.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pebblesdb::{GuardPicker, PebblesDb};
use pebblesdb_common::{
    Db, Error, KvStore, ReadOptions, Result, StoreOptions, StorePreset, WriteBatch,
};
use pebblesdb_engine::{EngineDb, ShapePolicy};
use pebblesdb_env::{DiskEnv, Env, MemEnv, SimEnv};
use pebblesdb_lsm::LsmDb;
use pebblesdb_tests::sim_over;

/// Number of `.sst` files physically present in the database directory.
fn tables_on_disk(env: &dyn Env, dir: &Path) -> usize {
    env.children(dir)
        .unwrap()
        .iter()
        .filter(|name| name.ends_with(".sst"))
        .count()
}

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

fn live_wal(env: &dyn Env, dir: &Path) -> std::path::PathBuf {
    let name = env
        .children(dir)
        .unwrap()
        .into_iter()
        .filter(|name| name.ends_with(".log"))
        .max()
        .expect("a live WAL exists");
    dir.join(name)
}

#[test]
fn pebblesdb_recovers_after_torn_wal_at_many_points() {
    // Repeat the crash at several truncation points to cover record
    // boundaries, mid-record cuts and whole-block losses.
    for truncate_by in [1usize, 8, 64, 1000, 5000] {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/crash");
        let written = 3000u32;
        {
            let db = PebblesDb::open_with_options(Arc::clone(&env), dir, small_options()).unwrap();
            for i in 0..written {
                db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            let wal = live_wal(env.as_ref(), dir);
            let size = env.file_size(&wal).unwrap() as usize;
            mem_env
                .truncate_file(&wal, size.saturating_sub(truncate_by))
                .unwrap();
        }
        let db = PebblesDb::open_with_options(Arc::clone(&env), dir, small_options()).unwrap();
        let mut recovered = 0u32;
        for i in 0..written {
            if db.get(format!("key{i:06}").as_bytes()).unwrap().is_some() {
                recovered += 1;
            }
        }
        // Everything outside the torn tail must be present; the tail can lose
        // at most the records covered by the truncated bytes.
        assert!(
            recovered >= written - 200,
            "truncate_by {truncate_by}: only {recovered}/{written} recovered"
        );
        // Prefix property: if key i is missing, no later key may be present
        // (writes were sequential, so durability must be prefix-closed).
        let mut missing_seen = false;
        for i in 0..written {
            let present = db.get(format!("key{i:06}").as_bytes()).unwrap().is_some();
            if missing_seen {
                assert!(!present, "key {i} present after an earlier key was lost");
            }
            if !present {
                missing_seen = true;
            }
        }
        env.remove_dir_all(dir).unwrap();
    }
}

#[test]
fn baseline_lsm_recovers_after_torn_wal() {
    let mem_env = MemEnv::new();
    let env: Arc<dyn Env> = Arc::new(mem_env.clone());
    let dir = Path::new("/crash-lsm");
    let written = 3000u32;
    {
        let db = LsmDb::open_with_options(
            Arc::clone(&env),
            dir,
            small_options(),
            StorePreset::HyperLevelDb,
        )
        .unwrap();
        for i in 0..written {
            db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let wal = live_wal(env.as_ref(), dir);
        let size = env.file_size(&wal).unwrap() as usize;
        mem_env
            .truncate_file(&wal, size.saturating_sub(20))
            .unwrap();
    }
    let db = LsmDb::open_with_options(
        Arc::clone(&env),
        dir,
        small_options(),
        StorePreset::HyperLevelDb,
    )
    .unwrap();
    let mut recovered = 0u32;
    for i in 0..written {
        if db.get(format!("key{i:06}").as_bytes()).unwrap().is_some() {
            recovered += 1;
        }
    }
    assert!(recovered >= written - 50, "{recovered}/{written}");
}

/// Kills the store after a flush wrote its level-0 sstable but before the
/// MANIFEST commit, for both engines: recovery must lose nothing (the WAL
/// still covers the unflushed keys) and the orphan sstable must be reaped.
#[test]
fn crash_between_flush_output_and_manifest_commit_loses_nothing() {
    let dir = std::env::temp_dir().join(format!("pebblesdb-crash-{}", std::process::id()));
    let dir = dir.as_path();
    for (engine, disk) in [
        ("flsm", false),
        ("lsm", false),
        ("flsm", true),
        ("lsm", true),
    ] {
        // The fault is scheduled over the env, whichever it is: an in-memory
        // disk, or real files in a directory removed afterwards.
        let (sim, env) = if disk {
            sim_over(DiskEnv::new())
        } else {
            sim_over(MemEnv::new())
        };
        env.remove_dir_all(dir).unwrap();
        let flsm = engine == "flsm";
        let engine = format!("{engine} on {}", if disk { "disk" } else { "mem" });
        let open = |env: &Arc<dyn Env>| -> Arc<dyn KvStore> {
            if flsm {
                Arc::new(
                    PebblesDb::open_with_options(Arc::clone(env), dir, small_options()).unwrap(),
                )
            } else {
                Arc::new(
                    LsmDb::open_with_options(
                        Arc::clone(env),
                        dir,
                        small_options(),
                        StorePreset::HyperLevelDb,
                    )
                    .unwrap(),
                )
            }
        };

        {
            let db = open(&env);
            for i in 0..3000u32 {
                db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
            // Another memtable's worth of acknowledged writes, still in the
            // WAL when the crash hits.
            for i in 3000..4000u32 {
                db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            let live_before = db.stats().num_files as usize;
            // Every MANIFEST write fails from here on: the flush writes its
            // level-0 table in full, then cannot commit it.
            sim.fail_writes_after("MANIFEST", 0);
            assert!(db.flush().is_err(), "{engine}: flush must surface bg_error");
            assert!(
                tables_on_disk(env.as_ref(), dir) > live_before,
                "{engine}: an orphan (uncommitted) sstable must exist on disk"
            );
        } // <- crash: the store is dropped with the orphan still present.

        sim.heal();
        let db = open(&env);
        for i in 0..4000u32 {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "{engine}: key {i} lost across the crash"
            );
        }
        db.flush().unwrap();
        assert_eq!(
            tables_on_disk(env.as_ref(), dir),
            db.stats().num_files as usize,
            "{engine}: recovery must reap every orphan sstable"
        );
        drop(db);
        env.remove_dir_all(dir).unwrap();
    }
}

/// Kills the FLSM store after a *level* compaction wrote its output
/// fragments but before the MANIFEST commit. The compaction inputs are
/// still referenced by the old version, so recovery sees every key; the
/// orphaned outputs are reaped.
#[test]
fn flsm_crash_during_level_compaction_commit_is_recoverable() {
    let (sim, env) = sim_over(MemEnv::new());
    let dir = Path::new("/crash-compaction");
    // Size-triggered compaction is disabled so the level-0 files pile up
    // deterministically; the compaction is then requested via the
    // seek-compaction trigger once fault injection is armed.
    let mut opts = small_options();
    opts.level0_compaction_trigger = 100;
    opts.level0_stop_writes_trigger = 120;
    opts.enable_aggressive_compaction = false;
    opts.seek_compaction_threshold = 5;

    {
        let db = PebblesDb::open_with_options(Arc::clone(&env), dir, opts.clone()).unwrap();
        for round in 0..3u32 {
            for i in (round * 500)..((round + 1) * 500) {
                db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap(); // one committed level-0 sstable per round
        }
        let live_before = db.stats().num_files as usize;
        assert!(live_before >= 3, "setup should leave several level-0 files");

        sim.fail_writes_after("MANIFEST", 0);
        // Arm the seek-triggered compaction of the overlapping level-0 files.
        for _ in 0..opts.seek_compaction_threshold {
            let mut iter = db.iter(&ReadOptions::default()).unwrap();
            iter.seek(b"key");
        }
        // The compaction writes its outputs, then fails the MANIFEST commit.
        let deadline = Instant::now() + Duration::from_secs(30);
        while db.flush().is_ok() {
            assert!(Instant::now() < deadline, "compaction never hit bg_error");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            tables_on_disk(env.as_ref(), dir) > live_before,
            "orphan compaction outputs must exist on disk"
        );
    } // <- crash.

    sim.heal();
    let db = PebblesDb::open_with_options(Arc::clone(&env), dir, opts).unwrap();
    for i in 0..1500u32 {
        assert_eq!(
            db.get(format!("key{i:06}").as_bytes()).unwrap(),
            Some(format!("v{i}").into_bytes()),
            "key {i} lost across the compaction crash"
        );
    }
    db.flush().unwrap();
    assert_eq!(
        tables_on_disk(env.as_ref(), dir),
        db.stats().num_files as usize,
        "recovery must reap the orphaned compaction outputs"
    );
}

/// Durability of directory entries: sstables, fresh WALs and the CURRENT
/// rename are all `sync_dir`ed before anything references them, so a crash
/// that loses every *unsynced* directory entry (the metadata a real
/// filesystem may drop when the directory was never fsynced) loses no data
/// and leaves the store openable.
///
/// Before the `sync_dir` step existed, the CURRENT rename could roll back
/// to a MANIFEST that no longer matches the data files, and a flushed
/// sstable could vanish while the MANIFEST still referenced it.
#[test]
fn dropped_unsynced_dir_entries_lose_no_acknowledged_data() {
    for engine in ["flsm", "lsm"] {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/crash-dirsync");
        let open = |env: &Arc<dyn Env>| -> Arc<dyn KvStore> {
            if engine == "flsm" {
                Arc::new(
                    PebblesDb::open_with_options(Arc::clone(env), dir, small_options()).unwrap(),
                )
            } else {
                Arc::new(
                    LsmDb::open_with_options(
                        Arc::clone(env),
                        dir,
                        small_options(),
                        StorePreset::HyperLevelDb,
                    )
                    .unwrap(),
                )
            }
        };

        {
            let db = open(&env);
            for i in 0..3000u32 {
                db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
            // A WAL-only tail of acknowledged writes.
            for i in 3000..3500u32 {
                db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
        } // <- power loss.

        assert!(
            mem_env.io_stats().snapshot().dir_syncs > 0,
            "{engine}: the engine never synced its directory"
        );
        // The crash drops every directory entry not covered by a sync_dir.
        mem_env.drop_unsynced_dir_entries();

        let db = open(&env);
        for i in 0..3500u32 {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "{engine}: key {i} lost to an unsynced directory entry"
            );
        }
    }
}

/// Opens either LSM-family engine as a multi-namespace `Db`.
fn open_db_engine(engine: &str, env: &Arc<dyn Env>, dir: &Path) -> Arc<dyn Db> {
    try_open_db_engine(engine, env, dir, small_options()).unwrap()
}

fn try_open_db_engine(
    engine: &str,
    env: &Arc<dyn Env>,
    dir: &Path,
    options: StoreOptions,
) -> Result<Arc<dyn Db>> {
    let env = Arc::clone(env);
    Ok(if engine == "flsm" {
        Arc::new(PebblesDb::open_with_options(env, dir, options)?)
    } else {
        Arc::new(LsmDb::open_with_options(
            env,
            dir,
            options,
            StorePreset::HyperLevelDb,
        )?)
    })
}

/// Every file of the store at `dir`: the root and the directories of
/// families 1 to 3 (`MemEnv` lists files, never directories).
fn files_under(env: &dyn Env, dir: &Path) -> Vec<String> {
    let mut files = env.children(dir).unwrap();
    for id in 1..=3 {
        let inside = env.children(&dir.join(format!("cf-{id}"))).unwrap();
        files.extend(inside.into_iter().map(|file| format!("cf-{id}/{file}")));
    }
    files
}

/// Opens `dir` on an env about to fail a sequential read: the open fails
/// with the `Io` error and deletes nothing.
fn assert_open_fails_with_io_and_deletes_nothing(
    engine: &str,
    probe: &SimEnv,
    dir: &Path,
    options: StoreOptions,
) {
    let env: Arc<dyn Env> = Arc::new(probe.clone());
    let before = files_under(env.as_ref(), dir);
    match try_open_db_engine(engine, &env, dir, options) {
        Err(Error::Io(_)) => {}
        Err(other) => panic!("{engine}: open failed with {other}, not the read error"),
        Ok(_) => panic!("{engine}: open succeeded over a failed read"),
    }
    assert!(
        !probe.read_fault_pending(),
        "{engine}: the fault never fired"
    );
    let after = files_under(env.as_ref(), dir);
    for file in &before {
        assert!(after.contains(file), "{engine}: {file} was deleted");
    }
}

/// A device error in the middle of a WAL is not a torn tail: recovery must
/// fail with it rather than flush what it had read so far and reclaim the
/// log — acknowledged writes past the error would be gone for good.
#[test]
fn an_io_error_inside_the_wal_fails_the_open_and_a_retry_recovers_everything() {
    for engine in ["flsm", "lsm"] {
        let (probe, env) = sim_over(MemEnv::new());
        let dir = Path::new("/io-error-wal");
        // One memtable's worth: every write lives in the one WAL only.
        let options = StoreOptions::default();
        let written = 3000u32;
        {
            let db = try_open_db_engine(engine, &env, dir, options.clone()).unwrap();
            for i in 0..written {
                db.put(format!("key{i:06}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
        }
        // ~35 KB into a log of ~100 KB.
        probe.fail_sequential_read(".log", 5000);
        assert_open_fails_with_io_and_deletes_nothing(engine, &probe, dir, options.clone());

        let db = try_open_db_engine(engine, &env, dir, options).unwrap();
        for i in 0..written {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "{engine}: key{i:06} was acknowledged and is gone"
            );
        }
    }
}

/// The same for the column-family catalog: ending its replay early made the
/// rewrite at open compact every later family away, and the open after that
/// reaped their directories as orphans.
#[test]
fn an_io_error_inside_the_catalog_fails_the_open_and_no_family_is_lost() {
    for engine in ["flsm", "lsm"] {
        let (probe, env) = sim_over(MemEnv::new());
        let dir = Path::new("/io-error-catalog");
        let names = ["alpha", "beta", "gamma"];
        {
            let db = open_db_engine(engine, &env, dir);
            for name in names {
                let cf = db.create_cf(name).unwrap();
                for i in 0..500u32 {
                    cf.put(format!("{name}{i:05}").as_bytes(), name.as_bytes())
                        .unwrap();
                }
            }
            db.flush().unwrap();
        }
        // Past the id-floor record, inside the first family's create edit.
        probe.fail_sequential_read("CFS", 3);
        assert_open_fails_with_io_and_deletes_nothing(engine, &probe, dir, small_options());

        for _ in 0..2 {
            let db = open_db_engine(engine, &env, dir);
            for name in names {
                let cf = db
                    .cf(name)
                    .unwrap_or_else(|| panic!("{engine}: {name} is gone"));
                assert_eq!(cf.scan(b"", &[], 1000).unwrap().len(), 500, "{engine}");
            }
        }
    }
}

/// A failed catalog append can leave a tear in the *middle* of `CFS` if the
/// store keeps appending behind it: replay ends at the tear, so every family
/// created afterwards — acknowledged, written to, flushed — was gone at the
/// next open, and its id was handed out again over its unreaped directory.
/// The next edit after a failure rewrites the catalog from the live state.
#[test]
fn a_failed_catalog_append_is_not_buried_under_later_edits() {
    for engine in ["flsm", "lsm"] {
        let (sim, env) = sim_over(MemEnv::new());
        let dir = Path::new("/catalog-tear");
        let mut options = small_options();
        options.compaction_threads = 0;
        let c_id = {
            let db = try_open_db_engine(engine, &env, dir, options.clone()).unwrap();
            db.create_cf("a").unwrap();
            // The record's header lands, its payload does not.
            sim.fail_writes_after("CFS", 1);
            assert!(db.create_cf("b").is_err(), "{engine}");
            sim.heal();
            let c = db.create_cf("c").unwrap();
            c.put(b"k", b"from-c").unwrap();
            db.flush().unwrap();
            c.id()
        };
        let db = try_open_db_engine(engine, &env, dir, options).unwrap();
        assert_eq!(db.list_cfs(), ["default", "a", "c"], "{engine}");
        let c = db.cf("c").unwrap();
        assert_eq!(c.get(b"k").unwrap(), Some(b"from-c".to_vec()), "{engine}");
        for name in ["d", "e"] {
            let cf = db.create_cf(name).unwrap();
            assert!(cf.id() > c_id, "{engine}: {name} reuses an id");
            assert_eq!(cf.get(b"k").unwrap(), None, "{engine}: {name} is not empty");
        }
    }
}

/// Column-family lifecycle, crash window 1: records written to several
/// families after a create live only in the shared WAL when the crash hits;
/// replay must route every record into its own family. A second create whose
/// catalog edit committed but whose directory initialisation crashed must
/// come back as an empty, usable family.
#[test]
fn cf_wal_replay_routes_records_into_their_families() {
    for engine in ["flsm", "lsm"] {
        let (sim, env) = sim_over(MemEnv::new());
        let dir = Path::new("/crash-cf-route");
        {
            let db = open_db_engine(engine, &env, dir);
            let users = db.create_cf("users").unwrap();
            for i in 0..500u32 {
                db.put(format!("d{i:04}").as_bytes(), b"default").unwrap();
                users.put(format!("u{i:04}").as_bytes(), b"users").unwrap();
            }
            // The create edit for "broken" commits to the catalog, then the
            // family's own MANIFEST initialisation dies — the crash window
            // between the catalog commit and the directory setup.
            sim.fail_writes_after(&format!("{}/cf-", dir.display()), 0);
            assert!(db.create_cf("broken").is_err());
        } // <- crash: everything above lives in the WAL only.

        sim.heal();
        let db = open_db_engine(engine, &env, dir);
        let mut names = db.list_cfs();
        names.sort();
        assert_eq!(
            names,
            vec![
                "broken".to_string(),
                "default".to_string(),
                "users".to_string()
            ],
            "{engine}: catalog entries survive the crash"
        );
        let users = db.cf("users").unwrap();
        for i in (0..500u32).step_by(17) {
            assert_eq!(
                db.get(format!("d{i:04}").as_bytes()).unwrap(),
                Some(b"default".to_vec()),
                "{engine}: default-family record lost or misrouted"
            );
            assert_eq!(
                users.get(format!("u{i:04}").as_bytes()).unwrap(),
                Some(b"users".to_vec()),
                "{engine}: users-family record lost or misrouted"
            );
            // No bleed-through between namespaces.
            assert_eq!(db.get(format!("u{i:04}").as_bytes()).unwrap(), None);
            assert_eq!(users.get(format!("d{i:04}").as_bytes()).unwrap(), None);
        }
        // The half-created family recovered as an empty, usable namespace.
        let broken = db.cf("broken").unwrap();
        assert!(broken.scan(b"", &[], 10).unwrap().is_empty());
        broken.put(b"now", b"works").unwrap();
        assert_eq!(broken.get(b"now").unwrap(), Some(b"works".to_vec()));
    }
}

/// Column-family lifecycle, crash window 2: the drop edit committed to the
/// catalog but the crash struck before the family's directory was deleted.
/// Reopen must reap the orphaned directory (sstables included), drop the
/// family's WAL records instead of resurrecting them, and leave the
/// surviving families intact.
#[test]
fn cf_drop_commit_without_dir_removal_reaps_orphans() {
    for engine in ["flsm", "lsm"] {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/crash-cf-drop");
        let temp_id;
        {
            let db = open_db_engine(engine, &env, dir);
            let keep = db.create_cf("keep").unwrap();
            let temp = db.create_cf("temp").unwrap();
            temp_id = temp.id();
            for i in 0..2000u32 {
                keep.put(format!("k{i:05}").as_bytes(), b"keep").unwrap();
                temp.put(format!("t{i:05}").as_bytes(), b"temp").unwrap();
            }
            db.flush().unwrap(); // both families own sstables now
                                 // More WAL-only records for the doomed family.
            for i in 2000..2500u32 {
                temp.put(format!("t{i:05}").as_bytes(), b"temp").unwrap();
            }
        } // <- clean close; now fabricate the torn drop.

        let temp_dir = dir.join(format!("cf-{temp_id}"));
        assert!(
            !env.children(&temp_dir).unwrap().is_empty(),
            "{engine}: setup must leave sstables in the family directory"
        );
        // Commit the drop edit exactly as `drop_cf` does — and "crash"
        // before the directory removal that would normally follow.
        let data = pebblesdb_engine::catalog::read(env.as_ref(), dir).unwrap();
        let mut catalog =
            pebblesdb_engine::catalog::Catalog::rewrite(Arc::clone(&env), dir, &data).unwrap();
        catalog
            .append(&pebblesdb_engine::catalog::CatalogEdit::Drop(temp_id))
            .unwrap();
        drop(catalog);

        let db = open_db_engine(engine, &env, dir);
        assert!(db.cf("temp").is_none(), "{engine}: dropped family is gone");
        assert!(
            env.children(&temp_dir).unwrap().is_empty(),
            "{engine}: orphaned family sstables must be reaped on reopen"
        );
        let keep = db.cf("keep").unwrap();
        for i in (0..2000u32).step_by(97) {
            assert_eq!(
                keep.get(format!("k{i:05}").as_bytes()).unwrap(),
                Some(b"keep".to_vec()),
                "{engine}: surviving family lost data"
            );
        }
        // A recreated family with the same name is a fresh id and empty —
        // the dead family's WAL records must not resurface in it.
        let recreated = db.create_cf("temp").unwrap();
        assert!(recreated.id() > temp_id, "{engine}: ids are never reused");
        assert!(recreated.scan(b"", &[], 10).unwrap().is_empty());
    }
}

/// Cross-family atomic batches: a batch spanning the default family and an
/// index family either fully survives a torn-WAL crash or fully vanishes —
/// never a row without its index entry or vice versa.
#[test]
fn cross_cf_batches_are_atomic_across_torn_wal() {
    for engine in ["flsm", "lsm"] {
        for truncate_by in [1usize, 37, 500, 4000] {
            let mem_env = MemEnv::new();
            let env: Arc<dyn Env> = Arc::new(mem_env.clone());
            let dir = Path::new("/crash-cf-atomic");
            let written = 800u32;
            {
                let db = open_db_engine(engine, &env, dir);
                let index = db.create_cf("index").unwrap();
                for i in 0..written {
                    let mut batch = WriteBatch::new();
                    batch.put(format!("row{i:05}").as_bytes(), b"payload");
                    batch.put_cf(index.id(), format!("idx{i:05}").as_bytes(), b"entry");
                    db.write(batch).unwrap();
                }
                let wal = live_wal(env.as_ref(), dir);
                let size = env.file_size(&wal).unwrap() as usize;
                mem_env
                    .truncate_file(&wal, size.saturating_sub(truncate_by))
                    .unwrap();
            } // <- crash with a torn WAL tail.

            let db = open_db_engine(engine, &env, dir);
            let index = db.cf("index").unwrap();
            let mut survivors = 0u32;
            for i in 0..written {
                let row = db.get(format!("row{i:05}").as_bytes()).unwrap().is_some();
                let idx = index
                    .get(format!("idx{i:05}").as_bytes())
                    .unwrap()
                    .is_some();
                assert_eq!(
                    row, idx,
                    "{engine}/truncate {truncate_by}: batch {i} applied to only one family"
                );
                if row {
                    survivors += 1;
                }
            }
            assert!(
                survivors >= written - 100,
                "{engine}/truncate {truncate_by}: only {survivors}/{written} batches survived"
            );
            env.remove_dir_all(dir).unwrap();
        }
    }
}

#[test]
fn repeated_reopen_preserves_data_and_guards() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = Path::new("/reopen");
    let mut expected_guards = None;
    for round in 0..4u32 {
        let db = PebblesDb::open_with_options(Arc::clone(&env), dir, small_options()).unwrap();
        // Every round adds a new slice of keys and verifies all previous ones.
        for i in (round * 1000)..((round + 1) * 1000) {
            db.put(
                format!("key{i:06}").as_bytes(),
                format!("round{round}").as_bytes(),
            )
            .unwrap();
        }
        db.flush().unwrap();
        for check_round in 0..=round {
            let key = format!("key{:06}", check_round * 1000 + 17);
            assert_eq!(
                db.get(key.as_bytes()).unwrap(),
                Some(format!("round{check_round}").into_bytes()),
                "round {round} check {check_round}"
            );
        }
        if let Some(previous) = expected_guards {
            let current = db.guards_per_level();
            assert!(
                current
                    .iter()
                    .zip(&previous)
                    .all(|(now, before): (&usize, &usize)| now >= before),
                "guards must never be lost across reopens: {previous:?} -> {current:?}"
            );
        }
        expected_guards = Some(db.guards_per_level());
    }
}

/// A guard is made by the compaction that first writes its key into a
/// level, so a level's guards follow from the keys written, whether or not
/// the store was closed between them. (When writers picked guards into
/// memory, a close lost every one picked since the last compaction into its
/// level.)
#[test]
fn a_reopen_loses_no_guard() {
    let mut options = StoreOptions::default();
    options.compaction_threads = 0;
    options.level0_compaction_trigger = 1;
    options.top_level_bits = 5;
    options.bit_decrement = 1;
    let key = |i: u32| format!("key{i:06}");
    let picker = GuardPicker::new(&options);
    let level1 = (0..4000).filter(|i| picker.guard_level(key(*i).as_bytes()) == Some(1));
    let expected = 1 + level1.count(); // the sentinel and one per key
    for reopen in [false, true] {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let dir = Path::new("/guards");
        let open = || PebblesDb::open_with_options(Arc::clone(&env), dir, options.clone());
        let mut db = open().unwrap();
        for i in 0..4000 {
            if reopen && i == 2000 {
                drop(db);
                db = open().unwrap();
            }
            db.put(key(i).as_bytes(), b"value").unwrap();
        }
        db.flush().unwrap();
        let guards = db.guards_per_level();
        assert_eq!(guards[1], expected, "reopened: {reopen}, {guards:?}");
    }
}

#[test]
fn deleting_everything_then_reopening_yields_empty_reads() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = Path::new("/empty");
    {
        let db = PebblesDb::open_with_options(Arc::clone(&env), dir, small_options()).unwrap();
        for i in 0..2000u32 {
            db.put(format!("key{i:06}").as_bytes(), b"v").unwrap();
        }
        for i in 0..2000u32 {
            db.delete(format!("key{i:06}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
    }
    let db = PebblesDb::open_with_options(Arc::clone(&env), dir, small_options()).unwrap();
    for i in (0..2000u32).step_by(111) {
        assert_eq!(db.get(format!("key{i:06}").as_bytes()).unwrap(), None);
    }
    assert!(db.scan(b"key", &[], 10).unwrap().is_empty());
}

/// Column-family lifecycle, silent-failure window: the drop edit commits but
/// the directory removal itself fails (an undeletable directory — EBUSY, a
/// flaky device). The failure must be recorded in the store's counters, not
/// silently discarded, and the next reopen must reap the orphan.
#[test]
fn cf_drop_with_failed_dir_removal_is_recorded_and_reaped_on_reopen() {
    for engine in ["flsm", "lsm"] {
        let (sim, env) = sim_over(MemEnv::new());
        let dir = Path::new("/drop-remove-fail");
        let temp_id;
        {
            let db = open_db_engine(engine, &env, dir);
            let temp = db.create_cf("temp").unwrap();
            temp_id = temp.id();
            for i in 0..500u32 {
                temp.put(format!("t{i:04}").as_bytes(), b"temp").unwrap();
            }
            db.flush().unwrap(); // the family owns sstables now
            let before = db.stats().cleanup_failures;
            sim.fail_removes(&format!("{}/cf-{temp_id}", dir.display()));

            // The drop itself succeeds — the family is gone from the catalog
            // and unreachable — but its directory could not be deleted.
            db.drop_cf("temp").unwrap();
            assert!(db.cf("temp").is_none(), "{engine}: family must be gone");
            assert!(
                db.stats().cleanup_failures > before,
                "{engine}: failed directory removal was silently discarded"
            );
            let temp_dir = dir.join(format!("cf-{temp_id}"));
            assert!(
                !env.children(&temp_dir).unwrap().is_empty(),
                "{engine}: setup must leave the orphan directory behind"
            );
        }

        // The machine comes back healthy: reopen reaps the orphan.
        sim.heal();
        let db = open_db_engine(engine, &env, dir);
        assert!(
            db.cf("temp").is_none(),
            "{engine}: dropped family stays gone"
        );
        let temp_dir = dir.join(format!("cf-{temp_id}"));
        assert!(
            env.children(&temp_dir).unwrap().is_empty(),
            "{engine}: orphaned directory must be reaped on reopen"
        );
    }
}

/// Column-family lifecycle, failed-commit window: the catalog's drop edit
/// cannot be written. The drop must fail *whole*: the family keeps
/// everything it held — sstables, the active memtable and a frozen memtable
/// still queued for the flush thread — goes back to being flushed and
/// compacted (so its writers never park forever), and can be dropped for
/// real once the device recovers.
#[test]
fn failed_cf_drop_leaves_the_family_whole_and_droppable() {
    fn check<P: ShapePolicy>(engine: &str, sim: &SimEnv, db: &EngineDb<P>) {
        let busy = db.create_cf("busy").unwrap();
        let temp = db.create_cf("temp").unwrap();
        let value = vec![b'v'; 1024];
        let key = |i: u32| format!("t{i:05}").into_bytes();
        for i in 0..100u32 {
            temp.put(&key(i), &value).unwrap();
        }
        db.flush().unwrap(); // sstable residents

        // Park the one flush thread in a slow flush of `busy`, so the
        // memtable `temp` freezes next has to queue behind it.
        let slow = format!("cf-{}/", busy.id());
        sim.set_append_latency(&slow, Duration::from_millis(50));
        for i in 0..48u32 {
            busy.put(format!("b{i:05}").as_bytes(), &value).unwrap();
        }
        let queued = || {
            let state = db.core().state.lock();
            let cf = state.cf(temp.id()).unwrap();
            cf.imm.is_some() && !cf.flush_running
        };
        let mut next = 100u32;
        while !queued() {
            assert!(next < 200, "{engine}: temp's memtable never froze");
            temp.put(&key(next), &value).unwrap();
            next += 1;
        }
        for _ in 0..3 {
            temp.put(&key(next), &value).unwrap(); // active-memtable residents
            next += 1;
        }
        assert!(
            queued(),
            "{engine}: setup must leave a frozen memtable queued"
        );

        sim.fail_writes_after("CFS", 0);
        assert!(
            db.drop_cf("temp").is_err(),
            "{engine}: the catalog failure must surface"
        );
        sim.heal();
        sim.set_append_latency(&slow, Duration::ZERO);

        assert!(db.cf("temp").is_some(), "{engine}: family must stay listed");
        for i in 0..next {
            assert_eq!(
                temp.get(&key(i)).unwrap().as_ref(),
                Some(&value),
                "{engine}: key {i} lost by a drop that did not happen"
            );
        }
        // Several memtables' worth of writes: they complete only if the
        // family is being flushed and compacted again.
        let writer = db.cf("temp").unwrap();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for i in 1000..1400u32 {
                writer
                    .put(format!("t{i:05}").as_bytes(), &[b'w'; 1024])
                    .unwrap();
            }
            done.send(()).unwrap();
        });
        assert!(
            finished.recv_timeout(Duration::from_secs(60)).is_ok(),
            "{engine}: writers to the family are wedged"
        );
        db.drop_cf("temp").unwrap();
        assert!(db.cf("temp").is_none(), "{engine}: second drop must land");
    }

    let dir = Path::new("/drop-catalog-fail");
    let (sim, env) = sim_over(MemEnv::new());
    let flsm = PebblesDb::open_with_options(Arc::clone(&env), dir, small_options()).unwrap();
    check("flsm", &sim, flsm.engine());
    drop(flsm);
    let reopened = open_db_engine("flsm", &env, dir);
    assert_eq!(reopened.list_cfs(), ["default", "busy"]);

    let (sim, env) = sim_over(MemEnv::new());
    let preset = StorePreset::HyperLevelDb;
    let lsm = LsmDb::open_with_options(Arc::clone(&env), dir, small_options(), preset).unwrap();
    check("lsm", &sim, lsm.engine());
    drop(lsm);
    let reopened = open_db_engine("lsm", &env, dir);
    assert_eq!(reopened.list_cfs(), ["default", "busy"]);
}
