//! Obsolete files are known, not discovered. A commit lists the tables it
//! unlinks, by the `Arc` the replaced version held them by, and the change
//! log hands out the WAL segments it lets go of; the pass after each commit
//! deletes exactly those nothing holds any more. The directory is listed
//! only at open, by the sweep that finds what a past run left behind.
//!
//! Every store here runs at `compaction_threads = 0`, so each flush and
//! compaction — and the pass after it — has run by the time the call that
//! made it due returns, and a run is a function of its seed.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pebblesdb::FlsmPolicy;
use pebblesdb_common::filename::{parse_file_name, table_file_name, FileType};
use pebblesdb_common::snapshot::Snapshot;
use pebblesdb_common::{DbIterator, KvStore, ReadOptions, StoreOptions};
use pebblesdb_engine::runs::merge_to_tables;
use pebblesdb_engine::version_set::{level_files, version_files};
use pebblesdb_engine::{CompactionJob, EngineDb, ShapePolicy, VersionEdit};
use pebblesdb_env::{Env, MemEnv, SimEnv};
use pebblesdb_lsm::LsmPolicy;
use pebblesdb_tests::sim_over;

const DIR: &str = "/obsolete";

fn options() -> StoreOptions {
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = 8 << 10;
    opts.max_file_size = 4 << 10;
    opts.base_level_bytes = 16 << 10;
    opts.level0_compaction_trigger = 2;
    opts.top_level_bits = 8;
    opts.bit_decrement = 1;
    opts.compaction_threads = 0;
    opts
}

/// A store of `policy`'s shape over a `SimEnv` over `mem`, which the test
/// lists itself without the layer counting it.
fn open<P: ShapePolicy>(policy: fn(&StoreOptions) -> P, mem: &MemEnv) -> (SimEnv, EngineDb<P>) {
    let (sim, env) = sim_over(mem.clone());
    let opts = options();
    let db = EngineDb::open(policy(&opts), env, Path::new(DIR), opts).unwrap();
    (sim, db)
}

/// The numbers of the files of `kind` in the store's directory.
fn on_disk(mem: &MemEnv, kind: FileType) -> BTreeSet<u64> {
    let names = mem.children(Path::new(DIR)).unwrap();
    let parsed = names.iter().filter_map(|name| parse_file_name(name));
    parsed
        .filter(|(ty, _)| *ty == kind)
        .map(|(_, n)| n)
        .collect()
}

/// The numbers of the files the current version holds.
fn current_files<P: ShapePolicy>(db: &EngineDb<P>) -> BTreeSet<u64> {
    db.with_current_version(|v| version_files(v).map(|f| f.number).collect())
}

fn jobs<P: ShapePolicy>(db: &EngineDb<P>) -> u64 {
    let stats = db.stats();
    stats.flushes + stats.compactions
}

/// Applies `ops` seeded operations — puts and deletes (whose flushes and
/// compactions run inline), `flush()`, cursors opened (some on a snapshot),
/// stepped and dropped across commits, snapshots taken and released — and
/// after every one checks that the `.sst` files on disk are exactly the
/// current version's plus those of the versions cursors still hold (plus,
/// until the next pass, those of a version just dropped), and the `.log`
/// files exactly the change log's segments. Returns the directory listings
/// the store made after open and the jobs it ran.
fn drive<P: ShapePolicy>(
    shape: &str,
    policy: fn(&StoreOptions) -> P,
    seed: u64,
    ops: usize,
) -> (usize, u64) {
    let mem = MemEnv::new();
    let (sim, db) = open(policy, &mem);
    let listings_at_open = sim.listings();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cursors: Vec<(Box<dyn DbIterator>, BTreeSet<u64>)> = Vec::new();
    let mut snapshots: Vec<Snapshot> = Vec::new();
    // Files of dropped cursors' versions a pass has not looked at since.
    let mut released = BTreeSet::new();
    let mut jobs_seen = jobs(&db);
    let key = |rng: &mut StdRng| format!("key{:05}", rng.gen_range(0..2000u32));
    for step in 0..ops {
        let mut passed = false;
        match rng.gen_range(0..100u32) {
            0..=79 => {
                let value = vec![b'a' + (step % 26) as u8; rng.gen_range(20..120)];
                db.put(key(&mut rng).as_bytes(), &value).unwrap();
            }
            80..=84 => db.delete(key(&mut rng).as_bytes()).unwrap(),
            85..=88 if cursors.len() < 4 => {
                // The version the cursor pins is the one current now: no
                // job runs between here and its creation.
                let files = current_files(&db);
                let opts = match snapshots.last() {
                    Some(snapshot) if rng.gen_bool(0.5) => snapshot.read_options(),
                    _ => ReadOptions::default(),
                };
                let mut cursor = db.iter(&opts).unwrap();
                cursor.seek(key(&mut rng).as_bytes());
                cursors.push((cursor, files));
            }
            89..=92 if !cursors.is_empty() => {
                let (_, files) = cursors.swap_remove(rng.gen_range(0..cursors.len()));
                released.extend(files);
            }
            93..=95 if !cursors.is_empty() => {
                let at = rng.gen_range(0..cursors.len());
                let cursor = &mut cursors[at].0;
                for _ in 0..rng.gen_range(1..50) {
                    if !cursor.valid() {
                        break;
                    }
                    cursor.next();
                }
                cursor.status().unwrap();
            }
            96..=97 if snapshots.len() < 3 => snapshots.push(db.snapshot()),
            96..=97 => drop(snapshots.remove(0)),
            _ => {
                db.flush().unwrap();
                passed = true;
            }
        }
        let jobs_now = jobs(&db);
        if passed || jobs_now != jobs_seen {
            released.clear();
            jobs_seen = jobs_now;
        }
        let mut held = current_files(&db);
        held.extend(cursors.iter().flat_map(|(_, files)| files));
        held.extend(&released);
        let context = format!("{shape}, seed {seed:#x}, step {step}");
        assert_eq!(on_disk(&mem, FileType::Table), held, "{context}: tables");
        let segments: BTreeSet<u64> = db.core().change_log.segments().into_iter().collect();
        assert_eq!(
            on_disk(&mem, FileType::WriteAheadLog),
            segments,
            "{context}: WALs"
        );
    }
    drop(cursors);
    db.flush().unwrap();
    let context = format!("{shape}, seed {seed:#x}, at rest");
    assert_eq!(
        on_disk(&mem, FileType::Table),
        current_files(&db),
        "{context}"
    );
    (sim.listings() - listings_at_open, jobs(&db))
}

#[test]
fn gc_deletes_exactly_the_files_nothing_holds() {
    for seed in [0x5eed_0032, 0x5eed_0033] {
        drive("FLSM", FlsmPolicy::new, seed, 4_000);
        drive("LSM", LsmPolicy::new, seed, 4_000);
    }
}

/// Hundreds of flushes and compactions, some under a held cursor, and not
/// one directory listing: what a commit made obsolete it already knows.
#[test]
fn the_directory_is_listed_only_at_open() {
    for (shape, (listings, jobs)) in [
        ("FLSM", drive("FLSM", FlsmPolicy::new, 0x11, 6_000)),
        ("LSM", drive("LSM", LsmPolicy::new, 0x11, 6_000)),
    ] {
        assert!(jobs >= 200, "{shape}: only {jobs} flushes and compactions");
        assert_eq!(listings, 0, "{shape}: listed the directory after open");
    }
}

/// A trivial move keeps its file's `Arc`, and with it the open reader:
/// the moved file's first read opens nothing, and a cursor that read the
/// file before the move keeps it on disk — through a compaction that
/// rewrites it away — until the cursor drops.
fn a_trivial_move_keeps_the_files_arc<P: ShapePolicy>(shape: &str, policy: fn(&StoreOptions) -> P) {
    let mem = MemEnv::new();
    let (sim, db) = open(policy, &mem);
    let value = |i: u32| format!("value-{i:05}").into_bytes();
    for i in 0..3000u64 {
        // A prime multiplier permutes the keys, so every flush spans them.
        let i = (i * 2_654_435_761 % 3000) as u32;
        db.put(format!("key{i:05}").as_bytes(), &value(i)).unwrap();
    }
    db.flush().unwrap();
    let levels = db.levels();
    let level = levels.iter().rev().find(|row| row.files > 0).unwrap().level;
    assert!(level >= 1 && level + 1 < levels.len(), "{shape}: {levels}");
    let file = db.with_current_version(|v| Arc::clone(level_files(v, level).next().unwrap()));
    let path = table_file_name(Path::new(DIR), file.number);
    let first_key = file.smallest.user_key().to_vec();

    // The cursor reads the file: its reader is open.
    let mut cursor = db.iter(&ReadOptions::default()).unwrap();
    cursor.seek(&first_key);
    assert_eq!(cursor.key(), first_key.as_slice(), "{shape}");
    let (misses, readers) = (db.stats().table_cache_misses, sim.open_readers());

    let job = |from: usize, move_only: bool| CompactionJob {
        inputs: vec![(from, Arc::clone(&file))],
        output_level: level + 1,
        move_only,
    };
    let core = db.core();
    let edit = VersionEdit::compaction(&job(level, true), &[], &[]);
    core.state
        .lock()
        .default_cf_mut()
        .versions
        .log_and_apply(edit)
        .unwrap();
    assert_eq!(db.levels()[level + 1].files, 1, "{shape}: moved");

    // The moved file's first read after the move opens no new reader.
    let first: u32 = String::from_utf8_lossy(&first_key[3..]).parse().unwrap();
    assert_eq!(db.get(&first_key).unwrap(), Some(value(first)), "{shape}");
    assert_eq!(db.stats().table_cache_misses, misses, "{shape}: reopened");
    assert_eq!(sim.open_readers(), readers, "{shape}: a second reader");

    // Compact the moved file away, with the cursor's version still on it.
    {
        let mut state = core.state.lock();
        let rewrite = job(level + 1, false);
        let io = state.default_cf().io.clone();
        // The job pins the version it merges against, as the chassis does.
        let version = Arc::clone(state.default_cf().versions.current());
        // An in-place rewrite picks no guards.
        let merged = merge_to_tables(&io, &rewrite, version.as_ref(), 0, |_| None);
        let (outputs, guards) = merged.unwrap();
        let edit = VersionEdit::compaction(&rewrite, &outputs, &guards);
        state.default_cf_mut().versions.log_and_apply(edit).unwrap();
        drop((rewrite, version));
        core.remove_obsolete_files(&mut state);
    }
    let number = file.number;
    drop(file);
    assert!(!current_files(&db).contains(&number), "{shape}: compacted");
    assert!(mem.file_exists(&path), "{shape}: deleted under the cursor");
    assert!(sim.readers_of_deleted_files().is_empty(), "{shape}");

    cursor.seek_to_first();
    for i in 0..3000u32 {
        assert!(cursor.valid(), "{shape}: the view ended at {i}");
        assert_eq!(cursor.key(), format!("key{i:05}").as_bytes(), "{shape}");
        assert_eq!(cursor.value(), value(i), "{shape}");
        cursor.next();
    }
    cursor.status().unwrap();
    drop(cursor);
    db.flush().unwrap();
    assert!(!mem.file_exists(&path), "{shape}: outlived its last holder");
    assert!(sim.readers_of_deleted_files().is_empty(), "{shape}");
}

#[test]
fn a_trivial_move_keeps_the_files_arc_and_its_reader() {
    a_trivial_move_keeps_the_files_arc("FLSM", FlsmPolicy::new);
    a_trivial_move_keeps_the_files_arc("LSM", LsmPolicy::new);
}
