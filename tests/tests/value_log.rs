//! Key-value separation integration tests: large values routed through the
//! per-family value log, pointer resolution on gets and cursors, vlog GC
//! (relocation, retirement, snapshot-gated reclaim), and the crash windows
//! unique to the vlog — a value durable in the vlog whose WAL commit never
//! happened, and a GC interrupted between relocation and file deletion.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use pebblesdb::PebblesDb;
use pebblesdb_common::{Db, ReadOptions, StoreOptions, StorePreset, WriteBatch};
use pebblesdb_engine::VlogGcReport;
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::LsmDb;
use pebblesdb_tests::sim_over;

const ENGINES: [&str; 2] = ["flsm", "lsm"];

/// A store plus its engine-specific `vlog_gc` entry point.
struct TestDb {
    db: Arc<dyn Db>,
    gc: Box<dyn Fn() -> pebblesdb_common::Result<VlogGcReport>>,
}

fn open_engine(engine: &str, env: &Arc<dyn Env>, dir: &Path, options: StoreOptions) -> TestDb {
    if engine == "flsm" {
        let db = Arc::new(PebblesDb::open_with_options(Arc::clone(env), dir, options).unwrap());
        let gc_db = Arc::clone(&db);
        TestDb {
            db,
            gc: Box::new(move || gc_db.vlog_gc()),
        }
    } else {
        let db = Arc::new(
            LsmDb::open_with_options(Arc::clone(env), dir, options, StorePreset::HyperLevelDb)
                .unwrap(),
        );
        let gc_db = Arc::clone(&db);
        TestDb {
            db,
            gc: Box::new(move || gc_db.vlog_gc()),
        }
    }
}

fn vlog_options(threshold: usize, vlog_file_size: usize) -> StoreOptions {
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = 64 << 10;
    opts.max_file_size = 32 << 10;
    opts.level0_compaction_trigger = 2;
    opts.value_separation_threshold = threshold;
    opts.vlog_file_size = vlog_file_size;
    opts
}

/// Names of the `.vlog` files in the default family's directory (the db
/// root).
fn vlog_files(env: &dyn Env, dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = env
        .children(dir)
        .unwrap()
        .into_iter()
        .filter(|name| name.ends_with(".vlog"))
        .collect();
    names.sort();
    names
}

fn big_value(i: u32, len: usize) -> Vec<u8> {
    let tag = format!("value-{i:06}-");
    tag.as_bytes().iter().copied().cycle().take(len).collect()
}

/// Full forward scan into a map (resolving every pointer along the way).
fn scan_all(db: &dyn Db) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut iter = db.iter(&ReadOptions::default()).unwrap();
    iter.seek_to_first();
    while iter.valid() {
        out.insert(iter.key().to_vec(), iter.value().to_vec());
        iter.next();
    }
    iter.status().unwrap();
    out
}

#[test]
fn large_values_roundtrip_through_the_value_log() {
    for engine in ENGINES {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/vlog-roundtrip");
        let t = open_engine(engine, &env, dir, vlog_options(256, 64 << 20));

        for i in 0..300u32 {
            let key = format!("k{i:04}");
            if i % 3 == 0 {
                t.db.put(key.as_bytes(), b"small").unwrap();
            } else {
                t.db.put(key.as_bytes(), &big_value(i, 1024)).unwrap();
            }
        }
        t.db.flush().unwrap();

        assert!(
            !vlog_files(env.as_ref(), dir).is_empty(),
            "{engine}: separated values must land in a .vlog file"
        );
        let stats = t.db.stats();
        assert!(
            stats.vlog_bytes_written > 0,
            "{engine}: vlog byte counter never moved"
        );

        // Point gets resolve pointers; small values stay inline.
        for i in (0..300u32).step_by(7) {
            let key = format!("k{i:04}");
            let expect = if i % 3 == 0 {
                b"small".to_vec()
            } else {
                big_value(i, 1024)
            };
            assert_eq!(
                t.db.get(key.as_bytes()).unwrap(),
                Some(expect),
                "{engine}: {key} wrong after separation"
            );
        }

        // Cursors resolve pointers.
        let scanned = scan_all(t.db.as_ref());
        assert_eq!(scanned.len(), 300, "{engine}: scan dropped keys");
        assert_eq!(scanned[&b"k0001"[..].to_vec()], big_value(1, 1024));
        let mut iter = t.db.iter(&ReadOptions::default()).unwrap();
        iter.seek(b"k0298");
        assert_eq!(iter.key(), b"k0298");
        iter.next();
        assert_eq!(iter.key(), b"k0299");
        assert_eq!(iter.value(), big_value(299, 1024).as_slice());
        assert!(
            t.db.stats().vlog_cache_hits + t.db.stats().vlog_cache_misses > 0,
            "{engine}: resolutions never touched the reader cache"
        );
    }
}

#[test]
fn vlog_rotates_at_the_size_cap_and_recovers_across_reopen() {
    for engine in ENGINES {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/vlog-rotate");
        {
            let t = open_engine(engine, &env, dir, vlog_options(256, 4 << 10));
            for i in 0..64u32 {
                t.db.put(format!("r{i:03}").as_bytes(), &big_value(i, 1024))
                    .unwrap();
            }
            let files = vlog_files(env.as_ref(), dir);
            assert!(
                files.len() >= 2,
                "{engine}: 64 KiB of values across a 4 KiB cap must rotate, got {files:?}"
            );
        }

        // Reopen: recovered files are sealed, pointers still resolve, and
        // new writes go to a fresh file instead of appending to a
        // possibly-torn tail.
        let t = open_engine(engine, &env, dir, vlog_options(256, 4 << 10));
        let before = vlog_files(env.as_ref(), dir);
        for i in (0..64u32).step_by(5) {
            assert_eq!(
                t.db.get(format!("r{i:03}").as_bytes()).unwrap(),
                Some(big_value(i, 1024)),
                "{engine}: value lost across reopen"
            );
        }
        t.db.put(b"post-reopen", &big_value(999, 1024)).unwrap();
        let after = vlog_files(env.as_ref(), dir);
        assert!(
            after.len() > before.len(),
            "{engine}: post-reopen separated write must open a new vlog file"
        );
        assert_eq!(
            t.db.get(b"post-reopen").unwrap(),
            Some(big_value(999, 1024))
        );
    }
}

#[test]
fn vlog_gc_relocates_live_values_and_reclaims_dead_files() {
    for engine in ENGINES {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/vlog-gc");
        let t = open_engine(engine, &env, dir, vlog_options(256, 4 << 10));

        for i in 0..40u32 {
            t.db.put(format!("g{i:03}").as_bytes(), &big_value(i, 1024))
                .unwrap();
        }
        // Overwrite most keys: the old vlog records become garbage.
        for i in 0..36u32 {
            t.db.put(format!("g{i:03}").as_bytes(), &big_value(i + 1000, 1024))
                .unwrap();
        }
        let files_before = vlog_files(env.as_ref(), dir).len();

        // Drain the sealed backlog: each pass scans one (coldest) file.
        let mut relocated = 0u64;
        let mut reclaimed = 0u64;
        for _ in 0..32 {
            let report = (t.gc)().unwrap();
            relocated += report.relocated;
            reclaimed += report.reclaimed_files;
            if report.scanned_files == 0 {
                break;
            }
        }
        assert!(
            reclaimed > 0,
            "{engine}: GC never reclaimed a dead vlog file"
        );
        assert!(
            vlog_files(env.as_ref(), dir).len() < files_before,
            "{engine}: reclaim must shrink the on-disk vlog set"
        );
        let stats = t.db.stats();
        assert_eq!(
            stats.vlog_gc_relocations, relocated,
            "{engine}: relocation counter out of step with reports"
        );
        assert_eq!(
            stats.cleanup_failures, 0,
            "{engine}: healthy GC must not record cleanup failures"
        );

        // Every live value still reads back correctly after relocation.
        for i in 0..40u32 {
            let expect = if i < 36 {
                big_value(i + 1000, 1024)
            } else {
                big_value(i, 1024)
            };
            assert_eq!(
                t.db.get(format!("g{i:03}").as_bytes()).unwrap(),
                Some(expect),
                "{engine}: g{i:03} corrupted by GC"
            );
        }
    }
}

#[test]
fn pinned_snapshot_blocks_vlog_reclaim_and_still_resolves() {
    for engine in ENGINES {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/vlog-snap");
        let t = open_engine(engine, &env, dir, vlog_options(256, 2 << 10));

        t.db.put(b"pinned", &big_value(1, 1024)).unwrap();
        // Enough filler to rotate the first file into the sealed set.
        for i in 0..8u32 {
            t.db.put(format!("fill{i:02}").as_bytes(), &big_value(i + 10, 1024))
                .unwrap();
        }
        let snap = t.db.snapshot();
        t.db.put(b"pinned", &big_value(2, 1024)).unwrap();

        // GC may relocate, but no file visible to the snapshot may die.
        let report = (t.gc)().unwrap();
        assert_eq!(
            report.reclaimed_files, 0,
            "{engine}: reclaimed a file a pinned snapshot can still reach"
        );
        assert_eq!(
            t.db.get_opts(&snap.read_options(), b"pinned").unwrap(),
            Some(big_value(1, 1024)),
            "{engine}: snapshot read lost the pre-overwrite value"
        );
        assert_eq!(
            t.db.get(b"pinned").unwrap(),
            Some(big_value(2, 1024)),
            "{engine}: latest read must see the overwrite"
        );

        // Once the pin is gone the retired file becomes reclaimable.
        drop(snap);
        let mut reclaimed = 0u64;
        for _ in 0..16 {
            let report = (t.gc)().unwrap();
            reclaimed += report.reclaimed_files;
            if report.scanned_files == 0 && report.reclaimed_files == 0 {
                break;
            }
        }
        assert!(
            reclaimed > 0,
            "{engine}: dropping the snapshot must unblock reclaim"
        );
        assert_eq!(t.db.get(b"pinned").unwrap(), Some(big_value(2, 1024)));
        for i in 0..8u32 {
            assert_eq!(
                t.db.get(format!("fill{i:02}").as_bytes()).unwrap(),
                Some(big_value(i + 10, 1024)),
                "{engine}: filler value lost through GC"
            );
        }
    }
}

/// Crash window 1: the commit path appends to the vlog *before* the WAL.
/// A crash (here: an injected WAL write failure that poisons the store)
/// between the two leaves an orphan record in the vlog and no pointer in
/// the tree. The orphan must stay inert: acknowledged values survive, the
/// failed write is absent, and a later GC pass walks past the orphan (and
/// a torn tail) without error.
#[test]
fn crash_between_vlog_append_and_wal_commit_keeps_the_store_consistent() {
    for engine in ENGINES {
        let mem_env = MemEnv::new();
        let (sim, env) = sim_over(mem_env.clone());
        let dir = Path::new("/vlog-crash-wal");
        {
            let t = open_engine(engine, &env, dir, vlog_options(256, 64 << 20));
            for i in 0..20u32 {
                t.db.put(format!("c{i:03}").as_bytes(), &big_value(i, 1024))
                    .unwrap();
            }
            // The next WAL append dies; the vlog append for "doomed" has
            // already happened by then.
            sim.fail_writes_after(".log", 0);
            assert!(
                t.db.put(b"doomed", &big_value(666, 1024)).is_err(),
                "{engine}: the WAL failure must surface to the writer"
            );
        } // <- crash with an orphan vlog record.

        sim.heal();
        // Tear the vlog tail into the orphan record for good measure — a
        // real crash can also leave a partial append.
        let vlogs = vlog_files(env.as_ref(), dir);
        let last = dir.join(vlogs.last().unwrap());
        let size = env.file_size(&last).unwrap() as usize;
        mem_env.truncate_file(&last, size - 100).unwrap();

        let t = open_engine(engine, &env, dir, vlog_options(256, 64 << 20));
        assert_eq!(
            t.db.get(b"doomed").unwrap(),
            None,
            "{engine}: unacknowledged write resurfaced"
        );
        for i in 0..20u32 {
            assert_eq!(
                t.db.get(format!("c{i:03}").as_bytes()).unwrap(),
                Some(big_value(i, 1024)),
                "{engine}: acknowledged value lost"
            );
        }
        // GC over the recovered file must tolerate the orphan/torn tail.
        t.db.put(b"fresh", &big_value(7, 1024)).unwrap();
        let mut reclaimed = 0u64;
        for _ in 0..16 {
            let report = (t.gc)().unwrap();
            reclaimed += report.reclaimed_files;
            if report.scanned_files == 0 && report.reclaimed_files == 0 {
                break;
            }
        }
        assert!(
            reclaimed > 0,
            "{engine}: the recovered file must eventually be drained"
        );
        for i in 0..20u32 {
            assert_eq!(
                t.db.get(format!("c{i:03}").as_bytes()).unwrap(),
                Some(big_value(i, 1024)),
                "{engine}: value corrupted by post-crash GC"
            );
        }
        assert_eq!(t.db.get(b"fresh").unwrap(), Some(big_value(7, 1024)));
    }
}

/// The other half of crash window 1: the *vlog* append itself fails. The
/// commit stages run separate -> log -> apply, so a group whose value cannot
/// be made durable must stop before its first WAL byte: no record of it —
/// inline or pointer — may reach the log or a memtable, and because bytes a
/// later pointer would name may be half-written, the store refuses further
/// writes until it is reopened.
#[test]
fn failed_vlog_append_logs_nothing_and_poisons_the_store() {
    let wal_bytes = |env: &dyn Env, dir: &Path| -> u64 {
        let names = env.children(dir).unwrap();
        let logs = names.iter().filter(|name| name.ends_with(".log"));
        logs.map(|name| env.file_size(&dir.join(name)).unwrap())
            .sum()
    };
    for engine in ENGINES {
        let (sim, env) = sim_over(MemEnv::new());
        let dir = Path::new("/vlog-append-fails");
        {
            let t = open_engine(engine, &env, dir, vlog_options(256, 64 << 20));
            for i in 0..20u32 {
                t.db.put(format!("c{i:03}").as_bytes(), &big_value(i, 1024))
                    .unwrap();
            }
            let logged = wal_bytes(env.as_ref(), dir);
            sim.fail_writes_after(".vlog", 0);
            // One atomic batch: a small inline record ahead of the large
            // value whose separation fails. Neither may surface anywhere.
            let mut doomed = WriteBatch::new();
            doomed.put(b"doomed-small", b"inline");
            doomed.put(b"doomed-big", &big_value(666, 1024));
            assert!(
                t.db.write(doomed).is_err(),
                "{engine}: the vlog failure must surface to the writer"
            );
            assert_eq!(
                wal_bytes(env.as_ref(), dir),
                logged,
                "{engine}: the failed group reached the WAL"
            );
            assert_eq!(t.db.get(b"doomed-small").unwrap(), None, "{engine}");
            // The device is healthy again, and this write would not even
            // touch the value log — but the store stays poisoned.
            sim.heal();
            assert!(
                t.db.put(b"later", b"small").is_err(),
                "{engine}: a failed vlog append must poison the store"
            );
        }

        let t = open_engine(engine, &env, dir, vlog_options(256, 64 << 20));
        for key in [&b"doomed-small"[..], b"doomed-big", b"later"] {
            assert_eq!(
                t.db.get(key).unwrap(),
                None,
                "{engine}: unacknowledged write resurfaced"
            );
        }
        // Every pointer the tree holds resolves: a full scan reads each
        // value back through the vlog and finds exactly the acknowledged set.
        let all = scan_all(t.db.as_ref());
        assert_eq!(all.len(), 20, "{engine}");
        for i in 0..20u32 {
            assert_eq!(
                all.get(format!("c{i:03}").as_bytes()),
                Some(&big_value(i, 1024)),
                "{engine}: acknowledged value lost"
            );
        }
        t.db.put(b"later", &big_value(1, 1024)).unwrap();
        assert_eq!(t.db.get(b"later").unwrap(), Some(big_value(1, 1024)));
    }
}

/// Crash window 2: GC relocated every live value but the file deletion
/// failed (or the process died before it). The relocations are durable via
/// the commit path, so the stale file is pure garbage — a reopen sees it as
/// a sealed file with zero live records and the next pass drains it.
#[test]
fn gc_interrupted_before_file_deletion_self_heals() {
    for engine in ENGINES {
        let (sim, env) = sim_over(MemEnv::new());
        let dir = Path::new("/vlog-crash-gc");
        {
            let t = open_engine(engine, &env, dir, vlog_options(256, 2 << 10));
            for i in 0..12u32 {
                t.db.put(format!("h{i:03}").as_bytes(), &big_value(i, 1024))
                    .unwrap();
            }
            let before = t.db.stats().cleanup_failures;
            // Relocation succeeds; the delete of the emptied file fails.
            sim.fail_removes(".vlog");
            let report = (t.gc)().unwrap();
            assert!(
                report.scanned_files > 0,
                "{engine}: GC found nothing to scan"
            );
            assert!(
                t.db.stats().cleanup_failures > before,
                "{engine}: failed vlog delete was silently discarded"
            );
            // Data is untouched by the failure.
            for i in 0..12u32 {
                assert_eq!(
                    t.db.get(format!("h{i:03}").as_bytes()).unwrap(),
                    Some(big_value(i, 1024))
                );
            }
        } // <- crash before the delete could be retried.

        sim.heal();
        let t = open_engine(engine, &env, dir, vlog_options(256, 2 << 10));
        let files_before = vlog_files(env.as_ref(), dir).len();
        let mut reclaimed = 0u64;
        for _ in 0..16 {
            let report = (t.gc)().unwrap();
            reclaimed += report.reclaimed_files;
            if report.scanned_files == 0 && report.reclaimed_files == 0 {
                break;
            }
        }
        assert!(
            reclaimed > 0 && vlog_files(env.as_ref(), dir).len() < files_before,
            "{engine}: stale relocated file must be drained after reopen"
        );
        for i in 0..12u32 {
            assert_eq!(
                t.db.get(format!("h{i:03}").as_bytes()).unwrap(),
                Some(big_value(i, 1024)),
                "{engine}: value lost through interrupted GC + reopen"
            );
        }
    }
}

/// GC must make progress on a quiescent store. Each pass reserves its
/// horizon as a fresh sequence slot through the commit queue, so even the
/// record written in the store's final sequence slot — which an
/// unreserved horizon could never relocate without colliding with it — is
/// collected without waiting for user traffic that may never come.
#[test]
fn gc_drains_a_quiescent_store_including_the_final_slot_record() {
    for engine in ENGINES {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/vlog-slot");
        {
            let t = open_engine(engine, &env, dir, vlog_options(256, 64 << 20));
            for i in 0..5u32 {
                t.db.put(format!("s{i}").as_bytes(), &big_value(i, 1024))
                    .unwrap();
            }
            // "last" owns the store's final sequence number when the pass
            // below captures its horizon.
            t.db.put(b"last", &big_value(42, 1024)).unwrap();
        }
        // Reopen so the records sit in a *sealed* file, with no
        // sequence-advancing write happening after "last".
        let t = open_engine(engine, &env, dir, vlog_options(256, 64 << 20));
        let report = (t.gc)().unwrap();
        assert_eq!(
            report.skipped, 0,
            "{engine}: a reserved horizon never collides with user writes"
        );
        assert_eq!(
            report.relocated, 6,
            "{engine}: every record, final slot included, must relocate"
        );
        assert!(
            report.reclaimed_files >= 1,
            "{engine}: the drained file must be reclaimed in the same pass"
        );
        assert_eq!(
            t.db.get(b"last").unwrap(),
            Some(big_value(42, 1024)),
            "{engine}: relocated record must stay readable"
        );
        for i in 0..5u32 {
            assert_eq!(
                t.db.get(format!("s{i}").as_bytes()).unwrap(),
                Some(big_value(i, 1024))
            );
        }
    }
}

#[test]
fn threshold_zero_never_creates_vlog_files() {
    for engine in ENGINES {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/vlog-off");
        let t = open_engine(engine, &env, dir, StoreOptions::default());
        for i in 0..50u32 {
            t.db.put(format!("z{i:02}").as_bytes(), &big_value(i, 8192))
                .unwrap();
        }
        t.db.flush().unwrap();
        assert!(
            vlog_files(env.as_ref(), dir).is_empty(),
            "{engine}: separation off must write no vlog files"
        );
        assert_eq!(t.db.stats().vlog_bytes_written, 0);
        let report = (t.gc)().unwrap();
        assert_eq!(
            report,
            VlogGcReport::default(),
            "{engine}: GC must be a no-op"
        );
    }
}

/// Model-based differential: a mixed small/large workload with overwrites,
/// deletes, flushes, GC passes, mid-stream pinned snapshots and a reopen,
/// checked against an in-memory model after every phase — on both engines.
#[test]
fn model_differential_mixed_value_sizes_with_gc_and_reopen() {
    for engine in ENGINES {
        let mem_env = MemEnv::new();
        let env: Arc<dyn Env> = Arc::new(mem_env.clone());
        let dir = Path::new("/vlog-model");
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut next = |bound: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };

        let mut t = open_engine(engine, &env, dir, vlog_options(200, 4 << 10));
        type PinnedSnapshot = (
            pebblesdb_common::snapshot::Snapshot,
            BTreeMap<Vec<u8>, Vec<u8>>,
        );
        let mut pinned: Option<PinnedSnapshot> = None;
        for phase in 0..8u32 {
            for _ in 0..120 {
                let key = format!("m{:03}", next(150)).into_bytes();
                match next(10) {
                    0..=5 => {
                        // Put: 60% small, 40% separated.
                        let len = if next(5) < 3 {
                            24
                        } else {
                            300 + next(1500) as usize
                        };
                        let value = big_value(next(100_000) as u32, len);
                        t.db.put(&key, &value).unwrap();
                        model.insert(key, value);
                    }
                    6..=7 => {
                        t.db.delete(&key).unwrap();
                        model.remove(&key);
                    }
                    _ => {
                        assert_eq!(
                            t.db.get(&key).unwrap(),
                            model.get(&key).cloned(),
                            "{engine}: phase {phase} point-get divergence"
                        );
                    }
                }
            }
            match phase {
                1 => t.db.flush().unwrap(),
                2 => {
                    pinned = Some((t.db.snapshot(), model.clone()));
                }
                3 | 6 => {
                    (t.gc)().unwrap();
                }
                4 => {
                    // Snapshot pinned before GC must still read its world.
                    if let Some((snap, snap_model)) = &pinned {
                        for (key, value) in snap_model.iter().take(40) {
                            assert_eq!(
                                t.db.get_opts(&snap.read_options(), key).unwrap().as_ref(),
                                Some(value),
                                "{engine}: snapshot divergence after GC"
                            );
                        }
                    }
                    pinned = None;
                }
                5 => {
                    drop(t);
                    t = open_engine(engine, &env, dir, vlog_options(200, 4 << 10));
                }
                _ => {}
            }
            assert_eq!(
                scan_all(t.db.as_ref()),
                model,
                "{engine}: phase {phase} full-scan divergence"
            );
        }
    }
}
