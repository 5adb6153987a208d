//! A writer that has to wait for a flush or a compaction runs one itself,
//! and a writer that has nothing to wait for does not wait.
//!
//! In the first pair every background thread of the store is held at its
//! start by the `SimEnv`, so no flush thread or worker ever takes a turn. A
//! writer that fills several memtables must then flush them itself: if it
//! parked on a flush only a held thread could run, its puts would never
//! return. The second pair starts no thread at all. Then a leveled store's
//! writer parks at the level-0 stop behind a slow level-0 job, and a
//! `flush()` runs the job a seek trigger requested while the threads are
//! held.

use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use pebblesdb::FlsmPolicy;
use pebblesdb_common::{KvStore, ReadOptions, StoreOptions};
use pebblesdb_engine::{EngineDb, ShapePolicy};
use pebblesdb_env::MemEnv;
use pebblesdb_lsm::LsmPolicy;
use pebblesdb_tests::sim_over;

const WRITE_BUFFER: usize = 16 << 10;
/// About four memtables' worth of puts.
const KEYS: u32 = 640;
const VALUE: usize = 100;

fn key(i: u32) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    let mut value = format!("{i}/").into_bytes();
    value.resize(VALUE, b'v');
    value
}

fn a_writer_runs_the_jobs_no_thread_runs<P: ShapePolicy>(policy: fn(&StoreOptions) -> P) {
    let (sim, env) = sim_over(MemEnv::new());
    sim.hold_spawned("");
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = WRITE_BUFFER;
    opts.max_file_size = 8 << 10;
    opts.base_level_bytes = 32 << 10;
    opts.level0_compaction_trigger = 2;
    opts.compaction_threads = 1;
    let db = EngineDb::open(policy(&opts), env, Path::new("/stalls"), opts).unwrap();
    let db: Arc<dyn KvStore> = Arc::new(db);
    assert_eq!(sim.spawn_calls(), 2, "a flush thread and one worker");

    let (done, finished) = mpsc::channel();
    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            for i in 0..KEYS {
                db.put(&key(i), &value(i)).unwrap();
            }
            let _ = done.send(());
        })
    };
    let outcome = finished.recv_timeout(Duration::from_secs(10));
    let stats = db.stats();
    // Released before anything can fail, so the store's drop can join its
    // threads whatever happened.
    sim.release_spawned();
    outcome.expect("the puts parked on a job no thread runs");
    writer.join().unwrap();

    assert!(
        stats.writer_jobs >= 3,
        "writer ran {} jobs",
        stats.writer_jobs
    );
    assert!(stats.flushes >= 3, "{} flushes", stats.flushes);
    assert!(stats.memtable_stall_micros <= stats.write_stall_micros);
    for i in 0..KEYS {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
    }
}

#[test]
fn flsm_writer_runs_the_jobs_no_thread_runs() {
    a_writer_runs_the_jobs_no_thread_runs(FlsmPolicy::new);
}

#[test]
fn lsm_writer_runs_the_jobs_no_thread_runs() {
    a_writer_runs_the_jobs_no_thread_runs(LsmPolicy::new);
}

/// Level 0 grows to 9+ files while compaction waits for 100 and writes stop
/// at 120. Below the stop trigger a full memtable is frozen and flushed
/// and nothing else happens: the writer never stalls, and no timer delays
/// it on the way to the stop.
fn level0_below_its_stop_costs_a_writer_nothing<P: ShapePolicy>(policy: fn(&StoreOptions) -> P) {
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = WRITE_BUFFER;
    opts.level0_compaction_trigger = 100;
    opts.level0_stop_writes_trigger = 120;
    opts.compaction_threads = 0;
    let env = Arc::new(MemEnv::new());
    let db = EngineDb::open(policy(&opts), env, Path::new("/level0"), opts).unwrap();
    let keys = 3 * KEYS;
    for i in 0..keys {
        db.put(&key(i), &value(i)).unwrap();
    }

    let level0 = db.levels()[0].files;
    assert!(level0 >= 9, "{level0} level-0 files");
    assert_eq!(db.stats().write_stalls, 0, "with {level0} level-0 files");
    for i in 0..keys {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
    }
}

#[test]
fn flsm_level0_below_its_stop_costs_a_writer_nothing() {
    level0_below_its_stop_costs_a_writer_nothing(FlsmPolicy::new);
}

#[test]
fn lsm_level0_below_its_stop_costs_a_writer_nothing() {
    level0_below_its_stop_costs_a_writer_nothing(LsmPolicy::new);
}

/// One worker and slow table writes: at the level-0 stop the worker is
/// inside a long job, and the parked writer claims a job whose key range
/// that one leaves free — with level 0 spanning every key, a level-2 job
/// beside the worker's level-0 job, or level 0 itself beside a level-2 job —
/// and runs it on its own CPU. The worker is the only thread besides the
/// writer that compacts, so two jobs at once means the writer ran one.
#[test]
fn lsm_writer_at_the_stop_compacts_beside_the_workers_job() {
    let (sim, env) = sim_over(MemEnv::new());
    sim.set_append_latency(".sst", Duration::from_micros(500));
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = WRITE_BUFFER;
    opts.max_file_size = 8 << 10;
    opts.base_level_bytes = 8 << 10;
    opts.level0_compaction_trigger = 2;
    opts.level0_stop_writes_trigger = 3;
    opts.compaction_threads = 1;
    let db = EngineDb::open(LsmPolicy::new(&opts), env, Path::new("/stop"), opts).unwrap();
    // Every key once, in an order that spreads each memtable over the range.
    let keys = 6 * KEYS;
    for i in 0..keys {
        let k = i * 7919 % keys;
        db.put(&key(k), &value(k)).unwrap();
    }

    let stats = db.stats();
    assert!(stats.write_stalls > 0, "the writer never reached the stop");
    assert_eq!(
        stats.max_concurrent_compactions, 2,
        "the writer ran no compaction beside the worker's ({} writer jobs)",
        stats.writer_jobs
    );
    for i in 0..keys {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
    }
}

/// `flush()` leaves no requested compaction behind. With every background
/// thread held, two overlapping level-0 files below the size trigger and
/// `seek_compaction_threshold` cursors over them, the seek-triggered job is
/// due and only the flushing thread can run it: it does, before returning.
#[test]
fn flush_runs_the_job_a_seek_trigger_requested() {
    let (sim, env) = sim_over(MemEnv::new());
    sim.hold_spawned("");
    let opts = StoreOptions::default();
    let threshold = opts.seek_compaction_threshold;
    let db = EngineDb::open(FlsmPolicy::new(&opts), env, Path::new("/seek"), opts).unwrap();
    for round in 0..2 {
        for i in 0..50 {
            db.put(&key(i), &value(i + round)).unwrap();
        }
        db.flush().unwrap();
    }
    let level0 = db.levels()[0].files;
    for _ in 0..threshold {
        let mut cursor = db.iter(&ReadOptions::default()).unwrap();
        cursor.seek(&key(25));
    }
    let requested = || db.core().state.lock().default_cf().seek_requested;
    let armed = requested();
    let compactions = db.stats().compactions;
    let flushed = db.flush();
    let after = (requested(), db.stats().compactions);
    // Released before anything can fail, so the store's drop can join its
    // threads whatever happened.
    sim.release_spawned();
    flushed.unwrap();

    assert_eq!((level0, armed), (2, true), "the cursors armed no seek job");
    assert_eq!(after, (false, compactions + 1), "(requested, compactions)");
    for i in 0..50 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i + 1)), "key {i}");
    }
}
