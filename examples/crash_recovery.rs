//! Crash recovery: write data, simulate a crash (including a torn tail on
//! the write-ahead log), reopen and verify everything durable is back; then
//! crash again between a flush's sstable and its MANIFEST commit.
//!
//! The store is opened on a `SimEnv`, where faults are scheduled; the clone
//! of the `MemEnv` under it is the disk, which is what gets torn.
//!
//! ```text
//! cargo run -p pebblesdb-examples --bin crash_recovery
//! ```

use std::path::Path;
use std::sync::Arc;

use pebblesdb::PebblesDb;
use pebblesdb_common::{KvStore, StoreOptions};
use pebblesdb_env::{Env, MemEnv, SimEnv};

fn main() {
    let disk = MemEnv::new();
    let sim = SimEnv::new(Arc::new(disk.clone()));
    let env: Arc<dyn Env> = Arc::new(sim.clone());
    let dir = Path::new("/crashdb");
    let options = StoreOptions::default().scale_down(32);
    let keys = 20_000u32;

    let guards_before;
    {
        let db = PebblesDb::open_with_options(Arc::clone(&env), dir, options.clone())
            .expect("open database");
        for i in 0..keys {
            db.put(
                format!("key{i:08}").as_bytes(),
                format!("value-{i}").as_bytes(),
            )
            .expect("put");
        }
        // No flush: recent writes only exist in the write-ahead log.
        guards_before = db.guards_per_level();
        println!(
            "wrote {keys} keys; layout before crash: {}",
            db.level_summary()
        );

        // Simulate a crash that tears the tail of the live WAL.
        let wal_name = env
            .children(dir)
            .expect("list files")
            .into_iter()
            .filter(|name| name.ends_with(".log"))
            .max()
            .expect("a live WAL exists");
        let wal_path = dir.join(&wal_name);
        let size = env.file_size(&wal_path).expect("wal size") as usize;
        disk.truncate_file(&wal_path, size.saturating_sub(7))
            .expect("truncate");
        println!("simulated crash: dropped the process and tore 7 bytes off {wal_name}");
        // The database handle is dropped here without any shutdown work.
    }

    let open = || PebblesDb::open_with_options(Arc::clone(&env), dir, options.clone());
    let readable = |db: &PebblesDb| {
        let present = |i: &u32| {
            db.get(format!("key{i:08}").as_bytes())
                .expect("get")
                .is_some()
        };
        (0..keys).filter(present).count() as u32
    };
    let db = open().expect("recover database");
    let recovered = readable(&db);
    println!(
        "after recovery: {recovered}/{keys} keys readable (only the torn tail record may be lost)"
    );
    println!("guards before crash: {guards_before:?}");
    println!("guards after crash:  {:?}", db.guards_per_level());
    assert!(recovered >= keys - 100, "recovery lost too much data");

    // A second crash, scheduled instead of torn: from here on every MANIFEST
    // write fails, so a flush writes its sstable in full and cannot commit
    // it. The WAL still covers the keys; the orphan sstable is reaped.
    db.put(b"written-after-recovery", b"v").expect("put");
    sim.fail_writes_after("MANIFEST", 0);
    let failed = db.flush().expect_err("the flush cannot commit");
    println!("simulated crash: flush failed at its MANIFEST commit ({failed})");
    drop(db);
    sim.heal();
    let db = open().expect("recover database again");
    assert_eq!(readable(&db), recovered, "the failed flush lost data");
    let late = db.get(b"written-after-recovery").expect("get");
    assert_eq!(late.as_deref(), Some(&b"v"[..]), "the WAL covers it");
    println!("crash recovery OK: data and guard metadata survived.");
}
