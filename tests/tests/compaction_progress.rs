//! Compaction reaches a fixed point: once writes stop, both engines settle
//! after a bounded number of jobs. An FLSM job that rewrites guards in place
//! (the last level, or the second-to-last under the paper's IO heuristic)
//! once cut its output every `max_file_size`, so a guard holding more than
//! `max_sstables_per_guard` tables' worth of live data came back over budget
//! and was picked again, forever. `compression.rs` holds the other load that
//! did this (compressed inputs rewritten raw).

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use pebblesdb::PebblesDb;
use pebblesdb_common::{Db, StoreOptions, StorePreset};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::LsmDb;
use pebblesdb_tests::within;

fn open(engine: &str) -> Arc<dyn Db> {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = Path::new("/progress");
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = 256 << 10;
    opts.max_file_size = 32 << 10;
    opts.level0_compaction_trigger = 2;
    if engine == "flsm" {
        Arc::new(PebblesDb::open_with_options(env, dir, opts).unwrap())
    } else {
        Arc::new(LsmDb::open_with_options(env, dir, opts, StorePreset::HyperLevelDb).unwrap())
    }
}

/// 3,000 random keys with 4 KiB values: last-level guards end up holding
/// more than `max_sstables_per_guard` × `max_file_size` bytes. Each engine
/// settles in about a second and a hundred-odd jobs; a livelocked one
/// runs hundreds of jobs a second and never returns.
#[test]
fn large_values_on_random_keys_settle() {
    for engine in ["flsm", "lsm"] {
        let compactions = within(Duration::from_secs(120), move || {
            let db = open(engine);
            let value = vec![b'v'; 4 << 10];
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            for _ in 0..3000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                db.put(format!("key{x:016x}").as_bytes(), &value).unwrap();
            }
            db.flush().unwrap();
            db.stats().compactions
        });
        assert!(compactions < 1_000, "{engine}: {compactions} compactions");
    }
}
