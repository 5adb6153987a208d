//! End-to-end tests driving the YCSB runner and the application layers over
//! the real engines — the full stack Figure 5.5 and Figure 5.6 use.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pebblesdb::PebblesDb;
use pebblesdb_apps::{HyperDexLike, MongoLike};
use pebblesdb_common::{Db, KvStore, StoreOptions, StorePreset};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::LsmDb;
use pebblesdb_ycsb::{drive, execute, CoreWorkload, Driven, Operation, WorkloadKind};
use rand::rngs::StdRng;

/// Runs `operations` of `kind` over `records` records through the one
/// closed-loop driver, as `db_bench --exp fig5_5_ycsb` does.
fn run_ycsb(
    store: &Arc<dyn KvStore>,
    kind: WorkloadKind,
    records: u64,
    operations: u64,
    threads: usize,
    value_size: usize,
) -> Driven {
    let mix = CoreWorkload::preset(kind, records).with_value_size(value_size);
    drive(threads, operations, 0xabcd_0000, mix.worker(store)).unwrap()
}

fn small_options() -> StoreOptions {
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = 64 << 10;
    opts.max_file_size = 32 << 10;
    opts.base_level_bytes = 128 << 10;
    opts.top_level_bits = 8;
    opts
}

/// Like [`run_ycsb`] on four threads, counting the reads that found their
/// key and the inserts.
fn run_counted(
    store: &Arc<dyn KvStore>,
    kind: WorkloadKind,
    records: u64,
    operations: u64,
) -> (u64, u64) {
    let (found, inserts) = (AtomicU64::new(0), AtomicU64::new(0));
    let mix = CoreWorkload::preset(kind, records).with_value_size(64);
    drive(4, operations, 0xabcd_0000, |_thread| {
        let (mut mine, found, inserts) = (mix.fork(), &found, &inserts);
        Ok(move |_index: u64, rng: &mut StdRng| {
            let op = mine.next_operation(rng);
            match &op {
                Operation::Read(key) if store.get(key)?.is_some() => {
                    found.fetch_add(1, Ordering::Relaxed);
                }
                Operation::Insert(..) => {
                    inserts.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
            execute(store, op)
        })
    })
    .unwrap();
    (found.into_inner(), inserts.into_inner())
}

#[test]
fn ycsb_suite_runs_against_pebblesdb_with_four_threads() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let store: Arc<dyn KvStore> =
        Arc::new(PebblesDb::open_with_options(env, Path::new("/ycsb"), small_options()).unwrap());

    let records = 2000u64;
    run_ycsb(&store, WorkloadKind::LoadA, records, records, 4, 256);
    store.flush().unwrap();

    for kind in [
        WorkloadKind::A,
        WorkloadKind::B,
        WorkloadKind::C,
        WorkloadKind::D,
        WorkloadKind::E,
        WorkloadKind::F,
    ] {
        let report = run_ycsb(&store, kind, records, 1000, 4, 256);
        assert_eq!(report.operations, 1000, "{}", kind.name());
        assert!(report.kops_per_second() > 0.0, "{}", kind.name());
        assert_eq!(report.latency.count(), 1000, "{}", kind.name());
        assert!(
            report.latency.percentile(50.0) <= report.latency.percentile(99.0),
            "{}",
            kind.name()
        );
    }
    // The store served real data: workload C is read-only over loaded keys.
    let stats = store.stats();
    assert!(stats.gets > 0);
    assert!(stats.seeks > 0, "workload E must issue range queries");
}

/// The figures read what `Load A` / `Load E` wrote: on any thread count a
/// load writes exactly the records `0..record_count` (the old per-thread
/// insert sequences wrote the same keys *past* the record space and left
/// none of the records present), and the transaction phases' inserts draw
/// distinct records past them.
#[test]
fn a_multi_threaded_load_writes_exactly_the_records_the_workloads_read() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let store: Arc<dyn KvStore> =
        Arc::new(PebblesDb::open_with_options(env, Path::new("/load"), small_options()).unwrap());
    let records = 2000u64;
    let distinct_keys = |store: &Arc<dyn KvStore>| store.scan(b"", &[], 100_000).unwrap().len();

    for load in [WorkloadKind::LoadA, WorkloadKind::LoadE] {
        let loaded = run_ycsb(&store, load, records, records, 4, 64);
        assert_eq!(loaded.operations, records);
        for index in 0..records {
            let key = CoreWorkload::key_for(index);
            assert!(store.get(&key).unwrap().is_some(), "record {index} missing");
        }
        assert_eq!(distinct_keys(&store), records as usize, "{}", load.name());
    }

    // Workload C is all reads of loaded records: (nearly) every one hits.
    let (found, inserts) = run_counted(&store, WorkloadKind::C, records, 1000);
    assert!(found >= 990, "workload C found {found} of 1000 reads");
    assert_eq!(inserts, 0);

    // D and E insert (5% of operations): across 4 threads every insert is
    // a new record past the loaded ones, none drawn twice. E is a fresh
    // phase, so its inserts start at `records` again and overwrite D's.
    let (_, d_inserts) = run_counted(&store, WorkloadKind::D, records, 2000);
    assert!(d_inserts > 40, "{d_inserts} inserts");
    assert_eq!(distinct_keys(&store) as u64, records + d_inserts);
    let (_, e_inserts) = run_counted(&store, WorkloadKind::E, records, 2000);
    assert!(e_inserts > 40, "{e_inserts} inserts");
    assert_eq!(
        distinct_keys(&store) as u64,
        records + d_inserts.max(e_inserts)
    );
}

#[test]
fn hyperdex_layer_runs_ycsb_over_both_engines() {
    for use_pebbles in [true, false] {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        // The app layers take a multi-namespace `Db`: their secondary
        // indexes and collections are real column families now.
        let engine: Arc<dyn Db> = if use_pebbles {
            Arc::new(PebblesDb::open_with_options(env, Path::new("/hx"), small_options()).unwrap())
        } else {
            Arc::new(
                LsmDb::open_with_options(
                    env,
                    Path::new("/hx"),
                    small_options(),
                    StorePreset::HyperLevelDb,
                )
                .unwrap(),
            )
        };
        let app: Arc<HyperDexLike> = Arc::new(HyperDexLike::new(engine, 0).unwrap());

        let records = 1000u64;
        let store: Arc<dyn KvStore> = Arc::clone(&app) as Arc<dyn KvStore>;
        run_ycsb(&store, WorkloadKind::LoadA, records, records, 2, 128);
        let report = run_ycsb(&store, WorkloadKind::A, records, 500, 2, 128);
        assert_eq!(report.operations, 500);
        assert!(store.engine_name().starts_with("HyperDex("));

        // Values written through the app layer read back through it.
        let key = CoreWorkload::key_for(3);
        let value = app.get(&key).unwrap().expect("loaded key exists");
        // ... and the secondary-index family finds the key by its value.
        assert!(app
            .search_by_value(&value)
            .unwrap()
            .iter()
            .any(|k| k == &key));
    }
}

#[test]
fn mongo_layer_preserves_values_across_engines_and_scans() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let engine: Arc<dyn Db> =
        Arc::new(PebblesDb::open_with_options(env, Path::new("/mongo"), small_options()).unwrap());
    let app = MongoLike::new(engine, 0).unwrap();
    for i in 0..500u32 {
        app.put(
            format!("doc{i:05}").as_bytes(),
            format!("body-{i}").as_bytes(),
        )
        .unwrap();
    }
    app.flush().unwrap();
    assert_eq!(app.get(b"doc00042").unwrap(), Some(b"body-42".to_vec()));
    let scanned = app.scan(b"doc00100", b"doc00110", 100).unwrap();
    assert_eq!(scanned.len(), 10);
    assert_eq!(scanned[0].0, b"doc00100".to_vec());
    assert_eq!(scanned[0].1, b"body-100".to_vec());
    assert_eq!(app.engine_name(), "MongoDB(PebblesDB)");
}
