//! Block/vlog compression integration tests, run against both engines:
//! format compatibility across compression-off and compression-on reopens
//! (per-block tags make mixed-format databases normal, not a migration),
//! on-disk shrinkage for compressible data, compressed compaction inputs
//! with raw outputs, and a bit-flip corruption sweep — a flipped bit
//! anywhere in a compressed data/index block or compressed vlog record must
//! surface as an error or a clean miss, never a panic and never a wrong
//! value.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use pebblesdb::PebblesDb;
use pebblesdb_common::{CompressionType, Db, KvStore, ReadOptions, StoreOptions, StorePreset};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::LsmDb;
use pebblesdb_tests::within;

const ENGINES: [&str; 2] = ["flsm", "lsm"];

fn open_engine(engine: &str, env: &Arc<dyn Env>, dir: &Path, options: StoreOptions) -> Arc<dyn Db> {
    if engine == "flsm" {
        Arc::new(PebblesDb::open_with_options(Arc::clone(env), dir, options).unwrap())
    } else {
        Arc::new(
            LsmDb::open_with_options(Arc::clone(env), dir, options, StorePreset::HyperLevelDb)
                .unwrap(),
        )
    }
}

fn small_file_options(compression: CompressionType) -> StoreOptions {
    let mut opts = StoreOptions::default();
    opts.write_buffer_size = 64 << 10;
    opts.max_file_size = 32 << 10;
    opts.level0_compaction_trigger = 2;
    opts.compression = compression;
    opts
}

/// A deterministic, highly compressible value derived from its key index.
fn compressible_value(i: u32, len: usize) -> Vec<u8> {
    let fragment = format!("fragment-{:06}-", i % 7);
    fragment
        .as_bytes()
        .iter()
        .copied()
        .cycle()
        .take(len)
        .collect()
}

fn table_files(env: &dyn Env, dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = env
        .children(dir)
        .unwrap()
        .into_iter()
        .filter(|name| name.ends_with(".sst"))
        .collect();
    names.sort();
    names
}

fn total_sst_bytes(env: &dyn Env, dir: &Path) -> u64 {
    table_files(env, dir)
        .iter()
        .map(|name| env.file_size(&dir.join(name)).unwrap())
        .sum()
}

#[test]
fn mixed_format_databases_survive_compression_toggles() {
    for engine in ENGINES {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let dir = Path::new("/compression-toggle");

        // Phase 1: compression off — every block is written with tag 0,
        // exactly the pre-compression format.
        let db = open_engine(engine, &env, dir, small_file_options(CompressionType::None));
        for i in 0..400u32 {
            db.put(format!("a{i:05}").as_bytes(), &compressible_value(i, 512))
                .unwrap();
        }
        db.flush().unwrap();
        drop(db);

        // Phase 2: reopen with compression on; the old tag-0 tables must
        // stay readable and new writes land compressed next to them.
        let db = open_engine(engine, &env, dir, small_file_options(CompressionType::Lz));
        for i in 0..400u32 {
            assert_eq!(
                db.get(format!("a{i:05}").as_bytes()).unwrap().as_deref(),
                Some(compressible_value(i, 512).as_slice()),
                "{engine}: tag-0 data unreadable after enabling compression"
            );
        }
        for i in 0..400u32 {
            db.put(format!("b{i:05}").as_bytes(), &compressible_value(i, 512))
                .unwrap();
        }
        db.flush().unwrap();
        drop(db);

        // Phase 3: reopen with compression off again; compressed blocks are
        // still decoded (the reader keys off the stored tag, not the
        // option), and compaction may rewrite them raw — both formats
        // coexist in one tree either way.
        let db = open_engine(engine, &env, dir, small_file_options(CompressionType::None));
        for i in 0..400u32 {
            for prefix in ["a", "b"] {
                assert_eq!(
                    db.get(format!("{prefix}{i:05}").as_bytes())
                        .unwrap()
                        .as_deref(),
                    Some(compressible_value(i, 512).as_slice()),
                    "{engine}: {prefix}-keys unreadable after disabling compression"
                );
            }
        }
        // Differential: a full scan over the mixed-format tree matches the
        // expected map exactly.
        let mut iter = db.iter(&ReadOptions::default()).unwrap();
        iter.seek_to_first();
        let mut count = 0;
        while iter.valid() {
            count += 1;
            iter.next();
        }
        iter.status().unwrap();
        assert_eq!(count, 800, "{engine}: mixed-format scan lost keys");
    }
}

#[test]
fn compression_shrinks_tables_and_moves_the_counters() {
    for engine in ENGINES {
        let mut sizes = Vec::new();
        for compression in [CompressionType::None, CompressionType::Lz] {
            let env: Arc<dyn Env> = Arc::new(MemEnv::new());
            let dir = Path::new("/compression-size");
            let db = open_engine(engine, &env, dir, small_file_options(compression));
            for i in 0..500u32 {
                db.put(format!("k{i:05}").as_bytes(), &compressible_value(i, 1024))
                    .unwrap();
            }
            db.flush().unwrap();
            let stats = db.stats();
            if compression == CompressionType::Lz {
                assert!(
                    stats.compress_input_bytes > 0,
                    "{engine}: compress_input_bytes never moved"
                );
                assert!(
                    stats.compress_output_bytes < stats.compress_input_bytes,
                    "{engine}: codec did not shrink compressible blocks"
                );
            } else {
                assert_eq!(stats.compress_input_bytes, 0);
            }
            sizes.push(total_sst_bytes(env.as_ref(), dir));
            drop(db);
        }
        assert!(
            sizes[1] * 2 < sizes[0],
            "{engine}: compressed tables ({}) not < half of raw ({})",
            sizes[1],
            sizes[0]
        );
    }
}

/// Two stores opened from clones of one options value (a leader and an
/// in-process follower, two engines in one benchmark) each count their own
/// compression work: the sink rides inside the options, and sharing it made
/// every store report the others' bytes.
#[test]
fn compression_counters_do_not_leak_between_stores() {
    for engine in ENGINES {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let options = small_file_options(CompressionType::Lz);
        let busy = open_engine(engine, &env, Path::new("/leak-busy"), options.clone());
        let idle = open_engine(engine, &env, Path::new("/leak-idle"), options.clone());
        for i in 0..400u32 {
            busy.put(format!("key{i:06}").as_bytes(), &compressible_value(i, 400))
                .unwrap();
        }
        busy.flush().unwrap();
        assert!(busy.stats().compress_input_bytes > 0, "{engine}");
        assert_eq!(idle.stats().compress_input_bytes, 0, "{engine}");
        assert_eq!(idle.stats().compress_output_bytes, 0, "{engine}");
    }
}

/// Compressed inputs, raw outputs: tables written compressed and compacted
/// after a reopen with compression off come out several times larger than
/// the inputs read. Output tables are numbered on demand, so no estimate
/// made from the inputs' on-disk bytes can run short (one did: put #475
/// failed and poisoned the store). The load also has the FLSM rewrite
/// guards in place that hold more than `max_sstables_per_guard` tables'
/// worth of data, which once compacted them forever (`compaction_progress.rs`).
#[test]
fn raw_outputs_of_compressed_inputs_never_run_out_of_file_numbers() {
    fn options(compression: CompressionType) -> StoreOptions {
        let mut opts = small_file_options(compression);
        opts.write_buffer_size = 256 << 10;
        opts
    }
    fn key(i: u32) -> Vec<u8> {
        format!("k{i:05}").into_bytes()
    }
    fn load(engine: &str, db: &dyn Db, keys: std::ops::Range<u32>) {
        for i in keys {
            db.put(&key(i), &compressible_value(i, 1024))
                .unwrap_or_else(|err| panic!("{engine}: put #{i}: {err}"));
        }
    }
    fn check(engine: &str, db: &dyn Db, when: &str) {
        for i in 0..6000u32 {
            assert_eq!(
                db.get(&key(i)).unwrap().as_deref(),
                Some(compressible_value(i, 1024).as_slice()),
                "{engine}, {when}: key {i}"
            );
        }
    }

    for engine in ENGINES {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let dir = Path::new("/compression-toggled-inputs");
        let db = open_engine(engine, &env, dir, options(CompressionType::Lz));
        load(engine, db.as_ref(), 0..500);
        drop(db);
        let db = open_engine(engine, &env, dir, options(CompressionType::None));
        let db = within(Duration::from_secs(120), move || {
            load(engine, db.as_ref(), 500..6000);
            db.flush().unwrap();
            db
        });
        let compactions = db.stats().compactions;
        assert!(compactions < 1_000, "{engine}: {compactions} compactions");
        check(engine, db.as_ref(), "after the load");
        drop(db);
        let reopened = open_engine(engine, &env, dir, options(CompressionType::None));
        check(engine, reopened.as_ref(), "reopened");
    }
}

/// Every sampled single-bit flip in a compressed table file must read as an
/// error, a clean miss, or the correct value — never a panic, never garbage.
#[test]
fn bit_flips_in_compressed_tables_never_return_garbage() {
    for engine in ENGINES {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let dir = Path::new("/compression-bitflip");
        let db = open_engine(engine, &env, dir, small_file_options(CompressionType::Lz));
        for i in 0..600u32 {
            db.put(format!("k{i:05}").as_bytes(), &compressible_value(i, 512))
                .unwrap();
        }
        db.flush().unwrap();
        drop(db);

        let files = table_files(env.as_ref(), dir);
        assert!(!files.is_empty(), "{engine}: no sstables on disk");
        for name in files.iter().take(2) {
            let path = dir.join(name);
            let pristine = env.read_file_to_vec(&path).unwrap();
            // A prime stride spreads flips across data blocks, the index
            // block, and both trailers without reopening thousands of times.
            let stride = (pristine.len() / 24).max(1) | 1;
            for pos in (0..pristine.len()).step_by(stride) {
                let mut tampered = pristine.clone();
                tampered[pos] ^= 1 << (pos % 8);
                let mut f = env.new_writable_file(&path).unwrap();
                f.append(&tampered).unwrap();
                f.close().unwrap();

                // Reopen so no cache hides the corruption. Failing to open
                // is itself a clean detection.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let db =
                        open_engine(engine, &env, dir, small_file_options(CompressionType::Lz));
                    for i in (0..600u32).step_by(101) {
                        let key = format!("k{i:05}");
                        match db.get(key.as_bytes()) {
                            Err(_) | Ok(None) => {}
                            Ok(Some(value)) => assert_eq!(
                                value,
                                compressible_value(i, 512),
                                "{engine}: flip at {pos} in {name} returned a wrong value"
                            ),
                        }
                    }
                }));
                assert!(
                    result.is_ok(),
                    "{engine}: flip at byte {pos} of {name} panicked"
                );
            }
            // Restore the pristine file for the next round.
            let mut f = env.new_writable_file(&path).unwrap();
            f.append(&pristine).unwrap();
            f.close().unwrap();
        }
    }
}

/// Bit flips inside compressed vlog records fail the record CRC (or the
/// codec's own framing checks) — resolution errors out, never fabricates.
#[test]
fn bit_flips_in_compressed_vlog_records_surface_as_corruption() {
    for engine in ENGINES {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let dir = Path::new("/compression-vlog-flip");
        let mut opts = small_file_options(CompressionType::Lz);
        opts.value_separation_threshold = 256;
        let db = open_engine(engine, &env, dir, opts.clone());
        for i in 0..50u32 {
            db.put(format!("k{i:04}").as_bytes(), &compressible_value(i, 2048))
                .unwrap();
        }
        db.flush().unwrap();
        // The separated-and-compressed path must have fired.
        assert!(
            db.stats().vlog_bytes_written > 0,
            "{engine}: no vlog writes"
        );
        assert!(
            db.stats().compress_input_bytes > 0,
            "{engine}: vlog values never hit the codec"
        );
        drop(db);

        let vlogs: Vec<String> = env
            .children(dir)
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".vlog"))
            .collect();
        assert!(!vlogs.is_empty(), "{engine}: no vlog files on disk");
        let path = dir.join(&vlogs[0]);
        let pristine = env.read_file_to_vec(&path).unwrap();
        let stride = (pristine.len() / 32).max(1) | 1;
        let mut detected = 0u32;
        for pos in (0..pristine.len()).step_by(stride) {
            let mut tampered = pristine.clone();
            tampered[pos] ^= 1 << (pos % 8);
            let mut f = env.new_writable_file(&path).unwrap();
            f.append(&tampered).unwrap();
            f.close().unwrap();

            let db = open_engine(engine, &env, dir, opts.clone());
            for i in (0..50u32).step_by(7) {
                let key = format!("k{i:04}");
                match db.get(key.as_bytes()) {
                    Err(_) => detected += 1,
                    Ok(None) => {}
                    Ok(Some(value)) => assert_eq!(
                        value,
                        compressible_value(i, 2048),
                        "{engine}: vlog flip at {pos} returned a wrong value"
                    ),
                }
            }
            drop(db);
        }
        assert!(
            detected > 0,
            "{engine}: no vlog bit flip was ever detected as corruption"
        );
        let mut f = env.new_writable_file(&path).unwrap();
        f.append(&pristine).unwrap();
        f.close().unwrap();
    }
}

/// Large separated values roundtrip through compress-on-append and
/// decompress-on-resolve, including through a GC relocation.
#[test]
fn compressed_vlog_values_roundtrip_and_survive_gc() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = Path::new("/compression-vlog-gc");
    let mut opts = small_file_options(CompressionType::Lz);
    opts.value_separation_threshold = 256;
    opts.vlog_file_size = 16 << 10;
    let db = Arc::new(PebblesDb::open_with_options(Arc::clone(&env), dir, opts).unwrap());
    for i in 0..100u32 {
        db.put(format!("k{i:04}").as_bytes(), &compressible_value(i, 2048))
            .unwrap();
    }
    // Overwrite half so GC has garbage to collect.
    for i in (0..100u32).step_by(2) {
        db.put(
            format!("k{i:04}").as_bytes(),
            &compressible_value(i + 1000, 2048),
        )
        .unwrap();
    }
    db.flush().unwrap();
    for _ in 0..4 {
        db.vlog_gc().unwrap();
    }
    for i in 0..100u32 {
        let expect = if i % 2 == 0 {
            compressible_value(i + 1000, 2048)
        } else {
            compressible_value(i, 2048)
        };
        assert_eq!(
            db.get(format!("k{i:04}").as_bytes()).unwrap().as_deref(),
            Some(expect.as_slice()),
            "key k{i:04} wrong after compressed GC relocation"
        );
    }
}
