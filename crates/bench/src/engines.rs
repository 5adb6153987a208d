//! The evaluated stores: which they are, their benchmark-scaled options,
//! and the one function that opens any of them (and the one that opens the
//! environment under them).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use pebblesdb::PebblesDb;
use pebblesdb_btree::BTreeStore;
use pebblesdb_common::{Db, Error, PrefixDb, Result, StoreOptions, StorePreset};
use pebblesdb_env::{DiskEnv, Env, MemEnv, SimEnv};
use pebblesdb_lsm::LsmDb;
use pebblesdb_shard::ShardConfig;

/// Which store an experiment runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The FLSM engine with paper-default options.
    PebblesDb,
    /// The FLSM engine with `max_sstables_per_guard = 1`.
    PebblesDb1,
    /// Baseline LSM with HyperLevelDB parameters (which are LevelDB's: the
    /// paper's separate LevelDB series would be this configuration again).
    HyperLevelDb,
    /// Baseline LSM with RocksDB parameters.
    RocksDb,
    /// The page-oriented B+Tree store (KyotoCabinet / WiredTiger stand-in).
    BTree,
}

impl EngineKind {
    /// The LSM-family stores compared throughout the paper's figures: the
    /// three distinct configurations behind its four series.
    pub const PAPER_STORES: [EngineKind; 3] = [
        EngineKind::PebblesDb,
        EngineKind::HyperLevelDb,
        EngineKind::RocksDb,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::PebblesDb => "PebblesDB",
            EngineKind::PebblesDb1 => "PebblesDB-1",
            EngineKind::HyperLevelDb => "HyperLevelDB",
            EngineKind::RocksDb => "RocksDB",
            EngineKind::BTree => "BTree",
        }
    }

    /// Parses an `--engine` flag value.
    pub fn from_flag(value: &str) -> Option<EngineKind> {
        match value.to_ascii_lowercase().as_str() {
            "pebblesdb" | "pebbles" | "flsm" => Some(EngineKind::PebblesDb),
            "pebblesdb-1" | "pebblesdb1" => Some(EngineKind::PebblesDb1),
            "hyperleveldb" | "hyper" => Some(EngineKind::HyperLevelDb),
            "rocksdb" => Some(EngineKind::RocksDb),
            "btree" | "wiredtiger" | "kyotocabinet" => Some(EngineKind::BTree),
            _ => None,
        }
    }

    /// The options preset of this store; the B+Tree takes the baseline's
    /// sizes (it reads only the cache and page-size fields).
    fn preset(self) -> StorePreset {
        match self {
            EngineKind::PebblesDb => StorePreset::PebblesDb,
            EngineKind::PebblesDb1 => StorePreset::PebblesDb1,
            EngineKind::HyperLevelDb | EngineKind::BTree => StorePreset::HyperLevelDb,
            EngineKind::RocksDb => StorePreset::RocksDb,
        }
    }
}

/// Benchmark options: the paper-preset parameters scaled down by
/// `scale_divisor` so multi-level behaviour appears at laptop-size datasets.
pub fn scaled_options(kind: EngineKind, scale_divisor: usize) -> StoreOptions {
    let mut options = StoreOptions::with_preset(kind.preset()).scale_down(scale_divisor);
    // Guard density is tuned for the scaled-down key counts used in the
    // harness (tens of thousands to a few million keys): roughly a few dozen
    // guards in the deepest populated level, as in the paper's configuration.
    options.top_level_bits = 14;
    options.bit_decrement = 2;
    // Keep output sstables reasonably sized and the table cache large enough
    // that reads are not dominated by re-opening files at bench scale.
    options.max_file_size = options.max_file_size.max(256 << 10);
    options.block_cache_capacity = options.block_cache_capacity.max(2 << 20);
    options.max_open_files = 8192;
    options
}

/// A store the harness opened.
pub struct Opened {
    /// The store as a multi-family database. The LSM-family engines provide
    /// column families natively; the B+Tree serves them (and its default
    /// family) through the shared key-prefix emulation.
    pub db: Arc<dyn Db>,
    /// The same store as its own type when it is an unsharded FLSM, for the
    /// guard-shape accessors no other store has (Figure 5.4).
    pub flsm: Option<Arc<PebblesDb>>,
}

/// Opens the engine `kind` in `dir` of `env` with explicit (already scaled)
/// options — the harness's one store opener. With `shards`, the store is a
/// [`ShardedDb`](pebblesdb_shard::ShardedDb) facade over that many
/// independent instances (each with its own WAL, flush thread and compaction
/// pool) in `shard-<i>/` subdirectories; only the LSM-family engines shard —
/// the B+Tree has no shape policy to replicate.
pub fn open_store(
    kind: EngineKind,
    env: Arc<dyn Env>,
    dir: &Path,
    options: StoreOptions,
    shards: Option<ShardConfig>,
) -> Result<Opened> {
    let preset = kind.preset();
    let db: Arc<dyn Db> = match (kind, shards) {
        (EngineKind::PebblesDb | EngineKind::PebblesDb1, None) => {
            let flsm = Arc::new(PebblesDb::open_with_options(env, dir, options)?);
            return Ok(Opened {
                db: Arc::clone(&flsm) as Arc<dyn Db>,
                flsm: Some(flsm),
            });
        }
        (EngineKind::PebblesDb | EngineKind::PebblesDb1, Some(config)) => {
            Arc::new(PebblesDb::open_sharded(env, dir, options, config)?)
        }
        (EngineKind::BTree, None) => Arc::new(PrefixDb::new(Arc::new(BTreeStore::open(
            env, dir, options,
        )?))),
        (EngineKind::BTree, Some(_)) => {
            return Err(Error::invalid_argument(
                "--shards requires an LSM-family engine",
            ))
        }
        (_, None) => Arc::new(LsmDb::open_with_options(env, dir, options, preset)?),
        (_, Some(config)) => Arc::new(LsmDb::open_sharded(env, dir, options, preset, config)?),
    };
    Ok(Opened { db, flsm: None })
}

/// Creates the environment requested by `--env` (`mem` or `disk`) and the
/// directory a store labelled `label` lives in — the harness's one
/// environment opener.
///
/// Disk runs use a per-label directory under the system temp directory (or
/// `--dir` if given); memory runs are hermetic and are the default, matching
/// the fully-cached configuration used for unit-scale runs.
///
/// `write_latency_us > 0` emulates a slow device for sstable writes (flushes
/// and compactions pay it, the WAL does not) by putting a [`SimEnv`] over
/// either env; this is how compaction-parallelism wins are made visible on a
/// machine whose page cache would otherwise absorb all compaction IO.
pub fn open_env(
    env_kind: &str,
    label: &str,
    dir_flag: &str,
    write_latency_us: u64,
) -> (Arc<dyn Env>, PathBuf) {
    let (env, dir): (Arc<dyn Env>, PathBuf) = if env_kind == "disk" {
        let base = if dir_flag.is_empty() {
            std::env::temp_dir().join("pebblesdb-bench")
        } else {
            PathBuf::from(dir_flag)
        };
        let dir = base.join(format!("{label}-{}", std::process::id()));
        let env = DiskEnv::new();
        let _ = env.remove_dir_all(&dir);
        (Arc::new(env), dir)
    } else {
        let dir = PathBuf::from(format!("/bench/{label}"));
        (Arc::new(MemEnv::new()), dir)
    };
    if write_latency_us == 0 {
        return (env, dir);
    }
    let slow = SimEnv::new(env);
    slow.set_append_latency(".sst", Duration::from_micros(write_latency_us));
    (Arc::new(slow), dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::{CompressionType, NUM_LEVELS};

    const ALL: [EngineKind; 5] = [
        EngineKind::PebblesDb,
        EngineKind::PebblesDb1,
        EngineKind::HyperLevelDb,
        EngineKind::RocksDb,
        EngineKind::BTree,
    ];

    /// `bench_suite` builds its stores from `scaled_options(_, 16)`, so these
    /// fields are `BENCHMARK.json`'s configuration: a refactor that moves one
    /// moves the benchmark's numbers. The destructuring names every field, so
    /// a new option does not compile until its benchmark value is pinned here.
    #[test]
    fn the_benchmarks_store_configuration_is_pinned() {
        assert_eq!((NUM_LEVELS, pebblesdb_sstable::BLOCK_SIZE), (7, 4096));
        for (kind, threads) in [(EngineKind::PebblesDb, 2), (EngineKind::HyperLevelDb, 1)] {
            let StoreOptions {
                write_buffer_size,
                block_cache_capacity,
                max_open_files,
                bloom_bits_per_key,
                level0_compaction_trigger,
                level0_stop_writes_trigger,
                max_file_size,
                base_level_bytes,
                compaction_threads,
                value_separation_threshold,
                vlog_file_size,
                compression,
                counters: _,
                max_sstables_per_guard,
                top_level_bits,
                bit_decrement,
                seek_compaction_threshold,
                enable_aggressive_compaction,
            } = scaled_options(kind, 16);
            assert_eq!(write_buffer_size, 256 << 10, "{kind:?}");
            assert_eq!(block_cache_capacity, 2 << 20);
            assert_eq!(max_file_size, 256 << 10);
            assert_eq!(base_level_bytes, 640 << 10);
            assert_eq!(vlog_file_size, 4 << 20);
            assert_eq!(bloom_bits_per_key, 10);
            assert_eq!(max_open_files, 8192);
            assert_eq!(
                (level0_compaction_trigger, level0_stop_writes_trigger),
                (4, 12)
            );
            assert_eq!((top_level_bits, bit_decrement), (14, 2));
            assert_eq!(max_sstables_per_guard, 8);
            assert_eq!(seek_compaction_threshold, 10);
            assert!(enable_aggressive_compaction);
            assert_eq!(compaction_threads, threads, "{kind:?}");
            assert_eq!(value_separation_threshold, 0);
            assert_eq!(compression, CompressionType::None);
        }
    }

    #[test]
    fn every_engine_kind_opens_and_serves_reads() {
        for kind in ALL {
            let (env, dir) = open_env("mem", kind.name(), "", 0);
            let opened = open_store(kind, env, &dir, scaled_options(kind, 4), None).unwrap();
            opened.db.put(b"k", b"v").unwrap();
            assert_eq!(
                opened.db.get(b"k").unwrap(),
                Some(b"v".to_vec()),
                "{kind:?}"
            );
            assert!(!opened.db.engine_name().is_empty());
            assert_eq!(EngineKind::from_flag(kind.name()), Some(kind));
            assert_eq!(
                opened.flsm.is_some(),
                opened.db.engine_name().starts_with("Pebbles")
            );
        }
    }

    #[test]
    fn sharding_is_for_the_lsm_family_only() {
        let config = || {
            Some(ShardConfig {
                shards: 2,
                ..Default::default()
            })
        };
        for kind in ALL {
            let (env, dir) = open_env("mem", kind.name(), "", 0);
            let opened = open_store(kind, env, &dir, scaled_options(kind, 4), config());
            match kind {
                EngineKind::BTree => assert!(opened.is_err()),
                _ => assert_eq!(opened.unwrap().db.shard_stats().len(), 2, "{kind:?}"),
            }
        }
    }
}
