//! Store configuration options and the presets used in the evaluation.
//!
//! The paper compares PebblesDB against LevelDB, HyperLevelDB and RocksDB,
//! which differ mainly in memtable size, level-0 back-pressure thresholds and
//! compaction aggressiveness (section 5.1 of the paper). [`StorePreset`]
//! captures those configurations so the benchmark harness can request "run
//! this workload with RocksDB-style parameters" for any engine.

use std::sync::Arc;

use crate::key::SequenceNumber;
use crate::store::EngineCounters;

/// Which codec a block (or separated value) is stored with.
///
/// The numeric value of each variant is the on-disk compression tag written
/// in every sstable block trailer, so the enum doubles as the tag registry:
/// files written before compression existed carry tag `0` everywhere and
/// remain readable forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompressionType {
    /// Store bytes verbatim (tag 0 — the only tag older files contain).
    #[default]
    None,
    /// The in-tree LZ77-style codec from `pebblesdb-compress` (tag 1).
    Lz,
}

impl CompressionType {
    /// The on-disk block-trailer tag for this codec.
    pub fn tag(self) -> u8 {
        match self {
            CompressionType::None => 0,
            CompressionType::Lz => 1,
        }
    }

    /// Short name used by flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            CompressionType::None => "off",
            CompressionType::Lz => "lz",
        }
    }

    /// Parses the `--compression` flag values.
    pub fn parse(flag: &str) -> Option<CompressionType> {
        match flag {
            "off" | "none" | "raw" | "0" => Some(CompressionType::None),
            "on" | "lz" | "1" => Some(CompressionType::Lz),
            _ => None,
        }
    }
}

/// Which evaluated key-value store a configuration models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorePreset {
    /// HyperLevelDB defaults, which are Google LevelDB's: 4 MiB memtable,
    /// level-0 slowdown 8 / stop 12, one compaction thread.
    HyperLevelDb,
    /// RocksDB defaults: 64 MiB memtable, level-0 slowdown 20 / stop 24,
    /// multi-threaded compaction.
    RocksDb,
    /// PebblesDB defaults (FLSM engine with guards).
    PebblesDb,
    /// PebblesDB with `max_sstables_per_guard = 1`, which degenerates to
    /// LSM-like behaviour (the "PebblesDB-1" series in Figure 5.1d).
    PebblesDb1,
}

impl StorePreset {
    /// A short human-readable name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            StorePreset::HyperLevelDb => "HyperLevelDB",
            StorePreset::RocksDb => "RocksDB",
            StorePreset::PebblesDb => "PebblesDB",
            StorePreset::PebblesDb1 => "PebblesDB-1",
        }
    }
}

/// Growth factor between the byte budgets of consecutive levels (the LevelDB
/// family's 10x).
const LEVEL_SIZE_MULTIPLIER: u64 = 10;

/// Number of on-disk levels of an LSM store (level 0 included), LevelDB's
/// seven.
pub const NUM_LEVELS: usize = 7;

/// Configuration shared by every engine in the workspace.
///
/// The FLSM-specific knobs (`max_sstables_per_guard`, guard-selection bits,
/// parallel seeks, ...) are ignored by the baseline LSM and B+Tree engines.
/// Opening a store creates its directory when it does not exist.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Verify checksums and fail loudly on any sign of corruption.
    pub paranoid_checks: bool,

    /// Size (bytes) a memtable may reach before being flushed to level 0.
    pub write_buffer_size: usize,
    /// Capacity (bytes) of the block cache shared by all sstables.
    pub block_cache_capacity: usize,
    /// Open sstable readers a family keeps beyond those its live cursors
    /// and compaction jobs hold (a file descriptor each on a real disk).
    /// A live sstable carries its reader; past this budget the table cache
    /// closes the ones not probed since its last sweep.
    pub max_open_files: usize,
    /// Bits per key for the sstable-level bloom filter (0 disables filters).
    pub bloom_bits_per_key: usize,

    /// Number of level-0 files that triggers a compaction.
    pub level0_compaction_trigger: usize,
    /// Number of level-0 files at which writes are throttled.
    pub level0_slowdown_writes_trigger: usize,
    /// Number of level-0 files at which writes stop until compaction catches
    /// up.
    pub level0_stop_writes_trigger: usize,
    /// Target size (bytes) of an individual sstable produced by compaction.
    pub max_file_size: usize,
    /// Maximum total bytes for level 1; each deeper level's budget is ten
    /// times the one above it.
    pub base_level_bytes: u64,
    /// Size of the background compaction worker pool.
    ///
    /// With `n >= 1` the store starts `n` compaction workers plus one flush
    /// thread (so `imm -> L0` never waits behind a compaction), all through
    /// `Env::spawn`. FLSM workers each claim a *disjoint guard subset* of a
    /// level as an independent job (the paper's multi-threaded compaction,
    /// section 4); the baseline LSM runs one compaction at a time whatever
    /// the pool's size (classic leveled compaction cannot be split into
    /// disjoint jobs).
    ///
    /// With 0 the store has **no background threads**: a flush or a
    /// compaction runs, through the same job code, on the thread whose call
    /// made it due — the writer that filled the memtable, the `flush()`
    /// caller, the cursor that armed a seek-triggered merge — before that
    /// call returns. A store driven from one thread is then deterministic:
    /// the same operations leave the same files, byte for byte.
    pub compaction_threads: usize,

    /// Key-value separation (WiscKey/BVLSM line): values of at least this
    /// many bytes are appended to a per-column-family value-log file at
    /// commit time, and the tree stores a fixed-size pointer instead. `0`
    /// (the default) disables separation entirely — every value stays
    /// inline and no `.vlog` files are created.
    ///
    /// Only the LSM engines built on the `crates/engine` chassis honour
    /// this; the B+Tree engine ignores it.
    pub value_separation_threshold: usize,
    /// Size (bytes) at which the active value-log file is sealed and a new
    /// one started. Sealed files are the unit of value-log garbage
    /// collection.
    pub vlog_file_size: usize,

    /// Codec for sstable data/index blocks and separated vlog values, at
    /// every level. Whatever the setting, blocks whose compressed form saves
    /// less than ~12.5% are stored raw (tag 0), and readers always dispatch
    /// on the per-block tag — so mixing settings across restarts of one
    /// store is safe.
    pub compression: CompressionType,
    /// The stat sink of the store these options configure: table builders,
    /// block readers and vlog appenders reach the store's counters through
    /// it. Clones share the `Arc` (that is how one store aggregates across
    /// its column families), so an engine installs a fresh sink when it
    /// opens — two stores opened from clones of one options value must not
    /// count into each other.
    pub counters: Arc<EngineCounters>,

    /// FLSM: maximum sstables a guard may hold before it must be compacted.
    pub max_sstables_per_guard: usize,
    /// FLSM: number of trailing hash bits that must be set for a key to be a
    /// guard at level 1 (section 4.4 of the paper, default 27 in the paper
    /// for 100M+ keys; scaled down here for laptop-scale datasets).
    pub top_level_bits: u32,
    /// FLSM: bits of relaxation per level when testing guard membership.
    pub bit_decrement: u32,
    /// FLSM: consecutive seeks that trigger seek-based compaction; `0`
    /// turns the trigger off.
    pub seek_compaction_threshold: usize,
    /// FLSM: threads that position the sstables of a last-level guard on a
    /// seek (PebblesDB optimization); `1` or less seeks them serially.
    pub parallel_seek_threads: usize,
    /// FLSM: enable aggressive whole-level compaction when levels are close
    /// in size.
    pub enable_aggressive_compaction: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            paranoid_checks: false,

            write_buffer_size: 4 << 20,
            block_cache_capacity: 8 << 20,
            max_open_files: 1000,
            bloom_bits_per_key: 10,

            level0_compaction_trigger: 4,
            level0_slowdown_writes_trigger: 8,
            level0_stop_writes_trigger: 12,
            max_file_size: 2 << 20,
            base_level_bytes: 10 << 20,
            compaction_threads: 1,

            value_separation_threshold: 0,
            vlog_file_size: 64 << 20,

            compression: CompressionType::None,
            counters: Arc::default(),

            max_sstables_per_guard: 8,
            top_level_bits: 14,
            bit_decrement: 2,
            seek_compaction_threshold: 10,
            parallel_seek_threads: 4,
            enable_aggressive_compaction: true,
        }
    }
}

impl StoreOptions {
    /// Returns the options the paper uses for the given store preset.
    pub fn with_preset(preset: StorePreset) -> Self {
        let mut opts = StoreOptions::default();
        match preset {
            StorePreset::HyperLevelDb => {
                opts.write_buffer_size = 4 << 20;
                opts.level0_slowdown_writes_trigger = 8;
                opts.level0_stop_writes_trigger = 12;
                opts.compaction_threads = 1;
            }
            StorePreset::RocksDb => {
                opts.write_buffer_size = 64 << 20;
                opts.level0_compaction_trigger = 4;
                opts.level0_slowdown_writes_trigger = 20;
                opts.level0_stop_writes_trigger = 24;
                opts.compaction_threads = 4;
            }
            StorePreset::PebblesDb => {
                // Section 4 of the paper: guards make per-range compaction
                // jobs independent, so PebblesDB compacts with a pool.
                opts.compaction_threads = 2;
            }
            StorePreset::PebblesDb1 => {
                opts.max_sstables_per_guard = 1;
                opts.compaction_threads = 2;
            }
        }
        opts
    }

    /// Scales the size-related knobs down by `factor`, keeping their ratios.
    ///
    /// The paper runs with datasets several times larger than RAM; the bench
    /// harness uses this to exercise the same level structure with
    /// laptop-scale datasets (e.g. `scale_down(16)` turns the 4 MiB memtable
    /// into 256 KiB so a 100k-key run still produces multi-level trees).
    pub fn scale_down(mut self, factor: usize) -> Self {
        let factor = factor.max(1);
        self.write_buffer_size = (self.write_buffer_size / factor).max(32 << 10);
        self.max_file_size = (self.max_file_size / factor).max(32 << 10);
        self.base_level_bytes = (self.base_level_bytes / factor as u64).max(128 << 10);
        self.block_cache_capacity = (self.block_cache_capacity / factor).max(64 << 10);
        self.vlog_file_size = (self.vlog_file_size / factor).max(256 << 10);
        self
    }

    /// The maximum total byte budget for a level.
    ///
    /// Level 0 is governed by file count rather than bytes; levels 1 and
    /// deeper grow geometrically.
    pub fn max_bytes_for_level(&self, level: usize) -> u64 {
        if level == 0 {
            return self.base_level_bytes;
        }
        let mut size = self.base_level_bytes;
        for _ in 1..level {
            size = size.saturating_mul(LEVEL_SIZE_MULTIPLIER);
        }
        size
    }
}

/// Options applied to individual read operations. A block a read copies
/// off the device or decodes always goes into the block cache.
#[derive(Debug, Clone, Default)]
pub struct ReadOptions {
    /// Verify block checksums on every read.
    pub verify_checksums: bool,
    /// Read as of this sequence number; `None` reads the latest data.
    ///
    /// The sequence must come from a live
    /// [`Snapshot`](crate::snapshot::Snapshot) handle (keep the handle alive
    /// for the duration of the read or cursor). Engines only guarantee
    /// history for *pinned* sequences: compaction garbage-collects versions
    /// below the oldest pin, and the B+Tree keeps its undo overlay only
    /// while snapshots are live — an arbitrary unpinned sequence reads
    /// whatever versions still happen to exist.
    pub snapshot: Option<SequenceNumber>,
}

/// Options applied to individual write operations.
#[derive(Debug, Clone, Default)]
pub struct WriteOptions {
    /// Force the write-ahead log to stable storage before acknowledging.
    pub sync: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_parameters() {
        let hyper = StoreOptions::with_preset(StorePreset::HyperLevelDb);
        assert_eq!(hyper.write_buffer_size, 4 << 20);
        assert_eq!(hyper.level0_slowdown_writes_trigger, 8);
        assert_eq!(hyper.level0_stop_writes_trigger, 12);

        let rocks = StoreOptions::with_preset(StorePreset::RocksDb);
        assert_eq!(rocks.write_buffer_size, 64 << 20);
        assert_eq!(rocks.level0_slowdown_writes_trigger, 20);
        assert_eq!(rocks.level0_stop_writes_trigger, 24);
        assert!(rocks.compaction_threads > 1);

        let pebbles = StoreOptions::with_preset(StorePreset::PebblesDb);
        assert!(
            pebbles.compaction_threads > 1,
            "paper: multi-threaded compaction"
        );

        let pebbles1 = StoreOptions::with_preset(StorePreset::PebblesDb1);
        assert_eq!(pebbles1.max_sstables_per_guard, 1);
    }

    /// `bench_suite`'s cursors and table probes read with
    /// `ReadOptions::default()`, so these are the benchmark's read options.
    /// The destructuring names every field, so a new option does not compile
    /// until its benchmark value is pinned here.
    #[test]
    fn the_benchmarks_read_options_are_pinned() {
        let ReadOptions {
            verify_checksums,
            snapshot,
        } = ReadOptions::default();
        assert!(!verify_checksums);
        assert_eq!(snapshot, None);
    }

    #[test]
    fn level_budgets_grow_geometrically() {
        let opts = StoreOptions::default();
        assert_eq!(opts.max_bytes_for_level(1), opts.base_level_bytes);
        assert_eq!(
            opts.max_bytes_for_level(2),
            opts.base_level_bytes * LEVEL_SIZE_MULTIPLIER
        );
        assert!(opts.max_bytes_for_level(4) > opts.max_bytes_for_level(3));
    }

    #[test]
    fn scale_down_preserves_floors() {
        let opts = StoreOptions::default().scale_down(1_000_000);
        assert!(opts.write_buffer_size >= 32 << 10);
        assert!(opts.max_file_size >= 32 << 10);
        assert!(opts.base_level_bytes >= 128 << 10);
    }

    #[test]
    fn compression_flag_parsing_and_tags() {
        assert_eq!(CompressionType::parse("on"), Some(CompressionType::Lz));
        assert_eq!(CompressionType::parse("off"), Some(CompressionType::None));
        assert_eq!(CompressionType::parse("lz"), Some(CompressionType::Lz));
        assert_eq!(CompressionType::parse("zstd"), None);
        assert_eq!(CompressionType::None.tag(), 0);
        assert_eq!(CompressionType::Lz.tag(), 1);
    }

    #[test]
    fn preset_names_are_unique() {
        let names = [
            StorePreset::HyperLevelDb.name(),
            StorePreset::RocksDb.name(),
            StorePreset::PebblesDb.name(),
            StorePreset::PebblesDb1.name(),
        ];
        let mut dedup = names.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
