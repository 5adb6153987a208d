//! The baseline leveled-compaction key-value store, as a [`ShapePolicy`].
//!
//! This engine follows the classic LevelDB design the paper describes in
//! chapter 2: writes go to a WAL and a memtable, memtables flush to level-0
//! sstables, and compaction merges a level's files with *every overlapping
//! file in the next level* and rewrites them. That rewrite is precisely the
//! write-amplification source FLSM removes, so this engine doubles as the
//! LevelDB/HyperLevelDB/RocksDB comparison point in the benchmark harness.
//!
//! Structurally, the LSM is the *degenerate* FLSM: every level has exactly
//! one implicit guard (section 3 of the paper). The shared engine chassis
//! ([`pebblesdb_engine`]) therefore owns the whole write path, recovery,
//! flush thread, worker pool and GC; this file contains only the
//! leveled-compaction policy — which file a job takes and which next-level
//! files it must rewrite with it.

use std::path::Path;
use std::sync::Arc;

use pebblesdb_common::key::compare_internal_keys;
use pebblesdb_common::{Result, StoreOptions, StorePreset, NUM_LEVELS};
use pebblesdb_engine::meta::user_key_range;
use pebblesdb_engine::{CompactionJob, EngineDb, FileMetaData, MergeSpec, PolicyCtx, ShapePolicy};
use pebblesdb_env::Env;

use crate::version::{pick_compaction_level, Version};

/// The leveled-compaction shape: one implicit guard per level.
pub struct LsmPolicy {
    options: StoreOptions,
    preset: StorePreset,
}

/// Mutable policy state: the per-level compaction pointer that rotates
/// through a level's key space across compactions.
pub struct LsmPolicyState {
    /// `compact_pointer[level]` is the largest internal key of the last file
    /// a job took from the level.
    pub compact_pointer: Vec<Vec<u8>>,
}

impl ShapePolicy for LsmPolicy {
    type Version = Version;
    type State = LsmPolicyState;

    fn engine_name(&self) -> String {
        self.preset.name().to_string()
    }

    fn new_state(&self) -> LsmPolicyState {
        LsmPolicyState {
            compact_pointer: vec![Vec::new(); NUM_LEVELS],
        }
    }

    // ------------------------------------------------------------ compaction

    /// Classic leveled compaction rewrites every overlapping next-level
    /// range, so jobs cannot be carved into disjoint units the way guards
    /// allow: a job is claimable only when no other job is in flight, which
    /// keeps the engine correct under any chassis worker-pool size.
    fn pick_job(&self, ctx: &mut PolicyCtx<'_, Self>) -> Option<CompactionJob> {
        if !ctx.claimed_inputs.is_empty() {
            return None;
        }
        let version = ctx.versions.current();
        let (level, _score) = pick_compaction_level(ctx.versions.levels(), &self.options)?;

        let inputs: Vec<Arc<FileMetaData>> = if level == 0 {
            // Compact the whole of level 0 in one go (HyperLevelDB-style
            // batched level-0 compaction).
            version.files[0].0.clone()
        } else {
            // Rotate through the level using the compaction pointer. It
            // advances at the pick: no other pick sees it before this job
            // commits (jobs run one at a time), and a failed job poisons the
            // store.
            let files = &version.files[level].0;
            let pointer = &mut ctx.state.compact_pointer[level];
            let chosen = files
                .iter()
                .find(|f| {
                    pointer.is_empty()
                        || compare_internal_keys(f.largest.encoded(), pointer)
                            == std::cmp::Ordering::Greater
                })
                .or_else(|| files.first())?;
            *pointer = chosen.largest.encoded().to_vec();
            vec![Arc::clone(chosen)]
        };
        if inputs.is_empty() {
            return None;
        }

        let (smallest_user, largest_user) = user_key_range(&inputs);
        let next_level_inputs =
            version.overlapping_inputs(level + 1, &smallest_user, &largest_user);

        // Tombstones can be dropped when no deeper level holds the key range.
        let drop_tombstones = ((level + 2)..version.num_levels()).all(|deeper| {
            let holders = version.overlapping_inputs(deeper, &smallest_user, &largest_user);
            holders.is_empty()
        });

        // A single input with nothing to merge below just moves down a level.
        let move_only = level > 0 && inputs.len() == 1 && next_level_inputs.is_empty();
        let inputs = inputs.into_iter().map(|file| (level, file));
        let next_level_inputs = next_level_inputs.into_iter().map(|file| (level + 1, file));
        // A leveled run is one partition, and `drop_tombstones` already says
        // no deeper level holds the job's key range.
        Some(CompactionJob {
            inputs: inputs.chain(next_level_inputs).collect(),
            spec: MergeSpec {
                output_level: level + 1,
                smallest_snapshot: ctx.smallest_snapshot,
                drop_tombstones,
            },
            partition_keys: Vec::new(),
            full_partitions: Vec::new(),
            move_only,
        })
    }
}

impl LsmPolicy {
    /// Builds the leveled shape from `options` (labelled with the
    /// HyperLevelDB preset). Public so chassis-generic plumbing (sharding,
    /// the replication follower) can open an LSM-shaped `EngineDb` directly.
    pub fn new(options: &StoreOptions) -> LsmPolicy {
        LsmPolicy {
            options: options.clone(),
            preset: StorePreset::HyperLevelDb,
        }
    }
}

/// A handle to an open baseline LSM database.
///
/// Cloneable via `Arc`; all methods take `&self` and are safe to call from
/// multiple threads. Everything but the leveled-compaction policy runs in
/// the shared chassis ([`EngineDb`]).
pub struct LsmDb {
    db: EngineDb<LsmPolicy>,
}

impl LsmDb {
    /// Opens (creating if necessary) a database at `path` with explicit
    /// options, labelled with `preset` for benchmark output.
    pub fn open_with_options(
        env: Arc<dyn Env>,
        path: &Path,
        options: StoreOptions,
        preset: StorePreset,
    ) -> Result<LsmDb> {
        let policy = LsmPolicy {
            options: options.clone(),
            preset,
        };
        Ok(LsmDb {
            db: EngineDb::open(policy, env, path, options)?,
        })
    }

    /// Opens a database configured like one of the paper's baseline stores.
    pub fn open_preset(env: Arc<dyn Env>, path: &Path, preset: StorePreset) -> Result<LsmDb> {
        LsmDb::open_with_options(env, path, StoreOptions::with_preset(preset), preset)
    }

    /// Opens a database with default (HyperLevelDB-like) options.
    pub fn open(env: Arc<dyn Env>, path: &Path) -> Result<LsmDb> {
        LsmDb::open_preset(env, path, StorePreset::HyperLevelDb)
    }

    /// Opens (creating if necessary) a sharded store of baseline-LSM engines
    /// at `path`, labelled with `preset`; see [`pebblesdb_shard`] for the
    /// routing and commit protocol.
    pub fn open_sharded(
        env: Arc<dyn Env>,
        path: &Path,
        options: StoreOptions,
        preset: StorePreset,
        config: pebblesdb_shard::ShardConfig,
    ) -> Result<pebblesdb_shard::ShardedDb<LsmPolicy>> {
        pebblesdb_shard::ShardedDb::open_with(
            |o| LsmPolicy {
                options: o.clone(),
                preset,
            },
            env,
            path,
            options,
            config,
        )
    }

    /// The options this database was opened with.
    pub fn options(&self) -> &StoreOptions {
        self.db.options()
    }

    /// A human-readable per-level file-count summary: `L0:n L1:n ...`.
    pub fn level_summary(&self) -> String {
        self.db.levels().to_string()
    }

    /// Number of files at each level (useful for tests).
    pub fn files_per_level(&self) -> Vec<usize> {
        self.db.levels().iter().map(|row| row.files).collect()
    }

    /// Runs one value-log garbage-collection pass: relocates live values out
    /// of the coldest sealed vlog file of each family and deletes retired
    /// files no pinned snapshot can still reach.
    pub fn vlog_gc(&self) -> Result<pebblesdb_engine::VlogGcReport> {
        self.db.vlog_gc()
    }

    /// The underlying chassis store. Replication plumbing (the follower
    /// store, change-stream shipping) is generic over the tree shape and
    /// works against the chassis directly.
    pub fn engine(&self) -> &EngineDb<LsmPolicy> {
        &self.db
    }
}

// `KvStore` and `Db` are the chassis core's derived views: the exact same
// column-family feature as the FLSM, one leveled structure per family.
pebblesdb_common::store_views!(LsmDb => |db| db.db.shared());

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::path::PathBuf;

    use pebblesdb_common::key::{InternalKey, ValueType};
    use pebblesdb_engine::{FileMetaDataEdit, VersionEdit, VersionSet};
    use pebblesdb_env::MemEnv;

    use super::*;

    /// The compaction pointer advances at the pick: successive picks at one
    /// level take successive files, and wrap around past the last.
    #[test]
    fn successive_picks_rotate_through_a_level() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let dir = PathBuf::from("/rotate");
        env.create_dir_all(&dir).unwrap();
        let mut options = StoreOptions::default();
        options.base_level_bytes = 500;
        let mut versions: VersionSet<Version> =
            VersionSet::open(env, dir, options.clone()).unwrap();
        let key = |user: &str, seq| InternalKey::new(user.as_bytes(), seq, ValueType::Value);
        let mut setup = VersionEdit::default();
        for (number, smallest, largest) in [(10, "a", "c"), (11, "d", "f"), (12, "g", "i")] {
            let file = FileMetaDataEdit {
                number,
                file_size: 1000,
                smallest: key(smallest, 9).encoded().to_vec(),
                largest: key(largest, 1).encoded().to_vec(),
            };
            setup.new_files.push((1, file));
        }
        versions.log_and_apply(setup).unwrap();

        let policy = LsmPolicy::new(&options);
        let mut state = policy.new_state();
        let picks: Vec<Vec<u64>> = (0..4)
            .map(|_| {
                let mut ctx = PolicyCtx {
                    versions: &versions,
                    state: &mut state,
                    claimed_inputs: &BTreeSet::new(),
                    smallest_snapshot: 1_000,
                };
                let job = policy.pick_job(&mut ctx).expect("level 1 is over its size");
                job.input_numbers().collect()
            })
            .collect();
        assert_eq!(picks, [[10], [11], [12], [10]]);
    }
}
