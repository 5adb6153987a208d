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
use pebblesdb_engine::{Claims, CompactionJob, EngineDb, FileMetaData};
use pebblesdb_engine::{PolicyCtx, ShapePolicy, Version};
use pebblesdb_env::Env;

use crate::version::{compaction_levels, FileRuns};

/// The leveled-compaction shape: one implicit guard per level.
pub struct LsmPolicy {
    options: StoreOptions,
    preset: StorePreset,
}

impl ShapePolicy for LsmPolicy {
    type Runs = FileRuns;
    /// The per-level compaction pointer that rotates through a level's key
    /// space across compactions: the largest internal key of the last file a
    /// job took from the level.
    type State = [Vec<u8>; NUM_LEVELS];

    fn engine_name(&self) -> String {
        self.preset.name().to_string()
    }

    /// Classic leveled compaction: a job takes one file of a level (all of
    /// level 0) with every next-level file it overlaps and writes their
    /// merge into the next level. Jobs `ctx.claims` leave free run side by
    /// side, as in RocksDB. Levels are tried by descending score and a
    /// level's files from its compaction pointer on, so with nothing claimed
    /// the pick is the best level's next file.
    fn pick_job(&self, ctx: &mut PolicyCtx<'_, Self>) -> Option<CompactionJob> {
        let version = ctx.versions.current();
        let claims = ctx.claims;
        for level in compaction_levels(ctx.versions.levels(), &self.options) {
            if level == 0 {
                // Compact the whole of level 0 in one go (HyperLevelDB-style
                // batched level-0 compaction).
                match leveled_job(version, 0, version.level0().to_vec(), claims) {
                    Some(job) => return Some(job),
                    None => continue,
                }
            }
            let files = &version.run(level).0;
            // Rotate through the level using the compaction pointer. It
            // advances at the pick, so a pick beside a running job tries the
            // files after it; a failed job poisons the store.
            let pointer = &mut ctx.state[level];
            let start = files
                .iter()
                .position(|f| {
                    pointer.is_empty()
                        || compare_internal_keys(f.largest.encoded(), pointer)
                            == std::cmp::Ordering::Greater
                })
                .unwrap_or(0);
            for chosen in files[start..].iter().chain(&files[..start]) {
                let inputs = vec![Arc::clone(chosen)];
                if let Some(job) = leveled_job(version, level, inputs, claims) {
                    *pointer = chosen.largest.encoded().to_vec();
                    return Some(job);
                }
            }
        }
        None
    }
}

/// The job that merges `inputs` of `level` with the next-level files they
/// overlap, if `claims` leave the hull of them all free at each level it
/// reads. Level 0, compacted whole, so runs one job at a time.
fn leveled_job(
    version: &Version<FileRuns>,
    level: usize,
    inputs: Vec<Arc<FileMetaData>>,
    claims: &Claims,
) -> Option<CompactionJob> {
    let (smallest_user, largest_user) = user_key_range(&inputs);
    let next_level_inputs = version
        .run(level + 1)
        .overlapping_inputs(smallest_user, largest_user);
    let (hull_lo, hull_hi) = user_key_range(inputs.iter().chain(next_level_inputs));
    let free = |level| claims.free(level, hull_lo, hull_hi);
    if !free(level) || !(next_level_inputs.is_empty() || free(level + 1)) {
        return None;
    }

    // A single input with nothing to merge below just moves down a level.
    let move_only = level > 0 && inputs.len() == 1 && next_level_inputs.is_empty();
    let inputs = inputs.into_iter().map(|file| (level, file));
    let next_level_inputs = next_level_inputs.iter().map(|f| (level + 1, Arc::clone(f)));
    Some(CompactionJob {
        inputs: inputs.chain(next_level_inputs).collect(),
        output_level: level + 1,
        move_only,
    })
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
    use std::collections::{BTreeMap, BTreeSet};
    use std::path::PathBuf;

    use pebblesdb_common::key::{encode_internal_key, InternalKey, LookupKey, ValueType};
    use pebblesdb_common::vlog::LookupValue;
    use pebblesdb_engine::runs::{get, merge_to_tables};
    use pebblesdb_engine::version_set::level_files;
    use pebblesdb_engine::{EngineIo, FileMetaDataEdit, VersionEdit, VersionSet};
    use pebblesdb_env::MemEnv;
    use pebblesdb_sstable::{TableBuilder, TableCache};

    use super::*;

    /// The leveled shape never asks for a seek-triggered compaction: ten
    /// times the threshold of cursors over two overlapping level-0 files
    /// arm nothing and run no job.
    #[test]
    fn an_lsm_store_never_arms_the_seek_trigger() {
        use pebblesdb_common::{KvStore, ReadOptions};
        let mut options = StoreOptions::default();
        options.level0_compaction_trigger = 100;
        options.level0_stop_writes_trigger = 120;
        options.compaction_threads = 0;
        let threshold = options.seek_compaction_threshold;
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = LsmDb::open_with_options(
            env,
            Path::new("/no-seek"),
            options,
            StorePreset::HyperLevelDb,
        )
        .unwrap();
        for round in 0..2u8 {
            for i in 0..100u32 {
                db.put(format!("key{i:04}").as_bytes(), &[b'a' + round; 16])
                    .unwrap();
            }
            db.flush().unwrap();
        }
        assert_eq!(db.files_per_level()[0], 2);
        let compactions = db.stats().compactions;
        for _ in 0..10 * threshold {
            let mut cursor = db.iter(&ReadOptions::default()).unwrap();
            cursor.seek(b"key0050");
            assert!(cursor.valid());
            let state = db.engine().core().state.lock();
            assert!(!state.default_cf().seek_requested, "a cursor armed the LSM");
        }
        assert_eq!(db.stats().compactions, compactions);
        assert_eq!(db.files_per_level()[0], 2);
    }

    /// The compaction pointer advances at the pick: successive picks at one
    /// level take successive files, and wrap around past the last.
    #[test]
    fn successive_picks_rotate_through_a_level() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let dir = PathBuf::from("/rotate");
        env.create_dir_all(&dir).unwrap();
        let mut options = StoreOptions::default();
        options.base_level_bytes = 500;
        let mut versions: VersionSet<FileRuns> =
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
        let mut state = Default::default();
        let picks: Vec<Vec<u64>> = (0..4)
            .map(|_| {
                let mut ctx = PolicyCtx {
                    versions: &versions,
                    state: &mut state,
                    seek_requested: &mut false,
                    claims: &Claims::default(),
                };
                let job = policy.pick_job(&mut ctx).expect("level 1 is over its size");
                inputs_of(&job).into_iter().map(|(_, n)| n).collect()
            })
            .collect();
        assert_eq!(picks, [[10], [11], [12], [10]]);
    }

    /// A leveled version set in `dir` of a fresh `MemEnv` holding `files`,
    /// `(level, number, smallest, largest, bytes)` with user keys, as
    /// metadata only (no table is written).
    fn leveled(
        dir: &str,
        options: &StoreOptions,
        files: &[(usize, u64, String, String, u64)],
    ) -> VersionSet<FileRuns> {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let dir = PathBuf::from(dir);
        env.create_dir_all(&dir).unwrap();
        let mut versions = VersionSet::open(env, dir, options.clone()).unwrap();
        let mut setup = VersionEdit::default();
        for (level, number, smallest, largest, bytes) in files {
            let key = |user: &str, seq| InternalKey::new(user.as_bytes(), seq, ValueType::Value);
            let file = FileMetaDataEdit {
                number: *number,
                file_size: *bytes,
                smallest: key(smallest, 100 + number).encoded().to_vec(),
                largest: key(largest, 1).encoded().to_vec(),
            };
            setup.new_files.push((*level, file));
        }
        versions.log_and_apply(setup).unwrap();
        versions
    }

    fn pick(
        policy: &LsmPolicy,
        versions: &VersionSet<FileRuns>,
        state: &mut [Vec<u8>; NUM_LEVELS],
        claims: &Claims,
    ) -> Option<CompactionJob> {
        policy.pick_job(&mut PolicyCtx {
            versions,
            state,
            seek_requested: &mut false,
            claims,
        })
    }

    /// `(level, number)` of every input of `job`.
    fn inputs_of(job: &CompactionJob) -> Vec<(usize, u64)> {
        job.inputs
            .iter()
            .map(|(level, f)| (*level, f.number))
            .collect()
    }

    /// The pick when leveled jobs ran one at a time: the level with the
    /// highest score (ties to the shallowest), all of level 0 or the first
    /// file past the pointer, and the next-level files that overlaps.
    fn serial_pick(
        options: &StoreOptions,
        version: &Version<FileRuns>,
        pointers: &mut [Vec<u8>],
    ) -> Option<Vec<(usize, u64)>> {
        let mut best: Option<(usize, f64)> = None;
        for level in 0..NUM_LEVELS - 1 {
            let files: Vec<_> = level_files(version, level).collect();
            let score = if level == 0 {
                files.len() as f64 / options.level0_compaction_trigger as f64
            } else {
                let bytes: u64 = files.iter().map(|f| f.file_size).sum();
                bytes as f64 / options.max_bytes_for_level(level) as f64
            };
            if score >= 1.0 && best.is_none_or(|(_, best)| score > best) {
                best = Some((level, score));
            }
        }
        let (level, _) = best?;
        let files: Vec<_> = level_files(version, level).cloned().collect();
        let inputs = if level == 0 {
            files.clone()
        } else {
            let pointer = &mut pointers[level];
            let chosen = files
                .iter()
                .find(|f| {
                    pointer.is_empty()
                        || compare_internal_keys(f.largest.encoded(), pointer).is_gt()
                })
                .or_else(|| files.first())?;
            *pointer = chosen.largest.encoded().to_vec();
            vec![Arc::clone(chosen)]
        };
        let (lo, hi) = user_key_range(&inputs);
        let next = level_files(version, level + 1);
        let next = next.filter(|f| f.overlaps_user_range(Some(lo), Some(hi)));
        let inputs = inputs.iter().map(|f| (level, f.number));
        let next = next.map(|f| (level + 1, f.number));
        Some(inputs.chain(next).collect())
    }

    /// With nothing claimed — every pick of a store with no workers — the
    /// pick is the serial one, pointer included, over seeded random shapes.
    #[test]
    fn with_nothing_claimed_the_pick_is_the_serial_pick() {
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        let user = |k: u64| format!("k{k:03}");
        let mut jobs = 0;
        for trial in 0..200 {
            let mut options = StoreOptions::default();
            options.level0_compaction_trigger = 1 + next(4) as usize;
            options.base_level_bytes = 1_000 + next(3_000);
            let mut files = Vec::new();
            let mut number = 1;
            for _ in 0..next(5) {
                let (a, b) = (next(60), next(60));
                files.push((0, number, user(a.min(b)), user(a.max(b)), 200 + next(1_000)));
                number += 1;
            }
            for level in 1..4 {
                let mut bounds: Vec<u64> = (0..2 * next(8)).map(|_| next(100)).collect();
                bounds.sort_unstable();
                bounds.dedup();
                for pair in bounds.chunks_exact(2) {
                    let bytes = 200 + next(1_000);
                    files.push((level, number, user(pair[0]), user(pair[1]), bytes));
                    number += 1;
                }
            }
            let versions = leveled(&format!("/serial-{trial}"), &options, &files);
            let version = versions.current();
            let policy = LsmPolicy::new(&options);
            let mut state = Default::default();
            let mut pointers = vec![Vec::new(); NUM_LEVELS];
            for _ in 0..3 {
                let job = pick(&policy, &versions, &mut state, &Claims::default());
                let job = job.map(|job| inputs_of(&job));
                assert_eq!(
                    job,
                    serial_pick(&options, version, &mut pointers),
                    "trial {trial}"
                );
                assert_eq!(pointers, state, "trial {trial}");
                jobs += usize::from(job.is_some());
            }
        }
        assert!(jobs > 300, "{jobs} picks found a job");
    }

    /// A pick beside a claimed L1 -> L2 job takes no claimed file, and its
    /// hull overlaps no claimed file of its input level.
    #[test]
    fn a_pick_beside_a_claimed_job_is_disjoint_from_it() {
        let mut options = StoreOptions::default();
        options.base_level_bytes = 2_000;
        let file = |level, number, lo: &str, hi: &str| (level, number, lo.into(), hi.into(), 1_000);
        let versions = leveled(
            "/beside",
            &options,
            &[
                file(1, 1, "a", "c"),
                file(1, 2, "e", "g"),
                file(1, 3, "j", "k"),
                file(1, 4, "m", "o"),
                file(2, 5, "b", "f"),
                file(2, 6, "i", "l"),
                file(2, 7, "n", "p"),
            ],
        );
        let policy = LsmPolicy::new(&options);
        let mut state = Default::default();
        let first = pick(&policy, &versions, &mut state, &Claims::default()).unwrap();
        assert_eq!(inputs_of(&first), [(1, 1), (2, 5)]);
        let mut claims = Claims::default();
        claims.hold(&first.inputs);
        let claimed: BTreeSet<u64> = inputs_of(&first).into_iter().map(|(_, n)| n).collect();
        // File 2 shares file 5 with the first job; file 3 is free.
        let second = pick(&policy, &versions, &mut state, &claims).unwrap();
        assert_eq!(inputs_of(&second), [(1, 3), (2, 6)]);

        // With both claimed, file 4's range is still free; with all three,
        // nothing is.
        claims.hold(&second.inputs);
        let both: BTreeSet<u64> = claimed
            .iter()
            .copied()
            .chain(inputs_of(&second).into_iter().map(|(_, n)| n))
            .collect();
        let third = pick(&policy, &versions, &mut state, &claims).unwrap();
        assert_eq!(inputs_of(&third), [(1, 4), (2, 7)]);
        claims.hold(&third.inputs);
        assert!(pick(&policy, &versions, &mut state, &claims).is_none());

        // A claimed L1 file (say, an L0 -> L1 job's) inside file 2's hull
        // [b, g] keeps file 2's job off, though none of its inputs is claimed.
        let mut state = Default::default();
        let one = BTreeSet::from([1]);
        let mut claims = Claims::default();
        claims.hold(&first.inputs[..1]);
        let blocked = pick(&policy, &versions, &mut state, &claims).unwrap();
        assert_eq!(inputs_of(&blocked), [(1, 3), (2, 6)]);

        for (job, claimed) in [(&second, &claimed), (&third, &both), (&blocked, &one)] {
            let inputs: Vec<Arc<FileMetaData>> =
                job.inputs.iter().map(|(_, f)| Arc::clone(f)).collect();
            let (lo, hi) = user_key_range(&inputs);
            let beside = versions
                .current()
                .run(job.level())
                .overlapping_inputs(lo, hi);
            let taken = inputs.iter().chain(beside).map(|f| f.number);
            assert!(
                taken.clone().all(|n| !claimed.contains(&n)),
                "{:?}",
                taken.collect::<Vec<_>>()
            );
        }
    }

    /// Level 0 is compacted whole: while its job runs, no second one starts,
    /// but a deeper level's job whose range is free does.
    #[test]
    fn level0_runs_one_job_and_deeper_levels_run_beside_it() {
        let mut options = StoreOptions::default();
        options.level0_compaction_trigger = 2;
        options.base_level_bytes = 2_500;
        let file = |level, number, lo: &str, hi: &str| (level, number, lo.into(), hi.into(), 1_000);
        let mut files = vec![
            file(0, 1, "a", "d"),
            file(0, 2, "b", "c"),
            file(0, 3, "c", "d"),
        ];
        files.extend([
            file(1, 4, "a", "b"),
            file(1, 5, "m", "n"),
            file(1, 6, "x", "z"),
        ]);
        let versions = leveled("/level0", &options, &files);
        let policy = LsmPolicy::new(&options);
        let mut state = Default::default();
        let level0 = pick(&policy, &versions, &mut state, &Claims::default()).unwrap();
        assert_eq!(inputs_of(&level0), [(0, 3), (0, 2), (0, 1), (1, 4)]);
        let mut claims = Claims::default();
        claims.hold(&level0.inputs);
        let beside = pick(&policy, &versions, &mut state, &claims).unwrap();
        assert_eq!(inputs_of(&beside), [(1, 5)]);
        assert!(beside.move_only);
        // An in-flight level-0 job that took file 2 alone.
        let mut claims = Claims::default();
        claims.hold(&level0.inputs[1..2]);
        let job = pick(&policy, &versions, &mut state, &claims).unwrap();
        assert_eq!(
            inputs_of(&job),
            [(1, 6)],
            "one claimed level-0 file blocks level 0"
        );
    }

    /// `(user key, sequence, value)` in internal-key order; `None` is a
    /// tombstone.
    type Entries<'a> = &'a [(&'a str, u64, Option<&'a str>)];
    /// A merge's outputs and the guards it picked (none, for the LSM).
    type Merged = (Vec<FileMetaData>, Vec<Vec<u8>>);

    /// Writes a table of `entries` and returns its metadata.
    fn table(io: &EngineIo, entries: Entries<'_>) -> FileMetaData {
        let number = io.file_numbers.next();
        let path = pebblesdb_common::filename::table_file_name(&io.db_path, number);
        let mut builder = TableBuilder::new(&io.options, io.env.new_writable_file(&path).unwrap());
        for (user, seq, value) in entries {
            let kind = value.map_or(ValueType::Deletion, |_| ValueType::Value);
            let key = encode_internal_key(user.as_bytes(), *seq, kind);
            builder
                .add(&key, value.unwrap_or_default().as_bytes())
                .unwrap();
        }
        let smallest = InternalKey::from_encoded(builder.first_key().unwrap().to_vec());
        let largest = InternalKey::from_encoded(builder.last_key().unwrap().to_vec());
        let size = builder.finish().unwrap();
        FileMetaData::new(number, size, smallest, largest)
    }

    /// A version set in `dir` of a fresh `MemEnv` whose level 1 is always
    /// over its budget, holding one table per `(level, entries)`, and its IO
    /// handles.
    fn store(dir: &str, layout: &[(usize, Entries<'_>)]) -> (VersionSet<FileRuns>, EngineIo) {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let dir = PathBuf::from(dir);
        env.create_dir_all(&dir).unwrap();
        let mut options = StoreOptions::default();
        options.base_level_bytes = 1;
        let mut versions: VersionSet<FileRuns> =
            VersionSet::open(Arc::clone(&env), dir.clone(), options.clone()).unwrap();
        let table_cache = TableCache::new(Arc::clone(&env), dir.clone(), options.clone(), 16);
        let io = EngineIo {
            env,
            db_path: dir,
            options,
            table_cache: Arc::new(table_cache),
            file_numbers: versions.file_numbers().clone(),
        };
        let mut setup = VersionEdit::default();
        for (level, entries) in layout {
            setup.add_file(*level, &table(&io, entries));
        }
        versions.log_and_apply(setup).unwrap();
        (versions, io)
    }

    /// Merges `job` against `version`, every sequence below the snapshot
    /// floor.
    fn merge(io: &EngineIo, version: &Version<FileRuns>, job: &CompactionJob) -> Merged {
        merge_to_tables(io, job, version, 1_000, |_| None).unwrap()
    }

    /// Merges and commits `job` (`merge_to_tables` and the commit's edit).
    fn run(versions: &mut VersionSet<FileRuns>, io: &EngineIo, job: &CompactionJob) {
        let (outputs, guards) = merge(io, versions.current(), job);
        let edit = VersionEdit::compaction(job, &outputs, &guards);
        versions.log_and_apply(edit).unwrap();
    }

    /// What a read of `user` at the newest sequence finds in the version.
    fn read(versions: &VersionSet<FileRuns>, io: &EngineIo, user: &str) -> Option<String> {
        let key = LookupKey::new(user.as_bytes(), 1_000);
        match get(versions.current().as_ref(), &io.table_cache, &key).unwrap() {
            Some(LookupValue::Inline(value)) => Some(String::from_utf8(value).unwrap()),
            Some(LookupValue::Pointer(_)) => panic!("a pointer in a table of inline values"),
            None => None,
        }
    }

    /// Two jobs claimed side by side, merged against the same version and
    /// committed in either order, leave a valid version that reads like the
    /// model: every key's newest value, nothing else.
    #[test]
    fn two_jobs_side_by_side_commit_in_either_order() {
        let layout: [(usize, Entries<'_>); 5] = [
            (1, &[("a", 20, Some("a1")), ("c", 20, Some("c1"))]),
            (1, &[("m", 21, Some("m1")), ("o", 21, Some("o1"))]),
            (
                2,
                &[
                    ("b", 10, Some("b2")),
                    ("c", 10, Some("c2")),
                    ("d", 10, Some("d2")),
                ],
            ),
            (
                2,
                &[
                    ("n", 11, Some("n2")),
                    ("o", 11, Some("o2")),
                    ("p", 11, Some("p2")),
                ],
            ),
            (
                3,
                &[
                    ("a", 5, Some("a3")),
                    ("n", 5, Some("n3")),
                    ("z", 5, Some("z3")),
                ],
            ),
        ];
        // Shallower levels are newer: a key's first value in the layout wins.
        let mut model = BTreeMap::new();
        for (user, _, value) in layout.iter().flat_map(|(_, entries)| entries.iter()) {
            model
                .entry(user.to_string())
                .or_insert(value.unwrap().to_string());
        }
        for order in [[0, 1], [1, 0]] {
            let (mut versions, io) = store(&format!("/either-{}", order[0]), &layout);
            let policy = LsmPolicy::new(&io.options);
            let mut state = Default::default();
            let (mut claims, mut claimed) = (Claims::default(), BTreeSet::new());
            let mut jobs = Vec::new();
            for _ in 0..2 {
                let job = pick(&policy, &versions, &mut state, &claims).unwrap();
                claims.hold(&job.inputs);
                claimed.extend(inputs_of(&job).into_iter().map(|(_, n)| n));
                jobs.push(job);
            }
            assert_eq!(claimed.len(), 4, "two disjoint L1 -> L2 jobs");
            let merged: Vec<_> = jobs
                .iter()
                .map(|job| merge(&io, versions.current(), job))
                .collect();
            for i in order {
                let (outputs, guards) = &merged[i];
                let edit = VersionEdit::compaction(&jobs[i], outputs, guards);
                versions.log_and_apply(edit).unwrap();
            }
            versions.current().validate().unwrap();
            assert_eq!(versions.current().run(1).0.len(), 0, "order {order:?}");
            for user in ('a'..='z').map(String::from) {
                let expected = model.get(&user).cloned();
                assert_eq!(
                    read(&versions, &io, &user),
                    expected,
                    "key {user}, order {order:?}"
                );
            }
        }
    }

    /// A next-level input can reach past the range of the file a job picked;
    /// a tombstone out there still shadows a value deeper down, so the merge
    /// keeps it: a deeper file holds its key.
    #[test]
    fn a_tombstone_past_the_picked_file_keeps_shadowing_a_deeper_value() {
        let (mut versions, io) = store(
            "/hull-tombstone",
            &[
                (1, &[("e", 30, Some("e1")), ("g", 30, Some("g1"))]),
                (
                    2,
                    &[
                        ("c", 20, None),
                        ("f", 20, Some("f2")),
                        ("h", 20, Some("h2")),
                    ],
                ),
                (3, &[("c", 10, Some("c3"))]),
            ],
        );
        assert_eq!(read(&versions, &io, "c"), None);
        let policy = LsmPolicy::new(&io.options);
        let mut state = Default::default();
        let job = pick(&policy, &versions, &mut state, &Claims::default()).unwrap();
        assert_eq!(
            job.inputs.len(),
            2,
            "the L1 file and the L2 file it overlaps"
        );
        run(&mut versions, &io, &job);
        assert_eq!(
            read(&versions, &io, "c"),
            None,
            "the deleted value came back"
        );
        assert_eq!(read(&versions, &io, "f"), Some("f2".to_string()));
    }
}
