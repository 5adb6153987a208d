//! FLSM compaction: pick whole guard components and say where their merge
//! goes, as a plain [`CompactionJob`]; the chassis merges them and cuts the
//! output where the next level's guards end — bounds it reads off the
//! version, as a cursor does, so a job copies nothing of that level — and
//! appends the fragments to the next level without rewriting any data
//! already there. Which tombstones the merge drops is the chassis' rule too
//! (LevelDB's, per key): a pick says nothing of deletes or snapshots.
//!
//! This is the heart of the paper (section 3.4): classical LSM compaction
//! must rewrite every overlapping next-level sstable, which is where its
//! write amplification comes from; FLSM only ever *adds* sstables to the next
//! level's guards. The two exceptions from the paper are implemented too:
//! the last level rewrites in place (there is nowhere left to push data), and
//! the second-to-last level may rewrite in place when pushing down would set
//! up a much more expensive last-level merge. One more is this repo's: a
//! seek-triggered merge rewrites in place over guards that are not empty.

use std::sync::Arc;

use pebblesdb_common::StoreOptions;
use pebblesdb_engine::meta::user_key_range;
use pebblesdb_engine::{Claims, CompactionJob, FileMetaData, Version};

use crate::guards::GuardMeta;
use crate::version::FlsmLevel;

/// A last-level merge that would cost this many times more IO than its
/// input rewrites into the second-highest level instead.
const LAST_LEVEL_MERGE_IO_FACTOR: f64 = 25.0;

/// Whether `file`, attached to `guard`, is attached to the guard before it
/// too. A file sits in every guard its key range overlaps, so it reaches
/// back exactly when it starts below `guard`'s key (never for the sentinel).
fn spans_back(guard: &GuardMeta, file: &FileMetaData) -> bool {
    file.smallest.user_key() < guard.key.as_slice()
}

/// A level's guard *components* in key order: the maximal runs of adjacent
/// non-empty guards in which each guard shares a file with the one before
/// it (a file written before the later guard was committed, spanning its
/// key).
///
/// A component — not a single guard — is the minimal unit of compaction.
/// Compacting a guard without its span-connected neighbours would push a
/// spanning file's key versions down a level while an unselected neighbour
/// keeps *older* versions of the same keys at the input level, and
/// level-ordered lookups would then return the stale value. Singleton
/// components are the common case (freshly compacted files land in exactly
/// one guard).
fn guard_components(guards: &[GuardMeta]) -> impl Iterator<Item = &[GuardMeta]> {
    let joins = |_: &GuardMeta, guard: &GuardMeta| guard.files.iter().any(|f| spans_back(guard, f));
    guards
        .chunk_by(joins)
        .filter(|run| !run[0].files.is_empty())
}

/// The distinct files of a component, newest first within each guard: a
/// file is listed under the first guard of the run that holds it.
fn component_files(run: &[GuardMeta]) -> impl Iterator<Item = &Arc<FileMetaData>> {
    run.iter()
        .flat_map(|guard| guard.files.iter().filter(|f| !spans_back(guard, f)))
}

/// The user-key hull of a component, what a job taking it holds: a file
/// sits in every guard it overlaps, so the end guards hold the end keys.
fn hull(run: &[GuardMeta]) -> (&[u8], &[u8]) {
    let (first, last) = (&run[0].files, &run[run.len() - 1].files);
    (user_key_range(first).0, user_key_range(last).1)
}

/// Selects the input guard components for a compaction of `level`: a
/// `1/split` chunk of the eligible components `claims` leave free.
///
/// Components containing a guard over the sstable budget are preferred; if
/// none exist (the compaction was triggered by level size or the aggressive
/// heuristic), every free component is eligible so the compaction always
/// makes progress. Chunking lets `split` workers each claim a disjoint
/// component subset of the same level; a chunk stops short of a claim its
/// hull would cross.
pub fn select_guard_inputs(
    version: &Version<FlsmLevel>,
    level: usize,
    max_sstables_per_guard: usize,
    claims: &Claims,
    split: usize,
) -> Vec<Arc<FileMetaData>> {
    let components: Vec<&[GuardMeta]> = guard_components(version.run(level).guards()).collect();
    let over_budget =
        |run: &&[GuardMeta]| run.iter().any(|g| g.files.len() > max_sstables_per_guard);
    let any_over_budget = components.iter().any(over_budget);
    let free = |(smallest, largest): (&[u8], &[u8])| claims.free(level, smallest, largest);
    // When over-budget components exist but are all claimed, the trigger is
    // already being serviced; returning nothing (instead of compacting
    // innocent small components) avoids pointless write amplification.
    let eligible: Vec<&[GuardMeta]> = (components.into_iter())
        .filter(|run| !any_over_budget || over_budget(run))
        .filter(|run| free(hull(run)))
        .collect();
    let take = eligible.len().div_ceil(split.max(1));
    let first = eligible.first().map_or(&[][..], |run| hull(run).0);
    let chosen = (eligible.into_iter().take(take)).take_while(|run| free((first, hull(run).1)));
    chosen.flat_map(component_files).cloned().collect()
}

/// Selects the inputs of a seek-triggered compaction at `level`: the free
/// component whose fattest guard holds the most sstables (the last of
/// equals), among those with a guard holding two overlapping files.
/// Returns nothing when no free guard holds two overlapping files — a seek
/// compaction of a single file, or of the disjoint files of a guard larger
/// than `max_file_size`, would rewrite data without reducing any overlap, so
/// the request stays pending instead.
fn select_seek_inputs(
    version: &Version<FlsmLevel>,
    level: usize,
    claims: &Claims,
) -> Vec<Arc<FileMetaData>> {
    let free = |(smallest, largest): (&[u8], &[u8])| claims.free(level, smallest, largest);
    let best = guard_components(version.run(level).guards())
        .filter(|run| run.iter().any(GuardMeta::has_overlapping_files))
        .filter(|run| free(hull(run)))
        .max_by_key(|run| run.iter().map(|g| g.files.len()).max());
    best.map_or_else(Vec::new, |run| component_files(run).cloned().collect())
}

/// The guards of `level` holding a file that overlaps `[smallest, largest]`:
/// where a job with that hull would append its output. Such a file sits in a
/// guard under the hull too and in every guard between, so the ones outside
/// the guards under the hull are the runs adjoining them.
fn landing_guards<'a>(
    level: &'a FlsmLevel,
    smallest: &'a [u8],
    largest: &'a [u8],
) -> impl Iterator<Item = &'a GuardMeta> {
    let occupied = move |guard: &&GuardMeta| {
        (guard.files.iter()).any(|f| f.overlaps_user_range(Some(smallest), Some(largest)))
    };
    let [first, last] = [smallest, largest].map(|key| level.guard_index_for(key));
    let guards = level.guards();
    let before = guards[..first].iter().rev().take_while(occupied);
    let after = guards[last + 1..].iter().take_while(occupied);
    let under = guards[first..=last].iter().filter(occupied);
    under.chain(before).chain(after)
}

/// Builds a compaction job for a level
/// [`compaction_candidates`](crate::version::compaction_candidates) lists, or
/// for a seek-triggered request (`seek`): the inputs are entire guard
/// components (or all of level 0); nothing already in the output level is
/// among them.
///
/// `split` is the worker-pool size used to chunk a level's eligible guards
/// across jobs. Returns `None` when `claims` leave no eligible guard free.
pub fn build_compaction_job(
    version: &Version<FlsmLevel>,
    options: &StoreOptions,
    level: usize,
    seek: bool,
    claims: &Claims,
    split: usize,
) -> Option<CompactionJob> {
    let last_level = version.num_levels() - 1;

    let inputs: Vec<Arc<FileMetaData>> = if level == 0 {
        // Level-0 files overlap freely, so a level-0 job takes all of them —
        // and holds the whole level while it runs.
        version.level0().to_vec()
    } else if seek {
        // Seek-triggered compactions stay small: merge only the component
        // around the (unclaimed) guard with the most overlapping sstables,
        // so read latency improves without paying for a whole-level rewrite
        // every few range queries.
        select_seek_inputs(version, level, claims)
    } else {
        select_guard_inputs(
            version,
            level,
            options.max_sstables_per_guard,
            claims,
            split,
        )
    };
    let (smallest, largest) = user_key_range(&inputs);
    if inputs.is_empty() || !claims.free(level, smallest, largest) {
        return None;
    }
    let input_bytes: u64 = inputs.iter().map(|f| f.file_size).sum();

    // The output is appended to the next level unless the job rewrites its
    // guards in place.
    let landing = || landing_guards(version.run(level + 1), smallest, largest);
    let in_place = match seek {
        _ if level == 0 => false,
        _ if level == last_level => true,
        // A seek-triggered merge exists to leave a cursor fewer sstables to
        // visit. Appended to guards that hold sstables it leaves those
        // overlapping instead, which arms the same merge one level down — of
        // this data and of what rested there — and so on to the first empty
        // level. So it descends into empty guards only, and otherwise
        // collapses its own: what overlaps is rewritten once, not per level.
        true => landing().next().is_some(),
        // The paper's second-highest-level heuristic: if appending to the
        // last level would land in guards that are already full and much
        // larger than the input, rewrite within this level instead of
        // setting up a huge last-level merge. A file spanning several of
        // those guards weighs once.
        false if level + 1 == last_level => {
            let dest_full = landing().any(|g| g.files.len() >= options.max_sstables_per_guard);
            let mut dest: Vec<&Arc<FileMetaData>> = landing().flat_map(|g| &g.files).collect();
            dest.sort_unstable_by_key(|f| f.number);
            dest.dedup_by_key(|f| f.number);
            let dest_bytes: u64 = dest.iter().map(|f| f.file_size).sum();
            dest_full && dest_bytes > (LAST_LEVEL_MERGE_IO_FACTOR * input_bytes as f64) as u64
        }
        false => false,
    };

    Some(CompactionJob {
        inputs: inputs.into_iter().map(|file| (level, file)).collect(),
        output_level: if in_place { level } else { level + 1 },
        move_only: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::filename::table_file_name;
    use pebblesdb_common::iterator::DbIterator;
    use pebblesdb_common::key::{encode_internal_key, parse_internal_key, ValueType};
    use pebblesdb_common::{ReadOptions, NUM_LEVELS};
    use pebblesdb_engine::runs::merge_to_tables;
    use pebblesdb_engine::version_set::level_files;
    use pebblesdb_engine::{EngineIo, FileMetaDataEdit, FileNumbers, VersionEdit};
    use pebblesdb_env::{Env, MemEnv};
    use pebblesdb_sstable::{TableBuilder, TableCache};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use std::path::{Path, PathBuf};

    /// Merges `job` against `version`, picking the guards `guard_level`
    /// names, with every sequence below the snapshot floor.
    fn merge_with(
        io: &EngineIo,
        version: &Version<FlsmLevel>,
        job: &CompactionJob,
        guard_level: impl Fn(&[u8]) -> Option<usize>,
    ) -> (Vec<FileMetaData>, Vec<Vec<u8>>) {
        merge_to_tables(io, job, version, 1_000, guard_level).unwrap()
    }

    /// Merges `job` for a shape with no guards to pick.
    fn merge(
        io: &EngineIo,
        version: &Version<FlsmLevel>,
        job: &CompactionJob,
    ) -> Vec<FileMetaData> {
        merge_with(io, version, job, |_| None).0
    }

    /// Every entry of `outputs` in order, as its user key and kind.
    fn entries_of(io: &EngineIo, outputs: &[FileMetaData]) -> Vec<(String, ValueType)> {
        let mut entries = Vec::new();
        for meta in outputs {
            let table = io
                .table_cache
                .table(&meta.table, meta.number, meta.file_size);
            let mut iter = table.unwrap().iter(&ReadOptions::default());
            iter.seek_to_first();
            while iter.valid() {
                let parsed = parse_internal_key(iter.key()).unwrap();
                let user = String::from_utf8(parsed.user_key.to_vec()).unwrap();
                entries.push((user, parsed.value_type));
                iter.next();
            }
        }
        entries
    }

    /// Whether `outputs` hold a tombstone for `user`.
    fn holds_tombstone(io: &EngineIo, outputs: &[FileMetaData], user: &str) -> bool {
        let tombstone = (user.to_string(), ValueType::Deletion);
        entries_of(io, outputs).contains(&tombstone)
    }

    /// Asserts that each of `outputs` lies inside one guard of `level`.
    fn each_inside_one_guard(level: &FlsmLevel, outputs: &[FileMetaData]) {
        for file in outputs {
            let (smallest, largest) = (file.smallest.user_key(), file.largest.user_key());
            let guard = level.guard_index_for(smallest);
            assert_eq!(
                guard,
                level.guard_index_for(largest),
                "{smallest:?}..{largest:?}"
            );
        }
    }

    /// IO handles over `db` whose outputs are numbered from 900.
    fn io_for(env: &Arc<dyn Env>, db: &Path, options: &StoreOptions) -> EngineIo {
        let cache = TableCache::new(Arc::clone(env), db.to_path_buf(), options.clone(), 16);
        EngineIo {
            env: Arc::clone(env),
            db_path: db.to_path_buf(),
            options: options.clone(),
            table_cache: Arc::new(cache),
            file_numbers: FileNumbers::starting_at(900),
        }
    }

    fn write_table(
        env: &Arc<dyn Env>,
        db: &Path,
        options: &StoreOptions,
        number: u64,
        keys: &[(&str, u64)],
    ) -> FileMetaDataEdit {
        let entries: Vec<_> = (keys.iter())
            .map(|(k, seq)| (*k, *seq, ValueType::Value))
            .collect();
        write_entries(env, db, options, number, &entries)
    }

    fn write_entries(
        env: &Arc<dyn Env>,
        db: &Path,
        options: &StoreOptions,
        number: u64,
        entries: &[(&str, u64, ValueType)],
    ) -> FileMetaDataEdit {
        let path = table_file_name(db, number);
        let file = env.new_writable_file(&path).unwrap();
        let mut builder = TableBuilder::new(options, file);
        let mut encoded: Vec<Vec<u8>> = entries
            .iter()
            .map(|(k, seq, kind)| encode_internal_key(k.as_bytes(), *seq, *kind))
            .collect();
        encoded.sort_by(|a, b| pebblesdb_common::key::compare_internal_keys(a, b));
        for key in &encoded {
            builder.add(key, b"value").unwrap();
        }
        let smallest = builder.first_key().unwrap().to_vec();
        let largest = builder.last_key().unwrap().to_vec();
        let size = builder.finish().unwrap();
        FileMetaDataEdit {
            number,
            file_size: size,
            smallest,
            largest,
        }
    }

    #[test]
    fn level0_compaction_partitions_by_destination_guards() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/flsm-compact");
        env.create_dir_all(&db).unwrap();
        let options = StoreOptions::default();
        let io = io_for(&env, &db, &options);

        // Two overlapping level-0 files spanning the whole key space; "m" is
        // deleted over an older value at level 2.
        let f1 = write_table(&env, &db, &options, 10, &[("a", 5), ("h", 5), ("q", 5)]);
        let f2 = write_entries(
            &env,
            &db,
            &options,
            11,
            &[
                ("c", 6, ValueType::Value),
                ("m", 6, ValueType::Deletion),
                ("x", 6, ValueType::Value),
            ],
        );
        let older = write_table(&env, &db, &options, 12, &[("m", 1)]);

        let mut edit = VersionEdit::default();
        edit.new_files.push((0, f1));
        edit.new_files.push((0, f2));
        edit.new_files.push((2, older));
        edit.new_guards.push((1, b"h".to_vec()));
        edit.new_guards.push((1, b"q".to_vec()));
        let version = Version::<FlsmLevel>::empty(4).apply(&edit).unwrap();

        let job =
            build_compaction_job(&version, &options, 0, false, &Claims::default(), 1).unwrap();
        assert_eq!(job.output_level, 1);
        assert_eq!(job.inputs.len(), 2);

        let outputs = merge(&io, &version, &job);
        // Level 2 holds an older "m", so its tombstone goes down with it.
        assert!(holds_tombstone(&io, &outputs, "m"));
        each_inside_one_guard(version.run(1), &outputs);
        // Keys a,c | h,m | q,x => three partitions => three output files.
        assert_eq!(outputs.len(), 3);
        let mut spans: Vec<(Vec<u8>, Vec<u8>)> = outputs
            .iter()
            .map(|f| {
                (
                    f.smallest.user_key().to_vec(),
                    f.largest.user_key().to_vec(),
                )
            })
            .collect();
        spans.sort();
        assert_eq!(spans[0], (b"a".to_vec(), b"c".to_vec()));
        assert_eq!(spans[1], (b"h".to_vec(), b"m".to_vec()));
        assert_eq!(spans[2], (b"q".to_vec(), b"x".to_vec()));
    }

    /// A job that moves data down makes each key it writes a guard of the
    /// output level when the key qualifies there, is not one already and
    /// holds a value: the merge starts a table at the key and returns it.
    #[test]
    fn a_level0_merge_cuts_at_and_returns_exactly_the_new_guards() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/flsm-guards");
        env.create_dir_all(&db).unwrap();
        let options = StoreOptions::default();
        let io = io_for(&env, &db, &options);
        let value = ValueType::Value;
        let f1 = write_table(
            &env,
            &db,
            &options,
            10,
            &[("a", 5), ("c", 5), ("h", 5), ("m", 5)],
        );
        let f2 = write_entries(
            &env,
            &db,
            &options,
            11,
            &[
                ("b", 6, value),
                ("q", 6, value),
                ("t", 6, ValueType::Deletion),
                ("x", 6, value),
            ],
        );
        let mut edit = VersionEdit::default();
        edit.new_files.push((0, f1));
        edit.new_files.push((0, f2));
        edit.new_guards.push((1, b"h".to_vec()));
        let version = Version::<FlsmLevel>::empty(4).apply(&edit).unwrap();
        let job =
            build_compaction_job(&version, &options, 0, false, &Claims::default(), 1).unwrap();

        // "h" is a guard already, "m" and "x" qualify only deeper, and "t"'s
        // newest version is a tombstone.
        let guard_level = |key: &[u8]| match key {
            b"c" | b"h" | b"q" | b"t" => Some(1),
            b"m" => Some(2),
            b"x" => Some(3),
            _ => None,
        };
        let (outputs, guards) = merge_with(&io, &version, &job, guard_level);
        assert_eq!(guards, [b"c".to_vec(), b"q".to_vec()]);
        each_inside_one_guard(version.run(1), &outputs);
        let spans: Vec<_> = (outputs.iter())
            .map(|f| (f.smallest.user_key(), f.largest.user_key()))
            .collect();
        let expected: [(&[u8], &[u8]); 4] =
            [(b"a", b"b"), (b"c", b"c"), (b"h", b"m"), (b"q", b"x")];
        assert_eq!(spans, expected);

        // The edit persists them at level 1, and every deeper level has them.
        let edit = VersionEdit::compaction(&job, &outputs, &guards);
        let version = version.apply(&edit).unwrap();
        version.validate().unwrap();
        for level in 1..4 {
            assert_eq!(
                version.run(level).guard_keys(),
                [b"c".to_vec(), b"h".to_vec(), b"q".to_vec()]
            );
        }
        assert!(version.run(1).guards().iter().all(|g| g.files.len() == 1));
    }

    /// An in-place rewrite keeps its level's guards: its merge picks none.
    #[test]
    fn an_in_place_merge_picks_no_guards() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/flsm-in-place");
        env.create_dir_all(&db).unwrap();
        let mut options = StoreOptions::default();
        options.max_sstables_per_guard = 1;
        let io = io_for(&env, &db, &options);
        let last = NUM_LEVELS - 1;
        let mut edit = VersionEdit::default();
        edit.new_files.push((
            last,
            write_table(&env, &db, &options, 40, &[("a", 1), ("c", 2)]),
        ));
        edit.new_files.push((
            last,
            write_table(&env, &db, &options, 41, &[("b", 3), ("d", 4)]),
        ));
        let version = Version::<FlsmLevel>::empty(NUM_LEVELS)
            .apply(&edit)
            .unwrap();
        let job =
            build_compaction_job(&version, &options, last, false, &Claims::default(), 1).unwrap();
        assert_eq!(job.output_level, last);
        let (outputs, guards) = merge_with(&io, &version, &job, |_| Some(1));
        assert_eq!(outputs.len(), 1);
        assert!(guards.is_empty(), "{guards:?}");
    }

    #[test]
    fn duplicate_user_keys_keep_only_newest() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/flsm-dup");
        env.create_dir_all(&db).unwrap();
        let options = StoreOptions::default();
        let io = io_for(&env, &db, &options);

        let f1 = write_table(&env, &db, &options, 20, &[("k", 9)]);
        let f2 = write_table(&env, &db, &options, 21, &[("k", 3)]);
        let mut edit = VersionEdit::default();
        edit.new_files.push((0, f1));
        edit.new_files.push((0, f2));
        let version = Version::<FlsmLevel>::empty(4).apply(&edit).unwrap();

        let job =
            build_compaction_job(&version, &options, 0, false, &Claims::default(), 1).unwrap();
        let outputs = merge(&io, &version, &job);
        assert_eq!(outputs.len(), 1);
        // Only the newest version survives, so the file holds exactly one key.
        assert_eq!(outputs[0].smallest.user_key(), b"k");
        assert_eq!(outputs[0].largest.user_key(), b"k");
        assert_eq!(outputs[0].smallest.sequence(), 9);
        assert_eq!(outputs[0].largest.sequence(), 9);
    }

    /// A table is cut by size only between user keys. Three versions of
    /// `k` survive (a snapshot at sequence 0 pins them all) and every table
    /// is over `max_file_size` after one entry, yet `k` lands in one table.
    /// Split across two tables of a leveled run, a later job could move the
    /// newer versions — a tombstone, say — down a level and leave the older
    /// ones above them, where a read finds them first.
    #[test]
    fn an_output_table_never_splits_the_versions_of_a_key() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/split-key");
        env.create_dir_all(&db).unwrap();
        let mut options = StoreOptions::default();
        options.max_file_size = 1;
        let io = io_for(&env, &db, &options);
        let keys = [("j", 5), ("k", 9), ("k", 8), ("k", 7), ("m", 6)];
        let input = write_table(&env, &db, &options, 30, &keys).to_meta();
        let job = CompactionJob {
            inputs: vec![(0, input)],
            output_level: 1,
            move_only: false,
        };
        let version = Version::<FlsmLevel>::empty(4);
        let (outputs, _) = merge_to_tables(&io, &job, &version, 0, |_| None).unwrap();
        let spans: Vec<_> = (outputs.iter())
            .map(|f| {
                (
                    f.smallest.user_key(),
                    f.smallest.sequence(),
                    f.largest.sequence(),
                )
            })
            .collect();
        assert_eq!(spans, [(&b"j"[..], 5, 5), (b"k", 9, 7), (b"m", 6, 6)]);
    }

    #[test]
    fn guard_selection_prefers_over_budget_guards() {
        let mut options = StoreOptions::default();
        options.max_sstables_per_guard = 1;

        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/flsm-select");
        env.create_dir_all(&db).unwrap();
        let f1 = write_table(&env, &db, &options, 30, &[("a", 1)]);
        let f2 = write_table(&env, &db, &options, 31, &[("b", 2)]);
        let f3 = write_table(&env, &db, &options, 32, &[("z", 3)]);

        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"m".to_vec()));
        edit.new_files.push((1, f1));
        edit.new_files.push((1, f2));
        edit.new_files.push((1, f3));
        let version = Version::<FlsmLevel>::empty(4).apply(&edit).unwrap();

        // The sentinel guard has two files (over the budget of 1); guard "m"
        // has one. Only the sentinel's files are selected.
        let selected = select_guard_inputs(
            &version,
            1,
            options.max_sstables_per_guard,
            &Claims::default(),
            1,
        );
        let numbers: Vec<u64> = selected.iter().map(|f| f.number).collect();
        assert!(numbers.contains(&30) && numbers.contains(&31));
        assert!(!numbers.contains(&32));

        // With a higher budget nothing is over budget, so every non-empty
        // guard is selected (progress guarantee for size-triggered runs).
        let selected = select_guard_inputs(&version, 1, 10, &Claims::default(), 1);
        assert_eq!(selected.len(), 3);
    }

    #[test]
    fn last_level_jobs_rewrite_in_place_and_drop_their_tombstones() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/flsm-last");
        env.create_dir_all(&db).unwrap();
        let options = StoreOptions::default();
        let io = io_for(&env, &db, &options);
        let last = NUM_LEVELS - 1;

        let entries = [("a", 1, ValueType::Value), ("b", 2, ValueType::Deletion)];
        let f1 = write_entries(&env, &db, &options, 40, &entries);
        let mut edit = VersionEdit::default();
        edit.new_files.push((last, f1));
        let version = Version::<FlsmLevel>::empty(NUM_LEVELS)
            .apply(&edit)
            .unwrap();

        let job =
            build_compaction_job(&version, &options, last, false, &Claims::default(), 1).unwrap();
        assert_eq!((job.level(), job.output_level), (last, last));
        // The whole level is in the inputs, so no guard holds a file
        // outside them: the tombstone for "b" goes.
        let outputs = merge(&io, &version, &job);
        assert_eq!(
            entries_of(&io, &outputs),
            [("a".to_string(), ValueType::Value)]
        );
    }

    /// The second-to-last-level heuristic weighs each last-level file once,
    /// however many of the guards a job lands in hold it: a 15,000-byte file
    /// over three of them is 15 times a 1,000-byte input, under the factor
    /// of 25, so the job appends to the last level. At 30,000 bytes it is
    /// over, and the job rewrites its own level in place.
    #[test]
    fn a_spanning_last_level_file_counts_once_against_the_input() {
        let mut options = StoreOptions::default();
        options.max_sstables_per_guard = 1;
        let last = NUM_LEVELS - 1;
        for (last_level_bytes, output_level) in [(15_000, last), (30_000, last - 1)] {
            let key = |user: &str, seq| encode_internal_key(user.as_bytes(), seq, ValueType::Value);
            let file = |number, file_size, smallest, largest| FileMetaDataEdit {
                number,
                file_size,
                smallest: key(smallest, 9),
                largest: key(largest, 1),
            };
            let mut edit = VersionEdit::default();
            edit.new_guards.push((last - 1, b"g".to_vec()));
            edit.new_guards.push((last - 1, b"p".to_vec()));
            edit.new_files
                .push((last, file(20, last_level_bytes, "a", "z")));
            edit.new_files.push((last - 1, file(21, 1_000, "b", "y")));
            let version = Version::<FlsmLevel>::empty(NUM_LEVELS)
                .apply(&edit)
                .unwrap();
            let landing = landing_guards(version.run(last), b"b", b"y");
            assert_eq!(landing.count(), 3);

            let claims = Claims::default();
            let job =
                build_compaction_job(&version, &options, last - 1, false, &claims, 1).unwrap();
            assert_eq!(job.inputs.len(), 1);
            assert_eq!(
                (job.level(), job.output_level),
                (last - 1, output_level),
                "{last_level_bytes} bytes"
            );
        }
    }

    /// A seek-triggered merge descends only into guards that hold nothing;
    /// over occupied ones it collapses its guards where they are, cut at
    /// their own level's guards, which its merge adds none to. A
    /// size-triggered job over the same tree still appends to the next
    /// level.
    #[test]
    fn seek_triggered_jobs_descend_into_empty_guards_only() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/flsm-seek");
        env.create_dir_all(&db).unwrap();
        let options = StoreOptions::default();
        let io = io_for(&env, &db, &options);

        // Level 1: guard "m" holds two overlapping sstables, the sentinel two
        // more. Level 2 holds one sstable, under "m" only.
        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"m".to_vec()));
        for (number, level, keys) in [
            (60, 1, [("a", 1), ("c", 2)]),
            (61, 1, [("b", 3), ("d", 4)]),
            (62, 1, [("m", 5), ("p", 6)]),
            (63, 1, [("n", 7), ("q", 8)]),
            (64, 2, [("o", 1), ("r", 1)]),
        ] {
            // "q" is deleted, over level 2's range.
            let kind = |key| match key {
                "q" => ValueType::Deletion,
                _ => ValueType::Value,
            };
            let keys: Vec<_> = keys.iter().map(|&(k, seq)| (k, seq, kind(k))).collect();
            let file = write_entries(&env, &db, &options, number, &keys);
            edit.new_files.push((level, file));
        }
        let version = Version::<FlsmLevel>::empty(4).apply(&edit).unwrap();
        let job = |reason, claimed: &[u64]| {
            let claims = claims_of(&version, claimed);
            build_compaction_job(&version, &options, 1, reason, &claims, 1).unwrap()
        };
        let numbers = |job: &CompactionJob| {
            job.inputs
                .iter()
                .map(|(_, f)| f.number)
                .collect::<BTreeSet<u64>>()
        };

        // Under the sentinel level 2 is empty: its sstables go down.
        let down = job(true, &[62, 63]);
        assert_eq!(numbers(&down), BTreeSet::from([60, 61]));
        assert_eq!(down.output_level, 2);

        // Under "m" it is not: they are merged within level 1.
        let stays = job(true, &[60, 61]);
        assert_eq!(numbers(&stays), BTreeSet::from([62, 63]));
        assert_eq!(stays.output_level, 1);
        let (outputs, guards) = merge_with(&io, &version, &stays, |_| Some(1));
        // File 64 at level 2 reaches "q": its tombstone stays.
        assert!(holds_tombstone(&io, &outputs, "q"));
        assert!(guards.is_empty(), "{guards:?}");
        each_inside_one_guard(version.run(1), &outputs);
        let spans: Vec<_> = (outputs.iter())
            .map(|f| (f.smallest.user_key(), f.largest.user_key()))
            .collect();
        assert_eq!(spans, [(&b"m"[..], &b"q"[..])], "one table, in guard m");

        let sized = job(false, &[60, 61]);
        assert_eq!(numbers(&sized), BTreeSet::from([62, 63]));
        assert_eq!(sized.output_level, 2);
    }

    #[test]
    fn concurrent_claims_pick_disjoint_guard_subsets() {
        let mut options = StoreOptions::default();
        options.max_sstables_per_guard = 1;

        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/flsm-claim");
        env.create_dir_all(&db).unwrap();
        // Two over-budget guards: sentinel {50, 51} and "m" {52, 53}.
        let f1 = write_table(&env, &db, &options, 50, &[("a", 1)]);
        let f2 = write_table(&env, &db, &options, 51, &[("b", 2)]);
        let f3 = write_table(&env, &db, &options, 52, &[("m", 3)]);
        let f4 = write_table(&env, &db, &options, 53, &[("n", 4)]);

        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"m".to_vec()));
        for f in [f1, f2, f3, f4] {
            edit.new_files.push((1, f));
        }
        let version = Version::<FlsmLevel>::empty(4).apply(&edit).unwrap();

        let mut claims = Claims::default();
        // Worker 1 of a 2-worker pool takes one guard...
        let job1 = build_compaction_job(&version, &options, 1, false, &claims, 2).unwrap();
        claims.hold(&job1.inputs);
        // ... worker 2 takes the other ...
        let job2 = build_compaction_job(&version, &options, 1, false, &claims, 2).unwrap();
        claims.hold(&job2.inputs);
        let numbers = |job: &CompactionJob| job.inputs.iter().map(|(_, f)| f.number).collect();
        let (set1, set2): (BTreeSet<u64>, BTreeSet<u64>) = (numbers(&job1), numbers(&job2));
        assert!(set1.is_disjoint(&set2), "{set1:?} overlaps {set2:?}");
        assert_eq!(set1.len() + set2.len(), 4, "every file is claimed once");

        // ... and worker 3 finds nothing left at this level.
        let job3 = build_compaction_job(&version, &options, 1, false, &claims, 2);
        assert!(job3.is_none());
    }

    #[test]
    fn level0_job_is_exclusive_while_claimed() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/flsm-l0-claim");
        env.create_dir_all(&db).unwrap();
        let options = StoreOptions::default();
        let f1 = write_table(&env, &db, &options, 60, &[("a", 1)]);
        let f2 = write_table(&env, &db, &options, 61, &[("b", 2)]);
        let mut edit = VersionEdit::default();
        edit.new_files.push((0, f1));
        edit.new_files.push((0, f2));
        let version = Version::<FlsmLevel>::empty(4).apply(&edit).unwrap();

        // An in-flight level-0 job took file 60 (file 61 came after it).
        let claims = claims_of(&version, &[60]);
        let job = build_compaction_job(&version, &options, 0, false, &claims, 4);
        assert!(job.is_none(), "level 0 must not be double-compacted");
    }

    /// Writes the fixture used by the spanning-file tests: last level holds
    /// sentinel-guard files 70 ("a") and 73 ("c"), a file 71 *spanning* into
    /// guard "m" with a tombstone for "n", and file 72 with an older value
    /// of "n" inside guard "m".
    fn spanning_tombstone_version(
        env: &Arc<dyn Env>,
        db: &Path,
        options: &StoreOptions,
    ) -> Version<FlsmLevel> {
        let last = NUM_LEVELS - 1;
        let f_a = write_table(env, db, options, 70, &[("a", 1)]);
        let f_b = write_table(env, db, options, 73, &[("c", 5)]);
        let span = [("b", 3, ValueType::Value), ("n", 9, ValueType::Deletion)];
        let f_span = write_entries(env, db, options, 71, &span);
        let f_n_old = write_table(env, db, options, 72, &[("n", 2)]);

        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"m".to_vec()));
        edit.new_files.push((last, f_a));
        edit.new_files.push((last, f_b));
        edit.new_files.push((last, f_span));
        edit.new_files.push((last, f_n_old));
        Version::<FlsmLevel>::empty(NUM_LEVELS)
            .apply(&edit)
            .unwrap()
    }

    /// A file spanning two guards welds them into one compaction component:
    /// selecting either guard must pull in the other, otherwise the spanning
    /// file's newer key versions would sink a level while the unselected
    /// guard keeps older versions of the same keys at the input level —
    /// and level-ordered lookups would return the stale value.
    #[test]
    fn spanning_files_pull_their_whole_component_into_the_job() {
        let mut options = StoreOptions::default();
        options.max_sstables_per_guard = 2;
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/flsm-component");
        env.create_dir_all(&db).unwrap();
        let io = io_for(&env, &db, &options);
        let last = NUM_LEVELS - 1;
        let version = spanning_tombstone_version(&env, &db, &options);

        let job =
            build_compaction_job(&version, &options, last, false, &Claims::default(), 1).unwrap();
        // The over-budget sentinel guard drags guard "m" in through the
        // spanning file 71, so the whole component is the input set and
        // both guards hold nothing else.
        let input_numbers: BTreeSet<u64> = job.inputs.iter().map(|(_, f)| f.number).collect();
        assert_eq!(input_numbers, [70u64, 71, 72, 73].into_iter().collect());

        // With the component fully covered, the tombstone for "n" and the
        // older value it shadows are both dropped for good.
        let outputs = merge(&io, &version, &job);
        each_inside_one_guard(version.run(last), &outputs);
        assert_eq!(outputs.len(), 1, "the sentinel's keys a, b, c");
        let entries = entries_of(&io, &outputs);
        let users: Vec<&str> = entries.iter().map(|(user, _)| user.as_str()).collect();
        assert_eq!(
            users,
            ["a", "b", "c"],
            "key n should be fully compacted away"
        );
    }

    /// Defense in depth for the tombstone rule: if a job's inputs ever
    /// leave a file behind in a guard they touch (hand-picked here; component
    /// selection does not produce such inputs), the merge keeps the
    /// tombstone of a key that file holds — dropping it would resurrect the
    /// older value still sitting in the file left behind.
    #[test]
    fn tombstones_survive_in_partially_covered_partitions() {
        let mut options = StoreOptions::default();
        options.max_sstables_per_guard = 2;
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/flsm-tomb");
        env.create_dir_all(&db).unwrap();
        let io = io_for(&env, &db, &options);
        let last = NUM_LEVELS - 1;
        let version = spanning_tombstone_version(&env, &db, &options);

        // Only the sentinel guard's own files plus the spanning file — guard
        // "m" keeps file 72 (older "n").
        let level = version.run(last);
        let inputs = level.guards()[0].files.clone();
        let kept = |f: &Arc<FileMetaData>| f.number == 72;
        assert!(
            level.guards()[1].files.iter().any(kept),
            "guard m keeps file 72"
        );
        assert!(!inputs.iter().any(kept));
        let job = CompactionJob {
            inputs: inputs.into_iter().map(|file| (last, file)).collect(),
            output_level: last,
            move_only: false,
        };
        let outputs = merge(&io, &version, &job);
        each_inside_one_guard(level, &outputs);
        let survived_tombstone = holds_tombstone(&io, &outputs, "n");
        assert!(survived_tombstone, "tombstone was dropped unsafely");
    }

    /// A level-1 layout of metadata only (no table is written): guards at
    /// `keys`, files `(number, smallest, largest)` by user key, attached to
    /// every guard they overlap.
    fn layout(keys: &[&str], files: &[(u64, &str, &str)]) -> Version<FlsmLevel> {
        let mut edit = VersionEdit::default();
        for key in keys {
            edit.new_guards.push((1, key.as_bytes().to_vec()));
        }
        for &(number, smallest, largest) in files {
            let key = |user: &str, seq| encode_internal_key(user.as_bytes(), seq, ValueType::Value);
            let file = FileMetaDataEdit {
                number,
                file_size: 1000,
                smallest: key(smallest, 9),
                largest: key(largest, 1),
            };
            edit.new_files.push((1, file));
        }
        let version = Version::<FlsmLevel>::empty(4).apply(&edit).unwrap();
        version.validate().unwrap();
        version
    }

    /// A component as the guard indices it covers and its files in order.
    type Component = (Vec<usize>, Vec<u64>);

    /// Level 1's components, as [`guard_components`] and
    /// [`component_files`] walk them.
    fn components_of(version: &Version<FlsmLevel>) -> Vec<Component> {
        let guards = version.run(1).guards();
        let index = |guard: &GuardMeta| guards.iter().position(|g| std::ptr::eq(g, guard));
        let component = |run: &[GuardMeta]| {
            let first = index(&run[0]).unwrap();
            let files = component_files(run).map(|f| f.number).collect();
            ((first..first + run.len()).collect(), files)
        };
        guard_components(guards).map(component).collect()
    }

    fn numbers(files: &[Arc<FileMetaData>]) -> Vec<u64> {
        files.iter().map(|f| f.number).collect()
    }

    /// The claims of in-flight jobs that took the files `claimed` of
    /// `version`: each file's range held at its level, overlapping files
    /// held together.
    fn claims_of(version: &Version<FlsmLevel>, claimed: &[u64]) -> Claims {
        let mut claims = Claims::default();
        let levels = (0..version.num_levels()).map(|level| {
            let files = level_files(version, level);
            (level, files.cloned().collect::<Vec<_>>())
        });
        for (level, mut files) in levels {
            files.retain(|f| claimed.contains(&f.number));
            files.sort_by_key(|f| (f.smallest.user_key().to_vec(), f.number));
            files.dedup_by_key(|f| f.number);
            let mut group: Vec<(usize, Arc<FileMetaData>)> = Vec::new();
            for file in files {
                let (_, largest) = user_key_range(group.iter().map(|(_, f)| f));
                if !group.is_empty() && file.smallest.user_key() > largest {
                    claims.hold(&std::mem::take(&mut group));
                }
                group.push((level, file));
            }
            if !group.is_empty() {
                claims.hold(&group);
            }
        }
        claims
    }

    /// A file over three guards joins all three; a file ending exactly at
    /// a guard key spans it, one starting there does not.
    #[test]
    fn a_component_is_a_run_of_guards_joined_by_spanning_files() {
        // Guards: 0 = sentinel, 1 = "c", 2 = "f", 3 = "k".
        let keys = ["c", "f", "k"];
        let version = layout(&keys, &[(10, "d", "m"), (11, "a", "b"), (12, "g", "h")]);
        let expected = [(vec![0], vec![11]), (vec![1, 2, 3], vec![10, 12])];
        assert_eq!(components_of(&version), expected);

        let version = layout(&keys, &[(10, "a", "b"), (11, "c", "f"), (12, "k", "k")]);
        let expected = [
            (vec![0], vec![10]),
            (vec![1, 2], vec![11]),
            (vec![3], vec![12]),
        ];
        assert_eq!(components_of(&version), expected);
    }

    /// An empty guard holds nothing to share: it ends a run and belongs to
    /// no component.
    #[test]
    fn an_empty_guard_separates_two_runs() {
        let version = layout(&["c", "f", "k", "p"], &[(10, "a", "d"), (11, "l", "q")]);
        let expected = [(vec![0, 1], vec![10]), (vec![3, 4], vec![11])];
        assert_eq!(components_of(&version), expected);
    }

    /// A claimed file anywhere in a run keeps the whole run out of a job,
    /// size- or seek-triggered; the rest of the level stays claimable.
    #[test]
    fn a_claimed_file_in_the_middle_guard_keeps_its_whole_run_out() {
        // Run: sentinel-"c" (file 10) and "c"-"f" (file 11), with file 12
        // inside "f" overlapping 11; file 13 alone under "k".
        let files = [
            (10, "a", "d"),
            (11, "e", "g"),
            (12, "f", "h"),
            (13, "m", "n"),
        ];
        let version = layout(&["c", "f", "k"], &files);
        let expected = [(vec![0, 1, 2], vec![10, 11, 12]), (vec![3], vec![13])];
        assert_eq!(components_of(&version), expected);

        let select = |claimed: &[u64]| {
            let claims = claims_of(&version, claimed);
            numbers(&select_guard_inputs(&version, 1, 10, &claims, 1))
        };
        assert_eq!(select(&[]), [10, 11, 12, 13]);
        assert_eq!(select(&[12]), [13]);
        assert_eq!(select(&[13]), [10, 11, 12]);

        let seek = |claimed: &[u64]| {
            let claims = claims_of(&version, claimed);
            numbers(&select_seek_inputs(&version, 1, &claims))
        };
        assert_eq!(seek(&[]), [10, 11, 12]);
        assert!(seek(&[12]).is_empty(), "the one fat run is claimed");
    }

    /// A job holds the hull of the runs it takes, so it takes them up to
    /// the first claimed run, not past it.
    #[test]
    fn a_selection_stops_short_of_a_claimed_run() {
        let files = [
            (10, "a", "b"),
            (11, "d", "e"),
            (12, "g", "h"),
            (13, "m", "n"),
        ];
        let version = layout(&["c", "f", "k"], &files);
        let select = |claimed: &[u64]| {
            let claims = claims_of(&version, claimed);
            numbers(&select_guard_inputs(&version, 1, 10, &claims, 1))
        };
        assert_eq!(select(&[12]), [10, 11]);
        assert_eq!(select(&[10]), [11, 12, 13]);
        assert_eq!(select(&[10, 12]), [11]);
    }

    /// The oracle: the components as the closure of "shares a file" over a
    /// level's non-empty guards, ordered by first guard, each with its
    /// files in guard order, newest first, each listed once.
    fn closure_components(guards: &[GuardMeta]) -> Vec<Component> {
        let shares = |a: &GuardMeta, b: &GuardMeta| {
            (a.files.iter()).any(|f| b.files.iter().any(|g| g.number == f.number))
        };
        let mut seen = vec![false; guards.len()];
        let mut components = Vec::new();
        for start in 0..guards.len() {
            if seen[start] || guards[start].files.is_empty() {
                continue;
            }
            let mut members = BTreeSet::from([start]);
            loop {
                let grown: BTreeSet<usize> = (0..guards.len())
                    .filter(|&i| members.iter().any(|&m| shares(&guards[m], &guards[i])))
                    .collect();
                if grown == members {
                    break;
                }
                members = grown;
            }
            let mut files = Vec::new();
            for &i in &members {
                seen[i] = true;
                for file in &guards[i].files {
                    if !files.contains(&file.number) {
                        files.push(file.number);
                    }
                }
            }
            components.push((members.into_iter().collect(), files));
        }
        components
    }

    /// A random user key of one to three letters.
    fn random_key(rng: &mut StdRng) -> String {
        let len = rng.gen_range(1..=3);
        (0..len)
            .map(|_| rng.gen_range(b'a'..=b'z') as char)
            .collect()
    }

    /// A random level-1 layout and its number of files (numbered from 1).
    /// Most files are short, so a layout holds several components; one in
    /// ten reaches anywhere, the rest end at most a letter past where they
    /// start.
    fn random_layout(rng: &mut StdRng) -> (Version<FlsmLevel>, usize) {
        let mut keys: Vec<String> = (0..rng.gen_range(0..24)).map(|_| random_key(rng)).collect();
        keys.sort();
        keys.dedup();
        let files: Vec<(u64, String, String)> = (0..rng.gen_range(0..16))
            .map(|number| {
                let a = random_key(rng);
                let b = if rng.gen_bool(0.1) {
                    random_key(rng)
                } else {
                    let first = (a.as_bytes()[0] + rng.gen_range(0..=1)).min(b'z');
                    format!("{}{}", first as char, &random_key(rng)[1..])
                };
                (number + 1, a.clone().min(b.clone()), a.max(b))
            })
            .collect();
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        let files: Vec<_> = (files.iter())
            .map(|(n, a, b)| (*n, a.as_str(), b.as_str()))
            .collect();
        (layout(&keys, &files), files.len())
    }

    /// The guards a job's output lands in, found from the guards under its
    /// hull and the runs adjoining them, are those a walk of the whole level
    /// finds, spanning files and all.
    #[test]
    fn landing_guards_match_a_walk_of_the_whole_level() {
        let mut adjoining = 0;
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (version, _) = random_layout(&mut rng);
            let level = version.run(1);
            let guards = level.guards();
            let mut hull = [random_key(&mut rng), random_key(&mut rng)];
            hull.sort();
            let (smallest, largest) = (hull[0].as_bytes(), hull[1].as_bytes());
            let index = |guard: &GuardMeta| guards.iter().position(|g| std::ptr::eq(g, guard));
            let mut found: Vec<usize> = landing_guards(level, smallest, largest)
                .map(|guard| index(guard).unwrap())
                .collect();
            found.sort_unstable();
            let holds = |g: &GuardMeta| {
                (g.files.iter()).any(|f| f.overlaps_user_range(Some(smallest), Some(largest)))
            };
            let walk: Vec<usize> = (0..guards.len()).filter(|&i| holds(&guards[i])).collect();
            assert_eq!(found, walk, "seed {seed}");
            let under = level.guard_index_for(smallest)..=level.guard_index_for(largest);
            adjoining += found.iter().filter(|i| !under.contains(i)).count();
        }
        assert!(
            adjoining >= 100,
            "{adjoining} guards outside the hull's own"
        );
    }

    /// Random guard layouts, with files written before some of their guards
    /// (so they span them): the one-walk components, their file order and
    /// both selections equal the oracle's and the selections it implies.
    /// A layout holds several components, so a selection can take more than
    /// one or stop short of a claim; the floors at the end keep the draw
    /// from collapsing into one component.
    #[test]
    fn components_and_selections_match_a_brute_force_closure() {
        let (mut spanning, mut seek_jobs) = (0, 0);
        let (mut three_components, mut wide_or_short_selections) = (0, 0);
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (version, files) = random_layout(&mut rng);
            let guards = version.run(1).guards();

            let oracle = closure_components(guards);
            assert_eq!(components_of(&version), oracle, "seed {seed}");
            for run in guard_components(guards) {
                let files: Vec<_> = component_files(run).cloned().collect();
                assert_eq!(hull(run), user_key_range(&files), "seed {seed}");
            }
            spanning += oracle
                .iter()
                .filter(|(members, _)| members.len() > 1)
                .count();
            three_components += usize::from(oracle.len() >= 3);

            let claimed: BTreeSet<u64> =
                (1..=files as u64).filter(|_| rng.gen_bool(0.15)).collect();
            let claimable = |(_, files): &&Component| files.iter().all(|f| !claimed.contains(f));
            let fanout =
                |(members, _): &Component| members.iter().map(|&i| guards[i].files.len()).max();

            let (budget, split) = (rng.gen_range(1..6), rng.gen_range(1..4));
            let over =
                |(members, _): &&Component| members.iter().any(|&i| guards[i].files.len() > budget);
            let any_over = oracle.iter().any(|c| over(&c));
            let eligible: Vec<&Component> = (oracle.iter())
                .filter(|c| !any_over || over(c))
                .filter(claimable)
                .collect();
            let take = eligible.len().div_ceil(split);
            // A job holds the hull of what it takes: it stops short of a
            // claimed component that hull would cover.
            let index = |c: &Component| oracle.iter().position(|d| d == c).unwrap();
            let crosses = |c: &&&Component| {
                let from = eligible.first().map_or(0, |first| index(first));
                oracle[from..index(c)].iter().any(|d| !claimable(&d))
            };
            let chosen: Vec<_> = (eligible.iter().take(take))
                .take_while(|c| !crosses(c))
                .collect();
            wide_or_short_selections += usize::from(chosen.len() >= 2 || chosen.len() < take);
            let expected: Vec<u64> = (chosen.into_iter())
                .flat_map(|(_, files)| files.iter().copied())
                .collect();
            let claims = claims_of(&version, &Vec::from_iter(claimed.iter().copied()));
            let selected = select_guard_inputs(&version, 1, budget, &claims, split);
            assert_eq!(numbers(&selected), expected, "seed {seed}");

            let fat = |(members, _): &&Component| {
                members.iter().any(|&i| guards[i].has_overlapping_files())
            };
            let best = (oracle.iter().filter(claimable).filter(fat)).max_by_key(|c| fanout(c));
            let expected = best.map_or(Vec::new(), |(_, files)| files.clone());
            let selected = select_seek_inputs(&version, 1, &claims);
            seek_jobs += usize::from(!selected.is_empty());
            assert_eq!(numbers(&selected), expected, "seed {seed}");
        }
        assert!(
            spanning > 100 && seek_jobs > 50,
            "{spanning} runs, {seek_jobs} seek picks"
        );
        assert!(
            three_components >= 50 && wide_or_short_selections >= 50,
            "{three_components} layouts of three or more components, \
             {wide_or_short_selections} selections over two or more or short of a claim"
        );
    }
}
