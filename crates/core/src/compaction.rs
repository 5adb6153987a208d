//! FLSM compaction: merge a guard's sstables, partition by the child guards,
//! and append the fragments to the next level — without rewriting any data
//! already in the next level.
//!
//! This is the heart of the paper (section 3.4): classical LSM compaction
//! must rewrite every overlapping next-level sstable, which is where its
//! write amplification comes from; FLSM only ever *adds* sstables to the next
//! level's guards. The two exceptions from the paper are implemented too:
//! the last level rewrites in place (there is nowhere left to push data), and
//! the second-to-last level may rewrite in place when pushing down would set
//! up a much more expensive last-level merge. One more is this repo's: a
//! seek-triggered merge rewrites in place over guards that are not empty.

use std::collections::BTreeSet;
use std::sync::Arc;

use pebblesdb_common::key::SequenceNumber;
use pebblesdb_common::StoreOptions;
use pebblesdb_engine::meta::user_key_range;
use pebblesdb_engine::{CompactionJob, FileMetaData, MergeSpec};

use crate::guards::{GuardMeta, UncommittedGuards};
use crate::version::{CompactionReason, FlsmVersion};

/// A last-level merge that would cost this many times more IO than its
/// input rewrites into the second-highest level instead.
const LAST_LEVEL_MERGE_IO_FACTOR: f64 = 25.0;

/// Groups a level's non-empty guards into connected components linked by
/// *spanning files* (a file attached to several guards because it predates
/// one of their commits).
///
/// A component — not a single guard — is the minimal unit of compaction.
/// Compacting a guard without its span-connected neighbours would push a
/// spanning file's key versions down a level while an unselected neighbour
/// keeps *older* versions of the same keys at the input level, and
/// level-ordered lookups would then return the stale value. Each inner
/// vector holds guard indices; singleton components are the common case
/// (freshly compacted files land in exactly one guard).
fn connected_guard_components(guards: &[GuardMeta]) -> Vec<Vec<usize>> {
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut parent: Vec<usize> = (0..guards.len()).collect();
    let mut first_owner: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    for (idx, guard) in guards.iter().enumerate() {
        for file in &guard.files {
            match first_owner.get(&file.number) {
                None => {
                    first_owner.insert(file.number, idx);
                }
                Some(&owner) => {
                    let a = find(&mut parent, idx);
                    let b = find(&mut parent, owner);
                    parent[a] = b;
                }
            }
        }
    }
    let mut components: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (idx, guard) in guards.iter().enumerate() {
        if guard.files.is_empty() {
            continue;
        }
        let root = find(&mut parent, idx);
        components.entry(root).or_default().push(idx);
    }
    components.into_values().collect()
}

/// The distinct files of a guard component, newest first within each guard.
fn component_files(guards: &[GuardMeta], component: &[usize]) -> Vec<Arc<FileMetaData>> {
    let mut seen = BTreeSet::new();
    let mut files = Vec::new();
    for &idx in component {
        for file in &guards[idx].files {
            if seen.insert(file.number) {
                files.push(Arc::clone(file));
            }
        }
    }
    files
}

/// Returns `true` if no file of the component is an input of an in-flight
/// job.
fn is_claimable(guards: &[GuardMeta], component: &[usize], claimed: &BTreeSet<u64>) -> bool {
    let mut files = component.iter().flat_map(|&idx| &guards[idx].files);
    files.all(|f| !claimed.contains(&f.number))
}

/// Selects the input guard components for a compaction of `level`, skipping
/// components whose files are already claimed by an in-flight job and taking
/// only a `1/split` chunk of the eligible components.
///
/// Components containing a guard over the sstable budget are preferred; if
/// none exist (the compaction was triggered by level size or the aggressive
/// heuristic), every claimable component is eligible so the compaction
/// always makes progress. Chunking is what lets `split` workers each claim
/// a *disjoint component subset* of the same level as independent jobs: the
/// first claimer takes `ceil(n/split)` components, marks their files
/// claimed, and the next claimer's selection excludes them.
pub fn select_guard_inputs(
    version: &FlsmVersion,
    level: usize,
    max_sstables_per_guard: usize,
    claimed: &BTreeSet<u64>,
    split: usize,
) -> Vec<Arc<FileMetaData>> {
    let guards = version.levels[level].guards();
    let components = connected_guard_components(guards);
    let claimable = |component: &&Vec<usize>| is_claimable(guards, component, claimed);
    let over_budget = |component: &&Vec<usize>| {
        component
            .iter()
            .any(|&idx| guards[idx].files.len() > max_sstables_per_guard)
    };
    let any_over_budget = components.iter().any(|c| over_budget(&c));
    // When over-budget components exist but are all claimed, the trigger is
    // already being serviced; returning nothing (instead of compacting
    // innocent small components) avoids pointless write amplification.
    let eligible: Vec<&Vec<usize>> = components
        .iter()
        .filter(|c| !any_over_budget || over_budget(c))
        .filter(claimable)
        .collect();
    if eligible.is_empty() {
        return Vec::new();
    }
    let take = eligible.len().div_ceil(split.max(1));
    let mut seen = BTreeSet::new();
    let mut inputs = Vec::new();
    for component in eligible.into_iter().take(take) {
        for file in component_files(guards, component) {
            if seen.insert(file.number) {
                inputs.push(file);
            }
        }
    }
    inputs
}

/// Selects the inputs of a seek-triggered compaction at `level`: the whole
/// component around the claimable guard with the most overlapping sstables.
/// Returns nothing when no claimable guard holds two overlapping files — a
/// seek compaction of a single file, or of the disjoint files of a guard
/// larger than `max_file_size`, would rewrite data without reducing any
/// overlap, so the request stays pending instead.
fn select_seek_inputs(
    version: &FlsmVersion,
    level: usize,
    claimed: &BTreeSet<u64>,
) -> Vec<Arc<FileMetaData>> {
    let guards = version.levels[level].guards();
    let components = connected_guard_components(guards);
    let best = components
        .iter()
        .filter(|component| is_claimable(guards, component, claimed))
        .filter(|component| {
            component
                .iter()
                .any(|&idx| guards[idx].has_overlapping_files())
        })
        .map(|component| {
            let fanout = component
                .iter()
                .map(|&idx| guards[idx].files.len())
                .max()
                .unwrap_or(0);
            (fanout, component)
        })
        .max_by_key(|(fanout, _)| *fanout);
    match best {
        Some((_, component)) => component_files(guards, component),
        None => Vec::new(),
    }
}

/// Builds a compaction job for one of the triggers returned by
/// [`compaction_candidates`](crate::version::compaction_candidates): the
/// inputs are entire guards (or all of level 0); nothing already in the
/// output level is among them.
///
/// The `uncommitted_guards` of the output level become part of the partition
/// key set and are committed by the job. `claimed` holds the file numbers of every in-flight job's inputs —
/// the new job's inputs never intersect it, which is what keeps concurrent
/// workers on disjoint guard subsets. `split` is the worker-pool size used
/// to chunk a level's eligible guards across jobs. Returns `None` when every
/// eligible guard is claimed.
#[allow(clippy::too_many_arguments)]
pub fn build_compaction_job(
    version: &FlsmVersion,
    options: &StoreOptions,
    level: usize,
    reason: CompactionReason,
    uncommitted_guards: &UncommittedGuards,
    smallest_snapshot: SequenceNumber,
    claimed: &BTreeSet<u64>,
    split: usize,
) -> Option<CompactionJob> {
    let last_level = version.num_levels() - 1;

    let inputs: Vec<Arc<FileMetaData>> = if level == 0 {
        // Level-0 files overlap freely, so a level-0 job takes all of them —
        // and therefore cannot run while another level-0 job is in flight.
        if version.level0.iter().any(|f| claimed.contains(&f.number)) {
            return None;
        }
        version.level0.clone()
    } else if reason == CompactionReason::SeekTriggered {
        // Seek-triggered compactions stay small: merge only the component
        // around the (unclaimed) guard with the most overlapping sstables,
        // so read latency improves without paying for a whole-level rewrite
        // every few range queries.
        select_seek_inputs(version, level, claimed)
    } else {
        select_guard_inputs(
            version,
            level,
            options.max_sstables_per_guard,
            claimed,
            split,
        )
    };
    if inputs.is_empty() {
        return None;
    }
    let input_bytes: u64 = inputs.iter().map(|f| f.file_size).sum();

    // The output is appended to the next level unless the job rewrites its
    // guards in place; `landing` are the guards it would be appended to.
    let (smallest, largest) = user_key_range(&inputs);
    let range = (Some(smallest.as_slice()), Some(largest.as_slice()));
    let occupied = |guard: &&GuardMeta| {
        let mut files = guard.files.iter();
        files.any(|f| f.overlaps_user_range(range.0, range.1))
    };
    let landing = || version.levels[level + 1].guards().iter().filter(occupied);
    let in_place = match reason {
        _ if level == 0 => false,
        _ if level == last_level => true,
        // A seek-triggered merge exists to leave a cursor fewer sstables to
        // visit. Appended to guards that hold sstables it leaves those
        // overlapping instead, which arms the same merge one level down — of
        // this data and of what rested there — and so on to the first empty
        // level. So it descends into empty guards only, and otherwise
        // collapses its own: what overlaps is rewritten once, not per level.
        CompactionReason::SeekTriggered => landing().next().is_some(),
        // The paper's second-highest-level heuristic: if appending to the
        // last level would land in guards that are already full and much
        // larger than the input, rewrite within this level instead of
        // setting up a huge last-level merge.
        _ if level + 1 == last_level => {
            let (mut dest_bytes, mut dest_full) = (0u64, false);
            for guard in landing() {
                dest_bytes += guard.total_bytes();
                dest_full |= guard.files.len() >= options.max_sstables_per_guard;
            }
            dest_full && dest_bytes > (LAST_LEVEL_MERGE_IO_FACTOR * input_bytes as f64) as u64
        }
        _ => false,
    };
    let output_level = if in_place { level } else { level + 1 };

    // Partition keys: the output level's committed guards plus its pending
    // (uncommitted) guards, which this compaction will commit.
    let mut partition_keys = version.levels[output_level].guard_keys();
    let guards_to_commit: Vec<Vec<u8>> = if in_place {
        // In-place rewrites keep the existing guard structure; committing new
        // guards here would require splitting files we are not reading.
        Vec::new()
    } else {
        let pending = uncommitted_guards.for_level(output_level);
        pending.iter().cloned().collect()
    };
    partition_keys.extend(guards_to_commit.iter().cloned());
    partition_keys.sort();
    partition_keys.dedup();

    // In-place last-level rewrites may drop tombstones: there is no deeper
    // data the tombstone still needs to shadow. Per-partition coverage is
    // computed so tombstones are kept wherever the owning guard has files
    // outside this job's inputs (those files may hold older values the
    // tombstone still shadows).
    let drop_tombstones = output_level == last_level && level == last_level;
    let full_partitions: Vec<bool> = if drop_tombstones {
        let input_numbers: BTreeSet<u64> = inputs.iter().map(|f| f.number).collect();
        // In-place jobs commit no new guards, so partition i is exactly
        // guard i of the level (0 = sentinel).
        version.levels[output_level]
            .guards()
            .iter()
            .map(|g| g.files.iter().all(|f| input_numbers.contains(&f.number)))
            .collect()
    } else {
        Vec::new()
    };

    Some(CompactionJob {
        inputs: inputs.into_iter().map(|file| (level, file)).collect(),
        spec: MergeSpec {
            output_level,
            smallest_snapshot,
            drop_tombstones,
        },
        partition_keys,
        guards_to_commit,
        full_partitions,
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
    use pebblesdb_engine::{EngineIo, FileMetaDataEdit, FileNumbers, VersionEdit, VersionShape};
    use pebblesdb_env::{Env, MemEnv};
    use pebblesdb_sstable::{TableBuilder, TableCache};
    use std::path::{Path, PathBuf};

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
        let path = table_file_name(db, number);
        let file = env.new_writable_file(&path).unwrap();
        let mut builder = TableBuilder::new(options, file);
        let mut encoded: Vec<Vec<u8>> = keys
            .iter()
            .map(|(k, seq)| encode_internal_key(k.as_bytes(), *seq, ValueType::Value))
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

        // Two overlapping level-0 files spanning the whole key space.
        let f1 = write_table(&env, &db, &options, 10, &[("a", 5), ("h", 5), ("q", 5)]);
        let f2 = write_table(&env, &db, &options, 11, &[("c", 6), ("m", 6), ("x", 6)]);

        let mut edit = VersionEdit::default();
        edit.new_files.push((0, f1));
        edit.new_files.push((0, f2));
        edit.new_guards.push((1, b"h".to_vec()));
        edit.new_guards.push((1, b"q".to_vec()));
        let version = FlsmVersion::empty(4).apply(&edit).unwrap();

        let job = build_compaction_job(
            &version,
            &options,
            0,
            CompactionReason::Level0Files,
            &UncommittedGuards::new(NUM_LEVELS),
            1_000,
            &BTreeSet::new(),
            1,
        )
        .unwrap();
        assert_eq!(job.spec.output_level, 1);
        assert_eq!(job.inputs.len(), 2);
        assert_eq!(job.partition_keys, vec![b"h".to_vec(), b"q".to_vec()]);
        assert!(!job.spec.drop_tombstones);

        let outputs = merge_to_tables(&io, &job).unwrap();
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
        let version = FlsmVersion::empty(4).apply(&edit).unwrap();

        let job = build_compaction_job(
            &version,
            &options,
            0,
            CompactionReason::Level0Files,
            &UncommittedGuards::new(NUM_LEVELS),
            1_000,
            &BTreeSet::new(),
            1,
        )
        .unwrap();
        let outputs = merge_to_tables(&io, &job).unwrap();
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
            spec: MergeSpec {
                output_level: 1,
                smallest_snapshot: 0,
                drop_tombstones: false,
            },
            partition_keys: Vec::new(),
            full_partitions: Vec::new(),
            guards_to_commit: Vec::new(),
            move_only: false,
        };
        let outputs = merge_to_tables(&io, &job).unwrap();
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
        let version = FlsmVersion::empty(4).apply(&edit).unwrap();

        // The sentinel guard has two files (over the budget of 1); guard "m"
        // has one. Only the sentinel's files are selected.
        let selected = select_guard_inputs(
            &version,
            1,
            options.max_sstables_per_guard,
            &BTreeSet::new(),
            1,
        );
        let numbers: Vec<u64> = selected.iter().map(|f| f.number).collect();
        assert!(numbers.contains(&30) && numbers.contains(&31));
        assert!(!numbers.contains(&32));

        // With a higher budget nothing is over budget, so every non-empty
        // guard is selected (progress guarantee for size-triggered runs).
        let selected = select_guard_inputs(&version, 1, 10, &BTreeSet::new(), 1);
        assert_eq!(selected.len(), 3);
    }

    #[test]
    fn last_level_jobs_rewrite_in_place_and_drop_tombstones() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/flsm-last");
        env.create_dir_all(&db).unwrap();
        let options = StoreOptions::default();
        let last = NUM_LEVELS - 1;

        let f1 = write_table(&env, &db, &options, 40, &[("a", 1), ("b", 2)]);
        let mut edit = VersionEdit::default();
        edit.new_files.push((last, f1));
        let version = FlsmVersion::empty(NUM_LEVELS).apply(&edit).unwrap();

        let job = build_compaction_job(
            &version,
            &options,
            last,
            CompactionReason::GuardFanout,
            &UncommittedGuards::new(NUM_LEVELS),
            1_000,
            &BTreeSet::new(),
            1,
        )
        .unwrap();
        assert_eq!((job.level(), job.spec.output_level), (last, last));
        assert!(job.spec.drop_tombstones);
        // The whole level is in the inputs, so every partition is coverable.
        assert!(job.full_partitions.iter().all(|full| *full));
    }

    /// A seek-triggered merge descends only into guards that hold nothing;
    /// over occupied ones it collapses its guards where they are, partitioned
    /// by their own level's guards and committing none. A size-triggered job
    /// over the same tree still appends to the next level.
    #[test]
    fn seek_triggered_jobs_descend_into_empty_guards_only() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = PathBuf::from("/flsm-seek");
        env.create_dir_all(&db).unwrap();
        let options = StoreOptions::default();

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
            let file = write_table(&env, &db, &options, number, &keys);
            edit.new_files.push((level, file));
        }
        let version = FlsmVersion::empty(4).apply(&edit).unwrap();
        let mut pending = UncommittedGuards::new(4);
        pending.add(2, b"n");
        let job = |reason, claimed: &[u64]| {
            build_compaction_job(
                &version,
                &options,
                1,
                reason,
                &pending,
                1_000,
                &claimed.iter().copied().collect(),
                1,
            )
            .unwrap()
        };
        let numbers = |job: &CompactionJob| job.input_numbers().collect::<BTreeSet<u64>>();

        // Under the sentinel level 2 is empty: its sstables go down.
        let down = job(CompactionReason::SeekTriggered, &[62, 63]);
        assert_eq!(numbers(&down), BTreeSet::from([60, 61]));
        assert_eq!(down.spec.output_level, 2);
        assert_eq!(down.guards_to_commit, vec![b"n".to_vec()]);

        // Under "m" it is not: they are merged within level 1.
        let stays = job(CompactionReason::SeekTriggered, &[60, 61]);
        assert_eq!(numbers(&stays), BTreeSet::from([62, 63]));
        assert_eq!(stays.spec.output_level, 1);
        assert_eq!(stays.partition_keys, vec![b"m".to_vec()]);
        assert!(stays.guards_to_commit.is_empty());
        assert!(!stays.spec.drop_tombstones);

        let sized = job(CompactionReason::GuardFanout, &[60, 61]);
        assert_eq!(numbers(&sized), BTreeSet::from([62, 63]));
        assert_eq!(sized.spec.output_level, 2);
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
        let version = FlsmVersion::empty(4).apply(&edit).unwrap();

        let mut claimed = BTreeSet::new();
        // Worker 1 of a 2-worker pool takes one guard...
        let job1 = build_compaction_job(
            &version,
            &options,
            1,
            CompactionReason::GuardFanout,
            &UncommittedGuards::new(NUM_LEVELS),
            1_000,
            &claimed,
            2,
        )
        .unwrap();
        claimed.extend(job1.input_numbers());
        // ... worker 2 takes the other ...
        let job2 = build_compaction_job(
            &version,
            &options,
            1,
            CompactionReason::GuardFanout,
            &UncommittedGuards::new(NUM_LEVELS),
            1_000,
            &claimed,
            2,
        )
        .unwrap();
        claimed.extend(job2.input_numbers());
        let set1: BTreeSet<u64> = job1.input_numbers().collect();
        let set2: BTreeSet<u64> = job2.input_numbers().collect();
        assert!(set1.is_disjoint(&set2), "{set1:?} overlaps {set2:?}");
        assert_eq!(set1.len() + set2.len(), 4, "every file is claimed once");

        // ... and worker 3 finds nothing left at this level.
        let job3 = build_compaction_job(
            &version,
            &options,
            1,
            CompactionReason::GuardFanout,
            &UncommittedGuards::new(NUM_LEVELS),
            1_000,
            &claimed,
            2,
        );
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
        let version = FlsmVersion::empty(4).apply(&edit).unwrap();

        let claimed: BTreeSet<u64> = [60u64].into_iter().collect();
        let job = build_compaction_job(
            &version,
            &options,
            0,
            CompactionReason::Level0Files,
            &UncommittedGuards::new(NUM_LEVELS),
            1_000,
            &claimed,
            4,
        );
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
    ) -> FlsmVersion {
        let last = NUM_LEVELS - 1;
        let f_a = write_table(env, db, options, 70, &[("a", 1)]);
        let f_b = write_table(env, db, options, 73, &[("c", 5)]);
        let path = table_file_name(db, 71);
        let file = env.new_writable_file(&path).unwrap();
        let mut spanning = TableBuilder::new(options, file);
        let mut keys = vec![
            encode_internal_key(b"b", 3, ValueType::Value),
            encode_internal_key(b"n", 9, ValueType::Deletion),
        ];
        keys.sort_by(|a, b| pebblesdb_common::key::compare_internal_keys(a, b));
        for key in &keys {
            spanning.add(key, b"").unwrap();
        }
        let smallest = spanning.first_key().unwrap().to_vec();
        let largest = spanning.last_key().unwrap().to_vec();
        let size = spanning.finish().unwrap();
        let f_span = FileMetaDataEdit {
            number: 71,
            file_size: size,
            smallest,
            largest,
        };
        let f_n_old = write_table(env, db, options, 72, &[("n", 2)]);

        let mut edit = VersionEdit::default();
        edit.new_guards.push((1, b"m".to_vec()));
        edit.new_files.push((last, f_a));
        edit.new_files.push((last, f_b));
        edit.new_files.push((last, f_span));
        edit.new_files.push((last, f_n_old));
        FlsmVersion::empty(NUM_LEVELS).apply(&edit).unwrap()
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

        let job = build_compaction_job(
            &version,
            &options,
            last,
            CompactionReason::GuardFanout,
            &UncommittedGuards::new(NUM_LEVELS),
            1_000, // every sequence is below the snapshot floor
            &BTreeSet::new(),
            1,
        )
        .unwrap();
        // The over-budget sentinel guard drags guard "m" in through the
        // spanning file 71, so the whole component is the input set and
        // every partition is fully covered.
        let input_numbers: BTreeSet<u64> = job.input_numbers().collect();
        assert_eq!(input_numbers, [70u64, 71, 72, 73].into_iter().collect());
        assert!(job.spec.drop_tombstones);
        assert_eq!(job.full_partitions, vec![true, true]);

        // With the component fully covered, the tombstone for "n" and the
        // older value it shadows are both dropped for good.
        let outputs = merge_to_tables(&io, &job).unwrap();
        for meta in &outputs {
            let table = io
                .table_cache
                .table(&meta.table, meta.number, meta.file_size);
            let mut iter = table.unwrap().iter(&ReadOptions::default());
            iter.seek_to_first();
            while iter.valid() {
                let parsed = parse_internal_key(iter.key()).unwrap();
                assert_ne!(
                    parsed.user_key, b"n",
                    "key n should be fully compacted away"
                );
                iter.next();
            }
        }
    }

    /// Defense-in-depth for `full_partitions`: if a job's inputs ever cover
    /// a guard only partially (hand-built here; component selection does not
    /// produce such jobs), tombstones in the uncovered partition must
    /// survive the merge — dropping one would resurrect the older value
    /// still sitting in the file left behind.
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

        // Hand-build a job covering only the sentinel guard's own files plus
        // the spanning file — guard "m" keeps file 72 (older "n").
        let guards = version.levels[last].guards();
        let inputs = guards[0].files.iter().map(|file| (last, Arc::clone(file)));
        let job = CompactionJob {
            inputs: inputs.collect(),
            spec: MergeSpec {
                output_level: last,
                smallest_snapshot: 1_000,
                drop_tombstones: true,
            },
            partition_keys: vec![b"m".to_vec()],
            guards_to_commit: vec![],
            full_partitions: vec![true, false],
            move_only: false,
        };
        let outputs = merge_to_tables(&io, &job).unwrap();
        let mut survived_tombstone = false;
        for meta in &outputs {
            let table = io
                .table_cache
                .table(&meta.table, meta.number, meta.file_size);
            let mut iter = table.unwrap().iter(&ReadOptions::default());
            iter.seek_to_first();
            while iter.valid() {
                let parsed = parse_internal_key(iter.key()).unwrap();
                if parsed.user_key == b"n" && parsed.value_type == ValueType::Deletion {
                    survived_tombstone = true;
                }
                iter.next();
            }
        }
        assert!(survived_tombstone, "tombstone was dropped unsafely");
    }
}
