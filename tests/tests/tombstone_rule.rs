//! One tombstone rule, in the chassis merge: a tombstone every live
//! snapshot sees is dropped exactly when no file outside the job holds its
//! key at the job's level or deeper (LevelDB's `IsBaseLevelForKey`, asked
//! per key). Over seeded metadata-only versions of both shapes — FLSM files
//! spanning guards and left behind at the input level, LSM files that split
//! one user key — a random job's real input tables are merged and every
//! entry the merge writes is checked against a brute-force scan of every
//! file outside the job. Two stores then show the rule end to end: deleted
//! keys leave nothing on disk once nothing older lies below them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pebblesdb::{FlsmLevel, FlsmPolicy};
use pebblesdb_common::filename::table_file_name;
use pebblesdb_common::key::{encode_internal_key, ValueType};
use pebblesdb_common::{KvStore, StoreOptions, NUM_LEVELS};
use pebblesdb_engine::runs::merge_to_tables;
use pebblesdb_engine::version_set::{level_files, version_files};
use pebblesdb_engine::{
    CompactionJob, EngineDb, EngineIo, FileMetaDataEdit, FileNumbers, RunSource, ShapePolicy,
    Version, VersionEdit,
};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::{FileRuns, LsmPolicy};
use pebblesdb_sstable::{TableBuilder, TableCache};
use pebblesdb_tests::table_entries;

const DIR: &str = "/tombstones";
const CASES: u64 = 300;

/// One entry: user key, sequence, and whether it is a tombstone.
type Entry = (u32, u64, bool);

fn user(key: u32) -> Vec<u8> {
    format!("k{key:03}").into_bytes()
}

fn kind(deleted: bool) -> ValueType {
    if deleted {
        ValueType::Deletion
    } else {
        ValueType::Value
    }
}

/// The internal key of `entry`.
fn internal(&(key, seq, deleted): &Entry) -> Vec<u8> {
    encode_internal_key(&user(key), seq, kind(deleted))
}

/// One file of a layout: its level, number and entries in key order.
struct File {
    level: usize,
    number: u64,
    entries: Vec<Entry>,
}

impl File {
    fn holds(&self, key: u32) -> bool {
        let (first, last) = (self.entries[0].0, self.entries[self.entries.len() - 1].0);
        (first..=last).contains(&key)
    }
}

/// Draws the entries of a file over user keys `[lo, hi]`: both ends and a
/// few keys between, at sequences drawn downwards from `seq`, so a file
/// drawn later holds older versions.
fn entries(rng: &mut StdRng, lo: u32, hi: u32, seq: &mut u64) -> Vec<Entry> {
    let mut keys: Vec<u32> = (0..rng.gen_range(0..4))
        .map(|_| rng.gen_range(lo..=hi))
        .collect();
    keys.extend([lo, hi]);
    keys.sort_unstable();
    keys.dedup();
    let mut entry = |key| {
        *seq -= rng.gen_range(1..4);
        (key, *seq, rng.gen_bool(0.5))
    };
    keys.into_iter().map(&mut entry).collect()
}

/// A seeded layout of `NUM_LEVELS` levels and the guard records of an FLSM
/// version over it (none for the LSM). FLSM files reach anywhere, so many
/// span guards; an LSM level from 1 down is a sorted run whose neighbours
/// sometimes share a boundary user key, the later file holding its older
/// versions.
fn layout(rng: &mut StdRng, leveled: bool) -> (Vec<File>, Vec<(usize, Vec<u8>)>) {
    let (mut files, mut seq, mut number) = (Vec::new(), 1_000_000, 10);
    let mut guards = Vec::new();
    for level in 0..NUM_LEVELS {
        if !leveled && level > 0 {
            for _ in 0..rng.gen_range(0..3) {
                guards.push((level, user(rng.gen_range(0..100))));
            }
        }
        let mut start = rng.gen_range(0..20);
        for _ in 0..rng.gen_range(0..5) {
            let (lo, hi) = if leveled && level > 0 {
                if start > 99 {
                    break;
                }
                (start, (start + rng.gen_range(0..15)).min(99))
            } else {
                let (a, b) = (rng.gen_range(0..100), rng.gen_range(0..100));
                (a.min(b), a.max(b))
            };
            let entries = entries(rng, lo, hi, &mut seq);
            files.push(File {
                level,
                number,
                entries,
            });
            number += 1;
            // The next file of a run starts past this one, or splits its
            // last user key.
            start = hi + u32::from(!rng.gen_bool(0.3)) * rng.gen_range(1..10);
        }
    }
    (files, guards)
}

/// What a random job over `files` takes: the files of one level, or a
/// subset of them, with — for a leveled job — some of the next level's;
/// and where it writes. Returns `(input numbers, level, output level)`.
fn pick(rng: &mut StdRng, files: &[File], leveled: bool) -> Option<(Vec<u64>, usize, usize)> {
    let last = NUM_LEVELS - 1;
    let levels: Vec<usize> = (0..NUM_LEVELS)
        .filter(|level| files.iter().any(|f| f.level == *level))
        .collect();
    if levels.is_empty() {
        return None;
    }
    let level = levels[rng.gen_range(0..levels.len())];
    let in_place = level == last || (level > 0 && !leveled && rng.gen_bool(0.3));
    let output = if in_place { level } else { level + 1 };
    let take = |rng: &mut StdRng, at: usize, p: f64| {
        let candidates = files.iter().filter(move |f| f.level == at);
        candidates
            .filter(|_| rng.gen_bool(p))
            .map(|f| f.number)
            .collect::<Vec<u64>>()
    };
    let mut inputs = take(rng, level, 0.6);
    if inputs.is_empty() {
        inputs.push(files.iter().find(|f| f.level == level).unwrap().number);
    }
    if leveled && output > level {
        inputs.extend(take(rng, output, 0.5));
    }
    Some((inputs, level, output))
}

/// Writes `file` as a real table and describes it.
fn write(io: &EngineIo, file: &File) -> FileMetaDataEdit {
    let path = table_file_name(&io.db_path, file.number);
    let mut builder = TableBuilder::new(&io.options, io.env.new_writable_file(&path).unwrap());
    for entry in &file.entries {
        builder.add(&internal(entry), b"v").unwrap();
    }
    let smallest = builder.first_key().unwrap().to_vec();
    let largest = builder.last_key().unwrap().to_vec();
    let file_size = builder.finish().unwrap();
    FileMetaDataEdit {
        number: file.number,
        file_size,
        smallest,
        largest,
    }
}

/// The metadata of `file`, whose table is never read.
fn describe(file: &File) -> FileMetaDataEdit {
    let (first, last) = (&file.entries[0], &file.entries[file.entries.len() - 1]);
    FileMetaDataEdit {
        number: file.number,
        file_size: 1_000,
        smallest: internal(first),
        largest: internal(last),
    }
}

/// How often each case came up, summed over a shape's seeds.
#[derive(Default, Debug)]
struct Reach {
    /// Tombstones every snapshot sees, dropped.
    dropped: usize,
    /// Kept for a file outside the job at its input level, at its output
    /// level (a push), and deeper.
    kept_at_input: usize,
    kept_at_output: usize,
    kept_deeper: usize,
    /// Kept for a file of the job's own level that splits the key with an
    /// input (the LSM's) or spans into its guard (the FLSM's).
    kept_beside: usize,
}

/// Merges one seeded job over a metadata-only version of level type `R` and
/// checks every entry it writes against the brute-force rule.
fn check_case<R: RunSource>(seed: u64, leveled: bool, reach: &mut Reach) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (files, guards) = layout(&mut rng, leveled);
    let Some((inputs, level, output_level)) = pick(&mut rng, &files, leveled) else {
        return;
    };
    // Every sequence is below 1,000,000: a floor there sees them all.
    let floor = if rng.gen_bool(0.5) {
        1_000_000
    } else {
        rng.gen_range(999_900..1_000_000)
    };

    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    env.create_dir_all(Path::new(DIR)).unwrap();
    let options = StoreOptions::default();
    let cache = TableCache::new(Arc::clone(&env), PathBuf::from(DIR), options.clone(), 64);
    let io = EngineIo {
        env,
        db_path: PathBuf::from(DIR),
        options,
        table_cache: Arc::new(cache),
        file_numbers: FileNumbers::starting_at(900),
    };
    let taken = |number: u64| inputs.contains(&number);
    let mut edit = VersionEdit::default();
    edit.new_guards = guards;
    for file in &files {
        let meta = if taken(file.number) {
            write(&io, file)
        } else {
            describe(file)
        };
        edit.new_files.push((file.level, meta));
    }
    let version = Version::<R>::empty(NUM_LEVELS).apply(&edit).unwrap();
    version.validate().unwrap();
    let at = |l: usize| {
        level_files(&version, l)
            .filter(|f| taken(f.number))
            .map(move |f| (l, Arc::clone(f)))
    };
    let job = CompactionJob {
        inputs: at(level)
            .chain(at(level + 1).filter(|_| leveled && output_level > level))
            .collect(),
        output_level,
        move_only: false,
    };
    assert_eq!(job.inputs.len(), inputs.len(), "seed {seed}");
    let (outputs, _) = merge_to_tables(&io, &job, &version, floor, |_| None).unwrap();

    // The brute force: every file of the version outside the job, from the
    // job's level down, whose user-key range holds the key.
    let outside_at = |key: u32| {
        let key = user(key);
        (level..NUM_LEVELS).find(|&l| {
            let mut files = level_files(&version, l).filter(|f| !taken(f.number));
            files.any(|f| f.overlaps_user_range(Some(&key), Some(&key)))
        })
    };
    let mut versions: BTreeMap<u32, Vec<(u64, bool)>> = BTreeMap::new();
    for file in files.iter().filter(|f| taken(f.number)) {
        for &(key, seq, deleted) in &file.entries {
            versions.entry(key).or_default().push((seq, deleted));
        }
    }
    let mut expected = Vec::new();
    for (key, mut found) in versions {
        found.sort_unstable_by(|a, b| b.cmp(a));
        let mut newer = u64::MAX;
        for (seq, deleted) in found {
            let shadowed = newer <= floor;
            newer = seq;
            if shadowed {
                continue;
            }
            if deleted && seq <= floor {
                let Some(holder) = outside_at(key) else {
                    // Safe: no file outside the job holds an older version.
                    let older = files
                        .iter()
                        .filter(|f| !taken(f.number) && f.level >= level);
                    let mut older = older.flat_map(|f| &f.entries);
                    assert!(
                        older.all(|&(k, s, _)| k != key || s > seq),
                        "seed {seed}: k{key:03} dropped over an older version"
                    );
                    reach.dropped += 1;
                    continue;
                };
                if holder == level {
                    reach.kept_at_input += 1;
                    let beside = |f: &&File| f.level == level && !taken(f.number) && f.holds(key);
                    let beside = level > 0 && files.iter().any(|f| beside(&f));
                    reach.kept_beside += usize::from(beside);
                } else if holder == output_level {
                    reach.kept_at_output += 1;
                } else {
                    reach.kept_deeper += 1;
                }
            }
            expected.push((user(key), seq, kind(deleted)));
        }
    }

    let written = outputs
        .iter()
        .flat_map(|meta| table_entries(&io.table_cache, meta));
    let written: Vec<_> = written.collect();
    assert_eq!(
        written, expected,
        "seed {seed}: level {level} -> {output_level}, inputs {inputs:?}"
    );
}

fn sweep<R: RunSource>(leveled: bool) -> Reach {
    let mut reach = Reach::default();
    for seed in 0..CASES {
        check_case::<R>(seed, leveled, &mut reach);
    }
    reach
}

#[test]
fn the_flsm_merge_drops_a_tombstone_exactly_where_no_file_outside_holds_its_key() {
    let reach = sweep::<FlsmLevel>(false);
    let Reach {
        dropped,
        kept_at_input,
        kept_at_output,
        kept_deeper,
        kept_beside,
    } = reach;
    assert!(dropped >= 100, "{reach:?}");
    assert!(kept_at_input >= 50 && kept_beside >= 30, "{reach:?}");
    assert!(kept_at_output >= 50 && kept_deeper >= 50, "{reach:?}");
}

#[test]
fn the_lsm_merge_drops_a_tombstone_exactly_where_no_file_outside_holds_its_key() {
    let reach = sweep::<FileRuns>(true);
    let Reach {
        dropped,
        kept_at_input,
        kept_at_output,
        kept_deeper,
        kept_beside,
    } = reach;
    assert!(dropped >= 100, "{reach:?}");
    assert!(kept_at_input >= 20 && kept_beside >= 10, "{reach:?}");
    assert!(kept_at_output >= 20 && kept_deeper >= 50, "{reach:?}");
}

/// A store with no workers that deletes every key it wrote: the flush's
/// level-0 job merges each tombstone with the value it deletes, and with
/// nothing older anywhere below, neither reaches level 1.
fn deleted_keys_leave_no_entry<P: ShapePolicy>(policy: fn(&StoreOptions) -> P) {
    let mut options = StoreOptions::default();
    options.compaction_threads = 0;
    options.level0_compaction_trigger = 1;
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = EngineDb::open(policy(&options), env, Path::new(DIR), options).unwrap();
    for i in 0..200u32 {
        db.put(format!("key{i:04}").as_bytes(), b"value").unwrap();
    }
    for i in 0..200u32 {
        db.delete(format!("key{i:04}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
    let live = db.with_current_version(|v| version_files(v).cloned().collect::<Vec<_>>());
    let cache = Arc::clone(&db.core().state.lock().default_cf().io.table_cache);
    let entries: usize = live
        .iter()
        .map(|file| table_entries(&cache, file).len())
        .sum();
    assert_eq!(entries, 0, "{} live tables: {}", live.len(), db.levels());
    assert_eq!(db.get(b"key0100").unwrap(), None);
}

#[test]
fn flsm_deleted_keys_leave_no_entry_on_disk() {
    deleted_keys_leave_no_entry(FlsmPolicy::new);
}

#[test]
fn lsm_deleted_keys_leave_no_entry_on_disk() {
    deleted_keys_leave_no_entry(LsmPolicy::new);
}
