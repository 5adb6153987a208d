//! The one function that builds a compaction's `VersionEdit` writes the
//! bytes the per-engine `commit_job`s it replaced wrote: each job below is
//! picked by its policy from a hand-built version, and the edit the chassis
//! commits for it is compared with the bytes captured from those
//! `commit_job`s (field order: input deletes, next-level deletes, adds,
//! guards). The FLSM's two deep in-place jobs also merge real input tables,
//! one deleting a key: the merge drops the tombstone where nothing outside
//! the job reaches the key and keeps it over a last-level file that does.

use std::path::PathBuf;
use std::sync::Arc;

use pebblesdb::FlsmPolicy;
use pebblesdb_common::filename::table_file_name;
use pebblesdb_common::key::{encode_internal_key, InternalKey, ValueType};
use pebblesdb_common::{StoreOptions, NUM_LEVELS};
use pebblesdb_engine::runs::merge_to_tables;
use pebblesdb_engine::{
    Claims, CompactionJob, EngineIo, FileMetaData, FileMetaDataEdit, FileNumbers, PolicyCtx,
    RunSource, ShapePolicy, Version, VersionEdit, VersionSet,
};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::LsmPolicy;
use pebblesdb_sstable::{TableBuilder, TableCache};
use pebblesdb_tests::table_entries;

/// The directory every golden version set lives in.
const DIR: &str = "/golden";

fn file_edit(number: u64, size: u64, smallest: &str, largest: &str) -> FileMetaDataEdit {
    let key = |user: &str, seq| InternalKey::new(user.as_bytes(), seq, ValueType::Value);
    FileMetaDataEdit {
        number,
        file_size: size,
        smallest: key(smallest, 9).encoded().to_vec(),
        largest: key(largest, 1).encoded().to_vec(),
    }
}

fn output(number: u64, size: u64, smallest: &str, largest: &str) -> FileMetaData {
    Arc::into_inner(file_edit(number, size, smallest, largest).to_meta()).unwrap()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A fresh `MemEnv` holding the golden directory.
fn golden_env() -> Arc<dyn Env> {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    env.create_dir_all(&PathBuf::from(DIR)).unwrap();
    env
}

/// Writes table `number` of the golden directory, holding `entries` (user
/// keys in order, `true` a tombstone), and describes it.
fn table_edit(env: &Arc<dyn Env>, number: u64, entries: &[(&str, bool)]) -> FileMetaDataEdit {
    let file = env.new_writable_file(&table_file_name(&PathBuf::from(DIR), number));
    let mut builder = TableBuilder::new(&StoreOptions::default(), file.unwrap());
    for (user, deleted) in entries {
        let kind = if *deleted {
            ValueType::Deletion
        } else {
            ValueType::Value
        };
        builder
            .add(&encode_internal_key(user.as_bytes(), 5, kind), b"v")
            .unwrap();
    }
    let smallest = builder.first_key().unwrap().to_vec();
    let largest = builder.last_key().unwrap().to_vec();
    let file_size = builder.finish().unwrap();
    FileMetaDataEdit {
        number,
        file_size,
        smallest,
        largest,
    }
}

/// Merges `job` against `version` in `env`'s golden directory, every
/// sequence below the snapshot floor, and returns the user keys of the
/// tombstones its outputs keep.
fn kept_tombstones<R: RunSource>(
    env: &Arc<dyn Env>,
    job: &CompactionJob,
    version: &Version<R>,
) -> Vec<Vec<u8>> {
    let (dir, options) = (PathBuf::from(DIR), StoreOptions::default());
    let cache = TableCache::new(Arc::clone(env), dir.clone(), options.clone(), 16);
    let io = EngineIo {
        env: Arc::clone(env),
        db_path: dir,
        options,
        table_cache: Arc::new(cache),
        file_numbers: FileNumbers::starting_at(900),
    };
    let (outputs, _) = merge_to_tables(&io, job, version, 1_000, |_| None).unwrap();
    let entries = outputs
        .iter()
        .flat_map(|meta| table_entries(&io.table_cache, meta));
    let tombstones = entries.filter(|(_, _, kind)| *kind == ValueType::Deletion);
    tombstones.map(|(user, _, _)| user).collect()
}

/// Installs `setup` in a fresh version set in `env`, lets `policy` pick its
/// job, and returns the job and the version it was picked from, with the
/// hex of the edit that commits it with `outputs` and the new `guards` its
/// merge picked.
fn picked_job_and_edit<P: ShapePolicy>(
    policy: P,
    options: &StoreOptions,
    env: Arc<dyn Env>,
    setup: VersionEdit,
    outputs: &[FileMetaData],
    guards: &[Vec<u8>],
) -> (CompactionJob, Arc<Version<P::Runs>>, String) {
    let mut versions: VersionSet<P::Runs> =
        VersionSet::open(env, PathBuf::from(DIR), options.clone()).unwrap();
    versions.log_and_apply(setup).unwrap();
    let mut state = P::State::default();
    let mut ctx = PolicyCtx {
        versions: &versions,
        state: &mut state,
        seek_requested: &mut false,
        claims: &Claims::default(),
    };
    let job = policy.pick_job(&mut ctx).expect("the setup arms a trigger");
    let version = Arc::clone(versions.current());
    let edit = VersionEdit::compaction(&job, outputs, guards);
    // The edit applies to the version it was picked from.
    versions.log_and_apply(edit.clone()).unwrap();
    (job, version, hex(&edit.encode()))
}

#[test]
fn compaction_edits_encode_to_the_bytes_the_per_engine_commits_wrote() {
    // An LSM level-1 file with nothing below it: a trivial move.
    let mut options = StoreOptions::default();
    options.base_level_bytes = 500;
    let mut setup = VersionEdit::default();
    setup.new_files.push((1, file_edit(12, 1000, "c", "m")));
    let lsm = LsmPolicy::new(&options);
    let (job, _, edit) = picked_job_and_edit(lsm, &options, golden_env(), setup, &[], &[]);
    assert!(job.move_only);
    assert_eq!(
        edit,
        "04010c05020ce80709630109000000000000096d0101000000000000"
    );

    // An LSM level-1 file merged with the two level-2 files it overlaps.
    let mut setup = VersionEdit::default();
    setup.new_files.push((1, file_edit(12, 1000, "c", "m")));
    setup.new_files.push((2, file_edit(13, 700, "a", "d")));
    setup.new_files.push((2, file_edit(14, 700, "k", "p")));
    setup.new_files.push((2, file_edit(15, 700, "x", "z")));
    let outputs = [output(50, 1500, "a", "h"), output(51, 800, "i", "p")];
    let lsm = LsmPolicy::new(&options);
    let (job, _, edit) = picked_job_and_edit(lsm, &options, golden_env(), setup, &outputs, &[]);
    assert!(!job.move_only);
    let numbers: Vec<u64> = job.inputs.iter().map(|(_, f)| f.number).collect();
    assert_eq!(numbers, [12, 13, 14]);
    assert_eq!(
        edit,
        "04010c04020d04020e050232dc0b0961010900000000000009680101000000000000\
         050233a0060969010900000000000009700101000000000000"
    );

    // An FLSM level-0 job whose merge picked two guards at level 1.
    let mut options = StoreOptions::default();
    options.level0_compaction_trigger = 2;
    let mut setup = VersionEdit::default();
    setup.new_files.push((0, file_edit(20, 1000, "a", "q")));
    setup.new_files.push((0, file_edit(21, 1000, "c", "x")));
    let outputs = [
        output(60, 400, "a", "c"),
        output(61, 400, "h", "m"),
        output(62, 400, "q", "x"),
    ];
    let guards = [b"h".to_vec(), b"q".to_vec()];
    let (job, _, edit) = picked_job_and_edit(
        FlsmPolicy::new(&options),
        &options,
        golden_env(),
        setup,
        &outputs,
        &guards,
    );
    assert_eq!(job.output_level, 1);
    assert_eq!(
        edit,
        "04001504001405013c9003096101090000000000000963010100000000000005013d9003\
         09680109000000000000096d010100000000000005013e90030971010900000000000009\
         7801010000000000000701016807010171"
    );

    // An FLSM last-level guard over its budget rewrites in place. Its
    // inputs delete "c", and nothing outside the job reaches it: the
    // tombstone goes.
    let mut options = StoreOptions::default();
    options.max_sstables_per_guard = 1;
    let last = NUM_LEVELS - 1;
    let deletes_c = [("a", false), ("c", true), ("d", false)];
    let env = golden_env();
    let mut setup = VersionEdit::default();
    setup.new_guards.push((1, b"m".to_vec()));
    setup
        .new_files
        .push((last, table_edit(&env, 30, &deletes_c)));
    setup
        .new_files
        .push((last, table_edit(&env, 31, &[("b", false), ("e", false)])));
    setup.new_files.push((last, file_edit(32, 1000, "n", "z")));
    let (job, version, edit) = picked_job_and_edit(
        FlsmPolicy::new(&options),
        &options,
        Arc::clone(&env),
        setup,
        &[output(70, 1800, "a", "e")],
        &[],
    );
    assert_eq!((job.level(), job.output_level), (last, last));
    assert!(kept_tombstones(&env, &job, version.as_ref()).is_empty());
    assert_eq!(
        edit,
        "04061f04061e050646880e0961010900000000000009650101000000000000"
    );

    // The second-to-last level rewrites in place rather than set up a
    // last-level merge 25 times its size, whose file reaches "c": the
    // tombstone stays.
    let env = golden_env();
    let mut setup = VersionEdit::default();
    setup
        .new_files
        .push((last - 1, table_edit(&env, 40, &deletes_c)));
    setup.new_files.push((
        last - 1,
        table_edit(&env, 41, &[("b", false), ("e", false)]),
    ));
    setup
        .new_files
        .push((last, file_edit(42, 100_000, "a", "z")));
    let (job, version, edit) = picked_job_and_edit(
        FlsmPolicy::new(&options),
        &options,
        Arc::clone(&env),
        setup,
        &[output(80, 1900, "a", "e")],
        &[],
    );
    assert_eq!((job.level(), job.output_level), (last - 1, last - 1));
    let kept = kept_tombstones(&env, &job, version.as_ref());
    assert_eq!(kept, [b"c".to_vec()]);
    assert_eq!(
        edit,
        "040529040528050550ec0e0961010900000000000009650101000000000000"
    );
}
