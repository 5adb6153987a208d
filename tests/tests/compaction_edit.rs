//! The one function that builds a compaction's `VersionEdit` writes the
//! bytes the per-engine `commit_job`s it replaced wrote: each job below is
//! picked by its policy from a hand-built version, and the edit the chassis
//! commits for it is compared with the bytes captured from those
//! `commit_job`s (field order: input deletes, next-level deletes, adds,
//! guards).

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use pebblesdb::FlsmPolicy;
use pebblesdb_common::key::{InternalKey, ValueType};
use pebblesdb_common::{StoreOptions, NUM_LEVELS};
use pebblesdb_engine::{
    CompactionJob, FileMetaData, FileMetaDataEdit, PolicyCtx, ShapePolicy, VersionEdit, VersionSet,
};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::LsmPolicy;

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

/// Installs `setup` in a fresh version set, lets `policy` pick its job after
/// `prepare` has touched the policy state, and returns the job with the hex
/// of the edit that commits it with `outputs`.
fn picked_job_and_edit<P: ShapePolicy>(
    policy: P,
    options: &StoreOptions,
    setup: VersionEdit,
    prepare: impl FnOnce(&mut P::State),
    outputs: &[FileMetaData],
) -> (CompactionJob, String) {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = PathBuf::from("/golden");
    env.create_dir_all(&dir).unwrap();
    let mut versions: VersionSet<P::Version> = VersionSet::open(env, dir, options.clone()).unwrap();
    versions.log_and_apply(setup).unwrap();
    let mut state = policy.new_state();
    prepare(&mut state);
    let mut ctx = PolicyCtx {
        versions: &versions,
        state: &mut state,
        claimed_inputs: &BTreeSet::new(),
        smallest_snapshot: 1_000,
    };
    let job = policy.pick_job(&mut ctx).expect("the setup arms a trigger");
    let edit = VersionEdit::compaction(&job, outputs);
    // The edit applies to the version it was picked from.
    versions.log_and_apply(edit.clone()).unwrap();
    (job, hex(&edit.encode()))
}

#[test]
fn compaction_edits_encode_to_the_bytes_the_per_engine_commits_wrote() {
    // An LSM level-1 file with nothing below it: a trivial move.
    let mut options = StoreOptions::default();
    options.base_level_bytes = 500;
    let mut setup = VersionEdit::default();
    setup.new_files.push((1, file_edit(12, 1000, "c", "m")));
    let (job, edit) = picked_job_and_edit(LsmPolicy::new(&options), &options, setup, |_| {}, &[]);
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
    let (job, edit) =
        picked_job_and_edit(LsmPolicy::new(&options), &options, setup, |_| {}, &outputs);
    assert!(!job.move_only);
    assert_eq!(job.input_numbers().collect::<Vec<_>>(), [12, 13, 14]);
    assert_eq!(
        edit,
        "04010c04020d04020e050232dc0b0961010900000000000009680101000000000000\
         050233a0060969010900000000000009700101000000000000"
    );

    // An FLSM level-0 job that commits two pending guards at level 1.
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
    let (job, edit) = picked_job_and_edit(
        FlsmPolicy::new(&options),
        &options,
        setup,
        |state| {
            state.uncommitted_guards.add(1, b"h");
            state.uncommitted_guards.add(1, b"q");
        },
        &outputs,
    );
    assert_eq!(job.guards_to_commit, [b"h".to_vec(), b"q".to_vec()]);
    assert_eq!(
        edit,
        "04001504001405013c9003096101090000000000000963010100000000000005013d9003\
         09680109000000000000096d010100000000000005013e90030971010900000000000009\
         7801010000000000000701016807010171"
    );

    // An FLSM last-level guard over its budget rewrites in place; the guard
    // pending for the level stays pending.
    let mut options = StoreOptions::default();
    options.max_sstables_per_guard = 1;
    let last = NUM_LEVELS - 1;
    let mut setup = VersionEdit::default();
    setup.new_guards.push((1, b"m".to_vec()));
    setup.new_files.push((last, file_edit(30, 1000, "a", "d")));
    setup.new_files.push((last, file_edit(31, 1000, "b", "e")));
    setup.new_files.push((last, file_edit(32, 1000, "n", "z")));
    let (job, edit) = picked_job_and_edit(
        FlsmPolicy::new(&options),
        &options,
        setup,
        |state| state.uncommitted_guards.add(last, b"c"),
        &[output(70, 1800, "a", "e")],
    );
    assert_eq!((job.level(), job.spec.output_level), (last, last));
    assert!(job.spec.drop_tombstones && job.guards_to_commit.is_empty());
    assert_eq!(
        edit,
        "04061f04061e050646880e0961010900000000000009650101000000000000"
    );

    // The second-to-last level rewrites in place rather than set up a
    // last-level merge 25 times its size.
    let mut setup = VersionEdit::default();
    setup
        .new_files
        .push((last - 1, file_edit(40, 1000, "a", "d")));
    setup
        .new_files
        .push((last - 1, file_edit(41, 1000, "b", "e")));
    setup
        .new_files
        .push((last, file_edit(42, 100_000, "a", "z")));
    let (job, edit) = picked_job_and_edit(
        FlsmPolicy::new(&options),
        &options,
        setup,
        |state| state.uncommitted_guards.add(last - 1, b"c"),
        &[output(80, 1900, "a", "e")],
    );
    assert_eq!((job.level(), job.spec.output_level), (last - 1, last - 1));
    assert!(!job.spec.drop_tombstones && job.guards_to_commit.is_empty());
    assert_eq!(
        edit,
        "040529040528050550ec0e0961010900000000000009650101000000000000"
    );
}
