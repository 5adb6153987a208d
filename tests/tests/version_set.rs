//! The chassis version set, exercised once over both tree shapes: MANIFEST
//! persistence and recovery, the list of files commits made obsolete,
//! corrupt-MANIFEST handling and a mutation fuzz of the one edit decoder.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use pebblesdb::{FlsmLevel, PebblesDb};
use pebblesdb_common::filename::{current_file_name, descriptor_file_name};
use pebblesdb_common::key::{InternalKey, ValueType};
use pebblesdb_common::{KvStore, StoreOptions, StorePreset, NUM_LEVELS};
use pebblesdb_engine::version_set::version_files;
use pebblesdb_engine::{
    FileMetaData, FileMetaDataEdit, LevelRow, LevelTable, RunSource, Version, VersionEdit,
    VersionSet,
};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::{FileRuns, LsmDb};
use pebblesdb_tests::fuzz_record;
use pebblesdb_wal::LogWriter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn file_edit(number: u64, smallest: &str, largest: &str) -> FileMetaDataEdit {
    FileMetaDataEdit {
        number,
        file_size: 1000,
        smallest: InternalKey::new(smallest.as_bytes(), 9, ValueType::Value)
            .encoded()
            .to_vec(),
        largest: InternalKey::new(largest.as_bytes(), 1, ValueType::Value)
            .encoded()
            .to_vec(),
    }
}

fn mem_dir(path: &str) -> (Arc<dyn Env>, PathBuf) {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = PathBuf::from(path);
    env.create_dir_all(&dir).unwrap();
    (env, dir)
}

fn open_set<R: RunSource>(
    env: &Arc<dyn Env>,
    dir: &Path,
) -> pebblesdb_common::Result<VersionSet<R>> {
    VersionSet::open(Arc::clone(env), dir.to_path_buf(), StoreOptions::default())
}

/// Commits `edit` on a fresh version set, reopens the directory and hands
/// the recovered version to `check`; everything shape-independent (sequence,
/// log number, file numbering, the live file set) is asserted here.
fn persists_and_recovers<R: RunSource>(edit: VersionEdit, check: impl Fn(&Version<R>)) {
    let (env, dir) = mem_dir("/vs");
    let added: Vec<u64> = edit.new_files.iter().map(|(_, f)| f.number).collect();
    let manifest_before;
    {
        let mut vs = open_set::<R>(&env, &dir).unwrap();
        vs.set_last_sequence(777);
        for number in &added {
            vs.mark_file_number_used(*number);
        }
        vs.log_and_apply(VersionEdit {
            log_number: Some(4),
            ..edit
        })
        .unwrap();
        manifest_before = vs.manifest_number();
    }
    let recovered = open_set::<R>(&env, &dir).unwrap();
    assert_eq!(recovered.last_sequence(), 777);
    assert_eq!(recovered.log_number(), 4);
    assert!(recovered.manifest_number() > manifest_before);
    assert!(recovered.new_file_number() > *added.iter().max().unwrap());
    assert_eq!(live_numbers(&**recovered.current()), added);
    assert!(recovered.obsolete_files().is_empty());
    assert!(recovered.current().validate().is_ok());
    check(recovered.current());
}

#[test]
fn version_set_persists_and_recovers_state() {
    let mut edit = VersionEdit::default();
    edit.new_files.push((1, file_edit(9, "a", "z")));
    persists_and_recovers::<FileRuns>(edit, |version| {
        assert_eq!(version.run(1).0.len(), 1);
        assert_eq!(version.run(1).0[0].number, 9);
    });
}

#[test]
fn version_set_persists_guards_across_recovery() {
    let mut edit = VersionEdit::default();
    edit.new_guards.push((1, b"guard-key".to_vec()));
    edit.new_files.push((1, file_edit(8, "x", "z")));
    persists_and_recovers::<FlsmLevel>(edit, |version| {
        assert_eq!(version.run(1).guards().len(), 2);
        assert_eq!(version.run(1).guards()[1].key, b"guard-key".to_vec());
        assert_eq!(version.run(1).guards()[1].files.len(), 1);
        // A guard at level 1 is a guard at every deeper level too.
        assert_eq!(version.run(2).guards().len(), 2);
    });
}

/// Commits `setup` on a fresh version set, reopens the directory and
/// returns the hex of the one record of the MANIFEST the reopen wrote: the
/// full snapshot of the recovered version.
fn snapshot_record<R: RunSource>(setup: VersionEdit) -> String {
    let (env, dir) = mem_dir("/snapshot");
    {
        let mut vs = open_set::<R>(&env, &dir).unwrap();
        vs.set_last_sequence(500);
        vs.mark_file_number_used(30);
        vs.log_and_apply(setup).unwrap();
    }
    let reopened = open_set::<R>(&env, &dir).unwrap();
    let manifest = descriptor_file_name(&dir, reopened.manifest_number());
    let bytes = env.read_file_to_vec(&manifest).unwrap();
    // One full log record: crc32c (4), length (2), type 1 = full, payload.
    let length = u16::from_le_bytes([bytes[4], bytes[5]]) as usize;
    assert_eq!((bytes[6], bytes.len()), (1, 7 + length), "one full record");
    bytes[7..].iter().map(|b| format!("{b:02x}")).collect()
}

/// The MANIFEST snapshot of each shape, byte for byte (records: log number,
/// next file number, last sequence, then the files level by level — level 0
/// newest first, a file spanning guards once — then the guards level by
/// level, every level's own and those inherited from above). Reopening
/// must keep writing these bytes, or a store's MANIFEST changes under it.
#[test]
fn manifest_snapshots_have_the_recorded_bytes() {
    let mut flsm = VersionEdit::default();
    flsm.new_files.push((0, file_edit(10, "a", "k")));
    flsm.new_files.push((0, file_edit(11, "c", "z")));
    flsm.new_guards.push((1, b"g".to_vec()));
    flsm.new_guards.push((2, b"p".to_vec()));
    flsm.new_files.push((1, file_edit(12, "h", "j")));
    flsm.new_files.push((2, file_edit(13, "a", "c")));
    // Over guards "g" and "p" of level 2.
    flsm.new_files.push((2, file_edit(14, "h", "t")));
    assert_eq!(
        snapshot_record::<FlsmLevel>(flsm),
        "0100022003f40305000be80709630109000000000000097a010100000000000005000ae8\
         0709610109000000000000096b010100000000000005010ce80709680109000000000000\
         096a010100000000000005020de807096101090000000000000963010100000000000005\
         020ee8070968010900000000000009740101000000000000070101670702016707020170\
         0703016707030170070401670704017007050167070501700706016707060170",
        "FLSM"
    );

    let mut lsm = VersionEdit::default();
    lsm.new_files.push((0, file_edit(10, "a", "k")));
    lsm.new_files.push((0, file_edit(11, "c", "z")));
    lsm.new_files.push((1, file_edit(12, "a", "f")));
    lsm.new_files.push((1, file_edit(13, "m", "q")));
    lsm.new_files.push((2, file_edit(14, "b", "x")));
    assert_eq!(
        snapshot_record::<FileRuns>(lsm),
        "0100022003f40305000be80709630109000000000000097a010100000000000005000ae8\
         0709610109000000000000096b010100000000000005010ce80709610109000000000000\
         0966010100000000000005010de807096d01090000000000000971010100000000000005\
         020ee8070962010900000000000009780101000000000000",
        "LSM"
    );
}

/// A commit lists the files it unlinks, by the `Arc` the replaced version
/// holds them by; a version a reader still holds keeps them listed and on
/// disk, and once it drops the next pass hands them over for deletion. A
/// trivial move unlinks nothing and keeps its file's `Arc`.
fn pinned_versions_keep_files_live<R: RunSource>() {
    let (env, dir) = mem_dir("/vs-pins");
    let mut vs = open_set::<R>(&env, &dir).unwrap();
    let listed =
        |vs: &VersionSet<R>| -> Vec<u64> { vs.obsolete_files().iter().map(|f| f.number).collect() };
    let mut deleted = Vec::new();

    let mut edit = VersionEdit::default();
    edit.new_files.push((1, file_edit(20, "a", "c")));
    vs.log_and_apply(edit).unwrap();
    assert_eq!(listed(&vs), [0u64; 0], "an edit that deletes nothing");
    let pinned = Arc::clone(vs.current());

    // Replace file 20 with 21; 20 stays listed while `pinned` exists.
    let mut edit = VersionEdit::default();
    edit.delete_file(1, 20);
    edit.new_files.push((1, file_edit(21, "a", "c")));
    vs.log_and_apply(edit).unwrap();
    vs.delete_obsolete(|file| {
        deleted.push(file.number);
        true
    });
    assert_eq!(deleted, [0u64; 0], "deleted under a held version");
    assert_eq!(listed(&vs), [20]);
    let held = version_files(&*pinned).next().unwrap();
    assert!(Arc::ptr_eq(&vs.obsolete_files()[0], held));

    drop(pinned);
    // A delete that fails keeps the file for the next pass.
    vs.delete_obsolete(|_| false);
    assert_eq!(listed(&vs), [20]);
    vs.delete_obsolete(|file| {
        deleted.push(file.number);
        true
    });
    assert_eq!(deleted, [20]);
    assert_eq!(listed(&vs), [0u64; 0]);

    // A trivial move of 21 from level 1 to level 2.
    let moved = Arc::clone(version_files(&**vs.current()).next().unwrap());
    let mut edit = VersionEdit::default();
    edit.delete_file(1, 21);
    edit.add_file(2, &moved);
    vs.log_and_apply(edit).unwrap();
    assert_eq!(listed(&vs), [0u64; 0]);
    let now = version_files(&**vs.current()).next().unwrap();
    assert!(Arc::ptr_eq(&moved, now), "the move minted a second Arc");
}

#[test]
fn live_file_numbers_include_pinned_versions() {
    pinned_versions_keep_files_live::<FlsmLevel>();
    pinned_versions_keep_files_live::<FileRuns>();
}

/// Reads take the current version without registering anything: a
/// read-only store used to grow a list by one entry per `get`, under the
/// state mutex, until the next GC pass — which never comes without writes.
/// What is listed is the obsolete files, and only while something holds
/// them: a cursor held across compactions keeps what they unlink, and once
/// it drops a quiesced `flush` deletes them.
#[test]
fn reads_without_writes_leave_the_pin_list_bounded() {
    fn load(db: &dyn KvStore, round: u8) {
        for i in 0..2000u32 {
            db.put(format!("key{i:05}").as_bytes(), &[b'a' + round; 64])
                .unwrap();
        }
        db.flush().unwrap();
    }
    fn check(db: &dyn KvStore, obsolete: impl Fn() -> usize) {
        let name = db.engine_name();
        load(db, 0);
        for i in 0..100_000u32 {
            let key = format!("key{:05}", i % 2500);
            assert_eq!(db.get(key.as_bytes()).unwrap().is_some(), i % 2500 < 2000);
        }
        let mut cursor = db.iter(&Default::default()).unwrap();
        cursor.seek_to_first();
        assert!(cursor.valid());
        assert_eq!(obsolete(), 0, "{name}: reads listed files");

        load(db, 1);
        load(db, 2);
        assert!(obsolete() > 0, "{name}: the cursor's files were not kept");
        for i in 0..2000u32 {
            assert_eq!(cursor.key(), format!("key{i:05}").as_bytes(), "{name}");
            assert_eq!(cursor.value(), [b'a'; 64], "{name}");
            cursor.next();
        }
        drop(cursor);
        db.flush().unwrap();
        assert_eq!(obsolete(), 0, "{name}: a dropped cursor's files stayed");
    }
    // No background threads: which jobs the loads run, and so which files
    // they unlink, follows from the writes alone.
    let mut options = StoreOptions::default();
    options.write_buffer_size = 32 << 10;
    options.compaction_threads = 0;

    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let flsm = PebblesDb::open_with_options(env, Path::new("/pins"), options.clone()).unwrap();
    let core = flsm.engine().core();
    check(&flsm, || {
        let state = core.state.lock();
        state.default_cf().versions.obsolete_files().len()
    });

    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let lsm = LsmDb::open_with_options(env, Path::new("/pins"), options, StorePreset::HyperLevelDb)
        .unwrap();
    let core = lsm.engine().core();
    check(&lsm, || {
        let state = core.state.lock();
        state.default_cf().versions.obsolete_files().len()
    });
}

/// Dropping the store sets the shutdown flag and wakes the workers while
/// holding the state mutex; without the mutex a worker between its flag
/// check and its wait missed the wake-up and `join` blocked forever (the
/// benchmark's `close_hung`). Closes run on a helper thread so a regression
/// fails the test instead of hanging it.
#[test]
fn close_joins_every_worker_under_a_deadline() {
    fn open_write_close(round: usize, open: impl Fn(Arc<dyn Env>) -> Box<dyn KvStore>) {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open(env);
        for i in 0..20u32 {
            db.put(format!("k{i}").as_bytes(), b"value").unwrap();
        }
        let (closed, wait) = mpsc::channel();
        let closer = std::thread::spawn(move || {
            drop(db);
            let _ = closed.send(());
        });
        wait.recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("close {round} hung: a worker missed the shutdown"));
        closer.join().unwrap();
    }
    let mut options = StoreOptions::default();
    options.compaction_threads = 4;
    for round in 0..300 {
        let opts = options.clone();
        open_write_close(round, move |env| {
            Box::new(PebblesDb::open_with_options(env, Path::new("/close"), opts.clone()).unwrap())
        });
        let opts = options.clone();
        open_write_close(round, move |env| {
            let preset = StorePreset::HyperLevelDb;
            Box::new(
                LsmDb::open_with_options(env, Path::new("/close"), opts.clone(), preset).unwrap(),
            )
        });
    }
}

/// Replaces the directory's MANIFEST with one holding `edits`.
fn write_manifest(env: &Arc<dyn Env>, dir: &Path, edits: &[VersionEdit]) {
    let mut writer = LogWriter::new(
        env.new_writable_file(&descriptor_file_name(dir, 5))
            .unwrap(),
    );
    for edit in edits {
        writer.add_record(&edit.encode()).unwrap();
    }
    writer.sync().unwrap();
    env.write_string_to_file_sync(&current_file_name(dir), b"MANIFEST-000005\n")
        .unwrap();
}

fn assert_corrupt_manifest<R: RunSource>(what: &str, edit: &VersionEdit) {
    let (env, dir) = mem_dir("/vs-corrupt");
    let mut good = VersionEdit::default();
    good.new_files.push((1, file_edit(3, "a", "c")));
    write_manifest(&env, &dir, &[good.clone()]);
    assert!(open_set::<R>(&env, &dir).is_ok());

    write_manifest(&env, &dir, &[good, edit.clone()]);
    match open_set::<R>(&env, &dir) {
        Err(err) => assert!(err.is_corruption(), "{what}: {err}"),
        Ok(_) => panic!("{what}: a corrupt MANIFEST opened"),
    }
}

/// Malformed MANIFEST records used to panic (`extract_user_key`'s assert on
/// a short key bound) or silently drop an sstable (a level the store does
/// not have); every one is `Corruption` now, for both shapes.
#[test]
fn corrupt_manifest_records_are_corruption_not_panics_or_silent_loss() {
    let mut short_key = VersionEdit::default();
    short_key.new_files.push((1, file_edit(7, "d", "f")));
    short_key.new_files[0].1.smallest.truncate(3);
    let mut lost_file = VersionEdit::default();
    lost_file
        .new_files
        .push((NUM_LEVELS, file_edit(7, "d", "f")));
    let mut lost_delete = VersionEdit::default();
    lost_delete.delete_file(NUM_LEVELS + 3, 3);
    for (what, edit) in [
        ("short key bound", &short_key),
        ("file beyond the last level", &lost_file),
        ("delete beyond the last level", &lost_delete),
    ] {
        assert_corrupt_manifest::<FlsmLevel>(what, edit);
        assert_corrupt_manifest::<FileRuns>(what, edit);
    }

    let mut guard = VersionEdit::default();
    guard.new_guards.push((1, b"g".to_vec()));
    assert_corrupt_manifest::<FileRuns>("guard record in a leveled store", &guard);
    for (what, level, key) in [
        ("guard at level 0", 0, &b"g"[..]),
        ("guard beyond the last level", NUM_LEVELS, b"g"),
        ("sentinel committed as a guard", 1, b""),
    ] {
        let mut edit = VersionEdit::default();
        edit.new_guards.push((level, key.to_vec()));
        assert_corrupt_manifest::<FlsmLevel>(what, &edit);
    }

    // The error reaches the caller of the store's `open`.
    let (env, dir) = mem_dir("/vs-corrupt-store");
    write_manifest(&env, &dir, &[lost_file]);
    let err = PebblesDb::open(Arc::clone(&env), &dir).err().unwrap();
    assert!(err.is_corruption(), "{err}");
    let err = LsmDb::open(env, &dir).err().unwrap();
    assert!(err.is_corruption(), "{err}");
}

/// A seeded stream of well-formed edits, so mutations start from records
/// that reach deep into the decoder and both builders.
fn random_edit(rng: &mut StdRng, max_levels: usize, guards: bool) -> VersionEdit {
    let mut edit = VersionEdit {
        log_number: rng.gen_bool(0.5).then(|| rng.gen_range(0..1000)),
        next_file_number: rng.gen_bool(0.5).then(|| rng.gen_range(0..100_000)),
        last_sequence: rng.gen_bool(0.5).then(|| rng.gen::<u64>() >> 8),
        ..Default::default()
    };
    let key = |rng: &mut StdRng| -> String {
        let len = rng.gen_range(0..6);
        (0..len)
            .map(|_| rng.gen_range(b'a'..=b'f') as char)
            .collect()
    };
    for _ in 0..rng.gen_range(0..4) {
        edit.delete_file(rng.gen_range(0..max_levels), rng.gen_range(0..40));
    }
    for _ in 0..rng.gen_range(0..5) {
        let (a, b) = (key(rng), key(rng));
        let file = file_edit(rng.gen_range(0..40), (&a).min(&b), (&a).max(&b));
        edit.new_files.push((rng.gen_range(0..max_levels), file));
    }
    if guards {
        for _ in 0..rng.gen_range(0..3) {
            edit.new_guards.push((
                rng.gen_range(1..max_levels),
                format!("g{}", key(rng)).into_bytes(),
            ));
        }
    }
    edit
}

/// Every column of `rows` against a recount from the version's slots that
/// shares nothing with the chassis's walk: a file is one allocation,
/// whatever slots list it.
fn assert_rows_match_recount<R: RunSource>(version: &Version<R>, rows: &[LevelRow], what: &str) {
    let level0 = version.level0();
    let mut expected = vec![LevelRow {
        level: 0,
        files: level0.len(),
        bytes: level0.iter().map(|f| f.file_size).sum(),
        slots: 1,
        empty_slots: usize::from(level0.is_empty()),
        max_files_per_slot: level0.len(),
    }];
    for (index, run) in version.runs().enumerate() {
        let attached: Vec<usize> = (0..run.slots()).map(|s| run.files(s).len()).collect();
        let sizes: BTreeMap<*const FileMetaData, u64> = (0..run.slots())
            .flat_map(|slot| run.files(slot))
            .map(|f| (Arc::as_ptr(f), f.file_size))
            .collect();
        expected.push(LevelRow {
            level: index + 1,
            files: sizes.len(),
            bytes: sizes.values().sum(),
            slots: attached.len(),
            empty_slots: attached.iter().filter(|n| **n == 0).count(),
            max_files_per_slot: attached.iter().copied().max().unwrap_or(0),
        });
    }
    assert_eq!(rows, expected, "{what}");
    // The whole-version walk lists each file once, too.
    let files: Vec<_> = version_files(version).collect();
    assert_eq!(files.len(), expected.iter().map(|row| row.files).sum());
    let bytes: u64 = files.iter().map(|f| f.file_size).sum();
    assert_eq!(bytes, expected.iter().map(|row| row.bytes).sum::<u64>());
}

/// The per-level table the version set computes when it installs a version
/// (`stats()`, back-pressure, cursor construction and compaction picking
/// read it as fields) against a recount, after every step of a random edit
/// sequence over a 1,296-guard tree — and against the table of the version
/// a reopen recovers from the MANIFEST.
#[test]
fn level_table_matches_recount_and_recovery_after_every_edit() {
    let options = StoreOptions::default();
    let (env, dir) = mem_dir("/vs-rows");
    let open = || VersionSet::<FlsmLevel>::open(Arc::clone(&env), dir.clone(), options.clone());
    let mut rng = StdRng::seed_from_u64(0x5eed_fac7);
    // Every 4-letter key over the generator's alphabet is a guard, so its
    // files (keys of up to 5 letters) routinely span several guards.
    let mut edit = VersionEdit::default();
    for n in 0..6u32.pow(4) {
        let key: Vec<u8> = (0..4).map(|i| b'a' + (n / 6u32.pow(i) % 6) as u8).collect();
        edit.new_guards.push((1, key));
    }
    let mut versions = open().unwrap();
    versions.log_and_apply(edit).unwrap();
    assert!(versions.levels()[1].slots >= 1000);

    let (mut spanning, mut emptied) = (false, false);
    for step in 0..120 {
        let mut edit = random_edit(&mut rng, NUM_LEVELS, true);
        for (_, file) in &mut edit.new_files {
            file.file_size = rng.gen_range(1..5000);
        }
        let before = versions.levels().clone();
        let next = versions.log_and_apply(edit).unwrap();
        let rows = versions.levels().clone();
        assert_rows_match_recount(&*next, &rows, &format!("step {step}"));
        for (built, row) in next.runs().zip(rows.iter().skip(1)) {
            let attached: usize = built.guards().iter().map(|g| g.files.len()).sum();
            spanning |= attached > row.files;
            emptied |= row.empty_slots > before[row.level].empty_slots;
        }
        if step % 10 == 9 {
            drop(versions);
            versions = open().unwrap();
            assert_eq!(*versions.levels(), rows, "step {step}: recovered table");
        }
    }
    assert!(spanning, "no file ever spanned two guards");
    assert!(emptied, "no edit ever emptied a guard");
}

fn live_numbers<R: RunSource>(version: &Version<R>) -> Vec<u64> {
    let mut numbers: Vec<u64> = version_files(version).map(|f| f.number).collect();
    numbers.sort_unstable();
    numbers
}

/// Bit flips, truncations and spliced junk through `decode` + `apply`: the
/// outcome is a valid version or `Corruption` — never a panic — and what the
/// decoder allocates is bounded by the bytes it was given.
fn fuzz_decode_and_apply<R: RunSource>(seed: u64, guards: bool) -> (usize, usize) {
    const MAX_LEVELS: usize = 5;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut version = Version::<R>::empty(MAX_LEVELS);
    // Every applied edit folded into one, the way recovery replays a MANIFEST.
    let mut replay = VersionEdit::default();
    let (mut applied, mut rejected) = (0, 0);
    for case in 0..6000 {
        if case % 50 == 0 {
            let replayed = Version::<R>::empty(MAX_LEVELS).apply(&replay).unwrap();
            let rows = LevelTable::of(&version);
            assert_rows_match_recount(&version, &rows, &format!("seed {seed} case {case}"));
            assert_eq!(LevelTable::of(&replayed), rows);
            assert_eq!(live_numbers(&replayed), live_numbers(&version));
            version = Version::<R>::empty(MAX_LEVELS);
            replay = VersionEdit::default();
        }
        let edit = random_edit(&mut rng, MAX_LEVELS, guards);
        let accepted = fuzz_record(&mut rng, edit, |edit, bytes| {
            let records = edit.deleted_files.len() + edit.new_files.len() + edit.new_guards.len();
            let key_bytes: usize = edit
                .new_files
                .iter()
                .map(|(_, f)| f.smallest.len() + f.largest.len())
                .chain(edit.new_guards.iter().map(|(_, key)| key.len()))
                .sum();
            assert!(
                records + key_bytes <= bytes.len(),
                "seed {seed} case {case}"
            );
            let next = version.apply(&edit)?;
            let live = live_numbers(&next);
            for (_, file) in &edit.new_files {
                assert!(
                    live.contains(&file.number),
                    "seed {seed} case {case}: lost file"
                );
            }
            if let Err(violation) = next.validate() {
                panic!("seed {seed} case {case}: applied to an invalid version: {violation}");
            }
            replay.absorb(edit);
            version = next;
            Ok(())
        });
        if accepted {
            applied += 1;
        } else {
            rejected += 1;
        }
    }
    (applied, rejected)
}

#[test]
fn fuzzed_edits_decode_and_apply_to_valid_versions_or_corruption() {
    for (applied, rejected) in [
        fuzz_decode_and_apply::<FlsmLevel>(0x5eed_f15a, true),
        fuzz_decode_and_apply::<FileRuns>(0x5eed_015a, false),
        // Guard records against the shape that must refuse them.
        fuzz_decode_and_apply::<FileRuns>(0x5eed_915a, true),
    ] {
        // Both outcomes must actually be exercised.
        assert!(
            applied > 300 && rejected > 300,
            "{applied} applied, {rejected} rejected"
        );
    }
}
