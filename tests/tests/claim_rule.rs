//! The one claim rule the chassis keeps ([`Claims`]) is never looser than
//! the two it replaced. Over seeded random shapes, jobs are claimed one after
//! another through each policy's own pick, the way workers claim them, and
//! every admitted job is checked against both old rules, kept here as the
//! reference: its inputs are disjoint from every claimed file number (the
//! FLSM's rule), and no claimed file of its input level lies in the user-key
//! hull of its inputs (what the LSM added). With nothing claimed, the pick
//! is the one the old rules made: a store with no workers picks as before.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use pebblesdb::guards::GuardMeta;
use pebblesdb::version::compaction_candidates;
use pebblesdb::{FlsmLevel, FlsmPolicy};
use pebblesdb_common::key::{InternalKey, ValueType};
use pebblesdb_common::StoreOptions;
use pebblesdb_engine::meta::user_key_range;
use pebblesdb_engine::version_set::level_files;
use pebblesdb_engine::{
    Claims, CompactionJob, FileMetaData, FileMetaDataEdit, PolicyCtx, RunSource, ShapePolicy,
    VersionEdit, VersionSet,
};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::version::compaction_levels;
use pebblesdb_lsm::{FileRuns, LsmPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn file_edit(number: u64, smallest: &str, largest: &str, size: u64) -> FileMetaDataEdit {
    let key = |user: &str, seq| InternalKey::new(user.as_bytes(), seq, ValueType::Value);
    FileMetaDataEdit {
        number,
        file_size: size,
        smallest: key(smallest, 100 + number).encoded().to_vec(),
        largest: key(largest, 1).encoded().to_vec(),
    }
}

/// A version set in a fresh `MemEnv` with `setup` applied (metadata only:
/// no table is written).
fn versions<R: RunSource>(options: &StoreOptions, setup: VersionEdit) -> VersionSet<R> {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = PathBuf::from("/claims");
    env.create_dir_all(&dir).unwrap();
    let mut versions = VersionSet::open(env, dir, options.clone()).unwrap();
    versions.log_and_apply(setup).unwrap();
    versions
}

fn user(key: u64) -> String {
    format!("k{key:03}")
}

fn numbers(job: &CompactionJob) -> Vec<u64> {
    job.inputs.iter().map(|(_, f)| f.number).collect()
}

/// Claims jobs through `policy`'s pick until none is free, checking each
/// against the old rules; returns the numbers of the first pick's inputs and
/// how many jobs were admitted side by side.
fn claim_until_none<P: ShapePolicy>(
    policy: &P,
    versions: &VersionSet<P::Runs>,
    seed: u64,
) -> (Option<Vec<u64>>, usize) {
    let mut state = P::State::default();
    let (mut claims, mut claimed) = (Claims::default(), BTreeSet::new());
    let mut first = None;
    let mut admitted = 0;
    loop {
        let mut ctx = PolicyCtx {
            versions,
            state: &mut state,
            seek_requested: &mut false,
            claims: &claims,
        };
        let Some(job) = policy.pick_job(&mut ctx) else {
            break;
        };
        let inputs = numbers(&job);
        assert!(
            inputs.iter().all(|n| !claimed.contains(n)),
            "seed {seed}: an input is claimed: {inputs:?} beside {claimed:?}"
        );
        let (lo, hi) = user_key_range(job.inputs.iter().map(|(_, f)| f));
        let mut beside = level_files(versions.current().as_ref(), job.level())
            .filter(|f| f.overlaps_user_range(Some(lo), Some(hi)));
        assert!(
            beside.all(|f| !claimed.contains(&f.number)),
            "seed {seed}: a claimed file of level {} lies in the hull of {inputs:?}",
            job.level()
        );
        // The chassis' own admission: `hold` refuses a job over a claim.
        claims.hold(&job.inputs);
        claimed.extend(inputs.iter().copied());
        first.get_or_insert(inputs);
        admitted += 1;
    }
    assert_eq!(claims.jobs(), admitted);
    (first, admitted)
}

/// The leveled pick with nothing claimed: the best-scoring level, all of
/// level 0 or its first file, and the next-level files that overlaps.
fn serial_lsm_pick(options: &StoreOptions, versions: &VersionSet<FileRuns>) -> Option<Vec<u64>> {
    let level = *compaction_levels(versions.levels(), options).first()?;
    let files: Vec<_> = level_files(versions.current(), level).cloned().collect();
    let inputs = if level == 0 {
        files.clone()
    } else {
        vec![Arc::clone(&files[0])]
    };
    let (lo, hi) = user_key_range(&inputs);
    let next = versions.current().run(level + 1).overlapping_inputs(lo, hi);
    Some(inputs.iter().chain(next).map(|f| f.number).collect())
}

#[test]
fn the_lsm_claim_rule_is_no_looser_than_the_file_and_hull_rules() {
    let (mut side_by_side, mut jobs) = (0, 0);
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut options = StoreOptions::default();
        options.level0_compaction_trigger = rng.gen_range(1..4);
        options.base_level_bytes = rng.gen_range(1_000..4_000);
        let mut setup = VersionEdit::default();
        let mut number = 1;
        for _ in 0..rng.gen_range(0..5) {
            let (a, b) = (rng.gen_range(0..60), rng.gen_range(0..60));
            let file = file_edit(number, &user(a.min(b)), &user(a.max(b)), 500);
            setup.new_files.push((0, file));
            number += 1;
        }
        for level in 1..5 {
            let mut bounds: Vec<u64> = (0..2 * rng.gen_range(0..8))
                .map(|_| rng.gen_range(0..100))
                .collect();
            bounds.sort_unstable();
            bounds.dedup();
            for pair in bounds.chunks_exact(2) {
                let size = rng.gen_range(200..1_200);
                let file = file_edit(number, &user(pair[0]), &user(pair[1]), size);
                setup.new_files.push((level, file));
                number += 1;
            }
        }
        let versions: VersionSet<FileRuns> = versions(&options, setup);
        let policy = LsmPolicy::new(&options);
        let (first, admitted) = claim_until_none(&policy, &versions, seed);
        assert_eq!(first, serial_lsm_pick(&options, &versions), "seed {seed}");
        side_by_side += usize::from(admitted >= 2);
        jobs += admitted;
    }
    assert!(
        side_by_side > 100 && jobs > 400,
        "{side_by_side} shapes ran jobs side by side, {jobs} jobs"
    );
}

/// Whether `file`, listed under `guard`, starts in an earlier guard.
fn spans_back(guard: &GuardMeta, file: &FileMetaData) -> bool {
    file.smallest.user_key() < guard.key.as_slice()
}

/// The FLSM pick with nothing claimed: the first compaction candidate's
/// inputs, all of level 0 or the first `ceil(n/split)` of its eligible
/// guard runs (over budget, if any run is).
fn serial_flsm_pick(options: &StoreOptions, versions: &VersionSet<FlsmLevel>) -> Option<Vec<u64>> {
    let level = *compaction_candidates(versions.levels(), options).first()?;
    let version = versions.current();
    if level == 0 {
        return Some(version.level0().iter().map(|f| f.number).collect());
    }
    let joined = |_: &GuardMeta, g: &GuardMeta| g.files.iter().any(|f| spans_back(g, f));
    let runs: Vec<&[GuardMeta]> = (version.run(level).guards().chunk_by(joined))
        .filter(|run| !run[0].files.is_empty())
        .collect();
    let budget = options.max_sstables_per_guard;
    let over = |run: &&[GuardMeta]| run.iter().any(|g| g.files.len() > budget);
    let any_over = runs.iter().any(over);
    let eligible: Vec<_> = runs.into_iter().filter(|r| !any_over || over(r)).collect();
    let take = eligible.len().div_ceil(options.compaction_threads.max(1));
    let files = eligible.into_iter().take(take).flat_map(|run| {
        run.iter()
            .flat_map(|g| g.files.iter().filter(move |f| !spans_back(g, f)))
    });
    Some(files.map(|f| f.number).collect())
}

#[test]
fn the_flsm_claim_rule_is_no_looser_than_the_file_rule() {
    let (mut side_by_side, mut jobs) = (0, 0);
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut options = StoreOptions::default();
        options.level0_compaction_trigger = rng.gen_range(1..4);
        options.max_sstables_per_guard = rng.gen_range(1..4);
        options.compaction_threads = rng.gen_range(0..4);
        let mut setup = VersionEdit::default();
        for level in 1..4 {
            for _ in 0..rng.gen_range(0..6) {
                let key = user(rng.gen_range(0..100));
                if !setup
                    .new_guards
                    .contains(&(level, key.clone().into_bytes()))
                {
                    setup.new_guards.push((level, key.into_bytes()));
                }
            }
        }
        let mut number = 1;
        for level in 0..4 {
            for _ in 0..rng.gen_range(0..8) {
                let lo = rng.gen_range(0..100);
                let hi = (lo + rng.gen_range(0..15)).min(99);
                let size = rng.gen_range(200..1_200);
                setup
                    .new_files
                    .push((level, file_edit(number, &user(lo), &user(hi), size)));
                number += 1;
            }
        }
        let versions: VersionSet<FlsmLevel> = versions(&options, setup);
        let policy = FlsmPolicy::new(&options);
        let (first, admitted) = claim_until_none(&policy, &versions, seed);
        assert_eq!(first, serial_flsm_pick(&options, &versions), "seed {seed}");
        side_by_side += usize::from(admitted >= 2);
        jobs += admitted;
    }
    assert!(
        side_by_side > 100 && jobs > 400,
        "{side_by_side} shapes ran jobs side by side, {jobs} jobs"
    );
}
