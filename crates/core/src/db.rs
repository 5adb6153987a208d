//! PebblesDB: the FLSM-based key-value store, as a [`ShapePolicy`].
//!
//! The write path (WAL + memtable + level-0 flush), recovery, flush thread,
//! compaction worker pool and garbage collection all live in the shared
//! engine chassis ([`pebblesdb_engine`]) — they match the HyperLevelDB-style
//! baseline because PebblesDB was built by modifying HyperLevelDB (section
//! 4.4 of the paper). Everything below level 0 is what this file supplies:
//! levels are organised by guards, compaction fragments data into child
//! guards instead of rewriting the next level, and reads use sstable-level
//! bloom filters and seek-triggered compaction to claw back the read
//! performance the FLSM structure gives up.

use std::path::Path;
use std::sync::Arc;

use pebblesdb_common::{Result, StoreOptions, StorePreset};
use pebblesdb_engine::{CompactionJob, EngineDb, PolicyCtx, ShapePolicy, Version};
use pebblesdb_env::Env;

use crate::compaction::build_compaction_job;
use crate::guards::GuardPicker;
use crate::version::{compaction_candidates, FlsmLevel};

/// The guarded FLSM shape policy.
pub struct FlsmPolicy {
    options: StoreOptions,
    guard_picker: GuardPicker,
    label: &'static str,
}

impl FlsmPolicy {
    /// Builds the FLSM shape from `options`. Public so chassis-generic
    /// plumbing (sharding, the replication follower) can open an
    /// FLSM-shaped [`EngineDb`] directly.
    pub fn new(options: &StoreOptions) -> FlsmPolicy {
        let label = if options.max_sstables_per_guard == 1 {
            StorePreset::PebblesDb1.name()
        } else {
            StorePreset::PebblesDb.name()
        };
        FlsmPolicy {
            guard_picker: GuardPicker::new(options),
            options: options.clone(),
            label,
        }
    }

    /// The levels a seek-triggered compaction could collapse: level 0 if it
    /// holds at least two files, and every level where some guard holds two
    /// *overlapping* sstables (disjoint ones are already as collapsed as
    /// they get).
    fn collapsible_levels(v: &Version<FlsmLevel>) -> impl DoubleEndedIterator<Item = usize> + '_ {
        let deeper = 1..v.num_levels();
        (v.level0().len() >= 2)
            .then_some(0)
            .into_iter()
            .chain(deeper.filter(|level| v.run(*level).has_overlapping_guard()))
    }
}

impl ShapePolicy for FlsmPolicy {
    type Runs = FlsmLevel;
    type State = ();

    fn engine_name(&self) -> String {
        self.label.to_string()
    }

    fn seek_compaction_helps(&self, version: &Version<FlsmLevel>) -> bool {
        Self::collapsible_levels(version).next().is_some()
    }

    /// Picks the highest-priority job `ctx.claims` leaves free: a
    /// guard-component subset of a level whose hull no in-flight job holds.
    ///
    /// `seek_requested` is cleared only when a seek-triggered job is
    /// actually scheduled (or provably never will be): a size-triggered job
    /// claiming the same wakeup must not swallow the request.
    fn pick_job(&self, ctx: &mut PolicyCtx<'_, Self>) -> Option<CompactionJob> {
        // With no workers the calling thread is the pool of one: a job
        // takes every eligible component of its level.
        let split = self.options.compaction_threads.max(1);
        let version = ctx.versions.current();
        let levels = ctx.versions.levels();

        let mut seek_level = None;
        if *ctx.seek_requested {
            // A seek compaction helps most where the fattest slot is fattest
            // (the shallowest of equals; level 0 is one slot).
            let collapsible = Self::collapsible_levels(version).rev();
            seek_level = collapsible.max_by_key(|level| levels[*level].max_files_per_slot);
            // No guard holds two overlapping sstables anywhere: the request
            // can never be satisfied, so drop it instead of spinning.
            *ctx.seek_requested &= seek_level.is_some();
        }
        // Seek compactions yield to size triggers; the flag stays set until
        // the seek job itself is claimed.
        let candidates = compaction_candidates(levels, &self.options).into_iter();
        for (level, seek) in candidates
            .map(|level| (level, false))
            .chain(seek_level.map(|level| (level, true)))
        {
            let job = build_compaction_job(version, &self.options, level, seek, ctx.claims, split);
            if job.is_some() {
                *ctx.seek_requested &= !seek;
                return job;
            }
        }
        None
    }

    /// Guard selection (section 4.4): a pure hash of the key. The merge that
    /// first writes a qualifying key into a level makes it a guard there.
    fn guard_level(&self, user_key: &[u8]) -> Option<usize> {
        self.guard_picker.guard_level(user_key)
    }
}

/// A handle to an open PebblesDB database.
///
/// Everything but the guarded-FLSM policy runs in the shared engine chassis
/// ([`EngineDb`]); the LSM baseline shares the same machinery with a
/// one-implicit-guard-per-level policy.
pub struct PebblesDb {
    db: EngineDb<FlsmPolicy>,
}

impl PebblesDb {
    /// Opens (creating if necessary) a PebblesDB database at `path`.
    pub fn open(env: Arc<dyn Env>, path: &Path) -> Result<PebblesDb> {
        Self::open_with_options(env, path, StoreOptions::with_preset(StorePreset::PebblesDb))
    }

    /// Opens a database with explicit options.
    pub fn open_with_options(
        env: Arc<dyn Env>,
        path: &Path,
        options: StoreOptions,
    ) -> Result<PebblesDb> {
        let policy = FlsmPolicy::new(&options);
        Ok(PebblesDb {
            db: EngineDb::open(policy, env, path, options)?,
        })
    }

    /// Opens (creating if necessary) a sharded store of FLSM engines at
    /// `path`: `config.shards` independent [`PebblesDb`]-shaped instances in
    /// `shard-<i>/` subdirectories behind one [`Db`](pebblesdb_common::Db)
    /// facade. See [`pebblesdb_shard`] for the routing and commit protocol.
    pub fn open_sharded(
        env: Arc<dyn Env>,
        path: &Path,
        options: StoreOptions,
        config: pebblesdb_shard::ShardConfig,
    ) -> Result<pebblesdb_shard::ShardedDb<FlsmPolicy>> {
        pebblesdb_shard::ShardedDb::open_with(FlsmPolicy::new, env, path, options, config)
    }

    /// The options this database was opened with.
    pub fn options(&self) -> &StoreOptions {
        self.db.options()
    }

    /// Per-level summary string: `L0:n L1:{files}f/{guards}g ...`.
    pub fn level_summary(&self) -> String {
        format!("{:#}", self.db.levels())
    }

    /// Number of guards (including the sentinel) at each level; level 0,
    /// which has none, counts as one slot.
    pub fn guards_per_level(&self) -> Vec<usize> {
        self.db.levels().iter().map(|row| row.slots).collect()
    }

    /// Number of files at each level.
    pub fn files_per_level(&self) -> Vec<usize> {
        self.db.levels().iter().map(|row| row.files).collect()
    }

    /// Total number of guards that currently hold no sstables.
    pub fn empty_guards(&self) -> usize {
        let guarded = self.db.levels();
        guarded.iter().skip(1).map(|row| row.empty_slots).sum()
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
    pub fn engine(&self) -> &EngineDb<FlsmPolicy> {
        &self.db
    }
}

// `KvStore` and `Db` are the chassis core's derived views; column families
// are implemented once there, and the FLSM policy gives each its guard tree.
pebblesdb_common::store_views!(PebblesDb => |db| db.db.shared());

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::key::{encode_internal_key, ValueType};
    use pebblesdb_common::{KvStore, ReadOptions};
    use pebblesdb_engine::{EngineCore, FileMetaDataEdit, VersionEdit};
    use pebblesdb_env::MemEnv;
    use std::collections::BTreeSet;

    fn file_edit(number: u64, smallest: &str, largest: &str) -> FileMetaDataEdit {
        FileMetaDataEdit {
            number,
            file_size: 1000,
            smallest: encode_internal_key(smallest.as_bytes(), 9, ValueType::Value),
            largest: encode_internal_key(largest.as_bytes(), 1, ValueType::Value),
        }
    }

    type FlsmState<'a> = parking_lot::MutexGuard<'a, pebblesdb_engine::EngineState<FlsmPolicy>>;

    /// Fabricates `files` into the locked store's version so claim logic
    /// can be exercised without running real IO. The caller must hold the
    /// state lock across this call *and* its subsequent claim assertions:
    /// the store's own workers claim eagerly on wakeup, and releasing the
    /// lock between fabrication and the test's claim would let a worker
    /// race it to the job.
    fn fabricate_files(state: &mut FlsmState<'_>, files: &[(usize, &str, &str)]) {
        let cf = state.default_cf_mut();
        let mut edit = VersionEdit::default();
        for (level, smallest, largest) in files {
            let number = cf.versions.new_file_number();
            edit.new_files
                .push((*level, file_edit(number, smallest, largest)));
        }
        cf.versions.log_and_apply(edit).unwrap();
    }

    fn open_empty(options: StoreOptions) -> PebblesDb {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        PebblesDb::open_with_options(env, Path::new("/claim-test"), options).unwrap()
    }

    /// A store with no background threads: a flush and the compaction a
    /// cursor arms have run by the time the call that caused them returns.
    fn open_inline(mut options: StoreOptions) -> PebblesDb {
        options.compaction_threads = 0;
        open_empty(options)
    }

    /// Regression test: a size-triggered compaction that preempts a pending
    /// seek request must not clear `seek_requested` — the flag only
    /// falls when the seek-triggered job itself is scheduled.
    #[test]
    fn seek_flag_survives_a_preempting_size_compaction() {
        let mut options = StoreOptions::default();
        options.level0_compaction_trigger = 2;
        let db = open_empty(options);
        let inner: &Arc<EngineCore<FlsmPolicy>> = db.db.core();
        let mut state = inner.state.lock();
        // Two level-0 files arm the size trigger.
        fabricate_files(&mut state, &[(0, "a", "c"), (0, "b", "d")]);
        state.default_cf_mut().seek_requested = true;

        let claimed = inner
            .claim_job(&mut state)
            .expect("the level-0 size trigger yields a job");
        assert_eq!(claimed.job.level(), 0);
        assert!(
            state.default_cf().seek_requested,
            "seek request was swallowed by the preempting size-triggered job"
        );
        drop(state);
    }

    /// The flag falls exactly when a seek-triggered job is claimed.
    #[test]
    fn seek_flag_clears_when_the_seek_job_is_scheduled() {
        let mut options = StoreOptions::default();
        options.level0_compaction_trigger = 100; // no size triggers
        options.enable_aggressive_compaction = false;
        let db = open_empty(options);
        let inner = db.db.core();
        let mut state = inner.state.lock();
        // A level-1 guard with two overlapping sstables: under every size
        // budget, but exactly what a seek-triggered compaction wants.
        fabricate_files(&mut state, &[(1, "a", "c"), (1, "b", "d")]);
        state.default_cf_mut().seek_requested = true;

        let claimed = inner
            .claim_job(&mut state)
            .expect("the seek request yields a job");
        assert_eq!(claimed.job.level(), 1);
        assert!(!state.default_cf().seek_requested);
        drop(state);
    }

    /// An unsatisfiable seek request (no guard holds two sstables) is
    /// dropped instead of waking workers forever.
    #[test]
    fn unsatisfiable_seek_flag_is_dropped() {
        let mut options = StoreOptions::default();
        options.level0_compaction_trigger = 100;
        options.enable_aggressive_compaction = false;
        let db = open_empty(options);
        let inner = db.db.core();
        let mut state = inner.state.lock();
        fabricate_files(&mut state, &[(1, "a", "c")]);
        state.default_cf_mut().seek_requested = true;

        assert!(inner.claim_job(&mut state).is_none());
        assert!(!state.default_cf().seek_requested);
        drop(state);
    }

    fn seek_pending(db: &PebblesDb) -> bool {
        let state = db.db.core().state.lock();
        state.default_cf().seek_requested
    }

    fn open_cursor(db: &PebblesDb) {
        let mut iter = db.iter(&ReadOptions::default()).unwrap();
        iter.seek(b"key");
    }

    /// Files in the fullest slot of the tree (level 0 is one slot).
    fn fattest_guard(db: &PebblesDb) -> usize {
        let levels = db.db.levels();
        levels
            .iter()
            .map(|row| row.max_files_per_slot)
            .max()
            .unwrap()
    }

    /// Over a tree with nothing to collapse the trigger is silent: no
    /// cursor sets the flag, wakes a worker or runs a compaction, however
    /// many consecutive seeks there are.
    #[test]
    fn seek_trigger_is_silent_once_every_guard_is_collapsed() {
        let mut options = StoreOptions::default();
        options.write_buffer_size = 32 << 10;
        options.top_level_bits = 8;
        let db = open_inline(options);
        for i in 0..4000u32 {
            let key = format!("key{:06}", i.wrapping_mul(2_654_435_761) % 4000);
            db.put(key.as_bytes(), &[b'v'; 64]).unwrap();
        }
        db.flush().unwrap();
        // Read the tree to rest: the trigger collapses every overlap the
        // load left.
        let collapsible =
            |v: &Version<FlsmLevel>| FlsmPolicy::collapsible_levels(v).next().is_some();
        let mut cursors = 0;
        while db.db.with_current_version(collapsible) {
            cursors += 1;
            assert!(
                cursors < 100_000,
                "never came to rest: {}",
                db.level_summary()
            );
            open_cursor(&db);
        }
        assert!(!seek_pending(&db));

        let compactions = db.stats().compactions;
        for _ in 0..1000 {
            open_cursor(&db);
            assert!(!seek_pending(&db), "a cursor over a tree at rest armed");
        }
        assert_eq!(db.stats().compactions, compactions);
        assert!(!db.db.with_current_version(collapsible));
    }

    /// Opens a store with every size trigger off and no guards (each level is
    /// its sentinel), and stacks two sstables in the level-1 sentinel guard:
    /// two rounds of two level-0 files, each moved down by a seek-triggered
    /// level-0 compaction. Key number `n` (0..200, 100 per round) is written
    /// as `key_of(n)`, which decides whether the two sstables overlap.
    fn stack_two_files_in_level1(key_of: impl Fn(u32) -> u32) -> (PebblesDb, usize) {
        let mut options = StoreOptions::default();
        options.level0_compaction_trigger = 100;
        options.level0_stop_writes_trigger = 120;
        options.enable_aggressive_compaction = false;
        options.top_level_bits = 30; // no guards: every level is its sentinel
        let threshold = options.seek_compaction_threshold;
        let db = open_inline(options.clone());
        for round in 0..2u32 {
            for file in 0..2 {
                for i in 0..50 {
                    let key = format!("key{:06}", key_of(round * 100 + file * 50 + i));
                    db.put(key.as_bytes(), b"value").unwrap();
                }
                db.flush().unwrap();
            }
            assert_eq!(db.files_per_level()[0], 2);
            for _ in 0..threshold {
                open_cursor(&db);
            }
            let levels = db.db.levels();
            assert_eq!(levels[0].files, 0, "level-0 seek compaction");
            assert_eq!(levels[1].max_files_per_slot, round as usize + 1);
        }
        assert_eq!(fattest_guard(&db), 2);
        assert!(compaction_candidates(&db.db.levels(), &options).is_empty());
        assert!(!seek_pending(&db), "flag of the last job");
        (db, threshold)
    }

    /// With a guard holding two overlapping sstables and every size trigger
    /// off, `seek_compaction_threshold` consecutive cursors — and no fewer,
    /// and not across a write — schedule the compaction that collapses it.
    #[test]
    fn seek_trigger_collapses_a_fat_guard_after_threshold_consecutive_seeks() {
        // Both rounds interleave over the same key range.
        let (db, threshold) = stack_two_files_in_level1(|n| (n % 100) * 10 + n / 100);
        assert!(db
            .db
            .with_current_version(|v| v.run(1).has_overlapping_guard()));

        // One short of the threshold arms nothing...
        for _ in 0..threshold - 1 {
            open_cursor(&db);
            assert!(!seek_pending(&db));
        }
        // ...a write resets the count...
        db.put(b"key000000", b"value").unwrap();
        for _ in 0..threshold - 1 {
            open_cursor(&db);
            assert!(!seek_pending(&db));
        }
        assert_eq!(fattest_guard(&db), 2);
        // ...and the cursor that completes the run schedules the job.
        open_cursor(&db);
        assert_eq!(fattest_guard(&db), 1, "level-1 seek compaction");
        assert_eq!(db.files_per_level()[..3], [0, 0, 1]);
    }

    /// A write restarts the count wherever it lands in a run of cursors:
    /// the cursors after it need the whole threshold again, and the one that
    /// completes it schedules the job.
    #[test]
    fn a_write_between_cursors_restarts_the_seek_count() {
        let threshold = StoreOptions::default().seek_compaction_threshold;
        for before in 1..threshold {
            let (db, _) = stack_two_files_in_level1(|n| (n % 100) * 10 + n / 100);
            for _ in 0..before {
                open_cursor(&db);
            }
            db.put(b"key000001", b"value").unwrap();
            for _ in 0..threshold - 1 {
                open_cursor(&db);
                assert!(!seek_pending(&db), "armed across a write at {before}");
            }
            assert_eq!(fattest_guard(&db), 2, "{before}");
            open_cursor(&db);
            assert_eq!(fattest_guard(&db), 1, "{before}");
        }
    }

    /// A guard larger than `max_file_size` keeps several *disjoint*
    /// sstables; counting those as collapsible re-armed the trigger every
    /// `seek_compaction_threshold` cursors and rewrote the guard forever.
    #[test]
    fn seek_trigger_ignores_a_guard_whose_files_are_disjoint() {
        // The second round's keys all sort after the first round's.
        let (db, threshold) = stack_two_files_in_level1(|n| n);
        assert_eq!(db.db.levels()[1].max_files_per_slot, 2);
        db.db.with_current_version(|v| {
            assert!(!v.run(1).has_overlapping_guard());
            assert!(!db.db.core().policy.seek_compaction_helps(v));
        });
        let compactions = db.stats().compactions;
        for _ in 0..10 * threshold {
            open_cursor(&db);
            assert!(!seek_pending(&db), "a cursor over disjoint files armed");
        }
        assert_eq!(db.stats().compactions, compactions);
        assert_eq!(db.files_per_level()[..3], [0, 2, 0]);
    }

    /// A level's eligible guards are chunked by the pool's size, and no
    /// workers chunk like one: the calling thread takes the whole level.
    #[test]
    fn zero_workers_split_a_level_like_a_pool_of_one() {
        for (threads, inputs) in [(0, 4), (1, 4), (2, 2)] {
            let mut options = StoreOptions::default();
            options.level0_compaction_trigger = 100;
            options.enable_aggressive_compaction = false;
            options.max_sstables_per_guard = 1;
            options.compaction_threads = threads;
            let db = open_empty(options);
            let mut state = db.db.core().state.lock();
            // Two over-budget guards of level 1: the sentinel and "m".
            let mut guard = VersionEdit::default();
            guard.new_guards.push((1, b"m".to_vec()));
            state
                .default_cf_mut()
                .versions
                .log_and_apply(guard)
                .unwrap();
            fabricate_files(
                &mut state,
                &[(1, "a", "b"), (1, "c", "d"), (1, "m", "n"), (1, "o", "p")],
            );
            let claimed = db.db.core().claim_job(&mut state).expect("over budget");
            assert_eq!(claimed.job.inputs.len(), inputs, "{threads}");
            drop(state);
        }
    }

    /// Claims at the same level are disjoint, and the counters see the
    /// overlap.
    #[test]
    fn two_workers_claim_disjoint_guard_subsets() {
        let mut options = StoreOptions::default();
        options.level0_compaction_trigger = 100;
        options.enable_aggressive_compaction = false;
        options.max_sstables_per_guard = 1;
        options.compaction_threads = 2;
        let db = open_empty(options);
        let inner = db.db.core();
        let mut state = inner.state.lock();
        // Two over-budget "guards": the sentinel guard of level 1 would hold
        // all four files, so use disjoint key ranges at levels 1 and 2 to
        // model independent work.
        fabricate_files(
            &mut state,
            &[(1, "a", "b"), (1, "c", "d"), (2, "p", "q"), (2, "r", "s")],
        );

        let claim1 = inner.claim_job(&mut state).expect("first claim");
        let claim2 = inner.claim_job(&mut state).expect("second claim");
        let numbers = |job: &CompactionJob| job.inputs.iter().map(|(_, f)| f.number).collect();
        let (set1, set2): (BTreeSet<u64>, BTreeSet<u64>) =
            (numbers(&claim1.job), numbers(&claim2.job));
        assert!(set1.is_disjoint(&set2));
        assert_eq!(state.default_cf().claims.jobs(), 2);
        let counter =
            |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(counter(&inner.counters.active_compactions), 2);
        assert_eq!(counter(&inner.counters.max_concurrent_compactions), 2);
        drop(state);
    }

    /// A failed job releases its claim: the poisoned store claims nothing
    /// new, and the job beside it drains, so no sibling worker waits on a
    /// claim nobody holds.
    #[test]
    fn a_failed_job_releases_its_claim() {
        let mut options = StoreOptions::default();
        options.level0_compaction_trigger = 100;
        options.enable_aggressive_compaction = false;
        options.max_sstables_per_guard = 1;
        options.compaction_threads = 0;
        let db = open_empty(options);
        let inner = db.db.core();
        let mut state = inner.state.lock();
        // A fabricated file has no table behind it: its merge fails.
        fabricate_files(
            &mut state,
            &[(1, "a", "b"), (1, "c", "d"), (2, "p", "q"), (2, "r", "s")],
        );
        let first = inner.claim_job(&mut state).expect("first claim");
        let second = inner.claim_job(&mut state).expect("second claim");
        inner.run_claimed_job(&mut state, first);
        assert!(
            state.bg_error.is_some(),
            "the failed merge poisons the store"
        );
        assert_eq!(state.default_cf().claims.jobs(), 1);
        assert!(inner.claim_job(&mut state).is_none());
        inner.run_claimed_job(&mut state, second);
        let claims = &state.default_cf().claims;
        assert_eq!(claims.jobs(), 0);
        assert!(claims.free(1, b"a", b"d") && claims.free(2, b"p", b"s"));
        drop(state);
    }
}
