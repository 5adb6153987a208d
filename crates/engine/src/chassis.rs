//! The engine chassis: the machinery every LSM-family store shares.
//!
//! This module holds the store's *types* — [`EngineDb`] (the handle),
//! [`EngineCore`] (IO handles, policy, the mutexed [`EngineState`] and the
//! background executor) and [`CfState`] (one column family's
//! share of the state) — plus the one place the store meets its callers:
//! [`CfOps`] implemented on [`EngineShared`], stats assembly included.
//! [`EngineDb`]'s `KvStore` and `Db` and every column-family handle are views
//! `pebblesdb_common::store_views!` derives from that impl; the policy
//! crates' `PebblesDb`/`LsmDb` derive theirs from the same core, so nothing
//! forwards by hand. What the store *does* lives in one module per seam; the
//! crate docs map them.
//!
//! # Column families
//!
//! The chassis is natively multi-namespace: one [`EngineDb`] multiplexes any
//! number of column families over a **shared** WAL, group-commit queue and
//! sequence space, while each family ([`CfState`]) owns its memtable/imm
//! pair, its version set (MANIFEST) and its own policy shape state — the
//! guard tree for the FLSM, the leveled structure for the LSM. Implementing
//! the feature here means every [`ShapePolicy`] inherits it unchanged.
//!
//! * The default family (id 0) lives in the database root, so a
//!   single-namespace database has exactly the pre-column-family layout;
//!   family `n` lives in `cf-<n>/` with its own CURRENT/MANIFEST/sstables.
//! * WAL records carry a per-record family id (see [`WriteBatch`]); recovery
//!   replays each record into its family, skipping dropped families.
//! * The set of families is committed through the [`crate::catalog`] log;
//!   create/drop edits are synced before any dependent file operation, and
//!   reopen reaps the directories of dropped families (ids are never
//!   reused).
//! * Background work is shared fairly (largest immutable memtable first,
//!   hottest family first) and a WAL segment is reclaimed only once *every*
//!   family's flushed state covers it; see the `background` module.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;

use parking_lot::Mutex;

use pebblesdb_common::cf::{CfOps, CfStats, ColumnFamilyHandle};
use pebblesdb_common::commit::{CommitQueue, Numbering};
use pebblesdb_common::iterator::DbIterator;
use pebblesdb_common::key::SequenceNumber;
use pebblesdb_common::snapshot::{Snapshot, SnapshotList};
use pebblesdb_common::{
    CfId, ChangeStream, EngineCounters, Error, ReadOptions, Result, StoreOptions, StoreStats,
    WriteBatch, WriteOptions,
};
use pebblesdb_skiplist::MemTable;
use pebblesdb_sstable::TableCache;
use pebblesdb_wal::LogWriter;

use crate::catalog::{self, Catalog};
use crate::cdc::{ChangeLog, EngineChangeStream};
use crate::executor::Executor;
use crate::policy::{Claim, Claims, CompactionJob, EngineIo, ShapePolicy};
use crate::version::Version;
use crate::version_set::{version_files, LevelTable, VersionSet};
use crate::vlog::{CfVlog, VlogGcReport};

/// A handle to an open store built on the chassis.
///
/// Cloneable via `Arc`; all methods take `&self` and are safe to call from
/// multiple threads. The store (background threads included) stays alive
/// while this handle *or any [`ColumnFamilyHandle`] minted from it* exists;
/// the last one dropped shuts the store down.
pub struct EngineDb<P: ShapePolicy> {
    pub(crate) shared: Arc<EngineShared<P>>,
}

/// The keep-alive unit behind [`EngineDb`] and every column-family handle:
/// when the last owner drops, the background threads are stopped and joined
/// (see `crate::executor`).
pub struct EngineShared<P: ShapePolicy> {
    pub(crate) core: Arc<EngineCore<P>>,
}

/// The shared core of an engine: IO handles, the policy, the mutexed state
/// and the background executor.
pub struct EngineCore<P: ShapePolicy> {
    /// Environment, database root, options and the default family's cache.
    pub io: EngineIo,
    /// The shape policy (guarded FLSM or degenerate-guard LSM).
    pub policy: P,
    /// The mutex-protected engine state.
    pub state: Mutex<EngineState<P>>,
    /// Group-commit writer queue: concurrent writers enqueue batches, one
    /// leader gathers the group and performs WAL IO outside `state`.
    pub(crate) commit_queue: CommitQueue,
    /// Who runs background jobs and where their waiters park.
    pub(crate) executor: Executor,
    pub(crate) shutting_down: AtomicBool,
    /// Cursors created since the last write that counted towards the seek
    /// trigger (section 4.2 of the paper: seek-based compaction targets
    /// read-only phases); see `EngineCore::count_seek`. Relaxed: it
    /// publishes nothing, the request it fires is set under `state`.
    pub(crate) consecutive_seeks: AtomicUsize,
    /// Cumulative operation counters (shared with the vlog reader caches,
    /// which record their hit/miss traffic outside the state mutex).
    pub counters: Arc<EngineCounters>,
    /// Live snapshot pins (store-wide: sequences are shared by families).
    pub snapshots: Arc<SnapshotList>,
    /// Live cursor pins. Tracked apart from `snapshots` on purpose: a cursor
    /// pins its version, so compaction's version dedup owes it nothing and
    /// must not be held back by one (a long-lived cursor would otherwise
    /// stall compaction convergence store-wide). Only value-log reclamation
    /// consults this list — a cursor resolves pointers as it streams, so the
    /// files its view can reach must outlive it.
    pub(crate) cursor_pins: Arc<SnapshotList>,
    /// Serialises value-log GC passes: two concurrent passes over the same
    /// file would relocate the same records into the same sequence slot.
    pub(crate) vlog_gc_lock: Mutex<()>,
    /// Change-data capture: the published WAL frontier, WAL segment births
    /// and the registered stream cursors (see [`crate::cdc`]).
    pub change_log: Arc<ChangeLog>,
}

/// One column family's share of the engine state.
pub struct CfState<P: ShapePolicy> {
    /// The family's id (0 = default).
    pub id: CfId,
    /// The family's name.
    pub name: String,
    /// The family's IO handles (directory + table cache).
    pub io: EngineIo,
    /// The active memtable. Concurrent: the group-commit leader inserts via
    /// `&self` while `get` and streaming cursors read it lock-free, so the
    /// table is never cloned — when full it is frozen whole into `imm`.
    pub mem: Arc<MemTable>,
    /// The immutable memtable being flushed, if any.
    pub imm: Option<Arc<MemTable>>,
    /// The family's version set (MANIFEST machinery).
    pub versions: VersionSet<P::Runs>,
    /// The policy's own mutable state (the LSM's compaction pointers),
    /// handed to its pick as [`PolicyCtx::state`](crate::PolicyCtx::state).
    pub policy: P::State,
    /// `seek_compaction_threshold` consecutive cursors over this family
    /// asked for a seek-triggered compaction that no pick has scheduled yet.
    pub seek_requested: bool,
    /// The key ranges this family's in-flight compaction jobs hold.
    pub claims: Claims,
    /// The WAL that was live when the active memtable was created. Once
    /// `imm` flushes, every record of this family in older WALs is covered
    /// by sstables, so this is the log number a flush commit publishes.
    pub mem_log_number: u64,
    /// Whether the flush thread is writing this family's `imm` right now.
    pub flush_running: bool,
    /// Completed memtable flushes of this family.
    pub flushes: u64,
    /// Set by `drop_cf`: no new flushes or claims; the family is removed
    /// once its in-flight work drains and the catalog edit commits.
    pub dropping: bool,
    /// The family's value-log registry (key-value separation).
    pub vlog: CfVlog,
}

impl<P: ShapePolicy> CfState<P> {
    /// Opens family `id`'s share of the store under the database `root`: its
    /// directory, version set, table cache and value-log registry, with an
    /// empty memtable. A directory without a CURRENT is either a fresh family
    /// or one whose create edit committed but whose directory was never
    /// initialised (crash between the two); both start empty.
    pub(crate) fn open(
        env: &Arc<dyn pebblesdb_env::Env>,
        root: &Path,
        id: CfId,
        name: &str,
        options: &StoreOptions,
    ) -> Result<CfState<P>> {
        let dir = catalog::cf_dir(root, id);
        env.create_dir_all(&dir)?;
        let versions = VersionSet::open(Arc::clone(env), dir.clone(), options.clone())?;
        let table_cache = TableCache::new(
            Arc::clone(env),
            dir.clone(),
            options.clone(),
            options.max_open_files,
        );
        // Vlog files are registered by directory listing, not in the
        // MANIFEST; their numbers must be re-marked used so a new file never
        // collides with a recovered one.
        let vlog = CfVlog::recover(env, &dir, &options.counters)?;
        for number in vlog.sealed.keys() {
            versions.mark_file_number_used(*number);
        }
        Ok(CfState {
            id,
            name: name.to_string(),
            io: EngineIo {
                env: Arc::clone(env),
                db_path: dir,
                options: options.clone(),
                table_cache: Arc::new(table_cache),
                file_numbers: versions.file_numbers().clone(),
            },
            mem: Arc::new(MemTable::new()),
            imm: None,
            versions,
            policy: P::State::default(),
            seek_requested: false,
            claims: Claims::default(),
            mem_log_number: 0,
            flush_running: false,
            flushes: 0,
            dropping: false,
            vlog,
        })
    }

    /// Declares WAL `log_number` the oldest one the family's (empty)
    /// memtables can hold records in, and publishes that as its recovery
    /// floor — one synced MANIFEST edit.
    pub(crate) fn start_on_log(
        &mut self,
        last_sequence: SequenceNumber,
        log_number: u64,
    ) -> Result<()> {
        self.versions.set_last_sequence(last_sequence);
        self.versions.commit_level0(None, Some(log_number))?;
        self.mem_log_number = log_number;
        Ok(())
    }

    /// Bytes held by the family's active and immutable memtables.
    fn memtable_bytes(&self) -> usize {
        self.mem.approximate_memory_usage()
            + self
                .imm
                .as_ref()
                .map_or(0, |imm| imm.approximate_memory_usage())
    }
}

/// The mutable engine state, shared by writers and the background threads.
pub struct EngineState<P: ShapePolicy> {
    /// The live column families by id. Id 0 (the default) always exists.
    pub cfs: BTreeMap<CfId, CfState<P>>,
    /// Sequence number of the most recent committed write — shared by every
    /// family, so snapshots are consistent across namespaces. Mirrored into
    /// each family's version set right before its MANIFEST commits.
    pub last_sequence: SequenceNumber,
    /// The next column-family id to allocate; never reused after a drop.
    pub next_cf_id: CfId,
    /// The catalog, open for appends: from this session's first create or
    /// drop until an append fails (the next edit rewrites and reopens it).
    pub catalog: Option<Catalog>,
    /// The live write-ahead log, shared by every family.
    pub log: Option<LogWriter>,
    /// The live WAL's file number.
    pub log_file_number: u64,
    /// WAL segments the change log has let go of whose delete failed; the
    /// next GC pass retries them.
    pub obsolete_wals: Vec<u64>,
    /// Set when a memtable rotation created a fresh WAL whose directory
    /// entry has not been fsynced yet. The next group-commit leader syncs
    /// the directory in its *unlocked* IO section before acknowledging any
    /// write against the new log — a directory fsync under the state mutex
    /// would stall every reader for its duration.
    pub wal_dir_unsynced: bool,
    /// First background error; poisons the store.
    pub bg_error: Option<Error>,
}

impl<P: ShapePolicy> EngineState<P> {
    /// The state of family `id`, if it is live.
    pub fn cf(&self, id: CfId) -> Option<&CfState<P>> {
        self.cfs.get(&id)
    }

    /// Mutable state of family `id`, if it is live.
    pub fn cf_mut(&mut self, id: CfId) -> Option<&mut CfState<P>> {
        self.cfs.get_mut(&id)
    }

    /// The always-present default family.
    pub fn default_cf(&self) -> &CfState<P> {
        self.cfs.get(&0).expect("default family always exists")
    }

    /// The always-present default family, mutably.
    pub fn default_cf_mut(&mut self) -> &mut CfState<P> {
        self.cfs.get_mut(&0).expect("default family always exists")
    }

    /// The families a statistics `scope` covers: one, or all of them.
    fn cfs_in(&self, scope: Option<CfId>) -> impl Iterator<Item = &CfState<P>> {
        let covered = move |cf: &&CfState<P>| scope.is_none_or(|id| id == cf.id);
        self.cfs.values().filter(covered)
    }

    /// The id of the live family called `name`.
    pub(crate) fn cf_named(&self, name: &str) -> Option<CfId> {
        self.cfs.values().find(|cf| cf.name == name).map(|cf| cf.id)
    }

    /// Family `id`, which a running flush or compaction job of its own pins
    /// in the live set (`drop_cf` waits such jobs out).
    pub(crate) fn job_cf(&mut self, id: CfId) -> &mut CfState<P> {
        self.cfs
            .get_mut(&id)
            .expect("a family with a job in flight cannot be dropped")
    }

    /// Fails with the poisoning error once the store has one.
    pub(crate) fn healthy(&self) -> Result<()> {
        self.bg_error.clone().map_or(Ok(()), Err)
    }

    /// Family `id`, or the error a request addressed at a dropped one gets.
    pub(crate) fn live_cf(&self, id: CfId) -> Result<&CfState<P>> {
        self.cf(id).ok_or_else(|| {
            Error::invalid_argument(format!("column family {id} does not exist (dropped?)"))
        })
    }

    /// Poisons the store — the first background error wins and every later
    /// write fails with it — and hands `err` back for the caller to return.
    /// A failed flush, compaction commit or WAL/vlog append may have lost
    /// bytes an acknowledged writer relies on; like LevelDB, stop there.
    pub(crate) fn poison(&mut self, err: Error) -> Error {
        if self.bg_error.is_none() {
            self.bg_error = Some(err.clone());
        }
        err
    }
}

/// A compaction job claimed for one column family.
pub struct ClaimedJob {
    /// The family the job belongs to.
    pub cf: CfId,
    /// What the policy picked.
    pub job: CompactionJob,
    /// The key ranges the job holds until it commits or fails.
    pub(crate) claim: Claim,
}

impl<P: ShapePolicy> EngineDb<P> {
    /// The options this store was opened with.
    pub fn options(&self) -> &StoreOptions {
        &self.shared.core.io.options
    }

    /// The shared core (exposed for policy-specific accessors and tests).
    pub fn core(&self) -> &Arc<EngineCore<P>> {
        &self.shared.core
    }

    /// Runs `f` against the default family's current version under the
    /// state lock.
    pub fn with_current_version<T>(&self, f: impl FnOnce(&Version<P::Runs>) -> T) -> T {
        let state = self.shared.core.state.lock();
        f(state.default_cf().versions.current())
    }

    /// The per-level table of the default family's current version (the
    /// rows cached at its install; nothing is walked under the state lock).
    pub fn levels(&self) -> LevelTable {
        let state = self.shared.core.state.lock();
        state.default_cf().versions.levels().clone()
    }

    /// Writes a batch whose sequence numbers were already assigned by an
    /// external allocator (see [`Numbering::Presequenced`]). Used by the
    /// sharded coordinator, which owns the global sequence space.
    pub fn write_presequenced(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        self.shared.core.write(batch, opts, Numbering::Presequenced)
    }

    /// The sequence number of the most recent committed write.
    pub fn last_sequence(&self) -> SequenceNumber {
        self.shared.committed_sequence()
    }

    /// Runs one value-log garbage-collection pass (see
    /// [`EngineCore::vlog_gc`]) and reports what it did.
    pub fn vlog_gc(&self) -> Result<VlogGcReport> {
        self.shared.core.vlog_gc()
    }

    /// The store's [`CfOps`] core: what the `KvStore`/`Db` views and every
    /// column-family handle run against, and what composite stores route
    /// per-family operations to.
    pub fn shared(&self) -> &Arc<EngineShared<P>> {
        &self.shared
    }

    /// Creates (or idempotently confirms) a column family under an explicit
    /// id. Replication mirrors the leader's catalog onto the follower, and
    /// WAL records route by id, so the ids must match exactly; `create_cf`'s
    /// own allocation cannot guarantee that.
    pub fn create_cf_with_id(&self, id: CfId, name: &str) -> Result<ColumnFamilyHandle> {
        let id = self.shared.core.create_cf(name, Some(id))?;
        Ok(ColumnFamilyHandle::new(self.shared.clone(), id, name))
    }

    /// Opens a cursor over the store's committed batches starting at
    /// `from_seq` (clamped to 1 — sequence 0 predates every write). Fails
    /// with `SequenceTruncated` when that history is already reclaimed.
    pub fn change_stream(&self, from_seq: SequenceNumber) -> Result<EngineChangeStream<P>> {
        EngineChangeStream::open(Arc::clone(&self.shared), from_seq)
    }
}

// The one primitive surface of a chassis store. `ColumnFamilyHandle`s hold
// the `EngineShared` behind this trait, keeping the store (and its background
// threads) alive for as long as any handle exists.
impl<P: ShapePolicy> CfOps for EngineShared<P> {
    fn write(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        self.core.write(batch, opts, Numbering::Engine)
    }

    fn get(&self, cf: CfId, opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.core.get(cf, opts, key)
    }

    fn iter(&self, cf: CfId, opts: &ReadOptions) -> Result<Box<dyn DbIterator>> {
        self.core.iter(cf, opts)
    }

    fn snapshot(&self) -> Snapshot {
        self.core.snapshot()
    }

    fn flush(&self) -> Result<()> {
        self.core.flush()
    }

    /// Operation counters and device IO are store-wide whatever the scope.
    fn stats(&self, scope: Option<CfId>) -> StoreStats {
        let core = &self.core;
        let io = core.io.env.io_stats().snapshot();
        let state = core.state.lock();
        // The counter rows come from the sink; what is filled in here is
        // what a snapshot computes. A primary has no replication lag: the
        // follower store sets the two replica rows itself.
        let mut stats = StoreStats {
            bytes_written: io.bytes_written,
            bytes_read: io.bytes_read,
            num_column_families: state.cfs.len() as u64,
            num_shards: 1,
            cdc_streams_active: core.change_log.streams_active(),
            ..Default::default()
        };
        core.counters.snapshot_into(&mut stats);
        for cf in state.cfs_in(scope) {
            let levels = cf.versions.levels();
            stats.disk_bytes_live += levels.total_bytes();
            stats.num_files += levels.num_files() as u64;
            stats.memory_usage_bytes +=
                (cf.memtable_bytes() + cf.io.table_cache.memory_usage()) as u64;
            let (hits, misses) = cf.io.table_cache.block_cache_hit_miss();
            stats.block_cache_hits += hits;
            stats.block_cache_misses += misses;
            let (hits, misses) = cf.io.table_cache.table_cache_hit_miss();
            stats.table_cache_hits += hits;
            stats.table_cache_misses += misses;
        }
        stats
    }

    fn live_file_sizes(&self, scope: Option<CfId>) -> Vec<u64> {
        let state = self.core.state.lock();
        let cfs = state.cfs_in(scope);
        cfs.flat_map(|cf| version_files(&**cf.versions.current()).map(|f| f.file_size))
            .collect()
    }

    fn engine_name(&self) -> String {
        self.core.policy.engine_name()
    }

    fn create_cf(&self, name: &str) -> Result<CfId> {
        self.core.create_cf(name, None)
    }

    fn drop_cf(&self, name: &str) -> Result<()> {
        self.core.drop_cf(name)
    }

    fn list_cfs(&self) -> Vec<(CfId, String)> {
        let state = self.core.state.lock();
        let cfs = state.cfs.values();
        cfs.map(|cf| (cf.id, cf.name.clone())).collect()
    }

    fn cf_stats(&self) -> Vec<CfStats> {
        let state = self.core.state.lock();
        let stats = |cf: &CfState<P>| CfStats {
            id: cf.id,
            name: cf.name.clone(),
            num_files: cf.versions.levels().num_files() as u64,
            live_bytes: cf.versions.levels().total_bytes(),
            flushes: cf.flushes,
            memtable_bytes: cf.memtable_bytes() as u64,
        };
        state.cfs.values().map(stats).collect()
    }

    fn stream(self: Arc<Self>, from_seq: SequenceNumber) -> Result<Box<dyn ChangeStream>> {
        Ok(Box::new(EngineChangeStream::open(self, from_seq)?))
    }

    fn committed_sequence(&self) -> SequenceNumber {
        self.core.state.lock().last_sequence
    }
}

// `KvStore` (the default family) and `Db` (catalog + handles), derived.
pebblesdb_common::store_views!(EngineDb<P> where P: ShapePolicy => |db| &db.shared);
