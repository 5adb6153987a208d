//! `pebblesdb-shard`: horizontal write scaling inside one process.
//!
//! Every plain engine funnels all writers through one WAL, one commit queue
//! and one flush thread. [`ShardedDb`] lifts that ceiling by partitioning
//! the keyspace across N independent [`EngineDb`] instances (`shard-<i>/`
//! subdirectories), each owning its own WAL, group-commit queue, flush
//! thread and compaction pool — writers on different shards never contend
//! on a mutex or serialize through one WAL leader.
//!
//! # The global sequence and two-phase publish
//!
//! Snapshots must still be one number that is consistent across shards, so
//! the coordinator owns the sequence space: an atomic allocator hands each
//! write a contiguous range, sub-batches are written *pre-sequenced* into
//! their shards ([`EngineDb::write_presequenced`]), and the range only
//! becomes readable when it is **published** to the visibility watermark.
//! The watermark advances in allocation order (out-of-order completions
//! wait in a pending set), so a reader pinning the watermark observes every
//! batch entirely or not at all:
//!
//! * single-shard batches (the common case — and all point writes) skip the
//!   coordination entirely: allocate, stage on the one shard, publish;
//! * cross-shard batches first append the whole batch to a coordinator
//!   journal (`journal-*.log` in the store root), then stage every
//!   sub-batch, then publish. A crash between staging and publish is rolled
//!   *forward* on reopen by replaying the journal with the same
//!   deterministic sequence-slice assignment — re-staged records are
//!   idempotent (same key, same sequence). A mid-stream staging *error*
//!   poisons the store and freezes the watermark, so the half-staged batch
//!   stays unreadable until a reopen completes it.
//!
//! Reads route point gets to the owning shard; cursors merge one per-shard
//! cursor each, all pinned at a single watermark sequence (the chassis'
//! `MergingIterator` in bytewise user-key order). Column-family operations are mirrored to every
//! shard in shard order (ids stay identical), and a batch's records keep
//! their per-record family routing when the batch is split.
//!
//! # One operation surface
//!
//! The coordinator (`ShardedCore`) implements `CfOps` once — routing on top
//! of each shard's own `CfOps` core ([`EngineDb::shared`]) — and
//! [`ShardedDb`]'s `KvStore`, `Db` and column-family handles are the views
//! `pebblesdb_common::store_views!` derives from it. `put`/`delete` arrive
//! as one-record batches; a batch whose records all route to one shard is
//! staged whole, so they take the no-journal path above.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use pebblesdb_common::cf::{CfOps, CfStats, Db};
use pebblesdb_common::iterator::{BytewiseOrder, DbIterator, MergingIterator};
use pebblesdb_common::key::{SequenceNumber, ValueType};
use pebblesdb_common::snapshot::{Snapshot, SnapshotList};
use pebblesdb_common::{
    CfId, Error, KvStore, ReadOptions, Result, StoreOptions, StoreStats, WriteBatch, WriteOptions,
};
use pebblesdb_engine::chassis::EngineDb;
use pebblesdb_engine::policy::ShapePolicy;
use pebblesdb_wal::{LogWriter, Replay, Tail};

mod merge;
mod partition;

pub use partition::{HashPartitioner, Partitioner, PartitionerKind, RangePartitioner};

/// The metadata file naming the shard count and partitioner, written once at
/// creation; reopening with a different topology is refused.
const SHARDS_META: &str = "shards.meta";

/// Upper bound on the shard count — far above any sensible configuration,
/// it only guards against a typo'd `--shards` allocating thousands of
/// engines (each costs a WAL, a flush thread and a compaction pool).
const MAX_SHARDS: usize = 64;

/// Topology of a [`ShardedDb`]: fixed at creation, checked on reopen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of independent engine instances (1..=64).
    pub shards: usize,
    /// How keys route to shards.
    pub partitioner: PartitionerKind,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 4,
            partitioner: PartitionerKind::Hash,
        }
    }
}

fn missing_cf_error(cf: CfId) -> Error {
    Error::invalid_argument(format!("column family {cf} does not exist (dropped?)"))
}

// ---------------------------------------------------------------------------
// shards.meta
// ---------------------------------------------------------------------------

fn write_meta(env: &dyn pebblesdb_env::Env, path: &Path, config: &ShardConfig) -> Result<()> {
    let text = format!(
        "shards={}\npartitioner={}\n",
        config.shards,
        config.partitioner.name()
    );
    env.write_string_to_file_sync(&path.join(SHARDS_META), text.as_bytes())?;
    env.sync_dir(path)
}

fn read_meta(env: &dyn pebblesdb_env::Env, path: &Path) -> Result<Option<ShardConfig>> {
    let meta = path.join(SHARDS_META);
    if !env.file_exists(&meta) {
        return Ok(None);
    }
    let data = env.read_file_to_vec(&meta)?;
    let text = String::from_utf8(data)
        .map_err(|_| Error::corruption(format!("{SHARDS_META} is not UTF-8")))?;
    let mut shards: Option<usize> = None;
    let mut partitioner: Option<PartitionerKind> = None;
    for line in text.lines() {
        match line.split_once('=') {
            Some(("shards", value)) => {
                shards = Some(value.parse().map_err(|_| {
                    Error::corruption(format!("bad shard count {value:?} in {SHARDS_META}"))
                })?);
            }
            Some(("partitioner", value)) => partitioner = Some(PartitionerKind::parse(value)?),
            _ => {}
        }
    }
    match (shards, partitioner) {
        (Some(shards), Some(partitioner)) => Ok(Some(ShardConfig {
            shards,
            partitioner,
        })),
        _ => Err(Error::corruption(format!("incomplete {SHARDS_META}"))),
    }
}

// ---------------------------------------------------------------------------
// The visibility watermark
// ---------------------------------------------------------------------------

/// Tracks which prefix of the allocated sequence space is readable.
///
/// Ranges are allocated contiguously but complete out of order; a completed
/// range waits in `pending` until everything before it has published, so
/// `visible` only ever advances over fully staged batches.
struct SequenceFrontier {
    /// The highest sequence every reader may observe.
    visible: SequenceNumber,
    /// Completed ranges (start -> end) waiting on an earlier range.
    pending: BTreeMap<SequenceNumber, SequenceNumber>,
}

impl SequenceFrontier {
    fn publish(&mut self, start: SequenceNumber, end: SequenceNumber) {
        self.pending.insert(start, end);
        while let Some((&start, &end)) = self.pending.iter().next() {
            if start != self.visible + 1 {
                break;
            }
            self.visible = end;
            self.pending.remove(&start);
        }
    }
}

// ---------------------------------------------------------------------------
// The cross-shard coordinator journal
// ---------------------------------------------------------------------------

fn journal_file_name(root: &Path, number: u64) -> PathBuf {
    root.join(format!("journal-{number:06}.log"))
}

fn parse_journal_name(name: &str) -> Option<u64> {
    name.strip_prefix("journal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// The write-ahead record of cross-shard batches. A batch is journaled
/// (with its global base sequence) *before* any shard stages it, so the
/// all-or-nothing guarantee survives a crash mid-staging: reopen replays
/// the journal into every shard with the same deterministic sequence
/// assignment. Rotated (and its files deleted) once a full flush has moved
/// every journaled record into shard sstables.
struct Journal {
    env: Arc<dyn pebblesdb_env::Env>,
    root: PathBuf,
    writer: Option<LogWriter>,
    number: u64,
}

impl Journal {
    fn create(env: Arc<dyn pebblesdb_env::Env>, root: PathBuf, number: u64) -> Result<Journal> {
        let file = env.new_writable_file(&journal_file_name(&root, number))?;
        env.sync_dir(&root)?;
        Ok(Journal {
            env,
            root,
            writer: Some(LogWriter::new(file)),
            number,
        })
    }

    fn append(&mut self, record: &[u8]) -> Result<()> {
        let writer = self
            .writer
            .as_mut()
            .ok_or_else(|| Error::internal("coordinator journal is closed"))?;
        writer.add_record(record)?;
        writer.flush()
    }

    fn sync(&mut self) -> Result<()> {
        self.writer
            .as_mut()
            .ok_or_else(|| Error::internal("coordinator journal is closed"))?
            .sync()
    }

    /// Deletes every journal file and starts a fresh one. Callers must have
    /// flushed all shards first (the journaled records are then covered by
    /// sstables).
    fn rotate(&mut self) -> Result<()> {
        self.writer = None;
        for name in self.env.children(&self.root)? {
            if parse_journal_name(&name).is_some() {
                self.env.remove_file(&self.root.join(&name))?;
            }
        }
        self.number += 1;
        let file = self
            .env
            .new_writable_file(&journal_file_name(&self.root, self.number))?;
        self.writer = Some(LogWriter::new(file));
        self.env.sync_dir(&self.root)
    }
}

/// Replays (then deletes) every coordinator journal at open: each record is
/// a full cross-shard batch that may have staged on only some shards before
/// a crash. Re-splitting with the same partitioner and the same shard-order
/// slice assignment reproduces the exact (key, sequence) pairs, so replay
/// is idempotent on shards that already hold the data. Records addressed at
/// families dropped since are skipped (their sequence slots stay consumed).
fn replay_journals<P: ShapePolicy>(
    env: &Arc<dyn pebblesdb_env::Env>,
    root: &Path,
    shards: &[EngineDb<P>],
    partitioner: &dyn Partitioner,
    live_cfs: &BTreeSet<CfId>,
) -> Result<()> {
    let mut files: Vec<(u64, String)> = env
        .children(root)?
        .into_iter()
        .filter_map(|name| parse_journal_name(&name).map(|number| (number, name)))
        .collect();
    files.sort();
    let durable = WriteOptions { sync: true };
    for (_, name) in &files {
        let file = env.new_sequential_file(&root.join(name))?;
        let mut replay = Replay::<WriteBatch>::new(file, Tail::Torn);
        while let Some(batch) = replay.next_record()? {
            let base = batch.sequence();
            // Rebuild the per-shard record lists in record order.
            type ShardRecords = Vec<(CfId, ValueType, Vec<u8>, Vec<u8>)>;
            let mut per_shard: Vec<ShardRecords> = vec![Vec::new(); shards.len()];
            for item in batch.iter() {
                let item = item?;
                per_shard[partitioner.shard_of(item.key, shards.len())].push((
                    item.cf,
                    item.value_type,
                    item.key.to_vec(),
                    item.value.to_vec(),
                ));
            }
            // Stage each shard's slice. Skipped (dropped-family) records
            // still consume their sequence slots, so surviving records keep
            // the sequences the original staging assigned them; a skip
            // splits the slice into separately sequenced runs.
            let mut slice_start = base;
            for (index, records) in per_shard.iter().enumerate() {
                let mut run: Option<(SequenceNumber, WriteBatch)> = None;
                for (offset, (cf, value_type, key, value)) in records.iter().enumerate() {
                    if !live_cfs.contains(cf) {
                        if let Some((seq, mut sub)) = run.take() {
                            sub.set_sequence(seq);
                            shards[index].write_presequenced(&durable, sub)?;
                        }
                        continue;
                    }
                    let (_, sub) =
                        run.get_or_insert_with(|| (slice_start + offset as u64, WriteBatch::new()));
                    match value_type {
                        ValueType::Value => sub.put_cf(*cf, key, value),
                        ValueType::Deletion => sub.delete_cf(*cf, key),
                        // The coordinator journal holds user batches as
                        // submitted; value separation happens inside each
                        // engine's commit, after this replay hand-off.
                        ValueType::ValuePointer => {
                            return Err(Error::corruption("value pointer in coordinator journal"));
                        }
                    }
                }
                if let Some((seq, mut sub)) = run.take() {
                    sub.set_sequence(seq);
                    shards[index].write_presequenced(&durable, sub)?;
                }
                slice_start += records.len() as u64;
            }
        }
        env.remove_file(&root.join(name))?;
    }
    if !files.is_empty() {
        env.sync_dir(root)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The sharded core
// ---------------------------------------------------------------------------

/// The shared state behind a [`ShardedDb`] and its column-family handles.
struct ShardedCore<P: ShapePolicy> {
    shards: Vec<EngineDb<P>>,
    partitioner: Box<dyn Partitioner>,
    config: ShardConfig,
    /// The next global sequence to hand out (ranges are contiguous).
    next_seq: AtomicU64,
    /// The visibility watermark (see [`SequenceFrontier`]).
    frontier: Mutex<SequenceFrontier>,
    /// The cross-shard journal; its lock also serializes cross-shard
    /// writers and keeps rotation out of a staging window. Single-shard
    /// writes never touch it.
    journal: Mutex<Journal>,
    /// Live families (id -> name), mirrored on every shard; doubles as the
    /// create/drop serialization lock.
    cfs: Mutex<BTreeMap<CfId, String>>,
    /// Pins of composite snapshots (each also pins every shard's list).
    snapshots: Arc<SnapshotList>,
    /// First coordinator-level failure (a partially staged cross-shard
    /// batch); poisons the store like an engine's background error.
    bg_error: Mutex<Option<Error>>,
}

impl<P: ShapePolicy> ShardedCore<P> {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn watermark(&self) -> SequenceNumber {
        self.frontier.lock().visible
    }

    fn publish(&self, start: SequenceNumber, end: SequenceNumber) {
        self.frontier.lock().publish(start, end);
    }

    fn alloc(&self, count: u64) -> SequenceNumber {
        self.next_seq.fetch_add(count, Ordering::Relaxed)
    }

    fn check_poisoned(&self) -> Result<()> {
        match &*self.bg_error.lock() {
            Some(err) => Err(err.clone()),
            None => Ok(()),
        }
    }

    fn poison(&self, err: &Error) {
        let mut slot = self.bg_error.lock();
        if slot.is_none() {
            *slot = Some(err.clone());
        }
    }

    /// Read options pinned at an explicit sequence: the caller's snapshot,
    /// or the current watermark — never a shard's own `last_sequence`,
    /// which may already include staged-but-unpublished records.
    fn pin_read(&self, opts: &ReadOptions) -> ReadOptions {
        let mut pinned = opts.clone();
        pinned.snapshot = Some(opts.snapshot.unwrap_or_else(|| self.watermark()));
        pinned
    }

    // ------------------------------------------------------------- writes

    /// Stages a batch that touches exactly one shard: allocate, stage,
    /// publish — no journal, no coordination with other writers.
    fn write_single(&self, shard: usize, opts: &WriteOptions, mut batch: WriteBatch) -> Result<()> {
        self.check_poisoned()?;
        let count = u64::from(batch.count());
        let base = self.alloc(count);
        batch.set_sequence(base);
        let result = self.shards[shard].write_presequenced(opts, batch);
        // Publish even on error: the engine's group commit is atomic, so a
        // failed sub-write applied nothing and the range is simply empty.
        // Holding it back would stall the watermark for every later writer.
        self.publish(base, base + count - 1);
        result
    }

    /// Commits a batch spanning several shards: journal, stage every
    /// sub-batch, publish. The journal lock is held across all three so
    /// rotation never races a staging window; only cross-shard writers pay
    /// for that serialization.
    fn write_multi(
        &self,
        opts: &WriteOptions,
        mut batch: WriteBatch,
        mut subs: Vec<WriteBatch>,
    ) -> Result<()> {
        let mut journal = self.journal.lock();
        self.check_poisoned()?;
        let count = u64::from(batch.count());
        let base = self.alloc(count);
        batch.set_sequence(base);

        // Journal first: once any shard stages, the record must already be
        // on its way to disk so a crash rolls the batch forward, never into
        // a half-applied state. Sync writers get the journal fsynced before
        // the first shard is touched.
        let journaled = journal.append(batch.contents()).and_then(|()| {
            if opts.sync {
                journal.sync()
            } else {
                Ok(())
            }
        });
        if let Err(err) = journaled {
            self.poison(&err);
            // Nothing staged: the range is empty, publishing it keeps the
            // watermark moving for writers that raced this failure.
            self.publish(base, base + count - 1);
            return Err(err);
        }

        // Hand each shard its contiguous slice of the range, in shard
        // order — the same deterministic assignment replay reproduces.
        let mut next = base;
        for sub in &mut subs {
            if sub.is_empty() {
                continue;
            }
            sub.set_sequence(next);
            next += u64::from(sub.count());
        }
        for (index, sub) in subs.into_iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            if let Err(err) = self.shards[index].write_presequenced(opts, sub) {
                // Partially staged: the range must never publish (a
                // snapshot would see half a batch). Freeze the watermark
                // and poison the store; reopen completes the batch from
                // the journal.
                self.poison(&err);
                return Err(err);
            }
        }
        self.publish(base, base + count - 1);
        Ok(())
    }
}

impl<P: ShapePolicy> CfOps for ShardedCore<P> {
    /// Routes a batch's records to their shards and commits it atomically.
    fn write(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        let shard_count = self.shard_count();
        let mut home: Option<usize> = None;
        let mut spans_shards = false;
        {
            let cfs = self.cfs.lock();
            for record in batch.iter() {
                let record = record?;
                if !cfs.contains_key(&record.cf) {
                    return Err(missing_cf_error(record.cf));
                }
                // Pointers are an engine-internal representation; a user
                // batch never carries one.
                if record.value_type == ValueType::ValuePointer {
                    return Err(Error::invalid_argument(
                        "value pointers cannot be written directly",
                    ));
                }
                let shard = self.partitioner.shard_of(record.key, shard_count);
                spans_shards |= *home.get_or_insert(shard) != shard;
            }
        }
        let Some(home) = home else {
            return Ok(()); // An empty batch.
        };
        // Every point write, and any batch that happens to live on one
        // shard, is staged as it came: no split, no journal.
        if !spans_shards {
            return self.write_single(home, opts, batch);
        }
        let mut subs: Vec<WriteBatch> = (0..shard_count).map(|_| WriteBatch::new()).collect();
        for record in batch.iter() {
            let record = record?;
            let sub = &mut subs[self.partitioner.shard_of(record.key, shard_count)];
            match record.value_type {
                ValueType::Deletion => sub.delete_cf(record.cf, record.key),
                // Pointer records were rejected above.
                _ => sub.put_cf(record.cf, record.key, record.value),
            }
        }
        self.write_multi(opts, batch, subs)
    }

    fn get(&self, cf: CfId, opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let shard = self.partitioner.shard_of(key, self.shard_count());
        self.shards[shard]
            .shared()
            .get(cf, &self.pin_read(opts), key)
    }

    fn iter(&self, cf: CfId, opts: &ReadOptions) -> Result<Box<dyn DbIterator>> {
        let pinned = self.pin_read(opts);
        let mut children = Vec::with_capacity(self.shard_count());
        for shard in &self.shards {
            children.push(shard.shared().iter(cf, &pinned)?);
        }
        Ok(Box::new(MergingIterator::<BytewiseOrder>::with_order(
            children,
        )))
    }

    fn snapshot(&self) -> Snapshot {
        let sequence = self.watermark();
        let children: Vec<Snapshot> = self
            .shards
            .iter()
            .map(|shard| shard.core().snapshots.acquire(sequence))
            .collect();
        self.snapshots.acquire(sequence).with_children(children)
    }

    fn flush(&self) -> Result<()> {
        // Under the journal lock no cross-shard batch can be mid-staging;
        // after every shard flushes, all journaled records live in
        // sstables and the journal files can go.
        let mut journal = self.journal.lock();
        for shard in &self.shards {
            shard.flush()?;
        }
        journal.rotate()
    }

    /// Per-shard snapshots folded into one, each row by its table's merge
    /// rule.
    fn stats(&self, scope: Option<CfId>) -> StoreStats {
        let per_shard = self.shards.iter().map(|shard| shard.shared().stats(scope));
        per_shard.fold(StoreStats::default(), |mut total, stats| {
            total.merge(&stats);
            total
        })
    }

    fn live_file_sizes(&self, scope: Option<CfId>) -> Vec<u64> {
        let shards = self.shards.iter();
        shards
            .flat_map(|shard| shard.shared().live_file_sizes(scope))
            .collect()
    }

    fn engine_name(&self) -> String {
        format!(
            "{}[{} shards]",
            self.shards[0].engine_name(),
            self.shard_count()
        )
    }

    fn create_cf(&self, name: &str) -> Result<CfId> {
        let mut cfs = self.cfs.lock();
        if cfs.values().any(|existing| existing == name) {
            return Err(Error::invalid_argument(format!(
                "column family {name:?} already exists"
            )));
        }
        // Mirror to every shard in shard order; ids stay identical because
        // every shard has seen the same creation history.
        let mut id: Option<CfId> = None;
        for (index, shard) in self.shards.iter().enumerate() {
            let shard_id = shard.shared().create_cf(name)?;
            let expected = *id.get_or_insert(shard_id);
            if shard_id != expected {
                return Err(Error::corruption(format!(
                    "family {name:?} got id {shard_id} on shard {index}, expected {expected}"
                )));
            }
        }
        let id = id.expect("at least one shard");
        cfs.insert(id, name.to_string());
        Ok(id)
    }

    fn drop_cf(&self, name: &str) -> Result<()> {
        let mut cfs = self.cfs.lock();
        let id = cfs
            .iter()
            .find(|(_, existing)| existing.as_str() == name)
            .map(|(id, _)| *id)
            .ok_or_else(|| Error::invalid_argument(format!("no column family {name:?}")))?;
        for shard in &self.shards {
            shard.drop_cf(name)?;
        }
        cfs.remove(&id);
        Ok(())
    }

    fn list_cfs(&self) -> Vec<(CfId, String)> {
        let cfs = self.cfs.lock();
        cfs.iter().map(|(id, name)| (*id, name.clone())).collect()
    }

    fn cf_stats(&self) -> Vec<CfStats> {
        // Merge each family's figures across shards, keyed by id.
        let mut merged: BTreeMap<CfId, CfStats> = BTreeMap::new();
        for shard in &self.shards {
            for stats in shard.cf_stats() {
                merged
                    .entry(stats.id)
                    .and_modify(|total| total.merge(&stats))
                    .or_insert(stats);
            }
        }
        merged.into_values().collect()
    }

    /// The visibility watermark: the sequence a fresh snapshot pins.
    fn committed_sequence(&self) -> SequenceNumber {
        self.watermark()
    }

    fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards.iter().map(|shard| shard.stats()).collect()
    }
}

// ---------------------------------------------------------------------------
// The public handle
// ---------------------------------------------------------------------------

/// A [`Db`] hash- or range-partitioned across N independent engine
/// instances. See the crate docs for the commit protocol.
pub struct ShardedDb<P: ShapePolicy> {
    core: Arc<ShardedCore<P>>,
}

impl<P: ShapePolicy> ShardedDb<P> {
    /// Opens (creating if necessary) a sharded store at `path`, building
    /// each shard's policy with `make_policy`. A store can only be reopened
    /// with the shard count and partitioner it was created with (they are
    /// recorded in `shards.meta`).
    pub fn open_with(
        mut make_policy: impl FnMut(&StoreOptions) -> P,
        env: Arc<dyn pebblesdb_env::Env>,
        path: &Path,
        options: StoreOptions,
        config: ShardConfig,
    ) -> Result<ShardedDb<P>> {
        if config.shards == 0 || config.shards > MAX_SHARDS {
            return Err(Error::invalid_argument(format!(
                "shard count must be 1..={MAX_SHARDS}, got {}",
                config.shards
            )));
        }
        env.create_dir_all(path)?;
        match read_meta(env.as_ref(), path)? {
            Some(on_disk) => {
                if on_disk != config {
                    return Err(Error::invalid_argument(format!(
                        "store was created with {} {} shards; reopen asked for {} {}",
                        on_disk.shards,
                        on_disk.partitioner.name(),
                        config.shards,
                        config.partitioner.name(),
                    )));
                }
            }
            None => write_meta(env.as_ref(), path, &config)?,
        }

        let partitioner = config.partitioner.build();
        let mut shards = Vec::with_capacity(config.shards);
        for index in 0..config.shards {
            let policy = make_policy(&options);
            shards.push(EngineDb::open(
                policy,
                Arc::clone(&env),
                &path.join(format!("shard-{index}")),
                options.clone(),
            )?);
        }

        // Family sets can diverge across shards if a crash interrupted the
        // create/drop mirroring; shard 0 commits first both ways, so its
        // catalog is authoritative — drop strays, recreate stragglers.
        let authoritative = shards[0].shared().list_cfs();
        for (index, shard) in shards.iter().enumerate().skip(1) {
            let local = shard.shared().list_cfs();
            for (_, name) in &local {
                if !authoritative.iter().any(|(_, listed)| listed == name) {
                    shard.drop_cf(name)?;
                }
            }
            for (id, name) in &authoritative {
                let shard_id = match local.iter().find(|(_, existing)| existing == name) {
                    Some((shard_id, _)) => *shard_id,
                    None => shard.shared().create_cf(name)?,
                };
                if shard_id != *id {
                    return Err(Error::corruption(format!(
                        "family {name:?} has id {id} on shard 0 but {shard_id} on shard {index}"
                    )));
                }
            }
        }
        let cfs: BTreeMap<CfId, String> = authoritative.into_iter().collect();

        let live: BTreeSet<CfId> = cfs.keys().copied().collect();
        replay_journals(&env, path, &shards, partitioner.as_ref(), &live)?;

        let last = shards
            .iter()
            .map(|shard| shard.last_sequence())
            .max()
            .unwrap_or(0);
        let journal = Journal::create(Arc::clone(&env), path.to_path_buf(), 1)?;
        Ok(ShardedDb {
            core: Arc::new(ShardedCore {
                shards,
                partitioner,
                config,
                next_seq: AtomicU64::new(last + 1),
                frontier: Mutex::new(SequenceFrontier {
                    visible: last,
                    pending: BTreeMap::new(),
                }),
                journal: Mutex::new(journal),
                cfs: Mutex::new(cfs),
                snapshots: SnapshotList::new(),
                bg_error: Mutex::new(None),
            }),
        })
    }

    /// The topology this store was opened with.
    pub fn config(&self) -> ShardConfig {
        self.core.config
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.core.shard_count()
    }

    /// The current visibility watermark (the sequence a fresh snapshot
    /// would pin). Exposed for tests and introspection.
    pub fn watermark(&self) -> SequenceNumber {
        self.core.watermark()
    }
}

pebblesdb_common::store_views!(ShardedDb<P> where P: ShapePolicy => |db| &db.core);

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_env::Env;

    #[test]
    fn frontier_publishes_only_contiguous_prefixes() {
        let mut frontier = SequenceFrontier {
            visible: 0,
            pending: BTreeMap::new(),
        };
        frontier.publish(4, 6); // out of order: waits
        assert_eq!(frontier.visible, 0);
        frontier.publish(1, 3); // fills the gap: both ranges go visible
        assert_eq!(frontier.visible, 6);
        frontier.publish(10, 10); // gap at 7..=9
        assert_eq!(frontier.visible, 6);
        frontier.publish(7, 9);
        assert_eq!(frontier.visible, 10);
        assert!(frontier.pending.is_empty());
    }

    #[test]
    fn meta_roundtrips_and_rejects_garbage() {
        let env = pebblesdb_env::MemEnv::new();
        let path = Path::new("/meta-test");
        env.create_dir_all(path).unwrap();
        assert_eq!(read_meta(&env, path).unwrap(), None);
        let config = ShardConfig {
            shards: 4,
            partitioner: PartitionerKind::Range,
        };
        write_meta(&env, path, &config).unwrap();
        assert_eq!(read_meta(&env, path).unwrap(), Some(config));

        env.write_string_to_file_sync(&path.join(SHARDS_META), b"shards=4\n")
            .unwrap();
        assert!(read_meta(&env, path).is_err(), "missing partitioner");
    }

    #[test]
    fn journal_names_roundtrip() {
        assert_eq!(parse_journal_name("journal-000007.log"), Some(7));
        assert_eq!(
            journal_file_name(Path::new("/db"), 7),
            PathBuf::from("/db/journal-000007.log")
        );
        assert_eq!(parse_journal_name("journal-x.log"), None);
        assert_eq!(parse_journal_name("000007.log"), None);
    }
}
