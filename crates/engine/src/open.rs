//! Opening a store: catalog + per-family MANIFEST recovery, WAL replay into
//! the families' memtables, a fresh WAL, and the background workers.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use pebblesdb_common::commit::CommitQueue;
use pebblesdb_common::filename::{log_file_name, parse_file_name, FileType};
use pebblesdb_common::key::SequenceNumber;
use pebblesdb_common::snapshot::SnapshotList;
use pebblesdb_common::{EngineCounters, Result, StoreOptions, WriteBatch};
use pebblesdb_skiplist::MemTable;
use pebblesdb_wal::{LogWriter, Replay, Tail};

use crate::catalog;
use crate::cdc::ChangeLog;
use crate::chassis::{CfState, EngineCore, EngineDb, EngineShared, EngineState};
use crate::policy::{EngineIo, ShapePolicy};
use crate::runs::flush_to_table;

impl<P: ShapePolicy> EngineDb<P> {
    /// Opens (creating if necessary) a store at `path` shaped by `policy`.
    pub fn open(
        policy: P,
        env: Arc<dyn pebblesdb_env::Env>,
        path: &Path,
        mut options: StoreOptions,
    ) -> Result<EngineDb<P>> {
        // This store's own stat sink, installed before the options are
        // cloned into the families' table caches and vlogs: the caller's
        // value may share its sink with another open store.
        let counters = Arc::new(EngineCounters::default());
        options.counters = Arc::clone(&counters);

        env.create_dir_all(path)?;

        // The catalog names the families; a missing catalog file is the
        // single-namespace (pre-column-family) layout. The first create or
        // drop of this session opens it for appends.
        let catalog_data = catalog::read(env.as_ref(), path)?;

        let mut state: EngineState<P> = EngineState {
            cfs: BTreeMap::new(),
            last_sequence: 0,
            next_cf_id: catalog_data.next_cf_id,
            catalog: None,
            log: None,
            log_file_number: 0,
            obsolete_wals: Vec::new(),
            wal_dir_unsynced: false,
            bg_error: None,
        };

        for (id, name) in &catalog_data.cfs {
            let cf = CfState::open(&env, path, *id, name, &options)?;
            state.last_sequence = state.last_sequence.max(cf.versions.last_sequence());
            state.cfs.insert(*id, cf);
        }

        // Reap directories of families dropped in the catalog (a crash
        // between the drop edit and the directory removal leaves them). Ids
        // are never reused, so any `cf-<id>` with id below the floor and no
        // catalog entry is provably dead.
        for id in 1..state.next_cf_id {
            if !state.cfs.contains_key(&id)
                && env.remove_dir_all(&catalog::cf_dir(path, id)).is_err()
            {
                // A failed reap costs only disk space; count it so the leak
                // stays observable and let the next open retry.
                counters.cleanup_failures.fetch_add(1, Ordering::Relaxed);
            }
        }

        // The default family's handles are the store's: its directory is
        // the database root, where the WAL lives.
        let io = state.default_cf().io.clone();
        let mut wal_births = recover_wals(&io, &mut state)?;

        // Start a fresh WAL for new writes, making its directory entry
        // durable before any synced write is acknowledged against it.
        let log_number = state.default_cf_mut().versions.new_file_number();
        let log_file = env.new_writable_file(&log_file_name(path, log_number))?;
        env.sync_dir(path)?;
        state.log = Some(LogWriter::new(log_file));
        state.log_file_number = log_number;
        wal_births.insert(log_number, state.last_sequence);
        let last_sequence = state.last_sequence;
        for cf in state.cfs.values_mut() {
            cf.start_on_log(last_sequence, log_number)?;
            cf.versions.sweep();
        }

        let change_log = Arc::new(ChangeLog::new(wal_births, log_number, state.last_sequence));
        let core = Arc::new(EngineCore {
            io,
            policy,
            state: Mutex::new(state),
            commit_queue: CommitQueue::new(),
            executor: Default::default(),
            shutting_down: AtomicBool::new(false),
            consecutive_seeks: AtomicUsize::new(0),
            counters,
            snapshots: SnapshotList::new(),
            cursor_pins: SnapshotList::new(),
            vlog_gc_lock: Mutex::new(()),
            change_log,
        });
        core.remove_obsolete_files(&mut core.state.lock());

        // If a thread cannot be started, dropping `shared` stops and joins
        // the ones that were.
        let shared = Arc::new(EngineShared { core });
        EngineCore::start_workers(&shared.core)?;
        Ok(EngineDb { shared })
    }
}

/// Replays every write-ahead log on disk, routing each record into its
/// column family's memtable (records a family's sstables already cover are
/// skipped per family). Returns the segment **births** for change-data
/// capture: for each log, the best lower bound on "last sequence committed
/// before this log was opened" that replay can reconstruct — exact when the
/// log's first batch was engine-sequenced (the overwhelmingly common case),
/// conservative (never too small, so WAL reclamation never under-keeps)
/// otherwise, because it also takes the running maximum across earlier logs.
fn recover_wals<P: ShapePolicy>(
    io: &EngineIo,
    state: &mut EngineState<P>,
) -> Result<BTreeMap<u64, SequenceNumber>> {
    let mut log_numbers: Vec<u64> = io
        .env
        .children(&io.db_path)?
        .iter()
        .filter_map(|name| parse_file_name(name))
        .filter(|(ty, _)| *ty == FileType::WriteAheadLog)
        .map(|(_, number)| number)
        .collect();
    log_numbers.sort_unstable();

    let mut births: BTreeMap<u64, SequenceNumber> = BTreeMap::new();
    // Highest batch-end sequence seen in earlier logs: every later log was
    // opened after those batches committed, so its birth is at least this.
    let mut running_max: SequenceNumber = 0;
    for number in log_numbers {
        state
            .default_cf_mut()
            .versions
            .mark_file_number_used(number);
        let path = log_file_name(&io.db_path, number);
        let file = io.env.new_sequential_file(&path)?;
        let mut replay = Replay::<WriteBatch>::new(file, Tail::Torn);
        while let Some(batch) = replay.next_record()? {
            let base_seq = batch.sequence();
            births
                .entry(number)
                .or_insert(running_max.max(base_seq.saturating_sub(1)));
            let mut applied = 0u64;
            for item in batch.iter() {
                let item = item?;
                // The record consumes its sequence slot whether or not it
                // still has a family to land in.
                applied += 1;
                let Some(cf) = state.cfs.get_mut(&item.cf) else {
                    continue; // family dropped in the catalog
                };
                if number < cf.versions.log_number() {
                    continue; // already covered by this family's sstables
                }
                cf.mem
                    .add(item.sequence, item.value_type, item.key, item.value);
            }
            let last = base_seq + applied.saturating_sub(1);
            state.last_sequence = state.last_sequence.max(last);
            running_max = running_max.max(last);
            let limit = io.options.write_buffer_size;
            flush_recovered(state, |mem| mem.approximate_memory_usage() > limit)?;
        }
        // A log with no readable batches (rotated or opened and never
        // written, or torn at its very first record) holds nothing to
        // recover or to stream: it goes now, so that idle reopens do not
        // pile empty segments up behind the retained history — or, if it
        // cannot, gets a birth so the change log accounts for it.
        if !births.contains_key(&number) && io.env.remove_file(&path).is_err() {
            births.insert(number, running_max);
        }
    }
    flush_recovered(state, |mem| !mem.is_empty())?;
    Ok(births)
}

/// Writes the recovering memtable of every family where it is `due` to a
/// level-0 table.
fn flush_recovered<P: ShapePolicy>(
    state: &mut EngineState<P>,
    due: impl Fn(&MemTable) -> bool,
) -> Result<()> {
    let last_sequence = state.last_sequence;
    for cf in state.cfs.values_mut().filter(|cf| due(&cf.mem)) {
        let mem = std::mem::replace(&mut cf.mem, Arc::new(MemTable::new()));
        if let Some(meta) = flush_to_table(&cf.io, mem.iter())? {
            cf.versions.set_last_sequence(last_sequence);
            cf.versions.commit_level0(Some(&meta), None)?;
        }
    }
    Ok(())
}
