//! The read path: point gets, streaming cursors and snapshots. Each takes
//! the state mutex once, briefly, to pin a consistent view (memtables,
//! current version, vlog readers); sstable and vlog IO run outside it.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use pebblesdb_common::iterator::{DbIterator, MergingIterator, PinnedIterator};
use pebblesdb_common::key::{LookupKey, SequenceNumber};
use pebblesdb_common::snapshot::Snapshot;
use pebblesdb_common::user_iter::UserIterator;
use pebblesdb_common::vlog::{LookupValue, ValuePointer, ValueResolver};
use pebblesdb_common::{CfId, ReadOptions, Result};
use pebblesdb_skiplist::memtable::MemTableGet;
use pebblesdb_skiplist::MemTable;

use crate::chassis::EngineCore;
use crate::policy::ShapePolicy;
use crate::runs;
use crate::version::Version;
use crate::vlog::VlogReaderCache;

/// The sequence number a read issued with `opts` may observe: the requested
/// snapshot, clamped to the store's current sequence.
fn visible_sequence(opts: &ReadOptions, last_sequence: SequenceNumber) -> SequenceNumber {
    opts.snapshot
        .map(|snap| snap.min(last_sequence))
        .unwrap_or(last_sequence)
}

/// Probes one memtable. `Some(outcome)` settles the lookup — a value, a
/// pointer, or `None` for a deletion; `None` sends it on to older data.
fn probe_memtable(mem: &MemTable, lookup: &LookupKey) -> Result<Option<Option<LookupValue>>> {
    Ok(match mem.get(lookup) {
        MemTableGet::Found(value) => Some(Some(LookupValue::Inline(value))),
        MemTableGet::FoundPointer(encoded) => {
            Some(Some(LookupValue::Pointer(ValuePointer::decode(&encoded)?)))
        }
        MemTableGet::Deleted => Some(None),
        MemTableGet::NotFound => None,
    })
}

impl<P: ShapePolicy> EngineCore<P> {
    pub(crate) fn get(
        &self,
        cf_id: CfId,
        opts: &ReadOptions,
        user_key: &[u8],
    ) -> Result<Option<Vec<u8>>> {
        self.counters.gets.fetch_add(1, Ordering::Relaxed);
        let mut retried = false;
        loop {
            let Some((found, resolver)) = self.lookup_value(cf_id, opts, user_key)? else {
                return Ok(None);
            };
            match found {
                LookupValue::Inline(value) => return Ok(Some(value)),
                LookupValue::Pointer(pointer) => match resolver.resolve(&pointer) {
                    Ok(value) => return Ok(Some(value)),
                    // A GC pass may have deleted the vlog file between the
                    // tree lookup and this read; the relocated pointer is
                    // already in place, so one fresh lookup settles it.
                    Err(_) if !retried => retried = true,
                    Err(err) => return Err(err),
                },
            }
        }
    }

    /// The tree lookup underneath [`EngineCore::get`]: consults the
    /// memtables and the version but does **not** resolve value pointers —
    /// resolution does IO and runs outside the state lock. `Ok(None)` means
    /// "deleted or never written"; the GC's liveness check uses the raw
    /// pointer this returns.
    pub(crate) fn lookup_value(
        &self,
        cf_id: CfId,
        opts: &ReadOptions,
        user_key: &[u8],
    ) -> Result<Option<(LookupValue, Arc<VlogReaderCache>)>> {
        let (lookup, imm, version, table_cache, resolver) = {
            let state = self.state.lock();
            let sequence = visible_sequence(opts, state.last_sequence);
            let cf = state.live_cf(cf_id)?;
            let lookup = LookupKey::new(user_key, sequence);
            let resolver = Arc::clone(&cf.vlog.readers);
            if let Some(settled) = probe_memtable(&cf.mem, &lookup)? {
                return Ok(settled.map(|found| (found, resolver)));
            }
            (
                lookup,
                cf.imm.clone(),
                Arc::clone(cf.versions.current()),
                Arc::clone(&cf.io.table_cache),
                resolver,
            )
        };
        if let Some(imm) = imm {
            if let Some(settled) = probe_memtable(&imm, &lookup)? {
                return Ok(settled.map(|found| (found, resolver)));
            }
        }
        Ok(runs::get(&*version, &table_cache, &lookup)?.map(|found| (found, resolver)))
    }

    /// Counts a cursor over `version` towards the seek trigger, and returns
    /// `true` when it completes a run of `seek_compaction_threshold` (0 turns
    /// the trigger off). Only cursors a compaction could speed up count: over
    /// a version the policy says no to, a cursor touches no shared state.
    fn count_seek(&self, version: &Version<P::Runs>) -> bool {
        let threshold = self.io.options.seek_compaction_threshold;
        if threshold == 0 || !self.policy.seek_compaction_helps(version) {
            return false;
        }
        let fired = self.consecutive_seeks.fetch_add(1, Ordering::Relaxed) + 1 >= threshold;
        if fired {
            self.consecutive_seeks.store(0, Ordering::Relaxed);
        }
        fired
    }

    /// A write ends the read-only phase the seek trigger counts. The counter
    /// is shared with every reader, so a write-only phase leaves its cache
    /// line alone.
    pub(crate) fn restart_seek_count(&self) {
        if self.consecutive_seeks.load(Ordering::Relaxed) != 0 {
            self.consecutive_seeks.store(0, Ordering::Relaxed);
        }
    }

    /// Builds the streaming user-key cursor over one family: its memtables
    /// plus the pinned version's level iterators, merged and filtered down
    /// to the view at the cursor's sequence. Creating a cursor counts towards
    /// the seek trigger, which requests a compaction of the family read.
    pub(crate) fn iter(&self, cf_id: CfId, opts: &ReadOptions) -> Result<Box<dyn DbIterator>> {
        self.counters.seeks.fetch_add(1, Ordering::Relaxed);
        let (sequence, mem, imm, version, levels, table_cache, resolver, snapshot) = {
            let state = self.state.lock();
            let sequence = visible_sequence(opts, state.last_sequence);
            // Keeps vlog GC off the files this cursor's view can still
            // reach (see `EngineCore::cursor_pins` for why not `snapshots`).
            let snapshot = self.cursor_pins.acquire(sequence);
            let cf = state.live_cf(cf_id)?;
            (
                sequence,
                Arc::clone(&cf.mem),
                cf.imm.clone(),
                Arc::clone(cf.versions.current()),
                cf.versions.levels().clone(),
                Arc::clone(&cf.io.table_cache),
                Arc::clone(&cf.vlog.readers),
                snapshot,
            )
        };
        // The lock is taken a second time only when the trigger fires.
        if self.count_seek(&version) {
            let mut state = self.state.lock();
            if let Some(cf) = state.cf_mut(cf_id) {
                cf.seek_requested = true;
            }
            self.kick(&mut state);
        }

        let mut children: Vec<Box<dyn DbIterator>> = Vec::new();
        children.push(Box::new(mem.owned_iter()));
        if let Some(imm) = imm {
            children.push(Box::new(imm.owned_iter()));
        }
        runs::push_version_iterators(&table_cache, &version, &levels, &mut children)?;

        let merged = MergingIterator::new(children);
        let user = UserIterator::new(Box::new(merged), sequence)
            .with_resolver(resolver as Arc<dyn ValueResolver>);
        // Pin the version so obsolete-file GC cannot delete the sstables the
        // cursor is still reading, and the snapshot so vlog GC cannot
        // reclaim a value the cursor can still observe.
        Ok(Box::new(PinnedIterator::new(
            Box::new(user),
            (version, snapshot),
        )))
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        self.snapshots.acquire(self.state.lock().last_sequence)
    }
}
