//! The write pipeline. Every mutation of the store — user batches,
//! pre-sequenced (replicated, sharded or relocated) batches, memtable
//! rotations and sequence reservations — enters through
//! [`EngineCore::submit`], and one group leader at a time runs
//! [`EngineCore::commit`], whose body is the list of stages. Their order is
//! the invariant: a value is durable in the vlog before its pointer reaches
//! the WAL, and a record is logged before any reader can see it.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::MutexGuard;

use pebblesdb_common::batch::BatchRecord;
use pebblesdb_common::commit::{CommitGroup, GroupKind, Numbering, Role};
use pebblesdb_common::filename::log_file_name;
use pebblesdb_common::key::{SequenceNumber, ValueType};
use pebblesdb_common::{CfId, Result, WriteBatch, WriteOptions};
use pebblesdb_skiplist::MemTable;
use pebblesdb_wal::LogWriter;

use crate::cdc::Frontier;
use crate::chassis::{EngineCore, EngineState};
use crate::policy::ShapePolicy;
use crate::vlog::{rewrite_batch, TakenVlog};

/// What the planning pass found in a group's records.
#[derive(Default)]
struct CommitPlan {
    /// The live families the group writes to — for a rotation, the ones
    /// with a non-empty memtable to freeze.
    touched: Vec<CfId>,
    /// The touched families receiving a value at or past the separation
    /// threshold: these need their value-log appender.
    separating: Vec<CfId>,
}

/// What the leader carries out of the state mutex. Until it calls
/// `complete` nobody else touches the log, the vlog appenders or (as a
/// writer) the memtables, so all of it can be used unlocked.
struct GroupIo {
    log: Option<LogWriter>,
    /// A rotation created this WAL and its directory entry is not durable.
    sync_wal_dir: bool,
    vlogs: BTreeMap<CfId, TakenVlog>,
    mems: BTreeMap<CfId, Arc<MemTable>>,
}

/// Whether key-value separation moves this record's value to the vlog.
fn separable(record: &BatchRecord<'_>, threshold: usize) -> bool {
    threshold > 0 && record.value_type == ValueType::Value && record.value.len() >= threshold
}

impl<P: ShapePolicy> EngineCore<P> {
    /// Commits `batch` through the group-commit queue.
    pub(crate) fn write(
        &self,
        batch: WriteBatch,
        opts: &WriteOptions,
        by: Numbering,
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.restart_seek_count();
        let mut user_bytes = 0u64;
        for record in batch.iter() {
            let record = record?;
            user_bytes += (record.key.len() + record.value.len()) as u64;
        }
        self.submit(GroupKind::Write(by), batch, opts.sync)?;
        self.counters
            .user_bytes_written
            .fetch_add(user_bytes, Ordering::Relaxed);
        Ok(())
    }

    /// The one way into the pipeline: queue the request, then either find it
    /// committed by another group's leader or lead its own group.
    pub(crate) fn submit(&self, kind: GroupKind, batch: WriteBatch, sync: bool) -> Result<()> {
        let ticket = self.commit_queue.submit(kind, batch, sync);
        match self.commit_queue.wait_turn(&ticket) {
            Role::Done(result) => result,
            Role::Leader(mut group) => {
                let result = self.commit(&mut group);
                self.commit_queue.complete(group, &result);
                result
            }
        }
    }

    /// Commits a write group as its leader; the module docs list the
    /// stages. An error before the unlocked section (a corrupt batch, a
    /// dropped family, a poisoned store) fails the group and nothing else;
    /// an error inside it poisons the store.
    fn commit(&self, group: &mut CommitGroup) -> Result<()> {
        let mut state = self.state.lock();
        let plan = self.plan_group(&state, group)?;
        let rotate = matches!(group.kind, GroupKind::Rotate);
        for cf_id in &plan.touched {
            self.make_room_for_write(&mut state, *cf_id, rotate)?;
        }
        let end_seq = Self::number_group(&mut state, group);
        if group.batches.is_empty() {
            return Ok(()); // a rotation or a reservation logs nothing
        }
        let mut io = self.take_appenders(&mut state, &plan);
        let applied = MutexGuard::unlocked(&mut state, || {
            self.separate_values(&mut io, group)?;
            self.log_group(&mut io, group)?;
            self.apply_group(&io, group)
        });
        self.reinstall_and_publish(&mut state, io, applied, end_seq)
    }

    /// Stage 1 — plan. An engine-numbered write addressed at a dropped
    /// family fails its whole group (atomic batches cannot partially apply,
    /// and group members share one result by construction). Pre-sequenced
    /// batches replicate committed history: a record whose family does not
    /// exist *here* (a follower that has not mirrored it, or a drop racing a
    /// relocation) consumes its sequence slot, keeps its value inline and is
    /// skipped at the apply, exactly as recovery replays records of dropped
    /// families.
    fn plan_group(&self, state: &EngineState<P>, group: &CommitGroup) -> Result<CommitPlan> {
        let mut plan = CommitPlan::default();
        if matches!(group.kind, GroupKind::Rotate) {
            let full = state.cfs.values().filter(|cf| !cf.mem.is_empty());
            plan.touched = full.map(|cf| cf.id).collect();
        }
        let threshold = self.io.options.value_separation_threshold;
        let mut missing = None;
        for record in group.batches.iter().flat_map(|batch| batch.iter()) {
            let record = record?;
            if state.cf(record.cf).is_none() {
                missing = missing.or_else(|| state.live_cf(record.cf).err());
                continue;
            }
            if !plan.touched.contains(&record.cf) {
                plan.touched.push(record.cf);
            }
            if separable(&record, threshold) && !plan.separating.contains(&record.cf) {
                plan.separating.push(record.cf);
            }
        }
        match (missing, &group.kind) {
            (Some(err), GroupKind::Write(Numbering::Engine)) => Err(err),
            _ => Ok(plan),
        }
    }

    /// Stage 3 — number: returns the sequence the group's commit publishes.
    fn number_group(state: &mut EngineState<P>, group: &mut CommitGroup) -> SequenceNumber {
        match &group.kind {
            // The claimed slot is published at once and not logged: if
            // nothing is ever written at it, recovery replaying a smaller
            // maximum sequence is harmless — no durable state names it.
            GroupKind::Reserve(slot) => {
                state.last_sequence += 1;
                slot.store(state.last_sequence, Ordering::Release);
            }
            GroupKind::Write(Numbering::Engine) => {
                group.batches[0].set_sequence(state.last_sequence + 1);
            }
            _ => {}
        }
        // Pre-sequenced batches keep their sequences, so `last_sequence`
        // only advances to the group's maximum end — one may land out of
        // order within this engine, which is safe because the allocator
        // routes each key to exactly one engine (per-key sequence order is
        // preserved) and recovery already takes the max over replayed
        // records.
        let ends = group.batches.iter().map(WriteBatch::last_sequence);
        ends.fold(state.last_sequence, SequenceNumber::max)
    }

    /// Stage 4 — take the appenders.
    fn take_appenders(&self, state: &mut EngineState<P>, plan: &CommitPlan) -> GroupIo {
        let mut vlogs = BTreeMap::new();
        let mut mems = BTreeMap::new();
        for cf_id in &plan.touched {
            // A family dropped while `make_room_for_write` waited is
            // skipped like any other missing family.
            let Some(cf) = state.cfs.get_mut(cf_id) else {
                continue;
            };
            mems.insert(*cf_id, Arc::clone(&cf.mem));
            if plan.separating.contains(cf_id) {
                let taken = cf.vlog.take(&cf.io, || cf.versions.new_file_number());
                vlogs.insert(*cf_id, taken);
            }
        }
        GroupIo {
            log: state.log.take(),
            sync_wal_dir: state.wal_dir_unsynced,
            vlogs,
            mems,
        }
    }

    /// Stage 5a — separate. Large values are appended to their family's
    /// vlog and the batches rewritten around fixed-size pointers, so the WAL
    /// and the memtables only ever see what the tree will store. The appends
    /// are flushed — synced, for a sync group — before this returns.
    fn separate_values(&self, io: &mut GroupIo, group: &mut CommitGroup) -> Result<()> {
        if io.vlogs.is_empty() {
            return Ok(());
        }
        let threshold = self.io.options.value_separation_threshold;
        for batch in &mut group.batches {
            let rewritten = rewrite_batch(batch, |record| match io.vlogs.get_mut(&record.cf) {
                Some(vlog) if separable(record, threshold) => {
                    let pointer = vlog.append(record.key, record.value, &self.counters)?;
                    Ok(Some((ValueType::ValuePointer, pointer.encode())))
                }
                _ => Ok(None),
            })?;
            if let Some(rewritten) = rewritten {
                *batch = rewritten;
            }
        }
        let mut vlogs = io.vlogs.values_mut();
        vlogs.try_for_each(|taken| taken.finish_group(group.sync))
    }

    /// Stage 5b — log. Each batch is one WAL record (a pre-sequenced batch's
    /// header carries its own base sequence); the whole group shares one
    /// flush to the operating system (LevelDB's `AddRecord` contract: an
    /// acknowledged write has left the process, and a change stream may read
    /// it back from the file) and, for a sync group, one fsync.
    fn log_group(&self, io: &mut GroupIo, group: &CommitGroup) -> Result<()> {
        if io.sync_wal_dir {
            // The WAL's directory entry must be durable before the group
            // is acknowledged.
            self.io.env.sync_dir(&self.io.db_path)?;
        }
        let Some(log) = io.log.as_mut() else {
            return Ok(());
        };
        for batch in &group.batches {
            log.add_record(batch.contents())?;
        }
        if group.sync {
            log.sync()
        } else {
            log.flush()
        }
    }

    /// Stage 5c — apply to the families' concurrent memtables, unlocked.
    /// Nothing applied is visible to a reader until stage 6 publishes the
    /// group's sequence. (Guards are not picked here: the compaction that
    /// first writes a key into a level makes it a guard there.)
    fn apply_group(&self, io: &GroupIo, group: &CommitGroup) -> Result<()> {
        for record in group.batches.iter().flat_map(|batch| batch.iter()) {
            let record = record?;
            if let Some(mem) = io.mems.get(&record.cf) {
                mem.add(record.sequence, record.value_type, record.key, record.value);
            }
        }
        Ok(())
    }

    /// Stage 6 — reinstall + publish. The appenders go back whether or not
    /// the IO succeeded (a failure poisons the store, but the registry must
    /// stay coherent for shutdown); a family dropped mid-IO keeps nothing,
    /// its files die with its directory.
    fn reinstall_and_publish(
        &self,
        state: &mut EngineState<P>,
        io: GroupIo,
        applied: Result<()>,
        end_seq: SequenceNumber,
    ) -> Result<()> {
        state.log = io.log;
        for (cf_id, taken) in io.vlogs {
            if let Some(cf) = state.cfs.get_mut(&cf_id) {
                cf.vlog.reinstall(taken);
            }
        }
        applied.map_err(|err| state.poison(err))?;
        if io.sync_wal_dir {
            state.wal_dir_unsynced = false;
        }
        state.last_sequence = end_seq;
        // The log is the change log: streams may now read it up to here.
        // Lock order state -> change_log is the sanctioned one.
        if let Some(log) = &state.log {
            self.change_log.publish(Frontier {
                log_number: state.log_file_number,
                log_len: log.file_len(),
                last_seq: end_seq,
            });
        }
        Ok(())
    }

    /// Stage 2 — make room: ensures there is room in one family's memtable,
    /// applying that family's level-0 back-pressure; `rotate` freezes the
    /// memtable even if it is not full. A writer whose memtable is full
    /// waits only while `imm` is still flushing or level 0 is at its stop
    /// trigger, and it waits on a job, never on a timer: it first runs a due
    /// flush or compaction itself (`crate::executor`), holding the commit
    /// turn as it does, and parks only when it can claim none.
    fn make_room_for_write(
        &self,
        state: &mut MutexGuard<'_, EngineState<P>>,
        cf_id: CfId,
        mut rotate: bool,
    ) -> Result<()> {
        let options = &self.io.options;
        loop {
            state.healthy()?;
            let cf = state.live_cf(cf_id)?;
            if !rotate && cf.mem.approximate_memory_usage() <= options.write_buffer_size {
                return Ok(());
            }
            // The previous memtable is still flushing, or level 0 is full.
            let on_memtable = cf.imm.is_some();
            if on_memtable || cf.versions.levels()[0].files >= options.level0_stop_writes_trigger {
                let stall = self.io.env.now();
                self.wait_for_progress(state);
                let stalled = (self.io.env.now() - stall).as_micros() as u64;
                self.counters.record_stall(stalled, on_memtable);
                continue;
            }
            self.rotate_memtable(state, cf_id)?;
            self.kick(state);
            rotate = false;
        }
    }

    /// Switches family `cf_id` to a fresh memtable and the store to a fresh
    /// WAL, so the frozen table corresponds to a log prefix. The full
    /// memtable is frozen whole — cursors still pinning it keep reading it
    /// in `imm` (and beyond, through their own `Arc`s) with no copy. WAL
    /// numbers come from the default family's allocator (they live in the
    /// root directory).
    fn rotate_memtable(&self, state: &mut EngineState<P>, cf_id: CfId) -> Result<()> {
        let new_log_number = state.default_cf_mut().versions.new_file_number();
        let path = log_file_name(&self.io.db_path, new_log_number);
        let log_file = self.io.env.new_writable_file(&path)?;
        // Every write into the new log passes through `commit`, whose
        // unlocked section syncs the directory first.
        state.wal_dir_unsynced = true;
        let old_log = state.log.replace(LogWriter::new(log_file));
        state.log_file_number = new_log_number;
        // The change log needs the rotation point: every sequence committed
        // from here on lives in the new segment, and the old one is now
        // closed (read to its end, reclaimable).
        self.change_log
            .note_rotation(new_log_number, state.last_sequence);
        if let Some(Err(err)) = old_log.map(LogWriter::close) {
            // A failed close may have lost a sync on acknowledged records
            // in the old log; surface it instead of dropping it.
            return Err(state.poison(err));
        }
        let cf = state.cf_mut(cf_id).expect("family checked by the caller");
        cf.imm = Some(std::mem::replace(&mut cf.mem, Arc::new(MemTable::new())));
        cf.mem_log_number = new_log_number;
        Ok(())
    }
}
