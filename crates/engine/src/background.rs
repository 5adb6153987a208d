//! Background work: picking and running a flush or a compaction through
//! the one job lifecycle both share (they differ only in their IO and their
//! version edit), `flush()`'s quiesce and obsolete-file garbage collection.
//! Which thread runs a job is `crate::executor`'s business.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::MutexGuard;

use pebblesdb_common::commit::GroupKind;
use pebblesdb_common::filename::{log_file_name, table_file_name};
use pebblesdb_common::{CfId, Result, WriteBatch};

use crate::chassis::{ClaimedJob, EngineCore, EngineState};
use crate::policy::{EngineIo, PolicyCtx, ShapePolicy};
use crate::runs::{flush_to_table, merge_to_tables};
use crate::version_set::VersionEdit;

/// WAL files tolerated on disk before idle families' recovery floors are
/// force-advanced (each advance costs one synced MANIFEST edit per family).
/// Hot families always advance their own floor for free when they flush, so
/// a single-namespace store never crosses this.
const WAL_BACKLOG_LIMIT: usize = 8;

impl<P: ShapePolicy> EngineCore<P> {
    /// The lifecycle of one background job of family `cf_id`: run `work`
    /// (the job's IO) with the state mutex released, then `install` its
    /// result into the version set under the mutex — returning `(bytes
    /// read, bytes written)` — or poison the store. Returns whether the job
    /// committed; the caller then collects what the commit made obsolete.
    fn run_job<T>(
        &self,
        state: &mut MutexGuard<'_, EngineState<P>>,
        cf_id: CfId,
        work: impl FnOnce(&EngineIo) -> Result<T>,
        install: impl FnOnce(&mut EngineState<P>, T) -> Result<(u64, u64)>,
    ) -> bool {
        let io = state.job_cf(cf_id).io.clone();
        let start = io.env.now();
        let done = MutexGuard::unlocked(state, || work(&io));
        let committed = done.and_then(|outputs| {
            let last_sequence = state.last_sequence;
            state
                .job_cf(cf_id)
                .versions
                .set_last_sequence(last_sequence);
            install(state, outputs)
        });
        // Whatever the caller still releases under this same hold of the
        // mutex is visible by the time anyone this wakes runs.
        self.notify_progress();
        match committed {
            Ok((bytes_read, bytes_written)) => {
                let micros = (io.env.now() - start).as_micros() as u64;
                self.counters
                    .record_compaction(micros, bytes_read, bytes_written);
                true
            }
            Err(err) => {
                state.poison(err);
                false
            }
        }
    }

    /// Which family's flush runs next: the largest immutable memtable wins,
    /// so one hot namespace cannot park the others behind its queue.
    fn pick_flush_cf(state: &EngineState<P>) -> Option<CfId> {
        state.healthy().ok()?;
        state
            .cfs
            .values()
            .filter(|cf| !cf.dropping && !cf.flush_running)
            .filter_map(|cf| Some((cf.imm.as_ref()?.approximate_memory_usage(), cf.id)))
            .max()
            .map(|(_, id)| id)
    }

    /// Runs the most urgent flush, if one is due; returns whether it did.
    pub(crate) fn flush_next(&self, state: &mut MutexGuard<'_, EngineState<P>>) -> bool {
        let due = Self::pick_flush_cf(state);
        due.map(|cf_id| self.flush_memtable(state, cf_id)).is_some()
    }

    /// Claims and runs the most urgent compaction, if one is due.
    pub(crate) fn compact_next(&self, state: &mut MutexGuard<'_, EngineState<P>>) -> bool {
        let due = self.claim_job(state);
        due.map(|job| self.run_claimed_job(state, job)).is_some()
    }

    /// Writes family `cf_id`'s `imm` to a level-0 table and retires it.
    fn flush_memtable(&self, state: &mut MutexGuard<'_, EngineState<P>>, cf_id: CfId) {
        let cf = state.job_cf(cf_id);
        let imm = cf.imm.clone().expect("picked for its immutable memtable");
        cf.flush_running = true;
        let committed = self.run_job(
            state,
            cf_id,
            |io| flush_to_table(io, imm.iter()),
            |state, meta| {
                // The frozen table covers every record of this family in
                // WALs older than the active memtable's birth log; publish
                // that as the family's recovery floor.
                let cf = state.job_cf(cf_id);
                cf.versions
                    .commit_level0(meta.as_ref(), Some(cf.mem_log_number))?;
                cf.imm = None;
                cf.flushes += 1;
                self.counters.flushes.fetch_add(1, Ordering::Relaxed);
                self.advance_idle_families(state)?;
                Ok((0, meta.map_or(0, |meta| meta.file_size)))
            },
        );
        state.job_cf(cf_id).flush_running = false;
        if committed {
            self.remove_obsolete_files(state);
        }
    }

    /// Families with nothing buffered can advance their recovery floor to
    /// the live WAL; without this an idle namespace would pin every log
    /// segment forever. Runs only past [`WAL_BACKLOG_LIMIT`].
    fn advance_idle_families(&self, state: &mut EngineState<P>) -> Result<()> {
        if self.change_log.segments().len() <= WAL_BACKLOG_LIMIT {
            return Ok(());
        }
        let (last_sequence, current_log) = (state.last_sequence, state.log_file_number);
        for cf in state.cfs.values_mut() {
            let idle = !cf.dropping && cf.mem.is_empty() && cf.imm.is_none();
            if idle && cf.versions.log_number() < current_log {
                cf.start_on_log(last_sequence, current_log)?;
            }
        }
        Ok(())
    }

    /// `flush()`: rotate every non-empty memtable through the commit queue
    /// (so the rotation is serialised with in-flight write groups), then
    /// quiesce: run due jobs until none can be claimed and none is in
    /// flight. A version that wants compacting always yields a job once
    /// nothing holds a claim, so that is also when none is wanted — a
    /// requested seek compaction included.
    pub(crate) fn flush(&self) -> Result<()> {
        self.submit(GroupKind::Rotate, WriteBatch::new(), false)?;
        let mut state = self.state.lock();
        self.quiesce(&mut state)?;
        // Quiesced: delete what a commit's pass left because a read still
        // held it then.
        self.remove_obsolete_files(&mut state);
        Ok(())
    }

    /// Claims the highest-priority compaction job across every family, so
    /// that workers can run their IO side by side outside the state mutex
    /// and commit through the serialized `log_and_apply`.
    ///
    /// Families are polled most level-0 files first, so one namespace's
    /// debt cannot hide behind an idle sibling: a family with nothing due
    /// yields no job and the next is asked. Within a family the policy picks
    /// a job its `claims` leave free; they hold it until `run_claimed_job`
    /// releases it.
    pub fn claim_job(&self, state: &mut MutexGuard<'_, EngineState<P>>) -> Option<ClaimedJob> {
        state.healthy().ok()?;
        let mut order: Vec<(usize, CfId)> = (state.cfs.values())
            .filter(|cf| !cf.dropping)
            .map(|cf| (cf.versions.levels()[0].files, cf.id))
            .collect();
        order.sort_by_key(|&(level0, _)| std::cmp::Reverse(level0));

        for (_, id) in order {
            let cf = state.cf_mut(id).expect("ordered family exists");
            let mut ctx = PolicyCtx {
                versions: &cf.versions,
                state: &mut cf.policy,
                seek_requested: &mut cf.seek_requested,
                claims: &cf.claims,
            };
            if let Some(job) = self.policy.pick_job(&mut ctx) {
                debug_assert!(!job.inputs.is_empty(), "a job without inputs holds nothing");
                let claim = cf.claims.hold(&job.inputs);
                self.counters.record_compaction_start();
                return Some(ClaimedJob { cf: id, job, claim });
            }
        }
        None
    }

    /// Runs a claimed job's merge with the state mutex released, then
    /// commits (or abandons) it and releases its claim. The claimed family
    /// cannot be dropped while the job is in flight (`drop_cf` waits it out).
    ///
    /// The merge reads the family's current version, which the job pins as
    /// a cursor does: its output level's slots are where the merge cuts, and
    /// the files outside the job decide which tombstones may go. Run in the
    /// same hold of the lock as its claim (`compact_next`), that is the
    /// version the pick saw. The snapshot floor is read here too: a snapshot
    /// taken later sits above it.
    pub fn run_claimed_job(&self, state: &mut MutexGuard<'_, EngineState<P>>, claimed: ClaimedJob) {
        let ClaimedJob { cf: id, job, claim } = claimed;
        let version = Arc::clone(state.job_cf(id).versions.current());
        let floor = self.snapshots.compaction_floor(state.last_sequence);
        let guard_level = |key: &[u8]| self.policy.guard_level(key);
        let committed = self.run_job(
            state,
            id,
            |io| merge_to_tables(io, &job, version.as_ref(), floor, guard_level),
            |state, (outputs, guards)| {
                let cf = state.job_cf(id);
                let edit = VersionEdit::compaction(&job, &outputs, &guards);
                cf.versions.log_and_apply(edit)?;
                // A move reads and writes nothing.
                let bytes_read = if job.move_only { 0 } else { job.input_bytes() };
                Ok((bytes_read, outputs.iter().map(|meta| meta.file_size).sum()))
            },
        );
        // Release the claim whether the job committed or failed, so a
        // poisoned store does not wedge its sibling workers.
        state.job_cf(id).claims.release(&claim);
        self.counters.record_compaction_end();
        // The job's own holds on its inputs and its version go first: the
        // pass would find every file this commit unlinked still held.
        drop((job, version));
        if committed {
            self.remove_obsolete_files(state);
        }
    }

    /// Deletes what commits made obsolete and nothing holds any more: each
    /// family's unlinked tables that no version, cursor or job can read (a
    /// deleted table's reader goes with its last `Arc`), and the WAL
    /// segments the change log lets go of. A segment survives until every
    /// family's flushed state covers it **and** no change-stream cursor
    /// still needs it — the change
    /// log turns segments a cursor can no longer reach into an explicit
    /// `SequenceTruncated`, never a silently unreadable gap. No directory is
    /// listed here: what a crash leaves behind is the open sweep's.
    pub fn remove_obsolete_files(&self, state: &mut MutexGuard<'_, EngineState<P>>) {
        let cf_min_log = state.cfs.values().map(|cf| cf.versions.log_number()).min();
        let reclaimed = self
            .change_log
            .reclaim_wal_segments(cf_min_log.unwrap_or(0));
        let mut wals = std::mem::take(&mut state.obsolete_wals);
        wals.extend(reclaimed);
        wals.retain(|number| !self.remove(&log_file_name(&self.io.db_path, *number)));
        state.obsolete_wals = wals;
        for cf in state.cfs.values_mut() {
            let dir = &cf.io.db_path;
            cf.versions
                .delete_obsolete(|file| self.remove(&table_file_name(dir, file.number)));
        }
    }

    /// Deletes an obsolete file, reporting whether it is gone. It is in no
    /// version, so a failed delete leaks space, not correctness: the caller
    /// keeps it for the next pass, and the count keeps the leak visible.
    pub(crate) fn remove(&self, path: &Path) -> bool {
        let removed = self.io.env.remove_file(path).is_ok();
        if !removed {
            self.counters
                .cleanup_failures
                .fetch_add(1, Ordering::Relaxed);
        }
        removed
    }
}
