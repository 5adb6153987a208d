//! Background work: picking and running a flush or a compaction through
//! the one job lifecycle both share (they differ only in their IO and their
//! version edit), `flush()`'s quiesce and obsolete-file garbage collection.
//! Which thread runs a job is `crate::executor`'s business.

use std::sync::atomic::Ordering;

use parking_lot::MutexGuard;

use pebblesdb_common::commit::GroupKind;
use pebblesdb_common::filename::{parse_file_name, FileType};
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
    /// The lifecycle of one background job of family `cf_id`, whose
    /// `output_floor` the caller has already pushed: run `work` (the job's
    /// IO) with the state mutex released, `install` its result into the
    /// version set under the mutex — returning `(bytes read, bytes
    /// written)` — lift the floor, and then either collect the files the
    /// commit made obsolete or poison the store.
    fn run_job<T>(
        &self,
        state: &mut MutexGuard<'_, EngineState<P>>,
        cf_id: CfId,
        output_floor: u64,
        work: impl FnOnce(&EngineIo) -> Result<T>,
        install: impl FnOnce(&mut EngineState<P>, T) -> Result<(u64, u64)>,
    ) {
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
        let floors = &mut state.job_cf(cf_id).output_floors;
        if let Some(at) = floors.iter().position(|floor| *floor == output_floor) {
            floors.swap_remove(at);
        }
        match committed {
            Ok((bytes_read, bytes_written)) => {
                let micros = (io.env.now() - start).as_micros() as u64;
                self.counters
                    .record_compaction(micros, bytes_read, bytes_written);
                self.remove_obsolete_files(state);
            }
            Err(err) => {
                state.poison(err);
            }
        }
        // Whatever the caller still releases under this same hold of the
        // mutex is visible by the time anyone this wakes runs.
        self.notify_progress();
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
        let output_floor = cf.io.file_numbers.peek();
        cf.output_floors.push(output_floor);
        self.run_job(
            state,
            cf_id,
            output_floor,
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
    }

    /// Families with nothing buffered can advance their recovery floor to
    /// the live WAL; without this an idle namespace would pin every log
    /// segment forever. Runs only past [`WAL_BACKLOG_LIMIT`].
    fn advance_idle_families(&self, state: &mut EngineState<P>) -> Result<()> {
        if state.live_wal_files <= WAL_BACKLOG_LIMIT {
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
    /// wait until no flush or compaction is running or wanted.
    pub(crate) fn flush(&self) -> Result<()> {
        self.submit(GroupKind::Rotate, WriteBatch::new(), false)?;
        let mut state = self.state.lock();
        loop {
            state.healthy()?;
            let busy = state.cfs.values().any(|cf| {
                cf.active_jobs > 0
                    || cf.imm.is_some()
                    || cf.flush_running
                    || cf.versions.needs_compaction()
            });
            if !busy {
                break;
            }
            self.wait_for_progress(&mut state);
        }
        // Quiesced: reclaim files whose deletion a commit-time GC skipped
        // because a read still pinned their version. Skipped when the last
        // GC saw no pins — it already ran to completion, so rescanning the
        // directories would be wasted work under the state lock.
        if state.gc_rescan_needed {
            self.remove_obsolete_files(&mut state);
        }
        Ok(())
    }

    /// Claims the highest-priority compaction job across every family: one
    /// whose inputs are disjoint from every in-flight job's, so that workers
    /// can run their IO side by side outside the state mutex and commit
    /// through the serialized `log_and_apply`.
    ///
    /// Families are polled hottest-first — pending compaction work, then
    /// most level-0 files — so one namespace's debt cannot hide behind an
    /// idle sibling. Within a family the policy picks the job; its inputs
    /// must not intersect that family's in-flight inputs.
    ///
    /// On success the claim is registered in the family's `claimed_inputs`,
    /// `output_floors` and `active_jobs` until `run_claimed_job` releases it.
    pub fn claim_job(&self, state: &mut MutexGuard<'_, EngineState<P>>) -> Option<ClaimedJob> {
        state.healthy().ok()?;
        let smallest_snapshot = self.snapshots.compaction_floor(state.last_sequence);
        let mut order: Vec<(bool, usize, CfId)> = state
            .cfs
            .values()
            .filter(|cf| !cf.dropping)
            .map(|cf| {
                let level0 = cf.versions.levels()[0].files;
                (cf.versions.needs_compaction(), level0, cf.id)
            })
            .collect();
        order.sort_by_key(|&(needs, level0, _)| std::cmp::Reverse((needs, level0)));

        for (_, _, cf_id) in order {
            let cf = state.cf_mut(cf_id).expect("ordered family exists");
            let mut ctx = PolicyCtx {
                versions: &cf.versions,
                state: &mut cf.policy,
                claimed_inputs: &cf.claimed_inputs,
                smallest_snapshot,
            };
            if let Some(job) = self.policy.pick_job(&mut ctx) {
                cf.claimed_inputs.extend(job.input_numbers());
                let output_floor = cf.io.file_numbers.peek();
                cf.output_floors.push(output_floor);
                cf.active_jobs += 1;
                self.counters.record_compaction_start();
                return Some(ClaimedJob {
                    cf: cf_id,
                    job,
                    output_floor,
                });
            }
        }
        None
    }

    /// Runs a claimed job's merge with the state mutex released, then
    /// commits (or abandons) it and releases its claims. The claimed family
    /// cannot be dropped while the job is in flight (`drop_cf` waits it out).
    pub fn run_claimed_job(&self, state: &mut MutexGuard<'_, EngineState<P>>, claimed: ClaimedJob) {
        let cf_id = claimed.cf;
        let job = &claimed.job;
        self.run_job(
            state,
            cf_id,
            claimed.output_floor,
            |io| {
                if job.move_only {
                    return Ok(Vec::new());
                }
                let outputs = merge_to_tables(io, job)?;
                if !outputs.is_empty() {
                    // The new tables' directory entries must be durable
                    // before the MANIFEST commit references them.
                    io.env.sync_dir(&io.db_path)?;
                }
                Ok(outputs)
            },
            |state, outputs| {
                let cf = state.job_cf(cf_id);
                let edit = VersionEdit::compaction(job, &outputs);
                cf.versions.log_and_apply(edit)?;
                self.policy.job_committed(&mut cf.policy, job);
                // A move reads and writes nothing.
                let bytes_read = if job.move_only { 0 } else { job.input_bytes() };
                Ok((bytes_read, outputs.iter().map(|meta| meta.file_size).sum()))
            },
        );
        // Release the claims whether the job committed or failed, so a
        // poisoned store does not wedge its sibling workers.
        let cf = state.job_cf(cf_id);
        for number in job.input_numbers() {
            cf.claimed_inputs.remove(&number);
        }
        cf.active_jobs -= 1;
        self.counters.record_compaction_end();
    }

    /// Deletes files no live version, pinned version or in-flight job needs,
    /// in every family's directory. A WAL segment survives until every
    /// family's flushed state covers it **and** no change-stream cursor (or
    /// the follower-restart retention window) still needs it — the change
    /// log turns segments a cursor can no longer reach into an explicit
    /// `SequenceTruncated`, never a silently unreadable gap. A deleted
    /// table's reader needs no eviction: it sits on the file's metadata and
    /// goes with the last version (or finishing job) that holds it.
    pub fn remove_obsolete_files(&self, state: &mut MutexGuard<'_, EngineState<P>>) {
        let min_log = self.change_log.wal_reclaim_floor(state.min_log_number());
        let current_log = state.log_file_number;
        let mut any_pinned = false;
        let mut live_wals = 0usize;
        for cf in state.cfs.values_mut() {
            // If a pinned old version kept files alive in this pass, a later
            // quiesced `flush` must rescan once the pins drop.
            let (live, pinned) = cf.versions.live_files_and_pins();
            any_pinned |= pinned;
            let manifest_number = cf.versions.manifest_number();
            let output_floor = cf.output_floors.iter().copied().min();
            let Ok(children) = cf.io.env.children(&cf.io.db_path) else {
                continue;
            };
            for name in children {
                let Some((ty, number)) = parse_file_name(&name) else {
                    // Unknown names (the `CFS` catalog, `cf-<id>` subdirs on
                    // a real filesystem) are never the GC's to delete.
                    continue;
                };
                let keep = match ty {
                    // A table is live if any version references it — or if
                    // it may be the not-yet-committed output of an in-flight
                    // flush or compaction job running on another thread.
                    FileType::Table => {
                        live.binary_search(&number).is_ok()
                            || output_floor.is_some_and(|floor| number >= floor)
                    }
                    FileType::WriteAheadLog => number >= min_log || number == current_log,
                    FileType::Descriptor => number >= manifest_number,
                    FileType::Temp => false,
                    // Value-log lifecycle is owned by `vlog_gc`: a vlog file
                    // is live until a GC pass empties it and the snapshot
                    // floor passes its retire point, neither of which this
                    // version-based scan can see.
                    FileType::ValueLog => true,
                    FileType::Current | FileType::Lock | FileType::BtreePages => true,
                };
                if !keep {
                    if cf.io.env.remove_file(&cf.io.db_path.join(&name)).is_err() {
                        // The file is obsolete in every version, so a failed
                        // delete leaks space, not correctness; the next GC
                        // pass retries it. Count it so the leak is visible.
                        self.counters
                            .cleanup_failures
                            .fetch_add(1, Ordering::Relaxed);
                    }
                } else if cf.id == 0 && ty == FileType::WriteAheadLog {
                    live_wals += 1;
                }
            }
        }
        state.gc_rescan_needed = any_pinned;
        state.live_wal_files = live_wals;
    }
}
