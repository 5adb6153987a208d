//! Who runs background work, and how anyone learns that it ran. With
//! `compaction_threads ≥ 1` a flush thread and that many workers, started
//! through `Env::spawn`, drain the two lanes of jobs; with 0 the thread that
//! would have woken a worker runs the jobs itself, through the same calls —
//! a scheduling choice, not a second code path, and without threads the
//! tree is a function of the operations applied. A thread about to wait for
//! a job (a stalled writer, `flush()`, `drop_cf`) first claims and runs one
//! due job itself, through those same calls, and parks only when none can
//! be claimed, until a job finishes: a stall is work, not an idle CPU beside
//! a lane's thread that has not had its turn yet, and no thread here waits
//! on a timer. `flush()` goes on running due jobs until none can be claimed
//! and none is in flight (`quiesce`).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex, MutexGuard};
use pebblesdb_common::Result;

use crate::chassis::{CfState, EngineCore, EngineShared, EngineState};
use crate::policy::ShapePolicy;

/// The rendezvous points of one store and the threads parked on them.
#[derive(Default)]
pub(crate) struct Executor {
    /// Wakes the compaction workers.
    work_available: Condvar,
    /// Wakes the flush thread.
    flush_available: Condvar,
    /// Wakes stalled writers and `flush` / `drop_cf` waiting out jobs.
    work_done: Condvar,
    /// Joined when the store's last owner drops; empty with no workers.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

#[derive(Clone, Copy)]
enum Lane {
    Flush,
    Compact,
}

impl<P: ShapePolicy> EngineCore<P> {
    /// There may be work: wakes the workers — or, when the store has none,
    /// drains both lanes here. Returns whether a job ran on this thread.
    pub(crate) fn kick(&self, state: &mut MutexGuard<'_, EngineState<P>>) -> bool {
        let inline = self.io.options.compaction_threads == 0;
        let mut ran = false;
        while inline && self.run_one(state) {
            ran = true;
        }
        self.executor.flush_available.notify_one();
        self.executor.work_available.notify_all();
        ran
    }

    /// Claims and runs one due job on this thread, the flush lane first.
    fn run_one(&self, state: &mut MutexGuard<'_, EngineState<P>>) -> bool {
        self.flush_next(state) || self.compact_next(state)
    }

    /// The step before any wait: kick, else run one due job here (with no
    /// workers `kick` has drained both lanes, so none is left). Returns
    /// whether a job ran on this thread.
    fn help(&self, state: &mut MutexGuard<'_, EngineState<P>>) -> bool {
        if self.kick(state) {
            return true;
        }
        let ran = self.run_one(state);
        if ran {
            self.counters.writer_jobs.fetch_add(1, Ordering::Relaxed);
        }
        ran
    }

    /// Helps, else parks until a job finishes somewhere; callers re-check
    /// what they wait for.
    pub(crate) fn wait_for_progress(&self, state: &mut MutexGuard<'_, EngineState<P>>) {
        if !self.help(state) {
            self.executor.work_done.wait(state);
        }
    }

    /// `flush()`'s wait: helps until no job can be claimed, parking while
    /// one still runs elsewhere (a claim is held or a flush is running);
    /// returns once neither holds, or the store is poisoned.
    pub(crate) fn quiesce(&self, state: &mut MutexGuard<'_, EngineState<P>>) -> Result<()> {
        let in_flight = |cf: &CfState<P>| cf.claims.jobs() > 0 || cf.flush_running;
        loop {
            state.healthy()?;
            if self.help(state) {
                continue;
            }
            if !state.cfs.values().any(in_flight) {
                return Ok(());
            }
            self.executor.work_done.wait(state);
        }
    }

    /// Something `wait_for_progress` callers watch has changed; if it was a
    /// job's commit, that may also have armed triggers (or freed claimed
    /// inputs) for idle workers.
    pub(crate) fn notify_progress(&self) {
        self.executor.work_done.notify_all();
        self.executor.work_available.notify_all();
    }

    /// Starts `compaction_threads` workers and, with them, the flush thread.
    /// If a spawn fails the caller's `EngineShared` joins those that ran.
    pub(crate) fn start_workers(core: &Arc<Self>) -> Result<()> {
        let label = core.policy.engine_name().to_ascii_lowercase();
        let workers = core.io.options.compaction_threads;
        let flusher = (workers > 0).then(|| (format!("{label}-flush"), Lane::Flush));
        let workers = (0..workers).map(|n| (format!("{label}-compact-{n}"), Lane::Compact));
        for (name, lane) in flusher.into_iter().chain(workers) {
            let worker = Arc::clone(core);
            let main = Box::new(move || worker.serve(lane));
            let handle = core.io.env.spawn(name, main)?;
            core.executor.threads.lock().push(handle);
        }
        Ok(())
    }

    /// A worker's life: run the lane's jobs, park when there are none.
    fn serve(&self, lane: Lane) {
        let mut state = self.state.lock();
        while !self.shutting_down.load(Ordering::SeqCst) {
            let (ran, idle) = match lane {
                Lane::Flush => (self.flush_next(&mut state), &self.executor.flush_available),
                Lane::Compact => (self.compact_next(&mut state), &self.executor.work_available),
            };
            if !ran {
                idle.wait(&mut state);
            }
        }
    }
}

impl<P: ShapePolicy> Drop for EngineShared<P> {
    fn drop(&mut self) {
        let (core, executor) = (&self.core, &self.core.executor);
        {
            // Set and notified under the lock a worker checks the flag and
            // parks under, so none can miss the wake-up in between.
            let _state = core.state.lock();
            core.shutting_down.store(true, Ordering::SeqCst);
            executor.work_available.notify_all();
            executor.flush_available.notify_all();
        }
        // `join` errs only if the thread panicked, which has printed;
        // re-raising from a destructor would abort mid-unwind.
        let threads = std::mem::take(&mut *executor.threads.lock());
        threads.into_iter().for_each(|thread| drop(thread.join()));
    }
}
