//! Column-family lifecycle: create and drop. The catalog edit is the commit
//! point of both; directories follow it (reopen finishes either half if a
//! crash intervenes).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use pebblesdb_common::{CfId, Error, Result};

use crate::catalog::{Catalog, CatalogData, CatalogEdit};
use crate::chassis::{CfState, EngineCore, EngineState};
use crate::policy::ShapePolicy;

impl<P: ShapePolicy> EngineCore<P> {
    /// Appends `edit` to the catalog. With no handle open — the session's
    /// first edit, or the last append failed and may have left a tear that
    /// further appends would bury — `CFS` is first rewritten from the live
    /// state (atomic tmp + rename), which also drops its dead edits.
    fn commit_catalog_edit(&self, state: &mut EngineState<P>, edit: &CatalogEdit) -> Result<()> {
        let mut catalog = match state.catalog.take() {
            Some(catalog) => catalog,
            None => {
                let cfs = state.cfs.values().map(|cf| (cf.id, cf.name.clone()));
                let live = CatalogData {
                    cfs: cfs.collect(),
                    next_cf_id: state.next_cf_id,
                };
                Catalog::rewrite(Arc::clone(&self.io.env), &self.io.db_path, &live)?
            }
        };
        catalog.append(edit)?;
        state.catalog = Some(catalog);
        Ok(())
    }

    /// Creates a new, empty column family under the state lock and returns
    /// its id.
    ///
    /// With `want_id`, the family is created under that exact id — the
    /// follower side of replication mirrors the leader's catalog, and WAL
    /// records route by id, so the ids must match bit for bit. Asking for an
    /// existing `(id, name)` pair is an idempotent no-op (catalog re-syncs
    /// happen on every reconnect); an id or name clash is an error.
    pub(crate) fn create_cf(&self, name: &str, want_id: Option<CfId>) -> Result<CfId> {
        if name.is_empty() || name.contains('/') {
            return Err(Error::invalid_argument(format!(
                "invalid column family name {name:?}"
            )));
        }
        let mut state = self.state.lock();
        state.healthy()?;
        if let Some(existing) = want_id.and_then(|want| state.cf(want)) {
            if existing.name == name {
                return Ok(existing.id);
            }
            return Err(Error::invalid_argument(format!(
                "column family id {} is {:?}, not {name:?}",
                existing.id, existing.name
            )));
        }
        if state.cf_named(name).is_some() {
            return Err(Error::invalid_argument(format!(
                "column family {name:?} already exists"
            )));
        }
        if want_id == Some(0) {
            return Err(Error::invalid_argument(
                "column family id 0 is the default family",
            ));
        }
        let id = want_id.unwrap_or(state.next_cf_id);
        state.next_cf_id = state.next_cf_id.max(id + 1);

        self.commit_catalog_edit(&mut state, &CatalogEdit::Create(id, name.to_string()))?;

        let (env, root, options) = (&self.io.env, &self.io.db_path, &self.io.options);
        let mut cf = CfState::open(env, root, id, name, options)?;
        cf.start_on_log(state.last_sequence, state.log_file_number)?;
        state.cfs.insert(id, cf);
        Ok(id)
    }

    /// Drops a column family: drains its in-flight background work, commits
    /// the catalog drop edit, removes it from the live set and deletes its
    /// directory. The default family cannot be dropped.
    pub(crate) fn drop_cf(&self, name: &str) -> Result<()> {
        let removed = {
            let mut state = self.state.lock();
            let id = state
                .cf_named(name)
                .ok_or_else(|| Error::invalid_argument(format!("no column family {name:?}")))?;
            if id == 0 {
                return Err(Error::invalid_argument(
                    "the default column family cannot be dropped",
                ));
            }
            // Stop new background work against the family and wait out its
            // in-flight jobs (their outputs die with the directory; the job
            // commit still runs against the family's version set, which is
            // dropped right after).
            state.job_cf(id).dropping = true;
            while state.job_cf(id).claims.jobs() > 0 || state.job_cf(id).flush_running {
                self.wait_for_progress(&mut state);
            }
            // The catalog edit is the commit point. Until it lands nothing
            // of the family may be discarded: if it fails the family goes
            // back to work whole, its unflushed memtables included.
            if let Err(err) = self.commit_catalog_edit(&mut state, &CatalogEdit::Drop(id)) {
                state.job_cf(id).dropping = false;
                self.kick(&mut state);
                self.notify_progress();
                return Err(err);
            }
            state.cfs.remove(&id).expect("dropping family is live")
        };
        // Delete the directory outside the lock; reopen reaps it if this
        // races a crash (the catalog edit above already committed). The drop
        // itself already succeeded — the catalog edit is the commit point —
        // so a failed removal is a disk-space leak, not an error the caller
        // can act on: count it and let the next open retry the reap.
        if self.io.env.remove_dir_all(&removed.io.db_path).is_err() {
            self.counters
                .cleanup_failures
                .fetch_add(1, Ordering::Relaxed);
        }
        self.notify_progress();
        Ok(())
    }
}
